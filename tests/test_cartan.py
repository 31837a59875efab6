"""The Cartan matrix read off Brauer characters against the summand split.

k0.cartan_data computes C = M^-1 diag(e) from the Gram matrix M of the
simples' Brauer characters; tests/reptools.split_cartan_matrix splits k[G]
into projective indecomposables with random endomorphisms and reads their
composition factors.  The two must agree on every group the engine
meets, and the Brauer route must neither draw nor split."""

import itertools
import random
from pathlib import Path

import pytest

from equirr import k0, reps
from equirr.errors import Inconsistency
from equirr.fields import field_make
from equirr.groups import FiniteGroup
from equirr.k0 import cartan_data
from equirr.reps import SimpleRegistry
from equirr.scenarios import parse_scenario, realize
from reptools import chop_draws, split_cartan_matrix

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json")
                 if p.name != "golden.json")


def perm_table(perms):
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(len(a)))] for b in perms]
            for a in perms]


def is_even(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0


def cyclic(n):
    return FiniteGroup.from_table([[(i + j) % n for j in range(n)]
                                   for i in range(n)])


def alternating4():
    return FiniteGroup.from_table(perm_table(
        p for p in itertools.permutations(range(4)) if is_even(p)))


def symmetric4():
    return FiniteGroup.from_table(perm_table(itertools.permutations(range(4))))


def pgl2_gf3():
    return FiniteGroup.close_generators(
        field_make(3, 1), [(1, 1, 0, 1), (2, 0, 0, 1), (0, 1, 1, 0)])


def translations_gf9():
    return FiniteGroup.close_generators(
        field_make(3, 2), [(1, 1, 0, 1), (1, 3, 0, 1)])


def assert_matches_split(G, F, seed=0):
    reg = SimpleRegistry(G, F)
    with chop_draws(seed):
        cd = cartan_data(G, F, reg)
    assert cd.matrix == split_cartan_matrix(G, F, reg, random.Random(seed))
    return reg, cd


# (group, field, Cartan matrix, dim End(S_i)) over GF(2) in registry order
TABLES = {
    "C3": (lambda: cyclic(3), [[1, 0], [0, 1]], [1, 2]),
    "C6": (lambda: cyclic(6), [[2, 0], [0, 2]], [1, 2]),
    "A4": (alternating4, [[2, 2], [1, 3]], [1, 2]),
    "S4": (symmetric4, [[4, 2], [2, 3]], [1, 1]),
    "C7": (lambda: cyclic(7), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 3, 3]),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_groups_over_gf2(name):
    make, expected, ends = TABLES[name]
    G, F = make(), field_make(2, 1)
    reg, cd = assert_matches_split(G, F)
    assert cd.matrix == expected
    assert [reg.end_dim(i) for i in range(len(reg))] == ends
    assert sum(d * S.dim // e for d, S, e in
               zip(cd.pim_dims, reg.simples, ends)) == G.order


@pytest.mark.parametrize("make,p,n", [(pgl2_gf3, 3, 1), (pgl2_gf3, 3, 2),
                                      (translations_gf9, 3, 2),
                                      (translations_gf9, 3, 4)],
                         ids=["PGL2-GF3", "PGL2-GF9", "T9-GF9", "T9-GF81"])
def test_benchmark_groups_over_gf_q_and_q2(make, p, n):
    assert_matches_split(make(), field_make(p, n))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenario_groups(name):
    cover = realize(parse_scenario((SCENARIO_DIR / name).read_text())).cover
    groups = [cover.G] + [datum.G_P for datum in cover.orbit_data]
    for G in groups:
        assert_matches_split(G, cover.k)
    k2 = field_make(cover.k.p, 2 * cover.k.n)
    assert_matches_split(cover.G, k2)


def test_wrong_end_dims_are_inconsistent(monkeypatch):
    # over GF(2) the 2-dimensional simple of A4 has End = GF(4); taking
    # End = k for it leaves a column of C = M^-1 diag(e) non-integral
    G, F = alternating4(), field_make(2, 1)
    reg = SimpleRegistry(G, F)
    assert len(reg) == 2
    monkeypatch.setattr(SimpleRegistry, "end_dim", lambda self, i: 1)
    with pytest.raises(Inconsistency, match="nonnegative integer"):
        cartan_data(G, F, reg)


@pytest.mark.parametrize("make,p", [(symmetric4, 2), (pgl2_gf3, 3)],
                         ids=["S4-GF2", "PGL2-GF3"])
def test_perturbed_brauer_vector_is_inconsistent(monkeypatch, make, p):
    # move one eigenvalue of the last simple on its first class of order
    # m > 1 from zeta^j to zeta^(j+1) before anything is solved: the class
    # solver and the Cartan matrix share the registry's one Gram matrix,
    # so both see the change
    G, F = make(), field_make(p, 1)
    reg = SimpleRegistry(G, F)
    reg.simples
    vectors = [list(v) for v in reg.vectors]
    last = vectors[-1]
    c = next(c for c, counts in enumerate(last) if len(counts) > 1)
    counts = list(last[c])
    j = next(j for j, n in enumerate(counts) if n)
    counts[j] -= 1
    counts[(j + 1) % len(counts)] += 1
    last[c] = tuple(counts)
    perturbed = [tuple(v) for v in vectors]
    monkeypatch.setattr(SimpleRegistry, "vectors",
                        property(lambda self: perturbed))
    with pytest.raises(Inconsistency):
        cartan_data(G, F, reg)


@pytest.mark.parametrize("n", [1, 2], ids=["GF3", "GF9"])
def test_cartan_data_draws_nothing_and_splits_nothing(monkeypatch, n):
    G, F = pgl2_gf3(), field_make(3, n)
    reg = SimpleRegistry(G, F)
    reg.simples  # saturate: the registry's one chop of k[G] draws here
    calls = []
    real = reps.indecomposable_summands

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reps, "indecomposable_summands", counted)
    # also seen if k0 imported the name again
    monkeypatch.setattr(k0, "indecomposable_summands", counted,
                        raising=False)

    def refused(self, *args):
        raise AssertionError("cartan_data drew at random")

    # every draw of a random.Random goes through one of these
    for name in ("random", "getrandbits", "_randbelow"):
        monkeypatch.setattr(random.Random, name, refused)
    with pytest.raises(AssertionError, match="drew"):
        random.Random(3).choice([0, 1])
    cartan_data(G, F, reg)
    assert calls == []


def test_end_dims_must_count_the_p_regular_classes(monkeypatch):
    # over GF(3) the first 3-dimensional simple of PGL2(GF(3)) has
    # End = k; taking 3 for it scales its Cartan column by 3, which every
    # other check tolerates, but the e_i then add up to 6, not to the 4
    # p-regular classes
    G, F = pgl2_gf3(), field_make(3, 1)
    reg = SimpleRegistry(G, F)
    assert [S.dim for S in reg.simples] == [1, 1, 3, 3]
    real = SimpleRegistry.end_dim
    monkeypatch.setattr(SimpleRegistry, "end_dim",
                        lambda self, i: 3 if i == 2 else real(self, i))
    with pytest.raises(Inconsistency, match="4 p-regular classes"):
        cartan_data(G, F, reg)
