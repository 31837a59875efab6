"""The registry over GF(q^2) saturated from the base simples.

SimpleRegistry.over_extension chops S (x) k' for the simples S of a
registry over k, instead of k'[G].  Both routes must find the same simples
in the same order, with the same dim End(S) and the same Cartan matrix,
and the extension route must never chop a module of dimension |G|."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from equirr import reps
from equirr.errors import InputError
from equirr.fields import field_make
from equirr.groups import FiniteGroup
from equirr.k0 import cartan_data
from equirr.reps import SimpleRegistry
from equirr.scenarios import parse_scenario, realize
from test_cartan import TABLES, cyclic, pgl2_gf3, translations_gf9

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json")
                 if p.name != "golden.json")


def dihedral(n):
    """The dihedral group of order 2n; element i + n j is r^i s^j."""
    def mul(a, b):
        i, j = a % n, a // n
        k, l = b % n, b // n
        return (i + (-1) ** j * k) % n + n * ((j + l) % 2)
    return FiniteGroup.from_table([[mul(a, b) for b in range(2 * n)]
                                   for a in range(2 * n)])


def assert_routes_agree(G, F, F2, seed=0):
    base = SimpleRegistry(G, F, random.Random(seed))
    via_base = SimpleRegistry.over_extension(G, F2, base)
    direct = SimpleRegistry(G, F2, random.Random(seed))
    assert via_base.vectors == direct.vectors
    assert ([via_base.end_dim(i) for i in range(len(via_base))]
            == [direct.end_dim(i) for i in range(len(direct))])
    assert (cartan_data(G, F2, via_base).matrix
            == cartan_data(G, F2, direct).matrix)


@pytest.mark.parametrize("make,p,n", [(pgl2_gf3, 3, 1),
                                      (translations_gf9, 3, 2)],
                         ids=["PGL2-GF3", "T9-GF9"])
def test_benchmark_groups(make, p, n):
    assert_routes_agree(make(), field_make(p, n), field_make(p, 2 * n))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_groups_over_gf2(name):
    make = TABLES[name][0]
    assert_routes_agree(make(), field_make(2, 1), field_make(2, 2))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenario_groups(name):
    cover = realize(parse_scenario((SCENARIO_DIR / name).read_text())).cover
    k = cover.k
    assert_routes_agree(cover.G, k, field_make(k.p, 2 * k.n))


SMALL_GROUPS = ([("cyclic", n) for n in range(1, 13)]
                + [("dihedral", n) for n in range(2, 7)])


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(SMALL_GROUPS), p=st.sampled_from([2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_small_groups_agree(group, p, seed):
    # cyclic groups of order up to 12, dihedral groups of order 2n <= 12
    kind, n = group
    G = cyclic(n) if kind == "cyclic" else dihedral(n)
    assert_routes_agree(G, field_make(p, 1), field_make(p, 2), seed)


def test_extension_route_chops_no_regular_module(monkeypatch):
    G, F = pgl2_gf3(), field_make(3, 1)
    base = SimpleRegistry(G, F, random.Random(0))
    base.simples
    dims = []
    real = reps.chop

    def counted(M, rng):
        dims.append(M.dim)
        return real(M, rng)

    monkeypatch.setattr(reps, "chop", counted)
    ext = SimpleRegistry.over_extension(G, field_make(3, 2), base)
    assert len(ext) == 4
    assert dims == [S.dim for S in base.simples]
    assert max(dims) < G.order


def test_mismatched_base_is_rejected():
    G = pgl2_gf3()
    base = SimpleRegistry(G, field_make(3, 1), random.Random(0))
    with pytest.raises(InputError, match="another group"):
        SimpleRegistry.over_extension(cyclic(3), field_make(3, 2), base)
    with pytest.raises(InputError, match="not an extension"):
        SimpleRegistry.over_extension(G, field_make(5, 1), base)
    C3 = cyclic(3)
    base4 = SimpleRegistry(C3, field_make(2, 2), random.Random(0))
    with pytest.raises(InputError, match="not an extension"):
        SimpleRegistry.over_extension(C3, field_make(2, 3), base4)
