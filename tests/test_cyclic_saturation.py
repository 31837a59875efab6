"""Simples of p-by-cyclic groups in closed form against the MeatAxe.

When the Sylow p-subgroup P of G is normal and G/P is cyclic of order m,
SimpleRegistry writes the simples down: one per q-cyclotomic coset C of
Z/m, the companion matrix of f_C = prod_{t in C} (x - zeta_m^t) raised to
the exponent of g's coset in G/P, with P acting trivially.  The reference
is reptools.reference_saturation, the chop of Ind_P^G(k) that every other
group still takes: the two must give the same Brauer vectors in the same
order, the same dims, the same dim End(S) and the same Cartan matrix.
The 1 x 1 eigenvalue lookup of BrauerCharacters is compared with the
characteristic polynomial route (reptools.reference_eigenvalue_counts)."""


import pytest

from equirr import groups, reps
from equirr.errors import CapExceeded, Inconsistency
from equirr.fields import field_make
from equirr.groups import cyclic_quotient, sylow_p
from equirr.k0 import cartan_data
from equirr.matrices import Mat
from equirr.reps import BrauerCharacters, SimpleRegistry
from reptools import (chop_draws, is_normal, reference_eigenvalue_counts,
                      reference_saturation)
from test_cartan import TABLES, cyclic
from test_extension_registry import dihedral

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (13, 1)]


def is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


# name -> (group, whether P is normal with G/P cyclic over characteristic
# p).  The dihedral group of order 2n is: for p | n the Sylow subgroup of
# the rotations is normal with quotient dihedral of order 2n' (n' the
# p'-part of n), cyclic only for n' = 1, and for p = 2 and n not a power
# of 2, or p odd prime to n, P is not normal or G/P = D_n is not cyclic.
# A4 has the normal Klein four group for p = 2 with quotient C3; S4 has a
# normal Sylow subgroup for no p.
GROUPS = {
    **{f"C{n}": (lambda n=n: cyclic(n), lambda p: True)
       for n in range(1, 16)},
    **{f"D{n}": (lambda n=n: dihedral(n),
                 lambda p, n=n: is_power_of(n, p)) for n in range(2, 8)},
    **{f"table-{name}": (make, {"A4": lambda p: p == 2,
                                "S4": lambda p: False}.get(
                                    name, lambda p: True))
       for name, (make, _, _) in TABLES.items()},
}


def end_dims(registry):
    return [registry.end_dim(i) for i in range(len(registry))]


def saturate(G, F, seed, monkeypatch):
    """(registry, dims of the modules its saturation chopped)."""
    chops = []
    real = reps.chop
    monkeypatch.setattr(reps, "chop",
                        lambda *args: chops.append(args[0].dim) or real(*args))
    reg = SimpleRegistry(G, F)
    with chop_draws(seed):
        reg.simples
    monkeypatch.setattr(reps, "chop", real)
    return reg, chops


@pytest.mark.parametrize("p,n", FIELDS,
                         ids=[f"GF{p ** n}" for p, n in FIELDS])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_registry_equals_the_chop_of_the_sylow_permutation_module(
        monkeypatch, name, p, n):
    make, closed = GROUPS[name]
    G, F = make(), field_make(p, n)
    P = sylow_p(G, p)
    assert (cyclic_quotient(G, P, p) is not None) == closed(p)
    try:
        BrauerCharacters(G, F)
    except CapExceeded:
        # an ambient field past TABLE_LIMIT: both routes refuse it
        with pytest.raises(CapExceeded):
            SimpleRegistry(G, F).simples
        with pytest.raises(CapExceeded):
            reference_saturation(G, F, 1).simples
        return
    reg, chops = saturate(G, F, 0, monkeypatch)
    assert chops == ([] if closed(p) else [G.order // P.order])
    ref = reference_saturation(G, F, 1)
    assert reg.vectors == ref.vectors
    assert [S.dim for S in reg.simples] == [S.dim for S in ref.simples]
    assert end_dims(reg) == end_dims(ref)
    assert reg.log == ref.log
    assert cartan_data(G, F, reg).matrix == cartan_data(G, F, ref).matrix


def test_the_closed_form_covers_most_cases():
    # of the 208 (group, field) cases, 4 cyclic ones are past TABLE_LIMIT;
    # the closed form takes 153 of the other 204
    run, closed = 0, 0
    for make, _ in GROUPS.values():
        G = make()
        for p, n in FIELDS:
            try:
                BrauerCharacters(G, field_make(p, n))
            except CapExceeded:
                continue
            run += 1
            closed += cyclic_quotient(G, sylow_p(G, p), p) is not None
    assert (run, closed) == (204, 153)


@pytest.mark.parametrize("m,p,dims", [(5, 2, [1, 4]), (7, 2, [1, 3, 3]),
                                      (15, 2, [1, 2, 4, 4, 4]),
                                      (4, 3, [1, 1, 2]),
                                      (12, 13, [1] * 12)],
                         ids=["C5-GF2", "C7-GF2", "C15-GF2", "C4-GF3",
                              "C12-GF13"])
def test_cyclic_groups_split_by_cyclotomic_cosets(monkeypatch, m, p, dims):
    # one simple per q-cyclotomic coset of Z/m, of its size, with End the
    # field GF(q^size): a non-split simple has dim End = dim
    reg, chops = saturate(cyclic(m), field_make(p, 1), 0, monkeypatch)
    assert chops == []
    assert [S.dim for S in reg.simples] == dims
    assert end_dims(reg) == dims
    for S in reg.simples:
        A = S.gen_image(0)
        assert A.charpoly().degree == S.dim
        assert A.pow_(m) == Mat.identity(S.field, S.dim)


@pytest.mark.parametrize("make,p,why", [
    (TABLES["S4"][0], 2, "not normal"), (TABLES["A4"][0], 3, "not normal"),
    (lambda: dihedral(4), 3, "not cyclic"),
    (lambda: dihedral(2), 3, "not cyclic")],
    ids=["S4-GF2", "A4-GF3", "D8-GF3", "C2xC2-GF3"])
def test_other_groups_keep_the_meataxe(monkeypatch, make, p, why):
    G = make()
    P = sylow_p(G, p)
    assert is_normal(P, G) == (why == "not cyclic")
    assert cyclic_quotient(G, P, p) is None
    _, chops = saturate(G, field_make(p, 1), 0, monkeypatch)
    assert chops == [G.order // P.order]


def test_cyclic_quotient_reads_each_coset():
    # A4 over GF(2): P is the Klein four group, G/P = C3
    G = TABLES["A4"][0]()
    P = sylow_p(G, 2)
    c, j = cyclic_quotient(G, P, 2)
    assert G.element_order(c) == 3
    power = G.identity
    for s in range(3):
        coset = {G.table[power][x] for x in P.positions_in(G)}
        assert {g for g in range(G.order) if j[g] == s} == coset
        power = G.table[power][c]
    for a in range(G.order):
        for b in range(G.order):
            assert j[G.table[a][b]] == (j[a] + j[b]) % 3


def test_a_factor_outside_k_is_inconsistent(monkeypatch):
    # with the powers of a primitive 15th root of unity in place of the
    # 5th roots, the factor of x^5 - 1 over the coset {1, 2, 4, 3} has
    # coefficients in GF(16) outside GF(2)
    G, F = cyclic(5), field_make(2, 1)
    reg = SimpleRegistry(G, F)
    E = reg.brauer.ambient
    assert E.q == 16
    monkeypatch.setattr(
        BrauerCharacters, "_root_table",
        lambda self, m: [E.pow_(E.generator, t) for t in range(m)])
    with pytest.raises(Inconsistency, match="outside GF\\(2\\)"):
        reg.simples


def test_a_wrong_coset_exponent_is_caught(monkeypatch):
    # j(g) off by one on C6 over GF(7): the generator g = c gets j = 2, so
    # S(g) = A^2 for each 1 x 1 companion matrix A = [zeta^t], and the
    # simples for t and t + 3 share a Brauer vector
    real = groups.cyclic_quotient

    def shifted(G, P, p):
        c, j = real(G, P, p)
        return c, [(s + 1) % G.element_order(c) for s in j]

    monkeypatch.setattr(reps, "cyclic_quotient", shifted)
    with pytest.raises(Inconsistency, match="share a Brauer vector"):
        SimpleRegistry(cyclic(6), field_make(7, 1)).simples


# -- the 1 x 1 eigenvalue lookup ---------------------------------------------


@pytest.mark.parametrize("m,p,n", [(1, 2, 1), (2, 3, 1), (4, 5, 1),
                                   (6, 7, 1), (12, 13, 1), (3, 2, 2),
                                   (7, 2, 3), (8, 3, 2)])
def test_one_by_one_lookup_equals_the_charpoly_route(m, p, n):
    # C_m over GF(q) with m | q - 1: the ambient field is k itself, and
    # every element a of k is tried, root of unity of order m or not
    F = field_make(p, n)
    brauer = BrauerCharacters(cyclic(m), F)
    assert brauer.ambient.q == F.q
    roots = 0
    for a in range(1, F.q):
        A = Mat.from_rows(F, [[a]])
        if F.pow_(a, m) == 1:
            roots += 1
            assert (brauer.eigenvalue_counts(A, m)
                    == reference_eigenvalue_counts(brauer, A, m))
        else:
            for count in (brauer.eigenvalue_counts,
                          lambda A, m: reference_eigenvalue_counts(brauer, A,
                                                                   m)):
                with pytest.raises(Inconsistency, match="roots of unity"):
                    count(A, m)
    assert roots == m


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_brauer_vectors_of_the_simples_by_either_route(name):
    # every generator image of every simple over GF(4), 1 x 1 or not
    G, F = GROUPS[name][0](), field_make(2, 2)
    reg = SimpleRegistry(G, F)
    brauer = reg.brauer
    for S in reg.simples:
        for g, m in brauer.generators:
            assert (brauer.eigenvalue_counts(S.image(g), m)
                    == reference_eigenvalue_counts(brauer, S.image(g), m))
