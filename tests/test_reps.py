import functools
import itertools
import random
from pathlib import Path

import pytest

from equirr import reps
from equirr.errors import CapExceeded, Inconsistency
from equirr.fields import field_make
from equirr.groups import FiniteGroup, Subgroup, sylow_p
from equirr.k0 import cartan_data
from equirr.matrices import Mat
from equirr.reps import (BrauerCharacters, Rep, SimpleRegistry, chop,
                         find_submodule_or_simple, hom_dim, hom_space,
                         indecomposable_summands, is_projective,
                         regular_endomorphisms, rep_direct_sum,
                         rep_dual, rep_induce, rep_regular,
                         rep_restrict, rep_tensor, rep_trivial,
                         spin_columns, split_on_submodule)
from equirr.scenarios import parse_scenario, realize
from reptools import (chop_class, head_multiplicities, is_isomorphic,
                      projective_cover_over_inertia, split_by_completed_basis,
                      total_dim)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_table():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(a, b):
        return tuple(a[b[x]] for x in range(3))

    return [[index[compose(a, b)] for b in perms] for a in perms]


def rep_scalar(G, field, values):
    """One-dimensional representation from per-element scalar values."""
    return Rep(G, field, 1,
               {t: Mat.from_rows(field, [[values[g]]])
                for t, g in enumerate(G.generators)})


def rng():
    return random.Random(1234)


# -- regular representation ---------------------------------------------------


def test_regular_trivial_group():
    G = FiniteGroup.from_table([[0]])
    F = field_make(3, 1)
    M = rep_regular(G, F)
    assert M.dim == 1
    reg = SimpleRegistry(G, F, rng())
    v = chop_class(M, reg, rng())
    assert total_dim(v) == 1 and len(reg) == 1


def test_regular_c2_gf3_semisimple():
    G = FiniteGroup.from_table(cyclic_table(2))
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F, rng())
    v = chop_class(rep_regular(G, F), reg, rng())
    assert len(reg) == 2  # trivial and sign
    assert sorted(int(c) for c in v.coeffs) == [1, 1]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_regular_cp_gfp_local(p):
    G = FiniteGroup.from_table(cyclic_table(p))
    F = field_make(p, 1)
    reg = SimpleRegistry(G, F, rng())
    v = chop_class(rep_regular(G, F), reg, rng())
    assert len(reg) == 1
    assert v.coeffs == (p,)
    assert reg.simples[0].dim == 1


def test_chop_s3_gf5_multiplicities():
    # 5 does not divide 6, so k[S3] is semisimple with simples of dims
    # 1, 1, 2; multiplicities equal their dims.  Cross-check through
    # hom_dim counts, the independent route.
    G = FiniteGroup.from_table(s3_table())
    F = field_make(5, 1)
    reg = SimpleRegistry(G, F, rng())
    M = rep_regular(G, F)
    v = chop_class(M, reg, rng())
    dims = sorted(S.dim for S in reg.simples)
    assert dims == [1, 1, 2]
    for i, S in enumerate(reg.simples):
        assert v.coeffs[i] == hom_dim(M, S) // hom_dim(S, S)
        assert int(v.coeffs[i]) == S.dim  # semisimple group algebra


# -- induction / restriction ---------------------------------------------------


def test_induce_from_whole_group_is_identity():
    G = FiniteGroup.from_table(s3_table())
    F = field_make(5, 1)
    H = Subgroup(G, range(G.order), check=False)
    M = rep_restrict(rep_regular(G, F), H)
    ind = rep_induce(M, G, H)
    assert is_isomorphic(ind, rep_regular(G, F), rng())


def test_induce_trivial_from_identity_is_regular():
    G = FiniteGroup.from_table(cyclic_table(4))
    F = field_make(3, 1)
    H = Subgroup(G, [G.identity])
    triv_h = rep_trivial(H.as_group(), F)
    ind = rep_induce(triv_h, G, H)
    assert ind.dim == 4
    assert is_isomorphic(ind, rep_regular(G, F), rng())


def test_frobenius_reciprocity_dimension_identity():
    G = FiniteGroup.from_table(s3_table())
    F = field_make(3, 1)
    H = sylow_p(G, 3)
    Hg = H.as_group()
    r = rng()
    candidates_h = [rep_trivial(Hg, F), rep_regular(Hg, F)]
    candidates_g = [rep_trivial(G, F), rep_regular(G, F)]
    for M in candidates_h:
        for N in candidates_g:
            lhs = hom_dim(rep_induce(M, G, H), N)
            rhs = hom_dim(M, rep_restrict(N, H))
            assert lhs == rhs


# -- tensor / dual / sum --------------------------------------------------------


def test_tensor_dual_contains_trivial():
    G = FiniteGroup.from_table(s3_table())
    F = field_make(5, 1)
    reg = SimpleRegistry(G, F, rng())
    r = rng()
    chop_class(rep_regular(G, F), reg, r)
    V = next(S for S in reg.simples if S.dim == 2)
    W = rep_tensor(V, rep_dual(V))
    v = chop_class(W, reg, r)
    triv_idx = next(i for i, S in enumerate(reg.simples)
                    if S.dim == 1 and all(S.image(g) == Mat.identity(F, 1)
                                          for g in range(G.order)))
    assert v.coeffs[triv_idx] >= 1


def test_direct_sum_chop_additive():
    G = FiniteGroup.from_table(cyclic_table(2))
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F, rng())
    r = rng()
    M = rep_regular(G, F)
    triv = rep_trivial(G, F)
    both = rep_direct_sum(M, triv)
    assert chop_class(both, reg, r) == (chop_class(M, reg, r)
                                        + chop_class(triv, reg, r))


# -- hom spaces -----------------------------------------------------------------


def test_hom_schur_absolutely_simple():
    G = FiniteGroup.from_table(s3_table())
    F = field_make(5, 1)
    reg = SimpleRegistry(G, F, rng())
    chop_class(rep_regular(G, F), reg, rng())
    for S in reg.simples:
        assert hom_dim(S, S) == 1  # all simples of S3 absolutely simple


def test_hom_trivial_vs_sign():
    G = FiniteGroup.from_table(cyclic_table(2))
    F = field_make(3, 1)
    triv = rep_trivial(G, F)
    sign = rep_scalar(G, F, {0: 1, 1: 2})
    assert hom_dim(triv, sign) == 0
    assert hom_dim(sign, sign) == 1


@pytest.mark.parametrize("n", [1, 2], ids=["GF3", "GF9"])
@pytest.mark.parametrize("dm,dn", [(1, 1), (2, 3), (3, 2)])
def test_hom_trivial_group_is_unit_matrices(n, dm, dn):
    # no generators, so no equations: the dn x dm unit matrices E_ij in
    # row-major order, the order the nullspace basis of a wider group uses
    G = FiniteGroup.from_table([[0]])
    F = field_make(3, n)
    basis = hom_space(rep_trivial(G, F, dm), rep_trivial(G, F, dn))
    units = []
    for i in range(dn):
        for j in range(dm):
            rows = [[0] * dm for _ in range(dn)]
            rows[i][j] = 1
            units.append(Mat.from_rows(F, rows))
    assert basis == units


def test_hom_regular_to_simple():
    G = FiniteGroup.from_table(s3_table())
    F = field_make(5, 1)
    reg = SimpleRegistry(G, F, rng())
    M = rep_regular(G, F)
    chop_class(M, reg, rng())
    for S in reg.simples:
        assert hom_dim(M, S) == S.dim  # free module maps


# -- isomorphism ----------------------------------------------------------------


def test_is_isomorphic_basics():
    G = FiniteGroup.from_table(cyclic_table(2))
    F = field_make(3, 1)
    M = rep_regular(G, F)
    assert is_isomorphic(M, M)
    triv = rep_trivial(G, F)
    sign = rep_scalar(G, F, {0: 1, 1: 2})
    assert not is_isomorphic(triv, sign)


# -- indecomposable summands ------------------------------------------------------


def saturated_regular(G, F, r):
    """The regular module and a registry saturated by chopping it."""
    reg = SimpleRegistry(G, F, rng())
    M = rep_regular(G, F)
    chop_class(M, reg, r)
    return M, reg


def test_summands_c2_gf3():
    G = FiniteGroup.from_table(cyclic_table(2))
    F = field_make(3, 1)
    r = rng()
    M, reg = saturated_regular(G, F, r)
    parts = indecomposable_summands(M, regular_endomorphisms(G, F), reg, r)
    assert sorted(p.dim for p, _ in parts) == [1, 1]
    assert sorted(head for _, head in parts) == [0, 1]


def test_summands_c2_gf2_local():
    G = FiniteGroup.from_table(cyclic_table(2))
    F = field_make(2, 1)
    r = rng()
    M, reg = saturated_regular(G, F, r)
    parts = indecomposable_summands(M, regular_endomorphisms(G, F), reg, r)
    assert [(p.dim, head) for p, head in parts] == [(2, 0)]


def c3xc3_table():
    return [[3 * ((a // 3 + b // 3) % 3) + (a + b) % 3 for b in range(9)]
            for a in range(9)]


@pytest.mark.parametrize("table,p", [(cyclic_table(4), 5), (s3_table(), 5),
                                     (s3_table(), 7)],
                         ids=["C4-GF5", "S3-GF5", "S3-GF7"])
def test_registry_brauer_key_orders_nonisomorphic_simples(table, p):
    # the Brauer vector alone decides: the saturated registry holds
    # pairwise non-isomorphic simples sorted by (dim, Brauer vector), the
    # same ones whatever the MeatAxe draws, and a conjugate copy of a
    # simple is found at its index
    G = FiniteGroup.from_table(table)
    F = field_make(p, 1)
    reg = SimpleRegistry(G, F, random.Random(1))
    other = SimpleRegistry(G, F, random.Random(2))
    keys = [(S.dim, reg.brauer.vector(S)) for S in reg.simples]
    assert keys == sorted(set(keys))
    assert keys == [(S.dim, other.brauer.vector(S)) for S in other.simples]
    for i, S in enumerate(reg.simples):
        assert [is_isomorphic(S, T) for T in reg.simples] == \
            [j == i for j in range(len(reg))]
        assert is_isomorphic(S, other.simples[i])
        P = Mat.identity(F, S.dim) + Mat.from_rows(
            F, [[int(c == r + 1) for c in range(S.dim)]
                for r in range(S.dim)])  # unipotent, so invertible
        Pinv = P.inv()
        conj = Rep(G, F, S.dim, {t: Pinv @ X @ P
                                 for t, X in enumerate(S.generator_images())})
        assert reg.class_of(conj) == reg.basis_vector(i)


def test_chop_returns_certified_composition_factors():
    # k[S3] over GF(5) is semisimple: trivial, sign and twice the
    # 2-dimensional simple, each factor decided simple by the MeatAxe
    G = FiniteGroup.from_table(s3_table())
    F = field_make(5, 1)
    factors = chop(rep_regular(G, F), rng())
    assert sorted(S.dim for S in factors) == [1, 1, 2, 2]
    assert all(S.group is G and S.field is F for S in factors)
    assert all(find_submodule_or_simple(S, rng()) == "simple"
               for S in factors)
    reg = SimpleRegistry(G, F, rng())
    assert sorted(reg.vectors) == sorted({reg.brauer.vector(S)
                                          for S in factors})


def test_registry_state_after_init_is_cached_properties_only():
    # a registry assigns nothing after __init__ but its cached properties
    G = FiniteGroup.from_table(s3_table())
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F, rng())
    at_init = set(vars(reg))
    reg.regular_class()
    reg.class_of(rep_regular(G, F))
    cartan_data(G, F, reg)
    over = SimpleRegistry.over_extension(G, field_make(3, 2), reg)
    assert set(vars(over)) == at_init
    over.regular_class()
    cached = {name for name, value in vars(SimpleRegistry).items()
              if isinstance(value, functools.cached_property)}
    for registry in (reg, over):
        assert set(vars(registry)) - at_init <= cached
        assert "_table" in vars(registry)


def test_failed_saturation_leaves_the_registry_unsaturated(monkeypatch):
    # a chop that raises during saturation (here the 3rd MeatAxe call for
    # the main registry of scenarios/a3_s3_gf5.json, S3 over GF(5)) keeps
    # no partial state: the next use saturates again, to the same simples
    # in the same order as a fresh registry
    text = (SCENARIO_DIR / "a3_s3_gf5.json").read_text()
    reg = realize(parse_scenario(text)).cover.registry
    real = reps.find_submodule_or_simple
    calls = []

    def failing(A, rng, seed=None):
        calls.append(A)
        if len(calls) == 3:
            raise CapExceeded("forced")
        return real(A, rng, seed)

    monkeypatch.setattr(reps, "find_submodule_or_simple", failing)
    with pytest.raises(CapExceeded, match="forced"):
        reg.simples
    assert len(calls) == 3
    assert len(reg.simples) == 3
    assert len(calls) > 3  # saturated again
    fresh = SimpleRegistry(reg.group, reg.field, random.Random(7))
    assert len(fresh.simples) == 3
    assert reg.vectors == fresh.vectors
    for S, T in zip(reg.simples, fresh.simples):
        assert S.dim == T.dim and is_isomorphic(S, T)
    assert reg.regular_class().coeffs == fresh.regular_class().coeffs


@pytest.mark.parametrize("table,p,n", [
    (cyclic_table(2), 2, 1),
    (cyclic_table(3), 3, 1),
    (s3_table(), 3, 1),
    (c3xc3_table(), 3, 2),  # End(k[G]) has 9^9 elements
], ids=["C2-GF2", "C3-GF3", "S3-GF3", "C3xC3-GF9"])
def test_summands_via_head_oracle(table, p, n):
    # do not trust any asserted dim multiset: recompute via the
    # head-multiplicity formula m_S = dim S / dim End(S)
    G = FiniteGroup.from_table(table)
    F = field_make(p, n)
    r = rng()
    M, reg = saturated_regular(G, F, r)
    parts = indecomposable_summands(M, regular_endomorphisms(G, F), reg, r)
    assert sum(P.dim for P, _ in parts) == G.order
    end_dims = [hom_dim(S, S) for S in reg.simples]
    assert len(parts) == sum(S.dim // e
                             for S, e in zip(reg.simples, end_dims))
    for P, head in parts:
        assert [hom_dim(P, S) for S in reg.simples] == [
            end_dims[i] if i == head else 0 for i in range(len(reg))]
    heads = head_multiplicities(M, reg)
    for i, S in enumerate(reg.simples):
        m = heads[i]
        assert m == S.dim // end_dims[i]
        assert sum(1 for _, head in parts if head == i) == m


def pgl2_gf3():
    return FiniteGroup.close_generators(
        field_make(3, 1), [(1, 1, 0, 1), (2, 0, 0, 1), (0, 1, 1, 0)])


def translations_gf9():
    return FiniteGroup.close_generators(
        field_make(3, 2), [(1, 1, 0, 1), (1, 3, 0, 1)])


@pytest.mark.parametrize("make_group,p,n", [
    (lambda: FiniteGroup.from_table(cyclic_table(2)), 2, 1),
    (lambda: FiniteGroup.from_table(cyclic_table(3)), 3, 1),
    (lambda: FiniteGroup.from_table(s3_table()), 5, 1),
    (lambda: FiniteGroup.from_table(s3_table()), 5, 2),
    (lambda: FiniteGroup.from_table(c3xc3_table()), 3, 2),
    (pgl2_gf3, 3, 1),
    (pgl2_gf3, 3, 2),
    (translations_gf9, 3, 2),
    (translations_gf9, 3, 4),
], ids=["C2-GF2", "C3-GF3", "S3-GF5", "S3-GF25", "C3xC3-GF9",
        "PGL2_3-GF3", "PGL2_3-GF9", "T9-GF9", "T9-GF81"])
def test_regular_endomorphisms_are_the_hom_space_basis(make_group, p, n):
    # the same matrices in the same order, so combos() draws the same
    # random endomorphisms whichever builder supplies End(k[G])
    G = make_group()
    F = field_make(p, n)
    M = rep_regular(G, F)
    ends = regular_endomorphisms(G, F)
    assert len(ends) == G.order
    assert ends == hom_space(M, M)


@pytest.mark.parametrize("make_group,p,n", [
    (lambda: FiniteGroup.from_table(s3_table()), 3, 1),
    (lambda: FiniteGroup.from_table(cyclic_table(12)), 13, 1),
    (pgl2_gf3, 3, 1),
    (pgl2_gf3, 3, 2),
    (translations_gf9, 3, 2),
], ids=["S3-GF3", "C12-GF13", "PGL2_3-GF3", "PGL2_3-GF9", "T9-GF9"])
def test_echelon_split_matches_the_completed_basis_split(make_group, p, n):
    # the split in W's echelon basis (no inverse) and the split through a
    # completed basis and its inverse give isomorphic pieces, so equal
    # Brauer vectors; W comes from spinning (identity on its first nonzero
    # rows) and as the perp of a spun dual submodule (identity on its last
    # nonzero rows), and has entries off its pivot rows; half of the seeds
    # are (1 - g) v, inside the augmentation ideal, so that local k[G]
    # has proper pieces too
    G = make_group()
    F = field_make(p, n)
    brauer = BrauerCharacters(G, F)
    r = random.Random(5)
    M = rep_regular(G, F)
    gens = M.generator_images()
    gens_t = [A.T for A in gens]
    checked = 0
    for trial in range(8):
        v = Mat.column(F, [F.rand_elem(r) for _ in range(M.dim)])
        seeds = [v.a[:, 0]] if trial % 2 else [(v - A @ v).a[:, 0]
                                                for A in gens]
        W = spin_columns(F, M.dim, seeds, gens)
        perp = spin_columns(F, M.dim, seeds, gens_t).T.nullspace()
        for W in (W, perp):
            if not 0 < W.cols < M.dim:
                continue
            pivots = W.T.rref()[1]
            off = [i for i in range(M.dim) if i not in pivots]
            assert W.a[off].any()
            new = split_on_submodule(M, W)
            old = split_by_completed_basis(M, W)
            assert [X.dim for X in new] == [X.dim for X in old]
            assert [brauer.vector(X) for X in new] == \
                [brauer.vector(X) for X in old]
            checked += 1
    assert checked >= 4


def test_echelon_split_rejects_a_space_that_is_not_invariant():
    G = FiniteGroup.from_table(s3_table())
    F = field_make(3, 1)
    M = rep_regular(G, F)
    with pytest.raises(Inconsistency, match="not invariant"):
        split_on_submodule(M, Mat.column(F, [1] + [0] * 5))


def test_regular_endomorphisms_respect_hom_cell_cap(monkeypatch):
    G = FiniteGroup.from_table(s3_table())
    F = field_make(5, 1)
    monkeypatch.setattr(reps, "HOM_CELL_CAP", 6 ** 3 - 1)
    with pytest.raises(CapExceeded, match="HOM_CELL_CAP"):
        regular_endomorphisms(G, F)
    monkeypatch.setattr(reps, "HOM_CELL_CAP", 6 ** 3)
    assert len(regular_endomorphisms(G, F)) == 6


def test_hom_space_checks_its_size_before_allocating(monkeypatch):
    # 2 generators, dims 6 and 2: (2 * 12) x 12 = 288 cells
    G = FiniteGroup.from_table(s3_table())
    F = field_make(5, 1)
    M = rep_regular(G, F)
    N = rep_trivial(G, F, 2)
    assert len(G.generators) == 2
    monkeypatch.setattr(reps, "HOM_CELL_CAP", 287)
    with pytest.raises(CapExceeded, match="HOM_CELL_CAP"):
        hom_space(M, N)
    monkeypatch.setattr(reps, "HOM_CELL_CAP", 288)
    assert len(hom_space(M, N)) == 2


@pytest.mark.parametrize("table,p", [(cyclic_table(2), 3), (s3_table(), 5)],
                         ids=["C2-GF3", "S3-GF5"])
def test_summands_without_split_or_simple_head_raise(monkeypatch, table, p):
    # with every characteristic polynomial reported irreducible nothing
    # splits: k[C2] over GF(3) is triv + sign, two simples in its head, and
    # over S3/GF(5) the 2-dimensional simple S gives S + S, head S twice
    G = FiniteGroup.from_table(table)
    F = field_make(p, 1)
    r = rng()
    M, reg = saturated_regular(G, F, r)
    if G.order == 6:
        S = next(S for S in reg.simples if S.dim == 2)
        M = rep_direct_sum(S, S)
    monkeypatch.setattr(reps, "poly_factor", lambda f, rng=None: [(f, 1)])
    with pytest.raises(CapExceeded, match="SPLIT_ROUNDS"):
        indecomposable_summands(M, hom_space(M, M), reg, r)


# -- projectivity -----------------------------------------------------------------


def test_projective_regular_always():
    for table, p in [(cyclic_table(3), 3), (s3_table(), 3),
                     (cyclic_table(4), 2)]:
        G = FiniteGroup.from_table(table)
        F = field_make(p, 1)
        assert is_projective(rep_regular(G, F))


def test_trivial_not_projective_over_cp():
    G = FiniteGroup.from_table(cyclic_table(3))
    F = field_make(3, 1)
    assert not is_projective(rep_trivial(G, F))


def test_everything_projective_coprime_order():
    G = FiniteGroup.from_table(s3_table())
    F = field_make(5, 1)
    assert is_projective(rep_trivial(G, F))


def test_head_multiplicity_of_cover_is_one():
    G = FiniteGroup.from_table(cyclic_table(3))
    F = field_make(3, 1)
    P1 = sylow_p(G, 3)
    cov = projective_cover_over_inertia(G, P1, rep_trivial(G, F))
    assert cov.dim == 3
    reg = SimpleRegistry(G, F, rng())
    chop_class(rep_regular(G, F), reg, rng())
    triv = reg.simples[0]
    assert head_multiplicities(cov, reg)[0] == 1


def test_cover_tame_case_identity():
    G = FiniteGroup.from_table(cyclic_table(4))
    F = field_make(3, 1)
    P1 = Subgroup(G, [G.identity])
    M = rep_regular(G, F)
    cov = projective_cover_over_inertia(G, P1, M)
    assert cov.dim == M.dim
    assert is_isomorphic(cov, M, rng())


def test_cover_dimension_scaling():
    G = FiniteGroup.from_table(cyclic_table(6))
    F = field_make(3, 1)
    P1 = sylow_p(G, 3)
    M = rep_trivial(G, F)
    cov = projective_cover_over_inertia(G, P1, M)
    assert cov.dim == P1.order * M.dim
    # head of the cover matches the module on simples with trivial P1 action
    reg = SimpleRegistry(G, F, rng())
    chop_class(rep_regular(G, F), reg, rng())
    for S in reg.simples:
        if all(S.image(g) == Mat.identity(F, S.dim) for g in P1.indices):
            assert hom_dim(cov, S) == hom_dim(M, S)


# -- Brauer vectors ------------------------------------------------------------


def test_fingerprint_trivial_rep():
    G = FiniteGroup.from_table(cyclic_table(4))
    F = field_make(3, 1)
    fp = BrauerCharacters(G, F).vector(rep_trivial(G, F))
    for counts in fp:  # the eigenvalue 1 = zeta^0, once
        assert counts == (1,) + (0,) * (len(counts) - 1)


def test_fingerprint_regular_rep_root_structure():
    # left translation by g of order m decomposes into |G|/m cycles of
    # length m, so each m-th root of unity appears with equal multiplicity
    G = FiniteGroup.from_table(cyclic_table(6))
    F = field_make(7, 1)
    fp = BrauerCharacters(G, F).vector(rep_regular(G, F))
    assert sorted(len(counts) for counts in fp) == [1, 2, 3, 3, 6, 6]
    for counts in fp:
        assert set(counts) == {6 // len(counts)}


def test_fingerprint_direct_sum_union():
    G = FiniteGroup.from_table(cyclic_table(2))
    F = field_make(3, 1)
    brauer = BrauerCharacters(G, F)
    triv = rep_trivial(G, F)
    sign = rep_scalar(G, F, {0: 1, 1: 2})
    fp_sum = brauer.vector(rep_direct_sum(triv, sign))
    fp_t = brauer.vector(triv)
    fp_s = brauer.vector(sign)
    assert fp_t != fp_s
    for c1, c2, c3 in zip(fp_sum, fp_t, fp_s):
        assert c1 == tuple(a + b for a, b in zip(c2, c3))


def test_fingerprint_iso_invariant():
    G = FiniteGroup.from_table(cyclic_table(4))
    F = field_make(3, 1)
    M = rep_regular(G, F)
    H = Subgroup(G, [G.identity])
    N = rep_induce(rep_trivial(H.as_group(), F), G, H)
    assert is_isomorphic(M, N, rng())
    brauer = BrauerCharacters(G, F)
    assert brauer.vector(M) == brauer.vector(N)


# -- chop additivity property (seeded batch) ---------------------------------------


def test_chop_additivity_random_pairs():
    r = random.Random(99)
    G = FiniteGroup.from_table(s3_table())
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F, rng())
    pool = [rep_trivial(G, F), rep_regular(G, F)]
    pool.append(rep_tensor(pool[1], pool[0]))
    for _ in range(20):
        a, b = r.choice(pool), r.choice(pool)
        s = rep_direct_sum(a, b)
        assert chop_class(s, reg, r) == (chop_class(a, reg, r)
                                         + chop_class(b, reg, r))
