import importlib
import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from equirr import cli, engine, reps
from equirr.errors import Inconsistency, InputError
from equirr.fields import field_make
from equirr.groups import FiniteGroup
from equirr.k0 import (CartanData, beta_vector, cartan_coordinates,
                       cartan_data, cartesian_check, in_cartan_image,
                       smith_normal_form)
from equirr.matrices import Mat
from equirr.reps import (ClassVector, Rep, SimpleRegistry,
                         extend_scalars, hom_dim, rep_trivial, snf_inverse)
from equirr.scenarios import parse_scenario, realize
from reptools import (basis_vector, chop_class, chop_draws,
                      head_multiplicities, is_projective_class, rep_regular,
                      socle_dim, total_dim)
from test_cartan import pgl2_gf3


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_table():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(a, b):
        return tuple(a[b[x]] for x in range(3))

    return [[index[compose(a, b)] for b in perms] for a in perms]


def rng():
    return random.Random(7)


def test_smith_normal_form_basics():
    A = [[2, 4], [6, 8]]
    U, D, V = smith_normal_form(A)
    # U A V == D, diagonal, divisibility chain
    prod = [[sum(U[i][k] * A[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    prod = [[sum(prod[i][k] * V[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert prod == D
    assert D[0][1] == D[1][0] == 0
    assert D[1][1] % D[0][0] == 0


def gauss_jordan(A, t):
    """Reference solve of A x = t over Fraction; None when A is singular."""
    n = len(A)
    rows = [[Fraction(a) for a in row] + [Fraction(c)]
            for row, c in zip(A, t)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [a / rows[c][c] for a in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [row[n] for row in rows]


@st.composite
def integer_systems(draw):
    n = draw(st.integers(1, 6))
    A = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    t = draw(st.lists(st.integers(-50, 50)
                      | st.fractions(-20, 20, max_denominator=12),
                      min_size=n, max_size=n))
    return A, t


@settings(max_examples=200, deadline=None)
@given(system=integer_systems())
def test_snf_inverse_matches_fraction_gauss_jordan(system):
    A, t = system
    expected = gauss_jordan(A, t)
    inverse = snf_inverse(smith_normal_form(A))
    assert (inverse is None) == (expected is None)
    assume(expected is not None)
    W, L = inverse
    n = len(A)
    # A W = L I, in integers
    assert [[sum(A[i][k] * W[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[L * (i == j) for j in range(n)]
                                   for i in range(n)]
    assert [Fraction(sum(w * c for w, c in zip(row, t)), L)
            for row in W] == expected


def test_snf_inverse_of_a_singular_matrix_is_none():
    assert snf_inverse(smith_normal_form([[2, 1], [4, 2]])) is None
    assert snf_inverse(smith_normal_form([[2, 1], [1, 1]])) == (
        [[1, -1], [-1, 2]], 1)


def test_class_of_solves_through_the_traced_smith_normal_form():
    # the registry's solve is the one the benchmark tracer counts under
    # k0.smith_normal_form: one Smith normal form per registry, shared by
    # the class solves and the Cartan data
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("equirr.cli")  # every module the tracer wraps
    assert smith_normal_form is reps.smith_normal_form
    G = FiniteGroup.from_table(s3_table())
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        x = reg.class_of(rep_regular(G, F))
        reg.class_of(rep_trivial(G, F))
        cd = cartan_data(G, F, reg)
    finally:
        tracer.restore()
    assert x == reg.regular_class()
    assert cd.matrix == [[2, 1], [1, 2]]
    layers = [span[0] for span in tracer.spans]
    assert layers.count("k0.smith_normal_form") == 1


def test_class_solve_without_int64_gives_the_same_class():
    # past the int64 bound the one product with the left inverse
    # Lg gram^-1 B^T P is taken in Python ints; a bound forced past 2^63
    # must give the same classes
    G = FiniteGroup.from_table(s3_table())
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F)
    modules = [rep_regular(G, F), rep_trivial(G, F, 3)]
    expected = [reg.class_of(M) for M in modules]
    B, pinv, pinv64, top, L = reg._solver
    reg.__dict__["_solver"] = (B, pinv, pinv64, 1 << 62, L)
    assert [reg.class_of(M) for M in modules] == expected
    assert reg.regular_class() == expected[0]


def test_cartan_semisimple_identity():
    G = FiniteGroup.from_table(s3_table())
    F = field_make(5, 1)
    reg = SimpleRegistry(G, F)
    cd = cartan_data(G, F, reg)
    s = cd.size
    assert cd.matrix == [[int(i == j) for j in range(s)] for i in range(s)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cartan_cp_is_p(p):
    G = FiniteGroup.from_table(cyclic_table(p))
    F = field_make(p, 1)
    reg = SimpleRegistry(G, F)
    cd = cartan_data(G, F, reg)
    assert cd.matrix == [[p]]


def test_cartan_s3_gf3():
    # validate through sum over simples of dim Cov(S) * m_S = |G|
    G = FiniteGroup.from_table(s3_table())
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F)
    cd = cartan_data(G, F, reg)
    assert cd.size == 2
    total = 0
    for j, S in enumerate(reg.simples):
        m = S.dim // hom_dim(S, S)
        total += cd.pim_dims[j] * m
    assert total == 6
    # symmetric Cartan matrix with column dims 3, 3
    assert cd.pim_dims == [3, 3]


def test_in_cartan_image_examples():
    G = FiniteGroup.from_table(cyclic_table(3))
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F)
    cd = cartan_data(G, F, reg)
    r = rng()
    regular_class = chop_class(rep_regular(G, F), reg, r)
    assert in_cartan_image(regular_class, cd)
    triv_class = chop_class(rep_trivial(G, F), reg, r)
    assert not in_cartan_image(triv_class, cd)
    assert in_cartan_image(triv_class.scale(3), cd)
    assert in_cartan_image(reg.zero(), cd)


def test_is_projective_class_examples():
    G = FiniteGroup.from_table(cyclic_table(3))
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F)
    cd = cartan_data(G, F, reg)
    r = rng()
    regular_class = chop_class(rep_regular(G, F), reg, r)
    assert is_projective_class(regular_class, cd)
    assert not is_projective_class(regular_class.scale(-1), cd)
    triv = chop_class(rep_trivial(G, F), reg, r)
    assert is_projective_class(triv.scale(3), cd)
    assert not is_projective_class(triv, cd)


def test_head_reconstruction_of_projectives():
    # chop coordinates of a projective module equal the head-multiplicity
    # combination of PIM classes
    G = FiniteGroup.from_table(s3_table())
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F)
    cd = cartan_data(G, F, reg)
    r = rng()
    M = rep_regular(G, F)
    target = chop_class(M, reg, r)
    recon = reg.zero()
    for j, m in head_multiplicities(M, reg).items():
        recon = recon + cd.pim_classes[j].scale(m)
    assert recon == target


def test_extend_scalars_dim_and_trivial():
    G = FiniteGroup.from_table(cyclic_table(4))
    F = field_make(3, 1)
    F9 = field_make(3, 2)
    M = rep_regular(G, F)
    ext = extend_scalars(M, F9)
    assert ext.dim == M.dim
    triv = rep_trivial(G, F)
    ext_t = extend_scalars(triv, F9)
    reg9 = SimpleRegistry(G, F9)
    v = chop_class(ext_t, reg9, rng())
    assert total_dim(v) == 1


def test_extend_scalars_splits_c4_simple():
    # the 2-dim GF(3)-simple of C4 (i = sqrt(-1) absent) splits over GF(9)
    # into two conjugate characters; oracle: explicit eigenvectors over GF(9)
    G = FiniteGroup.from_table(cyclic_table(4))
    F = field_make(3, 1)
    g_mat = Mat.from_rows(F, [[0, 2], [1, 0]])  # order 4: x^2+1 irreducible
    M = Rep(G, F, 2, {0: g_mat})
    M.check_homomorphism()
    reg = SimpleRegistry(G, F)
    v = chop_class(M, reg, rng())
    assert total_dim(v) == 2 and sum(v.coeffs) == 1  # simple over GF(3)
    F9 = field_make(3, 2)
    ext = extend_scalars(M, F9)
    reg9 = SimpleRegistry(G, F9)
    v9 = chop_class(ext, reg9, rng())
    dims = sorted(S.dim for c, S in zip(v9.coeffs, reg9.simples) if c)
    assert dims == [1, 1]
    assert sorted(int(c) for c in v9.coeffs if c) == [1, 1]
    # independent oracle: the matrix has two distinct eigenvalues over GF(9)
    cp = g_mat.map_field(F9).charpoly()
    from equirr.fields import poly_roots
    roots = poly_roots(cp)
    assert len(roots) == 2 and roots[0] != roots[1]
    # the two eigenvalues are Frobenius conjugates (conjugate characters)
    assert F9.frobenius(roots[0]) == roots[1]


def test_cartesian_check_examples():
    p = 3
    G = FiniteGroup.from_table(cyclic_table(p))
    F = field_make(p, 1)
    F2 = field_make(p, 2)
    reg = SimpleRegistry(G, F)
    reg2 = SimpleRegistry.over_extension(G, F2, reg)
    r = rng()
    cd = cartan_data(G, F, reg)
    cd2 = cartan_data(G, F2, reg2)
    regular_class = chop_class(rep_regular(G, F), reg, r)
    agree, base, ext = cartesian_check(regular_class, cd, cd2)
    assert agree and base and ext
    triv = chop_class(rep_trivial(G, F), reg, r)
    agree, base, ext = cartesian_check(triv, cd, cd2)
    assert agree and not base and not ext


def test_beta_additive_and_injective_on_simples():
    G = FiniteGroup.from_table(s3_table())
    F = field_make(3, 1)
    F9 = field_make(3, 2)
    reg = SimpleRegistry(G, F)
    reg9 = SimpleRegistry.over_extension(G, F9, reg)
    cartan_data(G, F, reg)
    cartan_data(G, F9, reg9)
    images = []
    for i in range(len(reg)):
        images.append(beta_vector(basis_vector(reg, i), reg9))
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            assert images[i] != images[j]
    v = basis_vector(reg, 0) + basis_vector(reg, 1)
    assert beta_vector(v, reg9) == images[0] + images[1]


def test_extension_of_simple_is_semisimple():
    # scalar extension of a simple stays semisimple: socle fills the module
    G = FiniteGroup.from_table(cyclic_table(4))
    F = field_make(3, 1)
    g_mat = Mat.from_rows(F, [[0, 2], [1, 0]])
    M = Rep(G, F, 2, {0: g_mat})
    F9 = field_make(3, 2)
    ext = extend_scalars(M, F9)
    reg9 = SimpleRegistry(G, F9)
    assert socle_dim(ext, reg9) == ext.dim


def test_cartan_coordinates_unique():
    G = FiniteGroup.from_table(cyclic_table(3))
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F)
    cd = cartan_data(G, F, reg)
    v = chop_class(rep_regular(G, F), reg, rng())
    coords = cartan_coordinates(v, cd)
    assert coords == [1]


def test_cartan_coordinates_refuse_a_class_over_another_registry():
    # C4 over GF(5) and over GF(25) both have four simples: a class over
    # the base registry has no coordinates over the extension's Cartan
    # matrix, only its image under beta_vector does
    G = FiniteGroup.from_table(cyclic_table(4))
    F, F25 = field_make(5, 1), field_make(5, 2)
    reg = SimpleRegistry(G, F)
    ext = SimpleRegistry.over_extension(G, F25, reg)
    cd = cartan_data(G, F25, ext)
    v = reg.class_of(rep_trivial(G, F))
    assert len(reg) == len(ext) == 4
    with pytest.raises(InputError, match="different registries"):
        cartan_coordinates(v, cd)
    assert in_cartan_image(beta_vector(v, ext), cd)


def test_cartan_coordinates_solve_nonunimodular_cartan():
    # S3 over GF(3): Cartan matrix [[2, 1], [1, 2]], determinant 3, so some
    # integral classes have fractional coordinates
    G = FiniteGroup.from_table(s3_table())
    F = field_make(3, 1)
    reg = SimpleRegistry(G, F)
    cd = cartan_data(G, F, reg)
    assert sorted(map(sorted, cd.matrix)) == [[1, 2], [1, 2]]
    for a, b in itertools.product(range(-3, 4), repeat=2):
        v = basis_vector(reg, 0, a) + basis_vector(reg, 1, b)
        x = cartan_coordinates(v, cd)
        assert [sum(cd.matrix[i][j] * x[j] for j in range(2))
                for i in range(2)] == [a, b]
        integral = all(c.denominator == 1 for c in x)
        assert in_cartan_image(v, cd) == integral == ((a + b) % 3 == 0)
        assert is_projective_class(v, cd) == (integral and min(x) >= 0)


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("name", sorted(
    p.name for p in SCENARIO_DIR.glob("*.json") if p.name != "golden.json"))
def test_cartan_coordinates_equal_a_fraction_solve_on_shipped_registries(
        monkeypatch, name):
    # cartan_coordinates reads C^-1 off the duality C is built from, with
    # no solve of C itself; on every registry that euler and check build
    # (G and the decomposition groups over k, and G over GF(q^2)) it must
    # agree with Gauss-Jordan over Fraction on C x = v
    built = []
    real = cartan_data

    def recorded(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(engine, "cartan_data", recorded)
    monkeypatch.setattr(cli, "cartan_data", recorded)
    scn = realize(parse_scenario((SCENARIO_DIR / name).read_text()))
    cli.run_euler(scn)
    cli.run_check(scn)
    assert built
    r = random.Random(name)
    for cd in built:
        s = cd.size
        reg = cd.registry
        vectors = [basis_vector(reg, i) for i in range(s)]
        vectors += [ClassVector(reg, [r.randint(-6, 6) for _ in range(s)])
                    for _ in range(4)]
        vectors.append(vectors[-1].scale(Fraction(1, 3)))
        for v in vectors:
            x = cartan_coordinates(v, cd)
            expected = gauss_jordan(cd.matrix, list(v.coeffs))
            assert x == expected
            assert [type(c) is int for c in x] == [c.denominator == 1
                                                   for c in expected]


def test_singular_cartan_matrix_is_inconsistent():
    G = FiniteGroup.from_table(cyclic_table(2))
    F = field_make(2, 1)
    reg = SimpleRegistry(G, F)
    with pytest.raises(Inconsistency, match="singular"):
        CartanData(G, F, reg, [[1, 2], [2, 4]])


# Cartan matrix of PGL2(GF(3)) = S4 in the registry's canonical order
# (simples of dims 1, 1, 3, 3): the principal block {1, sign} and two
# projective 3-dimensional simples, over GF(3) and over GF(9).
CANONICAL_CARTAN = [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("n", [1, 2], ids=["GF3", "GF9"])
def test_cartan_data_is_canonical(n):
    # the registry sorts its simples, so the Cartan matrix is a function of
    # the group and the field, not of the MeatAxe's draws
    F3 = field_make(3, 1)
    G = FiniteGroup.close_generators(
        F3, [(1, 1, 0, 1), (2, 0, 0, 1), (0, 1, 1, 0)])
    assert len(G.labels) == 24
    F = field_make(3, n)
    for seed in (11, 12):
        with chop_draws(seed):
            cd = cartan_data(G, F, SimpleRegistry(G, F))
        assert cd.matrix == CANONICAL_CARTAN
        assert cd.pim_dims == [3, 3, 3, 3]


@pytest.mark.parametrize("n", [1, 2], ids=["GF3", "GF9"])
def test_cartan_data_solves_no_hom_system(monkeypatch, n):
    # dim End(S) comes from the Norton kernel that certified S in the
    # saturation chop: no Hom system is built, on k[G] or on a simple
    def refused(M, N):
        raise AssertionError(f"a Hom system of dims {M.dim}, {N.dim}")

    monkeypatch.setattr(reps, "hom_space", refused)
    G, F = pgl2_gf3(), field_make(3, n)
    cd = cartan_data(G, F, SimpleRegistry(G, F))
    assert cd.matrix == CANONICAL_CARTAN


@pytest.mark.parametrize("n", [1, 2], ids=["GF3", "GF9"])
def test_cartan_data_computes_each_end_once(monkeypatch, n):
    # dim End(S) is cached on the registry: one computation per simple,
    # however often cartan_data or end_dim reads it
    calls = []
    real = reps.end_dim_from_kernel

    def counted(S, U):
        calls.append(S)
        return real(S, U)

    monkeypatch.setattr(reps, "end_dim_from_kernel", counted)
    G, F = pgl2_gf3(), field_make(3, n)
    reg = SimpleRegistry(G, F)
    for _ in range(2):
        cartan_data(G, F, reg)
        assert [reg.end_dim(i) for i in range(len(reg))] == [1, 1, 1, 1]
    assert len(reg) == 4
    assert len(calls) == len(reg)
    assert all(S is T for S, T in zip(calls, reg.simples))
