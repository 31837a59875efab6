import random

import pytest
from hypothesis import given, settings, strategies as st

from equirr.fields import Poly, field_make
from equirr.matrices import Mat

from reptools import (EchelonBasis, columns, elements, embed, evaluate,
                      to_lists)


def random_matrix(F, rows, cols, rng):
    return Mat.from_rows(
        F, [[F.rand_elem(rng) for _ in range(cols)] for _ in range(rows)])


def test_rank_identity():
    F = field_make(5, 1)
    assert Mat.identity(F, 3).rank() == 3


def test_nullspace_zero_matrix():
    F = field_make(3, 1)
    ns = Mat.zeros(F, 2, 2).nullspace()
    assert ns.cols == 2


def test_charpoly_diagonal():
    F = field_make(3, 1)
    m = Mat.from_rows(F, [[1, 0], [0, 2]])
    x = Poly.x(F)
    expected = (x - Poly(F, [1])) * (x - Poly(F, [2]))
    assert m.charpoly() == expected


def test_charpoly_companion():
    # companion matrix of f has charpoly f
    F = field_make(7, 1)
    f = Poly(F, [3, 1, 4, 1])  # monic cubic
    m = Mat.from_rows(F, [[0, 0, F.neg(3)],
                          [1, 0, F.neg(1)],
                          [0, 1, F.neg(4)]])
    assert m.charpoly() == f


def test_rank_nullity_random():
    rng = random.Random(2)
    for p, n in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        F = field_make(p, n)
        for _ in range(25):
            r = rng.randrange(1, 6)
            c = rng.randrange(1, 6)
            m = random_matrix(F, r, c, rng)
            assert m.rank() + m.nullspace().cols == c
            ns = m.nullspace()
            if ns.cols:
                assert (m @ ns).is_zero()


def test_cayley_hamilton_random():
    rng = random.Random(9)
    count = 0
    for p, n in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]:
        F = field_make(p, n)
        for _ in range(20):
            d = rng.randrange(1, 7)
            m = random_matrix(F, d, d, rng)
            cp = m.charpoly()
            assert m.eval_poly(cp).is_zero()
            count += 1
    assert count >= 100


def test_solve_and_inverse():
    rng = random.Random(4)
    for p, n in [(3, 1), (5, 1), (2, 2)]:
        F = field_make(p, n)
        for _ in range(20):
            d = rng.randrange(1, 6)
            a = random_matrix(F, d, d, rng)
            x = random_matrix(F, d, 2, rng)
            b = a @ x
            sol = a.solve(b)
            assert sol is not None
            assert a @ sol == b
            inv = a.inv()
            if inv is not None:
                assert a @ inv == Mat.identity(F, d)
                assert inv @ a == Mat.identity(F, d)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (2, 2), (3, 2)])
def test_inverse_is_none_exactly_when_singular(p, n):
    F = field_make(p, n)
    rng = random.Random(8)
    singular = 0
    for _ in range(40):
        d = rng.randrange(1, 7)
        r = rng.randrange(d + 1)
        if rng.random() < 0.5 and r < d:
            # rank at most r < d: a d x r by r x d product
            a = random_matrix(F, d, r, rng) @ random_matrix(F, r, d, rng) \
                if r else Mat.zeros(F, d, d)
        else:
            a = random_matrix(F, d, d, rng)
        inv = a.inv()
        assert (inv is None) == (a.rank() < d)
        singular += inv is None
        if inv is not None:
            assert a @ inv == inv @ a == Mat.identity(F, d)
    assert singular >= 10


def test_solve_inconsistent():
    F = field_make(3, 1)
    a = Mat.from_rows(F, [[1, 0], [1, 0]])
    b = Mat.from_rows(F, [[1], [2]])
    assert a.solve(b) is None


DIFF_FIELDS = [(2, 3), (3, 2), (2, 4), (5, 2), (13, 2), (7, 1)]


def ref_matmul(F, A, B):
    out = []
    for row in A:
        out.append([])
        for j in range(len(B[0]) if B else 0):
            acc = 0
            for x, brow in zip(row, B):
                acc = F.add(acc, F.mul(x, brow[j]))
            out[-1].append(acc)
    return out


def ref_rref(F, A):
    """Scalar Gauss-Jordan with first-nonzero pivoting."""
    A = [list(row) for row in A]
    pivots = []
    r = 0
    for col in range(len(A[0])):
        i = next((i for i in range(r, len(A)) if A[i][col]), None)
        if i is None:
            continue
        A[r], A[i] = A[i], A[r]
        inv = F.inv(A[r][col])
        A[r] = [F.mul(inv, x) for x in A[r]]
        for i in range(len(A)):
            f = A[i][col]
            if i != r and f:
                A[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(A[i], A[r])]
        pivots.append(col)
        r += 1
    return A, pivots


def ref_det(F, A):
    A = [list(row) for row in A]
    det = 1
    for col in range(len(A)):
        i = next((i for i in range(col, len(A)) if A[i][col]), None)
        if i is None:
            return 0
        if i != col:
            A[col], A[i] = A[i], A[col]
            det = F.neg(det)
        det = F.mul(det, A[col][col])
        inv = F.inv(A[col][col])
        for i in range(col + 1, len(A)):
            f = F.mul(A[i][col], inv)
            A[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(A[i], A[col])]
    return det


@st.composite
def field_and_matrices(draw):
    F = field_make(*draw(st.sampled_from(DIFF_FIELDS)))
    # zeros half the time, so rank-deficient systems are common
    entry = st.one_of(st.just(0), st.integers(1, F.q - 1))
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))

    def mat(rows, cols):
        return Mat.from_rows(F, [[draw(entry) for _ in range(cols)]
                                 for _ in range(rows)])

    return F, mat(r, k), mat(r, k), mat(k, c), draw(entry)


@settings(max_examples=80, deadline=None)
@given(field_and_matrices())
def test_matmul_extension_field(case):
    """Every Mat operation agrees entry by entry with scalar Field ops."""
    F, a, b, m, c = case
    A, B, M = to_lists(a), to_lists(b), to_lists(m)
    assert a.a.ndim == b.a.ndim == m.a.ndim == 2
    assert to_lists(a + b) == [[F.add(x, y) for x, y in zip(r, s)]
                                  for r, s in zip(A, B)]
    assert to_lists(a - b) == [[F.sub(x, y) for x, y in zip(r, s)]
                                  for r, s in zip(A, B)]
    assert to_lists(-a) == [[F.neg(x) for x in r] for r in A]
    assert to_lists(a.scale(c)) == [[F.mul(c, x) for x in r] for r in A]
    assert to_lists(a @ m) == ref_matmul(F, A, M)
    assert to_lists(a.kron(m)) == [
        [F.mul(A[i][j], M[k][t]) for j in range(a.cols)
         for t in range(m.cols)]
        for i in range(a.rows) for k in range(m.rows)]

    R, pivots = a.rref()
    assert (to_lists(R), pivots) == ref_rref(F, A)
    ns = a.nullspace()
    assert ns.cols == a.cols - len(pivots)
    assert not any(any(row) for row in ref_matmul(F, A, to_lists(ns)))
    rhs = columns(b, [0])
    sol = a.solve(rhs)
    aug_rank = len(ref_rref(F, to_lists(a.hstack(rhs)))[1])
    assert (sol is not None) == (aug_rank == len(pivots))
    if sol is not None:
        assert ref_matmul(F, A, to_lists(sol)) == to_lists(rhs)

    d = min(a.rows, a.cols)
    square = a.submatrix(range(d), range(d))
    S = to_lists(square)
    cp = square.charpoly()
    assert cp.degree == d and cp.leading() == 1
    for x in range(d + 1):  # d + 1 values fix a monic degree-d polynomial
        xI_minus_S = [[F.sub(x if i == j else 0, S[i][j]) for j in range(d)]
                      for i in range(d)]
        assert evaluate(cp, x) == ref_det(F, xI_minus_S)

    E = field_make(F.p, 2 * F.n)
    assert to_lists(a.map_field(E)) == [[embed(x, F, E) for x in r]
                                         for r in A]


def sparse_matrix(F, d, rng):
    """Random d x d matrix whose zero density is itself random, so zero
    pivots, zero subdiagonals and split Hessenberg forms all occur."""
    density = rng.choice([0.1, 0.3, 0.7, 1.0])
    return [[F.rand_nonzero(rng) if rng.random() < density else 0
             for _ in range(d)] for _ in range(d)]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (13, 1),
                                 (2, 4)])
def test_charpoly_is_det_of_xI_minus_A_everywhere(p, n):
    F = field_make(p, n)
    rng = random.Random(23)
    for d in [1, 2, 3, 5, 8, 13, 21, 30]:
        for _ in range(2 if d < 21 else 1):
            S = sparse_matrix(F, d, rng)
            cp = Mat.from_rows(F, S).charpoly()
            assert cp.degree == d and cp.leading() == 1
            for x in elements(F):
                xI_minus_S = [[F.sub(x if i == j else 0, S[i][j])
                               for j in range(d)] for i in range(d)]
                assert evaluate(cp, x) == ref_det(F, xI_minus_S), (d, x)


def test_kron_dimensions_and_values():
    F = field_make(5, 1)
    a = Mat.from_rows(F, [[1, 2], [3, 4]])
    b = Mat.from_rows(F, [[2, 0], [1, 1]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (4, 4)
    assert k.get(0, 0) == F.mul(a.get(0, 0), b.get(0, 0))
    assert k.get(3, 3) == F.mul(a.get(1, 1), b.get(1, 1))
    assert k.get(1, 2) == F.mul(a.get(0, 1), b.get(1, 0))


def test_pow_equals_repeated_products():
    for F in (field_make(5, 1), field_make(2, 3)):
        a = random_matrix(F, 4, 4, random.Random(F.q))
        acc = Mat.identity(F, 4)
        for e in range(10):
            assert a.pow_(e) == acc
            acc = acc @ a


def test_echelon_basis_spin_behaviour():
    for F in (field_make(3, 1), field_make(3, 2)):
        eb = EchelonBasis(F, 3)
        v1 = Mat.from_rows(F, [[1, 2, 0]])
        assert eb.add(v1.a[0])
        assert not eb.add(v1.scale(2).a[0])
        assert eb.add(Mat.from_rows(F, [[0, 1, 1]]).a[0])
        assert len(eb) == 2
        assert eb.as_matrix() == Mat.from_rows(F, [[1, 0, 1], [0, 1, 1]])


def test_charpoly_block_multiplicative():
    F = field_make(3, 1)
    a = Mat.from_rows(F, [[1, 1], [0, 1]])
    b = Mat.from_rows(F, [[2]])
    blk = a.hstack(Mat.zeros(F, 2, 1)).vstack(Mat.zeros(F, 1, 2).hstack(b))
    assert blk.charpoly() == a.charpoly() * b.charpoly()
