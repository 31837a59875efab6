import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equirr.errors import InputError
from equirr.fields import (Poly, field_make, irreducible_factors, is_prime,
                           poly_factor, poly_is_irreducible, poly_roots)
from reptools import div, elements, embed, evaluate


def brute_has_root(coeffs, p):
    """Independent root search for a polynomial over GF(p)."""
    return any(sum(c * pow(a, i, p) for i, c in enumerate(coeffs)) % p == 0
               for a in range(p))


def test_field_make_prime():
    F = field_make(3, 1)
    assert F.q == 3
    assert F.modulus == (0, 1)  # modulus x for the prime field


def test_field_make_gf9_modulus():
    # exhaustive oracle: x^2+1 is rootless over GF(3) and nothing smaller
    # in encoding order is irreducible
    assert not brute_has_root([1, 0, 1], 3)
    for low in range(1):  # only candidate below x^2+1 is x^2 itself
        assert brute_has_root([low, 0, 1], 3) or low == 0
    F = field_make(3, 2)
    assert F.modulus == (1, 0, 1)


def test_field_make_gf4_modulus():
    # the four monic quadratics over GF(2); only x^2+x+1 is irreducible
    irreducible = []
    for c0 in range(2):
        for c1 in range(2):
            coeffs = [c0, c1, 1]
            has_root = brute_has_root(coeffs, 2)
            if not has_root:
                irreducible.append(tuple(coeffs))
    assert irreducible == [(1, 1, 1)]
    assert field_make(2, 2).modulus == (1, 1, 1)


def test_field_make_rejects_composite():
    with pytest.raises(InputError):
        field_make(6, 1)


def test_field_make_deterministic():
    a = field_make(5, 2)
    b = field_make(5, 2)
    assert a is b
    assert a.modulus == b.modulus


# (modulus, generator) of every Field.make(p, n) with q <= 1024.  Changing
# either renumbers element encodings, which changes every report hash.
FIELD_PINS = {
    (2, 1): ((0, 1), 1), (2, 2): ((1, 1, 1), 2), (2, 3): ((1, 1, 0, 1), 2),
    (2, 4): ((1, 1, 0, 0, 1), 2), (2, 5): ((1, 0, 1, 0, 0, 1), 2),
    (2, 6): ((1, 1, 0, 0, 0, 0, 1), 2), (2, 7): ((1, 1, 0, 0, 0, 0, 0, 1), 2),
    (2, 8): ((1, 1, 0, 1, 1, 0, 0, 0, 1), 3),
    (2, 9): ((1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7),
    (2, 10): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2), (3, 1): ((0, 1), 2),
    (3, 2): ((1, 0, 1), 4), (3, 3): ((1, 2, 0, 1), 3),
    (3, 4): ((2, 1, 0, 0, 1), 3), (3, 5): ((1, 2, 0, 0, 0, 1), 3),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3), (5, 1): ((0, 1), 2),
    (5, 2): ((2, 0, 1), 6), (5, 3): ((1, 1, 0, 1), 9),
    (5, 4): ((2, 0, 0, 0, 1), 6), (7, 1): ((0, 1), 3), (7, 2): ((1, 0, 1), 9),
    (7, 3): ((2, 0, 0, 1), 22), (11, 1): ((0, 1), 2), (11, 2): ((1, 0, 1), 15),
    (13, 1): ((0, 1), 2), (13, 2): ((2, 0, 1), 15), (17, 1): ((0, 1), 3),
    (17, 2): ((3, 0, 1), 19), (19, 1): ((0, 1), 2), (19, 2): ((1, 0, 1), 22),
    (23, 1): ((0, 1), 5), (23, 2): ((1, 0, 1), 25), (29, 1): ((0, 1), 2),
    (29, 2): ((2, 0, 1), 30), (31, 1): ((0, 1), 3), (31, 2): ((1, 0, 1), 35),
    (37, 1): ((0, 1), 2), (41, 1): ((0, 1), 6), (43, 1): ((0, 1), 3),
    (47, 1): ((0, 1), 5), (53, 1): ((0, 1), 2), (59, 1): ((0, 1), 2),
    (61, 1): ((0, 1), 2), (67, 1): ((0, 1), 2), (71, 1): ((0, 1), 7),
    (73, 1): ((0, 1), 5), (79, 1): ((0, 1), 3), (83, 1): ((0, 1), 2),
    (89, 1): ((0, 1), 3), (97, 1): ((0, 1), 5), (101, 1): ((0, 1), 2),
    (103, 1): ((0, 1), 5), (107, 1): ((0, 1), 2), (109, 1): ((0, 1), 6),
    (113, 1): ((0, 1), 3), (127, 1): ((0, 1), 3), (131, 1): ((0, 1), 2),
    (137, 1): ((0, 1), 3), (139, 1): ((0, 1), 2), (149, 1): ((0, 1), 2),
    (151, 1): ((0, 1), 6), (157, 1): ((0, 1), 5), (163, 1): ((0, 1), 2),
    (167, 1): ((0, 1), 5), (173, 1): ((0, 1), 2), (179, 1): ((0, 1), 2),
    (181, 1): ((0, 1), 2), (191, 1): ((0, 1), 19), (193, 1): ((0, 1), 5),
    (197, 1): ((0, 1), 2), (199, 1): ((0, 1), 3), (211, 1): ((0, 1), 2),
    (223, 1): ((0, 1), 3), (227, 1): ((0, 1), 2), (229, 1): ((0, 1), 6),
    (233, 1): ((0, 1), 3), (239, 1): ((0, 1), 7), (241, 1): ((0, 1), 7),
    (251, 1): ((0, 1), 6), (257, 1): ((0, 1), 3), (263, 1): ((0, 1), 5),
    (269, 1): ((0, 1), 2), (271, 1): ((0, 1), 6), (277, 1): ((0, 1), 5),
    (281, 1): ((0, 1), 3), (283, 1): ((0, 1), 3), (293, 1): ((0, 1), 2),
    (307, 1): ((0, 1), 5), (311, 1): ((0, 1), 17), (313, 1): ((0, 1), 10),
    (317, 1): ((0, 1), 2), (331, 1): ((0, 1), 3), (337, 1): ((0, 1), 10),
    (347, 1): ((0, 1), 2), (349, 1): ((0, 1), 2), (353, 1): ((0, 1), 3),
    (359, 1): ((0, 1), 7), (367, 1): ((0, 1), 6), (373, 1): ((0, 1), 2),
    (379, 1): ((0, 1), 2), (383, 1): ((0, 1), 5), (389, 1): ((0, 1), 2),
    (397, 1): ((0, 1), 5), (401, 1): ((0, 1), 3), (409, 1): ((0, 1), 21),
    (419, 1): ((0, 1), 2), (421, 1): ((0, 1), 2), (431, 1): ((0, 1), 7),
    (433, 1): ((0, 1), 5), (439, 1): ((0, 1), 15), (443, 1): ((0, 1), 2),
    (449, 1): ((0, 1), 3), (457, 1): ((0, 1), 13), (461, 1): ((0, 1), 2),
    (463, 1): ((0, 1), 3), (467, 1): ((0, 1), 2), (479, 1): ((0, 1), 13),
    (487, 1): ((0, 1), 3), (491, 1): ((0, 1), 2), (499, 1): ((0, 1), 7),
    (503, 1): ((0, 1), 5), (509, 1): ((0, 1), 2), (521, 1): ((0, 1), 3),
    (523, 1): ((0, 1), 2), (541, 1): ((0, 1), 2), (547, 1): ((0, 1), 2),
    (557, 1): ((0, 1), 2), (563, 1): ((0, 1), 2), (569, 1): ((0, 1), 3),
    (571, 1): ((0, 1), 3), (577, 1): ((0, 1), 5), (587, 1): ((0, 1), 2),
    (593, 1): ((0, 1), 3), (599, 1): ((0, 1), 7), (601, 1): ((0, 1), 7),
    (607, 1): ((0, 1), 3), (613, 1): ((0, 1), 2), (617, 1): ((0, 1), 3),
    (619, 1): ((0, 1), 2), (631, 1): ((0, 1), 3), (641, 1): ((0, 1), 3),
    (643, 1): ((0, 1), 11), (647, 1): ((0, 1), 5), (653, 1): ((0, 1), 2),
    (659, 1): ((0, 1), 2), (661, 1): ((0, 1), 2), (673, 1): ((0, 1), 5),
    (677, 1): ((0, 1), 2), (683, 1): ((0, 1), 5), (691, 1): ((0, 1), 3),
    (701, 1): ((0, 1), 2), (709, 1): ((0, 1), 2), (719, 1): ((0, 1), 11),
    (727, 1): ((0, 1), 5), (733, 1): ((0, 1), 6), (739, 1): ((0, 1), 3),
    (743, 1): ((0, 1), 5), (751, 1): ((0, 1), 3), (757, 1): ((0, 1), 2),
    (761, 1): ((0, 1), 6), (769, 1): ((0, 1), 11), (773, 1): ((0, 1), 2),
    (787, 1): ((0, 1), 2), (797, 1): ((0, 1), 2), (809, 1): ((0, 1), 3),
    (811, 1): ((0, 1), 3), (821, 1): ((0, 1), 2), (823, 1): ((0, 1), 3),
    (827, 1): ((0, 1), 2), (829, 1): ((0, 1), 2), (839, 1): ((0, 1), 11),
    (853, 1): ((0, 1), 2), (857, 1): ((0, 1), 3), (859, 1): ((0, 1), 2),
    (863, 1): ((0, 1), 5), (877, 1): ((0, 1), 2), (881, 1): ((0, 1), 3),
    (883, 1): ((0, 1), 2), (887, 1): ((0, 1), 5), (907, 1): ((0, 1), 2),
    (911, 1): ((0, 1), 17), (919, 1): ((0, 1), 7), (929, 1): ((0, 1), 3),
    (937, 1): ((0, 1), 5), (941, 1): ((0, 1), 2), (947, 1): ((0, 1), 2),
    (953, 1): ((0, 1), 3), (967, 1): ((0, 1), 5), (971, 1): ((0, 1), 6),
    (977, 1): ((0, 1), 3), (983, 1): ((0, 1), 5), (991, 1): ((0, 1), 6),
    (997, 1): ((0, 1), 7), (1009, 1): ((0, 1), 11), (1013, 1): ((0, 1), 3),
    (1019, 1): ((0, 1), 2), (1021, 1): ((0, 1), 10),
}


def test_field_make_pinned_modulus_and_generator():
    for (p, n), pin in FIELD_PINS.items():
        F = field_make(p, n)
        assert (F.modulus, F.generator) == pin, (p, n)
    assert set(FIELD_PINS) == {(p, n) for p in range(2, 1025) if is_prime(p)
                               for n in range(1, 11) if p**n <= 1024}


# Two fields near TABLE_LIMIT, where the generator search walks the most
# candidates and powers.
LARGE_FIELD_PINS = {
    (2, 16): ((1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3),
    (3, 10): ((1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), 34),
}


@pytest.mark.parametrize("p,n", sorted(LARGE_FIELD_PINS))
def test_field_make_pinned_large_fields(p, n):
    F = field_make(p, n)
    assert (F.modulus, F.generator) == LARGE_FIELD_PINS[(p, n)]
    assert F.element_order(F.generator) == F.q - 1
    assert sorted(F._exp_array.tolist()) == list(range(1, F.q))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2),
                                 (2, 3), (5, 2), (7, 1)])
def test_scalar_arithmetic_axioms(p, n):
    F = field_make(p, n)
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (F.rand_elem(rng) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # generator has full order
    assert F.element_order(F.generator) == F.q - 1


def array_powers(F, a, exponents):
    """a ** e for each e in the increasing exponents, by repeated
    mul_array."""
    out = {}
    acc = np.ones_like(a)
    for e in range(max(exponents) + 1):
        if e in exponents:
            out[e] = acc
        acc = F.mul_array(acc, a)
    return out


def check_scalar_ops_against_arrays(F, A, B):
    """Every scalar op on the pairs (A[i], B[i]) equals the *_array op,
    which works on residues or digits_array and exp/log gathers."""
    pairs = list(zip(A.tolist(), B.tolist()))
    assert [F.add(a, b) for a, b in pairs] == F.add_array(A, B).tolist()
    assert [F.sub(a, b) for a, b in pairs] == F.sub_array(A, B).tolist()
    assert [F.mul(a, b) for a, b in pairs] == F.mul_array(A, B).tolist()
    nz = B != 0
    quot = np.array([div(F, a, b) for a, b in pairs if b])
    assert F.mul_array(quot, B[nz]).tolist() == A[nz].tolist()
    elems = np.arange(F.q)
    assert [F.neg(a) for a in range(F.q)] == F.neg_array(elems).tolist()
    units = elems[1:]
    inverses = np.array([F.inv(a) for a in units.tolist()])
    assert F.mul_array(units, inverses).tolist() == [1] * (F.q - 1)
    exponents = {0, 1, 2, 3, F.p, F.q - 2, F.q - 1, F.q}
    for e, ref in array_powers(F, elems, exponents).items():
        assert [F.pow_(a, e) for a in range(F.q)] == ref.tolist(), e
    assert [F.pow_(a, -1) for a in units.tolist()] == inverses.tolist()
    frob = elems
    for i in range(F.n + 1):
        assert [F.frobenius(a, i) for a in range(F.q)] == frob.tolist(), i
        frob = array_powers(F, frob, {F.p})[F.p]


SMALL_FIELDS = [(p, n) for p in range(2, 65) if is_prime(p)
                for n in range(1, 7) if p**n <= 64]
ALL_FIELDS = [(p, n) for p in range(2, 1025) if is_prime(p)
              for n in range(1, 11) if p**n <= 1024]


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_scalar_ops_match_array_ops_all_pairs(p, n):
    F = field_make(p, n)
    A, B = np.divmod(np.arange(F.q * F.q), F.q)
    check_scalar_ops_against_arrays(F, A, B)
    # the canonical embedding into GF(p^2n) is a ring map for array ops too
    if F.q**2 <= 1024:
        E = field_make(p, 2 * n)
        e = F.embedding_into(E)
        assert e[F.add_array(A, B)].tolist() == \
            E.add_array(e[A], e[B]).tolist()
        assert e[F.mul_array(A, B)].tolist() == \
            E.mul_array(e[A], e[B]).tolist()


def test_scalar_ops_match_array_ops_sampled():
    rng = np.random.default_rng(5)
    assert len(ALL_FIELDS) == 198
    for p, n in ALL_FIELDS:
        F = field_make(p, n)
        A, B = rng.integers(0, F.q, size=(2, 300))
        A[:10] = 0  # the zero cases of the Zech and log lookups
        B[5:15] = 0
        B[20:30] = F.neg_array(A[20:30])  # sums that vanish
        check_scalar_ops_against_arrays(F, A, B)


def test_frobenius_basics():
    F9 = field_make(3, 2)
    for a in elements(F9):
        assert F9.frobenius(a, 0) == a
        assert F9.frobenius(F9.frobenius(a)) == a  # Gal(GF(9)/GF(3)) = C2
    fixed = [a for a in elements(F9) if F9.frobenius(a) == a]
    # exactly the prime subfield is fixed
    assert sorted(fixed) == [0, 1, 2]


def test_embed_is_ring_hom():
    rng = random.Random(3)
    F3 = field_make(3, 1)
    F9 = field_make(3, 2)
    F81 = field_make(3, 4)
    for src, dst in [(F3, F9), (F3, F81), (F9, F81)]:
        assert embed(0, src, dst) == 0
        assert embed(1, src, dst) == 1
        for _ in range(40):
            a, b = src.rand_elem(rng), src.rand_elem(rng)
            assert embed(src.add(a, b), src, dst) == \
                dst.add(embed(a, src, dst), embed(b, src, dst))
            assert embed(src.mul(a, b), src, dst) == \
                dst.mul(embed(a, src, dst), embed(b, src, dst))


def test_embed_prime_field_frobenius_fixed():
    F3 = field_make(3, 1)
    F9 = field_make(3, 2)
    for a in range(3):
        img = embed(a, F3, F9)
        assert F9.frobenius(img) == img


def test_embed_tower_compatible_from_prime_field():
    F2 = field_make(2, 1)
    F4 = field_make(2, 2)
    F16 = field_make(2, 4)
    for a in range(2):
        via_mid = embed(embed(a, F2, F4), F4, F16)
        assert via_mid == embed(a, F2, F16)


def test_embed_rejects_bad_degree():
    with pytest.raises(InputError):
        embed(1, field_make(2, 2), field_make(2, 3))


def test_factor_x2_plus_1_gf3():
    F = field_make(3, 1)
    f = Poly(F, [1, 0, 1])
    assert not brute_has_root([1, 0, 1], 3)  # oracle: irreducible
    assert poly_factor(f) == [(f, 1)]


def test_factor_difference_of_squares():
    F = field_make(3, 1)
    f = Poly(F, [2, 0, 1])  # x^2 - 1
    fac = poly_factor(f)
    assert sorted((g.coeffs, m) for g, m in fac) == \
        [((1, 1), 1), ((2, 1), 1)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_artin_schreier_split(p):
    F = field_make(p, 1)
    coeffs = [0] * (p + 1)
    coeffs[1] = p - 1  # -x
    coeffs[p] = 1
    f = Poly(F, coeffs)  # x^p - x
    fac = poly_factor(f)
    assert len(fac) == p
    assert all(g.degree == 1 and m == 1 for g, m in fac)


def test_factor_reconstruction_property():
    rng = random.Random(11)
    for p, n in [(2, 1), (3, 1), (5, 1), (3, 2), (2, 2)]:
        F = field_make(p, n)
        for _ in range(25):
            deg = rng.randrange(1, 9)
            coeffs = [F.rand_elem(rng) for _ in range(deg)] + \
                     [F.rand_nonzero(rng)]
            f = Poly(F, coeffs)
            fac = poly_factor(f, random.Random(rng.randrange(10**6)))
            prod = Poly(F, [f.leading()])
            for g, m in fac:
                for _ in range(m):
                    prod = prod * g
            assert prod == f


@st.composite
def factored_polys(draw):
    """(f, its field): a product of small monic polynomials raised to
    exponents that include p-th powers and repeats, times a unit."""
    p, n = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (13, 1)]))
    F = field_make(p, n)
    f = Poly(F, [draw(st.integers(1, F.q - 1))])
    for _ in range(draw(st.integers(1, 4))):
        deg = draw(st.integers(1, 3))
        g = Poly(F, draw(st.lists(st.integers(0, F.q - 1), min_size=deg,
                                  max_size=deg)) + [1])
        e = draw(st.sampled_from([1, 1, 2, p, p + 1]))
        if f.degree + e * deg <= 30:
            for _ in range(e):
                f = f * g
    return f


@settings(max_examples=150, deadline=None)
@given(f=factored_polys(), seed=st.integers(0, 2**16))
def test_irreducible_factors_are_the_distinct_factors(f, seed):
    lazy = list(irreducible_factors(f, random.Random(seed)))
    full = poly_factor(f, random.Random(seed + 1))
    # the distinct factors of the full factorization, each once, in
    # nondecreasing degree
    assert sorted(lazy, key=Poly.sort_key) == [g for g, _ in full]
    assert len(set(lazy)) == len(lazy)
    assert [g.degree for g in lazy] == sorted(g.degree for g in lazy)
    # independent of the shared splitter: Rabin's test and the product
    assert all(poly_is_irreducible(g) and g.leading() == 1 for g in lazy)
    prod = Poly(f.field, [f.leading()])
    for g, m in full:
        for _ in range(m):
            prod = prod * g
    assert prod == f


def test_irreducible_factors_stop_where_the_caller_stops():
    # a caller that takes the first factor does not split the parts of
    # higher degree: no draw is made for them
    F = field_make(13, 1)
    x = Poly.x(F)
    f = (x - Poly(F, [3])) * (x * x - Poly(F, [2]))  # 2 is no square mod 13
    r = random.Random(1)
    state = r.getstate()
    assert next(irreducible_factors(f, r)) == x - Poly(F, [3])
    assert r.getstate() == state


def test_factor_deterministic_given_seed():
    F = field_make(5, 1)
    f = Poly(F, [1, 2, 3, 0, 1, 1])
    a = poly_factor(f, random.Random(42))
    b = poly_factor(f, random.Random(42))
    assert a == b


def test_poly_roots_multiplicity():
    F = field_make(5, 1)
    x = Poly.x(F)
    f = (x - Poly(F, [2])) * (x - Poly(F, [2])) * \
        (x - Poly(F, [4]))
    assert poly_roots(f) == [2, 2, 4]


def test_poly_is_irreducible():
    F = field_make(2, 1)
    assert poly_is_irreducible(Poly(F, [1, 1, 1]))
    assert not poly_is_irreducible(Poly(F, [1, 0, 1]))  # (x+1)^2
    # Rabin's test against full factorization, on every monic polynomial up
    # to the degree bound; degree 1 and f = x included
    for (p, n), bound in {(2, 1): 5, (3, 1): 4, (2, 2): 3, (2, 3): 3,
                          (3, 2): 3}.items():
        F = field_make(p, n)
        for d in range(1, bound + 1):
            for low in range(F.q ** d):
                f = Poly(F, [low // F.q ** i % F.q for i in range(d)] + [1])
                factors = poly_factor(f)
                expected = len(factors) == 1 and factors[0][1] == 1
                assert poly_is_irreducible(f) == expected, f


def test_poly_divmod_random():
    rng = random.Random(5)
    F = field_make(7, 1)
    for _ in range(40):
        a = Poly(F, [F.rand_elem(rng) for _ in range(rng.randrange(1, 8))])
        b = Poly(F, [F.rand_elem(rng) for _ in range(rng.randrange(1, 5))])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree


def random_poly(F, rng, max_deg):
    size = rng.randrange(max_deg + 2)
    return Poly(F, [F.rand_elem(rng) for _ in range(size)])


@pytest.mark.parametrize("p,n", [(3, 2), (2, 4), (13, 2), (13, 1), (2, 1)])
def test_poly_arithmetic_identities(p, n):
    F = field_make(p, n)
    rng = random.Random(17)
    for _ in range(60):
        a, b, c = (random_poly(F, rng, 9) for _ in range(3))
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a and (a + (-a)).is_zero()
        for x in rng.sample(range(F.q), min(F.q, 12)):
            assert evaluate(a * b, x) == F.mul(evaluate(a, x), evaluate(b, x))
            assert evaluate(a + b, x) == F.add(evaluate(a, x), evaluate(b, x))
        k = F.rand_elem(rng)
        assert a.scale(k) == Poly(F, [F.mul(k, y) for y in a.coeffs])
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a and r.degree < b.degree
        assert (a * b).divmod(b) == (a, Poly.zero(F))
        g = a.gcd(b)
        assert g.leading() == 1 and (a % g).is_zero() and (b % g).is_zero()
        if not c.is_zero():
            assert (a * c).gcd(b * c) == g * c.monic()


def test_poly_multiplicity():
    F = field_make(3, 1)
    x = Poly.x(F)
    one = Poly.one(F)
    f = x * x * (x + one)
    assert f.multiplicity(x) == 2
    assert f.multiplicity(x + one) == 1
    assert f.multiplicity(x - one) == 0
    for bad_f, pi in [(Poly.zero(F), x), (f, one)]:
        with pytest.raises(InputError):
            bad_f.multiplicity(pi)


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2)])
def test_poly_mobius_numerator_pointwise(p, n):
    # (c x + d)^m f((a x + b)/(c x + d)) for m = deg f, checked at every
    # point of the field: at the pole of the substitution only the top
    # coefficient survives, as c_m (a x + b)^m
    F = field_make(p, n)
    rng = random.Random(23)
    for _ in range(30):
        f = random_poly(F, rng, 6)
        while True:
            a, b, c, d = (F.rand_elem(rng) for _ in range(4))
            if F.sub(F.mul(a, d), F.mul(b, c)):
                break
        g = f.mobius_numerator(a, b, c, d)
        m = f.degree
        if m < 0:
            assert g.is_zero()
            continue
        assert g.degree <= m
        for x in elements(F):
            top = F.add(F.mul(a, x), b)
            bottom = F.add(F.mul(c, x), d)
            if bottom:
                want = F.mul(F.pow_(bottom, m),
                             evaluate(f, F.mul(top, F.inv(bottom))))
            else:
                want = F.mul(f.leading(), F.pow_(top, m))
            assert evaluate(g, x) == want
