"""The Riemann-Roch action in closed form, the Riemann-Roch generator, the
symmetric powers, the cocycle values of decomposition elements, and the
orbit caches.

P1Geometry.rr_action_rep writes the matrix of a generator sigma on the basis
f_j = u x^j of L(D) down as c_sigma times Sym^d of sigma^{-1}: column j is
c_sigma (A x + B)^j (C x + D')^(d - j), with one Mobius substitution per
finite place of D for the multiplier c_sigma and its place-by-place
certificate.  tests/reptools.reference_rr_action builds u = num/den
(reptools.rr_generator, certified by its valuations) and moves every f_j
on its own; the two must give the same matrices on the shipped scenarios,
on the benchmark and frontier groups and on drawn equivariant divisors,
orbits of places of degree 3 among them.  P1Geometry._cocycle_value reads b_tau off Poly.mobius_numerator
of the place polynomial; tests/reptools.reference_cocycle_value divides at
a root, and the two must agree on every ramified place.  Orbits of places
are computed once per geometry and must equal a fresh computation."""

import functools
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from equirr import fields
from equirr.errors import Inconsistency
from equirr.fields import Poly, field_make
from equirr.geometry import Divisor, P1Geometry, Place, RamificationDatum
from equirr.groups import FiniteGroup
from equirr.matrices import Mat
from equirr.reps import _sym_power
from equirr.scenarios import parse_scenario, realize
from reptools import (certify_rr_generator, places_up_to,
                      reference_cocycle_value, reference_place_images,
                      reference_rr_action, rr_generator)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED_ORACLE = ["a1_translations_gf3.json", "a2_kummer_gf7_m3.json",
                  "a3_s3_gf5.json", "a4_affine_gf3.json"]
# the benchmark groups: PGL2(GF(3)), the translations of GF(9), x -> 2x
# over GF(13); (p, n, generators)
BENCHMARK_GROUPS = {
    "PGL2-GF3": (3, 1, [(1, 1, 0, 1), (2, 0, 0, 1), (0, 1, 1, 0)]),
    "T9-GF9": (3, 2, [(1, 1, 0, 1), (1, 3, 0, 1)]),
    "K12-GF13": (13, 1, [(2, 0, 0, 1)]),
}
# the order-frontier groups, of orders 120 and 110
FRONTIER_GROUPS = {
    "PGL2-GF5": (5, 1, [(1, 1, 0, 1), (2, 0, 0, 1), (0, 1, 1, 0)]),
    "AGL1-GF11": (11, 1, [(1, 1, 0, 1), (2, 0, 0, 1)]),
}
GEOMETRIES = SHIPPED_ORACLE + sorted(BENCHMARK_GROUPS)


@functools.lru_cache(maxsize=None)
def shipped(name):
    scn = realize(parse_scenario((SCENARIO_DIR / name).read_text()))
    return scn.cover.geometry, scn.divisors


@functools.lru_cache(maxsize=None)
def geometry(name):
    if name in BENCHMARK_GROUPS or name in FRONTIER_GROUPS:
        p, n, gens = {**BENCHMARK_GROUPS, **FRONTIER_GROUPS}[name]
        F = field_make(p, n)
        return P1Geometry(F, FiniteGroup.close_generators(F, gens))
    return shipped(name)[0]


@functools.lru_cache(maxsize=None)
def orbits(name, bound=2):
    """The orbits of the places of degree <= bound, by their first
    members."""
    geo = geometry(name)
    out, seen = [], set()
    for P in places_up_to(geo.k, bound):
        if P not in seen:
            orb = geo.orbit_of_place(P)
            seen.update(orb)
            out.append(orb)
    return out


def orbit_sum(coeffs: dict) -> Divisor:
    """sum of c * (every place of the orbit), over orbit -> c."""
    return Divisor({P: c for orb, c in coeffs.items() for P in orb})


def assert_matches_reference(geo, D):
    rep = geo.rr_action_rep(D)
    assert rep.dim == max(0, D.degree() + 1)
    expected = reference_rr_action(geo, D)
    assert [rep.image(g) for g in geo.G.generators] == expected


# -- the Riemann-Roch generator ------------------------------------------------


def test_rr_basis_polynomials():
    # u = 1, so the basis u x^j of L(2 inf) is 1, x, x^2
    F = field_make(3, 1)
    one = Poly.one(F)
    assert rr_generator(F, Divisor({Place.infinity(): 2})) == (one, one)


def test_rr_basis_mixed_divisor():
    F = field_make(3, 1)
    x, x1 = Poly(F, [0, 1]), Poly(F, [1, 1])
    D = Divisor({Place(x, check=False): 1, Place(x1, check=False): -1})
    assert D.degree() == 0
    num, den = rr_generator(F, D)
    assert (num, den) == (x1, x)
    assert num.multiplicity(x) == 0
    assert den.multiplicity(x) == 1
    assert num.multiplicity(x1) == 1


def test_rr_generator_certificate_rejects_wrong_generators():
    F = field_make(3, 1)
    x, x1 = Poly(F, [0, 1]), Poly(F, [2, 1])
    D = Divisor({Place.infinity(): 2, Place(x, check=False): 1,
                 Place(x1, check=False): -1})
    assert rr_generator(F, D) == (x1, x)
    # a wrong valuation at a place of D
    for num, den in [(x1, x * x), (x1 * x1, x), (Poly.one(F), x)]:
        with pytest.raises(Inconsistency, match="valuation"):
            certify_rr_generator(num, den, D)
    # a zero, or a pole, at a finite place outside D
    x2, quad = Poly(F, [1, 1]), Poly(F, [1, 0, 1])
    for num, den in [(x1 * x2, x), (x1, x * quad)]:
        with pytest.raises(Inconsistency, match="outside the divisor"):
            certify_rr_generator(num, den, D)


# -- symmetric powers ----------------------------------------------------------


def direct_sym_power(k, label, a, b):
    """Column i is det^b (alpha + gamma x)^(a-i) (beta + delta x)^i, each
    power multiplied out on its own."""
    alpha, beta, gamma, delta = label
    det = k.pow_(k.sub(k.mul(alpha, delta), k.mul(beta, gamma)), b)
    cols = []
    for i in range(a + 1):
        f = Poly.one(k)
        for _ in range(a - i):
            f = f * Poly(k, [alpha, gamma])
        for _ in range(i):
            f = f * Poly(k, [beta, delta])
        cols.append([k.mul(det, c) for c in f.coeffs]
                    + [0] * (a + 1 - len(f.coeffs)))
    return Mat.from_rows(k, [list(row) for row in zip(*cols)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from([(3, 1), (5, 1), (3, 2), (13, 1)]))
def test_sym_power_recurrence_matches_direct_products(data, q):
    k = field_make(*q)
    label = tuple(data.draw(st.lists(st.integers(0, k.q - 1), min_size=4,
                                     max_size=4)))
    alpha, beta, gamma, delta = label
    assume(k.mul(alpha, delta) != k.mul(beta, gamma))
    a = data.draw(st.integers(-1, 12))
    b = data.draw(st.integers(0, 3))
    assert _sym_power(k, label, a, b) == direct_sym_power(k, label, a, b)


# -- the closed form against the direct route --------------------------------


@pytest.mark.parametrize("name", SHIPPED_ORACLE)
def test_shipped_divisors_match_reference(name):
    geo, divisors = shipped(name)
    for D in divisors:
        assert_matches_reference(geo, D)


@pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
def test_benchmark_groups_match_reference(name):
    geo = geometry(name)
    orbs = orbits(name)
    for orb in orbs:
        assert_matches_reference(geo, orbit_sum({tuple(orb): 1}))
    rational = {tuple(orb): 2 for orb in orbs if orb[0].degree == 1}
    assert_matches_reference(geo, orbit_sum(rational))


def test_kummer_degree_minus_one_and_large_degree():
    geo = geometry("K12-GF13")
    zero, inf = (Place(Poly(geo.k, [0, 1]), check=False),
                 Place.infinity())
    assert_matches_reference(geo, Divisor({zero: -1}))
    # degree 28, as in the big-divisor benchmark: 2 (0) + 2 (inf) plus 2
    # on each of the six places x^2 - n, n a non-residue mod 13
    quad = geo.orbit_of_place(Place(Poly(geo.k, [11, 0, 1]), check=False))
    assert len(quad) == 6
    D = Divisor({zero: 2, inf: 2, **{P: 2 for P in quad}})
    assert D.degree() == 28
    assert_matches_reference(geo, D)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(GEOMETRIES + sorted(FRONTIER_GROUPS)))
def test_drawn_equivariant_divisors_match_reference(data, name):
    # orbits of places of degree <= 3, each of degree <= 30 (the degree-3
    # orbits of PGL2(GF(5)) and AGL1(GF(11)) have degree 120 and 330)
    orbs = [orb for orb in orbits(name, 3)
            if len(orb) * orb[0].degree <= 30]
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(orbs) - 1), st.integers(-1, 4)),
        min_size=1, max_size=3))
    D = orbit_sum({tuple(orbs[i]): c for i, c in picks})
    assume(-1 <= D.degree() <= 30)
    assert_matches_reference(geometry(name), D)


def test_one_mobius_substitution_per_generator(monkeypatch):
    # the multiplier and its certificate take the Mobius numerator of each
    # finite place of D, once per generator
    calls = []
    numerator = Poly.mobius_numerator

    def counting(self, *args):
        calls.append(args)
        return numerator(self, *args)

    monkeypatch.setattr(Poly, "mobius_numerator", counting)
    for name in sorted(BENCHMARK_GROUPS):
        geo = geometry(name)
        for orb in orbits(name):
            D = orbit_sum({tuple(orb): 2})
            calls.clear()
            rep = geo.rr_action_rep(D)
            assert rep.dim == D.degree() + 1
            finite = [P for P in orb if not P.is_infinity]
            assert len(calls) == len(finite) * len(geo.G.generators)
    # deg D = -1: L(D) = 0 and nothing is moved
    geo = geometry("K12-GF13")
    calls.clear()
    geo.rr_action_rep(Divisor({Place.infinity(): -1}))
    assert calls == []


def test_moved_column_of_too_high_degree_is_inconsistent(monkeypatch):
    # 3 (x + 1) is not equivariant under PGL2(GF(3)) = <x -> x + 1,
    # x -> 1/x>.  The generator x -> 1/(x + 1) moves u = 1/(x + 1)^3 to
    # x^3, so (u o sigma^{-1}) / u = x^3 (x + 1)^3 has degree 6 > deg D:
    # with the equivariance guard bypassed, the certificate rejects it,
    # since that generator sends the place x + 1 to x, which D misses.
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(1, 1, 0, 1), (0, 1, 1, 0)])
    assert G.order == 24
    assert (0, 1, 1, 1) in [G.labels[g] for g in G.generators]
    geo = P1Geometry(F, G)
    monkeypatch.setattr(geo, "divisor_is_equivariant",
                        lambda D: (True, None))
    D = Divisor({Place(Poly(F, [1, 1]), check=False): 3})
    with pytest.raises(Inconsistency, match="left the Riemann-Roch space"):
        geo.rr_action_rep(D)


def test_certificate_checks_where_infinity_goes(monkeypatch):
    # 2 inf is not equivariant under PGL2(GF(3)): x -> 1/(x + 1) sends
    # inf to 0.  D has no finite place, so only the check at inf, D(x) =
    # D(inf) for sigma(inf) = 0, can reject it once the guard is bypassed.
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(1, 1, 0, 1), (0, 1, 1, 0)])
    geo = P1Geometry(F, G)
    monkeypatch.setattr(geo, "divisor_is_equivariant",
                        lambda D: (True, None))
    with pytest.raises(Inconsistency, match="left the Riemann-Roch space"):
        geo.rr_action_rep(Divisor({Place.infinity(): 2}))
    # 2 inf + 2 (every rational place) is equivariant and passes
    D = Divisor({P: 2 for P in places_up_to(F, 1)})
    assert geo.rr_action_rep(D).dim == D.degree() + 1


def test_no_factoring_once_orbits_are_known(monkeypatch):
    # L(D) is certified place by place: with the orbits of D already
    # computed, building the action factors nothing
    calls = []
    factor = fields.poly_factor

    def counting(*args):
        calls.append(args)
        return factor(*args)

    monkeypatch.setattr(fields, "poly_factor", counting)
    geo = geometry("K12-GF13")
    zero = Place(Poly(geo.k, [0, 1]), check=False)
    quad = geo.orbit_of_place(Place(Poly(geo.k, [11, 0, 1]), check=False))
    D = Divisor({zero: 3, Place.infinity(): -1, **{P: 2 for P in quad}})
    assert geo.divisor_is_equivariant(D) == (True, None)
    calls.clear()
    assert geo.rr_action_rep(D).dim == D.degree() + 1
    assert calls == []


# -- cocycle values ------------------------------------------------------------


@pytest.mark.parametrize("name", GEOMETRIES + sorted(FRONTIER_GROUPS))
def test_cocycle_values_match_reference(name):
    geo = geometry(name)
    # every ramified place, and the unramified ones of degree <= 2 too
    places = set(geo.ramified_places()) | set(places_up_to(geo.k, 2))
    for P in places - {Place.infinity()}:
        alpha = geo.place_root(P)
        for tau in geo.ramification(P).G_P.positions_in(geo.G):
            assert geo._cocycle_value(tau, P) == \
                reference_cocycle_value(geo, tau, P, alpha)


def test_cocycle_identity_checked_on_large_decomposition_groups():
    # AGL1(GF(11)) fixes infinity: |G_P| = 110
    geo = geometry("AGL1-GF11")
    datum = geo.ramification(Place.infinity())
    assert datum.G_P.order == 110
    tau = datum.G_P.positions_in(datum.group)[-1]
    j, b = datum.cocycle[tau]
    cocycle = {**datum.cocycle, tau: (j, datum.kP.mul(b, 2))}
    kwargs = dict(group=datum.group, k=datum.k, place=datum.place,
                  G_P=datum.G_P, I_P=datum.I_P, wild=datum.wild,
                  filtration=datum.filtration, deg=datum.deg,
                  orbit_size=datum.orbit_size, kP=datum.kP, rho=datum.rho,
                  char=datum.char)
    RamificationDatum(**kwargs, cocycle=datum.cocycle)
    with pytest.raises(Inconsistency, match="cocycle identity"):
        RamificationDatum(**kwargs, cocycle=cocycle)


# -- orbit caches ------------------------------------------------------------


@pytest.mark.parametrize("name", GEOMETRIES)
def test_cached_orbits_equal_fresh_orbits(name):
    geo = geometry(name)
    for P in places_up_to(geo.k, 2):
        fresh = sorted(set(reference_place_images(geo, P)),
                       key=Place.sort_key)
        orbit = geo.orbit_of_place(P)
        assert orbit == fresh
        assert all(geo.orbit_of_place(Q) is orbit for Q in orbit)
    ramified = geo.ramified_orbits()
    assert geo.ramified_orbits() is ramified
    firsts = []
    for P in geo.ramified_places():
        if not any(P in orb for orb in firsts):
            firsts.append(sorted(set(reference_place_images(geo, P)),
                                 key=Place.sort_key))
    assert ramified == firsts
