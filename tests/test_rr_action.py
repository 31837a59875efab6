"""The Riemann-Roch action by its two-term recurrence, the cocycle values
of decomposition elements, and the orbit caches.

P1Geometry.rr_action_rep moves the basis f_j = u x^j of L(D) with one
Mobius substitution of u per generator, w_0 = (u o sigma^{-1}) / u, and
then w_j = w_{j-1} (A x + B) / (C x + D').  tests/reptools.reference_rr_action
moves every f_j on its own; the two must give the same matrices on the
shipped scenarios, on the benchmark groups and on drawn equivariant
divisors.  P1Geometry._cocycle_value reads b_tau off Poly.mobius_numerator
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
from equirr.scenarios import parse_scenario, realize
from reptools import (places_up_to, reference_cocycle_value,
                      reference_rr_action)

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
def orbits(name):
    """The orbits of the places of degree <= 2, by their first members."""
    geo = geometry(name)
    out, seen = [], set()
    for P in places_up_to(geo.k, 2):
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


# -- the recurrence against the direct route --------------------------------


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


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(GEOMETRIES))
def test_drawn_equivariant_divisors_match_reference(data, name):
    orbs = orbits(name)
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(orbs) - 1), st.integers(-1, 4)),
        min_size=1, max_size=3))
    D = orbit_sum({tuple(orbs[i]): c for i, c in picks})
    assume(-1 <= D.degree() <= 30)
    assert_matches_reference(geometry(name), D)


def test_one_mobius_substitution_per_generator(monkeypatch):
    # moving u = num/den takes the Mobius numerators of num and of den
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
            assert len(calls) == 2 * len(geo.G.generators)
    # deg D = -1: L(D) = 0 and nothing is moved
    geo = geometry("K12-GF13")
    calls.clear()
    geo.rr_action_rep(Divisor({Place.infinity(): -1}))
    assert calls == []


def test_moved_column_of_too_high_degree_is_inconsistent(monkeypatch):
    # 3 (x + 1) is not equivariant under PGL2(GF(3)) = <x -> x + 1,
    # x -> 1/x>.  The generator x -> 1/(x + 1) moves u = 1/(x + 1)^3 to
    # x^3, so w_0 = x^3 (x + 1)^3 is a polynomial of degree 6 > deg D:
    # with the equivariance guard bypassed, only the degree bound
    # rejects it (its columns used to be cut to four coefficients).
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


def test_no_factoring_once_orbits_are_known(monkeypatch):
    # L(D) is certified from valuations of its generator: with the orbits
    # of D already computed, building the action factors nothing
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
    G = geo.G
    for P in places_up_to(geo.k, 2):
        fresh = sorted({geo.mobius_on_place(s, P) for s in range(G.order)},
                       key=Place.sort_key)
        orbit = geo.orbit_of_place(P)
        assert orbit == fresh
        assert all(geo.orbit_of_place(Q) is orbit for Q in orbit)
    ramified = geo.ramified_orbits()
    assert geo.ramified_orbits() is ramified
    firsts = []
    for P in geo.ramified_places():
        if not any(P in orb for orb in firsts):
            firsts.append(sorted({geo.mobius_on_place(s, P)
                                  for s in range(G.order)},
                                 key=Place.sort_key))
    assert ramified == firsts
