import json
import random
from pathlib import Path

import pytest

from equirr import geometry
from equirr.errors import Inconsistency, InputError
from equirr.engine import CoverData
from equirr.fields import Poly, field_make
from equirr.geometry import (Divisor, P1Geometry, Place, abstract_datum,
                             fiber_character)
from equirr.groups import FiniteGroup
from equirr.matrices import Mat
from equirr.reps import SimpleRegistry
from equirr.scenarios import parse_scenario, realize
from reptools import (chop_class, places_up_to, reference_place_images,
                      reference_ramified_places, rep_regular, to_lists)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def rng():
    return random.Random(5)


def translation_geometry(p):
    F = field_make(p, 1)
    G = FiniteGroup.close_generators(F, [(1, 1, 0, 1)])
    return F, G, P1Geometry(F, G)


def kummer_geometry(q, m):
    F = field_make(q, 1)
    zeta = F.pow_(F.generator, (q - 1) // m)
    G = FiniteGroup.close_generators(F, [(zeta, 0, 0, 1)])
    assert G.order == m
    return F, G, P1Geometry(F, G), zeta


def place_x(F):
    return Place(Poly(F, [0, 1]), check=False)


def place_lin(F, c):
    """The place x - c."""
    return Place(Poly(F, [F.neg(c), 1]), check=False)


# -- places ------------------------------------------------------------------


def test_places_up_to_gf3_degree1():
    F = field_make(3, 1)
    ps = places_up_to(F, 1)
    assert len(ps) == 4  # infinity plus x, x+1, x+2
    assert ps[0].is_infinity
    assert [p.poly.coeffs for p in ps[1:]] == [(0, 1), (1, 1), (2, 1)]


def test_places_degree2_count_gf3():
    # (q^2 - q)/2 monic irreducible quadratics
    F = field_make(3, 1)
    ps = [p for p in places_up_to(F, 2) if p.degree == 2]
    assert len(ps) == (9 - 3) // 2 == 3


def test_places_are_irreducible():
    F = field_make(5, 1)
    from equirr.fields import poly_is_irreducible
    for p in places_up_to(F, 2):
        if not p.is_infinity:
            assert poly_is_irreducible(p.poly)


# -- Mobius action ------------------------------------------------------------


def test_mobius_identity_fixes_places():
    F, G, geo = translation_geometry(3)
    for P in places_up_to(F, 2):
        assert geo.mobius_on_place(G.identity, P) == P


def test_mobius_translation_moves_x():
    F, G, geo = translation_geometry(3)
    sigma = G.index[(1, 1, 0, 1)]
    img = geo.mobius_on_place(sigma, place_x(F))
    # root 0 goes to 1; minimal polynomial of 1 is x - 1 = x + 2
    assert img == place_lin(F, 1)


def test_mobius_inversion_swaps_zero_and_infinity():
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(0, 1, 1, 0)])  # x -> 1/x
    geo = P1Geometry(F, G)
    sigma = next(i for i in range(G.order) if i != G.identity)
    assert geo.mobius_on_place(sigma, place_x(F)).is_infinity
    assert geo.mobius_on_place(sigma, Place.infinity()) == place_x(F)


def test_mobius_preserves_degree():
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(1, 1, 0, 1), (2, 0, 0, 1)])
    geo = P1Geometry(F, G)
    quad = next(p for p in places_up_to(F, 2) if p.degree == 2)
    for s in range(G.order):
        assert geo.mobius_on_place(s, quad).degree == 2


# -- equivariance ----------------------------------------------------------------


def test_divisor_equivariance():
    F, G, geo = translation_geometry(3)
    ok, _ = geo.divisor_is_equivariant(Divisor({Place.infinity(): 2}))
    assert ok
    ok, orbit = geo.divisor_is_equivariant(Divisor({place_x(F): 1}))
    assert not ok
    assert sorted(p.poly.coeffs for p in orbit) == [(0, 1), (1, 1), (2, 1)]
    ok, _ = geo.divisor_is_equivariant(Divisor({}))
    assert ok


# -- ramification -----------------------------------------------------------------


def test_translation_ramification_at_infinity():
    F, G, geo = translation_geometry(3)
    assert geo.ramified_places() == [Place.infinity()]
    datum = geo.ramification(Place.infinity())
    assert datum.e == 3
    assert datum.filtration == [3, 3, 1]
    assert datum.e_w == 3 and datum.e_t == 1
    assert datum.f == 1
    assert datum.is_weak_here and not datum.is_tame_here


# generators of the benchmark geometries, PGL2(GF(5)) and AGL1(GF(11))
# among them; GF(9) elements are encoded b0 + 3 b1
BENCHMARK_GROUPS = [
    ((13, 1), [[[2, 0], [0, 1]]]),
    ((3, 1), [[[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 1], [1, 0]]]),
    ((3, 2), [[[1, 1], [0, 1]], [[1, 3], [0, 1]]]),
    ((5, 1), [[[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 1], [1, 0]]]),
    ((11, 1), [[[1, 1], [0, 1]], [[2, 0], [0, 1]]]),
]


def _shipped_oracle_scenarios():
    out = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        if path.name == "golden.json":
            continue
        doc = json.loads(path.read_text())
        if doc["mode"] == "oracle":
            out.append(pytest.param(doc, id=path.stem))
    return out


def _shipped_geometries():
    out = _shipped_oracle_scenarios()
    for (p, n), gens in BENCHMARK_GROUPS:
        doc = {"field": {"p": p, "n": n},
               "group": {"kind": "pgl2", "generators": gens},
               "mode": "oracle", "divisors": [[]], "seed": 0}
        out.append(pytest.param(doc, id=f"gf{p}^{n}-{len(gens)}gens"))
    return out


@pytest.mark.parametrize("doc", _shipped_geometries())
def test_ramified_places_match_per_element_route(doc):
    geo = realize(parse_scenario(doc)).cover.geometry
    assert geo.ramified_places() == reference_ramified_places(geo)


PGL2_GF7 = {"field": {"p": 7, "n": 1},
            "group": {"kind": "pgl2",
                      "generators": [[[1, 1], [0, 1]], [[3, 0], [0, 1]],
                                     [[0, 1], [1, 0]]]},
            "mode": "oracle", "divisors": [[]], "seed": 0}


@pytest.mark.parametrize("doc", _shipped_oracle_scenarios()
                         + [pytest.param(PGL2_GF7, id="pgl2-gf7")])
def test_place_map_matches_moving_a_root(doc):
    # sigma(P) by substitution over k against the image of a root of P,
    # moved as a point of P^1(GF(q^deg P)) and closed up by its Frobenius
    # orbit, for every element and every place of degree <= 3
    geo = realize(parse_scenario(doc)).cover.geometry
    for P in places_up_to(geo.k, 3):
        assert [geo.mobius_on_place(s, P) for s in range(geo.G.order)] \
            == reference_place_images(geo, P), P


@pytest.mark.parametrize("q,m", [(7, 3), (5, 4), (7, 6)])
def test_kummer_ramification(q, m):
    F, G, geo, zeta = kummer_geometry(q, m)
    ram = geo.ramified_places()
    assert ram == [Place.infinity(), place_x(F)]
    d0 = geo.ramification(place_x(F))
    dinf = geo.ramification(Place.infinity())
    for d in (d0, dinf):
        assert d.e == m and d.e_t == m and d.e_w == 1
        assert d.is_tame_here
    # the cotangent scalars at 0 and infinity are mutually inverse, and the
    # value at 0 for x -> zeta x is zeta^{-1} in the f o sigma^{-1}
    # convention used throughout the engine
    for s in range(G.order):
        if s == G.identity:
            continue
        assert F.mul(d0.char[s], dinf.char[s]) == 1
    gen = next(s for s in range(G.order) if G.element_order(s) == m)
    a, b, c, d = G.labels[gen]
    # recover which power of zeta this generator scales by: x -> (a/d) x
    scaling = F.mul(a, F.inv(d))
    assert d0.char[gen] == F.inv(scaling)
    assert dinf.char[gen] == scaling


def test_unramified_place_datum_degenerate():
    F, G, geo = translation_geometry(3)
    datum = geo.ramification(place_x(F))
    assert datum.e == 1 and datum.e_t == 1 and datum.e_w == 1
    assert datum.I_P.order == 1
    assert datum.G_P.order == 1  # translations move x freely


def test_frobenius_stabilizer_gives_f2():
    # x -> -x over GF(3) at the place x^2+1: geometric stabilizers are
    # trivial but sigma acts as the Frobenius conjugate on the roots
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(2, 0, 0, 1)])
    geo = P1Geometry(F, G)
    P = Place(Poly(F, [1, 0, 1]), check=False)
    # independent oracle: orbits of the roots +-i inside GF(9)
    K = field_make(3, 2)
    roots = sorted(set(__import__("equirr.fields", fromlist=["poly_roots"])
                       .poly_roots(P.poly.map_field(K))))
    sigma = next(i for i in range(G.order) if i != G.identity)
    assert geo.mobius_point(K, sigma, roots[0]) == K.neg(roots[0])
    assert K.frobenius(roots[0], 1) == K.neg(roots[0])  # -i = i^3
    datum = geo.ramification(P)
    deg_r, f = datum.residue_deg, datum.f
    assert f == 2 and deg_r == 1
    assert datum.I_P.order == 1 and datum.G_P.order == 2


def test_orbit_degree_sum_property():
    F = field_make(5, 1)
    G = FiniteGroup.close_generators(F, [(1, 1, 0, 1), (2, 0, 0, 1)])
    geo = P1Geometry(F, G)
    for P in places_up_to(F, 1):
        orbit = geo.orbit_of_place(P)
        datum = geo.ramification(P)
        assert len(orbit) == G.order // datum.G_P.order
        assert sum(Q.degree for Q in orbit) == len(orbit) * P.degree


# -- predicates and Riemann-Hurwitz ------------------------------------------------


def test_predicates_translation_vs_kummer():
    _, _, geo = translation_geometry(3)
    cover = CoverData.from_geometry(geo)
    assert cover.is_weakly_ramified() and not cover.is_tame()
    _, _, geo_k, _ = kummer_geometry(7, 3)
    cover_k = CoverData.from_geometry(geo_k)
    assert cover_k.is_tame() and cover_k.is_weakly_ramified()


def test_riemann_hurwitz_audit():
    for p in (2, 3, 5):
        _, _, geo = translation_geometry(p)
        rh = geo.riemann_hurwitz()
        assert rh["pass"], rh
        assert rh["lhs"] == 2 * p - 2
    for q, m in [(7, 3), (5, 4), (7, 6)]:
        _, _, geo, _ = kummer_geometry(q, m)
        rh = geo.riemann_hurwitz()
        assert rh["pass"], rh
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(1, 0, 0, 1)])
    geo = P1Geometry(F, G)
    assert geo.riemann_hurwitz() == {"lhs": 0, "rhs": 0, "pass": True}


def test_riemann_hurwitz_affine_group():
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(1, 1, 0, 1), (2, 0, 0, 1)])
    assert G.order == 6
    geo = P1Geometry(F, G)
    rh = geo.riemann_hurwitz()
    assert rh["pass"]
    dinf = geo.ramification(Place.infinity())
    assert dinf.e == 6 and dinf.e_w == 3 and dinf.e_t == 2
    assert dinf.filtration == [6, 3, 1]


# -- Riemann-Roch spaces ---------------------------------------------------------


def test_rr_basis_polynomials():
    # u = 1, so the basis u x^j of L(2 inf) is 1, x, x^2
    F, G, geo = translation_geometry(3)
    one = Poly.one(F)
    assert geo._rr_generator(Divisor({Place.infinity(): 2})) == (one, one)


def test_rr_basis_mixed_divisor():
    F, G, geo = translation_geometry(3)
    D = Divisor({place_x(F): 1, place_lin(F, 2): -1})
    assert D.degree() == 0
    num, den = geo._rr_generator(D)
    assert (num, den) == (place_lin(F, 2).poly, place_x(F).poly)
    assert num.multiplicity(place_x(F).poly) == 0
    assert den.multiplicity(place_x(F).poly) == 1
    assert num.multiplicity(place_lin(F, 2).poly) == 1


def test_rr_basis_negative_degree():
    F, G, geo = translation_geometry(3)
    assert geo.rr_action_rep(Divisor({Place.infinity(): -1})).dim == 0
    with pytest.raises(InputError):
        geo.rr_action_rep(Divisor({Place.infinity(): -2}))


def test_rr_dimension_formula_random():
    # G is trivial, so every divisor is equivariant
    r = random.Random(31)
    F = field_make(5, 1)
    G = FiniteGroup.close_generators(F, [(1, 0, 0, 1)])
    geo = P1Geometry(F, G)
    ps = places_up_to(F, 2)
    for _ in range(30):
        D = Divisor({p: r.randrange(-2, 3) for p in r.sample(ps, 3)})
        if D.degree() < -1:
            continue
        assert geo.rr_action_rep(D).dim == max(0, D.degree() + 1)


def test_rr_generator_certificate_rejects_wrong_generators():
    F, G, geo = translation_geometry(3)
    D = Divisor({Place.infinity(): 2, place_x(F): 1,
                 place_lin(F, 1): -1})
    x, x1 = place_x(F).poly, place_lin(F, 1).poly
    assert geo._rr_generator(D) == (x1, x)
    # a wrong valuation at a place of D
    for num, den in [(x1, x * x), (x1 * x1, x), (Poly.one(F), x)]:
        with pytest.raises(Inconsistency, match="valuation"):
            geometry._certify_rr_generator(num, den, D)
    # a zero, or a pole, at a finite place outside D
    x2, quad = place_lin(F, 2).poly, Poly(F, [1, 0, 1])
    for num, den in [(x1 * x2, x), (x1, x * quad)]:
        with pytest.raises(Inconsistency, match="outside the divisor"):
            geometry._certify_rr_generator(num, den, D)


def test_rr_action_translation_unipotent():
    F, G, geo = translation_geometry(3)
    rep = geo.rr_action_rep(Divisor({Place.infinity(): 2}))
    assert rep.dim == 3
    sigma = G.index[(1, 1, 0, 1)]
    m = rep.image(sigma)
    # sigma . x^j = (x - 1)^j = (x + 2)^j over GF(3)
    assert to_lists(m) == [[1, 2, 1], [0, 1, 1], [0, 0, 1]]
    reg = SimpleRegistry(G, F)
    r = rng()
    v = chop_class(rep, reg, r)
    assert v == chop_class(rep_regular(G, F), reg, r)


def test_rr_action_rejects_non_equivariant():
    F, G, geo = translation_geometry(3)
    with pytest.raises(InputError):
        geo.rr_action_rep(Divisor({place_x(F): 1}))


def test_rr_action_trivial_group_identity():
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(1, 0, 0, 1)])
    geo = P1Geometry(F, G)
    rep = geo.rr_action_rep(Divisor({place_x(F): 2}))
    assert rep.dim == 3


# -- cotangent characters and fibers ------------------------------------------------


def test_fiber_character_zero_coefficient_trivial():
    _, _, geo, _ = kummer_geometry(7, 3)
    datum = geo.ramification(Place.infinity())
    rep = fiber_character(datum, 0)
    assert rep.dim == 1
    for t in range(len(datum.I_P.generators)):
        assert rep.gen_image(t) == Mat.identity(datum.k, 1)


def test_fiber_character_inverse_of_cotangent():
    F, G, geo, zeta = kummer_geometry(7, 3)
    datum = geo.ramification(place_x(F))
    fib = fiber_character(datum, 1)
    cot = datum.cotangent_power(1)
    for t in range(len(datum.I_P.generators)):
        prod = fib.gen_image(t) @ cot.gen_image(t)
        assert prod == Mat.identity(F, 1)


def test_cotangent_power_periodicity():
    F, G, geo, _ = kummer_geometry(5, 4)
    datum = geo.ramification(place_x(F))
    high = datum.cotangent_power(datum.e_t)
    for t in range(len(datum.I_P.generators)):
        assert high.gen_image(t) == Mat.identity(F, 1)
    assert datum.cotangent_power(3).gen_image(0) == \
        datum.cotangent_power(-1).gen_image(0)


def test_decomposition_line_rep_consistent_with_inertia():
    # f = 2 place for x -> -x over GF(3): the decomposition line is a
    # 2-dimensional GF(3)-representation of C2 whose restriction to the
    # (trivial) inertia is trivial
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(2, 0, 0, 1)])
    geo = P1Geometry(F, G)
    P = Place(Poly(F, [1, 0, 1]), check=False)
    datum = geo.ramification(P)
    line = datum.decomposition_line_rep(1)
    assert line.dim == 2
    sigma = next(i for i in range(G.order) if i != G.identity)
    img = line.image(sigma)
    assert img @ img == Mat.identity(F, 2)
    assert img != Mat.identity(F, 2)  # genuinely semilinear action


def test_constant_field_invariants_along_orbit():
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(1, 1, 0, 1), (2, 0, 0, 1)])
    geo = P1Geometry(F, G)
    orbit = geo.orbit_of_place(place_x(F))
    assert len(orbit) == 3
    data = [geo.ramification(P) for P in orbit]
    assert len({(d.e, d.e_t, d.e_w, d.f) for d in data}) == 1


# -- abstract data ------------------------------------------------------------------


def test_abstract_datum_matches_geometric_kummer():
    F, G, geo, zeta = kummer_geometry(7, 3)
    geom = geo.ramification(place_x(F))
    gen = next(s for s in range(G.order) if G.element_order(s) == 3)
    datum = abstract_datum(
        G, F, label="orbit0",
        decomposition=G,
        inertia=G,
        wild=G.subgroup([G.identity]),
        residue_degree=1,
        cot_generator=gen,
        cot_value=[geom.char[gen]],
    )
    assert datum.e == 3 and datum.e_t == 3 and datum.e_w == 1
    for s in range(G.order):
        assert datum.char[s] == geom.char[s]


def test_abstract_datum_validation():
    F = field_make(7, 1)
    G = FiniteGroup.from_table([[(i + j) % 3 for j in range(3)]
                                for i in range(3)])
    with pytest.raises(InputError):
        abstract_datum(G, F, label="bad", decomposition=G, inertia=G,
                       wild=G.subgroup([0]), residue_degree=1,
                       cot_generator=1, cot_value=[1])  # order-1 value
