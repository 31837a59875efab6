import random
from pathlib import Path

import pytest

from equirr.engine import (CoverData, congruence_condition,
                           divided_cover_class, euler_class_integral,
                           euler_class_rational, euler_class_scaled,
                           euler_class_tame_mod_regular, oracle_euler_class,
                           projectivity_report, ramification_class_routes,
                           ramification_class_via_euler,
                           ramification_class_via_inertia, regular_multiple,
                           split_coefficient, tame_structure_checks)
from equirr.errors import InputError
from equirr.fields import Poly, field_make
from equirr.geometry import Divisor, P1Geometry, Place, abstract_datum
from equirr.groups import FiniteGroup
from equirr.reps import is_projective, rep_induce
from equirr.scenarios import parse_scenario, realize
from reptools import total_dim

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def make_cover(k, gens, seed=0):
    G = FiniteGroup.close_generators(k, gens)
    geo = P1Geometry(k, G)
    return CoverData.from_geometry(geo, random.Random(seed))


def translation_cover(p, seed=0):
    return make_cover(field_make(p, 1), [(1, 1, 0, 1)], seed)


def kummer_cover(q, m, seed=0):
    F = field_make(q, 1)
    zeta = F.pow_(F.generator, (q - 1) // m)
    return make_cover(F, [(zeta, 0, 0, 1)], seed)


def inf():
    return Place.infinity()


def place_x(F):
    return Place(Poly(F, [0, 1]), check=False)


# -- coefficient decomposition ---------------------------------------------------


def test_split_coefficient_examples():
    assert split_coefficient(2, 1, 3) == (0, 0)  # n = e_w - 1
    assert split_coefficient(5, 3, 1) == (2, 1)  # 5 = 2 + 1*3
    assert split_coefficient(8, 2, 3) == (0, 1)  # (8-2)/3 = 2 = 0 + 1*2
    with pytest.raises(InputError):
        split_coefficient(1, 1, 3)


def test_split_coefficient_reconstruction():
    rng = random.Random(3)
    for _ in range(200):
        e_t = rng.randrange(1, 7)
        e_w = rng.choice([1, 2, 3, 4, 5, 8, 9])
        n = (e_w - 1) + rng.randrange(-40, 40) * e_w
        l, m = split_coefficient(n, e_t, e_w)
        assert 0 <= l < e_t
        assert n == (e_w - 1) + (l + m * e_t) * e_w


def test_congruence_condition_examples():
    cover = translation_cover(3)
    assert congruence_condition(cover, Divisor({inf(): 2}))
    assert not congruence_condition(cover, Divisor({inf(): 1}))
    tame = kummer_cover(7, 3)
    assert congruence_condition(tame, Divisor({inf(): 0}))


# -- ramification module ------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_translation_ramification_module_vanishes(p):
    cover = translation_cover(p)
    routes = ramification_class_routes(cover)
    assert routes["inertia"].is_zero()
    assert routes["euler"].is_zero()
    assert routes["consistent"]


@pytest.mark.parametrize("q,m", [(7, 3), (5, 4), (7, 6)])
def test_kummer_ramification_module(q, m):
    cover = kummer_cover(q, m)
    routes = ramification_class_routes(cover)
    assert routes["consistent"]
    n = routes["inertia"]
    # [N] = [k[G]] - [trivial]: total dimension m - 1, all coefficients 0/1
    assert total_dim(n) == m - 1
    assert sorted(n.coeffs)[-1] <= 1
    reg = cover.regular_class()
    diff = reg - n
    assert total_dim(diff) == 1


def test_trivial_group_ramification_module():
    F = field_make(3, 1)
    cover = make_cover(F, [(1, 0, 0, 1)])
    assert ramification_class_via_inertia(cover).is_zero()


# -- integral formula vs oracle ------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_translation_full_divisor(p):
    cover = translation_cover(p)
    D = Divisor({inf(): p - 1})
    oracle = oracle_euler_class(cover, D)
    formula, _ = euler_class_integral(cover, D)
    assert formula == oracle
    # the formula reads the ramification module by the local route; the
    # global route gives the same class, so either route gives the oracle
    assert (ramification_class_via_euler(cover)
            == ramification_class_via_inertia(cover))
    assert oracle == cover.regular_class()
    assert is_projective(cover.geometry.rr_action_rep(D))


def test_trivial_group_formula():
    F = field_make(3, 1)
    cover = make_cover(F, [(1, 0, 0, 1)])
    D = Divisor({place_x(F): 5})
    oracle = oracle_euler_class(cover, D)
    formula, _ = euler_class_integral(cover, D)
    assert formula == oracle
    assert total_dim(oracle) == 6


@pytest.mark.parametrize("q,m", [(7, 3), (5, 4), (7, 6)])
def test_kummer_formula_matches_oracle(q, m):
    F = field_make(q, 1)
    cover = kummer_cover(q, m)
    x0 = place_x(F)
    divisors = [
        Divisor({}),
        Divisor({inf(): -1}),
        Divisor({x0: 1}),
        Divisor({x0: m - 1, inf(): m - 1}),
        Divisor({inf(): 3}),
        Divisor({x0: 2, inf(): 5}),
        Divisor({x0: -1, inf(): 2}),
    ]
    for D in divisors:
        if D.degree() < -1:
            continue
        oracle = oracle_euler_class(cover, D)
        formula, _ = euler_class_integral(cover, D)
        assert formula == oracle, f"mismatch for {D!r}"
        rational = euler_class_rational(cover, D)
        assert rational == formula


def test_kummer_negative_degree_zero_class():
    cover = kummer_cover(7, 3)
    D = Divisor({inf(): -1})
    oracle = oracle_euler_class(cover, D)
    assert oracle.is_zero()
    formula, _ = euler_class_integral(cover, D)
    assert formula.is_zero()


def test_affine_group_mixed_ramification():
    # affine maps over GF(3): e = 6, e_w = 3, e_t = 2 at infinity plus a
    # tame orbit of the three rational points
    F = field_make(3, 1)
    cover = make_cover(F, [(1, 1, 0, 1), (2, 0, 0, 1)])
    assert cover.G.order == 6
    rational_orbit = [Place(Poly(F, [c, 1]), check=False) for c in range(3)]
    for n_inf in (-4, -1, 2, 5, 8, 11):
        for c in range(3):
            D = Divisor({inf(): n_inf,
                         **{P: c for P in rational_orbit}})
            if D.degree() < -1:
                continue
            oracle = oracle_euler_class(cover, D)
            formula, _ = euler_class_integral(cover, D)
            assert formula == oracle, f"n_inf={n_inf}, c={c}"
            assert euler_class_rational(cover, D) == formula


def test_representative_independence():
    F = field_make(3, 1)
    cover = make_cover(F, [(1, 1, 0, 1), (2, 0, 0, 1)])
    rational_orbit = [Place(Poly(F, [c, 1]), check=False) for c in range(3)]
    D = Divisor({inf(): 2, **{P: 1 for P in rational_orbit}})
    # the integral formula reads an orbit only through these data of its
    # first place; the last place of the orbit gives the same ones
    geo = cover.geometry
    lengths = []  # (orbit size, l) per orbit
    for first, n in cover.orbit_table(D):
        orbit = geo.orbit_of_place(first.place)
        assert geo.ramification(orbit[0]) is first
        last = geo.ramification(orbit[-1])
        assert ((last.e_t, last.e_w, last.f, last.residue_deg)
                == (first.e_t, first.e_w, first.f, first.residue_deg))
        l, _ = split_coefficient(n, first.e_t, first.e_w)
        lengths.append((len(orbit), l))
        for d in range(1, l + 1):
            assert (cover.induced_cover_class(last, -d, cover.G)
                    == cover.induced_cover_class(first, -d, cover.G))
            cert = divided_cover_class(cover, last, d)
            assert all(m % last.f == 0
                       for m in cert["head_multiplicities"].values())
    # a twist is certified on the three-place orbit
    assert sorted(lengths) == [(1, 0), (3, 1)]


def test_integral_formula_refuses_bad_congruence():
    cover = translation_cover(3)
    with pytest.raises(InputError):
        euler_class_integral(cover, Divisor({inf(): 1}))


# -- divided covers -------------------------------------------------------------------


def test_divided_cover_f1_trivial():
    cover = kummer_cover(7, 3)
    datum = cover.orbit_data[0]
    for d in range(1, datum.e_t):
        cert = divided_cover_class(cover, datum, d)
        assert cert["f"] == 1
        assert cert["class"].is_integral()


@pytest.mark.parametrize("name", ["a1_translations_gf3.json",
                                  "a2_kummer_gf7_m3.json", "a3_s3_gf5.json",
                                  "a4_affine_gf3.json"])
def test_induce_class_matches_the_induced_module(name):
    # induction is exact, so inducing a class simple by simple gives the
    # class of the induced module, on every ramified orbit's G_P
    cover = realize(parse_scenario((SCENARIO_DIR / name).read_text())).cover
    for datum in cover.orbit_data:
        reg_p, _ = cover.registry_for(datum.G_P.as_group())
        modules = reg_p.simples + [datum.decomposition_line_rep(d)
                                   for d in range(datum.e_t)]
        for M in modules:
            assert (cover.induce_class(reg_p.class_of(M), datum.G_P)
                    == cover.registry.class_of(
                        rep_induce(M, cover.G, datum.G_P)))


def test_structure_checks_f1():
    cover = kummer_cover(5, 4)
    datum = cover.orbit_data[0]
    out = tame_structure_checks(cover, datum, 1)
    assert out["cover_equals_line"]
    assert out["ind_res_multiplies"]


# -- tame mod-regular variant ----------------------------------------------------------


@pytest.mark.parametrize("q,m", [(7, 3), (5, 4)])
def test_tame_variant_congruent_to_integral(q, m):
    F = field_make(q, 1)
    cover = kummer_cover(q, m)
    x0 = place_x(F)
    for D in [Divisor({}), Divisor({x0: 1}), Divisor({x0: m - 1}),
              Divisor({inf(): 2}), Divisor({x0: 1, inf(): 1})]:
        rhs = euler_class_tame_mod_regular(cover, D)
        reference, _ = euler_class_integral(cover, D)
        ok, mult = regular_multiple(cover, reference - rhs)
        assert ok, f"not congruent for {D!r}"
        assert isinstance(mult, int)


def test_tame_variant_zero_exponents():
    cover = kummer_cover(7, 3)
    rhs = euler_class_tame_mod_regular(cover, Divisor({}))
    n = ramification_class_via_inertia(cover)
    assert rhs == n.scale(-1)


def test_tame_variant_rejects_wild():
    cover = translation_cover(3)
    with pytest.raises(InputError):
        euler_class_tame_mod_regular(cover, Divisor({inf(): 2}))


# -- scaled identity ---------------------------------------------------------------------


def test_scaled_identity_trivial_group():
    F = field_make(3, 1)
    cover = make_cover(F, [(1, 0, 0, 1)])
    D = Divisor({place_x(F): 4})
    rhs, C, _ = euler_class_scaled(cover, D)
    assert C == 1 + 4
    oracle = oracle_euler_class(cover, D)
    assert rhs == oracle  # |G| = 1


@pytest.mark.parametrize("q,m", [(7, 3), (5, 4), (7, 6)])
def test_scaled_identity_kummer_zero_divisor(q, m):
    cover = kummer_cover(q, m)
    D = Divisor({})
    rhs, C, _ = euler_class_scaled(cover, D)
    assert C == m  # 1 + 0 + (1/2)(2(m-1)) = m
    oracle = oracle_euler_class(cover, D)
    assert rhs == oracle.scale(m)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scaled_identity_translations(p):
    cover = translation_cover(p)
    D = Divisor({inf(): p - 1})
    rhs, C, _ = euler_class_scaled(cover, D)
    assert C == p  # 1 + (p-1) + 0
    oracle = oracle_euler_class(cover, D)
    assert rhs == oracle.scale(p)


def test_scaled_identity_many_divisors():
    cover = kummer_cover(5, 4)
    F = field_make(5, 1)
    x0 = place_x(F)
    for D in [Divisor({x0: 1}), Divisor({x0: 3, inf(): 3}),
              Divisor({inf(): -1}), Divisor({x0: -1, inf(): 4})]:
        rhs, C, _ = euler_class_scaled(cover, D)
        oracle = oracle_euler_class(cover, D)
        assert rhs == oracle.scale(cover.G.order), f"failed for {D!r}"


def test_scaled_identity_affine():
    F = field_make(3, 1)
    cover = make_cover(F, [(1, 1, 0, 1), (2, 0, 0, 1)])
    rational_orbit = [Place(Poly(F, [c, 1]), check=False) for c in range(3)]
    for D in [Divisor({inf(): 2}), Divisor({inf(): 5}),
              Divisor({inf(): 2, **{P: 1 for P in rational_orbit}})]:
        rhs, C, _ = euler_class_scaled(cover, D)
        oracle = oracle_euler_class(cover, D)
        assert rhs == oracle.scale(6), f"failed for {D!r}"


# -- projectivity predicates ----------------------------------------------------------


def test_projectivity_report_translations():
    cover = translation_cover(3)
    good = projectivity_report(cover, Divisor({inf(): 2}))
    assert good["congruence"] and good["h0_projective"]
    assert good["sufficient_direction"] and good["necessary_direction"]
    bad = projectivity_report(cover, Divisor({inf(): 1}))
    assert not bad["congruence"]
    assert not bad["h0_projective"]  # contrapositive of the necessary dir
    assert bad["necessary_direction"]


def test_projectivity_report_tame_membership():
    cover = kummer_cover(7, 3)
    rep = projectivity_report(cover, Divisor({place_x(field_make(7, 1)): 2}))
    assert rep["tame_membership"]
    assert rep["in_cartan_image"]


# -- abstract mode -----------------------------------------------------------------------


def kummer_abstract_cover(q, m, g_y, n0, ninf, seed=0):
    F = field_make(q, 1)
    zeta = F.pow_(F.generator, (q - 1) // m)
    G = FiniteGroup.close_generators(F, [(zeta, 0, 0, 1)])
    geo = P1Geometry(F, G)
    d0 = geo.ramification(place_x(F))
    dinf = geo.ramification(Place.infinity())
    gen = next(s for s in range(G.order) if G.element_order(s) == m)
    data = [
        abstract_datum(G, F, label="zero", decomposition=list(range(m)),
                       inertia=list(range(m)), wild=[G.identity],
                       residue_degree=1, cot_generator=gen,
                       cot_value=[d0.char[gen]]),
        abstract_datum(G, F, label="infinity",
                       decomposition=list(range(m)),
                       inertia=list(range(m)), wild=[G.identity],
                       residue_degree=1, cot_generator=gen,
                       cot_value=[dinf.char[gen]]),
    ]
    return CoverData.from_abstract(G, F, g_y, data, [n0, ninf],
                                   random.Random(seed))


def test_abstract_kummer_matches_oracle_totals():
    q, m = 7, 3
    cover = kummer_abstract_cover(q, m, 0, 1, 0)
    formula, _ = euler_class_integral(cover)
    # deg D = 1 so chi has total dimension 2 at genus 0
    assert total_dim(formula) == 2
    assert euler_class_rational(cover) == formula


def test_abstract_genus_shift():
    q, m = 7, 3
    flat = kummer_abstract_cover(q, m, 0, 1, 0)
    lifted = kummer_abstract_cover(q, m, 2, 1, 0)
    f0, _ = euler_class_integral(flat)
    f2, _ = euler_class_integral(lifted)
    # the two covers run the same seeded computation, so their registries
    # align index by index; raising g_Y by 2 subtracts 2 [k[G]]
    reg = flat.regular_class().coeffs
    a, b = f0.coeffs, f2.coeffs
    assert len(a) == len(b) == len(reg)
    assert all(x - y == 2 * r for x, y, r in zip(a, b, reg))


def test_abstract_scaled_identity_genus():
    cover = kummer_abstract_cover(5, 4, 1, 3, 3)
    # g_X from Riemann-Hurwitz: 2g_X - 2 = 4(2*1-2) + 2*(4-1) => g_X = 4
    assert cover.genus_upstairs() == 4
    rhs, C, _ = euler_class_scaled(cover)
    assert isinstance(C, int)


def test_abstract_rejects_divisor_argument():
    cover = kummer_abstract_cover(7, 3, 0, 0, 0)
    with pytest.raises(InputError):
        cover.orbit_table(Divisor({}))


def s3_gf5_abstract_data(tame_orbits):
    """The S3-over-GF(5) ramification data (e=3, f=2 at a degree-2 point,
    plus the first tame_orbits e=2 orbits), read off the geometry."""
    from equirr.scenarios import find_s3_pgl2
    F = field_make(5, 1)
    G = FiniteGroup.close_generators(F, find_s3_pgl2(F))
    cover_geo = CoverData.from_geometry(P1Geometry(F, G), random.Random(0))
    dquad = next(d for d in cover_geo.orbit_data if d.e == 3)
    gen3 = next(s for s in dquad.I_P.indices if G.element_order(s) == 3)
    data = [abstract_datum(G, F, label="quad",
                           decomposition=list(dquad.G_P.indices),
                           inertia=list(dquad.I_P.indices),
                           wild=[G.identity], residue_degree=2,
                           cot_generator=gen3,
                           cot_value=list(dquad.kP.digits(dquad.char[gen3])))]
    tame = [d for d in cover_geo.orbit_data if d.e == 2][:tame_orbits]
    for i, dtame in enumerate(tame):
        gen2 = next(s for s in dtame.I_P.indices
                    if G.element_order(s) == 2)
        data.append(abstract_datum(G, F, label=f"tame{i}",
                                   decomposition=list(dtame.G_P.indices),
                                   inertia=list(dtame.I_P.indices),
                                   wild=[G.identity], residue_degree=1,
                                   cot_generator=gen2,
                                   cot_value=[dtame.char[gen2]]))
    return G, F, cover_geo, dquad, data


def test_abstract_residual_degree_two():
    # feed the S3-over-GF(5) ramification data through the abstract
    # pipeline: the Galois-compatibility validation and the divisibility
    # certificates must both go through without any geometry
    G, F, cover_geo, dquad, data = s3_gf5_abstract_data(tame_orbits=2)
    assert len(data) == len(cover_geo.orbit_data) == 3
    cover = CoverData.from_abstract(G, F, 0, data, [2, 0, 0],
                                    random.Random(0))
    quad_abs = cover.orbit_data[0]
    assert quad_abs.f == 2
    for d in (1, 2):
        cert = divided_cover_class(cover, quad_abs, d)
        assert all(m % 2 == 0
                   for m in cert["head_multiplicities"].values())
    formula, _ = euler_class_integral(cover)
    rational = euler_class_rational(cover)
    assert rational == formula
    # same divisor through the oracle pipeline gives the same total dim
    oracle = oracle_euler_class(cover_geo, Divisor({dquad.place: 2}))
    assert total_dim(formula) == total_dim(oracle) == 5


def test_abstract_rejects_odd_riemann_hurwitz():
    # one of the two e=2 orbits alone leaves an odd Riemann-Hurwitz total
    G, F, _, _, data = s3_gf5_abstract_data(tame_orbits=1)
    with pytest.raises(InputError, match="odd"):
        CoverData.from_abstract(G, F, 0, data, [2, 0], random.Random(0))


def test_abstract_rejects_negative_genus():
    G, F, _, _, data = s3_gf5_abstract_data(tame_orbits=0)
    with pytest.raises(InputError, match="genus"):
        CoverData.from_abstract(G, F, 0, data, [0], random.Random(0))
