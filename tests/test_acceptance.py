"""Acceptance criteria A1-A9.

Every equality here is exact (integer composition-factor vectors, tolerance
zero).  Each check prints one pass line so a verbose run doubles as the
acceptance report."""

import random

import pytest

from equirr.engine import (CoverData, congruence_condition,
                           divided_cover_class, euler_class_integral,
                           euler_class_rational, euler_class_scaled,
                           euler_class_tame_mod_regular, oracle_euler_class,
                           ramification_class_routes, regular_multiple,
                           tame_structure_checks)
from equirr.errors import CapExceeded, InputError
from equirr.fields import Poly, field_make
from equirr.geometry import Divisor, P1Geometry, Place
from equirr.groups import FiniteGroup, Subgroup, sylow_p
from equirr.k0 import cartan_data, cartesian_check
from equirr.matrices import Mat
from equirr.reps import (SimpleRegistry, hom_dim, is_projective,
                         rep_direct_sum, rep_induce, rep_regular,
                         rep_restrict, rep_tensor, rep_trivial)
from equirr.scenarios import find_s3_pgl2
from reptools import chop_class, total_dim


def ok(criterion: str, detail: str):
    print(f"ACCEPT {criterion}: PASS  ({detail})")


def inf():
    return Place.infinity()


def lin(F, c):
    return Place(Poly(F, [F.neg(c), 1]), check=False)


# -- scenario catalog (session scope: registries are reused heavily) ----------


@pytest.fixture(scope="session")
def a1_covers():
    out = {}
    for p in (2, 3, 5):
        F = field_make(p, 1)
        G = FiniteGroup.close_generators(F, [(1, 1, 0, 1)])
        geo = P1Geometry(F, G)
        cover = CoverData.from_geometry(geo, random.Random(0))
        out[p] = (cover, [Divisor({inf(): p - 1})])
    return out


@pytest.fixture(scope="session")
def a2_covers():
    out = {}
    for q, m in [(7, 3), (5, 4), (7, 6)]:
        F = field_make(q, 1)
        zeta = F.pow_(F.generator, (q - 1) // m)
        G = FiniteGroup.close_generators(F, [(zeta, 0, 0, 1)])
        geo = P1Geometry(F, G)
        cover = CoverData.from_geometry(geo, random.Random(0))
        x0 = Place(Poly(F, [0, 1]), check=False)
        divisors = [
            Divisor({inf(): -1}),
            Divisor({}),
            Divisor({x0: 1}),
            Divisor({x0: m - 1, inf(): m - 1}),
            Divisor({x0: -1, inf(): 4}),
            Divisor({x0: 4, inf(): 6}),
        ]
        out[(q, m)] = (cover, [D for D in divisors if D.degree() <= 10])
    return out


@pytest.fixture(scope="session")
def a3_cover():
    F = field_make(5, 1)
    gens = find_s3_pgl2(F)  # rejected with an InputError if absent
    G = FiniteGroup.close_generators(F, gens)
    geo = P1Geometry(F, G)
    cover = CoverData.from_geometry(geo, random.Random(0))
    quad = next(d.place for d in cover.orbit_data if d.e == 3)
    tame_orbit = geo.orbit_of_place(inf())
    divisors = [
        Divisor({}),
        Divisor({quad: 1}),
        Divisor({quad: 2}),
        Divisor({quad: 1, **{P: 1 for P in tame_orbit}}),
    ]
    return cover, divisors


@pytest.fixture(scope="session")
def a4_covers():
    out = {}
    for p in (3, 5):
        F = field_make(p, 1)
        G = FiniteGroup.close_generators(
            F, [(1, 1, 0, 1), (F.generator, 0, 0, 1)])
        assert G.order == p * (p - 1)
        geo = P1Geometry(F, G)
        cover = CoverData.from_geometry(geo, random.Random(0))
        rational = [lin(F, c) for c in range(p)]
        divisors = []
        for l in range(p - 1):
            for m in (-1, 0, 1):
                n_inf = (p - 1) + (l + m * (p - 1)) * p
                pad = max(0, -(-(-1 - n_inf) // p))  # smallest c: deg >= -1
                D = Divisor({inf(): n_inf, **{P: pad for P in rational}})
                if D.degree() >= -1:
                    divisors.append(D)
        out[p] = (cover, divisors)
    return out


# -- A1: wild weakly ramified towers ----------------------------------------------


def test_a1_wild_weakly_ramified(a1_covers):
    for p, (cover, divisors) in a1_covers.items():
        datum = cover.orbit_data[0]
        assert datum.place.is_infinity
        assert datum.filtration == [p, p, 1]
        routes = ramification_class_routes(cover)
        assert routes["inertia"].is_zero()
        assert routes["euler"].is_zero()
        D = divisors[0]
        oracle = oracle_euler_class(cover, D)
        formula, _ = euler_class_integral(cover, D)
        regular = cover.regular_class()
        assert oracle == formula == regular
        h0 = cover.geometry.rr_action_rep(D)
        assert is_projective(h0)
        ok("A1", f"p={p}: filtration [{p},{p},1], N=0 both routes, "
                 "oracle = formula = [k[G]], H0 projective")


# -- A2: tame Kummer covers ----------------------------------------------------------


def test_a2_tame_kummer(a2_covers):
    for (q, m), (cover, divisors) in a2_covers.items():
        routes = ramification_class_routes(cover)
        assert routes["consistent"]
        assert len(divisors) >= 5
        degs = sorted(D.degree() for D in divisors)
        assert degs[0] == -1 and degs[-1] == 10
        cd = cover.main_cartan()
        from equirr.k0 import in_cartan_image
        for D in divisors:
            oracle = oracle_euler_class(cover, D)
            formula, _ = euler_class_integral(cover, D)
            assert oracle == formula, f"(q,m)=({q},{m}), D={D!r}"
            assert in_cartan_image(oracle, cd)
        ok("A2", f"(q,m)=({q},{m}): N routes agree, {len(divisors)} "
                 "divisors deg -1..10 exact, Cartan membership holds")


# -- A3: residual degree 2 at a ramified place -----------------------------------------


def test_a3_f2_divisibility(a3_cover):
    cover, divisors = a3_cover
    datum = next(d for d in cover.orbit_data if d.e == 3)
    assert datum.f == 2 and datum.deg == 2
    for d in (1, 2):
        cert = divided_cover_class(cover, datum, d)
        assert all(mult % 2 == 0
                   for mult in cert["head_multiplicities"].values())
        checks = tame_structure_checks(cover, datum, d)
        assert checks["cover_equals_line"]
        assert checks["ind_res_multiplies"]
    count = 0
    for D in divisors:
        oracle = oracle_euler_class(cover, D)
        formula, _ = euler_class_integral(cover, D)
        rational = euler_class_rational(cover, D)
        assert oracle == formula == rational, f"D={D!r}"
        count += 1
    assert count >= 3
    ok("A3", f"e=3 f=2 place: divisibility certs d=1,2, structure "
             f"identities, {count} divisors oracle = integral = rational")


# -- A4: mixed wild and tame -------------------------------------------------------------


def test_a4_affine_mixed(a4_covers):
    for p, (cover, divisors) in a4_covers.items():
        dinf = next(d for d in cover.orbit_data if d.place == inf())
        assert dinf.e_w == p and dinf.e_t == p - 1
        assert dinf.filtration == [p * (p - 1), p, 1]
        routes = ramification_class_routes(cover)
        assert routes["consistent"]
        covered = set()
        for D in divisors:
            oracle = oracle_euler_class(cover, D)
            formula, _ = euler_class_integral(cover, D)
            assert oracle == formula, f"p={p}, D={D!r}"
            from equirr.engine import split_coefficient
            l, m = split_coefficient(D.coeff(inf()), p - 1, p)
            covered.add((l, m))
        assert {l for l, _ in covered} == set(range(p - 1))
        assert {m for _, m in covered} >= {-1, 0, 1}
        ok("A4", f"p={p}: e_w={p}, e_t={p - 1}, |G2|=1, "
                 f"{len(divisors)} divisors covering l=0..{p - 2}, "
                 "m=-1,0,1 exact; N routes agree")


# -- A5: the scaled identity everywhere ----------------------------------------------------


def test_a5_scaled_identity(a1_covers, a2_covers, a3_cover, a4_covers):
    total = 0
    catalog = []
    for p, (cover, divisors) in a1_covers.items():
        catalog.append((f"A1 p={p}", cover, divisors))
    for (q, m), (cover, divisors) in a2_covers.items():
        catalog.append((f"A2 ({q},{m})", cover, divisors))
    catalog.append(("A3", *a3_cover))
    for p, (cover, divisors) in a4_covers.items():
        catalog.append((f"A4 p={p}", cover, divisors))
    for label, cover, divisors in catalog:
        for D in divisors:
            rhs, C, _ = euler_class_scaled(cover, D)
            oracle = oracle_euler_class(cover, D)
            assert rhs == oracle.scale(cover.G.order), f"{label}, D={D!r}"
            assert isinstance(C, int)
            total += 1
    ok("A5", f"|G| * oracle = scaled RHS with integral C on {total} "
             "scenario/divisor pairs")


# -- A6: necessary direction of the projectivity theorem -----------------------------------


def test_a6_projectivity_necessary(a1_covers):
    for p in (3, 5):
        cover, _ = a1_covers[p]
        D = Divisor({inf(): p - 2})
        assert D.degree() > -2  # above 2g_X - 2
        assert not congruence_condition(cover, D)
        h0 = cover.geometry.rr_action_rep(D)
        assert not is_projective(h0)
        ok("A6", f"p={p}: D=(p-2)inf fails the congruence and H0 fails "
                 "Sylow-freeness")


# -- A7: the Cartesian diagram under scalar extension --------------------------------------


def test_a7_cartesian(a1_covers, a2_covers, a3_cover):
    jobs = []
    for p, (cover, divisors) in a1_covers.items():
        jobs.append((f"A1 p={p}", cover, divisors, True))
    for (q, m), (cover, divisors) in a2_covers.items():
        jobs.append((f"A2 ({q},{m})", cover, divisors[:3], False))
    cover3, div3 = a3_cover
    jobs.append(("A3", cover3, div3[:2], False))
    for label, cover, divisors, wild in jobs:
        k = cover.k
        k2 = field_make(k.p, 2 * k.n)
        reg2 = SimpleRegistry(cover.G, k2, cover.rng)
        cd = cover.main_cartan()
        cd2 = cartan_data(cover.G, k2, reg2)
        checked = 0
        for D in divisors:
            chi = oracle_euler_class(cover, D)
            agree, _, _ = cartesian_check(chi, cd, cd2)
            assert agree, f"{label}, D={D!r}"
            checked += 1
        triv = chop_class(rep_trivial(cover.G, k), cover.registry, cover.rng)
        agree, base, ext = cartesian_check(triv, cd, cd2)
        assert agree
        if wild:  # [trivial] over C_p is deliberately non-projective
            assert not base and not ext
        ok("A7", f"{label}: {checked} chi classes and the trivial class "
                 "transfer membership to the quadratic extension")


# -- A8: engine self-tests on seeded random batches ------------------------------------------


def _random_pool(rng):
    """Small deterministic pool of (group, field, reps) triples."""
    pool = []
    import itertools
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    s3 = [[idx[tuple(a[b[x]] for x in range(3))] for b in perms]
          for a in perms]
    for table, p in [([[0]], 3),
                     ([[(i + j) % 4 for j in range(4)] for i in range(4)], 2),
                     (s3, 3), (s3, 5),
                     ([[(i + j) % 6 for j in range(6)] for i in range(6)], 5)]:
        G = FiniteGroup.from_table(table)
        F = field_make(p, 1)
        base = [rep_trivial(G, F), rep_regular(G, F)]
        pool.append((G, F, base))
    return pool


def test_a8_chop_reassembly_and_additivity():
    rng = random.Random(2024)
    pool = _random_pool(rng)
    registries = {}
    reassembled = 0
    additive = 0
    while reassembled < 100 or additive < 100:
        G, F, base = pool[rng.randrange(len(pool))]
        key = (id(G), id(F))
        registries.setdefault(key, SimpleRegistry(G, F, rng))
        reg = registries[key]
        a, b = rng.choice(base), rng.choice(base)
        if rng.random() < 0.4 and a.dim * b.dim <= 36:
            a = rep_tensor(a, b)
        va = chop_class(a, reg, rng)  # reassembly asserted inside chop
        assert total_dim(va) == a.dim
        reassembled += 1
        s = rep_direct_sum(a, b)
        assert chop_class(s, reg, rng) == va + chop_class(b, reg, rng)
        additive += 1
    ok("A8", f"chop reassembly x{reassembled}, additivity x{additive}")


def test_a8_frobenius_reciprocity():
    rng = random.Random(77)
    import itertools
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    s3 = [[idx[tuple(a[b[x]] for x in range(3))] for b in perms]
          for a in perms]
    G = FiniteGroup.from_table(s3)
    count = 0
    for p in (2, 3, 5):
        F = field_make(p, 1)
        reg_g = rep_regular(G, F)
        subgroups = [Subgroup(G, [G.identity]), sylow_p(G, 2),
                     sylow_p(G, 3), Subgroup(G, range(6), check=False)]
        for H in subgroups:
            Hg = H.as_group()
            pool_h = [rep_trivial(Hg, F), rep_regular(Hg, F),
                      rep_restrict(reg_g, H)]
            pool_g = [rep_trivial(G, F), reg_g,
                      rep_direct_sum(rep_trivial(G, F), reg_g)]
            for M in pool_h:
                for N in pool_g:
                    lhs = hom_dim(rep_induce(M, G, H), N)
                    rhs = hom_dim(M, rep_restrict(N, H))
                    assert lhs == rhs
                    count += 1
    assert count >= 100
    ok("A8", f"Frobenius reciprocity dimension identity x{count}")


def test_a8_cayley_hamilton():
    rng = random.Random(4096)
    count = 0
    for p, n in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]:
        F = field_make(p, n)
        for _ in range(20):
            d = rng.randrange(1, 8)
            m = Mat.from_rows(F, [[F.rand_elem(rng) for _ in range(d)]
                                  for _ in range(d)])
            assert m.eval_poly(m.charpoly()).is_zero()
            count += 1
    assert count >= 100
    ok("A8", f"Cayley-Hamilton x{count}")


def test_a8_riemann_hurwitz_random_groups():
    rng = random.Random(31337)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 3000, "random group generation stalled"
        p = rng.choice([2, 3, 5, 7])
        F = field_make(p, 1)
        mats = []
        for _ in range(rng.randrange(1, 3)):
            raw = tuple(rng.randrange(p) for _ in range(4))
            try:
                from equirr.groups import pgl2_normalize
                mats.append(pgl2_normalize(F, raw))
            except InputError:
                continue
        if not mats:
            continue
        try:
            G = FiniteGroup.close_generators(F, mats, cap=60)
        except (CapExceeded, InputError):
            continue
        geo = P1Geometry(F, G)
        rh = geo.riemann_hurwitz()
        assert rh["pass"], (p, mats, rh)
        done += 1
    ok("A8", f"Riemann-Hurwitz audit x{done} random PGL2 actions")


# -- A9: tame variant against the integral formula ---------------------------------------------


def test_a9_tame_variant(a2_covers, a3_cover):
    jobs = [(f"A2 ({q},{m})", cover, divisors)
            for (q, m), (cover, divisors) in a2_covers.items()]
    jobs.append(("A3", *a3_cover))
    total = 0
    for label, cover, divisors in jobs:
        for D in divisors:
            rhs = euler_class_tame_mod_regular(cover, D)
            reference, _ = euler_class_integral(cover, D)
            congruent, mult = regular_multiple(cover, reference - rhs)
            assert congruent, f"{label}, D={D!r}"
            total += 1
    ok("A9", f"tame variant congruent to the integral formula mod "
             f"[k[G]] on {total} pairs, multiples reported exactly")
