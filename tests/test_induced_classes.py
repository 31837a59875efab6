"""Induced classes without induced modules.

The engine reads the head multiplicities of each induced cover
Ind_{I_P}^{G_P} Cov off Frobenius reciprocity on the tame complement, the
class of each induced cover off the induction of the cotangent power from
that complement, and the Brauer vector of every induced module off the
cycles of the group's generators on the cosets.  Here they are compared
with the routes they replace: Hom systems into the simples
(reptools.head_multiplicities), the projective cover over the inertia
group as a module (reptools.projective_cover_over_inertia) and the Brauer
vector of rep_induce's block matrices."""

import functools
import importlib.util
import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equirr import cli, engine, reps
from equirr.errors import Inconsistency, InputError
from equirr.fields import field_make
from equirr.groups import FiniteGroup, cyclic_quotient, sylow_p
from equirr.reps import (Rep, SimpleRegistry, rep_induce, rep_restrict,
                         spin_columns)
from equirr.scenarios import parse_scenario, realize
from reptools import (basis_vector, class_of_induced, head_multiplicities,
                      inertia_cover, reference_induced_vector, rep_direct_sum,
                      rep_regular, split_on_submodule, twist_class)

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"
SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json")
                 if p.name != "golden.json")


def load_perfbench(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def workload_texts(names=("big-divisor", "big-group")):
    """Scenario text of each seed-0 scenario of the named workloads."""
    workloads = load_perfbench("workloads")
    out = {}
    for name in names:
        for pair in workloads.WORKLOADS[name](ROOT, 0):
            out[f"{name}/{pair.pair_id.rsplit(':', 1)[0]}"] = pair.scenario
    return out


def pgl2_gf7_text():
    """PGL2(GF(7)) with every rational place at coefficient 1."""
    places = ["inf"] + [[(-b) % 7, 1] for b in range(7)]
    return json.dumps({
        "field": {"p": 7, "n": 1},
        "group": {"kind": "pgl2", "p": 7, "n": 1,
                  "generators": [[[1, 1], [0, 1]], [[3, 0], [0, 1]],
                                 [[0, 1], [1, 0]]]},
        "mode": "oracle", "divisors": [[[P, 1] for P in places]],
        "seed": 0})


SCENARIOS = {**{name: (SCENARIO_DIR / name).read_text() for name in SHIPPED},
             **workload_texts()}


# the larger seed-0 workload groups, PGL2(GF(5)) and AGL1(GF(11)), for the
# tests that need no Hom system or induced module
FRONTIER = workload_texts(("order-frontier",))


@functools.cache
def scenario(name):
    text = (pgl2_gf7_text() if name == "pgl2_gf7"
            else {**SCENARIOS, **FRONTIER}[name])
    return realize(parse_scenario(text))


# -- head multiplicities by Frobenius reciprocity --------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS) + ["pgl2_gf7"])
def test_frobenius_heads_equal_the_hom_route(name):
    # one table per datum, row d for the twist d mod e_t: every row, the
    # twist 0 included, against Hom systems into the simples
    cover = scenario(name).cover
    for datum in cover.orbit_data:
        reg_p, _ = cover.registry_for(datum.G_P)
        heads = engine._frobenius_heads(cover, datum)
        assert [len(row) for row in heads] == [len(reg_p)] * datum.e_t
        for d, row in enumerate(heads):
            induced = rep_induce(inertia_cover(datum, -d), datum.G_P)
            assert dict(enumerate(row)) == head_multiplicities(induced, reg_p)


# -- the tame complement and the cover classes ------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS) + ["pgl2_gf7"])
def test_tame_complement_is_cyclic_of_order_e_t_and_meets_wild_trivially(
        name):
    cover = scenario(name).cover
    G = cover.G
    for datum in cover.orbit_data:
        C, c = cover.tame_complement(datum)
        assert C.root is G and 0 <= c < datum.I_P.order
        c_in_g = datum.I_P.positions_in(G)[c]
        assert G.element_order(c_in_g) == C.order == datum.e_t
        assert tuple(C.positions_in(G)) == G.closure([c_in_g])
        assert set(C.positions_in(G)) <= set(datum.I_P.positions_in(G))
        assert (set(C.positions_in(G)) & set(datum.wild.positions_in(G))
                == {G.identity})
        assert C.order * datum.wild.order == datum.I_P.order
        assert cover.tame_complement(datum)[0] is C


@pytest.mark.parametrize("name", sorted(SCENARIOS) + ["pgl2_gf7"])
def test_cover_classes_equal_the_module_reference(name):
    # every twist d in -e_t..2e_t: the class over G, the class over G_P
    # that the certificate divides by f, and the certificate's divided
    # class, against Ind of the module built on a searched complement
    cover = scenario(name).cover
    for datum in cover.orbit_data:
        gp = datum.G_P
        reg_p, _ = cover.registry_for(gp)
        for d in range(-datum.e_t, 2 * datum.e_t + 1):
            cov = inertia_cover(datum, d)
            assert cover.induced_cover_class(datum, d, cover.G) == \
                cover.registry.class_of(rep_induce(cov, cover.G))
            total = reg_p.class_of(rep_induce(cov, gp))
            assert cover.induced_cover_class(datum, d, gp) == total
            if datum.is_weak_here:
                divided = engine.divided_cover_class(cover, datum, -d)
                assert divided["class"].scale(datum.f) == total


@pytest.mark.parametrize("name",
                         sorted(SCENARIOS) + sorted(FRONTIER) + ["pgl2_gf7"])
def test_twist_tables_equal_the_per_twist_route(name):
    # every d in -e_t..2e_t over G and over G_P, and the fiber table over
    # G, against the class of the d-th cotangent power built as its own
    # module and induced alone
    cover = scenario(name).cover
    for datum in cover.orbit_data:
        for d in range(-datum.e_t, 2 * datum.e_t + 1):
            for group in (cover.G, datum.G_P):
                assert (cover.induced_cover_class(datum, d, group)
                        == twist_class(cover, datum, d, group)), (group, d)
            assert cover.induced_fiber_class(datum, d) == class_of_induced(
                cover.registry, datum.cotangent_power(d)), d


@pytest.mark.parametrize("name", sorted(n for n in SCENARIOS
                                        if "abstract" not in n)
                         + sorted(FRONTIER) + ["pgl2_gf7"])
def test_line_tables_equal_the_per_twist_lines(name):
    # the structure checks' tables at every tame place against the line
    # of each twist built as its own module
    cover = scenario(name).cover
    for datum in cover.orbit_data:
        if not datum.is_tame_here:
            continue
        reg_p, _ = cover.registry_for(datum.G_P)
        lines, backs = engine._line_tables(cover, datum)
        assert len(lines) == len(backs) == datum.e_t - 1
        for d in range(1, datum.e_t):
            line = datum.decomposition_line_rep(-d)
            assert lines[d - 1] == reg_p.class_of(line), d
            assert backs[d - 1] == class_of_induced(
                reg_p, rep_restrict(line, datum.I_P)), d


def test_a_wrong_frobenius_count_fails_the_cartan_comparison(
        monkeypatch, capsys):
    # one head of the twist 1 off by one: twist 0 passes, twist 1 fails
    real = engine._frobenius_heads

    def off_by_one(cover, datum):
        heads = real(cover, datum)
        heads[1][0] += 1
        return heads

    monkeypatch.setattr(engine, "_frobenius_heads", off_by_one)
    path = SCENARIO_DIR / "a3_s3_gf5.json"
    scn = realize(parse_scenario(path.read_text()))
    with pytest.raises(Inconsistency, match="twist 1 are not the Cartan "
                                            "coordinates"):
        cli.run_check(scn)
    assert cli.main(["suite", str(path)]) == 3
    out = capsys.readouterr().out
    assert "a3_s3_gf5.json check: INCONSISTENCY (head multiplicities" in out


def suite_line(capsys, name, command):
    """The line that `equirr suite` prints for one scenario and command,
    after a suite run over that scenario that must exit 3."""
    assert cli.main(["suite", str(SCENARIO_DIR / name)]) == 3
    prefix = f"{name} {command}: "
    return next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith(prefix))[len(prefix):]


def test_a_non_integral_head_names_the_place_the_twist_and_the_simple(
        monkeypatch, capsys):
    # a2's data share the registry of G = C3, whose simples are lines: the
    # heads of each twist are one unit row.  Doubling dim End(S_j) after
    # the Cartan data are built, for the S_j that heads the twist 1 at the
    # first place, leaves the twist 0 integral and breaks the twist 1
    name = "a2_kummer_gf7_m3.json"
    cover = scenario(name).cover
    datum = cover.orbit_data[0]
    heads = engine._frobenius_heads(cover, datum)
    j = heads[1].index(1)
    assert heads[0][j] == 0
    real = engine.cartan_data

    def doubled(G, k, reg):
        cd = real(G, k, reg)
        reg._end_dims[j] *= 2
        return cd

    monkeypatch.setattr(engine, "cartan_data", doubled)
    expected = (f"head multiplicity of simple {j} at place {datum.place!r}, "
                "twist 1 is not integral")
    scn = realize(parse_scenario(SCENARIOS[name]))
    with pytest.raises(Inconsistency, match=re.escape(expected)):
        cli.run_check(scn)
    assert suite_line(capsys, name, "check") == (
        f"INCONSISTENCY ({expected}: Hom dimension 1 over dim End = 2)")


def corrupt_the_f2_certificate(monkeypatch, delta):
    """At a3's place of residue degree f = 2, where G_P = G: the class X_1
    of the twist 1 gets delta(X_1) more copies of S_0, the Cartan inverse
    of G becomes W = f L I, and the heads are f X, so the Cartan
    comparison and the divisibility of the heads by f both pass whatever
    X is.  Returns the place."""
    cover = scenario("a3_s3_gf5.json").cover
    place = next(datum.place for datum in cover.orbit_data
                 if datum.f == 2)
    real_class = engine.CoverData.induced_cover_class
    real_cartan, real_heads = engine.cartan_data, engine._frobenius_heads

    def induced_cover_class(self, datum, d, group):
        v = real_class(self, datum, d, group)
        if datum.f == 2 and group is datum.G_P and d % datum.e_t == 2:
            v = v + basis_vector(v.registry, 0, delta(v))
        return v

    def cartan_data(G, k, reg):
        cd = real_cartan(G, k, reg)
        if G is G.root:
            s, L = cd.size, cd.inverse[1]
            cd.inverse = ([[2 * L * (i == j) for j in range(s)]
                           for i in range(s)], L)
        return cd

    def heads(cover, datum):
        if datum.f != 2:
            return real_heads(cover, datum)
        return [[2 * c for c in cover.induced_cover_class(datum, -d,
                                                          datum.G_P).coeffs]
                for d in range(datum.e_t)]

    monkeypatch.setattr(engine.CoverData, "induced_cover_class",
                        induced_cover_class)
    monkeypatch.setattr(engine, "cartan_data", cartan_data)
    monkeypatch.setattr(engine, "_frobenius_heads", heads)
    return place


def test_a_non_integral_divided_class_names_the_place_and_the_twist(
        monkeypatch, capsys):
    # one more copy of S_0 in X_1: f = 2 no longer divides it
    place = corrupt_the_f2_certificate(monkeypatch, lambda v: 1)
    scn = realize(parse_scenario(SCENARIOS["a3_s3_gf5.json"]))
    expected = (f"divided cover class is not integral at place {place!r}, "
                "twist 1: simple 0 has multiplicity")
    with pytest.raises(Inconsistency, match=re.escape(expected)):
        cli.run_check(scn)
    assert suite_line(capsys, "a3_s3_gf5.json", "check").startswith(
        f"INCONSISTENCY ({expected}")


def test_a_divided_class_off_the_projectives_names_the_place_and_the_twist(
        monkeypatch, capsys):
    # X_1 with -2 copies of S_0: divisible by f = 2, but its Cartan
    # coordinate under W = f L I is -2
    place = corrupt_the_f2_certificate(monkeypatch,
                                       lambda v: -v.coeffs[0] - 2)
    scn = realize(parse_scenario(SCENARIOS["a3_s3_gf5.json"]))
    expected = ("divided cover class is not a projective class at place "
                f"{place!r}, twist 1: the coordinate of the projective cover "
                "of simple 0 is -2")
    with pytest.raises(Inconsistency, match=re.escape(expected)):
        cli.run_check(scn)
    assert suite_line(capsys, "a3_s3_gf5.json", "check") == (
        f"INCONSISTENCY ({expected})")


def seed0_pair_scenarios():
    """Scenario text of every shipped scenario and of every seed-0 euler
    and check pair of the golden-suite, big-divisor, big-group and
    order-frontier workloads, one entry per distinct text."""
    workloads = load_perfbench("workloads")
    out = {name: (SCENARIO_DIR / name).read_text() for name in SHIPPED}
    seen = [json.loads(text) for text in out.values()]
    for name in ("golden-suite", "big-divisor", "big-group",
                 "order-frontier"):
        for pair in workloads.WORKLOADS[name](ROOT, 0):
            doc = json.loads(pair.scenario)
            if pair.command in ("euler", "check") and doc not in seen:
                seen.append(doc)
                out[f"{name}/{pair.pair_id.rsplit(':', 1)[0]}"] = \
                    pair.scenario
    return out


NO_HOM_SCENARIOS = seed0_pair_scenarios()


# seed-0 scenarios with a registry whose Sylow p-subgroup is not normal or
# has a quotient that is not cyclic: PGL2(GF(3)) and its D8, S3 over
# GF(5), PGL2(GF(5)) and its A4; every other registry takes the closed form
STILL_CHOPS = {"a3_s3_gf5.json", "big-group/s0:pgl2_gf3",
               "order-frontier/s0:pgl2_gf5"}


def takes_the_closed_form(registry):
    p = registry.field.p
    return cyclic_quotient(registry.group, sylow_p(registry.group, p),
                           p) is not None


@pytest.mark.parametrize("name", sorted(NO_HOM_SCENARIOS))
def test_euler_and_check_solve_no_hom_system(monkeypatch, name):
    # dim End(S) is read off the Norton kernel of the saturation chop, or
    # off the identity for a simple in closed form, so neither command
    # builds a Hom system; each End dim is computed once, for a simple of
    # a saturated registry.  A registry over k chops Ind_P^G(k) exactly
    # when P is not normal or G/P is not cyclic, and that module is the
    # only one induced; no extension registry here has a simple to chop
    tracing = load_perfbench("tracing")
    saturated = []
    real_saturate = reps.SimpleRegistry._saturate

    def saturate(self):
        saturated.append(self)
        return real_saturate(self)

    ends = []
    real_end_dim = reps.end_dim_from_kernel

    def end_dim(S, U):
        ends.append(S)
        return real_end_dim(S, U)

    induced, chopped = [], []
    real_induce, real_chop = reps.rep_induce, reps.chop

    def induce(M, G):
        induced.append(real_induce(M, G))
        return induced[-1]

    def chop(*args):
        chopped.append(args[0])
        return real_chop(*args)

    monkeypatch.setattr(reps.SimpleRegistry, "_saturate", saturate)
    monkeypatch.setattr(reps, "end_dim_from_kernel", end_dim)
    monkeypatch.setattr(reps, "rep_induce", induce)
    monkeypatch.setattr(reps, "chop", chop)
    scn = realize(parse_scenario(NO_HOM_SCENARIOS[name]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = [cli.run_euler(scn), cli.run_check(scn)]
    finally:
        tracer.restore()
    assert [cli._exit_code(report) for report in reports] == [0, 0]
    layers = {span[0] for span in tracer.spans}
    assert "k0.cartan_data" in layers
    assert "reps.hom_space" not in layers
    simples = [S for reg in saturated for S in reg.simples]
    assert ends and len({id(S) for S in ends}) == len(ends)
    assert {id(S) for S in ends} <= {id(S) for S in simples}
    chopping = [reg for reg in saturated
                if reg.base is None and not takes_the_closed_form(reg)]
    assert bool(chopping) == (name in STILL_CHOPS)
    assert ("reps.chop" in layers) == bool(chopping)
    assert [(M.group, M.dim) for M in chopped] == [
        (reg.group, reg.group.order // sylow_p(reg.group, reg.field.p).order)
        for reg in chopping]
    assert [id(M) for M in induced] == [id(M) for M in chopped]


@pytest.mark.parametrize("name", ["a2_kummer_gf7_m3.json", "a3_s3_gf5.json",
                                  "a4_affine_gf3.json",
                                  "big-divisor/s0:kummer_gf13"])
def test_no_induced_module_outside_saturation_and_the_small_covers(
        monkeypatch, name):
    # the one induced module is the source of a saturation chop, which
    # only S3 over GF(5) needs here (every registry of the other three
    # takes the closed form), and projectivity is tested only on the
    # Riemann-Roch modules of the verdicts
    callers = {"rep_induce": [], "is_projective": []}
    for fn in callers:
        real = getattr(reps, fn)

        def recorded(*args, _real=real, _log=callers[fn], **kwargs):
            _log.append(sys._getframe(1).f_code.co_name)
            return _real(*args, **kwargs)
        for owner in (reps, engine):
            if hasattr(owner, fn):
                monkeypatch.setattr(owner, fn, recorded)
    for command in ("euler", "check"):
        scn = realize(parse_scenario(SCENARIOS[name]))
        assert cli._exit_code(cli.RUNNERS[command](scn)) == 0
    assert set(callers["rep_induce"]) == (
        {"_saturate"} if name in STILL_CHOPS else set())
    assert set(callers["is_projective"]) == {"projectivity_report"}


# -- Brauer vectors of induced modules from coset cycles --------------------


def perm_table(perms):
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(len(a)))] for b in perms]
            for a in perms]


def is_even(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0


TABLES = {
    "C4": [[(i + j) % 4 for j in range(4)] for i in range(4)],
    "C6": [[(i + j) % 6 for j in range(6)] for i in range(6)],
    "S3": perm_table(itertools.permutations(range(3))),
    "C3xC3": [[3 * ((a // 3 + b // 3) % 3) + (a + b) % 3 for b in range(9)]
              for a in range(9)],
    "A4": perm_table(p for p in itertools.permutations(range(4))
                     if is_even(p)),
    "S4": perm_table(itertools.permutations(range(4))),
}
GROUP_FIELDS = [("C4", 2), ("C4", 3), ("C6", 2), ("C6", 3), ("S3", 2),
                ("S3", 3), ("S3", 5), ("C3xC3", 3), ("C3xC3", 2), ("A4", 2),
                ("A4", 3), ("S4", 2), ("S4", 3)]


@functools.cache
def table_group(name):
    return FiniteGroup.from_table(TABLES[name])


@functools.cache
def every_subgroup(name):
    """Every subgroup of the table group; all of them are 2-generated."""
    G = table_group(name)
    found = {G.closure([x, y]) for x in range(G.order)
             for y in range(x, G.order)}
    return [G.subgroup(idx) for idx in sorted(found)]


@functools.cache
def registry(name, p, H):
    """(registry of G, registry of its subgroup H) over GF(p)."""
    G = table_group(name)
    F = field_make(p, 1)
    return (SimpleRegistry(G, F),
            SimpleRegistry(H, F))


def assert_closed_form(reg_g, M):
    expected = reg_g.brauer.vector(rep_induce(M, reg_g.group), [1])[0]
    assert reg_g.brauer.vector(M, [1])[0] == expected
    assert class_of_induced(reg_g, M) == reg_g.class_of(
        rep_induce(M, reg_g.group))


def test_every_table_group_has_all_its_subgroups():
    assert [len(every_subgroup(n)) for n in TABLES] == [3, 4, 6, 6, 10, 30]
    assert all(table_group(n).order <= 24 for n in TABLES)


@pytest.mark.parametrize("name,p", GROUP_FIELDS,
                         ids=[f"{n}-GF{p}" for n, p in GROUP_FIELDS])
def test_induced_vector_of_every_simple_of_every_subgroup(name, p):
    for H in every_subgroup(name):
        reg_g, reg_h = registry(name, p, H)
        for S in reg_h.simples:
            assert_closed_form(reg_g, S)


def draw_subgroup_module(data, abelian=False):
    """(registry of G, registry of a subgroup H, module over H): a direct
    sum of simples
    or a submodule of k[H] spun from a random vector, which is a non-split
    extension where p divides |H|; H abelian when asked."""
    name, p = data.draw(st.sampled_from(GROUP_FIELDS))
    subgroups = [H for H in every_subgroup(name)
                 if not abelian or all(H.table[a][b] == H.table[b][a]
                                       for a in H.generators
                                       for b in H.generators)]
    H = data.draw(st.sampled_from(subgroups))
    reg_g, reg_h = registry(name, p, H)
    F = reg_h.field
    if data.draw(st.booleans()):
        picks = data.draw(st.lists(st.integers(0, len(reg_h) - 1),
                                   min_size=1, max_size=3))
        M = reg_h.simples[picks[0]]
        for i in picks[1:]:
            M = rep_direct_sum(M, reg_h.simples[i])
    else:
        R = rep_regular(H, F)
        v = data.draw(st.lists(st.integers(0, p - 1), min_size=R.dim,
                               max_size=R.dim))
        v[-1] = 1
        gens = R.generator_images()
        W = spin_columns(F, R.dim, [np.array(v, dtype=np.int64)], gens)
        M = R if W.cols == R.dim else split_on_submodule(R, W)[0]
    return reg_g, reg_h, M


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_induced_vector_of_random_subgroup_modules(data):
    reg_g, _, M = draw_subgroup_module(data)
    assert_closed_form(reg_g, M)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_induced_vector_of_exponent_1_is_the_walk_it_replaced(data):
    reg_g, _, M = draw_subgroup_module(data)
    assert (reg_g.brauer.vector(M, [1])
            == [reference_induced_vector(reg_g.brauer, M)])


def power_module(M: Rep, d: int) -> Rep:
    """M^(d), g -> M(g)^d, for M over an abelian group, built as a module
    and checked: each generator image to the power d mod its order."""
    H = M.group
    out = Rep(H, M.field, M.dim, {
        t: M.gen_image(t).pow_(d % H.element_order(g))
        for t, g in enumerate(H.generators)})
    out.check_homomorphism()
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_powers_of_a_module_of_an_abelian_subgroup(data):
    # vector over a list of exponents, on H and induced to G, against the
    # module M^(d) built for each d, restricted to H and induced to G
    reg_g, reg_h, M = draw_subgroup_module(data, abelian=True)
    exponents = data.draw(st.lists(st.integers(-13, 13), min_size=1,
                                   max_size=4))
    powers = [power_module(M, d) for d in exponents]
    assert reg_h.brauer.vector(M, exponents) == [
        reg_h.brauer.vector(N, [1])[0] for N in powers]
    assert reg_g.brauer.vector(M, exponents) == [
        reg_g.brauer.vector(rep_induce(N, reg_g.group), [1])[0]
        for N in powers]
    assert reg_g.classes_of([M], exponents) == [
        class_of_induced(reg_g, N) for N in powers]


@pytest.mark.parametrize("exponents", [[2], [1, -1], [0], [1, 3]])
def test_a_power_of_a_module_whose_images_do_not_commute_is_refused(
        exponents):
    # the 2-dimensional simple of S3 over GF(5): its images do not commute,
    # so only the exponent 1 names a module
    reg = registry("S3", 5, every_subgroup("S3")[0])[0]
    S = next(S for S in reg.simples if S.dim == 2)
    a, b = S.generator_images()
    assert a @ b != b @ a
    with pytest.raises(InputError, match="commuting generator images"):
        reg.brauer.vector(S, exponents)
    with pytest.raises(InputError, match="commuting generator images"):
        reg.classes_of([S], exponents)
    H = next(H for H in every_subgroup("S4") if H.order == 6)
    reg_s4, reg_h = registry("S4", 5, H)
    S_h = next(S for S in reg_h.simples if S.dim == 2)
    with pytest.raises(InputError, match="commuting generator images"):
        reg_s4.brauer.vector(S_h, exponents)
    with pytest.raises(InputError, match="commuting generator images"):
        reg_s4.classes_of([S_h], exponents)
    assert reg.brauer.vector(S, [1]) == [reg.vectors[-1]]


@pytest.mark.parametrize("name", sorted(SCENARIOS) + ["pgl2_gf7"])
def test_induced_vector_on_inertia_and_decomposition_groups(name):
    # every cover module and cotangent power from I_P to G and to G_P, and
    # every simple of G_P to G, as the engine induces them
    cover = scenario(name).cover
    for datum in cover.orbit_data:
        reg_p, _ = cover.registry_for(datum.G_P)
        for d in range(datum.e_t):
            for M in (inertia_cover(datum, d), datum.cotangent_power(d)):
                assert_closed_form(cover.registry, M)
                assert_closed_form(reg_p, M)
        for S in reg_p.simples:
            assert_closed_form(cover.registry, S)


def test_induced_vector_rejects_a_foreign_subgroup():
    reg_g, _ = registry("S3", 5, every_subgroup("S3")[1])
    other = every_subgroup("C6")[1]
    M = registry("C6", 5, other)[1].simples[0]
    with pytest.raises(InputError, match="different root groups"):
        reg_g.brauer.vector(M, [1])[0]


def subgroup_chains(name):
    """Every (H, K) of every_subgroup(name) with H <= K."""
    G = table_group(name)
    subs = every_subgroup(name)
    return [(H, K) for H in subs for K in subs
            if set(H.positions_in(G)) <= set(K.positions_in(G))]


@pytest.mark.parametrize("name,p", GROUP_FIELDS,
                         ids=[f"{n}-GF{p}" for n, p in GROUP_FIELDS])
def test_one_subgroup_type_over_every_chain(name, p):
    # H <= K <= G: one object per element set, positions that compose,
    # and induction in stages
    G = table_group(name)
    for H, K in subgroup_chains(name):
        in_k, in_g = H.positions_in(K), H.positions_in(G)
        assert K.subgroup(in_k) is G.subgroup(in_g) is H
        k_in_g = K.positions_in(G)
        assert in_g == [k_in_g[i] for i in in_k]
        reg_g, reg_h = registry(name, p, H)
        for S in reg_h.simples:
            assert (class_of_induced(reg_g, rep_induce(S, K))
                    == class_of_induced(reg_g, S))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_positions_in_rejects_a_foreign_or_smaller_group(name):
    G = table_group(name)
    chains = {(id(H), id(K)) for H, K in subgroup_chains(name)}
    other = table_group("C4" if name != "C4" else "C6")
    for H in every_subgroup(name):
        with pytest.raises(InputError, match="different root groups"):
            H.positions_in(other)
        for K in every_subgroup(name):
            if (id(H), id(K)) not in chains:
                with pytest.raises(InputError, match="not contained"):
                    H.positions_in(K)
    assert G.positions_in(G) == list(range(G.order))
