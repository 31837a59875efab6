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
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equirr import cli, engine, reps
from equirr.errors import Inconsistency, InputError
from equirr.fields import field_make
from equirr.groups import FiniteGroup, cyclic_quotient, sylow_p
from equirr.reps import SimpleRegistry, rep_induce, spin_columns
from equirr.scenarios import parse_scenario, realize
from reptools import (head_multiplicities, inertia_cover, rep_direct_sum,
                      rep_regular, split_on_submodule)

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


def workload_texts():
    """Scenario text of each seed-0 big-divisor and big-group scenario."""
    workloads = load_perfbench("workloads")
    out = {}
    for name in ("big-divisor", "big-group"):
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


@functools.cache
def scenario(name):
    text = pgl2_gf7_text() if name == "pgl2_gf7" else SCENARIOS[name]
    return realize(parse_scenario(text))


def twisted_data(cover):
    """(datum, d) for every ramified orbit and twist d = 1..e_t - 1."""
    return [(datum, d) for datum in cover.orbit_data
            for d in range(1, datum.e_t)]


# -- head multiplicities by Frobenius reciprocity --------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS) + ["pgl2_gf7"])
def test_frobenius_heads_equal_the_hom_route(name):
    cover = scenario(name).cover
    for datum, d in twisted_data(cover):
        reg_p, _ = cover.registry_for(datum.G_P)
        induced = rep_induce(inertia_cover(datum, -d), datum.G_P)
        assert (engine._frobenius_heads(cover, datum, d)
                == head_multiplicities(induced, reg_p))


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


def test_a_wrong_frobenius_count_fails_the_cartan_comparison(
        monkeypatch, capsys):
    real = engine._frobenius_heads

    def off_by_one(cover, datum, d):
        heads = real(cover, datum, d)
        return {**heads, 0: heads[0] + 1}

    monkeypatch.setattr(engine, "_frobenius_heads", off_by_one)
    path = SCENARIO_DIR / "a3_s3_gf5.json"
    scn = realize(parse_scenario(path.read_text()))
    with pytest.raises(Inconsistency, match="Cartan coordinates"):
        cli.run_check(scn)
    assert cli.main(["suite", str(path)]) == 3
    out = capsys.readouterr().out
    assert "a3_s3_gf5.json check: INCONSISTENCY (head multiplicities" in out


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

    def chop(M, rng):
        chopped.append(M)
        return real_chop(M, rng)

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
    return (SimpleRegistry(G, F, random.Random(1)),
            SimpleRegistry(H, F, random.Random(2)))


def assert_closed_form(reg_g, M):
    expected = reg_g.brauer.vector(rep_induce(M, reg_g.group))
    assert reg_g.brauer.induced_vector(M) == expected
    assert reg_g.class_of_induced(M) == reg_g.class_of(
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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_induced_vector_of_random_subgroup_modules(data):
    # direct sums of simples, and submodules of k[H] spun from a random
    # vector, which are non-split extensions where p divides |H|
    name, p = data.draw(st.sampled_from(GROUP_FIELDS))
    H = data.draw(st.sampled_from(every_subgroup(name)))
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
    assert_closed_form(reg_g, M)


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
        reg_g.brauer.induced_vector(M)


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
            assert (reg_g.class_of_induced(rep_induce(S, K))
                    == reg_g.class_of_induced(S))


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
