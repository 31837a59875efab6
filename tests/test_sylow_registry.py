"""Registries saturated from the Sylow permutation module, and k[G]'s class
in closed form.

SimpleRegistry saturates a group over an abstract table by chopping
Ind_P^G(k) for a Sylow p-subgroup P, of dimension |G:P|: k[G] = Ind_P^G k[P]
has a filtration with |P| factors Ind_P^G(k), so every simple module is a
factor of it.  When P is normal and G/P is cyclic it writes the simples down
instead, and nothing is induced or chopped (test_cyclic_saturation compares
the two); a group over a PGL2 root takes Steinberg's modules
(test_pgl2_action compares them with this chop).  The tests' k[G]
(rep_regular) is the reference: counting its composition factors over a
saturated registry must hit every simple, and a factor that is no simple
of the registry raises.  The class of k[G] comes from
BrauerCharacters.regular_vector, with no matrix of dimension |G|, and must
equal the class read off k[G]'s matrices."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from equirr import reps
from equirr.fields import field_make
from equirr.groups import cyclic_quotient, sylow_p
from equirr.k0 import cartan_data
from equirr.matrices import Mat
from equirr.reps import SimpleRegistry
from equirr.scenarios import parse_scenario, realize
from reptools import (chop_class, chop_draws, is_normal, rep_regular,
                      total_dim)
from test_cartan import TABLES, cyclic, pgl2_gf3, translations_gf9
from test_induced_classes import load_perfbench
from test_extension_registry import (SCENARIO_DIR, SHIPPED, SMALL_GROUPS,
                                     dihedral)

BENCHMARK_CASES = [(pgl2_gf3, 3, 1), (pgl2_gf3, 3, 2),
                   (translations_gf9, 3, 2)]
BENCHMARK_IDS = ["PGL2-GF3", "PGL2-GF9", "T9-GF9"]


def p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def shipped_cover(name):
    return realize(parse_scenario((SCENARIO_DIR / name).read_text())).cover


def small_group(kind, n):
    return cyclic(n) if kind == "cyclic" else dihedral(n)


def assert_regular_module_hits_every_simple(G, F, seed=0):
    reg = SimpleRegistry(G, F)
    with chop_draws(seed):
        reg.simples
    v = chop_class(rep_regular(G, F), reg, random.Random(seed + 1))
    assert len(v.coeffs) == len(reg)
    assert all(c > 0 for c in v.coeffs)
    return reg, v


def assert_closed_form(G, F, seed=0):
    reg = SimpleRegistry(G, F)
    with chop_draws(seed):
        reg.simples
    R = rep_regular(G, F)
    assert reg.brauer.regular_vector() == reg.brauer.vector(R, [1])[0]
    assert reg.regular_class() == reg.class_of(R)
    assert total_dim(reg.regular_class()) == G.order


# -- completeness of the Sylow route ----------------------------------------


@pytest.mark.parametrize("make,p,n", BENCHMARK_CASES, ids=BENCHMARK_IDS)
def test_benchmark_groups_are_complete(make, p, n):
    assert_regular_module_hits_every_simple(make(), field_make(p, n))


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("p", [2, 3])
def test_table_groups_are_complete(name, p):
    assert_regular_module_hits_every_simple(TABLES[name][0](),
                                            field_make(p, 1))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenario_groups_are_complete(name):
    cover = shipped_cover(name)
    assert_regular_module_hits_every_simple(cover.G, cover.k)


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(SMALL_GROUPS), p=st.sampled_from([2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_small_groups_are_complete(group, p, seed):
    assert_regular_module_hits_every_simple(small_group(*group),
                                            field_make(p, 1), seed)


def saturation_chop_dims(monkeypatch, G, F):
    dims = []
    real = reps.chop

    def counted(*args):
        dims.append(args[0].dim)
        return real(*args)

    monkeypatch.setattr(reps, "chop", counted)
    SimpleRegistry(G, F).simples
    return dims


@pytest.mark.parametrize("make,p,n,chops", [
    (pgl2_gf3, 3, 1, False), (pgl2_gf3, 3, 2, False),
    (TABLES["S4"][0], 2, 1, True), (TABLES["A4"][0], 3, 1, True)],
    ids=BENCHMARK_IDS[:2] + ["S4-GF2", "A4-GF3"])
def test_wild_saturation_chops_the_sylow_permutation_module(monkeypatch,
                                                            make, p, n,
                                                            chops):
    # P is not normal in any of these groups.  PGL2(GF(3)), over its own
    # field or over GF(9), takes Steinberg's closed form: nothing is
    # induced or chopped, and its four simples are Sym^a(V) (x) det^b of
    # dims 1, 1, 3 and 3, absolutely simple (test_pgl2_action compares
    # them with this chop); the groups over an abstract table chop
    # Ind_P^G(k)
    G = make()
    assert G.order % p == 0
    P = sylow_p(G, p)
    assert not is_normal(P, G) and cyclic_quotient(G, P, p) is None
    induced = []
    real = reps.rep_induce
    monkeypatch.setattr(reps, "rep_induce",
                        lambda M, H: induced.append(M) or real(M, H))
    dims = saturation_chop_dims(monkeypatch, G, field_make(p, n))
    assert dims == ([G.order // p_part(G.order, p)] if chops else [])
    assert len(induced) == len(dims)
    if not chops:
        reg = SimpleRegistry(G, field_make(p, n))
        assert [S.dim for S in reg.simples] == [1, 1, 3, 3]


def test_tame_saturation_chops_the_regular_module(monkeypatch):
    # P = 1 and G = S3 is not cyclic: Ind_1^G(k) is k[G] in the coset
    # basis, on the same path
    G = dihedral(3)
    assert cyclic_quotient(G, sylow_p(G, 5), 5) is None
    assert saturation_chop_dims(monkeypatch, G, field_make(5, 1)) == [6]


@pytest.mark.parametrize("make,p,n", [
    (translations_gf9, 3, 2), (lambda: cyclic(7), 2, 1),
    (lambda: cyclic(12), 13, 1), (lambda: cyclic(12), 3, 1),
    (TABLES["A4"][0], 2, 1), (lambda: dihedral(4), 2, 1),
    (lambda: dihedral(3), 3, 1)],
    ids=["T9-GF9", "C7-GF2", "C12-GF13", "C12-GF3", "A4-GF2", "D8-GF2",
         "S3-GF3"])
def test_cyclic_quotient_saturates_without_a_chop(monkeypatch, make, p, n):
    # P is normal and G/P is cyclic: no module is induced or chopped
    G = make()
    P = sylow_p(G, p)
    assert is_normal(P, G) and cyclic_quotient(G, P, p) is not None
    induced = []
    real = reps.rep_induce
    monkeypatch.setattr(reps, "rep_induce",
                        lambda M, H: induced.append(M) or real(M, H))
    assert saturation_chop_dims(monkeypatch, G, field_make(p, n)) == []
    assert induced == []


def test_no_regular_size_matrix_in_saturation_or_cartan_data(monkeypatch):
    G, F = pgl2_gf3(), field_make(3, 1)
    sides = []
    real = Mat.__init__

    def recorded(self, field, a):
        real(self, field, a)
        if self.rows == self.cols:
            sides.append(self.rows)

    monkeypatch.setattr(Mat, "__init__", recorded)
    reg = SimpleRegistry(G, F)
    cd = cartan_data(G, F, reg)
    reg.regular_class()
    assert cd.size == len(reg) == 4
    assert sides and max(sides) < G.order


def test_the_tracer_sees_the_restriction_chops_and_one_gram_solve_each():
    # the benchmark tracer wraps the module-level reps.chop.  PGL2(GF(3))
    # takes Steinberg's closed form and chops nothing; its Sylow
    # 2-subgroup D8 chops the Steinberg modules at its own generators,
    # of dims 1, 1, 3 and 3, and needs all four to meet its count of 5
    # simples.  Each registry takes one Smith normal form, counted under
    # k0's import of it
    tracing = load_perfbench("tracing")
    G, F = pgl2_gf3(), field_make(3, 1)
    reg = SimpleRegistry(G, F)
    D8 = SimpleRegistry(sylow_p(G, 2), F)
    assert D8.group.order == 8
    tracer = tracing.Tracer()
    tracer.begin_pair("PGL2-GF3", 0, F.n)
    tracer.install()
    try:
        reg.regular_class()
        chops_of_the_root = len([s for s in tracer.spans
                                 if s[0] == "reps.chop"])
        D8.regular_class()
    finally:
        tracer.restore()
    assert chops_of_the_root == 0
    chops = [span for span in tracer.spans if span[0] == "reps.chop"]
    assert [(span[6], span[7]) for span in chops] == [
        (True, 1), (True, 1), (True, 3), (True, 3)]
    metrics = tracer.metrics(0)
    assert metrics["reps.chop.calls"] == 4
    assert metrics["reps.chop.dim_sum"] == 8
    assert metrics["k0.smith_normal_form.calls"] == 2
    assert len(reg) == 4 and len(D8) == 5


# -- k[G]'s Brauer vector and class in closed form -----------------------------


@pytest.mark.parametrize("make,p,n", BENCHMARK_CASES, ids=BENCHMARK_IDS)
def test_closed_form_on_benchmark_groups(make, p, n):
    assert_closed_form(make(), field_make(p, n))


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_on_table_groups(name, p):
    assert_closed_form(TABLES[name][0](), field_make(p, 1))


@pytest.mark.parametrize("name", SHIPPED)
def test_closed_form_on_shipped_groups(name):
    cover = shipped_cover(name)
    assert_closed_form(cover.G, cover.k)
    assert cover.registry.regular_class() == cover.registry.class_of(
        rep_regular(cover.G, cover.k))


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(SMALL_GROUPS), p=st.sampled_from([2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_on_small_groups(group, p, seed):
    assert_closed_form(small_group(*group), field_make(p, 1), seed)
