"""PGL2 groups read off their action on P^1.

FiniteGroup.close_generators composes the permutations that the elements
induce on P^1(k), against the products of pgl2_mul; SimpleRegistry writes
the simples of PGL2(GF(q)) down as Steinberg's tensor products of Frobenius
twists of Sym^a(V) (x) det^b, and chops them at a subgroup's own
generators, against the chop of the Sylow permutation module
(reptools.reference_saturation).  Every route must meet
BrauerCharacters.simple_count, the number of p-regular classes with the
class of g merged with that of g^q."""

import functools
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from equirr import cli, reps
from equirr.errors import Inconsistency
from equirr.fields import field_make
from equirr.groups import (FiniteGroup, _pgl2_table, pgl2_inv, pgl2_mul,
                           sylow_p)
from equirr.k0 import cartan_data
from equirr.reps import BrauerCharacters, SimpleRegistry, rep_restrict
from equirr.scenarios import build_group, parse_scenario, realize
from reptools import reference_saturation
from test_cartan import TABLES, cyclic
from test_extension_registry import end_dims
from test_induced_classes import NO_HOM_SCENARIOS


@functools.cache
def pgl2(p, n=1):
    """PGL2(GF(p^n)) from a translation, a scaling by a generator of
    GF(p^n)^* and x -> 1/x."""
    k = field_make(p, n)
    return FiniteGroup.close_generators(
        k, [(1, 1, 0, 1), (k.generator, 0, 0, 1), (0, 1, 1, 0)], cap=6000)


def pgl2_scenario_groups():
    """{id: group} for the PGL2 group of every shipped scenario and of
    every seed-0 workload pair, one entry per group, and PGL2(GF(7))."""
    out, seen = {}, set()
    for name, text in sorted(NO_HOM_SCENARIOS.items()):
        cfg = parse_scenario(text)
        if cfg.mode != "oracle":
            continue
        G = build_group(cfg, field_make(cfg.p, cfg.n))
        key = (G.field.q, tuple(G.labels))
        if key not in seen:
            seen.add(key)
            out[name] = G
    out["PGL2-GF7"] = pgl2(7)
    return out


PGL2_GROUPS = pgl2_scenario_groups()


@pytest.mark.parametrize("name", sorted(PGL2_GROUPS))
def test_the_permutation_table_is_the_product_table(name):
    G = PGL2_GROUPS[name]
    k = G.field
    assert G.kind == "pgl2"
    assert G.table == [[G.index[pgl2_mul(k, a, b)] for b in G.labels]
                       for a in G.labels]
    assert [G.labels[i] for i in G.inverse] == [pgl2_inv(k, a)
                                                for a in G.labels]


def test_the_scenario_groups_cover_the_workload_groups():
    # the translations of GF(3) and GF(9), the Kummer group over GF(13),
    # S3 over GF(5), PGL2(GF(3)), PGL2(GF(5)), AGL1(GF(11)) and PGL2(GF(7))
    orders = sorted((G.field.q, G.order) for G in PGL2_GROUPS.values())
    assert (3, 24) in orders and (5, 120) in orders and (11, 110) in orders
    assert (7, 336) in orders and (9, 9) in orders and (13, 12) in orders


def test_a_product_outside_the_labels_raises():
    # a label list that is no group: the table lookup of a generator's
    # product finds no element
    k = field_make(5, 1)
    labels = sorted([(1, 0, 0, 1), (1, 1, 0, 1)])
    steps = {(1, 0, 0, 1): None, (1, 1, 0, 1): ((1, 0, 0, 1), 0)}
    with pytest.raises(Inconsistency):
        _pgl2_table(k, labels, [(1, 1, 0, 1)], steps)


def assert_same_registry(reg, ref):
    G, F = reg.group, reg.field
    assert reg.vectors == ref.vectors
    assert [S.dim for S in reg.simples] == [S.dim for S in ref.simples]
    assert end_dims(reg) == end_dims(ref)
    assert cartan_data(G, F, reg).matrix == cartan_data(G, F, ref).matrix
    assert len(reg) == reg.brauer.simple_count


def steinberg_dims(p, n):
    """dim of (x)_i Sym^(a_i)(V)^[p^i] (x) det^b over the (a, b) with
    a + 2b = 0 mod q - 1, in increasing order."""
    q = p ** n
    return sorted(math.prod(d + 1 for d in digits)
                  for digits in itertools.product(range(p), repeat=n)
                  for b in range(q - 1)
                  if (sum(d * p ** i for i, d in enumerate(digits)) + 2 * b)
                  % (q - 1) == 0)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2),
                                 (2, 3), (3, 2)],
                         ids=["GF2", "GF3", "GF5", "GF7", "GF4", "GF8",
                              "GF9"])
def test_steinberg_equals_the_chop(monkeypatch, p, n):
    # all of PGL2(GF(q)) files Steinberg's modules as they stand, and they
    # are the simples that the chop of Ind_P^G(k) finds, in the same order
    # with the same End dims: a Frobenius twist dropped, or a + 2b read
    # mod p - 1, breaks this for n > 1
    G, F = pgl2(p, n), field_make(p, n)
    q = p ** n
    assert G.order == q * (q * q - 1)
    chopped = []
    real = reps.chop
    monkeypatch.setattr(reps, "chop",
                        lambda *a: chopped.append(a[0].dim) or real(*a))
    reg = SimpleRegistry(G, F)
    assert [S.dim for S in reg.simples] == steinberg_dims(p, n)
    assert chopped == []
    monkeypatch.setattr(reps, "chop", real)
    assert_same_registry(reg, reference_saturation(G, F, 1))


def test_steinberg_meets_the_count_over_gf16():
    # PGL2(GF(16)), order 4080: its 16 simples, of dims 1 up to 16, with
    # distinct Brauer vectors, and no chop (the chop of Ind_P^G(k), of dim
    # 255, is the reference only up to GF(9))
    G, F = pgl2(2, 4), field_make(2, 4)
    assert G.order == 4080
    reg = SimpleRegistry(G, F)
    assert len(reg) == reg.brauer.simple_count == 16
    assert len(set(reg.vectors)) == 16
    assert [S.dim for S in reg.simples] == steinberg_dims(2, 4)


def alternating4_in_pgl2_gf5(G):
    """An A4 of PGL2(GF(5)) = S5: the first subgroup generated by an
    element of order 3 and one of order 2 that has order 12 and eight
    elements of order 3."""
    threes = [g for g in range(G.order) if G.element_order(g) == 3]
    twos = [g for g in range(G.order) if G.element_order(g) == 2]
    for x in threes:
        for y in twos:
            H = G.closure([x, y])
            if len(H) == 12 and sum(G.element_order(h) == 3
                                    for h in H) == 8:
                return G.subgroup(H)
    raise AssertionError("no A4 in PGL2(GF(5))")


@pytest.mark.parametrize("p,name", [(3, "D8"), (5, "A4")])
def test_the_restricted_registry_equals_the_chop(monkeypatch, p, name):
    # a subgroup chops the Steinberg modules of its root written at its own
    # generators, which are their restrictions, and saturates no other
    # registry on the way
    G, F = pgl2(p), field_make(p, 1)
    H = sylow_p(G, 2) if name == "D8" else alternating4_in_pgl2_gf5(G)
    assert H.order == {"D8": 8, "A4": 12}[name]
    saturated = []
    real = SimpleRegistry._saturate
    monkeypatch.setattr(SimpleRegistry, "_saturate",
                        lambda self: saturated.append(self) or real(self))
    reg = SimpleRegistry(H, F)
    reg.simples
    assert saturated == [reg]
    for S, R in zip(reps._steinberg_simples(H, F),
                    reps._steinberg_simples(G, F)):
        assert S.generator_images() == rep_restrict(R, H).generator_images()
    monkeypatch.setattr(SimpleRegistry, "_saturate", real)
    assert_same_registry(reg, reference_saturation(H, F, 1))


# q -> PGL2(GF(q)) for the subgroups drawn below
SUBGROUP_ROOTS = {4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from(sorted(SUBGROUP_ROOTS)), data=st.data())
def test_a_drawn_subgroup_registry_equals_the_chop(q, data):
    # the subgroup generated by two drawn elements of order 2 or 3 of
    # PGL2(GF(q)): a closed form, all of PGL2(GF(q)) or, about half the
    # time, a chop of the Steinberg modules (Klein four groups, dihedral
    # groups, A4, S4, A5, PSL2(GF(7)), PSL2(GF(9)), ...), against the
    # chop of its own Ind_P^H(k)
    G, F = pgl2(*SUBGROUP_ROOTS[q]), field_make(*SUBGROUP_ROOTS[q])
    small = [g for g in range(G.order) if G.element_order(g) <= 3]
    drawn = data.draw(st.lists(st.sampled_from(small), min_size=2,
                               max_size=2))
    H = G.subgroup(G.closure(drawn))
    assert_same_registry(SimpleRegistry(H, F),
                         reference_saturation(H, F, 1))


# -- the simple count -----------------------------------------------------


def drop_last(build):
    return lambda *args: list(build(*args))[:-1]


def test_the_count_merges_g_with_its_qth_power():
    # over GF(2) an element of order 3 and its square are one class of
    # k-conjugacy: C3 and A4 have 3 classes of odd order and 2 simples
    for G in (cyclic(3), TABLES["A4"][0]()):
        brauer = BrauerCharacters(G, field_make(2, 1))
        assert len(brauer.orders) == 3 and brauer.simple_count == 2
        assert brauer.simple_count == len(
            SimpleRegistry(G, field_make(2, 1)))
    # over GF(4) they split
    assert BrauerCharacters(cyclic(3), field_make(2, 2)).simple_count == 3


def test_an_unmerged_count_fails_the_check(monkeypatch):
    monkeypatch.setattr(BrauerCharacters, "simple_count",
                        property(lambda self: len(self.orders)))
    with pytest.raises(Inconsistency, match="p-regular classes count 3"):
        SimpleRegistry(cyclic(3), field_make(2, 1)).simples


# route -> (its group and field, the function whose output loses its last
# simple)
DROPS = {
    "cyclic": (lambda: (cyclic(3), field_make(2, 1)),
               "_cyclic_simples"),
    "steinberg": (lambda: (pgl2(3), field_make(3, 1)),
                  "_steinberg_simples"),
    "induced-chop": (lambda: (TABLES["S4"][0](), field_make(2, 1)), "chop"),
}


@pytest.mark.parametrize("route", sorted(DROPS))
def test_a_dropped_simple_fails_the_count(monkeypatch, route):
    make, producer = DROPS[route]
    G, F = make()
    assert len(SimpleRegistry(G, F)) == BrauerCharacters(G, F).simple_count
    monkeypatch.setattr(reps, producer, drop_last(getattr(reps, producer)))
    with pytest.raises(Inconsistency, match="p-regular classes count"):
        SimpleRegistry(G, F).simples


def test_a_dropped_restriction_factor_fails_the_count(monkeypatch):
    # D8 over GF(3) meets its 5 simples only at the last of the four
    # Steinberg modules of PGL2(GF(3)) at its generators; losing every
    # factor of dim 2 loses one simple
    G, F = pgl2(3), field_make(3, 1)
    real = reps.chop
    monkeypatch.setattr(reps, "chop", lambda *a: [
        (T, U) for T, U in real(*a) if T.dim != 2])
    with pytest.raises(Inconsistency, match="count 5"):
        SimpleRegistry(sylow_p(G, 2), F).simples


def test_a_dropped_descended_simple_fails_the_count(monkeypatch):
    G = pgl2(3)
    base = SimpleRegistry(G, field_make(3, 1))
    real = SimpleRegistry._descend
    monkeypatch.setattr(SimpleRegistry, "_descend",
                        lambda self, brauer: dict(
                            list(real(self, brauer).items())[:-1]))
    with pytest.raises(Inconsistency, match="p-regular classes count"):
        SimpleRegistry.over_extension(G, field_make(3, 2), base).simples


# -- the order ladder -----------------------------------------------------


def test_pgl2_gf7_reports_keep_their_hashes():
    # PGL2(GF(7)), order 336, with every rational place at coefficient 1
    p = 7
    places = ["inf"] + [[(-b) % p, 1] for b in range(p)]
    doc = {"field": {"p": p, "n": 1},
           "group": {"kind": "pgl2", "p": p, "n": 1,
                     "generators": [[[1, 1], [0, 1]], [[3, 0], [0, 1]],
                                    [[0, 1], [1, 0]]]},
           "mode": "oracle", "divisors": [[[P, 1] for P in places]],
           "options": {"group_order_cap": 3000}}
    scn = realize(parse_scenario(json.dumps(doc)))
    assert scn.cover.G.order == 336
    hashes = {}
    for command in ("euler", "check"):
        report = cli.RUNNERS[command](scn)
        assert cli._exit_code(report) == 0
        hashes[command] = report["canonical_hash"]
    assert hashes == {
        "euler": "0d55ae0d4a8ac1ade838f247dffcd4e0"
                 "68188e5f75707941a6685d76a19a657f",
        "check": "27b9716c1124324ae1086993abe290d1"
                 "bf30b9a044a835cdd5adb968fb1554dd"}


def pgl2_report_hashes(p, n, order):
    """{command: canonical hash} of the euler and check reports of
    PGL2(GF(p^n)) with every rational place at coefficient 1."""
    k = field_make(p, n)
    places = ["inf"] + [[k.neg(b), 1] for b in range(k.q)]
    doc = {"field": {"p": p, "n": n},
           "group": {"kind": "pgl2", "p": p, "n": n,
                     "generators": [[[1, 1], [0, 1]],
                                    [[k.generator, 0], [0, 1]],
                                    [[0, 1], [1, 0]]]},
           "mode": "oracle", "divisors": [[[P, 1] for P in places]],
           "options": {"group_order_cap": 6000}}
    scn = realize(parse_scenario(json.dumps(doc)))
    assert scn.cover.G.order == order
    hashes = {}
    for command in ("check", "euler"):
        report = cli.RUNNERS[command](scn)
        assert cli._exit_code(report) == 0
        hashes[command] = report["canonical_hash"]
    return hashes


def test_pgl2_gf8_and_gf9_reports_keep_their_hashes():
    # the roots PGL2(GF(8)) and PGL2(GF(9)) chopped Ind_P^G(k) before
    # they took Steinberg's closed form; their reports did not move
    assert pgl2_report_hashes(2, 3, 504) == {
        "check": "2d63e69eee6360c516d34cc16b3f38c3"
                 "9c030600663609cbae9827d02db4658f",
        "euler": "637255de4dbd3524d4441f8c86bef1ac"
                 "10f4729771293a01ea49ace5d61b6597"}
    assert pgl2_report_hashes(3, 2, 720) == {
        "check": "5e3e248d7c44a5c0a069d75db3e735fd"
                 "dfc69a1f9ba0347a385bf73a769cc49a",
        "euler": "3be0cfef4481deaec784a7f43acd9803"
                 "81b13edec5874534dc950f1ff6835884"}
