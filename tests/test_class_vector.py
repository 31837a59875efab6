"""Class vectors in integers.

A ClassVector coefficient is an int, or a Fraction when it is not
integral, never an integral Fraction.  Every operation must agree with
the same arithmetic done in Fractions, down to the JSON strings and the
hash.  The twist caches of CoverData are keyed by d mod e_t, which must
give the same classes as the modules of the unreduced twist."""

import functools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from equirr import cli, engine
from equirr.errors import InputError
from equirr.fields import field_make
from equirr.groups import FiniteGroup
from equirr.k0 import cartan_coordinates
from equirr.reps import ClassVector, SimpleRegistry, rep_induce
from equirr.scenarios import parse_scenario, realize
from reptools import basis_vector, inertia_cover, total_dim

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json")
                 if p.name != "golden.json")


@functools.cache
def registry():
    """PGL2(GF(3)) over GF(3): simples of dims 1, 1, 3, 3."""
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(1, 1, 0, 1), (2, 0, 0, 1),
                                         (0, 1, 1, 0)])
    return SimpleRegistry(G, F)


def no_integral_fraction(v: ClassVector) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in v.coeffs)


class Reference:
    """The same class with every coefficient a Fraction."""

    def __init__(self, coeffs):
        self.c = [Fraction(x) for x in coeffs]

    def to_json(self):
        dims = [S.dim for S in registry().simples]
        return [[i, dims[i], str(c)] for i, c in enumerate(self.c) if c != 0]


coefficient = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=6))
coefficients = st.lists(coefficient, min_size=4, max_size=4)


def agrees(v: ClassVector, ref: Reference) -> bool:
    reg = v.registry
    return (no_integral_fraction(v)
            and list(v.coeffs) == ref.c
            and v.to_json() == ref.to_json()
            and v == ClassVector(reg, ref.c)
            and hash(v) == hash((id(reg), tuple(ref.c)))
            and v.is_integral() == all(c.denominator == 1 for c in ref.c)
            and total_dim(v) == sum(c * S.dim
                                     for c, S in zip(ref.c, reg.simples)))


@settings(max_examples=150, deadline=None)
@given(a=coefficients, b=coefficients, k=st.integers(-7, 7),
       f=st.integers(1, 6))
def test_operations_match_fraction_arithmetic(a, b, k, f):
    reg = registry()
    u, v = ClassVector(reg, a), ClassVector(reg, b)
    ru, rv = Reference(a), Reference(b)
    assert agrees(u, ru) and agrees(v, rv)
    cases = [
        (u + v, [x + y for x, y in zip(ru.c, rv.c)]),
        (u - v, [x - y for x, y in zip(ru.c, rv.c)]),
        (-u, [-x for x in ru.c]),
        (u.scale(k), [x * k for x in ru.c]),
        (u.scale(Fraction(1, f)), [x / f for x in ru.c]),
        (u.scale(Fraction(f, 1)), [x * f for x in ru.c]),
        (u.scale(Fraction(1, f)).scale(f), ru.c),
    ]
    for got, want in cases:
        assert agrees(got, Reference(want))


def test_json_strings():
    v = ClassVector(registry(), [3, Fraction(-1, 2), Fraction(4, 2), 0])
    assert v.coeffs == (3, Fraction(-1, 2), 2, 0)
    assert [type(c) for c in v.coeffs] == [int, Fraction, int, int]
    assert v.to_json() == [[0, 1, "3"], [1, 1, "-1/2"], [2, 3, "2"]]
    assert not v.is_integral() and v.scale(2).is_integral()


def test_a_class_has_one_coefficient_per_simple():
    reg = registry()
    assert ClassVector(reg, [1, 0, 2, 0]).coeffs == (1, 0, 2, 0)
    for short in ([], [1], [1, 0, 2, 0, 0]):
        with pytest.raises(InputError, match="registry of 4 simples"):
            ClassVector(reg, short)
    assert reg.zero().coeffs == (0, 0, 0, 0)
    assert basis_vector(reg, 1, 3).coeffs == (0, 3, 0, 0)
    assert basis_vector(reg, 0) + basis_vector(reg, 3) == \
        ClassVector(reg, [1, 0, 0, 1])


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("command", ["euler", "check"])
def test_no_integral_fraction_in_shipped_runs(name, command, monkeypatch):
    made = []
    init = ClassVector.__init__

    def recording(self, registry, coeffs):
        init(self, registry, coeffs)
        made.append(self)

    monkeypatch.setattr(ClassVector, "__init__", recording)
    scn = realize(parse_scenario((SCENARIO_DIR / name).read_text()))
    getattr(cli, f"run_{command}")(scn)
    assert made
    assert all(no_integral_fraction(v) for v in made)


# -- exact regular multiples and Cartan coordinates ----------------------------


@functools.cache
def kummer():
    """The order-3 Kummer cover over GF(7): e_t = 3 at 0 and infinity."""
    return realize(parse_scenario(
        (SCENARIO_DIR / "a2_kummer_gf7_m3.json").read_text())).cover


def test_regular_multiple_is_exact():
    cover = kummer()
    reg = cover.registry.regular_class()
    ok, t = engine.regular_multiple(cover, reg.scale(3))
    assert (ok, t) == (True, 3) and type(t) is int
    assert engine.regular_multiple(cover, reg.scale(-2)) == (True, -2)
    off = reg.scale(3) + basis_vector(cover.registry, 0)
    assert engine.regular_multiple(cover, off) == (False, None)
    assert engine.regular_multiple(cover, reg.scale(Fraction(1, 2))) \
        == (False, None)


def test_cartan_coordinates_are_ints_where_integral():
    cd = kummer().main_cartan()
    for j, pim in enumerate(cd.pim_classes):
        x = cartan_coordinates(pim, cd)
        assert x == [int(i == j) for i in range(cd.size)]
        assert all(type(c) is int for c in x)
        half = cartan_coordinates(pim.scale(Fraction(1, 2)), cd)
        assert half[j] == Fraction(1, 2) and type(half[j]) is Fraction


# -- twist classes keyed by d mod e_t -------------------------------------------


@pytest.mark.parametrize("d", [-4, -1, 0, 1, 2, 5])
def test_twists_are_keyed_mod_e_t(d):
    cover = kummer()
    for datum in cover.orbit_data:
        e_t = datum.e_t
        assert e_t == 3
        for group in (cover.G, datum.G_P):
            vec = cover.induced_cover_class(datum, d, group)
            assert cover.induced_cover_class(datum, d + e_t, group) is vec
            assert cover.induced_cover_class(datum, d - e_t, group) is vec
        fiber = cover.induced_fiber_class(datum, d)
        assert cover.induced_fiber_class(datum, d + e_t) is fiber
        assert cover.induced_fiber_class(datum, d - e_t) is fiber
        fresh_ind = cover.registry.class_of(
            rep_induce(inertia_cover(datum, d + e_t), cover.G))
        assert cover.induced_cover_class(datum, d + e_t, cover.G) == fresh_ind
        fresh_fiber = cover.registry.class_of(
            rep_induce(datum.cotangent_power(d + e_t), cover.G))
        assert cover.induced_fiber_class(datum, d + e_t) == fresh_fiber
