"""The registry over GF(q^r) by Galois descent from the base simples.

SimpleRegistry.over_extension files S (x) k' as it stands for each simple
S over k whose e = dim End(S) has gcd(e, r) = 1, and chops only the
others, into gcd(e, r) Galois conjugates checked for their dims and End
dims; it never chops k'[G].  The direct route, a registry over k'
saturated on its own (from its own chop, or in closed form for a normal
Sylow subgroup with a cyclic quotient), is the reference: both routes
must find the
same simples in the same order, with the same dim End(S) and the same
Cartan matrix.  The descent map k0.beta_vector must equal the class of
each S (x) k' solved simple by simple (reptools.reference_beta)."""

import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from equirr import reps
from equirr.errors import CapExceeded, Inconsistency, InputError
from equirr.fields import field_make
from equirr.groups import FiniteGroup
from equirr.k0 import beta_vector, cartan_data
from equirr.reps import ClassVector, SimpleRegistry
from equirr.scenarios import parse_scenario, realize
from reptools import basis_vector, chop_draws, reference_beta
from test_cartan import TABLES, cyclic, pgl2_gf3, translations_gf9

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json")
                 if p.name != "golden.json")


def dihedral(n):
    """The dihedral group of order 2n; element i + n j is r^i s^j."""
    def mul(a, b):
        i, j = a % n, a // n
        k, l = b % n, b // n
        return (i + (-1) ** j * k) % n + n * ((j + l) % 2)
    return FiniteGroup.from_table([[mul(a, b) for b in range(2 * n)]
                                   for a in range(2 * n)])


def end_dims(registry):
    return [registry.end_dim(i) for i in range(len(registry))]


def assert_routes_agree(G, F, F2, seed=0, classes=()):
    """The descent registry over F2 equals the one saturated from its own
    chop, and beta_vector equals reference_beta on every basis class and
    on each class in `classes` (coefficient lists over the base)."""
    base = SimpleRegistry(G, F)
    via_base = SimpleRegistry.over_extension(G, F2, base)
    direct = SimpleRegistry(G, F2)
    with chop_draws(seed):
        assert via_base.vectors == direct.vectors
    assert end_dims(via_base) == end_dims(direct)
    assert (cartan_data(G, F2, via_base).matrix
            == cartan_data(G, F2, direct).matrix)
    for coeffs in [basis_vector(base, i).coeffs for i in range(len(base))]:
        v = ClassVector(base, coeffs)
        assert beta_vector(v, via_base) == reference_beta(v, via_base)
    for coeffs in classes:
        v = ClassVector(base, (coeffs + [0] * len(base))[:len(base)])
        assert beta_vector(v, via_base) == reference_beta(v, via_base)
    return base, via_base


@pytest.mark.parametrize("make,p,n", [(pgl2_gf3, 3, 1),
                                      (translations_gf9, 3, 2)],
                         ids=["PGL2-GF3", "T9-GF9"])
def test_benchmark_groups(make, p, n):
    assert_routes_agree(make(), field_make(p, n), field_make(p, 2 * n))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_groups_over_gf2(name):
    make = TABLES[name][0]
    assert_routes_agree(make(), field_make(2, 1), field_make(2, 2))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenario_groups(name):
    cover = realize(parse_scenario((SCENARIO_DIR / name).read_text())).cover
    k = cover.k
    assert_routes_agree(cover.G, k, field_make(k.p, 2 * k.n))


SMALL_GROUPS = ([("cyclic", n) for n in range(1, 13)]
                + [("dihedral", n) for n in range(2, 7)])


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(SMALL_GROUPS), p=st.sampled_from([2, 3, 5]),
       r=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       classes=st.lists(st.lists(st.integers(-3, 3), max_size=12),
                        max_size=3))
def test_small_groups_agree(group, p, r, seed, classes):
    # cyclic groups of order up to 12, dihedral groups of order 2n <= 12,
    # over GF(p) and GF(p^r); Brauer characters past TABLE_LIMIT over
    # GF(p^r) (C11 over GF(8), say) are skipped
    kind, n = group
    G = cyclic(n) if kind == "cyclic" else dihedral(n)
    F, F2 = field_make(p, 1), field_make(p, r)
    try:
        SimpleRegistry(G, F2).brauer
    except CapExceeded:
        assume(False)
    assert_routes_agree(G, F, F2, seed, classes)


def chop_dims(monkeypatch, G, F, F2):
    """(base, extension registry, dims of the modules that reps.chop is
    handed while the extension saturates)."""
    base = SimpleRegistry(G, F)
    base.simples
    dims = []
    real = reps.chop

    def counted(*args):
        dims.append(args[0].dim)
        return real(*args)

    monkeypatch.setattr(reps, "chop", counted)
    ext = SimpleRegistry.over_extension(G, F2, base)
    ext.simples
    return base, ext, dims


# (group order, q, r): the base dims and End dims, the dims of the S (x) k'
# that are chopped (gcd(e, r) > 1) and the dims and End dims over k'
DESCENT = {
    # gcd(e, r) > 1: S (x) k' splits into gcd(e, r) conjugates
    "C3/GF2->GF4": (3, 2, 2, [1, 2], [1, 2], [2], [1, 1, 1], [1, 1, 1]),
    "C5/GF2->GF4": (5, 2, 2, [1, 4], [1, 4], [4], [1, 2, 2], [1, 2, 2]),
    "C7/GF2->GF8": (7, 2, 3, [1, 3, 3], [1, 3, 3], [3, 3], [1] * 7, [1] * 7),
    # gcd(e, r) = 1: S (x) k' stays simple with the same End dim
    "C3/GF2->GF8": (3, 2, 3, [1, 2], [1, 2], [], [1, 2], [1, 2]),
    "C7/GF2->GF4": (7, 2, 2, [1, 3, 3], [1, 3, 3], [], [1, 3, 3], [1, 3, 3]),
}


@pytest.mark.parametrize("case", sorted(DESCENT))
def test_descent_cases(monkeypatch, case):
    n, p, r, dims, ends, chopped, ext_dims, ext_ends = DESCENT[case]
    G, F, F2 = cyclic(n), field_make(p, 1), field_make(p, r)
    base, ext, seen = chop_dims(monkeypatch, G, F, F2)
    assert [S.dim for S in base.simples] == dims
    assert end_dims(base) == ends
    assert seen == chopped
    assert [S.dim for S in ext.simples] == ext_dims
    assert end_dims(ext) == ext_ends
    # S_i (x) k' is the sum of the simples that descend from S_i, once each
    for i, S in enumerate(base.simples):
        from_i = [j for j, o in enumerate(ext.origins) if o == i]
        g = math.gcd(ends[i], r)
        assert len(from_i) == g
        assert all(ext.simples[j].dim * g == S.dim
                   and ext.end_dim(j) * g == ends[i] for j in from_i)
        assert (beta_vector(basis_vector(base, i), ext).coeffs
                == tuple(int(j in from_i) for j in range(len(ext))))
    monkeypatch.undo()
    assert_routes_agree(G, F, F2)


def test_extension_route_chops_no_regular_module(monkeypatch):
    # every simple of PGL2(GF(3)) over GF(3) is absolutely simple (dim
    # End = 1), so the registry over GF(9) chops nothing at all: each
    # S (x) GF(9) is filed as it stands, and no module of dim |G| is built
    G, F = pgl2_gf3(), field_make(3, 1)
    base, ext, dims = chop_dims(monkeypatch, G, F, field_make(3, 2))
    assert end_dims(base) == [1] * len(base)
    assert len(ext) == len(base) == 4
    assert dims == []
    assert [S.dim for S in ext.simples] == [S.dim for S in base.simples]
    assert ext.origins == list(range(len(base)))


def test_mismatched_base_is_rejected():
    G = pgl2_gf3()
    base = SimpleRegistry(G, field_make(3, 1))
    with pytest.raises(InputError, match="another group"):
        SimpleRegistry.over_extension(cyclic(3), field_make(3, 2), base)
    with pytest.raises(InputError, match="not an extension"):
        SimpleRegistry.over_extension(G, field_make(5, 1), base)
    C3 = cyclic(3)
    base4 = SimpleRegistry(C3, field_make(2, 2))
    with pytest.raises(InputError, match="not an extension"):
        SimpleRegistry.over_extension(C3, field_make(2, 3), base4)


def test_a_split_that_breaks_the_theorem_is_inconsistent(monkeypatch):
    # C3 over GF(2) has the 2-dim simple with End = GF(4); over GF(4) it
    # must split into 2 conjugates of dim 1 with End dim 1.  A chop that
    # leaves it whole, or two pieces with one Brauer vector, is refused
    G, F, F4 = cyclic(3), field_make(2, 1), field_make(2, 2)
    base = SimpleRegistry(G, F)
    assert end_dims(base) == [1, 2]
    real = reps.chop
    monkeypatch.setattr(reps, "chop", lambda *args: [(args[0], None)])
    with pytest.raises(Inconsistency, match="does not split"):
        SimpleRegistry.over_extension(G, F4, base).simples
    monkeypatch.setattr(reps, "chop", real)
    ext = SimpleRegistry.over_extension(G, F4, base)
    monkeypatch.setattr(ext.brauer, "vector",
                        lambda M, exponents: [((M.dim,),)])
    with pytest.raises(Inconsistency, match="share a Brauer vector"):
        ext.simples


def test_beta_vector_needs_the_descent_registry():
    G, F, F9 = cyclic(4), field_make(3, 1), field_make(3, 2)
    base = SimpleRegistry(G, F)
    v = basis_vector(base, 0)
    with pytest.raises(InputError, match="does not descend"):
        beta_vector(v, SimpleRegistry(G, F9))
    other = SimpleRegistry(G, F)
    with pytest.raises(InputError, match="does not descend"):
        beta_vector(v, SimpleRegistry.over_extension(G, F9, other))
    with pytest.raises(InputError, match="descends from no base"):
        base.origins
