"""dim End(S) from the Norton kernel against the Hom route.

SimpleRegistry.end_dim reads dim End(S) off the kernel U = ker f(theta)
that certified S simple in the saturation chop (reps.end_dim_from_kernel);
hom_dim(S, S), the nullspace of the Kronecker system, is the reference.
No shipped scenario or benchmark workload has a simple with
dim End(S) > 1, so the registries here are direct products of small
cyclic, dihedral and affine groups over fields that do not split them:
there End(S) is a proper extension field, and often smaller than the
Norton kernel, which is what an answer that skips the annihilator of
U's first vector (dim U itself) gets wrong."""

from hypothesis import assume, given, settings, strategies as st

from equirr.errors import CapExceeded
from equirr.fields import field_make
from equirr.groups import FiniteGroup
from equirr.reps import SimpleRegistry, hom_dim
from reptools import chop_draws
from test_cartan import cyclic
from test_extension_registry import dihedral


def affine(p):
    """AGL1(GF(p)): the maps x -> a x + b, a != 0."""
    maps = [(a, b) for a in range(1, p) for b in range(p)]
    where = {m: i for i, m in enumerate(maps)}
    return FiniteGroup.from_table([[where[a * c % p, (a * d + b) % p]
                                    for c, d in maps] for a, b in maps])


def direct_product(t1, t2):
    n = len(t2)
    return [[t1[a // n][b // n] * n + t2[a % n][b % n]
             for b in range(len(t1) * n)] for a in range(len(t1) * n)]


MAKE = {"C": cyclic, "D": dihedral, "A": affine}
FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2), (3, 2)]


def table_group(factors) -> FiniteGroup:
    table = [[0]]
    for kind, n in factors:
        table = direct_product(table, MAKE[kind](n).table)
    return FiniteGroup.from_table(table)


def compare(G, F, seed):
    """(dim End(S), dim U) for every simple of the registry, each checked
    against hom_dim(S, S) and for dividing both dim U and dim S; None when
    the registry's Brauer characters are past TABLE_LIMIT."""
    reg = SimpleRegistry(G, F)
    try:
        reg.brauer
    except CapExceeded:
        return None
    with chop_draws(seed):
        table = reg._table
    out = []
    for i, (S, U) in enumerate(table.values()):
        e, d = reg.end_dim(i), U.shape[1]
        assert e == hom_dim(S, S)
        assert d % e == 0 and S.dim % e == 0
        out.append((e, d))
    return out


SWEEP = ([[("C", n)] for n in (3, 5, 7, 9, 11, 13, 15)]
         + [[("D", n)] for n in (3, 4, 5, 7)]
         + [[("A", p)] for p in (3, 5, 7)]
         + [[("C", 2), ("C", 6)], [("C", 3), ("D", 3)], [("C", 3), ("D", 5)],
            [("C", 5), ("D", 3)], [("C", 3), ("A", 5)], [("C", 4), ("D", 3)]])


def test_end_dims_equal_the_hom_route_over_a_sweep():
    # every group of the sweep over every field of FIELDS: hundreds of
    # simples, many with dim End(S) > 1 and some with dim End(S) < dim U
    found = []
    for factors in SWEEP:
        G = table_group(factors)
        for p, n in FIELDS:
            found += compare(G, field_make(p, n), 0) or []
    assert len(found) >= 300
    assert sum(e > 1 for e, _ in found) >= 50
    assert sum(e < d for e, d in found) >= 10


FACTORS = ([("C", n) for n in range(2, 10)] + [("D", n) for n in (3, 4, 5)]
           + [("A", p) for p in (3, 5)])


@settings(max_examples=50, deadline=None)
@given(factors=st.lists(st.sampled_from(FACTORS), min_size=1, max_size=2),
       field=st.sampled_from(FIELDS), seed=st.integers(0, 2 ** 32 - 1))
def test_end_dims_equal_the_hom_route(factors, field, seed):
    # random products of at most two factors, of order at most 400, any
    # MeatAxe seed: the Norton kernel it certifies each simple with varies
    G = table_group(factors)
    assume(compare(G, field_make(*field), seed) is not None)
