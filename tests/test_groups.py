import itertools
import random

import pytest

from equirr.errors import CapExceeded, InputError
from equirr.fields import field_make
from equirr.groups import (FiniteGroup, Subgroup, conjugacy_classes, cosets,
                           pgl2_normalize, sylow_p)
from equirr.reps import subgroup_to_parent
from reptools import schur_zassenhaus_complement


def s3_table():
    """Independent construction of S3 from explicit permutations."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(a, b):  # (a*b)(x) = a(b(x))
        return tuple(a[b[x]] for x in range(3))

    return [[index[compose(a, b)] for b in perms] for a in perms]


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def translation_group(p):
    F = field_make(p, 1)
    return FiniteGroup.close_generators(F, [(1, 1, 0, 1)])


def test_close_identity_only():
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(1, 0, 0, 1)])
    assert G.order == 1


def test_close_translation_c3():
    G = translation_group(3)
    assert G.order == 3
    # independent check: the generator matrix cubes to a scalar matrix
    F = field_make(3, 1)
    m = pgl2_normalize(F, (1, 1, 0, 1))
    assert G.element_order(G.index[m]) == 3


def test_close_inversion_order2():
    F = field_make(3, 1)
    G = FiniteGroup.close_generators(F, [(0, 2, 1, 0)])  # x -> 2/x
    assert G.order == 2


def test_close_cap_exceeded():
    F = field_make(5, 1)
    with pytest.raises(CapExceeded):
        FiniteGroup.close_generators(F, [(1, 1, 0, 1), (0, 1, 1, 0)], cap=3)


def test_close_rejects_singular():
    F = field_make(3, 1)
    with pytest.raises(InputError):
        FiniteGroup.close_generators(F, [(1, 1, 1, 1)])


def test_conjugacy_abelian_singletons():
    G = FiniteGroup.from_table(cyclic_table(6))
    assert all(len(c) == 1 for c in conjugacy_classes(G))


def test_conjugacy_s3():
    G = FiniteGroup.from_table(s3_table())
    sizes = sorted(len(c) for c in conjugacy_classes(G))
    assert sizes == [1, 2, 3]


def test_class_equation_random_groups():
    rng = random.Random(1)
    F5 = field_make(5, 1)
    for _ in range(10):
        a = rng.randrange(1, 5)
        G = FiniteGroup.close_generators(
            F5, [(1, a, 0, 1), (rng.randrange(1, 5), 0, 0, 1)])
        assert sum(len(c) for c in conjugacy_classes(G)) == G.order


def test_sylow():
    C6 = FiniteGroup.from_table(cyclic_table(6))
    assert sylow_p(C6, 2).order == 2
    assert sylow_p(C6, 3).order == 3
    S3 = FiniteGroup.from_table(s3_table())
    syl3 = sylow_p(S3, 3)
    assert syl3.order == 3
    assert sylow_p(S3, 5).order == 1


def test_sylow_random_orders():
    rng = random.Random(3)
    F3 = field_make(3, 1)
    G = FiniteGroup.close_generators(F3, [(1, 1, 0, 1), (2, 0, 0, 1)])
    assert G.order == 6
    assert sylow_p(G, 3).order == 3
    assert sylow_p(G, 2).order == 2


def test_schur_zassenhaus_c6():
    C6 = FiniteGroup.from_table(cyclic_table(6))
    P = sylow_p(C6, 3)
    C = schur_zassenhaus_complement(C6, P)
    assert C.order == 2
    assert set(C.indices) & set(P.indices) == {C6.identity}


def test_schur_zassenhaus_s3():
    S3 = FiniteGroup.from_table(s3_table())
    P = sylow_p(S3, 3)
    C = schur_zassenhaus_complement(S3, P)
    assert C.order == 2
    # bijection property: P x C -> S3
    prods = {S3.table[x][c] for x in P.indices for c in C.indices}
    assert len(prods) == 6


def test_schur_zassenhaus_trivial_p():
    C6 = FiniteGroup.from_table(cyclic_table(6))
    P = Subgroup(C6, [C6.identity])
    C = schur_zassenhaus_complement(C6, P)
    assert C.order == 6


def test_cosets():
    S3 = FiniteGroup.from_table(s3_table())
    H = sylow_p(S3, 3)
    reps = cosets(S3, H)
    assert len(reps) * H.order == S3.order
    whole = Subgroup(S3, range(6), check=False)
    assert cosets(S3, whole) == [S3.identity] if S3.identity == 0 else True
    trivial = Subgroup(S3, [S3.identity])
    assert len(cosets(S3, trivial)) == 6


def test_lagrange_property():
    S3 = FiniteGroup.from_table(s3_table())
    for size in (1, 2, 3, 6):
        # find a subgroup of this size by brute closure search
        found = False
        for seed in range(6):
            c = S3.closure([seed])
            if len(c) == size:
                found = True
                assert S3.order % len(c) == 0
                break
        if size in (1, 2, 3):
            assert found


def test_materialize_subgroup_cached_and_consistent():
    S3 = FiniteGroup.from_table(s3_table())
    H = sylow_p(S3, 3)
    g1 = H.as_group()
    g2 = H.as_group()
    assert g1 is g2
    assert g1.order == 3
    # subgroup of a materialized subgroup resolves against the same root
    inner = Subgroup(g1, range(g1.order), check=False)
    assert inner.in_subgroup_of(g1).indices == inner.indices


def test_whole_group_materializes_as_itself():
    S3 = FiniteGroup.from_table(s3_table())
    whole = Subgroup(S3, range(S3.order))
    assert whole.as_group() is S3
    assert subgroup_to_parent(whole) == list(range(S3.order))
    H = sylow_p(S3, 3).as_group()
    assert Subgroup(H, range(H.order)).as_group() is H


def test_subgroup_closure_validation():
    S3 = FiniteGroup.from_table(s3_table())
    # a transposition alone (without identity) is not a subgroup
    transposition = next(i for i in range(6) if S3.element_order(i) == 2)
    with pytest.raises(InputError):
        Subgroup(S3, [transposition])


# -- associativity of explicit tables ---------------------------------------


def swapped_intercalate(n, a, b):
    """Z/n (n even) with the 2 x 2 latin subsquare at rows a, a + n/2 and
    columns b, b + n/2 swapped: still a latin square with identity 0."""
    h = n // 2
    table = cyclic_table(n)
    for r in (a, a + h):
        table[r][b], table[r][b + h] = table[r][b + h], table[r][b]
    return table


def non_associative_triples(table):
    n = len(table)
    return sum(table[table[x][y]][z] != table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def test_light_test_rejects_a_table_that_spot_checks_miss():
    # 432 of the 27000 triples fail, few enough for sampling to miss
    table = swapped_intercalate(30, 1, 6)
    assert non_associative_triples(table) == 432
    with pytest.raises(InputError, match=r"not associative: \(1 5\) 1 = 7 "
                                         r"but 1 \(5 1\) = 22"):
        FiniteGroup.from_table(table)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_light_test_agrees_with_every_triple(n):
    # every intercalate swap away from the identity, against the full
    # n^3 check: from_table raises exactly on the non-associative tables
    # (for n = 4 the swap gives the Klein four-group)
    h = n // 2
    for a in range(1, h):
        for b in range(1, h):
            table = swapped_intercalate(n, a, b)
            if non_associative_triples(table):
                with pytest.raises(InputError):
                    FiniteGroup.from_table(table)
            else:
                assert FiniteGroup.from_table(table).order == n


def test_groups_pass_light_test():
    for table in (s3_table(), cyclic_table(30), cyclic_table(1)):
        assert non_associative_triples(table) == 0
        assert FiniteGroup.from_table(table).order == len(table)
