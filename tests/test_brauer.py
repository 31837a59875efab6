"""Class vectors solved from Brauer characters against the MeatAxe.

SimpleRegistry.class_of reads a class off the Brauer vector; chop reads it
off composition factors.  On generated modules over every shipped group,
over the base field and over its quadratic extension, the two must agree."""

import functools
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equirr.cli import main
from equirr.errors import CapExceeded, Inconsistency
from equirr.fields import Poly, field_make
from equirr.groups import FiniteGroup, conjugacy_classes
from equirr.matrices import Mat
from equirr.reps import (BrauerCharacters, SimpleRegistry,
                         extend_scalars, rep_direct_sum, rep_induce,
                         rep_regular, rep_trivial, spin_columns,
                         split_on_submodule)
from equirr.scenarios import parse_scenario, realize
from reptools import chop_class, inertia_cover

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json")
                 if p.name != "golden.json")
KINDS = ["direct_sum", "extension", "induced_cover", "riemann_roch",
         "simple"]


@functools.cache
def shipped(name):
    """The realized scenario and a registry over GF(q^2) for its group."""
    scn = realize(parse_scenario((SCENARIO_DIR / name).read_text()))
    k = scn.cover.k
    k2 = field_make(k.p, 2 * k.n)
    return scn, SimpleRegistry(scn.cover.G, k2, random.Random(5))


def _random_vector(F, dim, r):
    v = np.array([F.rand_elem(r) for _ in range(dim)], dtype=np.int64)
    v[r.randrange(dim)] = 1
    return v


def build_module(scn, kind, r):
    """A k[G]-module of the given kind, drawn with r."""
    cover = scn.cover
    G, k = cover.G, cover.k
    if kind == "riemann_roch" and scn.divisors:
        return cover.geometry.rr_action_rep(r.choice(scn.divisors))
    if kind == "induced_cover":
        datum = r.choice(cover.orbit_data)
        return rep_induce(inertia_cover(datum, r.randrange(-3, 4)), G,
                          datum.I_P)
    if kind == "simple":
        return r.choice(cover.registry.simples)
    if kind == "extension":
        # the submodule of k[G] generated by the (1 - g) v lies in the
        # augmentation ideal, so it and its quotient are proper pieces,
        # non-split extensions whenever p divides |G|
        R = rep_regular(G, k)
        v = Mat(k, _random_vector(k, R.dim, r)[:, None])
        gens = R.generator_images()
        W = spin_columns(k, R.dim, [(v - A @ v).a[:, 0] for A in gens],
                         gens)
        if W.cols == 0:
            return R
        return r.choice(split_on_submodule(R, W))
    pool = cover.registry.simples + [rep_trivial(G, k), rep_regular(G, k)]
    M = r.choice(pool)
    for _ in range(r.randrange(3)):
        M = rep_direct_sum(M, r.choice(pool))
    return M


@pytest.mark.parametrize("extended", [False, True], ids=["GFq", "GFq2"])
@pytest.mark.parametrize("name", SHIPPED)
@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 32 - 1))
def test_class_of_equals_chop(name, extended, kind, seed):
    scn, registry2 = shipped(name)
    r = random.Random(seed)
    M = build_module(scn, kind, r)
    reg = scn.cover.registry
    if extended:
        M = extend_scalars(M, registry2.field)
        reg = registry2
    assert reg.class_of(M) == chop_class(M, reg, r)


S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4],
            [3, 5, 4, 0, 2, 1], [4, 3, 5, 1, 0, 2], [5, 4, 3, 2, 1, 0]]


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_registry():
    G = FiniteGroup.from_table(S3_TABLE)
    return SimpleRegistry(G, field_make(5, 1), random.Random(3))


def test_unsolvable_brauer_vector_raises(monkeypatch):
    # S3 over GF(5) is semisimple with simples trivial, sign and the
    # 2-dimensional S: the virtual character [1] - [sign] + [S] and a
    # vector outside the span of the characters are no module's
    reg = s3_registry()
    assert [S.dim for S in reg.simples] == [1, 1, 2]
    vectors = [reg.brauer.vector(S) for S in reg.simples]
    t = vectors.index(reg.brauer.vector(rep_trivial(reg.group, reg.field)))
    triv, sign, std = vectors[t], vectors[1 - t], vectors[2]
    M = rep_trivial(reg.group, reg.field, 2)
    assert reg.class_of(M) == reg.basis_vector(t, 2)

    def add(*vectors):
        return tuple(tuple(sum(c) for c in zip(*cls)) for cls in
                     zip(*vectors))

    virtual = add(triv, std, tuple(tuple(-c for c in cls) for cls in sign))
    assert all(c >= 0 for cls in virtual for c in cls)
    # every simple has zeta_3 and zeta_3^2 equally often on a 3-cycle, and
    # the Galois-averaged pairing B^T P cannot tell those two apart, so
    # [S] with both moved to zeta_3 solves exactly through the left
    # inverse and only the check on the full vector rejects it
    off_span = tuple((0, 2, 0) if len(cls) == 3 else cls for cls in std)
    for fake in (virtual, off_span):
        monkeypatch.setattr(reg.brauer, "vector", lambda N, fake=fake: fake)
        with pytest.raises(Inconsistency, match="nonnegative integral"):
            reg.class_of(M)


def test_saturated_registry_rejects_foreign_simples(monkeypatch):
    # after saturation the table is fixed: a composition factor whose
    # Brauer vector is no simple's is refused, and the registry keeps its
    # simples
    reg = s3_registry()
    vectors = reg.vectors
    monkeypatch.setattr(reg.brauer, "vector", lambda N: ((N.dim,),))
    with pytest.raises(Inconsistency, match="no simple of the registry"):
        chop_class(rep_trivial(reg.group, reg.field, 3), reg,
                   random.Random(0))
    assert reg.vectors == vectors and len(reg) == 3


def cyclic_group(n):
    return FiniteGroup.from_table(cyclic_table(n))


def test_ambient_field_past_table_limit_raises():
    # 2 has order 23 mod 47, so the Brauer characters of C47 over GF(2)
    # live in GF(2^23), past the table limit; order 11 mod 23 is fine
    with pytest.raises(CapExceeded, match=r"GF\(2\^23\), past TABLE_LIMIT"):
        BrauerCharacters(cyclic_group(47), field_make(2, 1))
    assert BrauerCharacters(cyclic_group(23),
                            field_make(2, 1)).ambient.q == 2 ** 11


def test_abstract_table_group_past_table_limit_exits_3(tmp_path, capsys):
    doc = {"field": {"p": 2, "n": 1},
           "group": {"kind": "table",
                     "table": cyclic_table(47)},
           "mode": "abstract", "genus_quotient": 1,
           "orbits": [{"decomposition": [0], "inertia": [0],
                       "coefficient": 0}],
           "seed": 0}
    path = tmp_path / "c47.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 0
    assert main(["euler", str(path)]) == 3
    assert "TABLE_LIMIT" in capsys.readouterr().err


@pytest.mark.parametrize("table,p,n", [
    (cyclic_table(6), 7, 1),
    (cyclic_table(4), 3, 1),
    (S3_TABLE, 5, 1),
    (S3_TABLE, 2, 2),
], ids=["C6-GF7", "C4-GF3", "S3-GF5", "S3-GF4"])
def test_brauer_vector_counts_eigenvalues_on_every_class(table, p, n):
    # every p-regular class read directly: the multiplicity of zeta_m^j as
    # a root of the charpoly of the class representative's image, against
    # the vector that derives most classes from powers of a few generators
    G = FiniteGroup.from_table(table)
    F = field_make(p, n)
    reg = SimpleRegistry(G, F, random.Random(4))
    brauer = reg.brauer
    E = brauer.ambient
    reps_ = [c[0] for c in conjugacy_classes(G) if G.element_order(c[0]) % p]
    for M in reg.simples + [rep_regular(G, F)]:
        direct = []
        for x in reps_:
            m = G.element_order(x)
            zeta = E.pow_(E.generator, (E.q - 1) // m)
            cp = M.image(x).charpoly().map_field(E)
            counts = []
            for j in range(m):
                linear = Poly(E, [E.neg(E.pow_(zeta, j)), 1])
                k, f = 0, cp
                while f.degree > 0 and f.divmod(linear)[1].is_zero():
                    f, k = f.divmod(linear)[0], k + 1
                counts.append(k)
            direct.append(tuple(counts))
        assert brauer.vector(M) == tuple(direct)
