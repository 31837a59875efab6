"""The registry's one Gram matrix and the class solver read off it.

Each SimpleRegistry keeps gram = B^T P B over the simples' Brauer vectors
B, with P the Galois-averaged pairing of the p-regular classes, and one
exact inverse W = Lg gram^-1.  The class solver is W B^T P, an exact left
inverse of B scaled by Lg, and k0.cartan_data reads C and C^-1 off the
same data.  Here that is checked on every registry that euler and check
build on the shipped scenarios and on the seed-0 big-divisor and
big-group scenarios: the registries over k, over GF(q^2) and over the
decomposition groups."""

import copy
import functools
import importlib.util
import math
import random
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equirr import cli
from equirr.errors import Inconsistency
from equirr.fields import field_make
from equirr.groups import FiniteGroup
from equirr.k0 import cartan_data
from equirr.reps import SimpleRegistry
from equirr.scenarios import parse_scenario, realize
from test_brauer import S3_TABLE

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"


def workload_texts():
    """Scenario text of each seed-0 big-divisor and big-group pair."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return {f"{name}/{pair.pair_id}": pair.scenario
            for name in ("big-divisor", "big-group")
            for pair in workloads.WORKLOADS[name](ROOT, 0)}


@functools.cache
def built_registries():
    """(label, registry) for every registry saturated while euler and check
    run on each scenario."""
    texts = {p.stem: p.read_text()
             for p in sorted(SCENARIO_DIR.glob("*.json"))
             if p.name != "golden.json"}
    texts.update(workload_texts())
    out = []
    real = SimpleRegistry._saturate

    def recorded(self):
        table = real(self)
        out.append((f"{label} {self.group.order}/{self.field}", self))
        return table

    SimpleRegistry._saturate = recorded
    try:
        for label, text in texts.items():
            scn = realize(parse_scenario(text))
            cli.run_euler(scn)
            cli.run_check(scn)
    finally:
        SimpleRegistry._saturate = real
    return tuple(out)


def ramanujan_sum(m, d):
    """sum over a prime to m of cos(2 pi a d / m), an integer: phi(m) times
    the Galois average of zeta_m^d, computed in floating point as a
    reference independent of fields.galois_pairing."""
    total = sum(math.cos(2 * math.pi * a * d / m)
                for a in range(m) if math.gcd(a, m) == 1)
    assert abs(total - round(total)) < 1e-9
    return round(total)


def dense_pairing(reg):
    """P as one dense matrix, block by block from Ramanujan sums."""
    brauer = reg.brauer
    phis = [sum(math.gcd(a, m) == 1 for a in range(m))
            for m in brauer.orders]
    L = math.lcm(*phis)
    n = sum(brauer.orders)
    P = np.zeros((n, n), dtype=object)
    start = 0
    for m, size, phi in zip(brauer.orders, brauer.sizes, phis):
        for j in range(m):
            for k in range(m):
                P[start + j, start + k] = (size * (L // phi)
                                           * ramanujan_sum(m, j - k))
        start += m
    return P, L


def test_every_kind_of_registry_is_covered():
    regs = [reg for _, reg in built_registries()]
    assert any(reg._base is not None for reg in regs)  # over GF(q^2)
    mains = {id(reg.group) for reg in regs if reg._base is not None}
    assert any(reg._base is None and id(reg.group) not in mains
               for reg in regs)  # over a decomposition group
    assert max(len(reg) for reg in regs) >= 12  # C12 over GF(13)


def test_left_inverse_is_exact_on_every_built_registry():
    # W B^T P B = Lg I in Python ints, with P built densely from
    # Ramanujan sums; the solver is that left inverse, and gram is
    # |G| L times the Gram matrix of the Brauer characters
    for label, reg in built_registries():
        B, BtP, gram, W, Lg, L = reg.gram
        P, L_ref = dense_pairing(reg)
        assert L == L_ref, label
        Bo = B.astype(object)
        assert (BtP.astype(object) == Bo.T @ P).all(), label
        assert gram == (Bo.T @ P @ Bo).tolist(), label
        s = len(reg)
        eye = np.identity(s, dtype=np.int64).astype(object)
        Wo = np.array(W, dtype=object)
        assert (Wo @ np.array(gram, dtype=object) == Lg * eye).all(), label
        _, pinv, pinv64, top, L_solve = reg._solver
        assert L_solve == Lg, label
        assert (np.array(pinv, dtype=object) @ Bo == Lg * eye).all(), label
        assert pinv == (Wo @ Bo.T @ P).tolist(), label
        assert pinv64 is not None and pinv64.tolist() == pinv, label
        assert top == max(abs(c) for row in pinv for c in row), label


def test_gram_past_int64_is_built_in_python_ints():
    # the size bound on B^T P and gram grows with |G|: a stand-in group of
    # order 2^62 sends the largest registry down the Python-int path,
    # which must give the same matrices
    _, reg = max(built_registries(), key=lambda item: len(item[1]))
    B, BtP, gram, W, Lg, L = reg.gram
    wide = copy.copy(reg)
    for key in ("gram", "_solver"):
        wide.__dict__.pop(key, None)
    wide.group = types.SimpleNamespace(order=1 << 62)
    B2, BtP2, gram2, W2, Lg2, L2 = wide.gram
    assert BtP2.dtype == object and (BtP2 == BtP).all()
    assert (gram2, W2, Lg2, L2) == (gram, W, Lg, L)
    assert wide._solver[1] == reg._solver[1]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_solving_a_combination_of_simples_returns_it(data):
    # for x in [0, 3]^s the class of sum x_i beta(S_i) is x: through the
    # int64 product, through Python ints, and through a W and Lg scaled
    # by 2^64 (the same inverse), which the solver builds in Python ints
    for label, reg in built_registries():
        s = len(reg)
        x = data.draw(st.lists(st.integers(0, 3), min_size=s, max_size=s),
                      label)
        vector = tuple(tuple(sum(c * v[cls][j] for c, v in
                                 zip(x, reg.vectors))
                             for j in range(len(counts)))
                       for cls, counts in enumerate(reg.vectors[0]))
        dim = sum(c * S.dim for c, S in zip(x, reg.simples))
        solver, gram = reg._solver, reg.gram
        B, pinv, pinv64, top, Lg = solver
        assert pinv64 is not None
        try:
            assert reg._solve(vector, dim).coeffs == tuple(x), label
            reg.__dict__["_solver"] = (B, pinv, None, top, Lg)
            assert reg._solve(vector, dim).coeffs == tuple(x), label
            K = 1 << 64
            del reg.__dict__["_solver"]
            reg.__dict__["gram"] = (*gram[:3], [[K * w for w in row]
                                                for row in gram[3]],
                                    K * Lg, gram[5])
            assert reg._solver[2] is None, label  # past int64
            assert reg._solve(vector, dim).coeffs == tuple(x), label
        finally:
            reg.__dict__["_solver"] = solver
            reg.__dict__["gram"] = gram


def test_dependent_brauer_vectors_make_a_singular_gram(monkeypatch):
    # S3 over GF(5) has the simples 1, sign and the 2-dimensional S; a
    # table that files S under the sum of the other two vectors has
    # dependent columns in B, and every solve refuses it
    real = SimpleRegistry._saturate

    def dependent(self):
        (one, S1), (sign, S2), (_, S) = real(self).items()
        total = tuple(tuple(a + b for a, b in zip(x, y))
                      for x, y in zip(one, sign))
        return {one: S1, sign: S2, total: S}

    monkeypatch.setattr(SimpleRegistry, "_saturate", dependent)
    G = FiniteGroup.from_table(S3_TABLE)
    F = field_make(5, 1)
    reg = SimpleRegistry(G, F, random.Random(0))
    assert [S.dim for S in reg.simples] == [1, 1, 2]
    for use in (lambda: reg.gram, reg.regular_class,
                lambda: cartan_data(G, F, reg)):
        with pytest.raises(Inconsistency, match="Gram matrix .* singular"):
            use()
