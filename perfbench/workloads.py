"""Seeded workload generation for the equirr benchmark.

A workload is a list of (scenario, command) pairs.  Each pair carries the
scenario as JSON text, which is all the engine sees.  The benchmark seed
varies the scenario `seed` (MeatAxe, splitting and isomorphism randomness)
and the choice of equivariant divisors.  The group, the field and the
divisor-degree band stay fixed per workload, and each divisor slot keeps
the coefficient class that decides which formula branches run, so every
seed asks for about the same amount of work.

Divisors are built from whole group orbits of places ("blocks"), so they
are equivariant by construction.  The engine still validates them: a
generated scenario it rejects is reported as a failed pair, never dropped.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Pair:
    pair_id: str
    command: str        # "analyze" | "euler" | "check"
    scenario: str       # scenario JSON text
    golden: str | None  # pinned canonical hash, if any


def _linear_places(negated_points):
    """Places (x - b), given the encoded field elements -b."""
    return [[neg_b, 1] for neg_b in negated_points]


def _prime_points(p):
    """-b for every b in GF(p)."""
    return [(-b) % p for b in range(p)]


def _gf9_points():
    """-b for every b in GF(9), encoded as b0 + 3*b1 (negation is
    digitwise)."""
    return [(-(b % 3)) % 3 + 3 * ((-(b // 3)) % 3) for b in range(9)]


def _divisor(blocks, coeffs):
    """Sum over blocks of coeff * (every place of the block)."""
    out = []
    for block, c in zip(blocks, coeffs):
        if c:
            out.extend([place, c] for place in block)
    return out


def _choose(rng, block_sizes, slot):
    """Uniform choice among the coefficient vectors of one divisor slot.

    A slot is ((lo, hi) per block, (min degree, max degree)).  Slots keep
    the coefficient classes that decide which formula branches run (for
    instance n = -1 at a wild place) apart from the free choices, so every
    seed asks for about the same work."""
    ranges, (deg_lo, deg_hi) = slot
    cands = [[]]
    for lo, hi in ranges:
        cands = [c + [v] for c in cands for v in range(lo, hi + 1)]
    cands = [c for c in cands
             if deg_lo <= sum(s * v for s, v in zip(block_sizes, c)) <= deg_hi]
    if not cands:
        raise ValueError(f"divisor slot {slot} has no candidate")
    return rng.choice(cands)


@dataclass(frozen=True)
class GroupSpec:
    label: str
    field: tuple[int, int]
    generators: list
    blocks: list          # orbits of places, in scenario-file place syntax
    block_sizes: list     # degree of each block
    slots: tuple          # one divisor per slot, see _choose


# x -> 2x over GF(13): 2 is a primitive root, so the twelve points of
# GF(13)* form one orbit; the six quadratics x^2 - n (n a non-residue)
# form another, since x -> 2x sends x^2 - n to x^2 - 4n.  The group is
# tame and cyclic, so the cost follows the degree.
_KUMMER13 = GroupSpec(
    label="kummer_gf13",
    field=(13, 1),
    generators=[[[2, 0], [0, 1]]],
    blocks=[[[0, 1]], ["inf"],
            _linear_places(_prime_points(13)[1:]),
            [[(-n) % 13, 0, 1] for n in (2, 5, 6, 7, 8, 11)]],
    block_sizes=[1, 1, 12, 12],
    slots=((((-1, 11), (-1, 11), (0, 3), (0, 3)), (28, 28)),
           (((-1, 11), (-1, 11), (0, 3), (0, 3)), (20, 20))),
)

# PGL2(GF(3)) is transitive on P^1(GF(3)) and on the six points of
# P^1(GF(9)) outside it, which make up the three monic irreducible
# quadratics over GF(3).  The first slot keeps -1 on P^1(GF(3)).
_PGL2_3 = GroupSpec(
    label="pgl2_gf3",
    field=(3, 1),
    generators=[[[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 1], [1, 0]]],
    blocks=[["inf"] + _linear_places(_prime_points(3)),
            [[1, 0, 1], [2, 1, 1], [2, 2, 1]]],
    block_sizes=[4, 6],
    slots=((((-1, -1), (2, 3)), (8, 14)),
           (((0, 3), (0, 1)), (6, 8))),
)

# Translations act freely on GF(9); infinity is wild with e = 9.  The first
# slot keeps n_inf = -1 mod 9.
_TRANSLATIONS_9 = GroupSpec(
    label="translations_gf9",
    field=(3, 2),
    generators=[[[1, 1], [0, 1]], [[1, 3], [0, 1]]],
    blocks=[["inf"], _linear_places(_gf9_points())],
    block_sizes=[1, 9],
    slots=((((-1, 8), (0, 1)), (8, 8)),
           (((0, 1), (1, 1)), (9, 10))),
)

_PGL2_5 = GroupSpec(
    label="pgl2_gf5",
    field=(5, 1),
    generators=[[[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 1], [1, 0]]],
    blocks=[["inf"] + _linear_places(_prime_points(5))],
    block_sizes=[6],
    slots=((((1, 1),), (6, 6)),),
)

_AGL1_11 = GroupSpec(
    label="agl1_gf11",
    field=(11, 1),
    generators=[[[1, 1], [0, 1]], [[2, 0], [0, 1]]],
    blocks=[["inf"], _linear_places(_prime_points(11))],
    block_sizes=[1, 11],
    slots=((((2, 2), (1, 1)), (13, 13)),),
)


def _generated(spec: GroupSpec, rng: random.Random, tag: str):
    divisors = [
        _divisor(spec.blocks, _choose(rng, spec.block_sizes, slot))
        for slot in spec.slots]
    p, n = spec.field
    doc = {"field": {"p": p, "n": n},
           "group": {"kind": "pgl2", "p": p, "n": n,
                     "generators": spec.generators},
           "mode": "oracle",
           "divisors": divisors,
           "seed": rng.getrandbits(32)}
    return f"{tag}:{spec.label}", json.dumps(doc)


def _oracle_workload(name, specs, seed, commands):
    rng = random.Random(f"{name}/{seed}")
    pairs = []
    for i, spec in enumerate(specs):
        label, text = _generated(spec, rng, f"s{i}")
        pairs.extend(Pair(f"{label}:{cmd}", cmd, text, None)
                     for cmd in commands)
    return pairs


def golden_suite(root: Path, seed: int):
    """The shipped scenarios x {analyze, euler, check}.  At seed 0 the
    canonical hashes are pinned by scenarios/golden.json; at any other
    seed the scenario seed is overridden, as `equirr suite --seed` does."""
    scen_dir = root / "scenarios"
    golden = json.loads((scen_dir / "golden.json").read_text())
    pairs = []
    for path in sorted(scen_dir.glob("*.json")):
        if path.name == "golden.json":
            continue
        doc = json.loads(path.read_text())
        if seed:
            doc["seed"] = seed
        text = json.dumps(doc)
        for cmd in ("analyze", "euler", "check"):
            pinned = golden.get(path.name, {}).get(cmd) if not seed else None
            pairs.append(Pair(f"{path.stem}:{cmd}", cmd, text, pinned))
    return pairs


WORKLOADS = {
    # Tiny groups and modules: fixed per-call overhead dominates; the only
    # workload with abstract-mode coverage and pinned golden hashes.
    "golden-suite": golden_suite,
    # Order-12 tame Kummer group with divisors of degree 28 and 20: the oracle
    # (rr_action_rep, chop, charpoly) dominates.
    "big-divisor": lambda root, seed: _oracle_workload(
        "big-divisor", [_KUMMER13], seed, ("euler", "check")),
    # Orders 24 and 9 (wild) with small divisors: cartan_data,
    # indecomposable_summands and hom_space over GF(q) and GF(q^2) dominate.
    "big-group": lambda root, seed: _oracle_workload(
        "big-group", [_PGL2_3, _TRANSLATIONS_9], seed, ("euler", "check")),
    # Orders 120 and 110: `check` fails with MemoryError in hom_space at
    # the commit that added this benchmark.  Runnable by hand; not listed
    # in BENCHMARK.json, whose workloads must complete every pair.
    "order-frontier": lambda root, seed: _oracle_workload(
        "order-frontier", [_PGL2_5, _AGL1_11], seed, ("euler", "check")),
}


def field_tables(pairs):
    """Every (p, n) the workload needs: the base fields and their quadratic
    extensions (the Cartesian section works over GF(q^2))."""
    out = set()
    for pair in pairs:
        f = json.loads(pair.scenario)["field"]
        p, n = int(f["p"]), int(f.get("n", 1))
        out.update({(p, n), (p, 2 * n)})
    return sorted(out)
