"""The benchmark pairs keep their report hashes at seeds 0-3.

A report hash stands for every number in the report, so a change that
claims "same results" must leave these unchanged.  The pairs come from
`perfbench/workloads.py`, loaded read-only by path; the golden-suite
workload is pinned by `scenarios/golden.json` in test_cli.py.  Each pair
is checked on a fresh realized scenario, as the benchmark runs it, and
euler then check on one shared scenario, as `equirr suite` runs them.
Seeds 1-3 vary the divisors; the scenario seed they also vary is
ignored, so it moves no hash."""

import importlib.util
import sys
from pathlib import Path

import pytest

from equirr import cli, scenarios

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"

PINNED = {
    ("big-divisor", "s0:kummer_gf13:euler"):
        "02623febbc6e4a1bb0d6e45447f978a6df3fb74b683fda6352dc0d595bd52697",
    ("big-divisor", "s0:kummer_gf13:check"):
        "c806340154430d2a9016feb53d32d2f5c906011fe54b1ca3957b6874ed6004f4",
    ("big-group", "s0:pgl2_gf3:euler"):
        "ecaee037cbc71a257af2ea5b967850f25ec524dec2ade031c55ccdbfcb29df97",
    ("big-group", "s0:pgl2_gf3:check"):
        "6de0aadecfa390b0aa110c3205a73eb1d9bb5317c98728cded28479a57d6c031",
    ("big-group", "s1:translations_gf9:euler"):
        "f323aa61406447066f3a735324381b066ca8e7dd2e76c322f022740cec09c314",
    ("big-group", "s1:translations_gf9:check"):
        "cc676414dc6415fd155f8525916304fb4b7bceb31e0a784ae1f0855a79c0b891",
    ("order-frontier", "s0:pgl2_gf5:euler"):
        "d1eb67646d5a7e128937e3c9feed2b9f4cc8b9fd53e9a03963ea1d05fda3a396",
    ("order-frontier", "s0:pgl2_gf5:check"):
        "e30ca8f9005f8dddb12e66b572fc457dc75a762b2c698e3652ffe4667a4dbba1",
    ("order-frontier", "s1:agl1_gf11:euler"):
        "8eeb502115658f457244ba8acac63ffcd0cc55b7c744eddc601d0ce4501587d6",
    ("order-frontier", "s1:agl1_gf11:check"):
        "7d4c37f06a23382be59fdc19a56b70cb21f2f63eb64fad5ea87578800909ada3",
}

# (workload, benchmark seed, pair id) -> hash, for seeds 1-3
PINNED_LATER_SEEDS = {
    ("big-divisor", 1, "s0:kummer_gf13:check"):
        "508b0109e22cad82b6867d6434b7265b36e62f39588ac08d460f083fd32fc762",
    ("big-divisor", 1, "s0:kummer_gf13:euler"):
        "21cd405987023a16852f95f94da5e0c3e2c5d57a25aa9062346c3591e9494336",
    ("big-divisor", 2, "s0:kummer_gf13:check"):
        "aa01a8050d2eb4ff366bf2175f9b0c5bec329021aebf9181e4143dd2d8b61fe9",
    ("big-divisor", 2, "s0:kummer_gf13:euler"):
        "3cb816b26c673c915470ca0069727b26db95a1d9e7e58d065cc6a97f7c0bc094",
    ("big-divisor", 3, "s0:kummer_gf13:check"):
        "1bcef4fc099c0799e8c9e692e91f60f2bbe5de3e1699fde582ee095d89c8f019",
    ("big-divisor", 3, "s0:kummer_gf13:euler"):
        "117b961d217a364adedd90f0e3f7bcfd7350737af86bf6fa68704d76da65e19e",
    ("big-group", 1, "s0:pgl2_gf3:check"):
        "00ecb2ab142c8543b2fbc7abf017e0420b6d231c541c4c15d171bb0abf66d4b7",
    ("big-group", 1, "s0:pgl2_gf3:euler"):
        "67cb9021988b1ed0e91e9a27cd8e6f630ebd674483716bdb1318598202cb4b27",
    ("big-group", 1, "s1:translations_gf9:check"):
        "1b17e380d5c0759062802dff6e4071e8fdb37a1ccd6b5e11ea9c5e8d40592498",
    ("big-group", 1, "s1:translations_gf9:euler"):
        "046b2d008a8a71af4abbbb21f1d3bec5120257a8fdf29db811eb755e12c4c7d9",
    ("big-group", 2, "s0:pgl2_gf3:check"):
        "b771942701fd4d4036919da0f2ae0f1874a727ff89e92626a63e32e2a4b83619",
    ("big-group", 2, "s0:pgl2_gf3:euler"):
        "fae33c9dbef1bd0325204dd53c3660f7d8c7a264455398d99f074632ab3e2b74",
    ("big-group", 2, "s1:translations_gf9:check"):
        "1b17e380d5c0759062802dff6e4071e8fdb37a1ccd6b5e11ea9c5e8d40592498",
    ("big-group", 2, "s1:translations_gf9:euler"):
        "046b2d008a8a71af4abbbb21f1d3bec5120257a8fdf29db811eb755e12c4c7d9",
    ("big-group", 3, "s0:pgl2_gf3:check"):
        "00ecb2ab142c8543b2fbc7abf017e0420b6d231c541c4c15d171bb0abf66d4b7",
    ("big-group", 3, "s0:pgl2_gf3:euler"):
        "67cb9021988b1ed0e91e9a27cd8e6f630ebd674483716bdb1318598202cb4b27",
    ("big-group", 3, "s1:translations_gf9:check"):
        "cc676414dc6415fd155f8525916304fb4b7bceb31e0a784ae1f0855a79c0b891",
    ("big-group", 3, "s1:translations_gf9:euler"):
        "f323aa61406447066f3a735324381b066ca8e7dd2e76c322f022740cec09c314",
    ("order-frontier", 1, "s0:pgl2_gf5:check"):
        "e30ca8f9005f8dddb12e66b572fc457dc75a762b2c698e3652ffe4667a4dbba1",
    ("order-frontier", 1, "s0:pgl2_gf5:euler"):
        "d1eb67646d5a7e128937e3c9feed2b9f4cc8b9fd53e9a03963ea1d05fda3a396",
    ("order-frontier", 1, "s1:agl1_gf11:check"):
        "7d4c37f06a23382be59fdc19a56b70cb21f2f63eb64fad5ea87578800909ada3",
    ("order-frontier", 1, "s1:agl1_gf11:euler"):
        "8eeb502115658f457244ba8acac63ffcd0cc55b7c744eddc601d0ce4501587d6",
    ("order-frontier", 2, "s0:pgl2_gf5:check"):
        "e30ca8f9005f8dddb12e66b572fc457dc75a762b2c698e3652ffe4667a4dbba1",
    ("order-frontier", 2, "s0:pgl2_gf5:euler"):
        "d1eb67646d5a7e128937e3c9feed2b9f4cc8b9fd53e9a03963ea1d05fda3a396",
    ("order-frontier", 2, "s1:agl1_gf11:check"):
        "7d4c37f06a23382be59fdc19a56b70cb21f2f63eb64fad5ea87578800909ada3",
    ("order-frontier", 2, "s1:agl1_gf11:euler"):
        "8eeb502115658f457244ba8acac63ffcd0cc55b7c744eddc601d0ce4501587d6",
    ("order-frontier", 3, "s0:pgl2_gf5:check"):
        "e30ca8f9005f8dddb12e66b572fc457dc75a762b2c698e3652ffe4667a4dbba1",
    ("order-frontier", 3, "s0:pgl2_gf5:euler"):
        "d1eb67646d5a7e128937e3c9feed2b9f4cc8b9fd53e9a03963ea1d05fda3a396",
    ("order-frontier", 3, "s1:agl1_gf11:check"):
        "7d4c37f06a23382be59fdc19a56b70cb21f2f63eb64fad5ea87578800909ada3",
    ("order-frontier", 3, "s1:agl1_gf11:euler"):
        "8eeb502115658f457244ba8acac63ffcd0cc55b7c744eddc601d0ce4501587d6",
}


def load_pairs():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return {(name, seed, pair.pair_id): pair
                for name in sorted({name for name, _ in PINNED})
                for seed in range(4)
                for pair in module.WORKLOADS[name](ROOT, seed)}
    finally:
        del sys.modules[spec.name]


ALL_PAIRS = load_pairs()
PAIRS = {(name, pair_id): pair
         for (name, seed, pair_id), pair in ALL_PAIRS.items() if seed == 0}
RUNNERS = {"euler": cli.run_euler, "check": cli.run_check}


def test_every_seed0_pair_is_pinned():
    assert set(PAIRS) == set(PINNED)


def run_pair(pair) -> str:
    scn = scenarios.realize(scenarios.parse_scenario(pair.scenario))
    report = RUNNERS[pair.command](scn)
    assert all(v["pass"] for v in report["verdicts"])
    return report["canonical_hash"]


@pytest.mark.parametrize("key", sorted(PINNED), ids="/".join)
def test_pair_hash(key):
    assert run_pair(PAIRS[key]) == PINNED[key]


def test_every_later_seed_pair_is_pinned():
    assert {key for key in ALL_PAIRS if key[1]} == set(PINNED_LATER_SEEDS)


@pytest.mark.parametrize("key", sorted(PINNED_LATER_SEEDS),
                         ids=lambda key: "/".join(map(str, key)))
def test_later_seed_pair_hash(key):
    assert run_pair(ALL_PAIRS[key]) == PINNED_LATER_SEEDS[key]


@pytest.mark.parametrize("scenario_id", sorted(
    {(name, pair_id.rsplit(":", 1)[0]) for name, pair_id in PINNED}),
    ids="/".join)
def test_pair_hashes_on_one_shared_scenario(scenario_id):
    name, prefix = scenario_id
    pairs = [PAIRS[name, f"{prefix}:{command}"]
             for command in ("euler", "check")]
    assert pairs[0].scenario == pairs[1].scenario
    scn = scenarios.realize(scenarios.parse_scenario(pairs[0].scenario))
    for pair in pairs:
        report = RUNNERS[pair.command](scn)
        assert all(v["pass"] for v in report["verdicts"])
        assert report["canonical_hash"] == PINNED[name, pair.pair_id]
