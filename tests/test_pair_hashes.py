"""The seed-0 benchmark pairs keep their report hashes.

A report hash stands for every number in the report, so a change that
claims "same results" must leave these unchanged.  The pairs come from
`perfbench/workloads.py`, loaded read-only by path; the golden-suite
workload is pinned by `scenarios/golden.json` in test_cli.py.  Each pair
is checked on a fresh realized scenario, as the benchmark runs it, and
euler then check on one shared scenario, as `equirr suite` runs them."""

import importlib.util
import sys
from pathlib import Path

import pytest

from equirr import cli, scenarios

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"

PINNED = {
    ("big-divisor", "s0:kummer_gf13:euler"):
        "850e17d49d98f635488ad5f8145f953320725c976bd6ff230e3216b82e24fe07",
    ("big-divisor", "s0:kummer_gf13:check"):
        "2cf3e2f64ff973f77904cd45f00885f196624a45f461307cc09ecebfff433704",
    ("big-group", "s0:pgl2_gf3:euler"):
        "4a9eaf47580b616d067cbe0520ce5c92da54ea60720033a1ba7a7dade38c8181",
    ("big-group", "s0:pgl2_gf3:check"):
        "c5a512da9b5f5e19cff48479ea9e2860168eaca3bd19bf4929b30132f676d65e",
    ("big-group", "s1:translations_gf9:euler"):
        "f2e38e81cbfd448556b5596debee12d5c9387676499bda516fd1bbdbcf4a0255",
    ("big-group", "s1:translations_gf9:check"):
        "04ad619863ea6b669e76b880151006980082313c92dcd1302e2a0af819210af3",
    ("order-frontier", "s0:pgl2_gf5:euler"):
        "61a4cc5d81656bfc4033bcaf40730d7373aa0fa5b0476dd292e888c510d83d5d",
    ("order-frontier", "s0:pgl2_gf5:check"):
        "820a26df797abeceed8e501afe57e00743fe3d117e47c6f5de44d99ec3131793",
    ("order-frontier", "s1:agl1_gf11:euler"):
        "6298b8007f3a929ace1b68d6dd01af1467d7ff44ce553b88db145736f3a5f8c2",
    ("order-frontier", "s1:agl1_gf11:check"):
        "2dcc13d039e96a4d6025ee7893b0f434d97d237dfaa169e8c434d2ab51ace5d3",
}


def load_pairs():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return {(name, pair.pair_id): pair
                for name in sorted({name for name, _ in PINNED})
                for pair in module.WORKLOADS[name](ROOT, 0)}
    finally:
        del sys.modules[spec.name]


PAIRS = load_pairs()
RUNNERS = {"euler": cli.run_euler, "check": cli.run_check}


def test_every_seed0_pair_is_pinned():
    assert set(PAIRS) == set(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED), ids="/".join)
def test_pair_hash(key):
    pair = PAIRS[key]
    scn = scenarios.realize(scenarios.parse_scenario(pair.scenario))
    report = RUNNERS[pair.command](scn)
    assert all(v["pass"] for v in report["verdicts"])
    assert report["canonical_hash"] == PINNED[key]


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
