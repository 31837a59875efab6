"""The benchmark pairs keep their report hashes at seeds 0-3.

A report hash stands for every number in the report, so a change that
claims "same results" must leave these unchanged.  The pairs come from
`perfbench/workloads.py`, loaded read-only by path; the golden-suite
workload is pinned by `scenarios/golden.json` in test_cli.py.  Each pair
is checked on a fresh realized scenario, as the benchmark runs it, and
euler then check on one shared scenario, as `equirr suite` runs them.
Seeds 1-3 vary the scenario seed and the divisors, so a change that
reorders the random draws (the MeatAxe's, say) is checked against more
than one draw sequence per group."""

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

# (workload, benchmark seed, pair id) -> hash, for seeds 1-3
PINNED_LATER_SEEDS = {
    ("big-divisor", 1, "s0:kummer_gf13:check"):
        "fe77c7efa03d4ae3db660be968f429969468873cc10349d417455ae08abede24",
    ("big-divisor", 1, "s0:kummer_gf13:euler"):
        "06cba4425ec583ebac223f78178d7c36fb652573277cbdc1c8b499b80b681f72",
    ("big-divisor", 2, "s0:kummer_gf13:check"):
        "83d08e63071d37158c931a90da642f39c24e25a18df1e73079fb357d3653e721",
    ("big-divisor", 2, "s0:kummer_gf13:euler"):
        "926b9b18d5cd28fe977bab35bab059991d93a366d634ad3fced09bb912576f56",
    ("big-divisor", 3, "s0:kummer_gf13:check"):
        "d4b02c36888ac2888155d77d168a187c2febc3b07699d993ab32f07a4093f4c4",
    ("big-divisor", 3, "s0:kummer_gf13:euler"):
        "cf60cf813a1f89616e60bebab5b23524064b3203285b700c204f7c3023f19ab0",
    ("big-group", 1, "s0:pgl2_gf3:check"):
        "257695dc7f77a01e4569ee2e40e5be58df2794c29e4fde1692095407a948070a",
    ("big-group", 1, "s0:pgl2_gf3:euler"):
        "bb69b2bf7b54509fa60b37f03c23dcc40c5c17209605079b899f52a3afa057a1",
    ("big-group", 1, "s1:translations_gf9:check"):
        "bcf376e943c008dc3eb78ab97860ad9258499bc04e1d0dc72a9aba21e11ad544",
    ("big-group", 1, "s1:translations_gf9:euler"):
        "dc91863283362a5cdb65af575a4a05a324f987503e5047c47451d241f4b3f739",
    ("big-group", 2, "s0:pgl2_gf3:check"):
        "2d530407372a68134a5b441efac0e0bfe0effb0004da8b767e0efe82dfa8226f",
    ("big-group", 2, "s0:pgl2_gf3:euler"):
        "080f94b99ff2d8c1eaf9ae3ab99018d6c49991e80a5373bfac68bf24d91abb64",
    ("big-group", 2, "s1:translations_gf9:check"):
        "83dd7249b39e46139e296cdd2d5f3e7ff914d9562426ad98a926cd9ae18b42ec",
    ("big-group", 2, "s1:translations_gf9:euler"):
        "14370849916b070b7d6e527afb40e1e83e09841748ccd71d3960668046a13d55",
    ("big-group", 3, "s0:pgl2_gf3:check"):
        "4a07afd1b6494369cc3e3b32a3e13454aa6678c435a59b3d1db6eeabd0345deb",
    ("big-group", 3, "s0:pgl2_gf3:euler"):
        "3678c6b949f78ca50cdf09063eb7a4b66068156e5cd5fd360ba8e73e42dec18c",
    ("big-group", 3, "s1:translations_gf9:check"):
        "38272b38501b007ca74e4462097f8e3e8059c060975f6099a976fab6290d9b00",
    ("big-group", 3, "s1:translations_gf9:euler"):
        "b2c27046f8698022510e8b730ceaa206283f4abd2441d50775bb70a083fdc343",
    ("order-frontier", 1, "s0:pgl2_gf5:check"):
        "090921bf6a1c4df459d87c2cbb5752b5a11d9ad24fc9bb21deb8cb82b4eba154",
    ("order-frontier", 1, "s0:pgl2_gf5:euler"):
        "e939d6dd4c35305b59bd64998b3e60c730695258685748eb32b0409644c84a37",
    ("order-frontier", 1, "s1:agl1_gf11:check"):
        "605495024be33ebef0fff269778076b0afaf84946762515e0e438a57ca16dc64",
    ("order-frontier", 1, "s1:agl1_gf11:euler"):
        "42230f6a6a31be5ab3e4c00d847b80925891988cba677ea650fe1f3c953a6811",
    ("order-frontier", 2, "s0:pgl2_gf5:check"):
        "d1d82acf10aadee6697fc3b269b34fed912e2f543cda781955805143c346e8dd",
    ("order-frontier", 2, "s0:pgl2_gf5:euler"):
        "60f2ec78350a5ea32e107662ac9035499d6944c2688af9f758ec77734e529ec7",
    ("order-frontier", 2, "s1:agl1_gf11:check"):
        "b6b215d00cae6ead759c740150c0605f6c02957501953ca00c25c9687b36859a",
    ("order-frontier", 2, "s1:agl1_gf11:euler"):
        "47e4163e9067d86f67084d6182002e9c3692f88bc0929863ce3c84f49b317fb4",
    ("order-frontier", 3, "s0:pgl2_gf5:check"):
        "125141d9a192d10f1231ba1132d674064293cc208fe922fd02dd0b24e7953a7a",
    ("order-frontier", 3, "s0:pgl2_gf5:euler"):
        "991b55dccdcd735acd21661f71f8ccead9c43007942a5687d5eacd1de35ea26f",
    ("order-frontier", 3, "s1:agl1_gf11:check"):
        "13f37261b763bab417c5fc53b19fca8f5aeb8d5738d6f6eb0633714b294333bb",
    ("order-frontier", 3, "s1:agl1_gf11:euler"):
        "283077917b78af313246e531c096c581a3bf2163cb93ab84d6cb0e25abb7d10f",
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
