"""A registry is a value of its (group, field).

Each MeatAxe chop draws from a source of its own, so the simples of every
registry a command reads are the same matrices, byte for byte, whatever
the scenario's seed key and whichever command saturates them first: the main
registry, the registries of the decomposition and inertia groups, and the
GF(q^2) registry of the Cartesian section."""

import json
from pathlib import Path

import pytest

from equirr import cli, engine
from equirr.k0 import cartan_data
from equirr.scenarios import parse_scenario, realize
from test_induced_classes import workload_texts

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_text(name):
    if "/" in name:
        return workload_texts(("big-group",))[name]
    return (SCENARIO_DIR / name).read_text()


def simple_images(monkeypatch, text, seed, commands):
    """{(group elements, field): (dim, generator image bytes) per simple}
    over every registry whose Cartan data the commands build, for the
    scenario realized with the given value of its seed key."""
    found = {}

    def recorded(G, F, registry):
        found[tuple(G.root_index), str(F)] = [
            (S.dim, tuple(A.a.tobytes() for A in S.generator_images()))
            for S in registry.simples]
        return cartan_data(G, F, registry)

    monkeypatch.setattr(engine, "cartan_data", recorded)
    monkeypatch.setattr(cli, "cartan_data", recorded)
    doc = json.loads(text)
    doc["seed"] = seed
    scn = realize(parse_scenario(doc))
    for command in commands:
        cli.RUNNERS[command](scn)
    return found


@pytest.mark.parametrize("name", ["a3_s3_gf5.json",
                                  "big-group/s0:pgl2_gf3"])
def test_simples_do_not_depend_on_the_seed_or_the_command_order(
        monkeypatch, name):
    text = scenario_text(name)
    reference = simple_images(monkeypatch, text, 0, ("euler", "check"))
    base = parse_scenario(text)
    extension = f"GF({base.p}^{2 * base.n})"
    assert any(field == extension for _, field in reference)
    assert len(reference) > 2  # subgroup registries too
    for seed in (1, 2):
        assert simple_images(monkeypatch, text, seed,
                             ("euler", "check")) == reference
    for seed in (0, 1, 2):
        assert simple_images(monkeypatch, text, seed,
                             ("check", "euler")) == reference
