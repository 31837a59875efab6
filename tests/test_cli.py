import json
import time
from pathlib import Path

import pytest

from equirr import cli, engine, fields, geometry, reps, scenarios
from equirr.cli import main
from equirr.errors import CapExceeded, Inconsistency, InputError
from equirr.geometry import P1Geometry
from equirr.scenarios import find_s3_pgl2, parse_scenario, realize
from equirr.fields import field_make
from reptools import basis_vector
from test_induced_classes import load_perfbench

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def minimal_config():
    return {
        "field": {"p": 3, "n": 1},
        "group": {"kind": "pgl2", "generators": [[[1, 0], [0, 1]]]},
        "mode": "oracle",
        "divisors": [[]],
        "seed": 0,
    }


def translation_config(extra=None):
    doc = {
        "field": {"p": 3, "n": 1},
        "group": {"kind": "pgl2", "generators": [[[1, 1], [0, 1]]]},
        "mode": "oracle",
        "divisors": [[["inf", 2]]],
        "seed": 0,
    }
    doc.update(extra or {})
    return doc


def test_parse_minimal_valid():
    cfg = parse_scenario(minimal_config())
    scn = realize(cfg)
    assert scn.cover.G.order == 1


def test_parse_translation_closure():
    cfg = parse_scenario(translation_config())
    scn = realize(cfg)
    assert scn.cover.G.order == 3


def test_parse_rejects_missing_field():
    with pytest.raises(InputError):
        parse_scenario({"group": {"kind": "pgl2", "generators": []}})


def test_parse_rejects_unknown_mode():
    doc = minimal_config()
    doc["mode"] = "interactive"
    with pytest.raises(InputError):
        parse_scenario(doc)


def test_parse_rejects_reducible_place(tmp_path):
    doc = translation_config()
    doc["divisors"] = [[[[1, 0, 1], 1]]]  # x^2 + 1 = (x+1)(x+2) over GF(3)
    path = write_scenario(tmp_path, doc)
    assert main(["euler", path]) == 2


def test_tame_mod_regular_fails_with_a_wrong_oracle(monkeypatch):
    # on a tame cover the tame variant differs from the integral formula by
    # a multiple of [k[G]] by construction, so the verdict must compare it
    # with the oracle: a corrupted oracle has to fail it on every divisor
    oracle = cli.oracle_euler_class
    monkeypatch.setattr(
        cli, "oracle_euler_class",
        lambda cover, D: (oracle(cover, D)
                          + basis_vector(cover.registry, 0)))
    cfg = parse_scenario((SCENARIO_DIR / "a2_kummer_gf7_m3.json").read_text())
    report = cli.run_euler(realize(cfg))
    verdicts = {v["name"]: v["pass"] for v in report["verdicts"]}
    for suffix in ("oracle_equals_integral", "tame_mod_regular"):
        names = [n for n in verdicts if n.endswith(":" + suffix)]
        assert len(names) == 6
        assert not any(verdicts[n] for n in names), suffix


def test_non_equivariant_divisor_names_orbit(tmp_path, capsys):
    doc = translation_config()
    doc["divisors"] = [[[[0, 1], 1]]]  # lone place of a 3-element orbit
    path = write_scenario(tmp_path, doc)
    assert main(["euler", path]) == 2
    err = capsys.readouterr().err
    assert "orbit" in err
    # all three translated places appear in the diagnostic
    assert err.count("Place") >= 3


def test_analyze_translation_row(tmp_path, capsys):
    path = write_scenario(tmp_path, translation_config())
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "e=3" in out and "e_w=3" in out and "e_t=1" in out
    assert "riemann_hurwitz" in out and "PASS" in out


def test_euler_congruence_refusal_still_passes(tmp_path, capsys):
    doc = translation_config()
    doc["divisors"] = [[["inf", 1]]]
    path = write_scenario(tmp_path, doc)
    assert main(["euler", path]) == 0
    out = capsys.readouterr().out
    assert "scaled_identity" in out
    assert "oracle_equals_integral" not in out  # refused, never computed


def test_json_report_deterministic(tmp_path):
    path = write_scenario(tmp_path, translation_config())
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["euler", path, "--json", str(out1)]) == 0
    assert main(["euler", path, "--json", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["canonical_hash"] == r2["canonical_hash"]
    r1.pop("timestamp")
    r2.pop("timestamp")
    assert r1 == r2


SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json")
                 if p.name != "golden.json")


def seed0_pairs():
    """(scenario text, command) for every shipped scenario x command and
    every seed-0 pair of the oracle workloads."""
    out = [pytest.param((SCENARIO_DIR / name).read_text(), command,
                        id=f"{name}:{command}")
           for name in SHIPPED for command in cli.RUNNERS]
    workloads = load_perfbench("workloads")
    for name in ("big-divisor", "big-group", "order-frontier"):
        out += [pytest.param(pair.scenario, pair.command,
                             id=f"{name}/{pair.pair_id}")
                for pair in workloads.WORKLOADS[name](SCENARIO_DIR.parent, 0)]
    return out


@pytest.mark.parametrize("text,command", seed0_pairs())
def test_the_seed_key_leaves_the_report(text, command):
    # the seed reaches no draw: the key is accepted, never echoed, and
    # never moves a hash
    hashes = set()
    for seed in (0, 1, 12345, None):
        doc = json.loads(text)
        doc.pop("seed", None)
        if seed is not None:
            doc["seed"] = seed
        report = cli.RUNNERS[command](realize(parse_scenario(doc)))
        assert "seed" not in report and "seed" not in report["scenario"]
        hashes.add(report["canonical_hash"])
    assert len(hashes) == 1


def test_seed_option_is_gone(tmp_path, capsys):
    path = write_scenario(tmp_path, translation_config())
    with pytest.raises(SystemExit) as exc:
        main(["euler", path, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_order_cap_gives_exit_3(tmp_path):
    doc = {
        "field": {"p": 5, "n": 1},
        "group": {"kind": "pgl2",
                  "generators": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]},
        "mode": "oracle",
        "divisors": [[]],
        "seed": 0,
        "options": {"group_order_cap": 10},
    }
    path = write_scenario(tmp_path, doc)
    assert main(["analyze", path]) == 3


def test_s3_search_scenario_builds():
    cfg = parse_scenario((SCENARIO_DIR / "a3_s3_gf5.json").read_text())
    scn = realize(cfg)
    assert scn.cover.G.order == 6


def test_s3_search_fails_where_impossible(tmp_path):
    # over GF(3) an order-3 element of PGL2 never has irreducible
    # characteristic polynomial (the nonsplit torus has order q + 1 = 4)
    doc = {
        "field": {"p": 3, "n": 1},
        "group": {"kind": "pgl2_s3_search"},
        "mode": "oracle",
        "divisors": [[]],
        "seed": 0,
    }
    path = write_scenario(tmp_path, doc)
    assert main(["analyze", path]) == 2


def test_abstract_scenario_roundtrip(tmp_path, capsys):
    path = str(SCENARIO_DIR / "abstract_kummer_genus2.json")
    assert main(["euler", path]) == 0
    out = capsys.readouterr().out
    assert "rational_equals_integral" in out


def test_abstract_scenario_without_cover_exits_2(tmp_path, capsys):
    # one Z/3 orbit over a rational quotient gives 2g_X - 2 = -4
    doc = json.loads((SCENARIO_DIR / "abstract_kummer_genus2.json")
                     .read_text())
    doc["genus_quotient"] = 0
    doc["orbits"] = doc["orbits"][:1]
    assert main(["analyze", write_scenario(tmp_path, doc)]) == 2
    assert "genus -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "euler", "check"])
@pytest.mark.parametrize("orbit,degree,message", [
    (2, 1, "orbits[2]: residue_degree 1 is not a positive multiple of "
           "f = |decomposition| / |inertia| = 3"),
    (0, 0, "orbits[0].residue_degree: 0 is not positive"),
    (0, -1, "orbits[0].residue_degree: -1 is not positive"),
], ids=["not-a-multiple-of-f", "zero", "negative"])
def test_bad_residue_degree_exits_2_naming_it(tmp_path, capsys, command,
                                              orbit, degree, message):
    # the residue degree of an abstract orbit is a positive multiple of
    # f = |decomposition| / |inertia|; orbit 2 has f = 3
    doc = _abstract_config()
    doc["orbits"].append({"decomposition": [0, 1, 2], "inertia": [0],
                          "coefficient": 0})
    doc["orbits"][orbit]["residue_degree"] = degree
    assert main([command, write_scenario(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["euler", "check"])
def test_abstract_data_that_no_cover_has_exits_2(tmp_path, capsys, command):
    # residue degrees 2 and 1 at two totally ramified Z/3 orbits break the
    # cyclic-cover condition 2 * 1 + 1 * 2 = 0 mod 3, so the ramification
    # module, integral for every weakly ramified cover, is not integral
    doc = _abstract_config()
    doc["orbits"][0]["residue_degree"] = 2
    assert main([command, write_scenario(tmp_path, doc)]) == 2
    assert "no weakly ramified cover has this ramification data" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["euler", "check"])
def test_degree_three_orbit_needs_only_its_residue_field(tmp_path, command):
    # x -> 2x over GF(7) permutes x^3+x+1, x^3+2x+1 and x^3+4x+1; their
    # local data live in GF(7^3), and no field of degree 6 is built
    doc = {"field": {"p": 7, "n": 1},
           "group": {"kind": "pgl2", "generators": [[[2, 0], [0, 1]]]},
           "mode": "oracle",
           "divisors": [[[[1, 1, 0, 1], 1], [[1, 2, 0, 1], 1],
                         [[1, 4, 0, 1], 1], [[0, 1], 2], ["inf", -1]]],
           "seed": 0}
    assert main([command, write_scenario(tmp_path, doc)]) == 0


def test_suite_ships_green(capsys):
    files = sorted(str(p) for p in SCENARIO_DIR.glob("*.json"))
    golden = str(SCENARIO_DIR / "golden.json")
    assert main(["suite", *files, "--golden", golden]) == 0
    out = capsys.readouterr().out
    assert "HASH MISMATCH" not in out
    assert out.count("hash ok") >= 15


def test_suite_reports_every_scenario_past_cap_and_inconsistency(
        tmp_path, capsys, monkeypatch):
    capped = {
        "field": {"p": 5, "n": 1},
        "group": {"kind": "pgl2",
                  "generators": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]},
        "mode": "oracle",
        "divisors": [[]],
        "seed": 0,
        "options": {"group_order_cap": 10},
    }
    first = write_scenario(tmp_path, capped, "a_capped.json")
    last = write_scenario(tmp_path, translation_config(), "b_ok.json")
    assert main(["suite", first, last]) == 3
    out = capsys.readouterr().out
    assert out.count("a_capped.json") == out.count(": CAP (") == 3
    assert out.count("b_ok.json") == out.count(": pass") == 3

    def broken_analyze(scn):
        raise Inconsistency("forced")

    monkeypatch.setitem(cli.RUNNERS, "analyze", broken_analyze)
    assert main(["suite", last]) == 3
    out = capsys.readouterr().out
    assert "b_ok.json analyze: INCONSISTENCY (forced)" in out
    assert out.count(": pass") == 2


def shipped_files():
    return sorted(str(p) for p in SCENARIO_DIR.glob("*.json")
                  if p.name != "golden.json")


def test_suite_realizes_each_scenario_once(capsys, monkeypatch):
    # one realized Scenario serves analyze, euler and check
    assert cli.realize is scenarios.realize
    calls = record_calls(monkeypatch, cli, "realize")
    golden = str(SCENARIO_DIR / "golden.json")
    assert main(["suite", *shipped_files(), "--golden", golden]) == 0
    assert len(calls) == 5
    assert capsys.readouterr().out.count("pass hash ok") == 15


def test_suite_fails_a_command_the_golden_manifest_does_not_pin(
        tmp_path, capsys):
    # a copy of a1 under a new name has no entry in the manifest: each of
    # its commands passes its verdicts but is not pinned, so the suite
    # exits 1, while the pinned original still reads hash ok
    source = SCENARIO_DIR / "a1_translations_gf3.json"
    copy = tmp_path / "new_scn.json"
    copy.write_text(source.read_text())
    golden = str(SCENARIO_DIR / "golden.json")
    assert main(["suite", str(source), str(copy), "--golden", golden]) == 1
    assert capsys.readouterr().out.splitlines() == [
        *(f"a1_translations_gf3.json {c}: pass hash ok" for c in cli.RUNNERS),
        *(f"new_scn.json {c}: FAIL NOT PINNED" for c in cli.RUNNERS)]
    assert main(["suite", str(copy)]) == 0
    assert capsys.readouterr().out.count("new_scn.json") == 3


def test_failed_command_leaves_the_shared_scenario_usable(capsys,
                                                         monkeypatch):
    # euler fails inside the saturation of the main registry; check then
    # runs on the same Scenario, saturates again and keeps its hash
    real_euler = cli.RUNNERS["euler"]
    real_find = reps.find_submodule_or_simple

    def broken_euler(scn):
        calls = []

        def failing(A, rng, seed=None):
            calls.append(A)
            if len(calls) == 3:
                raise CapExceeded("forced")
            return real_find(A, rng, seed)

        monkeypatch.setattr(reps, "find_submodule_or_simple", failing)
        try:
            return real_euler(scn)
        finally:
            monkeypatch.setattr(reps, "find_submodule_or_simple", real_find)

    monkeypatch.setitem(cli.RUNNERS, "euler", broken_euler)
    golden = str(SCENARIO_DIR / "golden.json")
    assert main(["suite", str(SCENARIO_DIR / "a3_s3_gf5.json"),
                 "--golden", golden]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "a3_s3_gf5.json analyze: pass hash ok",
        "a3_s3_gf5.json euler: CAP (forced)",
        "a3_s3_gf5.json check: pass hash ok"]


@pytest.mark.parametrize("text,message", [
    (None, "No such file or directory"),
    ('{"a1_translations_gf3.json": ', "Expecting value"),
    ('["hash"]', "expected an object"),
], ids=["missing", "not-json", "not-an-object"])
def test_suite_unreadable_manifest_exits_2_naming_path(tmp_path, capsys,
                                                       text, message):
    # a manifest that cannot be read is an input error, never a suite
    # that silently checks no hash
    golden = tmp_path / "golden.jsn"
    if text is not None:
        golden.write_text(text)
    assert main(["suite", shipped_files()[0], "--golden", str(golden)]) == 2
    captured = capsys.readouterr()
    assert f"golden manifest {golden}: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind,message", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("latin1", "'utf-8' codec can't decode byte 0xe9"),
])
def test_unreadable_scenario_exits_2_naming_path(tmp_path, capsys, kind,
                                                 message):
    path = tmp_path if kind == "directory" else tmp_path / f"{kind}.json"
    if kind == "latin1":
        path.write_bytes('{"mode": "\xe9"}'.encode("latin-1"))
    assert main(["euler", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"input error: scenario {path}: {message}" in captured.err
    assert captured.out == ""


def test_unwritable_report_exits_2_naming_path(tmp_path, capsys):
    # the summary is printed and passes; the report cannot be written
    path = write_scenario(tmp_path, translation_config())
    out = tmp_path / "missing" / "x.json"
    assert main(["euler", path, "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert "[PASS]" in captured.out and "[FAIL]" not in captured.out
    assert (f"input error: report {out}: No such file or directory"
            in captured.err)


def test_unwritable_golden_manifest_exits_2_naming_path(tmp_path, capsys):
    out = tmp_path / "missing" / "g.json"
    assert main(["suite", shipped_files()[0], "--write-golden",
                 str(out)]) == 2
    captured = capsys.readouterr()
    assert (f"input error: golden manifest {out}: No such file or directory"
            in captured.err)
    assert captured.out == ""


def test_suite_reports_a_missing_scenario_and_goes_on(tmp_path, capsys):
    missing = tmp_path / "nonexist.json"
    present = write_scenario(tmp_path, translation_config(), "b_ok.json")
    assert main(["suite", str(missing), present]) == 2
    assert capsys.readouterr().out.splitlines() == [
        *(f"nonexist.json {c}: INPUT ERROR (scenario {missing}: No such "
          "file or directory)" for c in cli.RUNNERS),
        *(f"b_ok.json {c}: pass" for c in cli.RUNNERS)]


def test_write_golden_reproduces_the_shipped_manifest(tmp_path, capsys):
    out = tmp_path / "golden.json"
    assert main(["suite", *shipped_files(), "--write-golden", str(out)]) == 0
    assert out.read_bytes() == (SCENARIO_DIR / "golden.json").read_bytes()


def test_write_golden_names_the_failing_file(tmp_path, capsys):
    # a manifest in the scenario list is parsed as a scenario and fails;
    # the error names it, and no manifest is written
    out = tmp_path / "g.json"
    files = [*shipped_files()[:1], str(SCENARIO_DIR / "golden.json")]
    assert main(["suite", *files, "--write-golden", str(out)]) == 2
    err = capsys.readouterr().err
    assert "golden.json analyze: field: expected an object" in err
    assert not out.exists()


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


def _abstract_config():
    return json.loads((SCENARIO_DIR / "abstract_kummer_genus2.json")
                      .read_text())


@pytest.mark.parametrize("make,path,value,key", [
    (translation_config, ["seed"], "abc", "seed"),
    (translation_config, ["seed"], True, "seed"),
    (translation_config, ["field", "p"], "3", "field.p"),
    (translation_config, ["field", "n"], 1.0, "field.n"),
    (translation_config, ["group", "p"], 3.0, "group.p"),
    (_abstract_config, ["genus_quotient"], "x", "genus_quotient"),
    (translation_config, ["options"], {"group_order_cap": None},
     "options.group_order_cap"),
    (translation_config, ["group", "generators", 0, 0, 0], "a",
     "group.generators[0][0][0]"),
    (translation_config, ["group", "generators", 0, 1, 1], 1.5,
     "group.generators[0][1][1]"),
    (translation_config, ["divisors", 0, 0, 1], 1.5, "divisors[0][0][1]"),
    (translation_config, ["divisors"], [[], [[[0.5, 1], 0]]],
     "divisors[1][0][0][0]"),
    (_abstract_config, ["orbits", 0, "residue_degree"], 1.5,
     "orbits[0].residue_degree"),
    (_abstract_config, ["orbits", 1, "coefficient"], "2",
     "orbits[1].coefficient"),
    (_abstract_config, ["orbits", 0, "cotangent", "generator"], 1.0,
     "orbits[0].cotangent.generator"),
    (_abstract_config, ["orbits", 0, "cotangent", "value"], ["a"],
     "orbits[0].cotangent.value[0]"),
    (_abstract_config, ["orbits", 0, "cotangent", "value"], 4.5,
     "orbits[0].cotangent.value"),
    (_abstract_config, ["orbits", 0, "inertia"], [0, "a"],
     "orbits[0].inertia[1]"),
    (_abstract_config, ["group", "table", 2, 2], 1.0, "group.table[2][2]"),
], ids=["seed-str", "seed-bool", "field-p-str", "field-n-float",
        "group-p-float", "genus-str", "cap-null", "generator-str",
        "generator-float", "divisor-coeff-float", "place-coeff-float",
        "residue-degree-float", "orbit-coeff-str", "cot-generator-float",
        "cot-value-str", "cot-value-float", "inertia-str",
        "table-entry-float"])
def test_non_integer_scalar_exits_2_naming_key(tmp_path, capsys, make, path,
                                               value, key):
    # integer-typed keys take JSON integers only: no crash, no truncation
    doc = make()
    _set(doc, path, value)
    assert main(["analyze", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"{key}: expected an integer" in err


@pytest.mark.parametrize("path,value,key", [
    (["group", "generators", 0, 0, 1], 4, "group.generators[0][0][1]"),
    (["group", "generators", 0, 1, 0], -1, "group.generators[0][1][0]"),
    (["divisors"], [[[[3, 1], 0]]], "divisors[0][0][0][0]"),
    (["divisors"], [[[[4, 1], 0]]], "divisors[0][0][0][0]"),
    (["divisors"], [[[[-1, 1], 0]]], "divisors[0][0][0][0]"),
], ids=["generator-past-q", "generator-negative", "place-coeff-q",
        "place-coeff-past-q", "place-coeff-negative"])
def test_out_of_range_field_entry_exits_2_naming_key(tmp_path, capsys, path,
                                                     value, key):
    # generator entries and place coefficients are field elements: an
    # entry outside range(q) is rejected, never reduced mod q
    doc = translation_config()
    _set(doc, path, value)
    assert main(["analyze", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert key in err and "is outside range(3)" in err


@pytest.mark.parametrize("path,value,message", [
    (["orbits", 0, "inertia"], [0, 7],
     "orbits[0].inertia[1]: element index 7 is out of range"),
    (["orbits", 0, "inertia"], [],
     "orbits[0].inertia: subgroup must contain the identity"),
    (["orbits", 0, "inertia"], [1],
     "orbits[0].inertia: subgroup must contain the identity"),
    (["orbits", 0, "wild"], [],
     "orbits[0].wild: subgroup must contain the identity"),
    (["orbits", 0, "decomposition"], [0, 1],
     "orbits[0].decomposition: element set is not closed under "
     "multiplication"),
    (["orbits", 0, "decomposition"], 5,
     "orbits[0].decomposition: expected a list"),
    (["orbits", 0, "cotangent"], [1],
     "orbits[0].cotangent: expected an object"),
    (["orbits", 0, "cotangent", "value"], 100,
     "cotangent value must have order exactly e_t"),
    (["orbits", 0, "cotangent", "value"], [11],
     "orbits[0].cotangent.value[0]: digit 11 is outside range(7)"),
    (["orbits", 0, "cotangent", "value"], [4, 9],
     "orbits[0].cotangent.value: 2 digits for a residue field of degree 1"),
    (["group", "table"], 3, "group.table: expected a list of rows"),
    (["group", "table"], [5, 6, 7], "group.table[0]: expected a list"),
], ids=["inertia-out-of-range", "inertia-empty", "inertia-no-identity",
        "wild-empty", "decomposition-not-closed", "decomposition-int",
        "cotangent-list",
        "cot-value-out-of-field", "cot-value-digit-past-p",
        "cot-value-too-many-digits", "table-int", "table-row-int"])
def test_malformed_abstract_data_exits_2_naming_key(tmp_path, capsys, path,
                                                    value, message):
    # malformed orbit lists, cotangent data and table rows exit 2 with a
    # message naming the key path or the problem, never a traceback
    doc = _abstract_config()
    _set(doc, path, value)
    assert main(["euler", write_scenario(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err


def _shipped_a1():
    return json.loads((SCENARIO_DIR / "a1_translations_gf3.json")
                      .read_text())


@pytest.mark.parametrize("make,where,key,typo", [
    (_shipped_a1, [], "divisors", "divisor"),
    (translation_config, ["field"], "n", "m"),
    (_abstract_config, ["group"], "size", "sise"),
    (lambda: translation_config({"options": {"group_order_cap": 10}}),
     ["options"], "group_order_cap", "group_order_cp"),
    (_abstract_config, ["orbits", 1], "coefficient", "coeficient"),
    (_abstract_config, ["orbits", 0, "cotangent"], "value", "val"),
], ids=["top", "field", "group", "options", "orbit", "cotangent"])
def test_misspelled_key_exits_2_naming_its_path(tmp_path, capsys, make,
                                                where, key, typo):
    # a key no scenario object takes is an input error naming its path,
    # never dropped: a1 with "divisor" would check no divisor and exit 0,
    # and a misspelled cap would leave the default cap in force
    doc = make()
    obj = doc
    for step in where:
        obj = obj[step]
    obj[typo] = obj.pop(key)
    assert main(["euler", write_scenario(tmp_path, doc)]) == 2
    path = "".join(f"[{step}]" if isinstance(step, int) else f".{step}"
                   for step in where + [typo]).lstrip(".")
    assert f"{path}: unknown key; expected one of" in \
        capsys.readouterr().err


def _s3_search_config():
    return json.loads((SCENARIO_DIR / "a3_s3_gf5.json").read_text())


PGL2_GENERATORS = [[[1, 1], [0, 1]]]


@pytest.mark.parametrize("make,where,key,value,what", [
    (_shipped_a1, [], "genus_quotient", 2, "oracle mode"),
    (_shipped_a1, [], "genus_quotient", 0, "oracle mode"),
    (_shipped_a1, [], "orbits", [], "oracle mode"),
    (_abstract_config, [], "divisors", [], "abstract mode"),
    (_abstract_config, [], "divisors", [[["inf", 1]]], "abstract mode"),
    (_shipped_a1, ["group"], "table", [[0]], "a pgl2 group"),
    (_abstract_config, ["group"], "generators", PGL2_GENERATORS,
     "a table group"),
    (_s3_search_config, ["group"], "generators", PGL2_GENERATORS,
     "a pgl2_s3_search group"),
    (_s3_search_config, ["group"], "table", [[0]],
     "a pgl2_s3_search group"),
], ids=["oracle-genus", "oracle-genus-0", "oracle-orbits",
        "abstract-divisors-empty", "abstract-divisors", "pgl2-table",
        "table-generators", "s3-search-generators", "s3-search-table"])
def test_key_of_another_mode_or_kind_exits_2_naming_its_path(
        tmp_path, capsys, make, where, key, value, what):
    # a key that the scenario's own mode or group kind does not read is an
    # input error, never ignored: a1 with "genus_quotient": 2 or with a
    # group table would otherwise run to exit 0 with the same verdicts
    doc = make()
    obj = doc
    for step in where:
        obj = obj[step]
    assert key not in obj
    obj[key] = value
    assert main(["euler", write_scenario(tmp_path, doc)]) == 2
    path = ".".join(where + [key])
    assert f"{path}: {what} does not read this key" in \
        capsys.readouterr().err


@pytest.mark.parametrize("make,size", [
    (_abstract_config, 2), (_abstract_config, 4), (_abstract_config, "3"),
    (translation_config, 2), (translation_config, 3)])
def test_group_size_must_be_the_group_order(tmp_path, capsys, make, size):
    # both groups have order 3; the shipped abstract scenario says so
    doc = make()
    assert doc["group"].get("size", 3) == 3
    doc["group"]["size"] = size
    code = main(["analyze", write_scenario(tmp_path, doc)])
    if size == 3:
        assert code == 0
    else:
        assert code == 2
        assert "group.size: " in capsys.readouterr().err


def test_every_shipped_and_workload_scenario_parses():
    # the keys every shipped file and every benchmark pair carries are
    # known at every level and read by its own mode and group kind
    texts = [path.read_text() for path in SCENARIO_DIR.glob("*.json")
             if path.name != "golden.json"]
    texts += [pair.scenario for name in ("golden-suite", "big-divisor",
                                         "big-group", "order-frontier")
              for seed in range(4)
              for pair in load_perfbench("workloads").WORKLOADS[name](
                  SCENARIO_DIR.parent, seed)]
    for text in texts:
        cfg = parse_scenario(text)
        if cfg.mode == "abstract":
            realize(cfg)


def test_suite_reports_rr_dim_cap_and_goes_on(capsys, monkeypatch):
    # a Riemann-Roch module over the cap exits 3 naming the cap, before
    # its basis is built, and the suite still reports every scenario and
    # command: analyze builds none and passes
    monkeypatch.setattr(geometry, "RR_DIM_CAP", 0)
    names = ["a1_translations_gf3.json", "a3_s3_gf5.json"]
    assert main(["suite", *(str(SCENARIO_DIR / n) for n in names)]) == 3
    out = capsys.readouterr().out
    for name in names:
        assert out.count(name) == 3
        assert f"{name} analyze: pass" in out
        for command in ("euler", "check"):
            assert f"{name} {command}: CAP (dim L(D) = " in out
    assert out.count(": CAP (") == out.count("RR_DIM_CAP = 0)") == 4


def _a1_with_large_divisor(tmp_path, coefficient=3000):
    doc = json.loads((SCENARIO_DIR / "a1_translations_gf3.json").read_text())
    doc["divisors"][2] = [["inf", coefficient]]
    return write_scenario(tmp_path, doc)


@pytest.mark.parametrize("command", ["euler", "check"])
def test_large_divisor_exits_3_naming_the_rr_dim_cap(tmp_path, capsys,
                                                     command):
    # dim L(D) = 3001 is refused before its generator is built, so the
    # command ends at once instead of running for minutes
    path = _a1_with_large_divisor(tmp_path)
    start = time.perf_counter()
    assert main([command, path]) == 3
    assert time.perf_counter() - start < 1
    assert (f"dim L(D) = 3001 exceeds RR_DIM_CAP = {geometry.RR_DIM_CAP}"
            in capsys.readouterr().err)


def test_suite_reports_the_rr_dim_cap_and_analyze_still_passes(tmp_path,
                                                               capsys):
    path = _a1_with_large_divisor(tmp_path)
    assert main(["suite", path]) == 3
    out = capsys.readouterr().out
    assert "scenario.json analyze: pass" in out
    for command in ("euler", "check"):
        assert f"scenario.json {command}: CAP (dim L(D) = 3001" in out


def test_find_s3_matches_shipped_scenario():
    gens = find_s3_pgl2(field_make(5, 1))
    assert len(gens) == 2


# -- each oracle fact is computed once per command ----------------------------


def shipped(name):
    return realize(parse_scenario((SCENARIO_DIR / name).read_text()))


def record_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


@pytest.mark.parametrize("name,builds", [("a2_kummer_gf7_m3.json", 6),
                                         ("a3_s3_gf5.json", 4),
                                         ("a4_affine_gf3.json", 4)])
def test_check_builds_each_riemann_roch_rep_once(monkeypatch, name, builds):
    # the projectivity report and the Cartesian section share one
    # representation and one chop per divisor
    scn = shipped(name)
    calls = record_calls(monkeypatch, P1Geometry, "rr_action_rep")
    assert cli._exit_code(cli.run_check(scn)) == 0
    assert len(calls) == len(scn.divisors) == builds


@pytest.mark.parametrize("name,divisors", [("a2_kummer_gf7_m3.json", 6),
                                           ("a4_affine_gf3.json", 4)])
@pytest.mark.parametrize("command", ["euler", "check"])
def test_each_command_builds_one_orbit_table_per_divisor(
        monkeypatch, name, divisors, command):
    # in euler the degree entry, the congruence, the formula walks and the
    # scaled identity all read the table that the first of them built
    builds = []
    real = engine.CoverData.memo

    def memo(self, key, build):
        def recorded():
            builds.append(key)
            return build()
        return real(self, key, recorded)

    monkeypatch.setattr(engine.CoverData, "memo", memo)
    calls = record_calls(monkeypatch, engine.CoverData, "orbit_table")
    scn = shipped(name)
    assert cli._exit_code(cli.RUNNERS[command](scn)) == 0
    tables = [key for key in builds if key[0] == "orbits"]
    assert len(tables) == len(set(tables)) == len(scn.divisors) == divisors
    if command == "euler":
        assert len(calls) >= 5 * divisors


@pytest.mark.parametrize("command", ["euler", "check"])
def test_divisibility_certificate_runs_once_per_place_and_twist(
        monkeypatch, command):
    # the certificate body runs once per place (twice on a2) and certifies
    # every twist there in one pass: each twist 1..e_t - 1 has a
    # certificate of its own, with the heads and the class of that twist,
    # and reading them certifies nothing again
    scn = shipped("a2_kummer_gf7_m3.json")
    cover = scn.cover
    calls = record_calls(monkeypatch, engine, "_certify_divided_covers")
    assert cli._exit_code(cli.RUNNERS[command](scn)) == 0
    data = [datum for _cover, datum in calls]
    assert len(data) == len({id(datum) for datum in data}) == 2
    for datum in data:
        heads = engine._frobenius_heads(cover, datum)
        certs = [engine.divided_cover_class(cover, datum, d)
                 for d in range(1, datum.e_t)]
        assert len({id(cert) for cert in certs}) == datum.e_t - 1 == 2
        for d, cert in enumerate(certs, 1):
            assert cert["head_multiplicities"] == dict(enumerate(heads[d]))
            assert cert["class"].scale(datum.f) == \
                cover.induced_cover_class(datum, -d, datum.G_P)
    assert len(calls) == 2


def test_integral_formula_sums_the_certified_divided_classes(monkeypatch):
    # the integral formula is built from the divided classes it certifies:
    # corrupting the class of one twist inside the batched certificate
    # must make it disagree with the rational one
    real = engine._certify_divided_covers

    def corrupted(cover, datum):
        certs = list(real(cover, datum))
        w = certs[1]["class"]
        certs[1] = {**certs[1], "class": w + basis_vector(w.registry, 0)}
        return certs

    monkeypatch.setattr(engine, "_certify_divided_covers", corrupted)
    report = cli.run_euler(shipped("a2_kummer_gf7_m3.json"))
    failed = [v["name"] for v in report["verdicts"] if not v["pass"]]
    assert any(name.endswith(":rational_equals_integral")
               for name in failed)


@pytest.mark.parametrize("command,saturations", [("euler", 1), ("check", 2)])
def test_whole_decomposition_group_reuses_the_main_registry(
        monkeypatch, command, saturations):
    # G_P = G at 0 and infinity: registry_for hands back the main registry,
    # so euler saturates one registry (G over GF(7)) and check one more
    # (G over GF(49), from the GF(7) simples)
    scn = shipped("a2_kummer_gf7_m3.json")
    calls = record_calls(monkeypatch, reps.SimpleRegistry, "_saturate")
    assert cli._exit_code(cli.RUNNERS[command](scn)) == 0
    assert [(reg.group, reg.field.q) for reg, in calls] == (
        [(scn.cover.G, 7), (scn.cover.G, 49)][:saturations])


def test_non_list_generators_exit_2_naming_the_key(tmp_path, capsys):
    doc = translation_config()
    doc["group"]["generators"] = 7
    assert main(["euler", write_scenario(tmp_path, doc)]) == 2
    assert "group.generators" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [0, -1])
def test_nonpositive_group_order_cap_exits_2_naming_the_option(
        tmp_path, capsys, cap):
    doc = translation_config({"options": {"group_order_cap": cap}})
    assert main(["euler", write_scenario(tmp_path, doc)]) == 2
    assert "options.group_order_cap" in capsys.readouterr().err


def test_huge_characteristic_hits_the_table_limit_before_trial_division(
        tmp_path, capsys, monkeypatch):
    # 2^61 - 1 is prime: trial division up to its square root would not
    # end, so the table limit must reject it without calling is_prime (a
    # call past the limit raises here rather than run)
    calls = []
    real = fields.is_prime

    def counting(m):
        calls.append(m)
        if m > fields.TABLE_LIMIT:
            raise AssertionError(f"is_prime({m}) called")
        return real(m)

    monkeypatch.setattr(fields, "is_prime", counting)
    doc = translation_config()
    doc["field"]["p"] = 2 ** 61 - 1
    assert main(["euler", write_scenario(tmp_path, doc)]) == 3
    assert "TABLE_LIMIT" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["analyze", "euler", "check"])
def test_non_associative_table_exits_2(tmp_path, capsys, command):
    # Z/30 with the 2 x 2 latin subsquare at rows 1, 16 and columns 6, 21
    # swapped: a loop with two-sided inverses in which 432 of the 27000
    # triples are not associative
    table = [[(a + b) % 30 for b in range(30)] for a in range(30)]
    for r in (1, 16):
        table[r][6], table[r][21] = table[r][21], table[r][6]
    doc = {"field": {"p": 7, "n": 1}, "group": {"kind": "table",
                                                "table": table},
           "mode": "abstract", "genus_quotient": 1,
           "orbits": [{"decomposition": [0], "inertia": [0],
                       "coefficient": 2}]}
    assert main([command, write_scenario(tmp_path, doc)]) == 2
    assert "multiplication table is not associative" in \
        capsys.readouterr().err
