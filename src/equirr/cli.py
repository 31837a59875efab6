"""Batch front end: analyze / euler / check / suite over scenario files.

Each command emits a plain-text summary on stdout and, with --json, one
JSON document with sections {scenario, ramification, classes, formulas,
verdicts, audit}.  A report is a function of the scenario's group, field
and divisors (or orbit data) alone; the canonical hash recorded inside
excludes only the timestamp.

Exit codes: 0 all verdicts pass, 1 a verdict failed (a theorem would have
to be false), 2 input error (a bad scenario, or a file that cannot be
read or written), 3 internal cap or inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .engine import (congruence_condition, divided_cover_class,
                     euler_class_integral, euler_class_rational,
                     euler_class_scaled, euler_class_tame_mod_regular,
                     oracle_euler_class, projectivity_report,
                     ramification_class_routes,
                     ramification_class_via_inertia, regular_multiple,
                     tame_structure_checks)
from .errors import CapExceeded, Inconsistency, InputError
from .fields import field_make
from .k0 import cartan_data, cartesian_check
from .reps import SimpleRegistry, rep_trivial
from .scenarios import Scenario, parse_scenario, realize


def canonical_hash(report: dict) -> str:
    trimmed = {k: v for k, v in report.items()
               if k not in ("timestamp", "canonical_hash")}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _finish(report: dict) -> dict:
    report["canonical_hash"] = canonical_hash(report)
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return report


def _verdict(verdicts: list, name: str, ok: bool, detail: str = ""):
    verdicts.append({"name": name, "pass": bool(ok), "detail": detail})


def run_analyze(scn: Scenario) -> dict:
    verdicts: list = []
    report = {
        "command": "analyze",
        "scenario": scn.config.raw,
        "group_order": scn.cover.G.order,
        "ramification": [datum.to_json() for datum in scn.cover.orbit_data],
        "verdicts": verdicts,
    }
    if scn.cover.geometry is not None:
        audit = scn.cover.geometry.riemann_hurwitz()
        report["audit"] = {"riemann_hurwitz": audit}
        _verdict(verdicts, "riemann_hurwitz", audit["pass"],
                 f"{audit['lhs']} = {audit['rhs']}")
    report["weakly_ramified"] = scn.cover.is_weakly_ramified()
    report["tamely_ramified"] = scn.cover.is_tame()
    return _finish(report)


def _euler_one_divisor(scn: Scenario, D, tag: str, verdicts):
    cover = scn.cover
    entry = {"divisor": D.to_json() if D is not None else None,
             "degree": cover.divisor_degree(cover.orbit_table(D))}
    oracle = None
    if cover.geometry is not None:
        oracle = oracle_euler_class(cover, D)
        entry["oracle"] = oracle.to_json()
    cong = congruence_condition(cover, D)
    entry["congruence"] = cong
    if cong and cover.is_weakly_ramified():
        integral, terms = euler_class_integral(cover, D)
        rational = euler_class_rational(cover, D)
        entry["integral_formula"] = integral.to_json()
        entry["integral_terms"] = terms
        entry["rational_formula"] = rational.to_json()
        _verdict(verdicts, f"{tag}:rational_equals_integral",
                 rational == integral)
        if oracle is not None:
            _verdict(verdicts, f"{tag}:oracle_equals_integral",
                     oracle == integral)
    else:
        entry["integral_formula"] = "refused: congruence or weakness fails"
    scaled, C = euler_class_scaled(cover, D)
    entry["scaled_constant"] = C
    entry["scaled_formula"] = scaled.to_json()
    if oracle is not None:
        _verdict(verdicts, f"{tag}:scaled_identity",
                 scaled == oracle.scale(cover.G.order),
                 f"C = {C}")
    if cover.geometry is not None and cover.is_tame():
        # checked against the oracle: the integral formula differs from
        # this variant by a multiple of [k[G]] by construction
        rhs = euler_class_tame_mod_regular(cover, D)
        ok, mult = regular_multiple(cover, oracle - rhs)
        _verdict(verdicts, f"{tag}:tame_mod_regular", ok,
                 f"multiple = {mult}")
        entry["tame_mod_regular_multiple"] = mult
    return entry


def run_euler(scn: Scenario) -> dict:
    verdicts: list = []
    cover = scn.cover
    routes = ramification_class_routes(cover) \
        if cover.is_weakly_ramified() else None
    report = {
        "command": "euler",
        "scenario": scn.config.raw,
        "ramification": [datum.to_json() for datum in cover.orbit_data],
        "verdicts": verdicts,
    }
    if routes is not None:
        report["ramification_module"] = {
            "inertia_route": routes["inertia"].to_json(),
            "euler_route": (routes["euler"].to_json()
                            if routes["euler"] is not None else None),
        }
        if routes["consistent"] is not None:
            _verdict(verdicts, "ramification_module_routes",
                     routes["consistent"])
    entries = []
    if cover.geometry is not None:
        for i, D in enumerate(scn.divisors):
            entries.append(_euler_one_divisor(scn, D, f"D{i}", verdicts))
    else:
        entries.append(_euler_one_divisor(scn, None, "abstract", verdicts))
    report["divisors"] = entries
    report["registry"] = cover.registry.log
    return _finish(report)


def run_check(scn: Scenario) -> dict:
    verdicts: list = []
    cover = scn.cover
    report = {
        "command": "check",
        "scenario": scn.config.raw,
        "verdicts": verdicts,
    }
    if cover.geometry is not None:
        audit = cover.geometry.riemann_hurwitz()
        report["audit"] = {"riemann_hurwitz": audit}
        _verdict(verdicts, "riemann_hurwitz", audit["pass"])
    # divisibility certificates and structure checks per ramified orbit
    w_reports = []
    for datum in cover.orbit_data:
        if not datum.is_ramified or not datum.is_weak_here:
            continue
        for d in range(1, datum.e_t):
            cert = divided_cover_class(cover, datum, d)
            place = datum.place_json()
            w_reports.append({"place": place, "twist": d, "f": datum.f,
                              "head_multiplicities":
                                  cert["head_multiplicities"]})
            if datum.is_tame_here and cover.geometry is not None:
                out = tame_structure_checks(cover, datum, d)
                _verdict(verdicts, f"structure_line:{place}:d{d}",
                         out["cover_equals_line"])
                _verdict(verdicts, f"structure_ind_res:{place}:d{d}",
                         out["ind_res_multiplies"])
    report["divided_covers"] = w_reports
    if cover.geometry is None and cover.is_weakly_ramified():
        # abstract data whose ramification-module class is not integral
        # belong to no weakly ramified cover: exit 2, as euler does
        ramification_class_via_inertia(cover)
    # projectivity predicates and the Cartesian diagram need the oracle
    if cover.geometry is not None:
        proj_entries = []
        for i, D in enumerate(scn.divisors):
            pr = projectivity_report(cover, D)
            proj_entries.append({"divisor": D.to_json(), **pr})
            for name in ("sufficient_direction", "tame_membership",
                         "necessary_direction"):
                _verdict(verdicts, f"D{i}:{name}", pr[name])
        report["projectivity"] = proj_entries
        report["cartesian"] = _cartesian_section(scn, verdicts)
    report["registry"] = cover.registry.log
    return _finish(report)


def _cartesian_section(scn: Scenario, verdicts):
    cover = scn.cover
    k = cover.k
    k2 = field_make(k.p, 2 * k.n)
    registry2 = SimpleRegistry.over_extension(cover.G, k2, cover.registry)
    cd_base = cover.main_cartan()
    cd_ext = cartan_data(cover.G, k2, registry2)
    rows = []
    classes = [("trivial", cover.registry.class_of(rep_trivial(cover.G, k)))]
    for i, D in enumerate(scn.divisors):
        classes.append((f"chi_D{i}", oracle_euler_class(cover, D)))
    for label, v in classes:
        agree, base, ext = cartesian_check(v, cd_base, cd_ext)
        rows.append({"class": label, "base_member": base,
                     "extension_member": ext, "agree": agree})
        _verdict(verdicts, f"cartesian:{label}", agree,
                 f"{base} <-> {ext}")
    return {"extension_field": f"GF({k.p}^{2 * k.n})", "rows": rows}


# -- command plumbing --------------------------------------------------------------


def _summary(report: dict) -> str:
    lines = [f"== {report['command']} =="]
    for row in report.get("ramification", []):
        lines.append(
            f"  place {row['place']}: e={row['e']} e_t={row['e_tame']} "
            f"e_w={row['e_wild']} f={row['f']} deg={row['degree']} "
            f"orbit={row['orbit_size']}")
    for v in report["verdicts"]:
        mark = "PASS" if v["pass"] else "FAIL"
        detail = f"  ({v['detail']})" if v.get("detail") else ""
        lines.append(f"  [{mark}] {v['name']}{detail}")
    lines.append(f"  hash {report['canonical_hash'][:16]}")
    return "\n".join(lines)


RUNNERS = {"analyze": run_analyze, "euler": run_euler, "check": run_check}

# the errors a suite reports per (scenario, command), with their exit codes
_SUITE_ERRORS = {InputError: ("INPUT ERROR", 2), CapExceeded: ("CAP", 3),
                 Inconsistency: ("INCONSISTENCY", 3)}


def _read_text(path, what: str) -> str:
    """The UTF-8 text of the file at path; InputError naming `what` and
    the path when it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        reason = e.strerror if isinstance(e, OSError) else e
        raise InputError(f"{what} {path}: {reason}") from None


def _write_text(path, text: str, what: str) -> None:
    """Write text to path; InputError naming `what` and the path when it
    cannot be written."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"{what} {path}: {e.strerror}") from None


def _scenario_text(path: str) -> str:
    return _read_text(path, "scenario") if path != "-" else sys.stdin.read()


def _realize(path: str) -> Scenario:
    return realize(parse_scenario(_scenario_text(path)))


def _is_manifest(text: str) -> bool:
    """Whether text is a golden manifest, a nonempty JSON object of
    nonempty {command: hash} objects, rather than a scenario."""
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    return (isinstance(doc, dict) and bool(doc)
            and all(isinstance(v, dict) and v and set(v) <= set(RUNNERS)
                    and all(isinstance(h, str) for h in v.values())
                    for v in doc.values()))


def _exit_code(report: dict) -> int:
    return 0 if all(v["pass"] for v in report["verdicts"]) else 1


def _suite_reports(paths):
    """(file name, command, report or exception) for every scenario file
    and every command.  Each scenario is realized once and that one
    Scenario serves all the commands, so they share its registries,
    Cartan data and Riemann-Roch modules; a realize failure is reported
    against every command.  A golden manifest among the files, as
    scenarios/*.json holds one, is no scenario: it yields (file name,
    None, None) alone, also when it is the manifest that --golden reads
    or --write-golden replaces."""
    errors = tuple(_SUITE_ERRORS)
    for path in paths:
        name = Path(path).name
        try:
            text = _scenario_text(path)
            if _is_manifest(text):
                yield name, None, None
                continue
            scn = realize(parse_scenario(text))
        except errors as e:
            for command in RUNNERS:
                yield name, command, e
            continue
        for command, run in RUNNERS.items():
            try:
                result = run(scn)
            except errors as e:
                result = e
            yield name, command, result


def _read_manifest(path) -> dict:
    """The golden manifest {file name: {command: hash}} at path; InputError
    naming the path when it is missing, unreadable or malformed."""
    text = _read_text(path, "golden manifest")
    try:
        manifest = json.loads(text)
    except ValueError as e:
        raise InputError(f"golden manifest {path}: {e}") from None
    if not (isinstance(manifest, dict)
            and all(isinstance(v, dict) for v in manifest.values())):
        raise InputError(f"golden manifest {path}: expected an object of "
                         "{command: hash} objects per scenario file")
    return manifest


def run_suite(paths, golden_path) -> int:
    """Run every command on every scenario and print one line each; the
    worst exit code.  With a golden manifest, a hash that differs from its
    entry (HASH MISMATCH) or has none (NOT PINNED) fails the line."""
    manifest = _read_manifest(golden_path) if golden_path else {}
    worst = 0
    for name, command, report in _suite_reports(paths):
        if command is None:
            print(f"{name}: skipped (golden manifest)")
            continue
        if isinstance(report, Exception):
            label, code = _SUITE_ERRORS[type(report)]
            print(f"{name} {command}: {label} ({report})")
            worst = max(worst, code)
            continue
        code = _exit_code(report)
        match = ""
        if golden_path:
            expected = manifest.get(name, {}).get(command)
            if expected == report["canonical_hash"]:
                match = " hash ok"
            else:
                match = " NOT PINNED" if expected is None else " HASH MISMATCH"
                code = max(code, 1)
        status = "pass" if code == 0 else "FAIL"
        print(f"{name} {command}: {status}{match}")
        worst = max(worst, code)
    return worst


def make_golden(paths, out_path) -> None:
    manifest: dict = {}
    for name, command, report in _suite_reports(paths):
        if command is None:
            continue
        if isinstance(report, Exception):
            raise type(report)(f"{name} {command}: {report}") from report
        manifest.setdefault(name, {})[command] = report["canonical_hash"]
    _write_text(out_path, json.dumps(manifest, indent=1, sort_keys=True),
                "golden manifest")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equirr",
        description="equivariant Riemann-Roch engine over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "euler", "check"):
        p = sub.add_parser(name)
        p.add_argument("scenario", help="scenario file path, or - for stdin")
        p.add_argument("--json", dest="json_out", default=None,
                       help="write the full JSON report here")
    p = sub.add_parser("suite")
    p.add_argument("scenarios", nargs="+")
    p.add_argument("--golden", default=None,
                   help="manifest of expected canonical hashes")
    p.add_argument("--write-golden", default=None,
                   help="write a fresh manifest and exit")
    args = parser.parse_args(argv)

    try:
        if args.command == "suite":
            if args.write_golden:
                make_golden(args.scenarios, args.write_golden)
                print(f"wrote {args.write_golden}")
                return 0
            return run_suite(args.scenarios, args.golden)
        report = RUNNERS[args.command](_realize(args.scenario))
        print(_summary(report))
        if args.json_out:
            _write_text(args.json_out,
                        json.dumps(report, indent=1, sort_keys=True), "report")
        return _exit_code(report)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (CapExceeded, Inconsistency) as e:
        print(f"internal: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
