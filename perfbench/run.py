"""equirr benchmark: time to a verified verdict, per workload.

    python3 perfbench/run.py --workload big-divisor --seed 3 --seconds 40 \
        --trace 0

Each workload is a closed loop with one client: one child process
(client.py) runs the workload's (scenario, command) pairs one after
another, each reply awaited before the next request.  The child runs under
a fixed address-space limit with BLAS/OpenMP threads pinned to 1; this
process enforces a fixed per-pair deadline by killing the child, and
starts a fresh child for the pairs that remain.

Pass 0 warms the engine's in-process caches and records each pair's
reference hash; the timed passes follow while --seconds allows (at least
MIN_TIMED_PASSES of them).  A pair's time is its median over the timed
passes, and a failed pair is charged PAIR_DEADLINE_S.

Times are reported in reference seconds.  The machine this runs on may be
shared, and its speed has been seen to switch by up to 2x within minutes.
So the engine child times a fixed kernel (client.reference_kernel) right
before every pass, and right after each set-up; each time measured then
is scaled by REFERENCE_KERNEL_S / (that kernel time).  A reference second
is a wall second on a machine where the kernel takes REFERENCE_KERNEL_S.
The wall times and kernel times are printed as well.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced passes after the warm-up and prints the per-layer metrics of
tracing.PER_LAYER; the spans go to perfbench/out/.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  The exit code is non-zero when any verdict fails, a pinned
golden hash differs, or a pair's hash changes between repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workloads import WORKLOADS, field_tables

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

AS_LIMIT_MB = 1536        # address-space limit of every workload child
PAIR_DEADLINE_S = 60.0    # per-pair deadline, also the charge for a failure
RUN_CAP_S = 150.0         # no pair starts, or keeps running, past this
FINISH_TIMEOUT_S = 20.0   # for the trace summary, so a run ends by 180 s
SETUP_SAMPLES = 9         # child starts timed for setup_s
MIN_TIMED_PASSES = 2
REFERENCE_KERNEL_S = 0.1  # defines the reference second, see above

FAILURE_CLASSES = ("exit2", "exit3", "memory", "error", "signal", "deadline")
END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "euler_s": "s",
                    "check_s": "s", "peak_rss_mb": "MiB",
                    "verified_frac": "ratio", "failed_frac": "ratio"}
# failed_frac is 0 on every workload in BENCHMARK.json, so it is printed in the
# summary and carried by the "failed" count, not reported as a metric.
REPORTED = [m for m in END_TO_END_UNITS if m != "failed_frac"]


class Client:
    """One engine child process; records the wall time of its set-up."""

    def __init__(self, fields, trace, spans_out=None):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "client.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        self._send({"as_limit_mb": AS_LIMIT_MB, "fields": fields,
                    "trace": trace, "spans_out": spans_out})
        if self.receive(PAIR_DEADLINE_S) is None:
            self.close()
            raise RuntimeError("the engine child failed to start; is this "
                               "a checkout of equirr with src/equirr?")
        self.setup_s = time.perf_counter() - start

    def _send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def receive(self, timeout):
        """The next reply, or None if the child died or timed out."""
        if not self.sel.select(timeout):
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def request(self, obj, timeout):
        try:
            self._send(obj)
        except BrokenPipeError:
            return None
        return self.receive(timeout)

    def kernel_s(self) -> float:
        """Wall time of one run of the reference kernel in the child."""
        res = self.request({"op": "kernel"}, PAIR_DEADLINE_S)
        if res is None:
            raise RuntimeError("the engine child died in the reference kernel")
        return res["wall_s"]

    def death_class(self) -> str:
        """After a missing reply: 'deadline' if the child is still running,
        'signal' if a signal ended it, 'error' if it exited by itself."""
        try:
            code = self.proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            return "deadline"
        return "signal" if code < 0 else "error"

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.sel.close()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass


def run_workload(name, seed, seconds, trace):
    pairs = WORKLOADS[name](ROOT, seed)
    fields = [list(f) for f in field_tables(pairs)]
    spans_out = None
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_out = str(out_dir / f"spans-{name}-{seed}.jsonl")

    setups = []  # (wall seconds, kernel seconds right after)
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = Client(fields, False)
            setups.append((probe.setup_s, probe.kernel_s()))
            probe.close()
    client = Client(fields, trace, spans_out)
    setups.append((client.setup_s, client.kernel_s()))

    start = time.perf_counter()
    runs = []  # one dict per pair run
    pass_kinds = []  # "warm", "timed" or "traced"
    last_pass_s = 0.0
    while True:
        elapsed = time.perf_counter() - start
        timed = [k for k in pass_kinds if k != "warm"]
        if pass_kinds and len(timed) >= MIN_TIMED_PASSES and (
                elapsed + last_pass_s > seconds):
            break
        if elapsed > RUN_CAP_S:
            break
        if not pass_kinds:
            kind = "warm"
        elif trace:
            kind = "traced" if timed.count("traced") <= timed.count("timed") \
                else "timed"
        else:
            kind = "timed"
        index = len(pass_kinds)
        pass_kinds.append(kind)
        pass_start = time.perf_counter()
        kernel = client.kernel_s()
        for i, pair in enumerate(pairs):
            left = RUN_CAP_S - (time.perf_counter() - start)
            if left <= 0:
                res = {"status": "deadline", "hash": None, "wall_s": None,
                       "detail": "run cap reached before the pair started"}
            else:
                res = client.request(
                    {"op": "run", "pair": pair.pair_id, "pass": index,
                     "command": pair.command, "scenario": pair.scenario,
                     "trace": kind == "traced"},
                    min(PAIR_DEADLINE_S, left))
                if res is None:
                    res = {"status": client.death_class(), "hash": None,
                           "wall_s": None, "detail": "no reply"}
                    client.close()
                    client = Client(fields, trace, spans_out)
            runs.append({"pass": index, "kind": kind, "pair": i,
                         "kernel_s": kernel, **res})
        last_pass_s = time.perf_counter() - pass_start

    traced_passes = [i for i, k in enumerate(pass_kinds) if k == "traced"]
    final = client.request({"op": "finish", "traced_passes": traced_passes},
                           FINISH_TIMEOUT_S)
    client.close()
    if trace and not (final and final["layers"]):
        raise RuntimeError("the traced passes returned no layer metrics")
    rusage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return pairs, runs, setups, final, rusage.ru_maxrss / 1024.0


def charged(run) -> float:
    """The run's time in reference seconds; a failure costs the deadline."""
    if run["status"] in FAILURE_CLASSES:
        return PAIR_DEADLINE_S
    return run["wall_s"] * REFERENCE_KERNEL_S / run["kernel_s"]


def batch_times(pairs, runs, kind):
    """(batch, euler part, check part): per pair, the median over the
    passes of this kind, summed."""
    total = {"all": 0.0, "euler": 0.0, "check": 0.0}
    for i, pair in enumerate(pairs):
        times = [charged(r) for r in runs if r["pair"] == i
                 and r["kind"] == kind]
        if not times:
            continue
        t = statistics.median(times)
        total["all"] += t
        if pair.command in total:
            total[pair.command] += t
    return total["all"], total["euler"], total["check"]


def verify(pairs, runs):
    """Mark each run verified or not; return the list of problems that make
    the run incorrect (failed verdicts, golden or repeat hash mismatches)."""
    problems = []
    reference = {}
    for run in runs:
        pair = pairs[run["pair"]]
        ok = run["status"] == "pass"
        if run["status"] == "verdict":
            problems.append(f"{pair.pair_id}: verdict FAIL ({run['detail']})")
        digest = run["hash"]
        if digest is not None:
            if pair.golden is not None and digest != pair.golden:
                problems.append(f"{pair.pair_id}: hash {digest[:16]} differs "
                                f"from scenarios/golden.json")
                ok = False
            first = reference.setdefault(run["pair"], digest)
            if digest != first:
                problems.append(f"{pair.pair_id}: hash changed between "
                                f"repetitions (pass {run['pass']})")
                ok = False
        run["verified"] = ok
    return list(dict.fromkeys(problems))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "equirr" / "__init__.py",
                   ROOT / "scenarios" / "golden.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from "
                  "a checkout of equirr", file=sys.stderr)
            return 2
    try:
        pairs, runs, setups, final, peak_rss_mb = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    problems = verify(pairs, runs)
    attempted = len(runs)
    classes = {c: sum(r["status"] == c for r in runs)
               for c in ("verdict",) + FAILURE_CLASSES}
    failed = sum(classes[c] for c in FAILURE_CLASSES)
    n_passes = max(r["pass"] for r in runs) + 1

    print(f"workload {args.workload} seed {args.seed}: {len(pairs)} pairs, "
          f"{n_passes} passes (pass 0 warms up), {attempted} pair runs")
    for run in runs:
        if run["status"] != "pass":
            print(f"  pass {run['pass']} {pairs[run['pair']].pair_id}: "
                  f"{run['status']} {run['detail']}")
    for problem in problems:
        print(f"  INCORRECT {problem}")
    passes = [[r for r in runs if r["pass"] == i] for i in range(n_passes)]
    print("  pass wall times (s): " + " ".join(
        f"{sum(r['wall_s'] or PAIR_DEADLINE_S for r in p):.3f}"
        for p in passes))
    print("  kernel before each pass (s): " + " ".join(
        f"{p[0]['kernel_s']:.4f}" for p in passes))

    if args.trace:
        traced, _, _ = batch_times(pairs, runs, "traced")
        untraced, _, _ = batch_times(pairs, runs, "timed")
        per_pass = final["layers"]
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.batch_s":
                value = traced
            elif name == "trace.overhead_s":
                value = traced - untraced
            elif name == "fields.Field.make.s":
                value = final["setup_layers"][name]
            else:
                value = statistics.median(p[name] for p in per_pass)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:42s} {value:.6g} {unit}")
    else:
        batch, euler, check = batch_times(pairs, runs, "timed")
        values = {
            "setup_s": statistics.median(
                wall * REFERENCE_KERNEL_S / kernel for wall, kernel in setups),
            "batch_s": batch, "euler_s": euler, "check_s": check,
            "peak_rss_mb": peak_rss_mb,
            "verified_frac": sum(r["verified"] for r in runs) / attempted,
            "failed_frac": failed / attempted,
        }
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            line = f"  {name:14s} {values[name]:.6g} {unit}"
            if name == "setup_s":
                line += (f"  (median of {len(setups)} child starts; wall "
                         f"{statistics.median(w for w, _ in setups):.4f} s)")
            if name == "failed_frac":
                line += "  (" + ", ".join(f"{c} {n}" for c, n in
                                          classes.items()) + ")"
            print(line)
            if name in REPORTED:
                metrics[name] = {"value": values[name], "unit": unit}
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
