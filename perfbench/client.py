"""Benchmark client: one process that runs (scenario, command) pairs one at
a time, through the engine's public entry points.

Protocol (one JSON object per line):
  stdin  first line  {"as_limit_mb", "fields", "trace", "spans_out"}
  stdout             {"ready": true}            after set-up
  stdin              {"op": "run", "pair", "pass", "command", "scenario",
                      "trace"}
  stdout             {"status", "hash", "wall_s", "detail"}
  stdin              {"op": "kernel"}
  stdout             {"wall_s"}                 time of reference_kernel()
  stdin              {"op": "finish", "traced_passes": [...]}
  stdout             {"layers": [...], "setup_layers": {...}}

Set-up is `import equirr` plus building every field table the workload
needs.  The address-space limit is applied before anything is imported.
"""

import json
import resource
import sys
import time


def reference_kernel():
    """Fixed work that never touches equirr: interpreter-bound integer and
    dict operations plus small integer matmuls mod p, the mix the engine
    runs.  Its time tracks the speed of the machine at that moment."""
    import numpy as np
    acc, seen = 0, {}
    for i in range(80000):
        acc = (acc * 1103515245 + i) % 2147483647
        seen[acc & 1023] = i
    a = (np.arange(48 * 48, dtype=np.int64).reshape(48, 48) * 7) % 13
    m = a
    for _ in range(600):
        m = (m @ a) % 13
    return acc + int(m.sum()) + len(seen)


def main() -> int:
    proto = sys.stdout
    sys.stdout = sys.stderr  # the engine's own prints must not reach the pipe
    config = json.loads(sys.stdin.readline())
    limit = config["as_limit_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    from equirr import cli, scenarios
    from equirr.errors import CapExceeded, Inconsistency, InputError
    from equirr.fields import Field

    tracer = None
    if config["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.begin_pair("setup", "setup", 1)
        tracer.install()
    for p, n in config["fields"]:
        Field.make(p, n)
    if tracer:
        tracer.restore()

    runners = {"analyze": cli.run_analyze, "euler": cli.run_euler,
               "check": cli.run_check}

    def reply(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    reply({"ready": True})
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "finish":
            layers = [tracer.metrics(i) for i in req["traced_passes"]] \
                if tracer else []
            setup_layers = tracer.metrics("setup") if tracer else {}
            if tracer and config["spans_out"]:
                tracer.dump(config["spans_out"])
            reply({"layers": layers, "setup_layers": setup_layers})
            return 0
        if req["op"] == "kernel":
            start = time.perf_counter()
            reference_kernel()
            reply({"wall_s": time.perf_counter() - start})
            continue
        text = req["scenario"]
        traced = tracer is not None and req["trace"]
        if traced:
            base_n = int(json.loads(text)["field"].get("n", 1))
            tracer.begin_pair(req["pair"], req["pass"], base_n)
            tracer.install()
        status, digest, detail = "pass", None, ""
        start = time.perf_counter()
        try:
            scn = scenarios.realize(scenarios.parse_scenario(text))
            report = runners[req["command"]](scn)
            digest = report["canonical_hash"]
            failed = [v["name"] for v in report["verdicts"] if not v["pass"]]
            if failed:
                status, detail = "verdict", ", ".join(failed)
        except InputError as e:  # the CLI's exit 2
            status, detail = "exit2", str(e)
        except (CapExceeded, Inconsistency) as e:  # the CLI's exit 3
            status, detail = "exit3", str(e)
        except MemoryError as e:
            status, detail = "memory", str(e)
        except Exception as e:  # an engine crash; the CLI would exit 1
            status, detail = "error", f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - start
        scn = report = None
        if traced:
            tracer.restore()
        reply({"status": status, "hash": digest, "wall_s": wall,
               "detail": detail[:300]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
