"""satmatch benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sparse-cli --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is `src/satmatch` in the
checkout that holds this directory. The command sets the workload up
SETUP_SAMPLES times in fresh processes (generate and write the seeded
markets, import satmatch, one warm-up operation), then runs whole rounds of
the workload's operations for about --seconds in one more process, checking
every output. The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1. See README.md for the workloads, metrics and method.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170  # every run ends well inside the 180 s a run may take

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
COMMANDS = ("analyze", "match", "enumerate", "adversary", "verify")
PER_LAYER = {
    "cli.self_s": "s",
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    "market_io.parse_s": "s",
    "market_io.parse_bytes": "bytes",
    "market_io.resolve_s": "s",
    "prefs.validate_s": "s",
    "market_io.dump_s": "s",
    "analysis.saturation_verdict_s": "s",
    "analysis.saturation_verdict_calls": "count",
    "analysis.vertex_reports": "count",
    "analysis.perfect_verdict_s": "s",
    "analysis.adversarial_instance_s": "s",
    "analysis.adversarial_instance_calls": "count",
    "analysis.component_perfect_verdict_s": "s",
    "graph.components_s": "s",
    "compatibility.verdict_consistency_s": "s",
    "engine.enumerate_stable_s": "s",
    "engine.enumerate_stable_calls": "count",
    "engine.nodes_visited": "count",
    "engine.stable_matchings": "count",
    "engine.deferred_acceptance_s": "s",
    "engine.is_stable_s": "s",
    "engine.find_blocking_pairs_s": "s",
    "engine.maximum_matching_s": "s",
    "prefs.enumerate_all_s": "s",
    "prefs.sample_uniform_s": "s",
    "prefs.instances": "count",
    "harness.saturation_suite_s": "s",
    "harness.perfection_suite_s": "s",
    "harness.coverage_suite_s": "s",
    "harness.oracle_suite_s": "s",
    "trace.overhead_s": "s",
}


class RunFailed(RuntimeError):
    pass


def child(role: str, args, work: str, deadline: float, *extra: str) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line, as JSON."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--dir", work, "--root", ROOT, *extra,
    ]
    # a fixed hash seed keeps dict and set layouts, and so timings, alike
    # from one process to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {role} ran past the deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker {role} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, work: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = [child("setup", args, work, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--trace-out", os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.json")]
    res = child("run", args, work, deadline, *extra)
    for problem in res["problems"]:
        print(f"wrong output: {problem}", file=sys.stderr)

    if args.trace:
        values = {name: res["layers"].get(name, 0) for name in PER_LAYER}
        for c in COMMANDS:
            values[f"cli.{c}_s"] = sum(op["seconds"] for op in res["ops"] if op["command"] == c)
        values["trace.overhead_s"] = res["overhead_s"]
        units = PER_LAYER
    else:
        times = [op["seconds"] for op in res["ops"]]
        values = {
            "wall_s": sum(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: subprocess.run then kills and reaps the worker,
    # and the markets are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "satmatch", "cli.py")):
        print(f"error: no satmatch sources under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = measure(args, work)
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
