"""The process that sets up or runs one workload; started by run.py.

    python3 perfbench/worker.py setup --workload W --seed N --dir D --root R
    python3 perfbench/worker.py run   --workload W --seed N --dir D --root R
                                      --seconds S --trace 0|1 [--trace-out F]

`setup` generates and writes the workload's markets, imports satmatch and
runs one warm-up operation, and prints its set-up time. `run` reads the
markets back (it never generates any, so input generation stays out of its
peak memory), runs whole rounds of the workload's operations through
`satmatch.cli.main` in this process, checks every output and prints the
per-operation timings. Both print one JSON object on their last stdout line.

Timings are seconds at reference speed. On shared hosts the speed of one
CPU changes by up to 2x within a second, so a fixed pure-Python kernel is
timed every few milliseconds from a SIGALRM handler while an operation
runs, and each interval between samples is divided by the kernel's
slowdown over REFERENCE_KERNEL_S, capped at SLOWDOWN_CAP (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

REFERENCE_KERNEL_S = 33e-6  # kernel time in this host's fast state
# Under heavy contention the kernel slows about 3x but satmatch only about
# 2x. With this cap the scaled times of calm and of contended periods
# agreed within 2% (calibrate.py re-derives it).
SLOWDOWN_CAP = 2.2
SAMPLE_INTERVAL_S = 0.005

pc = time.perf_counter


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic and small-dict updates."""
    s, d, acc = 12345, {}, 0
    for i in range(150):
        s = (s * 1103515245 + 12345) & 0x7FFFFFFF
        k = s & 63
        d[k] = d.get(k, 0) + i
        acc += k
    return acc


def factor(samples: list[float], cap: float) -> float:
    """Reference-speed seconds per second over the sampled intervals."""
    return statistics.fmean(
        1 / min(k / REFERENCE_KERNEL_S, cap) for k in samples
    )


class Speedometer:
    """Times `kernel` before, during (every SAMPLE_INTERVAL_S) and after a
    block; `scaled` is the block's time at reference speed, less the time
    the samples themselves took. Samples are evenly spaced in time, so
    their mean speed factor is the block's."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.raw = 0.0

    def _sample(self, *_) -> None:
        t = pc()
        kernel()
        self.samples.append(pc() - t)

    def __enter__(self) -> "Speedometer":
        self.samples = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = pc()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = pc() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.raw = elapsed - sum(self.samples[1:])
        self._sample()

    @property
    def factor(self) -> float:
        return factor(self.samples, SLOWDOWN_CAP)

    @property
    def scaled(self) -> float:
        return self.raw * self.factor


def call_cli(cli, argv: list[str]) -> tuple[object, str]:
    """satmatch.cli.main in this process: (exit code or exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code
    except Exception as e:  # the CLI lets internal errors escape; they exit 1
        code = type(e).__name__
    return code, out.getvalue()


def import_cli(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    from satmatch import cli

    return cli


def role_setup(args) -> dict:
    speed = Speedometer()
    with speed:
        import workloads

        items = workloads.inputs(args.workload, args.seed)
        workloads.write_inputs(items, args.dir)
        cli = import_cli(args.root)
        op = workloads.warmup(
            args.workload, args.seed, args.dir, {i.name: i for i in items}
        )
        call_cli(cli, op.argv)  # checked when the run process repeats it
    return {"setup_s": speed.scaled}


class Runner:
    """Runs and checks operations; remembers each one's last good output so
    an identical output is not checked twice."""

    def __init__(self, cli, tracer=None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.checked: dict[str, str] = {}
        self.problems: list[str] = []
        self.busy = 0.0  # wall time of the operations run, checks excluded

    def run(self, op, traced: bool = False) -> tuple[float, bool, dict]:
        """(scaled seconds, failed, scaled per-layer totals when traced)."""
        gc.collect()
        speed = Speedometer()
        if traced:
            self.tracer.begin()
        t = pc()
        with speed:
            code, out = call_cli(self.cli, op.argv)
        self.busy += pc() - t
        layers = self.tracer.end(speed.factor) if traced else {}
        if code not in op.codes:
            return speed.scaled, True, layers
        if self.checked.get(op.label) != out:
            try:
                op.check(json.loads(out))
            except Exception as e:
                self.problems.append(f"{op.label}: {type(e).__name__}: {e}")
                return speed.scaled, False, layers
            self.checked[op.label] = out
        return speed.scaled, False, layers


def role_run(args) -> dict:
    import workloads

    items = workloads.read_inputs(args.dir)
    cli = import_cli(args.root)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(cli)
    runner = Runner(cli, tracer)
    runner.run(workloads.warmup(args.workload, args.seed, args.dir, items))
    ops = workloads.ops(args.workload, args.seed, args.dir, items)

    # rounds: plain, or alternating plain/traced in trace mode. After the
    # first two, a round starts only when the last one's operations, run
    # again, would end within --seconds (checking is not part of that
    # guess: an output identical to one already checked is not re-checked)
    kinds = (False, True) if args.trace else (False,)
    rounds: list[tuple[bool, list[float], dict]] = []
    attempted = failed = 0
    started = pc()
    last = 0.0
    while len(rounds) < 2 * len(kinds) or pc() - started + last <= args.seconds:
        runner.busy = 0.0
        for traced in kinds:
            times, layers = [], {}
            for op in ops:
                seconds, op_failed, op_layers = runner.run(op, traced)
                times.append(seconds)
                attempted += 1
                failed += op_failed
                for k, v in op_layers.items():
                    layers[k] = layers.get(k, 0) + v
            rounds.append((traced, times, layers))
        last = runner.busy

    plain = [times for traced, times, _ in rounds if not traced]
    per_op = [statistics.median(col) for col in zip(*plain)]
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": runner.problems,
        "rounds": len(plain),
        "ops": [
            {"command": op.command, "label": op.label, "seconds": s}
            for op, s in zip(ops, per_op)
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        traced = [(sum(times), layers) for kind, times, layers in rounds if kind]
        names = sorted({k for _, layers in traced for k in layers})
        result["layers"] = {
            k: statistics.median(layers.get(k, 0) for _, layers in traced) for k in names
        }
        result["overhead_s"] = statistics.median(t for t, _ in traced) - statistics.median(
            map(sum, plain)
        )
        if args.trace_out:
            tracer.write(args.trace_out)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="directory of the markets")
    parser.add_argument("--root", required=True, help="checkout holding src/satmatch")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the first traced round's spans here")
    args = parser.parse_args()
    result = role_setup(args) if args.role == "setup" else role_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
