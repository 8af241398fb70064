"""Re-derive the speed correction's SLOWDOWN_CAP on the current host.

    python3 perfbench/calibrate.py --workload dense-verdict --repeats 3

Runs every operation of a workload `--repeats` times in this process,
keeping each run's raw time and kernel samples, then prints for each
candidate cap the time-weighted coefficient of variation of the scaled
times (cap 1 credits no slowdown, which is close to raw time). Run it once while the host is calm and once
while it is contended; pick the cap whose figures are low in both and
whose mean scaled times agree between the two, and set
worker.SLOWDOWN_CAP to it. Leaves the generated markets under .perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402

CAPS = (1.0, 1.6, 1.8, 2.0, 2.15, 2.3, 2.6, 100.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    directory = os.path.join(root, ".perfbench", f"calibrate-{args.workload}")
    workloads.write_inputs(workloads.inputs(args.workload, args.seed), directory)
    items = workloads.read_inputs(directory)
    cli = worker.import_cli(root)
    ops = workloads.ops(args.workload, args.seed, directory, items)
    runs: dict[str, list[tuple[float, list[float]]]] = {op.label: [] for op in ops}
    for _ in range(args.repeats):
        for op in ops:
            gc.collect()
            speed = worker.Speedometer()
            with speed:
                worker.call_cli(cli, op.argv)
            runs[op.label].append((speed.raw, speed.samples))

    for cap in CAPS:
        spread = total = 0.0
        for samples in runs.values():
            scaled = [raw * worker.factor(ks, cap) for raw, ks in samples]
            spread += statistics.stdev(scaled)
            total += statistics.fmean(scaled)
        print(f"cap {cap:6.2f}: summed scaled time {total:8.3f} s, "
              f"time-weighted CV {spread / total:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
