"""Regenerate the reference figures of README.md.

    python3 perfbench/reference.py [--seeds 1-10] [--workloads verify,orbits,weyl]
        [--lengths 1000,3000,10000]

For each workload, runs the benchmark once per seed with ``--trace 0`` and
once with ``--trace 1``, then prints for every end-to-end metric its median
and its spread (interquartile range over median), next to the same figures
for the raw seconds of a round (which the calibration quotients replace),
the kernel's raw time and the wall time of each benchmark process.
Then, for each orbit length, prints every orbit's cost per step (median
of three untraced runs, in raw microseconds and over the calibration kernel)
and ``scalar.coeff_bits.max`` (one traced run); ``--lengths ""`` skips this.
Takes about 30 minutes with the defaults.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict, float]:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    raw = json.loads((ROOT / ".perfbench_out" / f"{workload}-run.json").read_text())
    return result, raw, time.perf_counter() - t0


def spread(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return m, (q[2] - q[0]) / m


def length_scan(lengths: list[int]) -> None:
    """Cost per step and coefficient height of each orbit against its length."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from run import calibration_kernel
    from tracing import Tracer
    from workloads import ORBIT_KINDS, Orbits

    def kernel_s() -> float:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            calibration_kernel()
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)

    print("## orbit length: per step, median of 3 untraced runs, raw and over the "
          "calibration kernel timed beside each run; scalar.coeff_bits.max (traced)")
    for length in lengths:
        work = Orbits(1, ROOT / ".perfbench_out" / "lengths", length=length)
        ops = dict(work.ops(0))
        for label in [f"{kind}.jsonl" for kind in ORBIT_KINDS] + ["section"]:
            raw, cal = [], []
            for _ in range(3):
                before = kernel_s()
                t0 = time.perf_counter()
                ops[label]()
                dt = time.perf_counter() - t0
                raw.append(dt)
                cal.append(dt / statistics.median([before, kernel_s()]))
            tracer = Tracer()
            tracer.install()
            try:
                ops[label]()
            finally:
                tracer.uninstall()
            bits = tracer.metrics(rounds=1, ops=1)["scalar.coeff_bits.max"][0]
            print(f"{length:>6} {label:>17}  {statistics.median(raw) / length * 1e6:7.1f} "
                  f"us/step  {statistics.median(cal) / length * 1e3:6.2f} cal/1000 steps"
                  f"  {bits:3.0f} bits", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="verify,orbits,weyl")
    parser.add_argument("--lengths", default="1000,3000,10000")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    for workload in filter(None, args.workloads.split(",")):
        values: dict[str, list[float]] = {}
        bad = 0
        for seed in range(lo, hi + 1):
            result, raw, elapsed = run(workload, seed, 0)
            bad += (not result["correct"]) + result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            values.setdefault("raw round s", []).append(statistics.median(raw["round_s"]))
            values.setdefault("calib.op_s", []).append(statistics.median(raw["kernel_s"]))
            values.setdefault("process s", []).append(elapsed)
        print(f"## {workload}: seeds {lo}-{hi}, {bad} failed or incorrect, "
              f"longest process {max(values['process s']):.1f} s")
        for name, vs in values.items():
            m, s = spread(vs)
            print(f"{name:>14}  median {m:12.5g}  spread {s:7.4f}")
        result, _, elapsed = run(workload, lo, 1)
        print(f"traced run, seed {lo}, {elapsed:.1f} s:")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.lengths:
        length_scan([int(n) for n in args.lengths.split(",")])
    return 0


if __name__ == "__main__":
    sys.exit(main())
