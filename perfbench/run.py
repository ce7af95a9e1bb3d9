"""Benchmark of nilflow: one workload per process, timed against a calibration kernel.

    python3 perfbench/run.py --workload {verify,orbits,weyl} --seed N \\
        --seconds S --trace {0,1} [--quick]

Run from any directory; nilflow is imported from ``src/`` next to this
directory and outputs go to ``.perfbench_out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; progress goes to standard error.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

import time

T_START = time.perf_counter()  # set-up is timed from the interpreter's first line

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6           # fresh interpreters besides this one
STOP_STARTING_AFTER = 120  # seconds: never start a round later than this


def calibration_kernel() -> int:
    """Fixed stdlib-only work of about 40 ms, never touching nilflow.

    A Fraction recurrence (convergents of 1/phi, folded into a running sum
    mod 1 whose denominators grow to a few hundred bits) over a pool of live
    objects, plus a short integer loop.  Multi-limb Fraction arithmetic with
    allocation is what nilflow's exact layers spend their time on; in
    interleaved tests on a shared machine this kernel's speed followed
    theirs more closely than small-integer or small-Fraction loops did, so
    op_time / kernel_time cancels much of the drift (see README.md).
    """
    x, s, pool = Fraction(1), Fraction(0), []
    for i in range(470):
        x = 1 / (1 + x) if i % 150 else Fraction(1)
        pool.append((x, Fraction(i, 7), [i] * 20))
    for j in range(0, 470 * 9, 9):
        a, b, _ = pool[j % 470]
        s = (s + a * b) % 1
    h = 0
    for i in range(20_000):
        h = (h * 1103515245 + i) & 0xFFFFFFFF
    return (s.numerator % 1000003) ^ h


def _timed_kernel(expected: int) -> float:
    t0 = time.perf_counter()
    value = calibration_kernel()
    dt = time.perf_counter() - t0
    if value != expected:
        raise RuntimeError("calibration kernel returned a different value")
    return dt


def _import_nilflow() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import nilflow
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import nilflow from {SRC}: {exc}")
    if not Path(nilflow.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: nilflow imported from {nilflow.__file__}, not {SRC}")


class Round(NamedTuple):
    cal: float              # sum of the per-op quotients: the round's wall_cal
    quotients: list[float]  # op seconds / median kernel seconds around the op
    raw_s: float            # raw seconds of the round's ops
    measured_s: float       # wall seconds of the round, kernel bursts included


class Runner:
    """Runs whole rounds; each op is bracketed by bursts of calibration kernel runs.

    A single kernel run jitters by 10-20% on a shared machine, so each
    burst lasts about KERNEL_SHARE of the op it follows (at least
    KERNEL_MIN runs), and an op is divided by the median of the bursts on
    either side of it.
    """

    KERNEL_SHARE = 0.1
    KERNEL_MIN = 3

    def __init__(self, work):
        self.work = work
        self.kernel_value = calibration_kernel()
        self.kernel_s: list[float] = []
        self.attempted = 0
        self.failed = 0

    def _burst(self, op_s: float) -> list[float]:
        gc.collect()
        typical = statistics.median(self.kernel_s) if self.kernel_s else 0.04
        n = max(self.KERNEL_MIN, round(self.KERNEL_SHARE * op_s / typical))
        runs = [_timed_kernel(self.kernel_value) for _ in range(n)]
        self.kernel_s.extend(runs)
        return runs

    def run_round(self, r: int) -> Round:
        quotients, raw = [], 0.0
        t_round = time.perf_counter()
        before = self._burst(0.0)
        for label, op in self.work.ops(r):
            gc.collect()
            t0 = time.perf_counter()
            try:
                op()
            except Exception as exc:  # a failed op is counted, not fatal
                self.failed += 1
                print(f"perfbench: {self.work.name} round {r} op {label} failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
            dt = time.perf_counter() - t0
            self.attempted += 1
            raw += dt
            after = self._burst(dt)
            quotients.append(dt / statistics.median(before + after))
            before = after
        measured = time.perf_counter() - t_round
        try:
            self.work.finish_round(r)
        except (OSError, ValueError, KeyError) as exc:
            self.work.fail(f"round {r}: {type(exc).__name__}: {exc}")
        return Round(sum(quotients), quotients, raw, measured)

    def run_for(self, seconds: float, started: float, spent: float = 0.0) -> list[Round]:
        """Rounds 0, 1, ... until the next one would overrun ``seconds`` of measuring."""
        results = []
        last = 0.0
        while not results or (spent + last <= seconds
                              and time.perf_counter() - started < STOP_STARTING_AFTER):
            results.append(self.run_round(len(results)))
            last = results[-1].measured_s
            spent += last
        return results


def _probe_setup(workload: str, seed: int, quick: bool) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--probe-setup"] + (["--quick"] if quick else [])
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["verify", "orbits", "weyl"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes (self-test)")
    parser.add_argument("--probe-setup", action="store_true",
                        help="build the inputs, print the set-up seconds and exit")
    args = parser.parse_args(argv)

    _import_nilflow()
    from workloads import WORKLOADS

    name = args.workload + ("-probe" if args.probe_setup else "")
    work = WORKLOADS[args.workload](args.seed, OUT / name, quick=args.quick)
    setup_here = time.perf_counter() - T_START
    if args.probe_setup:
        print(repr(setup_here))
        return 0

    started = time.perf_counter()
    runner = Runner(work)
    if args.trace:
        from tracing import Tracer

        untraced = runner.run_for(0, started)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_for(args.seconds, started, spent=untraced[0].measured_s)
        finally:
            tracer.uninstall()
        ops = sum(len(r.quotients) for r in traced)
        metrics = tracer.metrics(rounds=len(traced), ops=ops)
        metrics["calib.op_s"] = (statistics.median(runner.kernel_s), "s")
        # round 0 ran untraced first, so the difference is on equal work
        metrics["trace.overhead_cal"] = (traced[0].cal - untraced[0].cal, "cal")
        rounds = untraced + traced
        tracer.save(OUT / f"{args.workload}-trace.npz")
    else:
        setups = [setup_here]
        setups += [_probe_setup(args.workload, args.seed, args.quick)
                   for _ in range(1 if args.quick else SETUP_PROBES)]
        rounds = runner.run_for(args.seconds, started)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_cal": (statistics.median(r.cal for r in rounds), "cal"),
            "op_p50_cal": (statistics.median(q for r in rounds for q in r.quotients), "cal"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    try:
        errors = work.errors()
    except Exception as exc:  # a check that cannot read the output rejects it
        errors = [f"{type(exc).__name__}: {exc}"]
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    if args.trace:
        metrics["run.wall_s"] = (time.perf_counter() - T_START, "s")
        metrics["run.cpu_s"] = (time.process_time(), "s")
    # raw figures for reference only (README.md); the metrics are quotients
    (OUT / f"{args.workload}-run.json").write_text(json.dumps({
        "seed": args.seed, "trace": args.trace,
        "round_s": [r.raw_s for r in rounds], "cal": [r.cal for r in rounds],
        "quotients": [r.quotients for r in rounds], "kernel_s": runner.kernel_s}))
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{runner.attempted} ops, raw round median "
          f"{statistics.median(r.raw_s for r in rounds):.3f} s, kernel median "
          f"{statistics.median(runner.kernel_s) * 1e3:.2f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: _metric(v, u) for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
