"""Self-test of the benchmark: quick runs of every workload, and proof that
each output check rejects a corrupted output.

    python3 perfbench/selftest.py

Takes about a minute (one quick ``verify`` run executes the full battery
three times).  Prints one line per test and exits 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_out" / "selftest"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def _run(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def quick_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("orbits", "weyl", "verify"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if workload == "verify" and trace:
                continue  # the traced battery is covered by the full runs
            done = _run([str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace), "--quick"])
            try:
                result = json.loads(done.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            names = {m["name"] for m in spec[key]}
            expect(done.returncode == 0 and result.get("correct") is True
                   and result.get("failed") == 0 and result.get("attempted", 0) >= 1
                   and set(result.get("metrics", {})) == names,
                   f"quick run {workload} --trace {trace} is correct and reports "
                   f"every {key} metric")


def _corrupt_digit(text: str, line_no: int, after: int = 0) -> str:
    """Change one digit of line ``line_no``, the first digit past column ``after``."""
    lines = text.split("\n")
    line = lines[line_no]
    i = next(i for i in range(after, len(line)) if line[i].isdigit())
    lines[line_no] = line[:i] + str((int(line[i]) + 3) % 10) + line[i + 1:]
    return "\n".join(lines)


def orbit_checks() -> None:
    work = workloads.Orbits(5, WORK / "orbits", quick=True)
    for r in range(2):
        for _, op in work.ops(r):
            op()
        rows = list(work.section_rows)
        work.finish_round(r)
    expect(work.errors() == [], "quick orbits pass their closed-form checks")
    for kind in workloads.ORBIT_KINDS:
        expected = work._expected[kind]
        for r in range(2):
            jsonl = work.round_dir(r) / f"orbit-{kind}.jsonl"
            text = jsonl.read_text()
            # the digit after the last '"u": "' or '"x": "' belongs to an exact value
            line = text.split("\n")[7]
            jsonl.write_text(_corrupt_digit(
                text, 7, line.index('": "', line.index('"seed"')) + 4))
            if r == 0:
                expect(checks.check_orbit_jsonl(jsonl, kind, expected, work.seed) != [],
                       f"one digit changed in an exact {kind} row is rejected")
            else:
                expect(any("round 1" in e for e in work.check_outputs()),
                       f"one digit changed in a later round's exact {kind} row is rejected")
            jsonl.write_text(text)
        csv_path = work.round_dir(1) / f"orbit-{kind}.csv"
        text = csv_path.read_text()
        # third digit after the decimal point of the first float column
        line = text.split("\n")[8]
        csv_path.write_text(_corrupt_digit(text, 8, line.index(".") + 3))
        expect(checks.check_orbit_csv(csv_path, kind, work._floats[kind]) != []
               and work.check_outputs() != [],
               f"one digit changed in a later round's {kind} CSV row is rejected")
        csv_path.write_text(text)
    expect(work.check_outputs() == [], "the restored orbit outputs pass again")
    bad = list(rows)
    s_text, z_text, t_text = bad[4]
    bad[4] = (_corrupt_digit(s_text, 0), z_text, t_text)
    expect(checks.check_section_rows(bad, work.params["section"], work.length) != [],
           "one digit changed in a section row is rejected")
    bad = list(rows)
    bad[2] = (rows[2][0], rows[2][1], rows[3][0])
    expect(checks.check_section_rows(bad, work.params["section"], work.length) != [],
           "a section return time outside {t_a, t_b} is rejected")


def weyl_checks() -> None:
    work = workloads.Weyl(5, WORK / "weyl", quick=True)
    for _, op in work.ops(0):
        op()
    work.finish_round(0)
    expect(work.errors() == [], "quick Weyl table passes its independent check")
    table = work.out / "weyl-sums-first.json"
    report = json.loads(table.read_text())
    for kind in ("skew", "nilflow"):
        moduli = report[kind]["moduli"]
        lo, hi = min(moduli, key=moduli.get), max(moduli, key=moduli.get)
        swapped = json.loads(json.dumps(report))
        swapped[kind]["moduli"][lo], swapped[kind]["moduli"][hi] = moduli[hi], moduli[lo]
        path = WORK / f"weyl-swapped-{kind}.json"
        path.write_text(json.dumps(swapped))
        expect(checks.check_weyl_report(path, work.n_iter, workloads.WEYL_RADIUS) != [],
               f"two swapped {kind} Weyl moduli are rejected")
    escalated = json.loads(json.dumps(report))
    escalated["skew"]["escalated"] = True
    path = WORK / "weyl-escalated.json"
    path.write_text(json.dumps(escalated))
    expect(checks.check_weyl_report(path, work.n_iter, workloads.WEYL_RADIUS) != [],
           "an escalated Weyl table is rejected")


def verify_checks() -> None:
    work = workloads.Verify(5, WORK / "verify", quick=True)
    first, repeat = work.out / "first.json", work.out / "repeat.json"
    label, op = work.ops(0)[0]
    op()
    shutil.copyfile(work.out / "round0" / "op0" / "verify-report.json", first)
    shutil.copyfile(first, repeat)
    seed = work.seeds_of(0)[0]
    expect(checks.check_verify_reports(first, repeat, seed) == [],
           "a real verify report passes")
    report = json.loads(first.read_text())
    report["checks"][6]["passed"] = False
    bad = work.out / "bad.json"
    bad.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    expect(checks.check_verify_reports(bad, bad, seed) != [],
           "a report with one check set to false is rejected")
    repeat.write_text(first.read_text().replace('"seed"', '"seed" ', 1))
    expect(checks.check_verify_reports(first, repeat, seed) != [],
           "a repeated-seed report that differs by one byte is rejected")


def isolation_checks() -> None:
    done = _run(["-c", "import sys; import run; run.calibration_kernel(); "
                 "sys.exit('nilflow' in sys.modules)"], cwd=BENCH_DIR)
    expect(done.returncode == 0, "the calibration kernel runs without nilflow")
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _run([f"{BENCH_DIR.name}/run.py", "--workload", "orbits", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(done.returncode != 0 and "{" not in done.stdout,
           "without the package sources the benchmark fails without a result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    isolation_checks()
    orbit_checks()
    weyl_checks()
    verify_checks()
    quick_runs()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
