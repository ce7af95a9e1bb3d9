"""The three workloads: their inputs, their timed operations and their checks.

A workload is built from the benchmark seed.  It runs in rounds; a round is
a fixed list of operations, and every operation is one call into nilflow.
The package receives only substitutions, seeds, sizes and textual start
data; the expected outputs are derived in :mod:`checks`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path

import checks

FIBONACCI = "a->ab;b->a"
ORBIT_KINDS = ("skew", "strip", "translation", "flow")
ORBIT_FORMATS = ("csv", "jsonl")
SECTION_ROWS = "section-rows.json"  # written by the benchmark, not nilflow

# Sizes of the full benchmark and of the quick self-test mode.  Orbits are
# 1000 iterates, not the CLI default of 10 000: the cost per step is the same
# at both lengths, and a round stays near 5 s (README.md, "Orbit length").
SIZES = {
    "orbits": {"full": 1000, "quick": 30},     # iterates per orbit
    "weyl": {"full": 1_000_000, "quick": 10_000},  # N of the Weyl sums
}
WEYL_RADIUS = 3


def _cli(argv: list[str]) -> None:
    """Run one nilflow command in-process; a non-zero exit is a failed op."""
    from nilflow import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"nilflow {' '.join(argv)} exited with {rc}")


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Workload:
    """Rounds of operations writing below ``out``.

    ``ops(r)`` lists (label, callable) pairs for round ``r``;
    ``finish_round(r)`` runs after each round, outside the timed region;
    ``fail(message)`` records a fault found outside the checks, and
    ``errors()`` returns what the output checks found.
    """

    name = ""

    def __init__(self, seed: int, out: Path, quick: bool = False):
        self.seed = seed
        self.out = Path(out)
        self._errors: list[str] = []
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        import nilflow.cli  # noqa: F401  (the import is part of set-up)

    def ops(self, r: int) -> list:
        raise NotImplementedError

    def finish_round(self, r: int) -> None:
        raise NotImplementedError

    def fail(self, message: str) -> None:
        self._errors.append(message)

    def errors(self) -> list[str]:
        return self._errors


class Verify(Workload):
    """``nilflow verify`` on seeds a, b, a per round, a and b derived from the
    benchmark seed; the repeat of a must give a byte-identical report."""

    name = "verify"

    def __init__(self, seed: int, out: Path, quick: bool = False):
        super().__init__(seed, out, quick)
        self._rng = random.Random(f"verify:{seed}")
        self._seeds: list[int] = []

    def seeds_of(self, r: int) -> tuple[int, int, int]:
        while len(self._seeds) < 2 * (r + 1):
            self._seeds.append(self._rng.randrange(2 ** 32))
        a, b = self._seeds[2 * r: 2 * r + 2]
        return a, b, a

    def _dir(self, r: int, i: int) -> Path:
        return self.out / f"round{r}" / f"op{i}"

    def ops(self, r: int) -> list:
        return [(f"verify:{s}", lambda d=self._dir(r, i), s=s: _cli(
            ["verify", "--seed", str(s), "--out", str(d)]))
            for i, s in enumerate(self.seeds_of(r))]

    def finish_round(self, r: int) -> None:
        a, b, _ = self.seeds_of(r)
        report = [self._dir(r, i) / "verify-report.json" for i in range(3)]
        self._errors.extend(checks.check_verify_reports(report[0], report[2], a))
        self._errors.extend(checks.check_verify_reports(report[1], report[1], b))
        shutil.rmtree(self.out / f"round{r}")


class Orbits(Workload):
    """Equal-length exact orbits: four CLI kinds in both formats, plus the
    Sigma-section return map, whose orbit has no CLI kind."""

    name = "orbits"

    def __init__(self, seed: int, out: Path, quick: bool = False,
                 length: int | None = None):
        super().__init__(seed, out, quick)
        from nilflow import SigmaSection, eigen_data, factor, parse_substitution

        self.length = length or SIZES["orbits"]["quick" if quick else "full"]
        rng = random.Random(f"orbits:{seed}")

        def q(den: int, lo: int = 0) -> Fraction:
            return Fraction(rng.randrange(lo, den), den)

        # fixed denominators keep coefficient heights alike across seeds
        self.params = {
            "skew": {},
            "strip": {"s": q(7, -7), "theta": q(7)},
            "translation": {"start": (q(7), q(7), q(7))},
            "flow": {"start": (q(7), q(7), q(7)), "step": q(5, 1)},
            "section": {"r": q(97), "zoff": q(98) - Fraction(1, 2)},
        }
        config = self.out / "strip-config.json"
        config.write_text(json.dumps(
            {k: str(v) for k, v in self.params["strip"].items()}))
        extra = {
            "skew": [],
            "strip": ["--config", str(config)],
            "translation": ["--start", self._point(self.params["translation"]["start"])],
            "flow": ["--start", self._point(self.params["flow"]["start"]),
                     "--step", str(self.params["flow"]["step"])],
        }
        self._argv = {
            (kind, fmt): ["orbit", "--kind", kind, "--iters", str(self.length),
                          "--format", fmt, "--seed", str(seed), *extra[kind]]
            for kind in ORBIT_KINDS for fmt in ORBIT_FORMATS
        }
        data = eigen_data(factor(parse_substitution(FIBONACCI)))
        self.section = SigmaSection(data)
        sp = self.params["section"]
        self.section_start = self.section.point(
            data.s_a + (data.s_b - data.s_a) * sp["r"], sp["zoff"])
        self.section_rows: list = []
        self.rounds = 0  # rounds finished; round n writes below round_dir(n)
        self._expected: dict | None = None
        self._floats: dict = {}
        self._checks: list[str] | None = None

    @staticmethod
    def _point(xyz) -> str:
        return "[" + ", ".join(str(c) for c in xyz) + "]"

    def _section_orbit(self) -> None:
        p, rows = self.section_start, []
        for _ in range(self.length):
            rec = self.section.return_map(p)
            rows.append((str(p.s), str(p.zoff), str(rec.time)))
            p = rec.point
        rows.append((str(p.s), str(p.zoff), ""))
        self.section_rows = rows

    def ops(self, r: int) -> list:
        # keyed by rounds finished, not r: a traced run repeats round 0
        d = str(self.round_dir(self.rounds))
        out = [(f"{kind}.{fmt}", lambda a=argv: _cli([*a, "--out", d]))
               for (kind, fmt), argv in self._argv.items()]
        out.append(("section", self._section_orbit))
        return out

    def round_dir(self, n: int) -> Path:
        return self.out / f"round{n}"

    def finish_round(self, r: int) -> None:
        """Save the section rows beside the CLI outputs of the round.  Every
        round stays on disk and is checked by :meth:`errors` once the run is
        measured, so the closed forms never sit in memory under the peak RSS."""
        d = self.round_dir(self.rounds)
        d.mkdir(parents=True, exist_ok=True)
        (d / SECTION_ROWS).write_text(json.dumps(self.section_rows))
        self.section_rows = []
        self.rounds += 1

    def errors(self) -> list[str]:
        if self._checks is None:
            self._checks = self.check_outputs()
        return self._errors + self._checks

    def check_outputs(self) -> list[str]:
        """Exact outputs: round 0 against the closed forms, later rounds by
        digest against round 0.  CSV floats: every round against the closed
        forms, since float export may differ in the last digits between runs."""
        if self._expected is None:
            self._expected = {k: checks.expected_orbit(k, self.params[k], self.length)
                              for k in ORBIT_KINDS}
            self._floats = {k: [[float(c) for c in row] for row in rows_k]
                            for k, rows_k in self._expected.items()}
        errors: list[str] = []
        d = self.round_dir(0)
        rows = json.loads((d / SECTION_ROWS).read_text())
        errors.extend(checks.check_section_rows(rows, self.params["section"], self.length))
        for kind in ORBIT_KINDS:
            errors.extend(checks.check_orbit_jsonl(
                d / f"orbit-{kind}.jsonl", kind, self._expected[kind], self.seed))
        first = self._exact_digest(0)
        for r in range(self.rounds):
            if r and self._exact_digest(r) != first:
                errors.append(f"orbits round {r}: exact output differs from round 0")
            for kind in ORBIT_KINDS:
                errors.extend(checks.check_orbit_csv(
                    self.round_dir(r) / f"orbit-{kind}.csv", kind, self._floats[kind]))
        return errors

    def _exact_digest(self, n: int) -> str:
        d = self.round_dir(n)
        return _digest([*(d / f"orbit-{kind}.jsonl" for kind in ORBIT_KINDS),
                        d / SECTION_ROWS])


class Weyl(Workload):
    """``nilflow equidistribution`` at N = 10^6, radius 3: numpy float sums."""

    name = "weyl"

    def __init__(self, seed: int, out: Path, quick: bool = False):
        super().__init__(seed, out, quick)
        self.n_iter = SIZES["weyl"]["quick" if quick else "full"]
        self._reference: Path | None = None
        self._checked = False
        self._argv = ["equidistribution", "--iters", str(self.n_iter),
                      "--radius", str(WEYL_RADIUS), "--format", "jsonl",
                      "--seed", str(seed)]

    def ops(self, r: int) -> list:
        d = str(self.round_dir(r))
        return [("equidistribution", lambda: _cli([*self._argv, "--out", d]))]

    def round_dir(self, r: int) -> Path:
        return self.out / f"round{min(r, 1)}"

    def finish_round(self, r: int) -> None:
        """Keep the first table for the independent check at the end (it
        allocates more than the workload); later tables must match it."""
        table = self.round_dir(r) / "weyl-sums.json"
        if self._reference is None:
            self._reference = self.out / "weyl-sums-first.json"
            shutil.copyfile(table, self._reference)
        else:
            self._errors.extend(checks.check_weyl_repeat(table, self._reference))

    def errors(self) -> list[str]:
        if self._reference is not None and not self._checked:
            self._checked = True
            self._errors.extend(checks.check_weyl_report(
                self._reference, self.n_iter, WEYL_RADIUS))
        return self._errors


WORKLOADS = {w.name: w for w in (Verify, Orbits, Weyl)}
