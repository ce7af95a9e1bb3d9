"""Independent checks of the workloads' outputs.

Every expected value is derived here from a closed form or from the paper's
definition, in the exact arithmetic of :mod:`qfield` (or in mpmath and
64-bit fixed point for the Weyl sums).  Nothing is imported from the package
under test and nothing is compared with a stored copy of earlier output.
Each ``check_*`` function returns a list of error strings; empty means pass.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

from qfield import INV_PHI, INV_PHI2, INV_PHI3, PHI, QF, parse_golden

# CSV floats carry 17 significant digits of a certified float export; every
# coordinate lies in [0, 1), so 1e-12 absolute leaves four orders of margin.
CSV_TOL = 1e-12
# |S_N|/N from the package against the independent sums below.  The package
# accumulates the skew fiber with a float cumsum over 10^6 terms; measured
# differences stay below 1e-8.
WEYL_TOL = 1e-6
WEYL_THRESHOLD = 0.05
MAX_ERRORS = 5

# Fibonacci eigenflow (a->ab; b->a): expanding vector (alpha, beta) with
# alpha + beta = 1 and its central coefficient gamma.
ALPHA = INV_PHI
BETA = INV_PHI2
GAMMA = PHI - Fraction(3, 2)
# Section along the contracting vector (alpha', beta') = (1, -phi): endpoints
# s_a = beta/delta, s_b = -alpha/delta with delta = alpha*beta' - alpha'*beta.
DELTA = ALPHA * (-PHI) - BETA
S_A = BETA / DELTA
S_B = -ALPHA / DELTA
SECTION_TIMES = {(3 * PHI + 1) / 5, (PHI + 2) / 5}
HALF = Fraction(1, 2)


def _canonical(x: QF, y: QF, z: QF) -> tuple[QF, QF, QF]:
    """Representative in [0,1)^3 of the coset [x,y,z]*Gamma (right action)."""
    n, m = -x.floor(), -y.floor()
    z1 = z + x * m
    return x + n, y + m, z1 - z1.floor()


def _translate_orbit(start, times) -> list[tuple[QF, QF, QF]]:
    """canon(exp(t v) * start) for each t, from exp(t v) = [t a, t b, t g + t^2 a b / 2]."""
    x0, y0, z0 = start
    ab2 = ALPHA * BETA * HALF
    rows = []
    for t in times:
        x, y = ALPHA * t, BETA * t
        z = GAMMA * t + ab2 * (t * t)
        rows.append(_canonical(x + x0, y + y0, z + z0 + x * y0))
    return rows


def _strip_orbit(s, theta, length: int) -> list[tuple[QF, QF]]:
    """Two-branch strip map: u += 1/phi or -1/phi^2, v += a1 u + a0, mod 1."""
    a0_left = theta - INV_PHI + (s + 1) * PHI
    a0_right = theta + (s + 1) * INV_PHI
    u, v = QF.rational(0, 5), QF.rational(0, 5)
    rows = [(u, v)]
    for _ in range(length):
        if u < INV_PHI2:
            u, v = (u + INV_PHI).frac(), (v - PHI * u + a0_left).frac()
        else:
            u, v = (u - INV_PHI2).frac(), (v - INV_PHI * u + a0_right).frac()
        rows.append((u, v))
    return rows


def expected_orbit(kind: str, params: dict, length: int) -> list[tuple]:
    ks = range(length + 1)
    if kind == "skew":
        return [((k * INV_PHI2).frac(),
                 (Fraction(k * (k - 1), 2) * INV_PHI2 - k * HALF * INV_PHI3).frac())
                for k in ks]
    if kind == "strip":
        rows = _strip_orbit(params["s"], params["theta"], length)
        # both branch shifts agree mod 1, so the base is the rotation by 1/phi
        for k, (u, _) in enumerate(rows):
            if u != (k * INV_PHI).frac():
                raise AssertionError("strip base is not the golden rotation")
        return rows
    if kind == "translation":
        return _translate_orbit(params["start"], ks)
    if kind == "flow":
        return _translate_orbit(params["start"], [k * params["step"] for k in ks])
    raise ValueError(f"unknown orbit kind {kind!r}")


def _coords(kind: str) -> tuple[str, ...]:
    return ("u", "v") if kind in ("skew", "strip") else ("x", "y", "z")


def check_orbit_jsonl(path: Path, kind: str, expected: list, seed: int) -> list[str]:
    """Exact strings against the exact closed-form rows."""
    names = _coords(kind)
    errors = []
    lines = Path(path).read_text().splitlines()
    if len(lines) != len(expected):
        return [f"{path.name}: {len(lines)} rows, expected {len(expected)}"]
    for k, (line, want) in enumerate(zip(lines, expected)):
        rec = json.loads(line)
        if rec.get("k") != k or rec.get("seed") != seed:
            errors.append(f"{path.name} row {k}: bad k/seed {line!r}")
            continue
        try:
            got = tuple(parse_golden(rec[n]) for n in names)
        except (KeyError, ValueError) as exc:
            errors.append(f"{path.name} row {k}: {exc}")
            continue
        if got != want:
            errors.append(f"{path.name} row {k}: {line!r} differs from the closed form")
        if len(errors) >= MAX_ERRORS:
            break
    return errors


def check_orbit_csv(path: Path, kind: str, expected_floats: list) -> list[str]:
    """Float columns within CSV_TOL of the closed-form rows (given as floats)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["k", *_coords(kind)]
    if not rows or rows[0] != header:
        return [f"{path.name}: header {rows[:1]!r}, expected {header!r}"]
    if len(rows) != len(expected_floats) + 1:
        return [f"{path.name}: {len(rows) - 1} rows, expected {len(expected_floats)}"]
    errors = []
    for k, (row, want) in enumerate(zip(rows[1:], expected_floats)):
        try:
            bad = int(row[0]) != k or len(row) != len(header) or any(
                abs(float(c) - w) > CSV_TOL for c, w in zip(row[1:], want))
        except ValueError:
            bad = True
        if bad:
            errors.append(f"{path.name} row {k}: {row!r} differs from the closed form")
        if len(errors) >= MAX_ERRORS:
            break
    return errors


def check_section_rows(rows: list[tuple[str, str, str]], params: dict,
                       length: int) -> list[str]:
    """A two-interval exchange is a rotation of [s_a, s_b) by s_b."""
    width = S_B - S_A
    s0 = S_A + width * params["r"]
    if len(rows) != length + 1:
        return [f"section: {len(rows)} rows, expected {length + 1}"]
    errors = []
    for k, (s_text, z_text, t_text) in enumerate(rows):
        s, zoff = parse_golden(s_text), parse_golden(z_text)
        x = (s0 - S_A + k * S_B) / width
        want = S_A + width * (x - x.floor())
        if s != want:
            errors.append(f"section row {k}: s = {s_text} differs from the rotation")
        if not (-HALF <= zoff < HALF):
            errors.append(f"section row {k}: zoff = {z_text} outside [-1/2, 1/2)")
        if k == 0 and zoff != params["zoff"]:
            errors.append(f"section row 0: zoff = {z_text} is not the start")
        if k < length and parse_golden(t_text) not in SECTION_TIMES:
            errors.append(f"section row {k}: return time {t_text} not in "
                          "{(3l+1)/5, (l+2)/5}")
        if len(errors) >= MAX_ERRORS:
            break
    return errors


def _fixed64(x: QF) -> int:
    """floor(2^64 x) mod 2^64, exact."""
    return x.scaled_floor(64) % (1 << 64)


def skew_weyl_moduli(chars, n_iter: int) -> dict:
    """|S_N|/N along the golden skew orbit from (0, 0), phases in 64-bit fixed point.

    u_k = {k/phi^2} and v_k = {k(k-1)/(2 phi^2) - k/(2 phi^3)} are reduced
    mod 1 exactly on uint64 words (wrapping multiplication is reduction
    mod 1), so each phase errs by less than 2^-31 turns, independently of
    the float cumsum the package uses.
    """
    import numpy as np

    c1, c2 = _fixed64(INV_PHI2), _fixed64(INV_PHI3 * HALF)
    c1_hi = _fixed64(INV_PHI2 * (1 << 32))
    k = np.arange(n_iter, dtype=np.uint64)
    u = k * np.uint64(c1)
    # k(k-1)/2 reaches 2^39; split it so each product errs by < 2^-32 turns
    tri = (k * (k - np.uint64(1))) // np.uint64(2)
    v = ((tri >> np.uint64(32)) * np.uint64(c1_hi)
         + (tri & np.uint64(0xFFFFFFFF)) * np.uint64(c1) - k * np.uint64(c2))
    scale = 2 * np.pi / 2.0 ** 64
    out = {}
    for p, q in chars:
        phase = u * np.uint64(p % (1 << 64)) + v * np.uint64(q % (1 << 64))
        out[(p, q)] = abs(np.exp(1j * (phase.astype(np.float64) * scale)).sum()) / n_iter
    return out


def nilflow_weyl_moduli(chars, n_iter: int) -> dict:
    """|sum_k e(k theta)|/N = |sin(pi N theta) / (N sin(pi theta))|, theta = sqrt2 (p alpha + q beta)."""
    import mpmath

    with mpmath.workdps(40):
        phi = (1 + mpmath.sqrt(5)) / 2
        alpha, beta, step = 1 / phi, 1 / phi ** 2, mpmath.sqrt(2)
        return {
            (p, q): float(abs(mpmath.sin(mpmath.pi * n_iter * th)
                              / (n_iter * mpmath.sin(mpmath.pi * th))))
            for p, q in chars
            for th in [step * (p * alpha + q * beta)]
        }


def character_grid(radius: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(-radius, radius + 1)
            for q in range(-radius, radius + 1) if (p, q) != (0, 0)]


def check_weyl_report(path: Path, n_iter: int, radius: int) -> list[str]:
    report = json.loads(Path(path).read_text())
    chars = character_grid(radius)
    independent = {"skew": skew_weyl_moduli, "nilflow": nilflow_weyl_moduli}
    errors = []
    for kind, moduli_of in independent.items():
        rep = report.get(kind)
        if not isinstance(rep, dict):
            errors.append(f"weyl: no {kind} table")
            continue
        moduli = rep.get("moduli", {})
        if rep.get("escalated") is not False or rep.get("n_iter") != n_iter:
            errors.append(f"weyl {kind}: escalated or wrong N ({rep.get('n_iter')})")
        if sorted(moduli) != sorted(f"{p},{q}" for p, q in chars):
            errors.append(f"weyl {kind}: character set differs from radius {radius}")
            continue
        worst = max(moduli.values())
        if rep.get("worst_modulus") != worst or not worst < WEYL_THRESHOLD:
            errors.append(f"weyl {kind}: worst modulus {rep.get('worst_modulus')} "
                          f"(max of table {worst}, threshold {WEYL_THRESHOLD})")
        for (p, q), want in moduli_of(chars, n_iter).items():
            got = moduli[f"{p},{q}"]
            if not abs(got - want) <= WEYL_TOL:
                errors.append(f"weyl {kind} ({p},{q}): {got!r} but independent sum {want!r}")
                if len(errors) >= MAX_ERRORS:
                    return errors
    return errors


def check_weyl_repeat(path: Path, reference: Path) -> list[str]:
    """A repeated run must give the same table up to WEYL_TOL."""
    got, ref = (json.loads(Path(p).read_text()) for p in (path, reference))
    errors = []
    for kind, rep in ref.items():
        other = got.get(kind, {})
        same = {k: v for k, v in rep.items() if k != "moduli"} == {
            k: v for k, v in other.items() if k != "moduli"}
        moduli = other.get("moduli", {})
        if not same or sorted(moduli) != sorted(rep["moduli"]) or any(
                not abs(moduli[k] - v) <= WEYL_TOL for k, v in rep["moduli"].items()):
            errors.append(f"weyl {kind}: a repeated run differs from the checked one")
    return errors


VERIFY_CHECKS = (
    "group.suite", "flows.exchange", "factor.closed_form", "eigen.conjugation",
    "surface.identity", "strip.induction", "sigma.iet", "sigma.self_induction",
    "diag.section", "chart.skew_conjugacy", "plane.suite", "line.broken",
    "decompose.roundtrip",
)


def check_verify_reports(first: Path, repeat: Path, seed: int) -> list[str]:
    """Every check passed, and a repeated seed gives a byte-identical report."""
    text = Path(first).read_bytes()
    report = json.loads(text)
    errors = []
    if report.get("seed") != seed:
        errors.append(f"verify: report seed {report.get('seed')} != {seed}")
    names = [c.get("name") for c in report.get("checks", [])]
    if names != list(VERIFY_CHECKS):
        errors.append(f"verify: checks {names} differ from the battery")
    failing = [c.get("name") for c in report.get("checks", []) if c.get("passed") is not True]
    if failing or report.get("passed") is not True:
        errors.append(f"verify seed {seed}: failing checks {failing}")
    if Path(repeat).read_bytes() != text:
        errors.append(f"verify seed {seed}: reports of a repeated seed differ")
    return errors
