"""Command line front end.

Commands: ``analyze``, ``orbit``, ``broken-line``, ``induce``, ``verify``
and ``equidistribution``.  Configuration comes from an optional JSON file
(--config) with individual flags taking precedence.  A command has the flags
that it reads, plus ``--out`` on every command and ``--seed`` on
``equidistribution`` too; a config key of another command is a parse
error.  Within ``orbit``, ``--substitution`` and ``--start`` belong to the
kinds translation and flow, ``--step`` to flow, ``--s`` and ``--theta`` to
strip; such a flag or config key given to another kind is a parse error
too.  The verify and induce reports and the orbit JSONL records embed the
seed; the other artifacts do not depend on it.  Exact values are emitted
as strings, one text per value whatever its type, floats with 17
significant digits, so equal configurations produce byte-identical
outputs.  Files are written atomically: into ``<name>.tmp``, renamed once
complete.  Orbit rows, row 0 included, are written straight from the
integer numerators of the orbit kernels
(``PiecewiseTorusMap._orbit_parts``, ``heisenberg._translation_parts``) by
``scalar._float_parts`` for CSV and ``scalar._text_parts`` for JSONL, which
give the float and the text of the exact value; the formats differ only in
that converter, the header and the ``%`` format of a row.  A text uses only
``0-9 / + - * l``, so a JSONL line needs no escaping to be what
``json.dumps(record, sort_keys=True)`` writes.  Rows are streamed into the
temp file as they are computed, so the memory of ``orbit`` does not depend
on ``--iters``.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error (also
an ``equidistribution --iters`` or ``--radius`` past the Weyl kernel's
memory budget, or an ``--iters`` whose 10x rerun is; that refusal comes
after the table at N, which decides whether the rerun is needed),
3 hypothesis violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import verification
from .dynamics import (
    GOLDEN_SKEW,
    INV_PHI2,
    WeylSizeError,
    equidistribution_report,
    golden,
    renormalization_check,
    self_induction_check,
    strip_family,
    strip_return_count,
)
from .factorization import (
    EigenSignError,
    HypothesisError,
    check_hypothesis_H,
    eigen_data,
    factor,
    flow_of,
    surface_quadric,
)
from .freegroup import fixed_point_prefix, iter_broken_line_counts, parse_substitution
from .heisenberg import GroupPoint, _translation_parts, exp_point, parse_group_point
from .scalar import GOLDEN, ParseError, _float_parts, _rational, _text_parts, parse_scalar


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def atomic_write(path: Path, lines) -> None:
    """Write the strings of ``lines`` to ``path`` in one pass: into
    ``<path>.tmp``, renamed over ``path`` once complete.  The temp file is
    opened once the first string exists, and any exception removes it, so a
    failed write leaves ``path`` as it was and no other file behind."""
    lines = iter(lines)
    head = next(lines, "")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(head)
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _emit_rows(path: Path, head: str, row_format: str, rows) -> None:
    """``head``, then the line ``row_format % row`` of each row."""
    line = row_format + "\n"
    atomic_write(path, itertools.chain((head,), (line % row for row in rows)))


def emit_csv(path: Path, header: list[str], row_format: str, rows) -> None:
    """The header line, then the line ``row_format % row`` of each row:
    ``%.17g`` writes a float as ``_fmt_float`` does."""
    _emit_rows(path, ",".join(header) + "\n", row_format, rows)


def emit_jsonl(path: Path, seed: int, names, rows) -> None:
    """The orbit records ``{"k": k, "seed": seed, name: text, ...}`` of the
    rows ``(k, text, ...)``, one JSON object per line, byte for byte as
    ``json.dumps(record, sort_keys=True)`` writes them when ``names`` are
    sorted and after "seed" and each text needs no escaping, as every
    ``_text_parts`` text (``0-9 / + - * l``) does."""
    fields = "".join(", " + json.dumps(n).replace("%", "%%") + ': "%s"' for n in names)
    _emit_rows(path, "", '{"k": %d, "seed": ' + json.dumps(seed) + fields + "}", rows)


def emit_report(path: Path, obj) -> None:
    atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n",))


def cmd_analyze(cfg: dict) -> int:
    sub = parse_substitution(cfg["substitution"])
    endo = factor(sub)
    report = check_hypothesis_H(endo)
    rows: list[tuple[str, str, str]] = [
        ("matrix", f"[[{endo.a}, {endo.b}], [{endo.c}, {endo.d}]]", ""),
        ("det", str(endo.det_m()), ""),
        ("e, f", f"{endo.e}, {endo.f}", ""),
    ]
    if not report.passed:
        print(f"substitution: {sub}")
        for name, exact, _ in rows:
            print(f"  {name:12} {exact}")
        print("  hypothesis violated: " + "; ".join(report.failures))
        raise HypothesisError("; ".join(report.failures))
    data = eigen_data(endo)
    quadric = surface_quadric(data)
    rows.append(("context T,D", f"{data.context.trace},{data.context.det}", ""))
    for name, value in [
        ("lam", data.lam), ("lam'", data.lam_prime),
        ("alpha", data.alpha), ("beta", data.beta),
        ("alpha'", data.alpha_p), ("beta'", data.beta_p),
        ("gamma", data.gamma), ("gamma'", data.gamma_p),
        ("Delta", data.delta),
        ("t_a", data.t_a), ("t_b", data.t_b),
        ("s_a", data.s_a), ("s_b", data.s_b),
        ("Q_xx", quadric.qxx), ("Q_xy", quadric.qxy), ("Q_yy", quadric.qyy),
        ("Q_x", quadric.qx), ("Q_y", quadric.qy),
    ]:
        rows.append((name, str(value), _fmt_float(float(value))))
    print(f"substitution: {sub}")
    for name, exact, approx in rows:
        suffix = f"  ~ {approx}" if approx else ""
        print(f"  {name:12} {exact}{suffix}")
    out = cfg["analysis_out"]
    if out:
        emit_report(Path(cfg["out"]) / out, {
            "substitution": str(sub),
            "values": {n: {"exact": e, "float": a} for n, e, a in rows},
        })
    return 0


# An orbit kind returns (names, ctx, dens, parts): the coordinate names, the
# field, and the numerator stream of the kernel, rows 0 .. n, with one
# denominator per coordinate.

def _orbit_rows_translation(cfg: dict, sampled_flow: bool = False):
    """Right cosets of the lattice under the left translation by exp of the
    eigenflow, or by its time-dt flow (``_translation_parts``), from the
    start's representative."""
    data = eigen_data(factor(parse_substitution(cfg["substitution"])))
    vec = flow_of(data, "lam")
    point = (
        _exact(cfg, "start", data.context, parse_group_point)
        if cfg["start"] else GroupPoint(0, 0, 0)
    )
    step = exp_point(vec.scale(_exact(cfg, "step", data.context)) if sampled_flow else vec)
    return ("x", "y", "z"), *_translation_parts(step, point, cfg["iters"])


def _orbit_rows_flow(cfg: dict):
    return _orbit_rows_translation(cfg, sampled_flow=True)


def _orbit_rows_skew(cfg: dict):
    return ("u", "v"), *GOLDEN_SKEW._orbit_parts(golden(0), golden(0), cfg["iters"])


def _orbit_rows_strip(cfg: dict):
    pmap = strip_family(_exact(cfg, "s", GOLDEN), _exact(cfg, "theta", GOLDEN))
    return ("u", "v"), *pmap._orbit_parts(golden(0), golden(0), cfg["iters"])


ORBIT_KINDS = {
    "translation": _orbit_rows_translation,
    "flow": _orbit_rows_flow,
    "skew": _orbit_rows_skew,
    "strip": _orbit_rows_strip,
}


def _orbit_cells(conv, ctx, dens, parts):
    """The rows ``(k, cell, ...)`` of an orbit file: each row of numerators
    ``parts`` over ``dens`` by ``conv``, ``_float_parts`` for CSV or
    ``_text_parts`` for JSONL, which write what ``float`` and ``str`` of the
    row's exact values write."""
    if len(dens) == 2:
        Du, Dv = dens
        for k, (U1, U2, V1, V2) in enumerate(parts):
            yield k, conv(U1, U2, Du, ctx), conv(V1, V2, Dv, ctx)
    else:
        Dx, Dy, Dz = dens
        for k, (X1, X2, Y1, Y2, Z1, Z2) in enumerate(parts):
            yield k, conv(X1, X2, Dx, ctx), conv(Y1, Y2, Dy, ctx), conv(Z1, Z2, Dz, ctx)


def cmd_orbit(cfg: dict) -> int:
    kind, fmt = cfg["kind"], cfg["format"]
    # the kind reads the exact options and checks the kernel's inputs, so a
    # bad one writes no file
    names, *orbit = ORBIT_KINDS[kind](cfg)
    path = Path(cfg["out"]) / f"orbit-{kind}.{fmt}"
    if fmt == "csv":
        emit_csv(path, ["k", *names], "%d" + ",%.17g" * len(names),
                 _orbit_cells(_float_parts, *orbit))
    else:
        emit_jsonl(path, cfg["seed"], names, _orbit_cells(_text_parts, *orbit))
    return 0


def cmd_broken_line(cfg: dict) -> int:
    """The counts of the fixed point's broken line and their projections,
    streamed into broken-line.csv; the sup norm of the projections is
    taken in the same pass and printed once the file is written.  A
    substitution that fails (H) has no projection: its columns and its sup
    norm are nan."""
    sub = parse_substitution(cfg["substitution"])
    n = cfg["length"]
    try:
        word = fixed_point_prefix(sub, n)
    except ValueError as exc:  # not positive, or not prolongable from 'a'
        raise HypothesisError(str(exc)) from exc
    endo = factor(sub)
    report = check_hypothesis_H(endo)
    if report.passed:
        data = eigen_data(endo)
        af, bf = float(data.alpha), float(data.beta)
    else:
        af = bf = float("nan")
    emitted, sup = 0, 0.0

    def rows():
        nonlocal emitted, sup
        for k, (a, b, c) in enumerate(iter_broken_line_counts(word)):
            pu, pv = a - k * af, b - k * bf
            sup = max(sup, abs(pu), abs(pv))
            emitted = k + 1
            yield k, a, b, c, pu, pv

    emit_csv(Path(cfg["out"]) / "broken-line.csv",
             ["k", "a", "b", "c", "proj_u", "proj_v"], "%d,%d,%d,%d,%.17g,%.17g", rows())
    norm = f"{sup:.6f}" if report.passed else "nan (no projection: (H) fails)"
    print(f"emitted {emitted} rows, projection sup norm {norm}")
    return 0


def cmd_induce(cfg: dict) -> int:
    s, s_prime, theta = (_exact(cfg, key, GOLDEN) for key in ("s", "s_prime", "theta"))
    renorm = renormalization_check(s, s_prime, theta)
    # return counts depend on the base rotation only, not on s or theta
    counts = [{"u": str(u), "n": strip_return_count(u)}
              for u in (golden(_rational(i, 63)) for i in range(24)) if u < INV_PHI2]
    sub = parse_substitution(cfg["substitution"])
    data = eigen_data(factor(sub))
    induction = self_induction_check(data, samples=cfg["samples"], seed=cfg["seed"])
    report = {
        "seed": cfg["seed"],
        "renormalization": renorm,
        "return_counts": counts,
        "self_induction": {k: induction[k] for k in
                           ("samples", "containment", "passed", "failures")},
    }
    emit_report(Path(cfg["out"]) / "induce-report.json", report)
    ok = renorm["passed"] and induction["passed"]
    print(f"induce: renormalization {'ok' if renorm['passed'] else 'FAILED'}, "
          f"self-induction {'ok' if induction['passed'] else 'FAILED'}")
    return 0 if ok else 1


def cmd_verify(cfg: dict) -> int:
    results = verification.run_all(cfg["seed"])
    report = {
        "seed": cfg["seed"],
        "passed": all(bool(r.passed) for r in results),
        "checks": [
            {"name": r.name, "passed": bool(r.passed), "details": r.details}
            for r in results
        ],
    }
    emit_report(Path(cfg["out"]) / "verify-report.json", report)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
    return 0 if report["passed"] else 1


def cmd_equidistribution(cfg: dict) -> int:
    """Weyl sums |S_N|/N of every character (p, q) with 0 < max(|p|, |q|) <=
    --radius along two orbits: the sampled nilflow of --substitution, and
    the golden skew product, which is defined for Fibonacci only and so does
    not depend on --substitution."""
    outdir = Path(cfg["out"])
    data = eigen_data(factor(parse_substitution(cfg["substitution"])))
    reports = {}
    for kind in ("skew", "nilflow"):
        rep = equidistribution_report(
            kind, cfg["iters"], radius=cfg["radius"],
            # a config file may give an integer; the report writes a float
            threshold=float(cfg["threshold"]), data=data,
        )
        reports[kind] = rep
        print(f"{kind}: worst |S_N|/N = {rep['worst_modulus']:.6f} "
              f"at N = {rep['n_iter']}{' (escalated)' if rep['escalated'] else ''}")
    if cfg["format"] == "csv":
        emit_csv(outdir / "weyl-sums.csv", ["kind", "p,q", "modulus"], '%s,"%s",%.17g',
                 ((kind, pq, mod) for kind, rep in reports.items()
                  for pq, mod in sorted(rep["moduli"].items())))
    else:
        emit_report(outdir / "weyl-sums.json", reports)
    return 0 if all(r["passed"] for r in reports.values()) else 1


COMMANDS = {
    "analyze": cmd_analyze,
    "orbit": cmd_orbit,
    "broken-line": cmd_broken_line,
    "induce": cmd_induce,
    "verify": cmd_verify,
    "equidistribution": cmd_equidistribution,
}


class Option(NamedTuple):
    """A CLI option: the commands that read it, the JSON types a config file
    may give it, its default, the argparse keywords of its flag (None:
    config file only) and the orbit kinds that read it (None: every kind,
    or not an option of orbit)."""

    commands: tuple[str, ...]
    types: tuple[type, ...]
    default: object
    flag: dict | None
    kinds: tuple[str, ...] | None = None


_ALL = tuple(COMMANDS)
_TEXT, _OPTIONAL_TEXT = (str,), (str, type(None))
_INTEGER, _SCALAR = (int,), (str, int, float)
# in the order of each command's -h; the key of --s-prime is s_prime.  The
# flag of a _SCALAR option takes a value such as -3/7 as the next argument
OPTIONS = {
    "out": Option(_ALL, _TEXT, ".", dict(help="output directory")),
    # equidistribution reads no seed; perfbench's weyl workload passes one
    "seed": Option(("orbit", "induce", "verify", "equidistribution"), _INTEGER, 0,
                   dict(type=int, help="64-bit seed")),
    "samples": Option(("induce",), _INTEGER, 100, dict(type=int)),
    "iters": Option(("orbit", "equidistribution"), _INTEGER, 10_000, dict(type=int)),
    "format": Option(("orbit", "equidistribution"), _TEXT, "csv",
                     dict(choices=["csv", "jsonl"])),
    "substitution": Option(("analyze", "orbit", "broken-line", "induce", "equidistribution"),
                           _TEXT, "a->ab;b->a", dict(help="e.g. 'a->ab;b->a'"),
                           ("translation", "flow")),
    "kind": Option(("orbit",), _TEXT, "translation", dict(choices=sorted(ORBIT_KINDS))),
    "start": Option(("orbit",), _OPTIONAL_TEXT, None, dict(help="group point '[x, y, z]'"),
                    ("translation", "flow")),
    "step": Option(("orbit",), _SCALAR, "1/2",
                   dict(help="flow sampling step (exact scalar)"), ("flow",)),
    "length": Option(("broken-line",), _INTEGER, 200, dict(type=int)),
    "s": Option(("orbit", "induce"), _SCALAR, "-1",
                dict(help="strip parameter s (exact scalar)"), ("strip",)),
    "theta": Option(("orbit", "induce"), _SCALAR, "0",
                    dict(help="strip parameter theta (exact scalar)"), ("strip",)),
    "s_prime": Option(("induce",), _SCALAR, "-1", {}),
    "radius": Option(("equidistribution",), _INTEGER, 3, dict(type=int)),
    "threshold": Option(("equidistribution",), (int, float), 0.05, dict(type=float)),
    # an extra report file written by analyze
    "analysis_out": Option(("analyze",), _OPTIONAL_TEXT, None, None),
}
# sizes, from a flag or the config file, must be at least 1
POSITIVE_KEYS = ("iters", "samples", "length", "radius")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def load_config(args: argparse.Namespace) -> dict:
    """The options of ``args.command``: defaults, then the config file, then
    the flags.  A config key of another command is a parse error, and so is
    a flag or config key of ``orbit`` that the chosen kind does not read."""
    cfg = {key: opt.default for key, opt in OPTIONS.items() if args.command in opt.commands}
    loaded = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad config JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParseError("config must be a JSON object")
        for key, value in loaded.items():
            if key not in OPTIONS:
                raise ParseError(f"unknown config key {key!r}")
            if key not in cfg:
                raise ParseError(f"config key {key!r} is not an option of {args.command}")
            # exact types: JSON true/false must not pass as an integer
            opt = OPTIONS[key]
            if type(value) not in opt.types:
                raise ParseError(
                    f"config key {key!r} must be "
                    f"{' or '.join(t.__name__ for t in opt.types)}, "
                    f"got {type(value).__name__}"
                )
            choices = opt.flag and opt.flag.get("choices")
            if choices and value not in choices:
                raise ParseError(f"config key {key!r} must be one of {choices}, got {value!r}")
        cfg.update(loaded)
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "config") and value is not None}
    cfg.update(flags)
    if args.command == "orbit":
        for key in (*flags, *loaded):
            kinds = OPTIONS[key].kinds
            if kinds is not None and cfg["kind"] not in kinds:
                name = _flag(key) if key in flags else f"config key {key!r}"
                raise ParseError(f"{name} is not an option of orbit --kind {cfg['kind']}")
    for key in POSITIVE_KEYS:
        if cfg.get(key, 1) < 1:
            raise ParseError(f"--{key} must be a positive integer, got {cfg[key]}")
    # |S_N|/N <= 1; NaN fails both comparisons
    if not 0 < cfg.get("threshold", 1) <= 1:
        raise ParseError(f"--threshold must be a number in (0, 1], got {cfg['threshold']}")
    return cfg


def _exact(cfg: dict, key: str, ctx, parse=parse_scalar):
    """Option ``key`` read exactly in the field ``ctx``: text by ``parse``,
    a JSON number as the rational it equals.  Malformed text, a zero
    denominator, NaN or an infinity is a parse error that names the flag."""
    value, flag = cfg[key], _flag(key)
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{flag} must be finite, got {value}")
    try:
        if isinstance(value, str):
            return parse(value, ctx)
        return _rational(*value.as_integer_ratio())
    except ZeroDivisionError:
        raise ParseError(f"{flag} has a zero denominator: {value!r}") from None
    except ParseError as exc:
        raise ParseError(f"{flag}: {exc}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and reused."""
    parser = argparse.ArgumentParser(
        prog="nilflow",
        description="Exact Heisenberg nilflow and niltranslation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # a command's docstring is the description in its -h
        p = sub.add_parser(name, description=command.__doc__)
        p.add_argument("--config", help="JSON configuration file")
        for key, opt in OPTIONS.items():
            if name in opt.commands and opt.flag is not None:
                p.add_argument(_flag(key), **opt.flag)
    return parser


def _attach_scalar_values(argv) -> list[str]:
    """Write each scalar flag and its value as one '--flag=value' token.

    argparse takes a separate value that starts with '-' and is not a
    plain negative number for an option, so '--s -3/7' alone would fail.
    A flag may be abbreviated as argparse allows ('--thet -2/7').
    """
    argv = list(argv)
    if not argv or argv[0] not in COMMANDS:
        return argv
    flags = {_flag(key): opt.types == _SCALAR for key, opt in OPTIONS.items()
             if argv[0] in opt.commands and opt.flag is not None}
    out, tokens = [], iter(argv)
    for token in tokens:
        # argparse reads a flag's own spelling, else the one flag it abbreviates
        # (-h, --help and --config share no prefix but '--' with a scalar flag)
        matches = [f for f in flags if f.startswith(token)] if token.startswith("--") else []
        flag = token if token in flags else matches[0] if len(matches) == 1 else None
        value = next(tokens, None) if flags.get(flag) else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_scalar_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = load_config(args)
        return COMMANDS[args.command](cfg)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeylSizeError as exc:
        print(f"error: {'--radius' if exc.by_radius else '--iters'}: {exc}", file=sys.stderr)
        return 2
    except (HypothesisError, EigenSignError) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
