import json
from fractions import Fraction

import mpmath
import pytest

from nilflow import cli
from nilflow.cli import _orbit_cells, _orbit_rows_flow, emit_jsonl, main
from nilflow.dynamics import GOLDEN_SKEW, INV_PHI4, PiecewiseTorusMap, golden, strip_family
from nilflow.factorization import eigen_data, factor, flow_of
from nilflow.freegroup import parse_substitution
from nilflow.heisenberg import (
    GroupPoint,
    _translation_parts,
    canonicalize,
    exp_point,
    flow,
    parse_group_point,
    translation_orbit,
)
from nilflow.scalar import GOLDEN, QuadraticNumber, _field, _text_parts, parse_scalar


def run(args):
    return main([str(a) for a in args])


def test_analyze_prints_table(capsys):
    assert run(["analyze", "--substitution", "a->ab;b->a"]) == 0
    out = capsys.readouterr().out
    assert "gamma" in out and "-3/2+1*l" in out
    assert "t_a" in out and "1/5+3/5*l" in out


def test_analyze_hypothesis_violation(capsys):
    assert run(["analyze", "--substitution", "a->ab;b->b"]) == 3


def test_parse_error_exit_code(capsys):
    assert run(["analyze", "--substitution", "a->ab;b"]) == 2


def test_verify_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["verify", "--seed", 7, "--out", out1]) == 0
    assert run(["verify", "--seed", 7, "--out", out2]) == 0
    b1 = (out1 / "verify-report.json").read_bytes()
    b2 = (out2 / "verify-report.json").read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["passed"] and report["seed"] == 7
    names = [c["name"] for c in report["checks"]]
    assert "sigma.self_induction" in names and "strip.induction" in names


def test_orbit_csv_header(tmp_path):
    assert run(["orbit", "--kind", "skew", "--iters", 5, "--out", tmp_path]) == 0
    text = (tmp_path / "orbit-skew.csv").read_text()
    assert text.startswith("k,u,v\n")
    assert len(text.strip().splitlines()) == 7
    assert run(["orbit", "--kind", "translation", "--iters", 3,
                "--out", tmp_path]) == 0
    text2 = (tmp_path / "orbit-translation.csv").read_text()
    assert text2.startswith("k,x,y,z\n")


def test_orbit_jsonl_exact_strings(tmp_path):
    assert run(["orbit", "--kind", "translation", "--iters", 2,
                "--format", "jsonl", "--out", tmp_path]) == 0
    lines = (tmp_path / "orbit-translation.jsonl").read_text().splitlines()
    first = json.loads(lines[1])
    assert first["x"] == "-1+1*l"
    assert first["seed"] == 0


def test_orbit_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["orbit", "--kind", "strip", "--iters", 50, "--out", d]) == 0
    assert (a / "orbit-strip.csv").read_bytes() == (b / "orbit-strip.csv").read_bytes()


@pytest.mark.parametrize("kind", ["translation", "flow"])
def test_equal_starts_give_equal_orbit_files(tmp_path, kind):
    # a rational start and the equal field element write the same bytes
    a, b = tmp_path / "a", tmp_path / "b"
    for fmt in ("csv", "jsonl"):
        for d, start in [(a, "[4/5,0,0]"), (b, "[4/5+0*l,0,0]")]:
            assert run(["orbit", "--kind", kind, "--iters", 20, "--format", fmt,
                        "--start", start, "--out", d]) == 0
        name = f"orbit-{kind}.{fmt}"
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert (a / f"orbit-{kind}.jsonl").read_text().startswith(
        '{"k": 0, "seed": 0, "x": "4/5", "y": "0", "z": "0"}\n')


@pytest.mark.parametrize("start, step", [(None, "1/2"), ("[1/3, -2/5, 7/4]", "3/7"),
                                         ("[1/2+1*l, -l, 2]", "1-1*l"), (None, "1+l")])
def test_flow_orbit_matches_the_flow_from_the_start(start, step):
    # each step is one group product from the last representative; the
    # representative of the flow at time k*dt from the start is the same.
    # --start and --step are read in the field of the substitution's eigenvalue
    for sub in ("a->ab;b->a", "a->aab;b->a"):
        cfg = {"substitution": sub, "start": start, "step": step, "iters": 40}
        names, ctx, dens, parts = _orbit_rows_flow(cfg)
        assert names == ("x", "y", "z")
        # the numerators of rows 0 .. 40 over dens
        rows = [tuple(map(_field, p[::2], p[1::2], dens, [ctx] * 3)) for p in parts]
        data = eigen_data(factor(parse_substitution(sub)))
        vec = flow_of(data, "lam")
        g = parse_group_point(start, data.context) if start else GroupPoint(0, 0, 0)
        dt = parse_scalar(step, data.context)
        t = dt - dt
        for coords in rows:
            rep = canonicalize(flow(vec, t, g)).rep
            assert coords == (rep.x, rep.y, rep.z)
            assert [type(c) for c in coords] == [type(rep.x), type(rep.y), type(rep.z)]
            t = t + dt
        assert len(rows) == 41


def test_broken_line(tmp_path, capsys):
    assert run(["broken-line", "--length", 50, "--out", tmp_path]) == 0
    lines = (tmp_path / "broken-line.csv").read_text().splitlines()
    assert lines[0] == "k,a,b,c,proj_u,proj_v"
    assert lines[1].startswith("0,0,0,0")
    assert len(lines) == 52


def test_broken_line_without_hypothesis_h_prints_a_nan_norm(tmp_path, capsys):
    # a->ab;b->b fails (H): its projection columns are nan, and so is the
    # sup norm printed, which a max() starting from 0.0 would keep at 0
    assert run(["broken-line", "--substitution", "a->ab;b->b", "--length", 5,
                "--out", tmp_path]) == 0
    lines = (tmp_path / "broken-line.csv").read_text().splitlines()
    assert lines[1:] == ["0,0,0,0,nan,nan", "1,1,0,0,nan,nan", "2,1,1,1,nan,nan",
                         "3,1,2,2,nan,nan", "4,1,3,3,nan,nan", "5,1,4,4,nan,nan"]
    out = capsys.readouterr().out
    assert out == "emitted 6 rows, projection sup norm nan (no projection: (H) fails)\n"
    assert run(["broken-line", "--length", 5, "--out", tmp_path]) == 0
    assert "projection sup norm 0." in capsys.readouterr().out


def test_induce(tmp_path, capsys):
    assert run(["induce", "--samples", 10, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "induce-report.json").read_text())
    assert report["renormalization"]["passed"]
    assert report["self_induction"]["passed"]


@pytest.mark.parametrize("sub", ["a->AB;b->A", "a->BA;b->A", "a->AAB;b->A", "a->AAB;b->AB"])
def test_induce_negative_trace(tmp_path, capsys, sub):
    # lam < 0: the self-induction holds with the inverse return map
    assert run(["induce", "--substitution", sub, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "induce-report.json").read_text())
    assert report["self_induction"]["passed"]
    assert capsys.readouterr().out.strip() == "induce: renormalization ok, self-induction ok"


def test_induce_return_counts(tmp_path, capsys):
    # the golden rotation alone fixes them, whatever s and theta are: u + 2/phi
    # lands in [0, 1/phi^2) mod 1 exactly when u < 1/phi^4, else u + 3/phi
    args = ["induce", "--s", "1/3", "--theta", "2/5", "--samples", 1, "--out", tmp_path]
    assert run(args) == 0
    counts = json.loads((tmp_path / "induce-report.json").read_text())["return_counts"]
    us = [parse_scalar(c["u"], GOLDEN) for c in counts]
    assert us == [Fraction(i, 63) for i in range(24)]
    assert [c["n"] for c in counts] == [2 if u < INV_PHI4 else 3 for u in us]


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"substitution": "a->aab;b->a", "length": 20,
                               "out": str(tmp_path)}))
    assert run(["broken-line", "--config", cfg]) == 0
    lines = (tmp_path / "broken-line.csv").read_text().splitlines()
    assert len(lines) == 22


def test_config_flag_precedence(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"length": 20, "out": str(tmp_path)}))
    assert run(["broken-line", "--config", cfg, "--length", 5]) == 0
    lines = (tmp_path / "broken-line.csv").read_text().splitlines()
    assert len(lines) == 7


def test_bad_config_is_parse_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("{not json")
    assert run(["broken-line", "--config", cfg]) == 2


def test_equidistribution_artifact(tmp_path, capsys):
    assert run(["equidistribution", "--iters", 20000, "--radius", 1,
                "--out", tmp_path, "--format", "jsonl"]) == 0
    report = json.loads((tmp_path / "weyl-sums.json").read_text())
    assert set(report) == {"skew", "nilflow"}
    assert report["skew"]["passed"]


def test_equidistribution_uses_the_substitution(tmp_path, capsys):
    from nilflow.dynamics import weyl_sums_nilflow
    args = ["equidistribution", "--iters", 20000, "--radius", 2, "--format", "jsonl"]
    sub = "a->aab;b->a"
    assert run([*args, "--out", tmp_path / "default"]) == 0
    assert run([*args, "--substitution", sub, "--out", tmp_path / "aab"]) == 0
    default, aab = (json.loads((tmp_path / d / "weyl-sums.json").read_text())
                    for d in ("default", "aab"))
    grid = [(p, q) for p in range(-2, 3) for q in range(-2, 3) if (p, q) != (0, 0)]
    table = weyl_sums_nilflow(eigen_data(factor(parse_substitution(sub))), grid, 20000)
    assert aab["nilflow"]["n_iter"] == 20000
    assert aab["nilflow"]["moduli"] == {f"{p},{q}": m for (p, q), m in table.items()}
    assert aab["nilflow"]["moduli"] != default["nilflow"]["moduli"]
    # the golden skew product is Fibonacci's whatever the substitution
    assert aab["skew"] == default["skew"]
    # a substitution that fails (H) is a hypothesis violation, as in orbit
    assert run([*args, "--substitution", "a->ab;b->b", "--out", tmp_path / "bad"]) == 3
    assert not (tmp_path / "bad").exists()


def test_csv_floats_do_not_depend_on_earlier_commands(tmp_path):
    skew = ["orbit", "--kind", "skew", "--iters", 30, "--format", "csv"]
    assert run([*skew, "--out", tmp_path / "first"]) == 0
    assert run(["orbit", "--kind", "strip", "--iters", 30, "--format", "csv",
                "--out", tmp_path / "strip"]) == 0
    assert run([*skew, "--out", tmp_path / "again"]) == 0
    first = (tmp_path / "first" / "orbit-skew.csv").read_bytes()
    assert first == (tmp_path / "again" / "orbit-skew.csv").read_bytes()


def test_unknown_config_key_is_parse_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"lenght": 5, "out": str(tmp_path)}))
    assert run(["broken-line", "--config", cfg]) == 2
    assert "'lenght'" in capsys.readouterr().err
    assert not (tmp_path / "broken-line.csv").exists()


def test_config_value_of_wrong_type_is_parse_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    for command, bad in (("orbit", {"iters": "abc"}), ("orbit", {"iters": True}),
                         ("equidistribution", {"threshold": "x"}),
                         ("orbit", {"substitution": 5}), ("orbit", {"kind": "bogus"}),
                         ("orbit", {"format": "xml"})):
        cfg.write_text(json.dumps({**bad, "out": str(tmp_path)}))
        assert run([command, "--config", cfg]) == 2
        assert repr(next(iter(bad))) in capsys.readouterr().err


# the flags that a command does not read: each was once accepted and ignored
UNREAD = {
    "analyze": ("samples", "iters", "format", "seed"),
    "orbit": ("samples",),
    "broken-line": ("samples", "iters", "format", "seed"),
    "induce": ("iters", "format"),
    "verify": ("samples", "iters", "format", "substitution"),
    "equidistribution": ("samples",),
}


def test_a_flag_exists_only_on_the_commands_that_read_it(tmp_path, capsys):
    value = {"samples": 5, "iters": 5, "format": "jsonl", "substitution": "a->ab;b->a",
             "seed": 5}
    assert sum(map(len, UNREAD.values())) == 16
    cfg = tmp_path / "config.json"
    for command, keys in UNREAD.items():
        for key in keys:
            with pytest.raises(SystemExit) as exc:
                run([command, f"--{key}", value[key], "--out", tmp_path])
            assert exc.value.code == 2, (command, key)
            assert f"--{key}" in capsys.readouterr().err
            cfg.write_text(json.dumps({key: value[key]}))
            assert run([command, "--config", cfg, "--out", tmp_path]) == 2, (command, key)
            err = capsys.readouterr().err
            assert f"config key {key!r} is not an option of {command}" in err
    assert list(tmp_path.iterdir()) == [cfg]
    # --out stays on every command and --seed on equidistribution, and the
    # config file of analyze still names its report
    assert run(["equidistribution", "--iters", 10000, "--radius", 1, "--seed", 3,
                "--out", tmp_path / "eq"]) == 0
    cfg.write_text(json.dumps({"analysis_out": "a.json"}))
    assert run(["analyze", "--config", cfg, "--out", tmp_path / "an"]) == 0
    assert (tmp_path / "an" / "a.json").exists()
    with pytest.raises(SystemExit):
        run(["analyze", "--analysis-out", "a.json"])
    capsys.readouterr()


# each orbit kind with flags of orbit that it does not read
UNREAD_BY_KIND = {
    "skew": {"start": "[1/3, 0, 0]", "step": "1/2", "s": "1/2", "theta": "0",
             "substitution": "a->aab;b->a"},
    "strip": {"start": "[0, 0, 0]", "step": "1/2", "substitution": "a->ab;b->a"},
    "translation": {"step": "1/3", "s": "1/2", "theta": "1/7"},
    "flow": {"s": "-1", "theta": "0"},
}


def test_an_orbit_flag_exists_only_for_the_kinds_that_read_it(tmp_path, capsys):
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    for kind, values in UNREAD_BY_KIND.items():
        for key, value in values.items():
            flag = "--" + key
            assert run(["orbit", "--kind", kind, flag, value, "--out", out]) == 2, (kind, key)
            assert f"{flag} is not an option of orbit --kind {kind}" in capsys.readouterr().err
            # the key in a config file, the kind from a flag or from the file too
            for config, args in [({key: value}, ["--kind", kind]), ({"kind": kind, key: value}, [])]:
                cfg.write_text(json.dumps(config))
                assert run(["orbit", *args, "--config", cfg, "--out", out]) == 2, (kind, key)
                err = capsys.readouterr().err
                assert f"config key {key!r} is not an option of orbit --kind {kind}" in err
            # a flag names the flag even when the config file gives the key too
            cfg.write_text(json.dumps({key: value}))
            assert run(["orbit", "--kind", kind, "--config", cfg, flag, value,
                        "--out", out]) == 2
            assert f"{flag} is not an option of orbit --kind {kind}" in capsys.readouterr().err
    assert not out.exists()
    # --seed, --out, --iters and --format stay on every kind, beside its own flags
    for kind, own in [("skew", []), ("strip", ["--s", "-1/3", "--theta", "1/7"]),
                      ("translation", ["--substitution", "a->aab;b->a", "--start", "[1/3, 0, 0]"]),
                      ("flow", ["--substitution", "a->ab;b->a", "--start", "[0, 0, 0]",
                                "--step", "1/3"])]:
        for fmt in ("csv", "jsonl"):
            assert run(["orbit", "--kind", kind, "--seed", 5, "--iters", 3, "--format", fmt,
                        *own, "--out", out]) == 0
            assert len((out / f"orbit-{kind}.{fmt}").read_text().splitlines()) == 4 + (fmt == "csv")


def test_broken_line_without_fixed_point_is_hypothesis_violation(tmp_path, capsys):
    assert run(["broken-line", "--substitution", "a->ba;b->a",
                "--out", tmp_path]) == 3
    assert "prolongable" in capsys.readouterr().err


def test_non_positive_sizes_are_parse_errors(tmp_path, capsys):
    for args, flag in [
        (["equidistribution", "--iters", 0], "--iters"),
        (["equidistribution", "--radius", 0], "--radius"),
        (["equidistribution", "--iters", -5], "--iters"),
        (["orbit", "--iters", -5], "--iters"),
        (["broken-line", "--length", 0], "--length"),
        (["induce", "--samples", 0], "--samples"),
        *((["equidistribution", f"--threshold={bad}"], "--threshold")
          for bad in ("nan", "inf", "-inf", 0, -1, 1.5)),
    ]:
        assert run([*args, "--out", tmp_path]) == 2, args
        assert flag in capsys.readouterr().err
    cfg = tmp_path / "config.json"
    # json.dumps writes the non-finite floats as NaN and Infinity, which
    # json.load reads back
    for bad, flag in [({"iters": 0}, "--iters"), ({"threshold": float("nan")}, "--threshold"),
                      ({"threshold": float("inf")}, "--threshold"),
                      ({"threshold": 0}, "--threshold"), ({"threshold": -1.0}, "--threshold")]:
        cfg.write_text(json.dumps({**bad, "out": str(tmp_path)}))
        assert run(["equidistribution", "--config", cfg]) == 2, bad
        assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_orbit_strip_flags_match_the_config_file(tmp_path):
    # a JSON number converts exactly; 1/2 is the default step
    for kind, config, args in [
        ("strip", {"s": "-3/7", "theta": "2/7"}, ["--s=-3/7", "--theta", "2/7"]),
        ("strip", {"s": -0.25, "theta": 0.5}, ["--s", "-1/4", "--theta", "1/2"]),
        ("flow", {"step": 0.5}, ["--step", "1/2"]),
    ]:
        (tmp_path / "c.json").write_text(json.dumps(config))
        for fmt in ("csv", "jsonl"):
            base = ["orbit", "--kind", kind, "--iters", 40, "--format", fmt]
            assert run([*base, *args, "--out", tmp_path / "flags"]) == 0
            assert run([*base, "--config", tmp_path / "c.json", "--out", tmp_path / "cfg"]) == 0
            assert run([*base, "--out", tmp_path / "default"]) == 0
            name = f"orbit-{kind}.{fmt}"
            flags = (tmp_path / "flags" / name).read_bytes()
            assert flags == (tmp_path / "cfg" / name).read_bytes()
            assert (flags == (tmp_path / "default" / name).read_bytes()) == (kind == "flow")


def test_bad_exact_scalars_are_parse_errors(tmp_path, capsys):
    # 1/0, malformed text, NaN and infinities as a flag or in a config file, and
    # the removed 'context' key: exit 2, the flag or key named, no traceback,
    # no artifact
    cfg = tmp_path / "config.json"
    strip, flow = ["orbit", "--kind", "strip"], ["orbit", "--kind", "flow"]
    for command, key, value in [
        (["induce"], "s", "1/0"), (strip, "theta", "1/0"), (["induce"], "s_prime", "1/0"),
        (flow, "step", "1/0"), (flow, "start", "[1/0, 0, 0]"),
        (["orbit"], "start", "[0, 0, -1/0]"), (["induce"], "theta", "1+"),
        (["orbit"], "start", "[1, 2]"),
    ]:
        flag = "--" + key.replace("_", "-")
        assert run([*command, flag, value, "--out", tmp_path]) == 2, (flag, value)
        assert flag in capsys.readouterr().err
        cfg.write_text(json.dumps({key: value, "out": str(tmp_path)}))
        assert run([*command, "--config", cfg]) == 2, (key, value)
        assert flag in capsys.readouterr().err
    for command, bad, name in [
        (["induce"], {"s": float("nan")}, "--s"), (strip, {"theta": float("inf")}, "--theta"),
        (["induce"], {"s_prime": float("-inf")}, "--s-prime"),
        (flow, {"step": float("nan")}, "--step"), (strip, {"context": "1,-1"}, "'context'"),
    ]:
        cfg.write_text(json.dumps({**bad, "out": str(tmp_path)}))
        assert run([*command, "--config", cfg]) == 2, bad
        assert name in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command, name", [
    (["induce", "--s-prime", "-1/3", "--samples", 4], "induce-report.json"),
    (["orbit", "--kind", "strip", "--iters", 40, "--format", "jsonl"], "orbit-strip.jsonl"),
])
def test_negative_scalars_as_separate_arguments(tmp_path, command, name):
    # argparse alone reads '-3/7' after '--s' as an option; both forms must work
    for s, theta in (("-3/7", "-2/7"), ("-1+1*l", "-l")):
        spaced = [*command, "--s", s, "--theta", theta, "--out", tmp_path / "spaced"]
        joined = [*command, f"--s={s}", f"--theta={theta}", "--out", tmp_path / "joined"]
        assert run(spaced) == 0 and run(joined) == 0
        text = (tmp_path / "spaced" / name).read_bytes()
        assert text == (tmp_path / "joined" / name).read_bytes()
    assert run(["orbit", "--kind", "flow", "--iters", 5, "--step", "-2/5",
                "--out", tmp_path / "flow"]) == 0


def test_abbreviated_scalar_flags_take_negative_values(tmp_path, capsys):
    # '--thet' is the one flag argparse would read it as; '--st' is ambiguous
    # in orbit (--start, --step) and no flag of induce, so argparse rejects both
    assert run(["induce", "--samples", 4, "--thet", "-2/7", "--s-p", "-1/3",
                "--out", tmp_path / "abbrev"]) == 0
    assert run(["induce", "--samples", 4, "--theta=-2/7", "--s-prime=-1/3",
                "--out", tmp_path / "full"]) == 0
    name = "induce-report.json"
    assert (tmp_path / "abbrev" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
    assert run(["orbit", "--kind", "flow", "--iters", 5, "--ste", "-2/5",
                "--out", tmp_path / "flow"]) == 0
    for command in (["induce"], ["orbit", "--kind", "flow"]):
        with pytest.raises(SystemExit) as exc:
            run([*command, "--st", "1/2", "--out", tmp_path / "st"])
        assert exc.value.code == 2


def _mp_float(text: str) -> float:
    """The correctly rounded double of an exact JSONL string, through mpmath."""
    x = parse_scalar(text, GOLDEN)
    if not isinstance(x, QuadraticNumber):
        return float(Fraction(x))
    with mpmath.workdps(60):
        phi = (1 + mpmath.sqrt(5)) / 2
        a, b = x.a, x.b
        return float(mpmath.mpf(a.numerator) / a.denominator
                     + mpmath.mpf(b.numerator) / b.denominator * phi)


@pytest.mark.parametrize("kind, config", [
    ("skew", None), ("strip", None), ("translation", None), ("flow", None),
    ("strip", {"s": "-3/7", "theta": "2/7"}),
])
def test_orbit_artifacts_against_an_independent_oracle(tmp_path, kind, config):
    # the CSV floats are the correctly rounded values of the JSONL strings,
    # and every JSONL line is what json.dumps writes for its record
    extra = []
    if config:
        (tmp_path / "c.json").write_text(json.dumps(config))
        extra = ["--config", tmp_path / "c.json"]
    for fmt in ("csv", "jsonl"):
        assert run(["orbit", "--kind", kind, "--iters", 300, "--format", fmt,
                    "--out", tmp_path, *extra]) == 0
    header, *rows = (tmp_path / f"orbit-{kind}.csv").read_text().splitlines()
    lines = (tmp_path / f"orbit-{kind}.jsonl").read_text().splitlines()
    assert len(rows) == len(lines) == 301
    names = header.split(",")[1:]
    for k, (row, line) in enumerate(zip(rows, lines)):
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True)
        assert record["k"] == k and record["seed"] == 0
        fields = row.split(",")
        assert fields[0] == str(k)
        for name, text in zip(names, fields[1:]):
            assert float(text) == _mp_float(record[name]), (k, name)


BIG = 10 ** 22


def _public_orbit(kind: str, cfg: dict, n: int):
    """The rows of an orbit kind from the public generators, with the
    defaults of nilflow orbit."""
    if kind in ("skew", "strip"):
        pmap = GOLDEN_SKEW if kind == "skew" else strip_family(
            parse_scalar(cfg.get("s", "-1"), GOLDEN), parse_scalar(cfg.get("theta", "0"), GOLDEN))
        return pmap.orbit(golden(0), golden(0), n)
    data = eigen_data(factor(parse_substitution(cfg.get("substitution", "a->ab;b->a"))))
    vec = flow_of(data, "lam")
    start = parse_group_point(cfg.get("start", "[0, 0, 0]"), data.context)
    if kind == "translation":
        return ((p.x, p.y, p.z) for p in translation_orbit(exp_point(vec), start, n))
    dt = parse_scalar(cfg.get("step", "1/2"), data.context)
    return ((p.x, p.y, p.z) for p in translation_orbit(exp_point(vec.scale(dt)), start, n))


@pytest.mark.parametrize("kind, cfg", [
    ("skew", {}), ("strip", {}), ("strip", {"s": "-3/7", "theta": "2/7"}),
    ("strip", {"s": f"{BIG}/{BIG + 3}-l", "theta": f"-{BIG}/7+{BIG + 1}/{BIG}*l"}),
    ("translation", {}), ("flow", {}),
    # a start of mixed scalar types in Q(sqrt 2), whose first z prints as 4/5
    ("translation", {"substitution": "a->aab;b->a", "start": "[1/3+l, 2/7, -1/5]"}),
    ("translation", {"start": f"[{BIG}/{BIG + 1}+{BIG}*l, -{BIG}/3, 1/{BIG}-l]"}),
    ("flow", {"substitution": "a->aab;b->a", "start": "[1/3, -2/5, 7/4]", "step": "1-l"}),
    ("flow", {"start": f"[-{BIG}/7, {BIG}+l, 2/{BIG + 9}]", "step": f"{BIG}/{BIG + 1}"}),
    # l = (3 + sqrt 5)/2 and l = (3 + sqrt 13)/2
    ("translation", {"substitution": "a->aab;b->ab", "start": "[1/2+l, 1/3, -l]"}),
    ("flow", {"substitution": "a->aaab;b->a", "start": "[l, 0, 1/5]", "step": "2/3+l"}),
])
def test_orbit_rows_are_the_public_generators_rows(tmp_path, kind, cfg):
    # every row that nilflow orbit writes from the kernel's numerators is
    # float or str of the public generator's field elements
    n = 150
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    for fmt in ("csv", "jsonl"):
        assert run(["orbit", "--kind", kind, "--iters", n, "--format", fmt,
                    "--config", tmp_path / "c.json", "--out", tmp_path]) == 0
    header, *rows = (tmp_path / f"orbit-{kind}.csv").read_text().splitlines()
    lines = (tmp_path / f"orbit-{kind}.jsonl").read_text().splitlines()
    names = header.split(",")[1:]
    expected = list(_public_orbit(kind, cfg, n))
    assert len(rows) == len(lines) == len(expected) == n + 1
    for k, (row, line, coords) in enumerate(zip(rows, lines, expected)):
        assert row == ",".join([str(k), *(f"{float(c):.17g}" for c in coords)]), k
        assert line == json.dumps({"k": k, "seed": 0, **{name: str(c) for name, c in
                                                         zip(names, coords)}},
                                  sort_keys=True), k


def test_equidistribution_past_the_memory_budget_exits_2_at_once(tmp_path, capsys):
    import time
    out = tmp_path / "eq"
    start = time.perf_counter()
    assert run(["equidistribution", "--iters", 10**13, "--out", out]) == 2
    assert time.perf_counter() - start < 10  # refused before the sums, not killed
    err = capsys.readouterr().err
    assert err.startswith("error: --iters: N = 10000000000000 needs about")
    assert err.rstrip().endswith("the largest accepted N at radius 3 is 1099511627776")
    assert not out.exists()


def test_equidistribution_past_the_memory_budget_by_radius_names_the_radius(tmp_path, capsys):
    # (2r + 1)^2 - 1 characters at r = 10^5 are refused before the grid is built
    import time
    out = tmp_path / "eq"
    start = time.perf_counter()
    assert run(["equidistribution", "--radius", 10**5, "--iters", 100, "--out", out]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error: --radius: N = 100 needs about")
    assert err.rstrip().endswith("no N is accepted at radius 100000")
    assert not out.exists()


def test_equidistribution_rerun_past_the_memory_budget_exits_2(tmp_path, capsys, monkeypatch):
    import nilflow.weyl as weyl
    # the table at N is computed, then its x10 rerun is refused with no file
    monkeypatch.setattr(weyl, "WEYL_MEMORY_BUDGET", weyl._block_bytes(100, 3))
    assert run(["equidistribution", "--iters", 10**4, "--threshold", 1e-9,
                "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --iters: the x10 rerun of N = 10000, ")
    assert err.rstrip().endswith("the largest N whose rerun fits at radius 3 is 1000")
    assert not list(tmp_path.glob("weyl-sums.*"))


def test_emit_jsonl_lines_are_what_json_writes(tmp_path):
    # every line of an orbit file, from a start off the default and for any
    # seed, is what json.dumps writes for the record of the same row
    n, data = 120, eigen_data(factor(parse_substitution("a->ab;b->a")))
    vec = flow_of(data, "lam")
    start = parse_group_point("[1/2+1*l, -l, 2]", data.context)
    kernels = {
        "skew": (("u", "v"), GOLDEN_SKEW._orbit_parts(golden(Fraction(1, 3)), INV_PHI4, n)),
        "strip": (("u", "v"), strip_family(parse_scalar("-3/7", GOLDEN), parse_scalar(
            "2/7", GOLDEN))._orbit_parts(golden(Fraction(2, 9)), -INV_PHI4, n)),
        "translation": (("x", "y", "z"), _translation_parts(exp_point(vec), start, n)),
        "flow": (("x", "y", "z"), _translation_parts(
            exp_point(vec.scale(parse_scalar("3/7", data.context))), start, n)),
    }
    for kind, (names, kernel) in kernels.items():
        rows = list(_orbit_cells(_text_parts, *kernel))
        assert len(rows) == n + 1
        for seed in (0, -5, 10**100):
            emit_jsonl(tmp_path / "o.jsonl", seed, names, rows)
            lines = (tmp_path / "o.jsonl").read_text().splitlines(keepends=True)
            assert lines == [json.dumps({"k": k, "seed": seed, **dict(zip(names, cells))},
                                        sort_keys=True) + "\n" for k, *cells in rows], (kind, seed)


def test_a_failed_orbit_leaves_no_file_and_the_old_artifact(tmp_path, monkeypatch):
    assert run(["orbit", "--kind", "skew", "--iters", 30, "--format", "jsonl",
                "--out", tmp_path]) == 0
    old = (tmp_path / "orbit-skew.jsonl").read_bytes()
    calls, orbit_parts = [], PiecewiseTorusMap._orbit_parts

    def failing(self, u, v, n):
        ctx, dens, parts = orbit_parts(self, u, v, n)

        def failing_parts():
            for point in parts:
                calls.append(1)
                if len(calls) == 50:
                    raise RuntimeError("step 50 fails")
                yield point

        return ctx, dens, failing_parts()

    # the numerator stream that nilflow orbit writes from
    monkeypatch.setattr(PiecewiseTorusMap, "_orbit_parts", failing)
    for fmt in ("jsonl", "csv"):
        with pytest.raises(RuntimeError, match="step 50"):
            run(["orbit", "--kind", "skew", "--iters", 100, "--format", fmt, "--out", tmp_path])
        calls.clear()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["orbit-skew.jsonl"]
    assert (tmp_path / "orbit-skew.jsonl").read_bytes() == old


def test_orbit_memory_does_not_grow_with_iters(tmp_path):
    import tracemalloc

    def peak(iters):
        run(["orbit", "--kind", "translation", "--iters", 2, "--format", "jsonl",
             "--out", tmp_path])  # caches and imports outside the measurement
        tracemalloc.start()
        try:
            assert run(["orbit", "--kind", "translation", "--iters", iters,
                        "--format", "jsonl", "--out", tmp_path]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2000), peak(20000)
    assert large - small < 256 * 1024, (small, large)
    assert len((tmp_path / "orbit-translation.jsonl").read_text().splitlines()) == 20001


@pytest.mark.parametrize("kind", ["translation", "flow"])
def test_orbit_ops_reuse_the_eigen_data_of_a_substitution(tmp_path, monkeypatch, capsys, kind):
    calls = []

    def counted(endo):
        calls.append(endo)
        return eigen_data(endo)

    monkeypatch.setattr(cli, "eigen_data", counted)
    cli._orbit_eigen_data.cache_clear()
    texts = []
    for out in ("first", "second"):
        assert run(["orbit", "--kind", kind, "--substitution", "a->aab;b->a",
                    "--iters", 50, "--out", tmp_path / out]) == 0
        texts.append((tmp_path / out / f"orbit-{kind}.csv").read_bytes())
    assert len(calls) == 1 and texts[0] == texts[1]
    # a failing text is not kept: each op tries again and exits 3
    for _ in range(2):
        assert run(["orbit", "--kind", kind, "--substitution", "a->b;b->aB",
                    "--out", tmp_path / "bad"]) == 3
    assert len(calls) == 3
    assert "hypothesis violation" in capsys.readouterr().err
