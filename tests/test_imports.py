"""What the package imports.

numpy belongs to the Weyl-sum layer only: every other command runs in an
interpreter where importing numpy raises, and writes the same bytes as in a
normal one.  The records are ``NamedTuple``s, so importing the package loads
neither ``dataclasses`` nor the ``inspect`` it pulls in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilflow import dynamics as dyn
from nilflow import factorization as fac
from nilflow import verification as ver

SRC = Path(__file__).resolve().parents[1] / "src"

# argv[1]: "blocked" makes every numpy import raise; argv[2]: output root
RUNNER = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from nilflow.cli import main
runs = [["analyze"], ["broken-line", "--length", "2000"],
        ["induce", "--samples", "4"], ["verify", "--seed", "0"]]
runs += [["orbit", "--kind", kind, "--format", fmt, "--iters", "200"]
         for kind in ("skew", "strip", "translation", "flow") for fmt in ("csv", "jsonl")]
for i, args in enumerate(runs):
    status = main([*args, "--out", f"{sys.argv[2]}/{i}"])
    if status:
        sys.exit(f"{args} exited {status}")
print("numpy imported:", sys.modules.get("numpy") is not None)
"""


def _start(mode: str, out: Path, code: str = RUNNER) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", code, mode, str(out)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_exact_commands_run_without_numpy(tmp_path):
    blocked = _start("blocked", tmp_path / "blocked")
    normal = _start("normal", tmp_path / "normal")
    (b_out, b_err), (n_out, n_err) = blocked.communicate(), normal.communicate()
    assert blocked.returncode == 0, b_err
    assert normal.returncode == 0, n_err
    assert b_out.endswith("numpy imported: False\n")
    assert b_out == n_out
    artifacts = _files(tmp_path / "blocked")
    assert len(artifacts) == 11 and artifacts == _files(tmp_path / "normal")


def test_weyl_sums_still_import_numpy(tmp_path):
    code = ("import sys\nfrom nilflow.cli import main\n"
            "assert 'numpy' not in sys.modules\n"
            "sys.exit(main(['equidistribution', '--iters', '10000', '--out', sys.argv[2]]))")
    proc = _start("normal", tmp_path, code)
    _, err = proc.communicate()
    assert proc.returncode == 0, err
    assert (tmp_path / "weyl-sums.csv").read_text().startswith("kind,p,q,modulus\n")


def test_package_imports_neither_dataclasses_nor_inspect(tmp_path):
    # the module sets are compared in the child, so what site loads does not count
    code = ("import json, sys\nbefore = set(sys.modules)\n"
            "import nilflow, nilflow.cli, nilflow.verification\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = _start("normal", tmp_path, code)
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    added = set(json.loads(out))
    assert {"nilflow.cli", "nilflow.verification"} <= added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


RECORDS = [
    (dyn.Branch, ("lo", "hi", "du", "a1", "a0")),
    (dyn.SectionPoint, ("s", "zoff")),
    (dyn.ReturnRecord, ("point", "time", "lattice")),
    (dyn.RegionCoeffs, ("p2", "p1", "p0", "q1", "q0", "r1", "r0")),
    (fac.HypothesisReport, ("passed", "failures", "det", "context", "lam", "lam_prime")),
    (fac.EigenData, ("endo", "context", "lam", "lam_prime", "alpha", "beta",
                     "alpha_p", "beta_p", "gamma", "gamma_p", "delta", "t_a", "t_b",
                     "s_a", "s_b")),
    (fac.SurfaceQuadric, ("qxx", "qxy", "qyy", "qx", "qy", "q0")),
    (ver.CheckResult, ("name", "passed", "details")),
]


@pytest.mark.parametrize("cls, names", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_fields_repr_and_immutability(cls, names):
    record = cls(*range(len(names)))
    assert [getattr(record, name) for name in names] == list(range(len(names)))
    with pytest.raises(TypeError):
        cls(*range(len(names) + 1))
    fields = ", ".join(f"{name}={i}" for i, name in enumerate(names))
    assert repr(record) == f"{cls.__name__}({fields})"
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
