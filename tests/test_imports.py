"""What the package imports.

numpy belongs to the Weyl-sum layer only: every other command runs in an
interpreter where importing numpy raises, and writes the same bytes as in a
normal one.  The records are ``NamedTuple``s, so importing the package loads
neither ``dataclasses`` nor the ``inspect`` it pulls in.  ``nilflow.dynamics``
still answers for every name it held before the sections, the plane suite and
the Weyl sums moved to modules of their own, and no module's compile peak is
far above that of ``scalar.py``.
"""

import importlib
import json
import os
import subprocess
import sys
import tracemalloc
import types
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


# every name nilflow.dynamics held before the sections, the plane suite and
# the Weyl sums moved to modules of their own, dunders left out
DYNAMICS_NAMES = [
    "AlgebraVector", "Branch", "DiagonalSection", "EigenData", "FIBONACCI", "Fraction",
    "GOLDEN", "GOLDEN_SKEW", "GOLDEN_STRIP", "GroupPoint", "HALF", "HALF_INV_PHI3",
    "INV_PHI", "INV_PHI2", "INV_PHI4", "NamedTuple", "PHI", "PHI2", "PHI3",
    "PiecewiseTorusMap", "QuadraticNumber", "RegionCoeffs", "ReturnRecord",
    "SectionPoint", "SigmaSection", "WEYL_MEMORY_BUDGET", "WeylSizeError",
    "_GOLDEN_COUNTS", "_GOLDEN_RETURN", "_affine_branch", "_block_bytes",
    "_block_moduli", "_blocks", "_field", "_floor_parts", "_in_field", "_largest_n",
    "_mod1", "_one_context", "_over", "_rational", "_sign_parts", "_skew_shifts",
    "_triple", "_turns", "affine_identity_check", "annotations",
    "central_shift_conjugation_holds", "conjugation_suite", "counterexample_suite",
    "eigen_data", "equidistribution_report", "exp_point", "factor",
    "fibonacci_chart_equivalence", "floor_mod1", "flow", "flow_of",
    "gamma_from_integers", "gamma_zero", "golden", "golden_like", "golden_skew_step",
    "half_grid", "iet_orbit_check", "in_d1", "in_d2", "math", "nonresonance_report",
    "off_field_step", "psi_identity_check", "psi_value", "r1_prime", "r2_prime",
    "random", "region_invariance_audit", "renormalization_check", "rprime_return_audit",
    "section_samples", "self_induction_check", "sigma_diagonal_conjugacy_check",
    "strip_family", "strip_return_count", "surface_quadric", "t_phi_affine",
    "weyl_sums_nilflow", "weyl_sums_skew_exact", "weyl_sums_skew_product",
]
MOVED = {
    "sections": [
        "DiagonalSection", "GOLDEN_SKEW", "ReturnRecord", "SectionPoint",
        "SigmaSection", "fibonacci_chart_equivalence", "golden_like",
        "golden_skew_step", "iet_orbit_check", "section_samples",
        "self_induction_check", "sigma_diagonal_conjugacy_check",
    ],
    "plane": [
        "RegionCoeffs", "affine_identity_check", "central_shift_conjugation_holds",
        "conjugation_suite", "counterexample_suite", "gamma_zero", "in_d1", "in_d2",
        "nonresonance_report", "r1_prime", "r2_prime", "region_invariance_audit",
        "rprime_return_audit", "t_phi_affine",
    ],
    "weyl": [
        "WEYL_MEMORY_BUDGET", "WeylSizeError", "_block_bytes", "_block_moduli",
        "_blocks", "_largest_n", "_mod1", "_skew_shifts", "_turns",
        "equidistribution_report", "half_grid", "off_field_step", "weyl_sums_nilflow",
        "weyl_sums_skew_exact", "weyl_sums_skew_product",
    ],
}


def test_dynamics_reexports_every_name():
    for name in DYNAMICS_NAMES:
        assert hasattr(dyn, name), name
    for modname, names in MOVED.items():
        module = importlib.import_module(f"nilflow.{modname}")
        for name in names:
            assert name in DYNAMICS_NAMES, name
            obj = vars(module)[name]  # defined there, not imported
            assert getattr(dyn, name) is obj, (modname, name)
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == module.__name__, (modname, name)


def test_no_module_compiles_past_scalar():
    # without a bytecode cache every process compiles each module from
    # source; the largest compile peak sets the import-time memory peak
    peaks = {}
    for path in sorted((SRC / "nilflow").glob("*.py")):
        source = path.read_text()
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    limit = 1.25 * peaks["scalar.py"]
    assert {name: peak for name, peak in peaks.items() if peak > limit} == {}, peaks
