"""numpy belongs to the Weyl-sum layer only.

Every other command runs in an interpreter where importing numpy raises,
and writes the same bytes as in a normal one.
"""

import os
import subprocess
import sys
from pathlib import Path

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
