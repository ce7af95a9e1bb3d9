"""Every name that perfbench's tracer wraps exists in nilflow.

``perfbench/tracing.py`` is read as text, not imported, so the test needs
neither numpy nor perfbench on the path.  A class attribute must be found in
the class's own ``__dict__``, as the tracer looks it up there.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _literal(name: str):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


def test_traced_names_resolve():
    targets = _literal("TARGETS")
    assert targets
    for span, modname, owner_name, attrs in targets:
        module = importlib.import_module(f"nilflow.{modname}")
        if owner_name is None:
            names = vars(module)
        else:
            assert owner_name in vars(module), (span, owner_name)
            names = vars(module)[owner_name].__dict__
        for attr in attrs:
            assert attr in names, (span, attr)
            assert callable(names[attr]), (span, attr)
    verification = vars(importlib.import_module("nilflow.verification"))
    for fn_name in _literal("VERIFY_FUNCTIONS"):
        assert callable(verification.get(fn_name)), fn_name
