"""Every name that perfbench's tracer wraps exists in nilflow and takes the
arguments that the tracer's hooks read.

``perfbench/tracing.py`` is read as text, not imported, so the test needs
neither numpy nor perfbench on the path.  A class attribute must be found in
the class's own ``__dict__``, as the tracer looks it up there.  A tracer
that replaces ``QuadraticNumber.floor`` or ``to_float`` there must also see
the floors and floats that the builtins ``math.floor`` and ``float`` take.
"""

import ast
import importlib
import inspect
import math
from fractions import Fraction
from pathlib import Path

from nilflow.dynamics import strip_family
from nilflow.heisenberg import GroupPoint, canonicalize
from nilflow.scalar import GOLDEN, QuadraticNumber, floor_mod1

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


def test_hooked_functions_take_what_the_hooks_read():
    # the "dynamics.weyl" hook binds a call to the signature and reads chars
    # and n_iter by name; the "cli.emit" hook stats its first positional
    # argument, the path written
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    seen = set()
    for span, modname, _, attrs in _literal("TARGETS"):
        if span not in ("dynamics.weyl", "cli.emit"):
            continue
        seen.add(span)
        module = vars(importlib.import_module(f"nilflow.{modname}"))
        for attr in attrs:
            params = inspect.signature(module[attr]).parameters
            if span == "dynamics.weyl":
                assert {"chars", "n_iter"} <= set(params), (span, attr, list(params))
            else:
                first = next(iter(params.values()))
                assert first.name == "path" and first.kind in positional, (span, attr)
    assert seen == {"dynamics.weyl", "cli.emit"}


def test_floors_and_floats_pass_through_replaced_methods(monkeypatch):
    calls = {"floor": 0, "to_float": 0}
    for name in calls:
        def counted(self, _method=QuadraticNumber.__dict__[name], _name=name):
            calls[_name] += 1
            return _method(self)
        monkeypatch.setattr(QuadraticNumber, name, counted)  # as the tracer does

    def counts(f):
        before = dict(calls)
        f()
        return {k: calls[k] - before[k] for k in calls}

    q = GOLDEN.lam + Fraction(1, 3)
    assert counts(lambda: math.floor(q)) == {"floor": 1, "to_float": 0}
    assert counts(lambda: floor_mod1(q)) == {"floor": 1, "to_float": 0}
    assert counts(lambda: canonicalize(GroupPoint(q, -q, q * q))) == {"floor": 3, "to_float": 0}
    step = strip_family(-1, 0).step_coords
    assert counts(lambda: step(q - 1, q)) == {"floor": 1, "to_float": 0}
    assert counts(lambda: float(q)) == {"floor": 0, "to_float": 1}
    assert math.floor(q) == 1 and float(q) == q.to_float()[0]
