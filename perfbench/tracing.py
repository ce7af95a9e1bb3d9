"""Per-layer tracing of nilflow from outside the package.

:class:`Tracer` replaces selected functions and methods of the ``nilflow``
modules with wrappers that record one span per call: name, start, end,
parent span, and the index of the last span opened inside it.  Spans stay in
flat arrays until the run ends; :meth:`Tracer.metrics` then derives counts,
self times (duration minus the child spans) and the layer ratios.  Nothing
in the package is edited; :meth:`Tracer.uninstall` restores every attribute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from checks import VERIFY_CHECKS

# (span name, module, owner class or None for a module function, attributes)
TARGETS = [
    ("scalar.mul", "scalar", "QuadraticNumber", ("__mul__", "__rmul__")),
    ("scalar.addsub", "scalar", "QuadraticNumber",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    ("scalar.div", "scalar", "QuadraticNumber", ("__truediv__", "__rtruediv__")),
    ("scalar.sign", "scalar", "QuadraticNumber", ("sign",)),
    ("scalar.floor", "scalar", "QuadraticNumber", ("floor",)),
    ("scalar.to_float", "scalar", "QuadraticNumber", ("to_float",)),
    ("heisenberg.mul", "heisenberg", "GroupPoint", ("__mul__",)),
    ("heisenberg.flow", "heisenberg", None, ("flow",)),
    ("heisenberg.canonicalize", "heisenberg", None, ("canonicalize",)),
    ("freegroup.apply", "freegroup", "Endomorphism", ("apply", "__call__")),
    ("factorization.eigen_data", "factorization", None, ("eigen_data",)),
    ("dynamics.section_return", "dynamics", "SigmaSection", ("return_map",)),
    ("dynamics.crossing_step", "dynamics", "SigmaSection", ("_crossing_step",)),
    ("dynamics.strip_step", "dynamics", "PiecewiseTorusMap", ("step_with_floors",)),
    ("dynamics.skew_step", "dynamics", None, ("golden_skew_step",)),
    ("dynamics.weyl", "dynamics", None,
     ("weyl_sums_skew_product", "weyl_sums_nilflow", "weyl_sums_skew_exact")),
    ("dynamics.equidistribution", "dynamics", None, ("equidistribution_report",)),
    ("cli.emit", "cli", None, ("emit_csv", "emit_jsonl", "emit_report")),
]
VERIFY_FUNCTIONS = (
    "check_group_suite", "check_flow_exchange", "check_factorization",
    "check_eigenflow_conjugation", "check_surface", "check_strip",
    "check_sigma_section", "check_self_induction", "check_diagonal",
    "check_chart_equivalence", "check_plane_suite", "check_broken_line",
    "check_decompose",
)


def _coeff_bits(x) -> int:
    a, b = x.a, x.b
    return max(a.numerator.bit_length(), a.denominator.bit_length(),
               b.numerator.bit_length(), b.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.last = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.coeff_bits_max = 0
        self.emit_bytes = 0
        self.char_samples = 0
        self.escalations = 0
        self.check_names: dict[str, str] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, after=None):
        """Span-recording wrapper; ``after(args, kwargs, result)`` runs once the span closed."""
        nid = self._id(name)
        push_name, push_parent = self.name_id.append, self.parent.append
        push_start, push_end, push_last = self.start.append, self.end.append, self.last.append
        start, end, last, stack = self.start, self.end, self.last, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            push_name(nid)
            push_parent(stack[-1])
            push_end(0)
            push_last(idx)
            stack.append(idx)
            push_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                last[idx] = len(start) - 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, original, wrapper) -> None:
        """Rebind every module-level reference to ``original`` in the package."""
        for modname, module in list(sys.modules.items()):
            if modname != "nilflow" and not modname.startswith("nilflow."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _hooks(self):
        def bits(args, kwargs, result):
            self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(args[0]))

        def emitted(args, kwargs, result):
            self.emit_bytes += Path(args[0]).stat().st_size

        def escalated(args, kwargs, result):
            self.escalations += bool(result["escalated"])

        def samples_of(fn):
            sig = inspect.signature(fn)

            def count(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                n, every = bound.arguments["n_iter"], bound.arguments.get("sample_every", 1)
                self.char_samples += len(bound.arguments["chars"]) * -(-n // every)
            return count

        return {"scalar.sign": bits, "scalar.floor": bits, "cli.emit": emitted,
                "dynamics.equidistribution": escalated, "dynamics.weyl": samples_of}

    def install(self) -> None:
        import nilflow.cli  # noqa: F401  (imports every traced module)

        modules = {m: sys.modules[f"nilflow.{m}"] for m in
                   ("scalar", "heisenberg", "freegroup", "factorization",
                    "dynamics", "verification", "cli")}
        hooks = self._hooks()
        for name, modname, owner_name, attrs in TARGETS:
            module = modules[modname]
            owner = getattr(module, owner_name) if owner_name else None
            wrapped: dict[int, object] = {}
            for attr in attrs:
                original = (owner.__dict__ if owner else vars(module))[attr]
                hook = hooks.get(name)
                if name == "dynamics.weyl":
                    hook = hook(original)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(original, name, hook)
                if owner is not None:
                    self._patch(owner, attr, wrapped[id(original)])
                else:
                    self._replace_function(original, wrapped[id(original)])
        for fn_name in VERIFY_FUNCTIONS:
            original = vars(modules["verification"])[fn_name]

            def record(args, kwargs, result, key=f"verification.{fn_name}"):
                self.check_names[key] = result.name

            self._replace_function(original, self._wrap(
                original, f"verification.{fn_name}", record))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "last": np.frombuffer(self.last, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        np.savez(path, **self.spans())

    def metrics(self, rounds: int, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced round (``ops`` operations in all)."""
        sp = self.spans()
        nid, parent = sp["name_id"], sp["parent"]
        dur = (sp["end_ns"] - sp["start_ns"]).astype(np.float64)
        k = len(self.names)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_ns = np.bincount(nid, weights=dur - child, minlength=k)
        ids = self._ids  # every span name was registered by install()

        def n(name):
            return calls[ids[name]] / rounds

        def per_call(name, weights, scale):
            i = ids[name]
            return weights[i] / calls[i] / scale if calls[i] else 0.0

        def layer_self_s(layer):
            return sum(self_ns[i] for name, i in ids.items()
                       if name.split(".")[0] == layer) / rounds / 1e9

        out: dict[str, tuple[float, str]] = {}
        for op in ("mul", "addsub", "div", "sign", "floor", "to_float"):
            out[f"scalar.{op}.calls"] = (n(f"scalar.{op}"), "count")
        for op in ("mul", "div", "sign", "floor", "to_float"):
            out[f"scalar.{op}.us"] = (per_call(f"scalar.{op}", self_ns, 1e3), "us")
        out["scalar.self_s"] = (layer_self_s("scalar"), "s")
        out["scalar.coeff_bits.max"] = (float(self.coeff_bits_max), "bits")
        for op in ("mul", "flow", "canonicalize"):
            out[f"heisenberg.{op}.calls"] = (n(f"heisenberg.{op}"), "count")
        out["heisenberg.canonicalize.us"] = (
            per_call("heisenberg.canonicalize", total, 1e3), "us")
        out["heisenberg.self_s"] = (layer_self_s("heisenberg"), "s")
        out["freegroup.apply.calls"] = (n("freegroup.apply"), "count")
        out["freegroup.self_s"] = (layer_self_s("freegroup"), "s")
        out["factorization.eigen_data.calls"] = (n("factorization.eigen_data"), "count")
        out["factorization.eigen_data.ms"] = (
            per_call("factorization.eigen_data", total, 1e6), "ms")
        out["factorization.self_s"] = (layer_self_s("factorization"), "s")
        for step in ("section_return", "strip_step", "skew_step", "crossing_step"):
            out[f"dynamics.{step}.calls"] = (n(f"dynamics.{step}"), "count")
            out[f"dynamics.{step}.us"] = (per_call(f"dynamics.{step}", total, 1e3), "us")
        out["dynamics.crossing_step.div_per_call"] = (self._divs_per_crossing(sp), "count")
        weyl_ns = total[ids["dynamics.weyl"]]
        out["dynamics.weyl.char_samples"] = (self.char_samples / rounds, "count")
        out["dynamics.weyl.ns_per_char_sample"] = (
            weyl_ns / self.char_samples if self.char_samples else 0.0, "ns")
        out["dynamics.weyl.escalations"] = (self.escalations / rounds, "count")
        out["dynamics.self_s"] = (layer_self_s("dynamics"), "s")
        by_check = {self.check_names.get(name): total[i]
                    for name, i in ids.items() if name.startswith("verification.")}
        for check in VERIFY_CHECKS:
            out[f"verify.{check}.s"] = (by_check.get(check, 0.0) / ops / 1e9, "s")
        out["cli.emit.s"] = (self_ns[ids["cli.emit"]] / rounds / 1e9, "s")
        out["cli.emit.bytes"] = (self.emit_bytes / rounds, "bytes")
        return out

    def _divs_per_crossing(self, sp) -> float:
        """Exact divisions inside each crossing solve, per crossing found."""
        ids = self._ids
        nid = sp["name_id"]
        crossing = np.flatnonzero(nid == ids["dynamics.crossing_step"])
        if len(crossing) == 0:
            return 0.0
        # spans are stored in call order, so a span's descendants are the
        # contiguous block (i, last[i]]
        divs = np.concatenate([[0], np.cumsum(nid == ids["scalar.div"])])
        inside = divs[sp["last"][crossing] + 1] - divs[crossing + 1]
        return float(inside.sum() / len(crossing))
