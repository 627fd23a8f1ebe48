"""Outside-in tracer for colombeau's layers.

The tracer wraps public entry points of the package's modules from outside:
no file of the package changes.  Every wrapped function or method is a
layer.  A layer records its call count, the points it was handed and its
self time, which is the span's duration minus the time covered by wrapped
calls made inside it.  The tracer's own bookkeeping (counting band points,
hashing seminorm keys) is charged to no layer's self time.

Callers bind names at import time (``from .nets import seminorm`` in
``mollify``, ``from .scale import estimate_valuation`` in ``nets``), so a
function is replaced under every name of every ``colombeau`` module that is
bound to it.  ``colombeau.mollify`` is the re-exported function, so modules
are always reached through ``importlib``.  ``uninstall`` puts every original
back and checks that it did.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# (module, function, layer name)
FUNCTIONS = (
    ("colombeau.expr.evaluate", "eval_batch", "expr.eval_batch"),
    ("colombeau.expr.transform", "differentiate", "expr.differentiate"),
    ("colombeau.expr.special", "cutoff_deriv_values", "expr.special.cutoff_deriv_values"),
    ("colombeau.expr.special", "bump_deriv_values", "expr.special.bump_deriv_values"),
    ("colombeau.nets", "seminorm", "nets.seminorm"),
    ("colombeau.scale", "estimate_valuation", "scale.estimate_valuation"),
    ("colombeau.regularity", "psequence", "regularity.psequence"),
    ("colombeau.regularity", "build_report", "regularity.build_report"),
    ("colombeau.runner", "write_json", "runner.write_json"),
    ("colombeau.config", "load_config", "config.load_config"),
    ("colombeau.mollify", "build_mollifier", "mollify.build_mollifier"),
)

# (module, class, layer name) for derivative_batch methods
METHODS = (
    ("colombeau.nets", "ExpressionNet", "nets.derivative_batch.ExpressionNet"),
    ("colombeau.nets", "FiniteSumNet", "nets.derivative_batch.FiniteSumNet"),
    ("colombeau.nets", "DifferenceNet", "nets.derivative_batch.DifferenceNet"),
    ("colombeau.mollify", "MollifiedNet", "mollify.MollifiedNet.derivative_batch"),
    ("colombeau.mollify", "PsiRouteNet", "mollify.PsiRouteNet.derivative_batch"),
)

LAYERS = tuple(layer for _, _, layer in FUNCTIONS + METHODS)
_MOLLIFIED = "mollify.MollifiedNet.derivative_batch"

# every count the tracer keeps; a hook that bumps any other name is a bug
COUNTERS = tuple(f"{layer}.calls" for layer in LAYERS) + tuple(
    f"{layer}.points" for _, _, layer in METHODS
) + (
    "expr.eval_batch.points",
    "expr.deriv_tree.nodes",  # summed node_count of every evaluated tree
    "expr.special.cutoff_deriv_values.points",
    "expr.special.cutoff_jet_coeffs",  # band points x (order + 1)
    "expr.special.bump_deriv_values.points",
    "nets.seminorm.distinct",
    "nets.grid_points",  # points handed to a net's derivative_batch by seminorm
    "nets.undersampled",
    "nets.nonfinite",
    _MOLLIFIED + ".base_points",
    "runner.write_json.bytes",
)


class TraceError(RuntimeError):
    pass


class Tracer:
    """Counters and self times per layer; install() patches, uninstall() restores."""

    def __init__(self):
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self._stack: list[list] = []  # [layer, seconds covered by child spans]
        self._patches: list[tuple[object, str, object]] = []
        self._seminorm_keys: set = set()
        self._node_counts: dict[int, tuple[object, int]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise TraceError("tracer already installed")
        import colombeau  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items()
                   if name == "colombeau" or name.startswith("colombeau.")]
        for module_name, func_name, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(original, layer, self._hooks(layer, original))
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise TraceError(f"{module_name}.{func_name} is bound nowhere")
        for module_name, class_name, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__["derivative_batch"]
            self._patch(cls, "derivative_batch",
                        self._wrap(original, layer, self._derivative_hooks(layer)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if getattr(owner, attr) is not original:
                raise TraceError(f"could not restore {owner!r}.{attr}")
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def reset(self) -> None:
        self.counts.update(dict.fromkeys(COUNTERS, 0))
        self.self_s.update(dict.fromkeys(LAYERS, 0.0))
        self._seminorm_keys.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, layer, hooks):
        pre, post = hooks
        stack = self._stack
        counts = self.counts
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            parent = stack[-1][0] if stack else None
            note = pre(args, kwargs, parent) if pre else None
            frame = [layer, 0.0]
            stack.append(frame)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                counts[layer + ".calls"] += 1
                self_s[layer] += (t2 - t1) - frame[1]
            if post:
                post(result, note)
            if stack:
                stack[-1][1] += clock() - t0
            return result

        return wrapper

    def _hooks(self, layer, fn):
        counts = self.counts
        if layer == "expr.eval_batch":
            from colombeau.expr import node_count

            def pre(args, kwargs, parent):
                expr, coords = args[0], args[1]
                counts[layer + ".points"] += int(coords.shape[1])
                counts["expr.deriv_tree.nodes"] += self._nodes(expr, node_count)
            return pre, None
        if layer == "expr.special.cutoff_deriv_values":
            import numpy as np

            def pre(args, kwargs, parent):
                order, t = args
                s = np.abs(np.asarray(t, dtype=float))
                counts[layer + ".points"] += int(s.size)
                band = int(np.count_nonzero((s > 1.0) & (s < 2.0)))
                counts["expr.special.cutoff_jet_coeffs"] += band * (order + 1)
            return pre, None
        if layer == "expr.special.bump_deriv_values":
            def pre(args, kwargs, parent):
                counts[layer + ".points"] += int(args[1].size)
            return pre, None
        if layer == "nets.seminorm":
            signature = inspect.signature(fn)

            def pre(args, kwargs, parent):
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                a = call.arguments
                key = (json.dumps(a["net"].describe(), sort_keys=True), a["k"],
                       a["K"].boxes, a["eps"], a["sampling"])
                if key not in self._seminorm_keys:
                    self._seminorm_keys.add(key)
                    counts[layer + ".distinct"] += 1

            def post(result, note):
                counts["nets.undersampled"] += int(result.undersampled)
                counts["nets.nonfinite"] += int(result.nonfinite)
            return pre, post
        if layer == "runner.write_json":
            def post(result, note):
                counts[layer + ".bytes"] += os.path.getsize(note)

            def pre(args, kwargs, parent):
                return args[0] if args else kwargs["path"]
            return pre, post
        return None, None

    def _derivative_hooks(self, layer):
        counts = self.counts

        def pre(args, kwargs, parent):
            coords = args[2] if len(args) > 2 else kwargs["coords"]
            n = int(coords.shape[1])
            counts[layer + ".points"] += n
            if parent == "nets.seminorm":
                counts["nets.grid_points"] += n
            elif parent == _MOLLIFIED:
                counts[_MOLLIFIED + ".base_points"] += n
        return pre, None

    def _nodes(self, expr, node_count) -> int:
        # keyed by id; the entry keeps expr alive so the id cannot be reused
        hit = self._node_counts.get(id(expr))
        if hit is None:
            hit = (expr, node_count(expr))
            self._node_counts[id(expr)] = hit
        return hit[1]
