"""Span tracing around calls into fracbvp's modules, from outside the library.

The tracer rebinds a module's public functions under the names their
callers look up (``fracbvp.solver.apply_T`` is what ``_iterate`` calls, for
example) and restores them afterwards; library source is not touched.  Each
wrapped call records a span: name, start, end, parent span and op id.
Calls made once per grid node (``expr.evaluate``) are only counted: timing
each would cost more than the call, so their time is measured by the span
of ``_rhs_samples``, the loop that makes them.

Span names are ``<layer>.<function>``, where the layer is the fracbvp module
that implements the function; ``solver._rhs_samples`` does nothing but
evaluate the right-hand side, so it counts as ``expr``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

ROOT_SPAN = "cli.main"


@dataclass(frozen=True)
class Hook:
    """One function to wrap: ``module.attr`` as seen by its caller."""

    module: str
    attr: str
    span: str
    count_only: bool = False


HOOKS = (
    Hook("fracbvp.cli", "parse_config", "cli.parse_config"),
    Hook("fracbvp.cli", "parse", "expr.parse"),
    Hook("fracbvp.cli", "picard_solve", "solver.picard_solve"),
    Hook("fracbvp.cli", "residual", "solver.residual"),
    Hook("fracbvp.cli", "certify", "certify.certify"),
    Hook("fracbvp.solver", "green_weight_matrix", "greens.green_weight_matrix"),
    Hook("fracbvp.solver", "companion_weight_matrix", "greens.companion_weight_matrix"),
    Hook("fracbvp.solver", "apply_T", "solver.apply_T"),
    Hook("fracbvp.solver", "_rhs_samples", "expr.rhs_samples"),
    Hook("fracbvp.solver", "evaluate", "expr.evaluate", count_only=True),
    Hook("fracbvp.solver", "caputo_grid", "fracops.caputo_grid"),
    Hook("fracbvp.greens", "left_kernel_moment_matrix", "fracops.left_kernel_moment_matrix"),
    Hook("fracbvp.greens", "right_kernel_moments", "fracops.right_kernel_moments"),
    Hook("fracbvp.greens", "indicator_moment_matrix", "fracops.indicator_moment_matrix"),
    Hook("fracbvp.certify", "gstar", "greens.gstar"),
    Hook("fracbvp.certify", "lipschitz_estimate", "expr.lipschitz_estimate"),
)

_ROOT = Hook("fracbvp.cli", "main", ROOT_SPAN)
_WEIGHT_BUILDERS = ("greens.green_weight_matrix", "greens.companion_weight_matrix")

# Per-layer metric -> (kind, spans).  "self" is self time per traced op,
# "calls" a per-run call count; the rest are special-cased in metrics().
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "greens.weight_build_s": ("self", _WEIGHT_BUILDERS),
    "fracops.moment_matrix_s": (
        "self",
        (
            "fracops.left_kernel_moment_matrix",
            "fracops.right_kernel_moments",
            "fracops.indicator_moment_matrix",
        ),
    ),
    "greens.operator_bytes": ("bytes", _WEIGHT_BUILDERS),
    "solver.matvec_s": ("self", ("solver.apply_T",)),
    "solver.apply_T_calls": ("calls", ("solver.apply_T",)),
    "expr.rhs_eval_s": ("self", ("expr.rhs_samples",)),
    "expr.evaluate_calls": ("calls", ("expr.evaluate",)),
    "expr.lipschitz_s": ("self", ("expr.lipschitz_estimate",)),
    "greens.gstar_s": ("self", ("greens.gstar",)),
    "solver.residual_s": ("self", ("solver.residual",)),
    "fracops.caputo_grid_s": ("self", ("fracops.caputo_grid",)),
    "fracops.caputo_grid_calls": ("calls", ("fracops.caputo_grid",)),
    "cli.parse_config_s": ("self", ("cli.parse_config",)),
    "cli.self_s": ("self", (ROOT_SPAN,)),
    "certify.self_s": ("self", ("certify.certify",)),
    "solver.self_s": ("self", ("solver.picard_solve",)),
    "solver.iterations": ("iterations", ("solver.picard_solve",)),
    "expr.parse_s": ("self", ("expr.parse",)),
    "trace.op_p50_s": ("op", ()),
    "trace.overhead_s": ("overhead", ()),
}

UNITS = {"self": "s", "calls": "count", "bytes": "B", "iterations": "count", "op": "s", "overhead": "s"}


class Tracer:
    """Records spans for the ops run between :meth:`install` and
    :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, Optional[int], str, float, float]] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = {h.span: 0 for h in HOOKS} | {ROOT_SPAN: 0}
        self.operator_bytes = 0
        self.iterations = 0
        self.missing: set[str] = set()
        self._stack: list[list] = []
        self._next_id = 0
        self._op = -1
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.attr, None)
            if original is None:
                # A later version may route around this name; it then
                # reports zero calls rather than failing.
                self.missing.add(f"{hook.module}.{hook.attr}")
                continue
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def run_op(self, op: int, fn: Callable[[], Any]) -> Any:
        """Run one op under a root span."""
        self._op = op
        return self._call(_ROOT, fn, (), {})

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        if hook.count_only:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[hook.span] += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            return self._call(hook, fn, args, kwargs)

        return traced

    def _call(self, hook: Hook, fn: Callable, args: tuple, kwargs: dict) -> Any:
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            if parent is not None:
                parent[2] += duration
            self.self_time[hook.span] += duration - frame[2]
            self.calls[hook.span] += 1
            parent_id = None if parent is None else parent[0]
            self.spans.append((self._op, frame[0], parent_id, hook.span, frame[1], end))
        if hook.span in _WEIGHT_BUILDERS:
            self.operator_bytes += result.nbytes
        elif hook.span == "solver.picard_solve":
            self.iterations += result[1].iterations
        return result

    def metrics(self, traced_times: list[float], untraced_times: list[float]) -> dict[str, dict]:
        """Per-layer metrics: times per traced op, counts per run."""
        ops = len(traced_times)
        out = {}
        for name, (kind, spans) in PER_LAYER.items():
            if kind == "self":
                value = sum(self.self_time[s] for s in spans) / ops
            elif kind == "calls":
                value = sum(self.calls[s] for s in spans)
            elif kind == "bytes":
                value = self.operator_bytes / ops
            elif kind == "iterations":
                value = self.iterations
            elif kind == "op":
                value = float(np.median(traced_times))
            else:
                value = float(np.median(traced_times) - np.median(untraced_times))
            out[name] = {"value": value, "unit": UNITS[kind]}
        return out

    def dump(self) -> dict:
        """Everything recorded, for the trace file."""
        return {
            "spans": [
                {"op": op, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
                for op, sid, parent, name, start, end in self.spans
            ],
            "calls": dict(self.calls),
            "self_s": dict(self.self_time),
            "missing": sorted(self.missing),
        }
