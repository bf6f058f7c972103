"""Spans around the package's layer boundaries, installed from outside.

Each wrapper replaces a function at the name its caller looks up (for
example ``dtransform.evaluate``, the name ``d_sequence`` calls, rather than
``exprtaylor.evaluate``), times the call and adds it to its parent span.
Spans are aggregated in memory per name: call count, total time and self
time, where self time is a span's duration minus that of its child spans.
A wrapped name the package no longer has is recorded as absent; its
metrics then read 0 and ``trace.absent_layers`` counts it.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

from dmint import cli, compose, dtransform, quad, symseries

# (owner, attribute looked up by the caller, span name)
WRAPPED = (
    (dtransform, "parse", "exprtaylor.parse"),
    (dtransform, "evaluate", "exprtaylor.evaluate"),
    (dtransform, "derivatives", "exprtaylor.derivatives"),
    (dtransform, "cumulative", "quad.cumulative"),
    (quad, "panel_integrate", "quad.panel_integrate"),
    (dtransform, "build_system", "dtransform.build_system"),
    (dtransform, "solve", "dtransform.solve"),
    (dtransform, "d_sequence", "dtransform.d_sequence"),
    (cli, "_cmd_reproduce_table", "cli.reproduce_table"),
    (compose, "l_matrix", "bell.l_matrix"),
    (symseries, "parse_rational", "symseries.parse_rational"),
    (compose, "compose_poly", "symseries.compose_poly"),
    (compose, "profile", "symseries.profile"),
    (symseries, "to_text", "symseries.to_text"),
    (symseries.GeneralizedRational, "__init__", "symseries.canonicalize"),
    (compose.OdeCoefficients, "__init__", "compose.OdeCoefficients"),
    (compose, "compose_ode", "compose.compose_ode"),
    (compose, "order_bounds", "compose.order_bounds"),
)


class Tracer:
    """Per-name span totals plus the quadrature and window counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.absent = []
        self._stack = [[0.0]]
        # Panel edges of the grid being integrated, to spot bisected panels.
        self._edges = frozenset()
        self.panels = 0
        self.nodes = 0
        self.bisected = 0
        self.window_dim_max = 0

    def span(self, name: str, fn, before=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stack[-1][0] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[0]

        return wrapper

    def install(self):
        hooks = {
            "quad.cumulative": self._on_cumulative,
            "quad.panel_integrate": self._on_panel,
            "dtransform.build_system": self._on_build_system,
        }
        for owner, attr, name in WRAPPED:
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            hook = hooks.get(name)
            if hook is not None:
                hook = self._bound_args(name, fn, hook)
            setattr(owner, attr, self.span(name, fn, hook))

    def _on_cumulative(self, bound):
        points = bound["grid"].points
        self._edges = frozenset((0.0,) + tuple(points))
        self.panels += len(points)

    def _on_panel(self, bound):
        # A panel is integrated whole at q and at the doubled order; a
        # bisected one adds two half-panel calls, the first ending off-grid.
        self.nodes += bound["q"]
        if bound["b"] not in self._edges:
            self.bisected += 1

    def _on_build_system(self, bound):
        self.window_dim_max = max(self.window_dim_max, bound["spec"].N + 1)

    def layer_metrics(self, ops: int, scale: float) -> dict[str, float]:
        """Per-op means of the per-layer metrics over ``ops`` traced ops.

        Times are multiplied by ``scale``, the run's machine-speed factor.
        """
        def ms(name):
            return self.total[name] * scale * 1e3 / ops

        def self_ms(name):
            return self.self_time[name] * scale * 1e3 / ops

        def calls(name):
            return self.calls[name] / ops

        evaluate_calls = self.calls["exprtaylor.evaluate"]
        return {
            "exprtaylor.parse.ms": ms("exprtaylor.parse"),
            "exprtaylor.evaluate.calls": calls("exprtaylor.evaluate"),
            "exprtaylor.evaluate.ms": ms("exprtaylor.evaluate"),
            "exprtaylor.evaluate.us_per_call": (
                self.total["exprtaylor.evaluate"] * scale * 1e6 / evaluate_calls
                if evaluate_calls else 0.0),
            "exprtaylor.derivatives.calls": calls("exprtaylor.derivatives"),
            "exprtaylor.derivatives.ms": ms("exprtaylor.derivatives"),
            "quad.cumulative.ms": ms("quad.cumulative"),
            "quad.cumulative.self_ms": self_ms("quad.cumulative"),
            "quad.panels": self.panels / ops,
            "quad.nodes_per_panel": self.nodes / self.panels if self.panels else 0.0,
            "quad.bisect_ratio": self.bisected / self.panels if self.panels else 0.0,
            "dtransform.build_system.calls": calls("dtransform.build_system"),
            "dtransform.build_system.ms": ms("dtransform.build_system"),
            "dtransform.solve.calls": calls("dtransform.solve"),
            "dtransform.solve.ms": ms("dtransform.solve"),
            "dtransform.window_dim_max": float(self.window_dim_max),
            "dtransform.d_sequence.self_ms": self_ms("dtransform.d_sequence"),
            "cli.reproduce_table.self_ms": self_ms("cli.reproduce_table"),
            "symseries.parse_rational.ms": ms("symseries.parse_rational"),
            "symseries.canonicalize.calls": calls("symseries.canonicalize"),
            "symseries.canonicalize.ms": ms("symseries.canonicalize"),
            "symseries.compose_poly.ms": ms("symseries.compose_poly"),
            "symseries.profile.ms": ms("symseries.profile"),
            "symseries.to_text.ms": ms("symseries.to_text"),
            "bell.l_matrix.ms": ms("bell.l_matrix"),
            "compose.OdeCoefficients.ms": ms("compose.OdeCoefficients"),
            "compose.compose_ode.self_ms": self_ms("compose.compose_ode"),
            "compose.order_bounds.ms": ms("compose.order_bounds"),
            "trace.absent_layers": float(len(self.absent)),
        }

    def _bound_args(self, name: str, fn, hook):
        """Adapt ``hook(arguments by name)`` to the ``before(args, kwargs)`` call.

        If the wrapped function no longer takes the arguments the hook
        reads, the hook switches itself off and its counters are recorded
        as absent, so a refactor cannot fail the run through the trace.
        """
        signature = inspect.signature(fn)
        on = True

        def before(args, kwargs):
            nonlocal on
            if not on:
                return
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments)
            except (TypeError, KeyError, AttributeError):
                on = False
                self.absent.append(name + " counters")

        return before
