"""Benchmark-side tracing: spans around the program's public entry points.

Nothing under ``src/`` knows about this module.  :func:`install` swaps
the entry points listed in :data:`ENTRY_POINTS` for wrappers that record
in-memory spans ``{name, layer, start, end, parent}`` on one shared
stack; :meth:`Tracer.uninstall` puts the originals back.  Per name the
tracer keeps exact totals — calls, wall time, *self* time (the span minus
the part of it its child spans cover) and an optional measured quantity
(e.g. the number of neighbors a discovery round added) — plus
parent→child edge totals, and the first :data:`SPAN_CAP` raw spans of
each name for the trace file.  Callables invoked ≳ 10⁶ times per run get
a count-only wrapper (no clock reads, no span).

One stack for all threads is deliberate: the only multi-threaded workload
(``service-replay``) is a closed loop with one connection, so the client
thread is blocked inside its request span exactly while the server thread
works, and the server-side spans nest under the request that caused them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "NullTracer", "install", "ENTRY_POINTS", "COUNT_POINTS", "SPAN_CAP"]

#: raw spans kept per name (totals stay exact beyond it)
SPAN_CAP = 2000


def _plan_span_name(runner, plan) -> str:
    return f"ops.{plan.name}_plan"


def _first_len(result) -> int:
    return len(result[0])


#: (module, owner or None for a module-level function, attribute, span
#: name or callable(*args) -> name, layer, measure(result) or None)
ENTRY_POINTS: Tuple[tuple, ...] = (
    ("repro.simulation", "AvmemSimulation", "__init__", "simulation.build", "simulation", None),
    ("repro.simulation", "AvmemSimulation", "setup", "simulation.setup", "simulation", None),
    # simulation.py binds the generator by name at import, so the module
    # attribute is the call site's view of it.
    ("repro.simulation", None, "generate_overnet_trace", "churn.trace_gen", "churn", None),
    ("repro.churn.timeline", "ChurnTimeline", "online_mask", "churn.online_mask", "churn", None),
    ("repro.core.population", "Population", "from_ids", "core.population_build", "core.population", None),
    ("repro.core.availability", "AvailabilityPdf", "from_samples", "core.pdf_build", "core.population", None),
    ("repro.core.node", "AvmemNode", "__init__", "core.node_construct", "core.node", None),
    ("repro.core.node", "AvmemNode", "discovery_step", "core.discovery_step", "core.node", int),
    ("repro.core.node", "AvmemNode", "refresh_step", "core.refresh_step", "core.node", int),
    ("repro.core.node", "AvmemNode", "install_member_rows", "core.install_rows", "core.membership", None),
    ("repro.core.predicates", "AvmemPredicate", "evaluate_all_rows", "core.eval_all_rows", "core.predicates", _first_len),
    ("repro.core.predicates", "AvmemPredicate", "evaluate_many", "core.eval_many", "core.predicates", None),
    ("repro.core.membership", "MembershipTable", "refresh_round", "core.refresh_round", "core.membership", None),
    ("repro.overlays.graphs", "OverlayGraph", "__init__", "overlays.graph_build", "overlays", None),
    ("repro.monitor.coarse_view", "GlobalSampleView", "view", "monitor.coarse_view", "monitor", len),
    ("repro.sim.engine", "Simulator", "run_until", "sim.run", "sim.engine", None),
    ("repro.sim.engine", "Simulator", "run", "sim.run", "sim.engine", None),
    # send_batch only delegates to send_batch_suppressing, and the scalar
    # fallbacks loop over send: same-name spans do not nest, so one
    # outermost call is one cohort.
    ("repro.sim.network", "Network", "send", "sim.net_send", "sim.network", None),
    ("repro.sim.network", "Network", "send_batch_suppressing", "sim.net_send", "sim.network", None),
    ("repro.sim.network", "Network", "send_many", "sim.net_send", "sim.network", None),
    ("repro.ops.runner", "OperationRunner", "run", _plan_span_name, "ops", None),
    ("repro.ops.log", "OperationLog", "aggregate", "ops.aggregate", "ops", None),
    ("repro.ops.log", "OperationLog", "summary", "ops.aggregate", "ops", None),
    ("repro.ops.log", "OperationLog", "to_json", "ops.log_json", "ops", None),
    ("repro.ops.log", "OperationLog", "from_json", "ops.log_json", "ops", None),
)

#: count-only wrappers: (module, owner, attribute, counter name, measure)
COUNT_POINTS: Tuple[tuple, ...] = (
    ("repro.core.predicates", "AvmemPredicate", "evaluate_kind", "core.eval_kind", None),
    ("repro.core.membership", "MembershipTable", "neighbor_arrays", "core.neighbor_arrays", None),
    ("repro.overlays.graphs", "OverlayGraph", "row", "overlays.row", None),
    ("repro.monitor.oracle", "OracleAvailability", "query", "monitor.oracle_query", None),
    ("repro.monitor.oracle", "OracleAvailability", "query_array", "monitor.oracle_query", len),
)


class _Span:
    """Context manager for a benchmark-side span (``tracer.span``)."""

    __slots__ = ("_tracer", "_name", "_layer", "_frame")

    def __init__(self, tracer: "Tracer", name: str, layer: str):
        self._tracer, self._name, self._layer = tracer, name, layer

    def __enter__(self):
        self._frame = self._tracer._push(self._name)
        return self

    def __exit__(self, *exc):
        self._tracer._pop(self._frame, self._layer, 0)
        return False


class NullTracer:
    """Tracing off: spans cost one method call, nothing is patched."""

    enabled = False
    _span = contextlib.nullcontext()

    def span(self, name: str, layer: str):
        return self._span


class Tracer:
    """In-memory span recorder (see module docstring)."""

    enabled = True

    def __init__(self):
        #: open spans, innermost last: [name, span id, start, child time]
        self._stack: List[list] = []
        self._next_id = 0
        #: name -> [layer, calls, total_s, self_s, measured]
        self.totals: Dict[str, list] = {}
        #: (parent name or "", child name) -> [calls, total_s]
        self.edges: Dict[Tuple[str, str], list] = {}
        #: counter name -> [calls, measured]
        self.counters: Dict[str, list] = {}
        #: raw spans: (id, name, layer, start, end, parent id or -1)
        self.spans: List[tuple] = []
        self._patched: List[tuple] = []

    # -- recording --------------------------------------------------------
    def _push(self, name: str) -> list:
        frame = [name, self._next_id, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list, layer: str, measured) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, span_id, start, child_time = frame
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [layer, 0, 0.0, 0.0, 0]
        total[1] += 1
        total[2] += duration
        total[3] += duration - child_time
        total[4] += measured
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_name, parent_id = parent[0], parent[1]
        else:
            parent_name, parent_id = "", -1
        edge = self.edges.get((parent_name, name))
        if edge is None:
            edge = self.edges[(parent_name, name)] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration
        if total[1] <= SPAN_CAP:
            self.spans.append((span_id, name, layer, start, end, parent_id))

    def span(self, name: str, layer: str) -> _Span:
        return _Span(self, name, layer)

    # -- wrapping ---------------------------------------------------------
    def _timed(self, fn: Callable, name, layer: str, measure: Optional[Callable]):
        stack = self._stack
        push, pop = self._push, self._pop
        dynamic = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(*args) if dynamic else name
            if stack and stack[-1][0] == span_name:
                return fn(*args, **kwargs)
            frame = push(span_name)
            measured = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    measured = measure(result)
                return result
            finally:
                pop(frame, layer, measured)

        return wrapper

    def _counted(self, fn: Callable, name: str, measure: Optional[Callable]):
        cell = self.counters.setdefault(name, [0, 0])

        if measure is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                cell[0] += 1
                cell[1] += measure(result)
                return result

        return wrapper

    def _patch(self, module_name: str, owner_name: Optional[str], attr: str, make) -> None:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- views ------------------------------------------------------------
    def total_s(self, name: str) -> float:
        total = self.totals.get(name)
        return total[2] if total else 0.0

    def self_s(self, name: str) -> float:
        total = self.totals.get(name)
        return total[3] if total else 0.0

    def calls(self, name: str) -> int:
        total = self.totals.get(name)
        return total[1] if total else 0

    def measured(self, name: str) -> int:
        total = self.totals.get(name)
        return total[4] if total else 0

    def edge_s(self, parent: str, child: str) -> float:
        edge = self.edges.get((parent, child))
        return edge[1] if edge else 0.0

    def count(self, name: str) -> int:
        return self.counters.get(name, (0, 0))[0]

    def count_measured(self, name: str) -> int:
        return self.counters.get(name, (0, 0))[1]

    def durations(self, name: str) -> List[float]:
        """Durations of the recorded (first ``SPAN_CAP``) spans of ``name``."""
        return [end - start for _, n, _, start, end, _ in self.spans if n == name]

    def root_s(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(edge[1] for (parent, _), edge in self.edges.items() if parent == "")

    def layer_self_s(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for layer, _, _, self_s, _ in self.totals.values():
            layers[layer] = layers.get(layer, 0.0) + self_s
        return dict(sorted(layers.items(), key=lambda kv: -kv[1]))

    def write(self, path: str, header: Dict[str, object]) -> None:
        """The trace file: exact per-name totals, parent→child edges,
        per-layer self time, counters, and the capped raw spans."""
        origin = min((s[3] for s in self.spans), default=0.0)
        payload = dict(header)
        payload.update(
            span_cap=SPAN_CAP,
            layers_self_s=self.layer_self_s(),
            totals={
                name: {
                    "layer": layer,
                    "calls": calls,
                    "total_s": total_s,
                    "self_s": self_s,
                    "measured": measured,
                }
                for name, (layer, calls, total_s, self_s, measured) in sorted(
                    self.totals.items()
                )
            },
            edges=[
                {"parent": parent, "child": child, "calls": calls, "total_s": total_s}
                for (parent, child), (calls, total_s) in sorted(self.edges.items())
            ],
            counters={
                name: {"calls": calls, "measured": measured}
                for name, (calls, measured) in sorted(self.counters.items())
            },
            spans=[
                {
                    "id": span_id,
                    "name": name,
                    "layer": layer,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                }
                for span_id, name, layer, start, end, parent in self.spans
            ],
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")


def _wrap_registered_handlers(tracer: Tracer) -> None:
    """Time the operation engine's message handlers.  They are private,
    but they reach the nodes through the public
    ``AvmemNode.register_handler``; wrapping what is registered there
    attributes message handling to ``ops`` instead of leaving it inside
    the event loop's self time."""
    wrapped: Dict[Callable, Callable] = {}

    def make(register: Callable) -> Callable:
        def register_handler(node, payload_type, handler):
            if handler not in wrapped:
                wrapped[handler] = tracer._timed(handler, "ops.handle", "ops", None)
            return register(node, payload_type, wrapped[handler])

        return register_handler

    tracer._patch("repro.core.node", "AvmemNode", "register_handler", make)


def install(tracer: Tracer) -> Tracer:
    """Patch every entry point; call before the first simulation object
    exists (periodic tasks bind ``node.discovery_step`` when they start)."""
    _wrap_registered_handlers(tracer)
    for module, owner, attr, name, layer, measure in ENTRY_POINTS:
        tracer._patch(
            module, owner, attr,
            lambda fn, n=name, l=layer, m=measure: tracer._timed(fn, n, l, m),
        )
    for module, owner, attr, name, measure in COUNT_POINTS:
        tracer._patch(
            module, owner, attr,
            lambda fn, n=name, m=measure: tracer._counted(fn, n, m),
        )
    return tracer
