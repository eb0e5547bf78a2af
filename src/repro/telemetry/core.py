"""The process-wide telemetry recorder: counters, gauges, histograms,
and nested wall-clock spans.

One :class:`TelemetryRecorder` instance — the module singleton
``TELEMETRY`` re-exported from :mod:`repro.telemetry` — serves the whole
process.  It starts **disabled**: every hook point in the simulator, the
network, the operation engine, and the overlay builders guards its
instrumentation behind one ``TELEMETRY.enabled`` attribute check (or one
:meth:`~TelemetryRecorder.span` call returning the shared no-op context
manager), so an uninstrumented-feeling hot path is what disabled runs
pay.  The overhead bound is regression-tested in
``tests/test_telemetry.py``.

Instrumentation NEVER touches simulation state or randomness — it only
reads wall clocks and increments its own tallies — so seeded runs
produce bit-identical operation records with telemetry on or off
(also regression-tested).

The four primitives:

* **counters** — monotone event tallies (``sim.events``,
  ``net.drop.dst_offline``);
* **gauges** — last-write-wins samples (``sim.queue_depth``);
* **histograms** — numpy-backed power-of-two bucket tallies for
  non-negative sizes (``sim.schedule_cohort_size``);
* **spans** — nested wall-clock intervals aggregated into a tree keyed
  by the span-name path (``ops.run`` → ``ops.execute`` →
  ``ops.advance``), with per-path call counts and total seconds.

Freeze everything with :meth:`TelemetryRecorder.snapshot` — a
:class:`~repro.telemetry.snapshot.TelemetrySnapshot` with exact JSON
round-trip.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "TelemetryRecorder",
    "Histogram",
    "TELEMETRY",
    "NULL_SPAN",
    "current",
    "use_recorder",
]

#: number of power-of-two buckets a histogram keeps (2^62 tops out any
#: conceivable cohort size)
_HIST_BUCKETS = 64

#: how many event-loop ticks pass between queue-depth/progress samples
_TICK_SAMPLE_EVERY = 2048


class Histogram:
    """Power-of-two bucket tally for non-negative values.

    Bucket 0 counts values in ``[0, 1]``; bucket ``i`` counts values in
    ``(2^(i-1), 2^i]``.  Exact count/sum/min/max ride along, so means
    stay exact even though the buckets are coarse.  Values are observed
    scalar (:meth:`observe`) or as whole arrays (:meth:`observe_array`)
    with one vectorized pass.
    """

    __slots__ = ("counts", "count", "total", "vmin", "vmax")

    def __init__(self):
        self.counts = np.zeros(_HIST_BUCKETS, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    @staticmethod
    def _bucket(value: float) -> int:
        if value <= 1.0:
            return 0
        # ceil(log2(v)) via integer bit length of ceil(v) - 1.
        return min(_HIST_BUCKETS - 1, (int(np.ceil(value)) - 1).bit_length())

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError(f"histogram values must be non-negative, got {value}")
        self.counts[self._bucket(value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def observe_array(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        if float(values.min()) < 0:
            raise ValueError("histogram values must be non-negative")
        buckets = np.zeros(values.shape, dtype=np.int64)
        above = values > 1.0
        if above.any():
            buckets[above] = np.minimum(
                _HIST_BUCKETS - 1,
                np.ceil(np.log2(np.ceil(values[above]))).astype(np.int64),
            )
        self.counts += np.bincount(buckets, minlength=_HIST_BUCKETS)
        self.count += int(values.size)
        self.total += float(values.sum())
        self.vmin = min(self.vmin, float(values.min()))
        self.vmax = max(self.vmax, float(values.max()))

    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for snapshots (empty histograms legal)."""
        nonzero = np.flatnonzero(self.counts)
        hi = int(nonzero[-1]) + 1 if nonzero.size else 0
        return {
            "counts": self.counts[:hi].tolist(),
            "count": int(self.count),
            "sum": float(self.total),
            "min": float(self.vmin) if self.count else None,
            "max": float(self.vmax) if self.count else None,
        }


class _SpanAgg:
    """One node of the aggregated span tree (keyed by name under its
    parent)."""

    __slots__ = ("name", "count", "total", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.children: Dict[str, "_SpanAgg"] = {}


class _NullSpan:
    """The shared no-op context manager handed out while disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """A live span: entering pushes onto the recorder's stack, exiting
    (on any path — normal or exception unwinding) pops and accumulates
    into the aggregated tree.  Re-entrant: recursive spans of the same
    name accumulate into one child node with per-entry timestamps."""

    __slots__ = ("_recorder", "_name", "_agg", "_t0")

    def __init__(self, recorder: "TelemetryRecorder", name: str):
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        recorder = self._recorder
        stack = recorder._span_stack
        parent = stack[-1][0] if stack else recorder._span_root
        agg = parent.children.get(self._name)
        if agg is None:
            agg = parent.children[self._name] = _SpanAgg(self._name)
        self._agg = agg
        self._t0 = time.perf_counter()
        stack.append((agg, self))
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._t0
        recorder = self._recorder
        stack = recorder._span_stack
        # Unwind to *this* span: an exception raised mid-body may have
        # skipped inner __exit__s if a caller holds raw _Span objects;
        # the with-statement protocol guarantees LIFO, so popping to self
        # is a no-op in normal use and damage control otherwise.
        while stack:
            agg, live = stack.pop()
            if live is self:
                break
        self._agg.count += 1
        self._agg.total += elapsed
        return False


class TelemetryRecorder:
    """Low-overhead process-wide instrumentation sink.

    All hook points go through the module singleton ``TELEMETRY``; tests
    may construct private recorders.  See the module docstring for the
    disabled-overhead and no-perturbation contracts.
    """

    def __init__(self, enabled: bool = False):
        #: THE hot-path guard: hook points check this one attribute.
        self.enabled = bool(enabled)
        self._reset_state()

    def _reset_state(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._distributions: Dict[str, Dict[str, float]] = {}
        self._span_root = _SpanAgg("")
        self._span_stack: List[Tuple[_SpanAgg, _Span]] = []
        self._started_at = time.perf_counter()
        self._tick_countdown = _TICK_SAMPLE_EVERY
        self._progress = None  # type: Optional[object]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self, reset: bool = True) -> None:
        """Turn recording on (optionally wiping previous state)."""
        if reset:
            self._reset_state()
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (state is kept; snapshot still works)."""
        self.enabled = False

    def reset(self) -> None:
        """Wipe all recorded state (enabled flag unchanged)."""
        self._reset_state()

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def count(self, name: str, by: int = 1) -> None:
        counters = self._counters
        counters[name] = counters.get(name, 0) + by

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def observe_array(self, name: str, values: np.ndarray) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe_array(values)

    def distribution(self, name: str, summary: Dict[str, float]) -> None:
        """Attach a pre-summarized sample distribution (the
        :meth:`~repro.sim.metrics.MetricsRegistry.export` bridge)."""
        self._distributions[name] = {k: float(v) for k, v in summary.items()}

    def span(self, name: str):
        """Context manager timing a nested wall-clock span.

        Returns the shared no-op manager while disabled, so
        ``with TELEMETRY.span("x"):`` is safe (and cheap) to leave
        unguarded on warm paths; per-event paths should still guard with
        ``if TELEMETRY.enabled:``.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name)

    # ------------------------------------------------------------------
    # Event-loop hook
    # ------------------------------------------------------------------
    def event_tick(self, sim) -> None:
        """One simulator event executed (called from the event loop only
        while enabled).  Counts events; every few thousand ticks samples
        queue depth / sim time and gives the progress reporter a chance
        to emit."""
        self.count("sim.events")
        self._tick_countdown -= 1
        if self._tick_countdown <= 0:
            self._tick_countdown = _TICK_SAMPLE_EVERY
            self.gauge("sim.queue_depth", sim.queue_depth)
            self.gauge("sim.now", sim.now)
            progress = self._progress
            if progress is not None:
                progress.poke(sim=sim)

    def poke_progress(self, context=None) -> None:
        """Rate-limited progress heartbeat for non-event-loop phases
        (overlay construction blocks, memmap spills); ``context`` is a
        phase label (string or zero-argument callable)."""
        progress = self._progress
        if progress is not None:
            progress.poke(context=context)

    def attach_progress(self, reporter) -> None:
        """Install a :class:`~repro.telemetry.progress.ProgressReporter`
        (or None to detach)."""
        self._progress = reporter

    @property
    def progress(self):
        return self._progress

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def wall_seconds(self) -> float:
        """Wall-clock seconds since the recorder was (re)enabled/reset."""
        return time.perf_counter() - self._started_at

    def snapshot(self):
        """Freeze the current state into a
        :class:`~repro.telemetry.snapshot.TelemetrySnapshot`."""
        from repro.telemetry.snapshot import TelemetrySnapshot, SpanStat

        def freeze(agg: _SpanAgg) -> SpanStat:
            return SpanStat(
                name=agg.name,
                count=agg.count,
                seconds=agg.total,
                children=tuple(
                    freeze(child) for child in agg.children.values()
                ),
            )

        return TelemetrySnapshot(
            wall_seconds=self.wall_seconds(),
            counters=dict(sorted(self._counters.items())),
            gauges=dict(sorted(self._gauges.items())),
            histograms={
                name: hist.as_dict()
                for name, hist in sorted(self._histograms.items())
            },
            distributions={
                name: dict(summary)
                for name, summary in sorted(self._distributions.items())
            },
            spans=tuple(
                freeze(child) for child in self._span_root.children.values()
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"TelemetryRecorder({state}, counters={len(self._counters)}, "
            f"spans={len(self._span_root.children)})"
        )


#: The process-wide *default* recorder.  Hook points resolve their
#: recorder through :func:`current`, which falls back to this singleton
#: when no per-session recorder is active — so single-run CLI paths and
#: benchmarks keep the historical ``TELEMETRY.enable()`` behaviour
#: unchanged.
TELEMETRY = TelemetryRecorder(enabled=False)

#: The active per-context recorder override (None -> the ``TELEMETRY``
#: default).  A :class:`~repro.service.session.SimulationSession` routes
#: its engine's instrumentation into a private recorder by building and
#: executing under :func:`use_recorder`; concurrent sessions on separate
#: threads see their own value because ``contextvars`` contexts are
#: per-thread.
_ACTIVE: "contextvars.ContextVar[Optional[TelemetryRecorder]]" = (
    contextvars.ContextVar("avmem-telemetry-recorder", default=None)
)


def current() -> TelemetryRecorder:
    """The recorder hook points should record into *right now*.

    Returns the recorder installed by the innermost active
    :func:`use_recorder` context, or the process-wide :data:`TELEMETRY`
    default when none is.  Long-lived engine objects (the simulator, the
    network, the operation engine) capture ``current()`` once at
    construction so their per-event hot paths keep paying exactly one
    attribute check; module-level cold phases call it per invocation.
    """
    recorder = _ACTIVE.get()
    return TELEMETRY if recorder is None else recorder


@contextlib.contextmanager
def use_recorder(recorder: TelemetryRecorder):
    """Route :func:`current` to ``recorder`` inside the ``with`` body.

    Nestable and exception-safe; the previous recorder is restored on
    exit.  This is the session-orchestrator hook: every command a
    :class:`~repro.service.session.SimulationSession` executes runs under
    its own recorder, so concurrent sessions in one process never share
    (or perturb) each other's telemetry.
    """
    token = _ACTIVE.set(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE.reset(token)
