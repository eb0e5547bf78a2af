"""Discrete-event simulation engine.

The paper evaluated AVMEM with a C/C++ discrete-event simulation; this
module is our from-scratch Python equivalent.  It provides:

* :class:`Simulator` — a binary-heap event loop with deterministic
  tie-breaking (events at equal times fire in scheduling order).
* :class:`ScheduledEvent` — a cancellable handle for a scheduled callback.
* :class:`PeriodicTask` — a fixed-period repeating callback with optional
  start jitter, used for the paper's protocol periods (discovery every
  minute, refresh every 20 minutes, gossip every second).

Time is a ``float`` in **seconds** throughout the library.

Design notes
------------
Callbacks (rather than coroutines) are the primitive because the protocol
logic in :mod:`repro.core.node` and :mod:`repro.ops` is naturally
event-driven and callbacks keep the hot loop cheap.  A small
generator-based process layer is provided in :mod:`repro.sim.process` for
tests and examples that read better as sequential scripts.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.telemetry import current as current_telemetry

__all__ = ["Simulator", "ScheduledEvent", "PeriodicTask", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the simulator (e.g. scheduling
    in the past)."""


class ScheduledEvent:
    """Handle for a scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled with
    :meth:`cancel` any time before they fire.
    """

    __slots__ = ("time", "callback", "args", "_cancelled", "_fired")

    def __init__(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the callback has already run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still queued and will fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if it was still pending."""
        if self.pending:
            self._cancelled = True
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"ScheduledEvent(t={self.time:.6f}, {name}, {state})"


class Simulator:
    """Heap-based discrete-event loop.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(2.0, order.append, "b")
    >>> _ = sim.schedule(1.0, order.append, "a")
    >>> sim.run()
    >>> order
    ['a', 'b']
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        # Heap of (time, seq, event): seq is unique, so two entries never
        # tie on (time, seq) and the event itself is never compared.
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        self._counter = itertools.count()
        self._events_processed = 0
        self._running = False
        self._stop_requested = False
        # Captured once so the per-event hot path stays one attribute
        # check; a simulator built under telemetry.use_recorder() (a
        # service session) records into that session's recorder for its
        # whole lifetime.
        self._telemetry = current_telemetry()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_count(self) -> int:
        """Number of events that will still fire (cancelled-but-unpopped
        entries are excluded; :attr:`queue_depth` includes them).  O(queue)."""
        return len(self.pending_times())

    @property
    def queue_depth(self) -> int:
        """Heap size, including cancelled-but-unpopped entries.  O(1) —
        what telemetry samples."""
        return len(self._queue)

    def pending_times(self) -> List[float]:
        """Fire times of the events that will still fire, ascending."""
        return sorted(time for time, _, event in self._queue if not event._cancelled)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        queue = self._queue
        while queue and queue[0][2]._cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time!r} before current time t={self._now!r}"
            )
        if not callable(callback):
            raise TypeError(f"callback must be callable, got {callback!r}")
        event = ScheduledEvent(float(time), callback, args)
        heapq.heappush(self._queue, (event.time, next(self._counter), event))
        return event

    def schedule_at_many(
        self,
        times: Sequence[float],
        callback: Callable[..., Any],
        args_seq: Sequence[Tuple[Any, ...]],
    ) -> List[ScheduledEvent]:
        """Schedule ``callback(*args_seq[k])`` at ``times[k]`` for every k.

        The cohort form of :meth:`schedule_at`, used by
        ``Network.send_batch`` for a cohort's ``_deliver`` events:
        validation runs once for the whole cohort and heap entries are
        pushed directly, so enqueueing it costs one Python call plus one
        push per event instead of one full ``schedule_at`` round trip
        each.  Events fire in time order with the same deterministic
        tie-breaking (scheduling order) as individually scheduled ones.
        """
        if len(times) != len(args_seq):
            raise ValueError(
                f"times and args_seq must be parallel, got {len(times)} vs {len(args_seq)}"
            )
        if not callable(callback):
            raise TypeError(f"callback must be callable, got {callback!r}")
        now = self._now
        # Validate the whole cohort before touching the heap, so a bad
        # entry cannot leave a partially-enqueued batch behind (the
        # per-event schedule_at is atomic; this call must be too).
        for time in times:
            if time < now:
                raise SimulationError(
                    f"cannot schedule event at t={time!r} before current time t={now!r}"
                )
        counter = self._counter
        queue = self._queue
        events: List[ScheduledEvent] = []
        for time, args in zip(times, args_seq):
            event = ScheduledEvent(float(time), callback, tuple(args))
            heapq.heappush(queue, (event.time, next(counter), event))
            events.append(event)
        if self._telemetry.enabled:
            self._telemetry.observe("sim.schedule_cohort_size", len(events))
        return events

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next pending event.  Returns False if none remain."""
        return self._loop(float("inf"), 1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events executed by this call.
        """
        return self._loop(float("inf"), max_events)

    def run_until(self, time: float) -> int:
        """Run all events with ``event.time <= time``; advance clock to ``time``.

        Returns the number of events executed.  The clock is advanced to
        exactly ``time`` even if the queue drains early, so periodic
        bookkeeping that reads :attr:`now` stays aligned — unless a
        callback called :meth:`stop`: events at or before ``time`` may
        then still be queued, so the clock stays at the last fired event
        (advancing it would make the next run fire them in the past).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run until t={time!r}, already at t={self._now!r}"
            )
        executed = self._loop(float(time), None)
        if not self._stop_requested:
            self._now = float(time)
        return executed

    def stop(self) -> None:
        """Request that a ``run``/``run_until`` in progress return after the
        current event."""
        self._stop_requested = True

    def _loop(self, deadline: float, max_events: Optional[int]) -> int:
        """The event loop: fire pending events in ``(time, seq)`` order
        while they are due by ``deadline``, fewer than ``max_events``
        have fired and no callback called :meth:`stop`.  Cancelled
        entries are discarded as they reach the head."""
        queue = self._queue
        pop = heapq.heappop
        telemetry = self._telemetry
        limit = -1 if max_events is None else max(0, max_events)
        executed = 0
        self._running, self._stop_requested = True, False
        try:
            while queue and executed != limit and not self._stop_requested:
                time, _, event = queue[0]
                if event._cancelled:
                    pop(queue)
                    continue
                if time > deadline:
                    break
                pop(queue)
                self._now = time
                event._fired = True
                event.callback(*event.args)
                executed += 1
                self._events_processed += 1
                # The whole per-event cost of telemetry while disabled is
                # this one attribute check (overhead-guarded in
                # tests/test_telemetry.py).
                if telemetry.enabled:
                    telemetry.event_tick(self)
        finally:
            self._running = False
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending_count}, "
            f"processed={self._events_processed})"
        )


class PeriodicTask:
    """A callback re-scheduled every ``period`` seconds.

    The task fires first at ``start_delay`` (default: one period, with
    ``jitter`` applied like every later interval) and then every
    ``period`` ± ``jitter`` seconds until :meth:`stop` is called.
    Protocol loops (discovery, refresh, gossip rounds) are built on this.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        start_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
    ):
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        if jitter < 0:
            raise SimulationError(f"jitter must be non-negative, got {jitter!r}")
        if jitter > 0 and rng is None:
            raise SimulationError("jitter requires an rng")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = rng
        self._stopped = False
        self._fire_count = 0
        # Without an explicit start_delay the first firing gets the same
        # jitter as every later one — otherwise an unstaggered population
        # that requested jitter still fires its first round in lockstep.
        first = self._next_delay() if start_delay is None else float(start_delay)
        self._handle: Optional[ScheduledEvent] = sim.schedule(first, self._fire)

    @property
    def period(self) -> float:
        return self._period

    @property
    def fire_count(self) -> int:
        """How many times the callback has run."""
        return self._fire_count

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Stop the task; the pending occurrence (if any) is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _next_delay(self) -> float:
        if self._jitter == 0:
            return self._period
        # Uniform jitter keeps the mean period intact.
        offset = (float(self._rng.random()) * 2.0 - 1.0) * self._jitter
        return max(1e-9, self._period + offset)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._fire_count += 1
        self._callback()
        if not self._stopped:
            self._handle = self._sim.schedule(self._next_delay(), self._fire)
