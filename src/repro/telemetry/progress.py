"""Live progress reporting for long runs.

A :class:`ProgressReporter` attached to the recorder emits one stderr
line every ``interval`` wall-seconds — simulation time, cumulative
events and events/sec since the last line, pending queue depth, and
resident memory — so a 1M-node build or a multi-hour scenario run is
observable while running instead of only after the fact.

The reporter is *pulled*, never threaded: the simulator's event loop
pokes it every few thousand events and the overlay builders poke it per
block, each poke costing one wall-clock read unless the interval has
elapsed.  Pull-based reporting cannot interleave with simulation state
mid-mutation and dies naturally with the phase that stopped poking.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO

from repro.telemetry.rss import current_rss_mb

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Rate-limited stderr progress lines (see module docstring).

    Parameters
    ----------
    interval:
        Minimum wall-seconds between lines.
    stream:
        Defaults to ``sys.stderr`` (resolved at emit time so pytest's
        capture sees it).
    clock:
        Injectable wall clock for tests.
    """

    def __init__(
        self,
        interval: float = 10.0,
        stream: Optional[TextIO] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = float(interval)
        self._stream = stream
        self._clock = clock
        self._started = clock()
        self._last_emit = self._started
        self._last_events = 0
        self.lines_emitted = 0

    def poke(self, sim=None, context=None) -> bool:
        """Emit a line if the interval has elapsed.  Returns whether a
        line was written.  ``context`` is a phase label — a string or a
        zero-argument callable (deferred so non-emitting pokes never pay
        for formatting)."""
        now = self._clock()
        if now - self._last_emit < self.interval:
            return False
        elapsed = now - self._last_emit
        self._last_emit = now
        parts = [f"[progress +{now - self._started:.0f}s]"]
        if sim is not None:
            events = sim.events_processed
            rate = (events - self._last_events) / elapsed if elapsed > 0 else 0.0
            self._last_events = events
            parts.append(
                f"sim-t={sim.now:.0f}s events={events} "
                f"({rate:.0f}/s) pending={sim.queue_depth}"
            )
        if context is not None:
            parts.append(context() if callable(context) else str(context))
        rss = current_rss_mb()
        if rss is not None:
            parts.append(f"rss={rss:.0f}MiB")
        stream = self._stream if self._stream is not None else sys.stderr
        print(" ".join(parts), file=stream, flush=True)
        self.lines_emitted += 1
        return True
