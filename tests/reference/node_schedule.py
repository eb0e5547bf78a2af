"""The per-node scalar schedule ``repro.churn.trace`` shipped before
every churn query moved onto :class:`~repro.churn.timeline.ChurnTimeline`:
one node's sorted, disjoint online intervals with ``searchsorted``
presence, uptime, availability and next-transition queries.  The timeline
and ``ChurnTrace`` are property-tested against it."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

Interval = Tuple[float, float]


def _normalize_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Sort, validate, and merge touching/overlapping intervals."""
    cleaned: List[Interval] = []
    for start, end in sorted((float(s), float(e)) for s, e in intervals):
        if end < start:
            raise ValueError(f"interval end before start: ({start}, {end})")
        if end == start:
            continue  # zero-length sessions carry no information
        if cleaned and start <= cleaned[-1][1]:
            prev_start, prev_end = cleaned[-1]
            cleaned[-1] = (prev_start, max(prev_end, end))
        else:
            cleaned.append((start, end))
    return cleaned


class NodeSchedule:
    """One node's online sessions as half-open intervals ``[start, end)``."""

    __slots__ = ("_starts", "_ends", "_cum_uptime")

    def __init__(self, intervals: Iterable[Interval]):
        cleaned = _normalize_intervals(intervals)
        self._starts = np.array([iv[0] for iv in cleaned], dtype=float)
        self._ends = np.array([iv[1] for iv in cleaned], dtype=float)
        # Cumulative uptime *before* interval i, enabling O(log n) uptime().
        self._cum_uptime = np.zeros(len(cleaned) + 1, dtype=float)
        np.cumsum(self._ends - self._starts, out=self._cum_uptime[1:])

    @classmethod
    def from_arrays(cls, starts: np.ndarray, ends: np.ndarray) -> "NodeSchedule":
        """Trusted fast path: build from already-normalized session arrays
        (sorted, disjoint, non-empty) — e.g. one
        :meth:`~repro.churn.timeline.ChurnTimeline.sessions_of` slice."""
        schedule = cls.__new__(cls)
        schedule._starts = np.ascontiguousarray(starts, dtype=float)
        schedule._ends = np.ascontiguousarray(ends, dtype=float)
        schedule._cum_uptime = np.zeros(schedule._starts.size + 1, dtype=float)
        np.cumsum(schedule._ends - schedule._starts, out=schedule._cum_uptime[1:])
        return schedule

    # ------------------------------------------------------------------
    # Presence
    # ------------------------------------------------------------------
    def is_online(self, time: float) -> bool:
        """Whether the node is online at ``time`` (half-open intervals)."""
        idx = int(self._starts.searchsorted(time, "right")) - 1
        return idx >= 0 and time < self._ends[idx]

    def next_transition(self, time: float) -> Optional[float]:
        """The next instant (> time) at which presence flips, or None."""
        idx = int(self._starts.searchsorted(time, "right")) - 1
        if idx >= 0 and time < self._ends[idx]:
            return float(self._ends[idx])  # currently online; next flip is session end
        nxt = idx + 1
        if nxt < self._starts.size:
            return float(self._starts[nxt])
        return None

    # ------------------------------------------------------------------
    # Uptime / availability
    # ------------------------------------------------------------------
    def uptime(self, until: float, since: float = 0.0) -> float:
        """Seconds online within ``[since, until]``."""
        if until < since:
            raise ValueError(f"until ({until}) must be >= since ({since})")
        return self._uptime_before(until) - self._uptime_before(since)

    def availability(self, until: float, since: float = 0.0) -> float:
        """Fraction uptime over ``[since, until]`` — the paper's ``av(x)``.

        A zero-length window returns the instantaneous presence (1.0 or
        0.0), so early-trace queries stay well-defined.
        """
        span = until - since
        if span <= 0:
            return 1.0 if self.is_online(until) else 0.0
        return self.uptime(until, since) / span

    def _uptime_before(self, time: float) -> float:
        idx = int(self._starts.searchsorted(time, "right")) - 1
        if idx < 0:
            return 0.0
        full = float(self._cum_uptime[idx])
        start, end = float(self._starts[idx]), float(self._ends[idx])
        # Associated as ChurnTimeline._uptime_before does it — earlier
        # sessions plus (the part of this one) — so a scalar answer and
        # the batched answer for the same node are the same float.
        return full + (min(time, end) - start)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def intervals(self) -> Tuple[Interval, ...]:
        return tuple(zip(self._starts.tolist(), self._ends.tolist()))

    @property
    def session_count(self) -> int:
        return int(self._starts.size)

    def session_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(starts, ends)`` columns (normalized, read-only use)."""
        return self._starts, self._ends

    def session_lengths(self) -> List[float]:
        return (self._ends - self._starts).tolist()

    def first_appearance(self) -> Optional[float]:
        return float(self._starts[0]) if self._starts.size else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeSchedule(sessions={self.session_count})"
