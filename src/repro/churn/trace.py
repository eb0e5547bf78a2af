"""Churn traces: per-node online/offline schedules over simulated time.

The paper injects availability-variation traces from the Overnet p2p
system (1442 hosts, 7 days, 20-minute measurement epochs) into its
simulator.  This module defines the trace representation those
experiments run on:

* :class:`NodeSchedule` — one node's sorted, disjoint online intervals,
  with fraction-uptime ("availability") queries.  Backed by numpy arrays
  so scalar queries are one ``np.searchsorted`` each and batch callers
  can lift the columns straight into a
  :class:`~repro.churn.timeline.ChurnTimeline`.
* :class:`ChurnTrace` — a set of schedules keyed by node, implementing
  the :class:`~repro.sim.network.PresenceOracle` protocol so the network
  can gate delivery on presence.  Population-level and batch queries
  (:meth:`ChurnTrace.online_mask`, :meth:`ChurnTrace.availability_array`)
  answer through a lazily built columnar timeline — one vectorized call
  instead of one bisect per node.

Traces can be built directly from interval lists, from a boolean
epoch × node matrix (the shape measurement studies produce), or from a
compiled scenario timeline; see :meth:`ChurnTrace.from_matrix`,
:meth:`ChurnTrace.from_timeline`, :mod:`repro.churn.overnet` for the
synthetic Overnet-like generator, and :mod:`repro.scenarios` for the
declarative scenario catalogue.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.churn.timeline import ChurnTimeline

__all__ = ["NodeSchedule", "ChurnTrace"]

NodeKey = Hashable
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


class _LazyTimelineSchedules:
    """Mapping of node key → :class:`NodeSchedule`, materialized on
    access from a :class:`~repro.churn.timeline.ChurnTimeline` row.

    :meth:`ChurnTrace.from_timeline` hands traces this instead of an
    eager dict so a million-node timeline costs zero schedule objects
    until some scalar query actually touches a node — batch queries all
    answer straight from the timeline and never materialize any.
    """

    __slots__ = ("timeline", "order", "index", "_cache")

    def __init__(self, timeline: ChurnTimeline, order: Tuple[NodeKey, ...]):
        self.timeline = timeline
        self.order = order
        self.index: Dict[NodeKey, int] = {key: i for i, key in enumerate(order)}
        self._cache: Dict[NodeKey, NodeSchedule] = {}

    def __getitem__(self, key: NodeKey) -> NodeSchedule:
        schedule = self._cache.get(key)
        if schedule is None:
            row = self.index[key]  # KeyError propagates for unknowns
            schedule = NodeSchedule.from_arrays(*self.timeline.sessions_of(row))
            self._cache[key] = schedule
        return schedule

    def get(self, key: NodeKey, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: NodeKey) -> bool:
        return key in self.index

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


class ChurnTrace:
    """Schedules for a population of nodes; acts as a presence oracle."""

    def __init__(
        self,
        schedules: Dict[NodeKey, NodeSchedule],
        horizon: float,
        timeline: Optional[ChurnTimeline] = None,
    ):
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.horizon = float(horizon)
        if isinstance(schedules, _LazyTimelineSchedules):
            self._schedules = schedules
            self._order: Tuple[NodeKey, ...] = schedules.order
            self._index: Dict[NodeKey, int] = schedules.index
        else:
            self._schedules = dict(schedules)
            self._order = tuple(self._schedules)
            self._index = {key: i for i, key in enumerate(self._order)}
        self._timeline = timeline
        # Lazily built digest64 translation table (see node_indices).
        self._digest_ok: Optional[bool] = None
        self._digest_sorted: Optional[np.ndarray] = None
        self._digest_order: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        node_keys: Sequence[NodeKey],
        epoch_seconds: float,
    ) -> "ChurnTrace":
        """Build a trace from a boolean ``epochs × nodes`` matrix.

        ``matrix[e, i]`` is True when node ``node_keys[i]`` was online
        during epoch ``e``; each epoch spans ``epoch_seconds``.
        """
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D (epochs x nodes), got shape {matrix.shape}")
        if matrix.shape[1] != len(node_keys):
            raise ValueError(
                f"matrix has {matrix.shape[1]} node columns but "
                f"{len(node_keys)} keys were given"
            )
        timeline = ChurnTimeline.from_matrix(matrix, epoch_seconds)
        return cls.from_timeline(timeline, node_keys)

    @classmethod
    def from_timeline(
        cls, timeline: ChurnTimeline, node_keys: Sequence[NodeKey]
    ) -> "ChurnTrace":
        """Build a trace whose scalar *and* batch queries answer from the
        given columnar timeline (node ``i`` of the timeline is keyed by
        ``node_keys[i]``)."""
        if timeline.n_nodes != len(node_keys):
            raise ValueError(
                f"timeline has {timeline.n_nodes} nodes but "
                f"{len(node_keys)} keys were given"
            )
        if len(set(node_keys)) != len(node_keys):
            raise ValueError("node keys must be unique")
        # Schedules materialize lazily per node; batch queries answer from
        # the timeline directly, so most rows never grow a NodeSchedule.
        lazy = _LazyTimelineSchedules(timeline, tuple(node_keys))
        return cls(lazy, horizon=timeline.horizon, timeline=timeline)

    def to_matrix(self, epoch_seconds: float) -> Tuple[np.ndarray, Tuple[NodeKey, ...]]:
        """Sample presence at epoch midpoints back into a boolean matrix."""
        if epoch_seconds <= 0:
            raise ValueError(f"epoch_seconds must be positive, got {epoch_seconds}")
        epochs = int(round(self.horizon / epoch_seconds))
        midpoints = (np.arange(epochs) + 0.5) * epoch_seconds
        return self.timeline.online_mask_matrix(midpoints), self._order

    # ------------------------------------------------------------------
    # Columnar timeline (lazily built; the batch-query backend)
    # ------------------------------------------------------------------
    @property
    def timeline(self) -> ChurnTimeline:
        """The columnar twin of this trace (built once, on first use)."""
        if self._timeline is None:
            columns = [self._schedules[key].session_arrays() for key in self._order]
            counts = np.array([s.size for s, _ in columns], dtype=np.int64)
            self._timeline = ChurnTimeline(
                len(columns),
                self.horizon,
                np.repeat(np.arange(len(columns), dtype=np.int64), counts),
                np.concatenate([s for s, _ in columns]) if columns else np.zeros(0),
                np.concatenate([e for _, e in columns]) if columns else np.zeros(0),
            )
        return self._timeline

    def index_of(self, node: NodeKey) -> int:
        """The timeline row index of ``node`` (raises KeyError if unknown)."""
        return self._index[node]

    def node_indices(self, nodes: Sequence[NodeKey]) -> np.ndarray:
        """Timeline row indices for a batch of keys (raises on unknowns).

        When the keys carry a unique precomputed ``digest64`` (NodeIds
        do), translation runs as one C-level ``searchsorted`` over a
        sorted digest table instead of one dict lookup per key — this
        sits inside every batched oracle query.  Other key types fall
        back to the dict.
        """
        if self._digest_ok is None:
            self._build_digest_index()
        if self._digest_ok:
            try:
                digests = np.fromiter(
                    (node.digest64 for node in nodes),
                    dtype=np.uint64,
                    count=len(nodes),
                )
            except AttributeError:
                pass  # foreign key type queried: let the dict decide
            else:
                pos = self._digest_sorted.searchsorted(digests)
                np.minimum(pos, self._digest_sorted.size - 1, out=pos)
                if (self._digest_sorted[pos] == digests).all():
                    return self._digest_order[pos]
                # an unknown key: fall through for the dict's KeyError
        index = self._index
        return np.fromiter(
            (index[node] for node in nodes), dtype=np.int64, count=len(nodes)
        )

    def _build_digest_index(self) -> None:
        digests = []
        for key in self._order:
            digest = getattr(key, "digest64", None)
            if digest is None:
                self._digest_ok = False
                return
            digests.append(digest)
        table = np.array(digests, dtype=np.uint64)
        order = np.argsort(table)
        table = table[order]
        if not table.size or (table.size > 1 and (table[1:] == table[:-1]).any()):
            self._digest_ok = False
            return
        self._digest_sorted = table
        self._digest_order = order.astype(np.int64)
        self._digest_ok = True

    # ------------------------------------------------------------------
    # PresenceOracle protocol
    # ------------------------------------------------------------------
    def is_online(self, node: NodeKey, time: float) -> bool:
        """Presence of one node.  Reads the timeline's live edge-to-edge
        snapshot when its window holds ``time`` (one index, no search)
        and searches the node's schedule otherwise; it never builds a
        snapshot — that is left to the callers that pay O(N) anyway."""
        timeline = self._timeline
        if timeline is not None:
            snapshot = timeline.live_snapshot(time)
            if snapshot is not None:
                row = self._index.get(node)
                return row is not None and bool(snapshot.online[row])
        schedule = self._schedules.get(node)
        return schedule.is_online(time) if schedule is not None else False

    def is_online_array(self, nodes: Sequence[NodeKey], times) -> np.ndarray:
        """Batched :meth:`is_online`: presence of ``nodes[k]`` at
        ``times`` (a scalar or a parallel array of instants) in one
        vectorized timeline query (what
        :meth:`repro.sim.network.Network.online_array` asks).  Raises
        ``KeyError`` on unknown nodes (callers that want the scalar
        protocol's False-for-unknowns fall back to :meth:`is_online`).
        """
        return self.timeline.is_online_array(self.node_indices(nodes), times)

    def presence_snapshot(self, time: float) -> np.ndarray:
        """Row-space presence of every node at ``time`` (aligned to
        :attr:`nodes`): the mask of the timeline's shared read-only
        :meth:`~repro.churn.timeline.ChurnTimeline.snapshot`, reused
        until the next session edge — what
        :meth:`repro.sim.network.Network.online_rows` indexes."""
        return self.timeline.presence_snapshot(time)

    # ------------------------------------------------------------------
    # Population queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[NodeKey, ...]:
        return self._order

    @property
    def node_count(self) -> int:
        return len(self._order)

    def schedule(self, node: NodeKey) -> NodeSchedule:
        return self._schedules[node]

    def __contains__(self, node: NodeKey) -> bool:
        return node in self._schedules

    def online_mask(self, time: float) -> np.ndarray:
        """Boolean presence of every node at ``time``, aligned to
        :attr:`nodes` — one vectorized timeline pass."""
        return self.timeline.online_mask(time)

    def online_nodes(self, time: float) -> List[NodeKey]:
        mask = self.online_mask(time)
        order = self._order
        return [order[i] for i in np.flatnonzero(mask)]

    def online_count(self, time: float) -> int:
        return int(self.online_mask(time).sum())

    # ------------------------------------------------------------------
    # Availability queries
    # ------------------------------------------------------------------
    def availability(self, node: NodeKey, until: float, since: float = 0.0) -> float:
        """Raw fraction uptime of ``node`` over ``[since, until]``."""
        return self._schedules[node].availability(until, since)

    def windowed_availability(self, node: NodeKey, time: float, window: float) -> float:
        """Fraction uptime over the trailing ``window`` seconds (an "aged"
        availability per Section 3.1's monitoring-service definition)."""
        since = max(0.0, time - window)
        return self._schedules[node].availability(time, since)

    def lifetime_availability(self, node: NodeKey) -> float:
        """Fraction uptime over the full trace horizon."""
        return self._schedules[node].availability(self.horizon)

    def availability_array(
        self, nodes: Sequence[NodeKey], until: float, since: float = 0.0
    ) -> np.ndarray:
        """Batched :meth:`availability` — one vectorized timeline query
        for the whole batch instead of one bisect chain per node."""
        return self.timeline.availability_array(
            self.node_indices(nodes), float(until), float(since)
        )

    def windowed_availability_array(
        self, nodes: Sequence[NodeKey], time: float, window: float
    ) -> np.ndarray:
        """Batched :meth:`windowed_availability`."""
        return self.timeline.windowed_availability_array(
            self.node_indices(nodes), float(time), float(window)
        )

    def availabilities(self, until: Optional[float] = None) -> Dict[NodeKey, float]:
        """Raw availabilities of every node measured up to ``until``
        (default: full horizon)."""
        t = self.horizon if until is None else float(until)
        all_rows = np.arange(self.node_count, dtype=np.int64)
        values = self.timeline.availability_array(all_rows, t)
        return dict(zip(self._order, values.tolist()))

    def restrict(self, nodes: Iterable[NodeKey]) -> "ChurnTrace":
        """A sub-trace containing only ``nodes`` (order preserved)."""
        wanted = set(nodes)
        missing = wanted - set(self._order)
        if missing:
            raise KeyError(f"unknown nodes: {sorted(map(repr, missing))[:5]}")
        kept = {key: self._schedules[key] for key in self._order if key in wanted}
        return ChurnTrace(kept, self.horizon)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChurnTrace(nodes={self.node_count}, horizon={self.horizon:.0f}s)"
