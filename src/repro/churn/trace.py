"""Churn traces: per-node online/offline sessions over simulated time.

The paper injects availability-variation traces from the Overnet p2p
system (1442 hosts, 7 days, 20-minute measurement epochs) into its
simulator.  :class:`ChurnTrace` is the keyed face of those traces: a
thin facade over one columnar :class:`~repro.churn.timeline.ChurnTimeline`
(row ``i`` of the timeline is ``nodes[i]``) implementing the
:class:`~repro.sim.network.PresenceOracle` protocol, so the network can
gate delivery on presence.  Every query — scalar or batched, presence or
availability — answers from that one store, so a scalar answer and the
batched answer for the same node at the same instant are the same float.

Traces can be built from a compiled scenario timeline (the constructor),
from a boolean epoch × node matrix (the shape measurement studies
produce; :meth:`ChurnTrace.from_matrix`) or from hand-written interval
lists (:meth:`ChurnTrace.from_intervals`); see
:mod:`repro.churn.overnet` for the synthetic Overnet-like generator and
:mod:`repro.scenarios` for the declarative scenario catalogue.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.churn.timeline import ChurnTimeline

__all__ = ["ChurnTrace"]

NodeKey = Hashable
Interval = Tuple[float, float]


class ChurnTrace:
    """A churn timeline keyed by node; acts as a presence oracle."""

    def __init__(self, timeline: ChurnTimeline, node_keys: Sequence[NodeKey]):
        order = tuple(node_keys)
        if timeline.n_nodes != len(order):
            raise ValueError(
                f"timeline has {timeline.n_nodes} nodes but {len(order)} keys were given"
            )
        index = {key: i for i, key in enumerate(order)}
        if len(index) != len(order):
            raise ValueError("node keys must be unique")
        self.timeline = timeline
        self.horizon = timeline.horizon
        self._order = order
        self._index = index

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_intervals(
        cls, intervals: Mapping[NodeKey, Iterable[Interval]], horizon: float
    ) -> "ChurnTrace":
        """Build a trace from ``{key: [(start, end), ...]}`` (half-open
        online sessions; touching or overlapping ones are merged, empty
        ones dropped), keyed in mapping order."""
        keys = list(intervals)
        timeline = ChurnTimeline.from_interval_lists([intervals[k] for k in keys], horizon)
        return cls(timeline, keys)

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
        return cls(ChurnTimeline.from_matrix(matrix, epoch_seconds), node_keys)

    def to_matrix(self, epoch_seconds: float) -> Tuple[np.ndarray, Tuple[NodeKey, ...]]:
        """Sample presence at epoch midpoints back into a boolean matrix."""
        if epoch_seconds <= 0:
            raise ValueError(f"epoch_seconds must be positive, got {epoch_seconds}")
        epochs = int(round(self.horizon / epoch_seconds))
        midpoints = (np.arange(epochs) + 0.5) * epoch_seconds
        return self.timeline.online_mask_matrix(midpoints), self._order

    # ------------------------------------------------------------------
    # Keys and rows
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[NodeKey, ...]:
        return self._order

    @property
    def node_count(self) -> int:
        return len(self._order)

    def __contains__(self, node: NodeKey) -> bool:
        return node in self._index

    @property
    def rows(self) -> Mapping[NodeKey, int]:
        """The key → timeline row mapping (read-only): the one lookup a
        trace-backed :class:`~repro.sim.network.Network` pays per
        message before it reads presence by row."""
        return self._index

    def index_of(self, node: NodeKey) -> int:
        """The timeline row of ``node`` (raises KeyError if unknown)."""
        return self._index[node]

    def node_indices(self, nodes: Sequence[NodeKey]) -> np.ndarray:
        """Timeline rows for a batch of keys (raises KeyError on unknowns)."""
        index = self._index
        return np.fromiter((index[node] for node in nodes), dtype=np.int64, count=len(nodes))

    def sessions(self, node: NodeKey) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` of ``node``'s normalized sessions (read-only
        views into the timeline)."""
        return self.timeline.sessions_of(self._index[node])

    # ------------------------------------------------------------------
    # PresenceOracle protocol
    # ------------------------------------------------------------------
    def is_online(self, node: NodeKey, time: float) -> bool:
        """Presence of one node (an unknown key is offline): its row's
        :meth:`~repro.churn.timeline.ChurnTimeline.presence_of`, which
        reads the live edge-to-edge snapshot and never builds one."""
        row = self._index.get(node)
        if row is None:
            return False
        return self.timeline.presence_of(row, time)

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
        """Raw fraction uptime of ``node`` over ``[since, until]`` — the
        paper's ``av(x)``; a zero-length window is instantaneous presence.
        The same float :meth:`availability_array` gives for the node
        (:meth:`~repro.churn.timeline.ChurnTimeline.availability_of`)."""
        return self.timeline.availability_of(self._index[node], float(until), float(since))

    def windowed_availability(self, node: NodeKey, time: float, window: float) -> float:
        """Fraction uptime over the trailing ``window`` seconds (an "aged"
        availability per Section 3.1's monitoring-service definition)."""
        return self.availability(node, time, max(0.0, time - window))

    def lifetime_availability(self, node: NodeKey) -> float:
        """Fraction uptime over the full trace horizon."""
        return self.availability(node, self.horizon)

    def availability_array(
        self, nodes: Sequence[NodeKey], until: float, since: float = 0.0
    ) -> np.ndarray:
        """Batched :meth:`availability` — one vectorized timeline query
        for the whole batch."""
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChurnTrace(nodes={self.node_count}, horizon={self.horizon:.0f}s)"
