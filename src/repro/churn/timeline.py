"""Columnar churn timeline: every node's sessions in flat numpy arrays.

:class:`~repro.churn.trace.ChurnTrace` stores one
:class:`~repro.churn.trace.NodeSchedule` per node — the right shape for
scalar per-node queries, and the wrong shape for the batch queries the
protocol hot paths need ("what is the availability of these 60 neighbors
right now?", "who is online at time t?").  :class:`ChurnTimeline` is the
columnar twin: all sessions of all nodes concatenated into three parallel
arrays (node index, session start, session end) in CSR layout, so batch
queries run as a handful of vectorized operations instead of one
bisect-per-node round trip.

Layout invariants (enforced on construction):

* sessions are sorted by ``(node, start)`` and grouped per node —
  ``offsets[i]:offsets[i + 1]`` slices node ``i``'s sessions;
* per node, sessions are disjoint, non-empty, and sorted; touching or
  overlapping input sessions are merged (exactly the normalization
  :class:`~repro.churn.trace.NodeSchedule` applies).

Sessions outside ``[0, horizon]`` are tolerated (scalar
:class:`~repro.churn.trace.ChurnTrace` queries always were), but
:meth:`ChurnTimeline.validate` — which scenario compilation is tested
against — enforces the stricter in-horizon contract.

The subset queries (:meth:`uptime_array`, :meth:`availability_array`,
:meth:`is_online_array`) use an exact vectorized binary search over the
per-node segments — no floating-point key packing — so their answers
match the scalar :class:`~repro.churn.trace.NodeSchedule` branch
semantics bit-for-bit (up to cumulative-sum rounding noise in uptimes,
bounded well below any protocol-visible granularity).
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry import current as current_telemetry
from repro.util.memmaps import open_array, spill

__all__ = ["ChurnTimeline", "EdgeSnapshot"]

# Arrays persisted by spill_to()/open(): the session-proportional CSR
# columns plus the derived query-acceleration tables, so open() needs no
# normalization or index-building pass over the data.
_SPILL_ARRAYS = (
    ("node_index", "node_index"),
    ("starts", "starts"),
    ("ends", "ends"),
    ("offsets", "offsets"),
    ("_cum_before", "cum_before"),
    ("_starts_padded", "starts_padded"),
    ("_grid_rank", "grid_rank"),
)


def _merge_node_intervals(
    node_index: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge touching/overlapping sessions per node.

    Input must already be sorted by ``(node, start)``.  The common case
    (generator output, epoch-run extraction) has no overlaps and returns
    the inputs unchanged; only nodes that actually contain an overlap pay
    the python merge, which keeps this exact (no float key packing).
    """
    if starts.size < 2:
        return node_index, starts, ends
    same_node = node_index[1:] == node_index[:-1]
    overlapping = same_node & (starts[1:] <= ends[:-1])
    if not overlapping.any():
        return node_index, starts, ends
    affected = np.unique(node_index[1:][overlapping])
    affected_set = set(affected.tolist())
    keep = ~np.isin(node_index, affected)
    merged_nodes: List[np.ndarray] = [node_index[keep]]
    merged_starts: List[np.ndarray] = [starts[keep]]
    merged_ends: List[np.ndarray] = [ends[keep]]
    for node in affected.tolist():
        mask = node_index == node
        node_starts = starts[mask]
        node_ends = ends[mask]
        out_starts: List[float] = []
        out_ends: List[float] = []
        for s, e in zip(node_starts.tolist(), node_ends.tolist()):
            if out_ends and s <= out_ends[-1]:
                out_ends[-1] = max(out_ends[-1], e)
            else:
                out_starts.append(s)
                out_ends.append(e)
        merged_nodes.append(np.full(len(out_starts), node, dtype=np.int64))
        merged_starts.append(np.array(out_starts, dtype=float))
        merged_ends.append(np.array(out_ends, dtype=float))
    node_index = np.concatenate(merged_nodes)
    starts = np.concatenate(merged_starts)
    ends = np.concatenate(merged_ends)
    order = np.lexsort((starts, node_index))
    return node_index[order], starts[order], ends[order]


class EdgeSnapshot:
    """Everything about a timeline that is constant between two
    consecutive session edges, valid on ``[valid_from, valid_until)``.

    Nobody joins or leaves between two edges, so the presence mask
    (:attr:`online`) and every node's last-started session are fixed for
    the whole window.  The mask is built with the snapshot; the session
    columns are gathered on the first :meth:`availability` call (protocol
    gates only ever read the mask).  All arrays are read-only.  Built by
    :meth:`ChurnTimeline.snapshot` only — an O(N) pass for callers that
    already pay O(N); scalar readers go through
    :meth:`ChurnTimeline.live_snapshot`, which never builds.  Must not be
    held across a clock advance: ask the timeline again instead.
    """

    __slots__ = ("valid_from", "valid_until", "online", "_timeline", "_sessions")

    def __init__(
        self,
        timeline: "ChurnTimeline",
        valid_from: float,
        valid_until: float,
        online: np.ndarray,
    ):
        self._timeline = timeline
        self.valid_from = valid_from
        self.valid_until = valid_until
        online.flags.writeable = False
        self.online = online
        self._sessions: Optional[Tuple[np.ndarray, ...]] = None

    def availability(self, rows: np.ndarray, time: float) -> np.ndarray:
        """``timeline.availability_array(rows, time)`` for a ``time``
        inside the window, bit for bit: the same expression with the same
        association, over session columns gathered once per window
        instead of one segment search per call."""
        if time <= 0.0:
            # Zero-length window: instantaneous presence.
            return self.online[rows].astype(float)
        if self._sessions is None:
            self._sessions = self._timeline._snapshot_sessions(time)
        cum_before, starts, ends, at_zero = self._sessions
        uptime = cum_before[rows] + (np.minimum(time, ends[rows]) - starts[rows])
        return (uptime - at_zero[rows]) / time


class ChurnTimeline:
    """All nodes' online sessions as flat, CSR-grouped numpy arrays."""

    __slots__ = (
        "n_nodes",
        "horizon",
        "node_index",
        "starts",
        "ends",
        "offsets",
        "_cum_before",
        "_starts_padded",
        "_grid_cells",
        "_inv_cell",
        "_grid_rank",
        "_starts_sorted",
        "_ends_sorted",
        "_snapshot",
        "_uptime_at_zero",
    )

    def __init__(
        self,
        n_nodes: int,
        horizon: float,
        node_index: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ):
        if n_nodes < 0:
            raise ValueError(f"n_nodes must be >= 0, got {n_nodes}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        node_index = np.asarray(node_index, dtype=np.int64)
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if not (node_index.shape == starts.shape == ends.shape) or starts.ndim != 1:
            raise ValueError("node_index/starts/ends must be parallel 1-D arrays")
        if node_index.size:
            if node_index.min() < 0 or node_index.max() >= n_nodes:
                raise ValueError("node_index out of range")
            if (ends < starts).any():
                raise ValueError("session end before start")
        # Sessions outside [0, horizon] are tolerated (ChurnTrace always
        # accepted such schedules and scalar queries handle them);
        # validate() enforces the stricter scenario-compilation contract.
        # Normalize: sort by (node, start), drop empty sessions, merge
        # touching/overlapping ones (NodeSchedule's normalization).
        nonempty = ends > starts
        node_index, starts, ends = (
            node_index[nonempty], starts[nonempty], ends[nonempty]
        )
        order = np.lexsort((starts, node_index))
        node_index, starts, ends = _merge_node_intervals(
            node_index[order], starts[order], ends[order]
        )
        self.n_nodes = int(n_nodes)
        self.horizon = float(horizon)
        self.node_index = node_index
        self.starts = starts
        self.ends = ends
        counts = np.bincount(node_index, minlength=n_nodes)
        self.offsets = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        # Cumulative uptime of each node's *earlier* sessions: the global
        # running sum minus the node's segment base.  (Rounding noise is
        # bounded by eps x total uptime — far below protocol granularity.)
        durations = self.ends - self.starts
        running = np.concatenate(([0.0], np.cumsum(durations)))
        self._cum_before = running[:-1] - running[self.offsets[self.node_index]]
        # Grid index accelerating the per-node segment search: the horizon
        # is split into G cells sized so the average cell holds well under
        # one session per node, and ``_grid_rank[i*(G+1) + g]`` counts the
        # node-i sessions whose start falls in cells < g.  A query then
        # binary-searches only the 0–2 sessions of its own cell instead of
        # the node's whole segment.
        total = int(self.starts.size)
        grid = int(np.clip(4 * total // max(n_nodes, 1), 64, 1024)) if total else 1
        self._grid_cells = grid
        cell = self.horizon / grid
        self._inv_cell = 1.0 / cell
        # Out-of-horizon sessions clamp into the edge cells; the binary
        # search stays exact because cell membership only brackets it.
        cells = np.minimum((self.starts * self._inv_cell).astype(np.int64), grid - 1)
        np.maximum(cells, 0, out=cells)
        per_cell = np.bincount(
            self.node_index * grid + cells, minlength=n_nodes * grid
        ).reshape(n_nodes, grid)
        # int32 halves the table footprint (queries hit it with random
        # access, so cache residency matters more than width).
        rank = np.zeros((n_nodes, grid + 1), dtype=np.int32)
        np.cumsum(per_cell, axis=1, out=rank[:, 1:])
        self._grid_rank = rank.ravel()
        self._starts_padded = np.concatenate((self.starts, [np.inf]))
        self._init_lazy_state()

    def _init_lazy_state(self) -> None:
        # Globally time-sorted session edges, built on the first query
        # that needs them (online_count_series, snapshot).
        self._starts_sorted: Optional[np.ndarray] = None
        self._ends_sorted: Optional[np.ndarray] = None
        # snapshot(): the one live edge-to-edge window (None until the
        # first call), and every node's uptime before t = 0 — the
        # ``since`` edge of a raw availability, the same for every window.
        self._snapshot: Optional[EdgeSnapshot] = None
        self._uptime_at_zero: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_interval_lists(
        cls,
        interval_lists: Sequence[Iterable[Tuple[float, float]]],
        horizon: float,
    ) -> "ChurnTimeline":
        """Build from one interval list per node (index = node)."""
        nodes: List[int] = []
        starts: List[float] = []
        ends: List[float] = []
        for i, intervals in enumerate(interval_lists):
            for s, e in intervals:
                nodes.append(i)
                starts.append(float(s))
                ends.append(float(e))
        return cls(
            len(interval_lists),
            horizon,
            np.array(nodes, dtype=np.int64),
            np.array(starts, dtype=float),
            np.array(ends, dtype=float),
        )

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, epoch_seconds: float) -> "ChurnTimeline":
        """Build from a boolean ``epochs x nodes`` presence matrix.

        Run extraction is fully vectorized (one diff over the padded
        matrix), unlike the per-cell python scan
        :meth:`~repro.churn.trace.ChurnTrace.from_matrix` inherited from
        the seed.
        """
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D (epochs x nodes), got {matrix.shape}")
        if epoch_seconds <= 0:
            raise ValueError(f"epoch_seconds must be positive, got {epoch_seconds}")
        epochs, n_nodes = matrix.shape
        padded = np.zeros((epochs + 2, n_nodes), dtype=np.int8)
        padded[1:-1] = matrix
        delta = np.diff(padded, axis=0)
        start_epoch, start_node = np.nonzero(delta == 1)
        end_epoch, end_node = np.nonzero(delta == -1)
        # np.nonzero is epoch-major; re-sort both by (node, epoch) so each
        # node's run starts and ends pair up positionally.
        start_order = np.lexsort((start_epoch, start_node))
        end_order = np.lexsort((end_epoch, end_node))
        return cls(
            n_nodes,
            epochs * epoch_seconds,
            start_node[start_order],
            start_epoch[start_order] * epoch_seconds,
            end_epoch[end_order] * epoch_seconds,
        )

    # ------------------------------------------------------------------
    # Memmap persistence
    # ------------------------------------------------------------------
    def spill_to(self, directory: str) -> "ChurnTimeline":
        """Re-back the session arrays (and derived query tables) with
        ``np.memmap`` files under ``directory``, in place.

        After spilling, the OS pages the columns in and out on demand, so
        a memmapped timeline's resident footprint is bounded by its query
        working set rather than by ``session_count``.  Returns ``self``
        for chaining; :meth:`open` maps the directory back without
        re-running construction-time normalization.
        """
        for attr, name in _SPILL_ARRAYS:
            setattr(self, attr, spill(getattr(self, attr), directory, name))
        with open(os.path.join(directory, "meta.json"), "w") as fh:
            json.dump(
                {
                    "format": "churn-timeline-v1",
                    "n_nodes": self.n_nodes,
                    "horizon": self.horizon,
                    "grid_cells": self._grid_cells,
                },
                fh,
            )
        return self

    @classmethod
    def open(cls, directory: str) -> "ChurnTimeline":
        """Map a :meth:`spill_to` directory back as a read-only timeline.

        No normalization, merging, or index construction happens — the
        persisted derived tables are trusted, which is what makes opening
        a multi-gigabyte timeline O(1) in memory and time.
        """
        with open(os.path.join(directory, "meta.json")) as fh:
            meta = json.load(fh)
        if meta.get("format") != "churn-timeline-v1":
            raise ValueError(f"not a spilled timeline directory: {directory}")
        self = object.__new__(cls)
        self.n_nodes = int(meta["n_nodes"])
        self.horizon = float(meta["horizon"])
        self._grid_cells = int(meta["grid_cells"])
        # Same expression as __init__ so query arithmetic is bit-equal.
        self._inv_cell = 1.0 / (self.horizon / self._grid_cells)
        for attr, name in _SPILL_ARRAYS:
            setattr(self, attr, open_array(directory, name))
        self._init_lazy_state()
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def session_count(self) -> int:
        return int(self.starts.size)

    def sessions_of(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` views of one node's sessions."""
        lo, hi = self.offsets[node], self.offsets[node + 1]
        return self.starts[lo:hi], self.ends[lo:hi]

    def session_counts(self) -> np.ndarray:
        """Number of sessions per node."""
        return np.diff(self.offsets)

    # ------------------------------------------------------------------
    # Core vectorized per-node segment search
    # ------------------------------------------------------------------
    def _last_started(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Index of the last session of ``nodes[k]`` with ``start <= times[k]``,
        or ``offsets[node] - 1`` when no session has started yet.

        The batched equivalent of ``bisect_right(starts, t) - 1``: the
        grid index brackets each query to the few sessions of its own
        time cell, then a vectorized binary search resolves the bracket
        exactly.  (A floating-point cell-boundary rounding can misplace
        a query whose time sits within ~1 ulp of a cell edge; the final
        insurance step restores ``starts[pos] <= t`` exactly.)
        """
        grid = self._grid_cells
        g = (times * self._inv_cell).astype(np.int64)
        np.minimum(g, grid - 1, out=g)
        np.maximum(g, 0, out=g)
        row = nodes * (grid + 1) + g
        base = self.offsets[nodes]
        lo = base + self._grid_rank[row]
        hi = base + self._grid_rank[row + 1]
        starts = self._starts_padded
        # Invariant: sessions in [segment_start, lo) have start <= t,
        # sessions in [hi, segment_end) have start > t.
        iters = int(np.max(hi - lo)).bit_length() if nodes.size else 0
        for _ in range(iters):
            cont = lo < hi
            mid = (lo + hi) >> 1
            le = cont & (starts[mid] <= times)
            lo = np.where(le, mid + 1, lo)
            hi = np.where(cont & ~le, mid, hi)
        pos = lo - 1
        bad = (pos >= base) & (starts[pos] > times)
        if bad.any():
            pos = np.where(bad, pos - 1, pos)
        return pos

    def _uptime_before(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        pos = self._last_started(nodes, times)
        started = pos >= self.offsets[nodes]
        if started.all():
            return self._cum_before[pos] + (
                np.minimum(times, self.ends[pos]) - self.starts[pos]
            )
        out = np.zeros(nodes.shape, dtype=float)
        if started.any():
            p = pos[started]
            t = times[started]
            out[started] = self._cum_before[p] + (
                np.minimum(t, self.ends[p]) - self.starts[p]
            )
        return out

    # ------------------------------------------------------------------
    # Presence queries
    # ------------------------------------------------------------------
    def is_online_array(self, nodes: np.ndarray, times) -> np.ndarray:
        """Presence of ``nodes[k]`` at ``times`` (scalar or parallel array)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.broadcast_to(np.asarray(times, dtype=float), nodes.shape)
        pos = self._last_started(nodes, times)
        started = pos >= self.offsets[nodes]
        out = np.zeros(nodes.shape, dtype=bool)
        if started.any():
            out[started] = times[started] < self.ends[pos[started]]
        return out

    def online_mask(self, time: float) -> np.ndarray:
        """Boolean presence of *every* node at ``time`` (index-aligned).

        One stabbing pass over the session arrays — O(total sessions),
        which beats a per-node binary search for whole-population
        queries.
        """
        stabbed = (self.starts <= time) & (time < self.ends)
        out = np.zeros(self.n_nodes, dtype=bool)
        out[self.node_index[stabbed]] = True
        return out

    def snapshot(self, time: float) -> EdgeSnapshot:
        """The :class:`EdgeSnapshot` whose window holds ``time``, reused
        until the clock crosses the next session edge.

        Building one is a whole-population pass, so this is for callers
        that pay O(N) anyway (band selection, protocol gates,
        ``online_rows``); per-node queries read :meth:`live_snapshot`.
        """
        snapshot = self.live_snapshot(time)
        if snapshot is None:
            starts, ends = self._sorted_edges()
            begun = int(starts.searchsorted(time, "right"))
            ended = int(ends.searchsorted(time, "right"))
            valid_from = max(
                starts[begun - 1] if begun else -np.inf,
                ends[ended - 1] if ended else -np.inf,
            )
            valid_until = min(
                starts[begun] if begun < starts.size else np.inf,
                ends[ended] if ended < ends.size else np.inf,
            )
            snapshot = self._snapshot = EdgeSnapshot(
                self, valid_from, valid_until, self.online_mask(time)
            )
            telemetry = current_telemetry()
            if telemetry.enabled:
                telemetry.count("churn.snapshot.rebuilds")
        return snapshot

    def live_snapshot(self, time: float) -> Optional[EdgeSnapshot]:
        """The live snapshot if its window holds ``time``, else None —
        never builds one, so a per-node query stays O(1) on a hit and
        falls back to its own search on a miss."""
        snapshot = self._snapshot
        if snapshot is not None and snapshot.valid_from <= time < snapshot.valid_until:
            return snapshot
        return None

    def presence_snapshot(self, time: float) -> np.ndarray:
        """:meth:`online_mask` at ``time`` as the shared read-only mask of
        :meth:`snapshot` (per-node protocol gates and liveness probes
        index it by row).  Callers must not hold the array across a clock
        advance — ask again instead."""
        return self.snapshot(time).online

    def _snapshot_sessions(self, time: float) -> Tuple[np.ndarray, ...]:
        """Per node, the ``(cum_before, start, end)`` of the last session
        started by ``time`` — all zeros where none has, which makes
        :meth:`_uptime_before`'s expression come out 0.0 there — plus the
        uptime before t = 0."""
        rows = np.arange(self.n_nodes, dtype=np.int64)
        if self._uptime_at_zero is None:
            self._uptime_at_zero = self._uptime_before(rows, np.zeros(self.n_nodes))
            self._uptime_at_zero.flags.writeable = False
        pos = self._last_started(rows, np.full(self.n_nodes, time))
        started = pos >= self.offsets[:-1]
        pos = pos[started]
        columns = []
        for column in (self._cum_before, self.starts, self.ends):
            gathered = np.zeros(self.n_nodes, dtype=float)
            gathered[started] = column[pos]
            gathered.flags.writeable = False
            columns.append(gathered)
        return (*columns, self._uptime_at_zero)

    def online_count(self, time: float) -> int:
        return int(self.online_mask(time).sum())

    def _sorted_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """All session starts and all session ends, each time-sorted."""
        if self._starts_sorted is None:
            self._starts_sorted = np.sort(self.starts)
            self._ends_sorted = np.sort(self.ends)
        return self._starts_sorted, self._ends_sorted

    def online_count_series(self, times: Sequence[float]) -> np.ndarray:
        """Online population at each of ``times``, in one batch.

        A node is online at ``t`` iff some session has ``start <= t <
        end``; per-node sessions are disjoint, so the population count at
        ``t`` is simply (# session starts ``<= t``) − (# session ends
        ``<= t``) — two ``searchsorted`` passes over globally time-sorted
        session edges, with no ``len(times) × n_nodes`` matrix in sight.
        """
        times = np.asarray(times, dtype=float)
        starts, ends = self._sorted_edges()
        begun = np.searchsorted(starts, times, side="right")
        ended = np.searchsorted(ends, times, side="right")
        return (begun - ended).astype(np.int64)

    def online_mask_matrix(self, times: Sequence[float]) -> np.ndarray:
        """``(len(times), n_nodes)`` presence matrix, one vectorized pass.

        Each session covers a contiguous run of (sorted) query times; the
        runs are accumulated as +1/−1 boundary marks per node and
        prefix-summed down the time axis — O(sessions + times × nodes)
        with no per-time stabbing loop.
        """
        times = np.asarray(times, dtype=float)
        n_times = times.size
        out = np.zeros((n_times, self.n_nodes), dtype=bool)
        if n_times == 0 or self.starts.size == 0:
            return out
        order = np.argsort(times, kind="stable")
        sorted_times = times[order]
        first = np.searchsorted(sorted_times, self.starts, side="left")
        last = np.searchsorted(sorted_times, self.ends, side="left")
        covers = last > first  # sessions covering at least one query time
        if covers.any():
            delta = np.zeros((n_times + 1, self.n_nodes), dtype=np.int32)
            np.add.at(delta, (first[covers], self.node_index[covers]), 1)
            np.add.at(delta, (last[covers], self.node_index[covers]), -1)
            out[order] = delta.cumsum(axis=0)[:n_times] > 0
        return out

    # ------------------------------------------------------------------
    # Uptime / availability queries
    # ------------------------------------------------------------------
    def _edge_uptimes(self, nodes: np.ndarray, until, since):
        """``uptime_before`` at both window edges via one combined segment
        search (halves the fixed per-call cost on small batches — the
        refresh path).  Returns ``(uptimes, times)``, both length 2k and
        laid out ``[until..., since...]``; ``until``/``since`` may be
        scalars or length-k arrays."""
        k = nodes.size
        times = np.empty(2 * k)
        times[:k] = until
        times[k:] = since
        return self._uptime_before(np.concatenate((nodes, nodes)), times), times

    def uptime_array(self, nodes: np.ndarray, until, since=0.0) -> np.ndarray:
        """Seconds online within ``[since, until]`` for each queried node."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if np.ndim(until) == 0 and np.ndim(since) == 0:
            if until < since:
                raise ValueError("until must be >= since")
        elif np.any(np.asarray(until) < np.asarray(since)):
            raise ValueError("until must be >= since")
        both, _ = self._edge_uptimes(nodes, until, since)
        k = nodes.size
        return both[:k] - both[k:]

    def availability_array(self, nodes: np.ndarray, until, since=0.0) -> np.ndarray:
        """Fraction uptime over ``[since, until]`` — the paper's ``av(x)``.

        Zero-length windows return instantaneous presence, matching
        :meth:`~repro.churn.trace.NodeSchedule.availability`.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        k = nodes.size
        both, times = self._edge_uptimes(nodes, until, since)
        span = times[:k] - times[k:]
        positive = span > 0
        if positive.all():
            return (both[:k] - both[k:]) / span
        out = np.zeros(k, dtype=float)
        np.divide(both[:k] - both[k:], span, out=out, where=positive)
        degenerate = ~positive
        out[degenerate] = self.is_online_array(
            nodes[degenerate], times[:k][degenerate]
        ).astype(float)
        return out

    def windowed_availability_array(
        self, nodes: np.ndarray, time: float, window: float
    ) -> np.ndarray:
        """Fraction uptime over the trailing ``window`` seconds (Section
        3.1's "aged" availability), batched."""
        since = max(0.0, float(time) - float(window))
        return self.availability_array(nodes, float(time), since)

    def availability_matrix(
        self, times: Sequence[float], window: Optional[float] = None
    ) -> np.ndarray:
        """``(len(times), n_nodes)`` availability matrix.

        ``window=None`` gives raw availabilities over ``[0, t]`` per row;
        otherwise each row is the trailing-window ("aged") availability.
        """
        times = np.asarray(times, dtype=float)
        all_nodes = np.arange(self.n_nodes, dtype=np.int64)
        out = np.zeros((times.size, self.n_nodes), dtype=float)
        for row, t in enumerate(times.tolist()):
            if window is None:
                out[row] = self.availability_array(all_nodes, t)
            else:
                out[row] = self.windowed_availability_array(all_nodes, t, window)
        return out

    def lifetime_availability_array(self) -> np.ndarray:
        """Fraction uptime over the full horizon, for every node.

        Session time outside ``[0, horizon]`` does not count, matching
        ``NodeSchedule.availability(horizon)``.
        """
        clipped = np.minimum(self.ends, self.horizon) - np.maximum(self.starts, 0.0)
        totals = np.bincount(
            self.node_index, weights=np.maximum(clipped, 0.0), minlength=self.n_nodes
        )
        return totals / self.horizon

    # ------------------------------------------------------------------
    # Structural checks / conversions
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert the layout invariants (property tests call this)."""
        assert self.offsets.shape == (self.n_nodes + 1,)
        assert self.offsets[0] == 0 and self.offsets[-1] == self.starts.size
        assert (np.diff(self.offsets) >= 0).all()
        if not self.starts.size:
            return
        assert (self.ends > self.starts).all(), "empty session survived"
        assert self.starts.min() >= 0.0
        assert self.ends.max() <= self.horizon + 1e-9
        expected = np.repeat(
            np.arange(self.n_nodes, dtype=np.int64), np.diff(self.offsets)
        )
        assert (self.node_index == expected).all(), "CSR grouping broken"
        same_node = self.node_index[1:] == self.node_index[:-1]
        assert (
            self.starts[1:][same_node] > self.ends[:-1][same_node]
        ).all(), "sessions not disjoint/sorted within a node"

    def to_trace(self, node_keys: Optional[Sequence] = None):
        """Materialize a :class:`~repro.churn.trace.ChurnTrace` backed by
        this timeline (scalar and batch queries stay consistent)."""
        from repro.churn.trace import ChurnTrace

        if node_keys is None:
            node_keys = list(range(self.n_nodes))
        return ChurnTrace.from_timeline(self, node_keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChurnTimeline(nodes={self.n_nodes}, sessions={self.session_count}, "
            f"horizon={self.horizon:.0f}s)"
        )
