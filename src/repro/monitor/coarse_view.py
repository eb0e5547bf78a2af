"""Shuffling partial-membership services (black-box dependency #2).

Two implementations of :class:`~repro.monitor.base.CoarseViewProvider`:

* :class:`ShuffledCoarseView` — a CYCLON-style distributed shuffler: every
  protocol period, each online node swaps a random half of its view with
  a random online partner from the view.  Entries can be stale (point to
  offline nodes); staleness is a feature the discovery protocol must
  tolerate.  This is the faithful model of AVMON's "coarse view".
* :class:`GlobalSampleView` — an idealized shuffler that re-samples each
  node's view uniformly from the whole population every period.  Each
  period, ``P[y ∈ view(x)] = v/N`` exactly, which matches the
  Section 3.1 discovery-time analysis (expected ``N/v`` periods) and
  keeps large benchmark sweeps cheap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.churn.trace import ChurnTrace
from repro.core.ids import NodeId
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.network import PresenceOracle

__all__ = ["ShuffledCoarseView", "GlobalSampleView"]

_NO_ROWS = np.empty(0, dtype=np.int64)


def _row_index(population: Tuple[NodeId, ...]) -> Dict[NodeId, int]:
    """id -> position in ``population`` (which must hold no duplicates)."""
    row_of = dict(zip(population, range(len(population))))
    if len(row_of) != len(population):
        raise ValueError("population must not contain duplicates")
    return row_of


class GlobalSampleView:
    """Idealized shuffler: each period, a node's view is a fresh uniform
    sample of the *online* population.

    Views are materialized lazily: a node's view is (re)sampled the first
    time it is read in each period, so idle nodes cost nothing.  Within a
    period the view is stable; across periods it is independent, giving
    ``P[y ∈ view(x)] = v/N_online`` per period — exactly the model behind
    Section 3.1's ``O(N/v)``-period discovery-time analysis.

    Real shuffling services circulate (mostly) live nodes — a host that
    is offline neither initiates nor answers shuffles — so the sample is
    drawn from the currently online population; a small ``stale_fraction``
    of slots may instead point at arbitrary (possibly dead) hosts,
    modeling the stale entries a real view accumulates.

    Sampling runs in index space: a node is its position (*row*) in
    ``population``, the online pool is one sorted row array per period
    (from the ``presence`` trace's row-space snapshot, which is why the
    population must be the trace's nodes in row order), and the two draws
    of a sample are mapped onto their pools by arithmetic
    (:meth:`view_rows`), so no sample walks the population.
    """

    def __init__(
        self,
        sim: Simulator,
        population: Sequence[NodeId],
        view_size: int,
        rng: np.random.Generator,
        presence: Optional[ChurnTrace] = None,
        period: float = 60.0,
        stale_fraction: float = 0.05,
    ):
        if view_size <= 0:
            raise ValueError(f"view_size must be positive, got {view_size}")
        if not 0.0 <= stale_fraction <= 1.0:
            raise ValueError(f"stale_fraction must be in [0, 1], got {stale_fraction}")
        self.sim = sim
        self.population: Tuple[NodeId, ...] = tuple(population)
        self.view_size = min(view_size, max(1, len(self.population) - 1))
        self.rng = rng
        self.presence = presence
        self.period = period
        self.stale_fraction = stale_fraction
        if presence is not None and presence.nodes != self.population:
            raise KeyError("the population must be the presence trace's nodes, in row order")
        #: row -> (period bucket it was sampled in, the sampled rows)
        self._views: Dict[int, Tuple[int, np.ndarray]] = {}
        # Online-pool cache (sorted rows), refreshed once per period bucket.
        self._all_rows = np.arange(len(self.population), dtype=np.int64)
        self._pool = self._all_rows
        self._pool_bucket = -1

    def _bucket(self) -> int:
        return int(self.sim.now / self.period)

    def _online_pool(self) -> np.ndarray:
        bucket = self._bucket()
        if bucket != self._pool_bucket:
            self._pool = self._all_rows
            if self.presence is not None:
                snapshot = self.presence.presence_snapshot(self.sim.now)
                online = np.flatnonzero(snapshot)
                if online.size:
                    self._pool = online
            self._pool_bucket = bucket
        return self._pool

    def _sample_rows(self, row: int) -> np.ndarray:
        """One period's view: live picks plus stale picks, all distinct.

        Both draws exclude the owner and each other up front, so a view
        is only ever shorter than ``view_size`` when the eligible
        population genuinely cannot fill it (e.g. too few online nodes
        with ``stale_fraction=0``) — collisions are resampled, never
        silently dropped, which would shrink views and bias discovery
        time toward nodes that happened to collide less.

        Each draw is ``rng.choice(m, size, replace=False)`` over the
        *size* of its pool; the drawn positions are then mapped onto the
        pool without building it — the live pool is the online pool
        minus the owner (skip one position), the stale pool is the
        complement of ``{owner} ∪ live`` in the population (the k-th
        element of a complement by one ``searchsorted``).
        """
        pool = self._online_pool()
        n_stale = int(round(self.view_size * self.stale_fraction))
        n_live = self.view_size - n_stale
        live = _NO_ROWS
        if n_live > 0:
            owner_at = int(pool.searchsorted(row))
            owner_in_pool = bool(owner_at < pool.size and pool[owner_at] == row)
            eligible = int(pool.size) - owner_in_pool
            if eligible:
                drawn = self.rng.choice(eligible, size=min(n_live, eligible), replace=False)
                if owner_in_pool:
                    drawn = drawn + (drawn >= owner_at)
                live = pool[drawn]
        if n_stale > 0:
            seen = np.empty(live.size + 1, dtype=np.int64)
            seen[:-1] = live
            seen[-1] = row
            seen.sort()
            eligible = len(self.population) - int(seen.size)
            if eligible:
                drawn = self.rng.choice(eligible, size=min(n_stale, eligible), replace=False)
                # the k-th unseen row is k + #{j : seen[j] - j <= k}
                seen -= self._all_rows[: seen.size]
                stale = drawn + seen.searchsorted(drawn, "right")
                return np.concatenate((live, stale))
        return live

    def view_rows(self, row: int) -> np.ndarray:
        """The current view of the node at ``row``, as population rows
        (an array the caller must not write to)."""
        bucket = self._bucket()
        sampled = self._views.get(row)
        if sampled is None or sampled[0] != bucket:
            sampled = self._views[row] = (bucket, self._sample_rows(row))
        return sampled[1]

    # benchmarks/e2e/tracer.py (frozen here) wraps this name by
    # GlobalSampleView.__dict__ lookup; nothing calls it.  ROADMAP item 4
    # re-points the tracer at view_rows and removes it.
    view = view_rows

    def stop(self) -> None:
        """No background tasks to stop (lazy implementation); kept for
        interface parity with ShuffledCoarseView."""


class ShuffledCoarseView:
    """CYCLON-style gossip shuffler over the simulated population.

    One global periodic task iterates the online nodes in random order
    and performs one pairwise swap each — statistically equivalent to
    per-node timers at 1/period rate, and far cheaper to simulate.
    """

    def __init__(
        self,
        sim: Simulator,
        population: Sequence[NodeId],
        view_size: int,
        rng: np.random.Generator,
        presence: Optional[PresenceOracle] = None,
        period: float = 60.0,
        swap_size: Optional[int] = None,
        start: bool = True,
    ):
        if view_size <= 0:
            raise ValueError(f"view_size must be positive, got {view_size}")
        self.sim = sim
        self.population: Tuple[NodeId, ...] = tuple(population)
        self._row_of: Dict[NodeId, int] = _row_index(self.population)
        self.view_size = min(view_size, max(1, len(self.population) - 1))
        self.rng = rng
        self.presence = presence
        self.period = period
        self.swap_size = swap_size if swap_size is not None else max(1, self.view_size // 2)
        self.shuffle_count = 0
        self._views: Dict[NodeId, List[NodeId]] = {}
        self._bootstrap()
        self._task: Optional[PeriodicTask] = None
        if start:
            self._task = PeriodicTask(sim, period, self.step)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Seed each view with a uniform random sample — modeling an
        out-of-band join service, as gossip membership systems assume."""
        n = len(self.population)
        for node in self.population:
            size = min(self.view_size, n - 1)
            view: List[NodeId] = []
            while len(view) < size:
                candidate = self.population[int(self.rng.integers(n))]
                if candidate != node and candidate not in view:
                    view.append(candidate)
            self._views[node] = view

    # ------------------------------------------------------------------
    # Shuffling
    # ------------------------------------------------------------------
    def _is_online(self, node: NodeId) -> bool:
        return self.presence is None or self.presence.is_online(node, self.sim.now)

    def step(self) -> None:
        """One global shuffle round: every online node swaps once."""
        order = list(self.population)
        self.rng.shuffle(order)
        for node in order:
            if self._is_online(node):
                self._swap_once(node)

    def _swap_once(self, node: NodeId) -> None:
        view = self._views[node]
        online_partners = [p for p in view if self._is_online(p)]
        if not online_partners:
            return
        partner = online_partners[int(self.rng.integers(len(online_partners)))]
        self._exchange(node, partner)
        self.shuffle_count += 1

    def _exchange(self, a: NodeId, b: NodeId) -> None:
        """Swap up to ``swap_size`` random entries and plant each other's
        id — the CYCLON subset exchange."""
        view_a, view_b = self._views[a], self._views[b]
        send_a = self._pick_subset(view_a, exclude=b)
        send_b = self._pick_subset(view_b, exclude=a)
        self._merge(a, view_a, send_a, incoming=send_b + [b])
        self._merge(b, view_b, send_b, incoming=send_a + [a])

    def _pick_subset(self, view: List[NodeId], exclude: NodeId) -> List[NodeId]:
        candidates = [entry for entry in view if entry != exclude]
        if not candidates:
            return []
        size = min(self.swap_size, len(candidates))
        indices = self.rng.choice(len(candidates), size=size, replace=False)
        return [candidates[i] for i in indices]

    def _merge(
        self, owner: NodeId, view: List[NodeId], sent: List[NodeId], incoming: List[NodeId]
    ) -> None:
        # Drop what we sent, add what we received (no self, no dups), trim.
        remaining = [entry for entry in view if entry not in sent]
        for entry in incoming:
            if entry != owner and entry not in remaining:
                remaining.append(entry)
        while len(remaining) > self.view_size:
            remaining.pop(int(self.rng.integers(len(remaining))))
        self._views[owner] = remaining

    # ------------------------------------------------------------------
    # CoarseViewProvider protocol
    # ------------------------------------------------------------------
    def view_rows(self, row: int) -> np.ndarray:
        """The current view of the node at ``row``, as population rows."""
        row_of = self._row_of
        entries = self._views[self.population[row]]
        return np.fromiter(
            (row_of[entry] for entry in entries), dtype=np.int64, count=len(entries)
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShuffledCoarseView(nodes={len(self.population)}, v={self.view_size}, "
            f"shuffles={self.shuffle_count})"
        )
