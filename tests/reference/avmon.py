"""AVMON — consistent availability-monitoring overlay (Morales & Gupta,
ICDCS 2007), the monitoring service the paper's implementation uses.

Kept as a test reference: the package consumes availability monitoring
as the black box of Section 3.1 and ships only the trace oracle
(:class:`repro.monitor.oracle.OracleAvailability`).  This module shows
what a protocol-level service behind that interface looks like, and
``tests/test_avmon.py`` holds it to its own contract.

AVMON's key idea mirrors AVMEM's: the *monitoring relationship* is chosen
by a consistent hash so it cannot be gamed.  Node ``z`` monitors node
``x`` iff ``Hm(id(z), id(x)) ≤ k/N*`` where ``Hm`` is a fixed hash
(independent of the AVMEM membership hash) and ``k`` the target number of
monitors per node.  Monitors discover their targets through the coarse
view, ping them periodically, and estimate availability as the answered
fraction of pings.

Fidelity notes: pings sample the churn trace directly instead of
traversing the simulated network, and ping *counts* are still tracked so
overhead can be reported.  Queries aggregate over the target's current
monitors by median.  :meth:`AvmonService.query` is keyed by id;
:meth:`AvmonService.query_array` is the row-addressed batch form a
:class:`~repro.monitor.cache.CachedAvailabilityView` fetches through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.churn.trace import ChurnTrace
from repro.core.hashing import Mix64PairHash
from repro.core.ids import NodeId
from repro.monitor.base import CoarseViewProvider
from repro.sim.engine import PeriodicTask, Simulator
from repro.util.randomness import fallback_rng
from repro.util.validation import check_positive

__all__ = ["AvmonService", "AvmonConfig", "MonitorRecord"]

#: Salt making AVMON's hash family independent of the AVMEM membership hash.
_AVMON_SALT = 0xA730_0000_0000_0001


@dataclass(frozen=True)
class AvmonConfig:
    """AVMON protocol parameters."""

    monitors_per_node: int = 8  # the paper's K
    ping_period: float = 60.0
    discovery_period: float = 60.0

    def __post_init__(self):
        if self.monitors_per_node <= 0:
            raise ValueError(
                f"monitors_per_node must be positive, got {self.monitors_per_node}"
            )
        check_positive(self.ping_period, "ping_period")
        check_positive(self.discovery_period, "discovery_period")


@dataclass
class MonitorRecord:
    """One monitor's running measurement of one target."""

    pings_sent: int = 0
    pings_answered: int = 0
    history: List[bool] = field(default_factory=list)

    def observe(self, online: bool) -> None:
        self.pings_sent += 1
        if online:
            self.pings_answered += 1

    @property
    def estimate(self) -> Optional[float]:
        if self.pings_sent == 0:
            return None
        return self.pings_answered / self.pings_sent


class AvmonService:
    """The AVMON availability-monitoring overlay (id-keyed scalar
    :meth:`query`, row-addressed :meth:`query_array`)."""

    def __init__(
        self,
        sim: Simulator,
        trace: ChurnTrace,
        population: Sequence[NodeId],
        coarse_view: CoarseViewProvider,
        n_star: float,
        config: Optional[AvmonConfig] = None,
        rng: Optional[np.random.Generator] = None,
        start: bool = True,
    ):
        self.sim = sim
        self.trace = trace
        self.population: Tuple[NodeId, ...] = tuple(population)
        self._row_of: Dict[NodeId, int] = dict(zip(self.population, range(len(self.population))))
        self.coarse_view = coarse_view
        self.n_star = check_positive(n_star, "n_star")
        self.config = config if config is not None else AvmonConfig()
        self.rng = rng if rng is not None else fallback_rng()
        self._hash = Mix64PairHash(salt=_AVMON_SALT)
        self._selection_threshold = min(1.0, self.config.monitors_per_node / self.n_star)
        # monitor -> set of targets it has discovered it must monitor
        self._targets: Dict[NodeId, Set[NodeId]] = {n: set() for n in self.population}
        # (monitor, target) -> record
        self._records: Dict[Tuple[NodeId, NodeId], MonitorRecord] = {}
        # target -> its monitors' records (the query-side index: queries
        # aggregate per target, so scanning every (monitor, target) pair
        # per query would be O(population × K))
        self._records_of_target: Dict[NodeId, List[MonitorRecord]] = {
            n: [] for n in self.population
        }
        self.ping_count = 0
        self._tasks: List[PeriodicTask] = []
        if start:
            self._tasks.append(
                PeriodicTask(sim, self.config.discovery_period, self._discovery_round)
            )
            self._tasks.append(PeriodicTask(sim, self.config.ping_period, self._ping_round))

    # ------------------------------------------------------------------
    # The consistent monitoring relation
    # ------------------------------------------------------------------
    def should_monitor(self, monitor: NodeId, target: NodeId) -> bool:
        """``Hm(id(z), id(x)) ≤ K/N*`` — verifiable by anyone."""
        if monitor == target:
            return False
        return self._hash.value(monitor, target) <= self._selection_threshold

    def monitors_of(self, target: NodeId) -> List[NodeId]:
        """All nodes whose hash selects them as monitors of ``target``
        (ground-truth set, independent of discovery progress)."""
        return [z for z in self.population if self.should_monitor(z, target)]

    # ------------------------------------------------------------------
    # Protocol rounds
    # ------------------------------------------------------------------
    def _discovery_round(self) -> None:
        """Each online node scans its coarse view for nodes it should
        monitor (AVMON's discovery leg)."""
        now = self.sim.now
        for monitor in self.population:
            if not self.trace.is_online(monitor, now):
                continue
            known = self._targets[monitor]
            view = self.coarse_view.view_rows(self._row_of[monitor])
            for candidate in map(self.population.__getitem__, view.tolist()):
                if candidate not in known and self.should_monitor(monitor, candidate):
                    known.add(candidate)

    def _ping_round(self) -> None:
        """Every online monitor pings each discovered target."""
        now = self.sim.now
        for monitor, targets in self._targets.items():
            if not self.trace.is_online(monitor, now) or not targets:
                continue
            for target in targets:
                record = self._records.get((monitor, target))
                if record is None:
                    record = MonitorRecord()
                    self._records[(monitor, target)] = record
                    self._records_of_target[target].append(record)
                record.observe(self.trace.is_online(target, now))
                self.ping_count += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, node: NodeId) -> float:
        """Median of the discovered monitors' estimates for ``node``.

        Falls back to 0.5 (an uninformative prior) when no monitor has
        measured the node yet — early in a deployment this is exactly the
        situation a real client faces.
        """
        if node not in self._targets:
            raise KeyError(f"unknown node {node!r}")
        estimates = [
            record.estimate
            for record in self._records_of_target[node]
            if record.estimate is not None
        ]
        if not estimates:
            return 0.5
        return float(np.median(estimates))

    def query_array(self, rows: np.ndarray) -> np.ndarray:
        """Batched :meth:`query` for the nodes at ``rows`` — positions in
        :attr:`population`, which a row-addressed
        :class:`~repro.monitor.cache.CachedAvailabilityView` hands over
        as they are.  One call answers a whole round's neighbor set,
        entry for entry as :meth:`query` would.  Per-target monitor
        counts are small (the paper's K ≈ 8), so each median runs over
        a handful of ping ratios gathered through the per-target record
        index.
        """
        nodes = [self.population[row] for row in rows.tolist()]
        out = np.empty(len(nodes), dtype=float)
        records_of = self._records_of_target
        for i, node in enumerate(nodes):
            records = records_of[node]
            estimates = np.fromiter(
                (
                    estimate
                    for estimate in (record.estimate for record in records)
                    if estimate is not None
                ),
                dtype=float,
            )
            out[i] = float(np.median(estimates)) if estimates.size else 0.5
        return out

    def discovered_monitor_count(self, target: NodeId) -> int:
        """How many monitors have already *discovered* this target."""
        return sum(1 for targets in self._targets.values() if target in targets)

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()
        self._tasks.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AvmonService(nodes={len(self.population)}, K={self.config.monitors_per_node}, "
            f"pings={self.ping_count})"
        )
