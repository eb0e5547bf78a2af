"""The AVMEM node: discovery and refresh sub-protocols (Section 3.1),
plus message dispatch for the management operations built on top.

Discovery (every ``discovery_period``, typically 1 minute): take the
coarse view; for the entries not already neighbors, fetch their
availabilities from the monitoring service and evaluate the predicate;
insert matches into HS/VS.

Refresh (every ``refresh_period``, typically 20 minutes): re-fetch the
availability of every current neighbor, re-evaluate the predicate, drop
entries for which ``M(x, y)`` has become false, and re-classify entries
whose sliver changed.  Refresh is also when availability caches are
brought up to date — between refreshes, forwarding decisions use the
cached (stale) values.

Both protocols only run while the node is online per the churn trace; a
node that goes offline keeps its lists and resumes where it left off —
matching how a real process would persist soft state across restarts
within the measurement horizon.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Type

import numpy as np

from repro.core.config import AvmemConfig
from repro.core.ids import NodeId
from repro.core.membership import MembershipTable
from repro.core.population import Population
from repro.core.predicates import AvmemPredicate, NodeDescriptor
from repro.core.verification import InboundVerifier
from repro.monitor.base import CoarseViewProvider
from repro.monitor.cache import CachedAvailabilityView
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.network import Envelope, Network
from repro.telemetry import current as current_telemetry
from repro.util.randomness import fallback_rng

__all__ = ["AvmemNode"]

PayloadHandler = Callable[["AvmemNode", Envelope], None]


class AvmemNode:
    """One AVMEM participant.

    Parameters
    ----------
    sim, network:
        Substrate bindings.  The node attaches itself to the network on
        construction.
    predicate:
        The application-specified AVMEM predicate (shared, consistent).
    config:
        Protocol periods, cushion, etc.
    availability_view:
        This node's cached window onto the availability monitoring
        service.  Each node gets its *own* cache — staleness is per-node.
    coarse_view:
        The shuffled partial-membership service.
    rng:
        Stream for protocol randomness (start staggering, tie-breaking).
    population, row:
        The struct-of-arrays binding: the node is a lightweight view
        over ``population`` row ``row``, and its id is that row's.  It
        addresses its peers by row throughout, so the population's row
        order must be the order the churn trace (the network's presence
        oracle and the monitoring service), the coarse view and the
        availability cache were built over —
        :class:`~repro.simulation.AvmemSimulation` builds all of them
        from one id list.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        predicate: AvmemPredicate,
        config: AvmemConfig,
        availability_view: CachedAvailabilityView,
        coarse_view: CoarseViewProvider,
        rng: Optional[np.random.Generator] = None,
        *,
        population: Population,
        row: int,
    ):
        self.population = population
        self.row = int(row)
        self.id = node_id = population.id_of(self.row)
        self.sim = sim
        self.network = network
        self.predicate = predicate
        self.config = config
        self.availability = availability_view
        self.coarse_view = coarse_view
        self.rng = rng if rng is not None else fallback_rng()
        self.lists = MembershipTable(node_id, population=population)
        self.verifier = InboundVerifier(
            self.row, predicate, availability_view, cushion=config.cushion
        )
        self.discovery_rounds = 0
        self.refresh_rounds = 0
        # Captured once, as the simulator and network do.
        self._telemetry = current_telemetry()
        self._handlers: Dict[Type, PayloadHandler] = {}
        self._tasks: List[PeriodicTask] = []
        network.attach(node_id, self._on_envelope)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, stagger: bool = True) -> None:
        """Begin the discovery and refresh loops.

        ``stagger`` randomizes each loop's first firing within one period
        so a large population does not run in lockstep.
        """
        if self._tasks:
            raise RuntimeError(f"node {self.id} already started")
        d_delay = float(self.rng.uniform(0, self.config.discovery_period)) if stagger else None
        r_delay = float(self.rng.uniform(0, self.config.refresh_period)) if stagger else None
        self._tasks.append(
            PeriodicTask(self.sim, self.config.discovery_period, self.discovery_step, start_delay=d_delay)
        )
        self._tasks.append(
            PeriodicTask(self.sim, self.config.refresh_period, self.refresh_step, start_delay=r_delay)
        )

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()
        self._tasks.clear()

    @property
    def online(self) -> bool:
        return bool(self.network.online_rows(self.row))

    # ------------------------------------------------------------------
    # Descriptors
    # ------------------------------------------------------------------
    def self_descriptor(self, fresh: bool = False) -> NodeDescriptor:
        """This node's (id, availability) pair, from its own cache.

        ``fresh`` forces a fetch from the monitoring service.
        """
        if fresh:
            value = self.availability.fetch(self.row)
        else:
            value = self.availability.get_or_fetch(self.row)
        return NodeDescriptor(self.id, value)

    # ------------------------------------------------------------------
    # Discovery sub-protocol
    # ------------------------------------------------------------------
    def discovery_step(self) -> int:
        """One discovery round.  Returns the number of neighbors added.

        The round is one batched pass in view order, the shape
        :meth:`refresh_step` has: the coarse view's rows → mask out this
        node, entries already in the lists and (with
        ``config.discovery_liveness``) entries whose handshake fails →
        one bulk cache fetch for what is left → one vectorized predicate
        evaluation → one bulk insert of the matches.
        """
        if not self.online:
            return 0
        self.discovery_rounds += 1
        me = self.self_descriptor(fresh=True)
        candidates = self.coarse_view.view_rows(self.row)
        unknown = ~self.lists.contains_digests(self.population.digests[candidates])
        unknown &= candidates != self.row
        if self.config.discovery_liveness:
            # a candidate whose handshake fails is skipped unfetched
            unknown[unknown] = self.network.online_rows(candidates[unknown])
        candidates = candidates[unknown]
        added = 0
        if candidates.size:
            availabilities, member, horizontal = self._evaluate_rows(me, candidates)
            added = self.install_member_rows(
                candidates[member], availabilities[member], horizontal[member]
            )
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.count("node.discovery.rounds")
            telemetry.count("node.discovery.candidates", int(candidates.size))
            telemetry.count("node.discovery.added", added)
        return added

    def _evaluate_rows(self, me: NodeDescriptor, rows: np.ndarray):
        """One bulk cache fetch for ``rows`` and one vectorized predicate
        evaluation against it: ``(availabilities, member, horizontal)``,
        parallel to ``rows``."""
        availabilities = self.availability.fetch_rows(rows)
        member, horizontal = self.predicate.evaluate_many(
            me, self.population, rows, availabilities
        )
        return availabilities, member, horizontal

    # ------------------------------------------------------------------
    # Refresh sub-protocol
    # ------------------------------------------------------------------
    def refresh_step(self) -> int:
        """One refresh round.  Returns the number of neighbors evicted.

        An entry is evicted when the predicate no longer holds for the
        re-fetched availabilities, or (with ``config.refresh_liveness``)
        when the neighbor fails its liveness probe — it will re-enter the
        lists through discovery once it is back and still satisfies the
        predicate.

        The whole round is the row-space pass discovery is: the
        neighbors' rows from a columnar snapshot of the lists
        (:meth:`~repro.core.membership.MembershipTable.neighbor_arrays`),
        one presence lookup for all of them, one bulk cache fetch for the
        live ones, one vectorized predicate evaluation, and one masked
        :meth:`~repro.core.membership.MembershipTable.refresh_round`
        update.  Offline neighbors are evicted without an availability
        fetch.
        """
        if not self.online:
            return 0
        self.refresh_rounds += 1
        evicted = self._refresh_round()
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.count("node.refresh.rounds")
            telemetry.count("node.refresh.evicted", evicted)
        return evicted

    def _refresh_round(self) -> int:
        me = self.self_descriptor(fresh=True)
        view = self.lists.neighbor_arrays(with_nodes=False)
        total = view.slots.size
        if total == 0:
            return 0
        if self.config.refresh_liveness:
            live = self.network.online_rows(view.rows)
        else:
            live = np.ones(total, dtype=bool)
        availabilities = np.zeros(total, dtype=float)
        keep = np.zeros(total, dtype=bool)
        horizontal = np.zeros(total, dtype=bool)
        if live.any():
            availabilities[live], keep[live], horizontal[live] = self._evaluate_rows(
                me, view.rows[live]
            )
        return self.lists.refresh_round(
            view.slots, availabilities, horizontal, keep, now=self.sim.now
        )

    # ------------------------------------------------------------------
    # Bulk install
    # ------------------------------------------------------------------
    def install_member_rows(
        self,
        rows: np.ndarray,
        availabilities: np.ndarray,
        horizontal_flags: np.ndarray,
    ) -> int:
        """Bulk-install already-evaluated predicate matches, addressed by
        population row.

        The arrays are parallel, one neighbor per entry, with
        ``horizontal_flags`` giving the sliver classification.  This is
        the shared sink for discovery and for the whole-population
        direct bootstrap, which feeds
        :class:`~repro.overlays.graphs.OverlayGraph` CSR slices without
        ever materializing :class:`NodeId` objects.  Returns the number
        of neighbors installed.
        """
        return self.lists.upsert_rows(
            rows, availabilities, horizontal_flags, now=self.sim.now
        )

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def register_handler(self, payload_type: Type, handler: PayloadHandler) -> None:
        """Route incoming payloads of ``payload_type`` to ``handler``.

        The ops layer registers its message types here; one handler per
        type.
        """
        if payload_type in self._handlers:
            raise ValueError(f"handler for {payload_type.__name__} already registered")
        self._handlers[payload_type] = handler

    def send(self, dst: NodeId, payload: Any) -> bool:
        """Send a payload through the network (presence-gated)."""
        return self.network.send(self.id, dst, payload)

    def _on_envelope(self, envelope: Envelope) -> None:
        handler = self._handlers.get(type(envelope.payload))
        if handler is not None:
            handler(self, envelope)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AvmemNode({self.id}, hs={self.lists.horizontal_count}, "
            f"vs={self.lists.vertical_count})"
        )
