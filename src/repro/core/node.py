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

from typing import Any, Callable, Dict, List, Optional, Sequence, Type

import numpy as np

from repro.core.config import AvmemConfig
from repro.core.ids import NodeId, digest_array
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
    node_id, sim, network:
        Identity and substrate bindings.  The node attaches itself to the
        network on construction.
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
        Optional struct-of-arrays binding.  When given, the node is a
        lightweight view over ``population`` row ``row``: its membership
        lists are population-backed (row-keyed installs stay object-free)
        and ``node_id`` may be omitted — it is materialized lazily from
        the population only when identity-object APIs need it.  A
        population-backed node addresses its peers by row, so the
        population's row order must be the order the churn trace (the
        network's presence oracle and the monitoring service), the
        coarse view and the availability cache were built over —
        :class:`~repro.simulation.AvmemSimulation` builds all of them
        from one id list.
    """

    def __init__(
        self,
        node_id: Optional[NodeId],
        sim: Simulator,
        network: Network,
        predicate: AvmemPredicate,
        config: AvmemConfig,
        availability_view: CachedAvailabilityView,
        coarse_view: CoarseViewProvider,
        rng: Optional[np.random.Generator] = None,
        population: Optional["Population"] = None,
        row: Optional[int] = None,
    ):
        if node_id is None:
            if population is None or row is None:
                raise ValueError("node_id may only be omitted with population and row")
            node_id = population.id_of(int(row))
        self.id = node_id
        self.sim = sim
        self.network = network
        self.predicate = predicate
        self.config = config
        self.availability = availability_view
        self.coarse_view = coarse_view
        self.rng = rng if rng is not None else fallback_rng()
        self.population = population
        if population is not None and row is None:
            row = population.row_of(node_id)
        self.row = int(row) if row is not None else None
        self.lists = MembershipTable(node_id, population=population)
        self.verifier = InboundVerifier(
            node_id, predicate, availability_view, cushion=config.cushion
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
        if self.row is not None:
            return bool(self.network.online_rows(self.row))
        return self.network.is_online(self.id)

    # ------------------------------------------------------------------
    # Descriptors
    # ------------------------------------------------------------------
    def self_descriptor(self, fresh: bool = False) -> NodeDescriptor:
        """This node's (id, availability) pair, from its own cache.

        ``fresh`` forces a fetch from the monitoring service.
        """
        if fresh:
            value = self.availability.fetch(self.id)
        else:
            value = self.availability.get_or_fetch(self.id)
        return NodeDescriptor(self.id, value)

    # ------------------------------------------------------------------
    # Discovery sub-protocol
    # ------------------------------------------------------------------
    def discovery_step(self) -> int:
        """One discovery round.  Returns the number of neighbors added.

        The round is one batched pass in view order, the shape
        :meth:`refresh_step` has: the coarse view → mask out this node,
        entries already in the lists and (with
        ``config.discovery_liveness``) entries whose handshake fails →
        one bulk cache fetch for what is left → one vectorized predicate
        evaluation → one bulk insert of the matches.  A
        population-backed node addresses the candidates by row
        throughout; a population-less one runs the same pass addressed
        by id.
        """
        if not self.online:
            return 0
        self.discovery_rounds += 1
        me = self.self_descriptor(fresh=True)
        population = self.population
        if population is not None:
            candidates = self.coarse_view.view_rows(self.row)
            digests = population.digests[candidates]
            probe, fetch = self.network.online_rows, self.availability.fetch_rows
        else:
            view = self.coarse_view.view(self.id)
            candidates = np.empty(len(view), dtype=object)
            candidates[:] = view
            digests = digest_array(view)
            probe, fetch = self.network.online_array, self.availability.fetch_array
        unknown = ~self.lists.contains_digests(digests)
        unknown &= digests != np.uint64(self.id.digest64)
        if self.config.discovery_liveness:
            # a candidate whose handshake fails is skipped unfetched
            unknown[unknown] = probe(candidates[unknown])
        candidates, digests = candidates[unknown], digests[unknown]
        added = 0
        if candidates.size:
            availabilities = fetch(candidates)
            ids = candidates if population is None else population.ids_of(candidates)
            member, horizontal = self.predicate.evaluate_many(
                me, ids, availabilities, digests=digests
            )
            matches = candidates[member], availabilities[member], horizontal[member]
            if population is None:
                added = self.install_members(*matches, digests=digests[member])
            else:
                added = self.install_member_rows(*matches)
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.count("node.discovery.rounds")
            telemetry.count("node.discovery.candidates", int(candidates.size))
            telemetry.count("node.discovery.added", added)
        return added

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

        The whole round is one batched pass: a columnar snapshot of the
        lists (:meth:`~repro.core.membership.MembershipTable.neighbor_arrays`),
        one bulk cache fetch for the live neighbors, one vectorized
        predicate evaluation, and one masked
        :meth:`~repro.core.membership.MembershipTable.refresh_round`
        update — semantically identical to the scalar per-entry loop it
        replaces (offline neighbors are evicted without an availability
        fetch, exactly as the scalar probe short-circuited).
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
        view = self.lists.neighbor_arrays()
        total = view.slots.size
        if total == 0:
            return 0
        neighbors = view.nodes.tolist()
        if self.config.refresh_liveness:
            probed = np.fromiter(
                (self.network.is_online(node) for node in neighbors),
                dtype=bool,
                count=total,
            )
        else:
            probed = np.ones(total, dtype=bool)
        availabilities = np.zeros(total, dtype=float)
        keep = np.zeros(total, dtype=bool)
        horizontal = np.zeros(total, dtype=bool)
        live = np.flatnonzero(probed)
        if live.size:
            live_nodes = [neighbors[i] for i in live]
            availabilities[live] = self.availability.fetch_array(live_nodes)
            keep[live], horizontal[live] = self.predicate.evaluate_many(
                me, live_nodes, availabilities[live], digests=view.digests[live]
            )
        return self.lists.refresh_round(
            view.slots, availabilities, horizontal, keep, now=self.sim.now
        )

    # ------------------------------------------------------------------
    # Direct bootstrap (consistent-predicate shortcut)
    # ------------------------------------------------------------------
    def bootstrap_from(self, candidates: Sequence[NodeDescriptor]) -> int:
        """Fill the lists by evaluating the predicate against a candidate
        set directly.

        Because the predicate is *consistent*, the overlay it spans is a
        pure function of (ids, availabilities); this shortcut produces
        exactly the graph the discovery protocol converges to, and is
        used by ``bootstrap="direct"`` simulations to skip warm-up
        (docs/architecture.md §"Bootstrap modes").  Returns the number of
        neighbors installed.
        """
        me = self.self_descriptor(fresh=True)
        ids = np.empty(len(candidates), dtype=object)
        ids[:] = [c.node for c in candidates]
        avs = np.array([c.availability for c in candidates], dtype=float)
        member, horizontal = self.predicate.evaluate_many(me, ids, avs)
        selected = np.flatnonzero(member)
        return self.install_members(
            ids[selected], avs[selected], horizontal[selected]
        )

    def install_members(
        self,
        ids: Sequence[NodeId],
        availabilities: np.ndarray,
        horizontal_flags: np.ndarray,
        digests: Optional[np.ndarray] = None,
    ) -> int:
        """Bulk-install already-evaluated predicate matches.

        The sequences are parallel: one neighbor per entry, with
        ``horizontal_flags`` giving the sliver classification and
        ``digests`` optionally carrying precomputed endpoint digests
        (sliced from a population-wide array).  This is the shared sink
        for :meth:`bootstrap_from` and for the batched whole-population
        bootstrap the simulation feeds from
        :class:`~repro.overlays.graphs.OverlayGraph` CSR rows — the
        predicate work is already done, and the install itself is one
        columnar :meth:`~repro.core.membership.MembershipTable.upsert_many`
        pass.  Returns the number of neighbors installed.
        """
        return self.lists.upsert_many(
            ids, availabilities, horizontal_flags, now=self.sim.now, digests=digests
        )

    def install_member_rows(
        self,
        rows: np.ndarray,
        availabilities: np.ndarray,
        horizontal_flags: np.ndarray,
    ) -> int:
        """Row-space :meth:`install_members` for population-backed nodes.

        Same contract, but neighbors are addressed by population row, so
        a whole-population bootstrap installs CSR slices without ever
        materializing :class:`NodeId` objects.
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
