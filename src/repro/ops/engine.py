"""The management-operation engine: executes {threshold, range} ×
{anycast, multicast} over an AVMEM node population (Section 3.2).

One engine instance serves all nodes of a simulation.  It registers
handlers for the operation message types on every node, tracks one
record per operation, and implements:

* anycast forwarding under any :class:`~repro.ops.anycast.ForwardingPolicy`
  (greedy / retried-greedy / annealing × HS-only / VS-only / HS+VS);
* the ack/timeout retry machinery of retried-greedy forwarding;
* two-stage multicast — anycast into the range, then flooding or gossip
  dissemination within it.

Ground truth (who was *really* in range and online) comes from truth
callables addressed by population row, so spam and reliability metrics
are measured against reality, while all protocol decisions use the
nodes' cached beliefs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import AvmemConfig
from repro.core.ids import NodeId
from repro.core.membership import SliverSelector
from repro.core.node import AvmemNode
from repro.ops.anycast import ForwardingPolicy, make_policy
from repro.ops.messages import AnycastAck, AnycastMessage, MulticastMessage
from repro.ops.results import AnycastRecord, AnycastStatus, MulticastRecord
from repro.ops.spec import TargetSpec
from repro.sim.engine import ScheduledEvent, Simulator
from repro.sim.network import Envelope, Network
from repro.util.randomness import fallback_rng

__all__ = ["OperationEngine"]

TruthFn = Callable[[int], float]
TruthEligibleFn = Callable[[TargetSpec], Set[NodeId]]


@dataclass
class _PendingAttempt:
    """Retried-greedy state held at the forwarding node."""

    record: AnycastRecord
    holder: NodeId
    base_message: AnycastMessage  # the message as held (pre-hop)
    candidates: List[NodeId]
    next_index: int
    retry_remaining: int
    timeout: Optional[ScheduledEvent] = None


@dataclass
class _GossipState:
    """Per (op, node) gossip progress.

    ``resume_after`` is the last neighbor this node sent to: the next
    round resumes iteration right after it.  Tracking the position by
    node identity (not by list index) keeps resumption meaningful when
    refresh rounds mutate the membership lists between gossip rounds —
    the candidate list is recomputed every round, so an index would point
    at an arbitrary neighbor and could permanently skip some.
    """

    rounds_left: int
    sent_to: Set[NodeId] = field(default_factory=set)
    resume_after: Optional[NodeId] = None


class OperationEngine:
    """Runs management operations over a node population."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: Dict[NodeId, AvmemNode],
        config: AvmemConfig,
        rng: Optional[np.random.Generator] = None,
        verify_inbound: bool = False,
        *,
        truth_by_row: TruthFn,
        truth_eligible: TruthEligibleFn,
    ):
        self.sim = sim
        self.network = network
        self.nodes = nodes
        self.config = config
        #: a node's true availability right now, by population row
        #: (the simulation reads its churn timeline at ``sim.now``)
        self.truth_by_row = truth_by_row
        #: the eligibility snapshot — "which online nodes are truly in
        #: this target right now", answered in one row-space pass (the
        #: simulation answers straight from its churn timeline)
        self.truth_eligible = truth_eligible
        self.rng = rng if rng is not None else fallback_rng()
        self.verify_inbound = verify_inbound
        self.anycasts: Dict[int, AnycastRecord] = {}
        self.multicasts: Dict[int, MulticastRecord] = {}
        self.rejected_inbound = 0
        self._policies: Dict[int, ForwardingPolicy] = {}
        self._next_op = 0
        self._next_attempt = 0
        self._pending: Dict[int, _PendingAttempt] = {}  # attempt -> state
        self._mcast_seen: Dict[int, Set[int]] = {}  # op -> rows that processed
        self._gossip: Dict[Tuple[int, NodeId], _GossipState] = {}
        for node in nodes.values():
            node.register_handler(AnycastMessage, self._handle_anycast)
            node.register_handler(AnycastAck, self._handle_ack)
            node.register_handler(MulticastMessage, self._handle_multicast)

    # ------------------------------------------------------------------
    # Public API — anycast
    # ------------------------------------------------------------------
    def anycast(
        self,
        initiator: NodeId,
        target: TargetSpec,
        policy: str = "greedy",
        selector: str = SliverSelector.BOTH,
        ttl: Optional[int] = None,
        retry: Optional[int] = None,
        _multicast_payload: bool = False,
    ) -> AnycastRecord:
        """Launch an anycast; returns its (live) record immediately.

        Run the simulator forward to let it complete, then inspect the
        record (its ``finalize()`` classifies a straggler as lost, as the
        plan runner does for every record at plan end).
        """
        SliverSelector.validate(selector)
        policy_obj = make_policy(policy)
        op_id = self._next_op
        self._next_op += 1
        record = AnycastRecord(
            op_id=op_id,
            initiator=initiator,
            target=target,
            policy=policy,
            selector=selector,
            started_at=self.sim.now,
        )
        self.anycasts[op_id] = record
        self._policies[op_id] = policy_obj
        node = self.nodes[initiator]
        if not node.online:
            record.status = AnycastStatus.INITIATOR_OFFLINE
            return record
        message = AnycastMessage(
            op_id=op_id,
            target=target,
            ttl=ttl if ttl is not None else self.config.anycast.ttl,
            retry=retry if retry is not None else self.config.anycast.retry,
            attempt=self._new_attempt(),
            origin=initiator,
            sender=initiator,
            path=(initiator,),
            multicast_payload=_multicast_payload,
        )
        self._process_anycast_at(node, message)
        return record

    # ------------------------------------------------------------------
    # Public API — multicast
    # ------------------------------------------------------------------
    def multicast(
        self,
        initiator: NodeId,
        target: TargetSpec,
        mode: str = "flood",
        selector: str = SliverSelector.BOTH,
        anycast_policy: str = "retry-greedy",
        ttl: Optional[int] = None,
        retry: Optional[int] = None,
    ) -> MulticastRecord:
        """Launch a two-stage multicast; returns its (live) record.

        Stage 1 anycasts into the range (sharing the anycast machinery,
        including the ``ttl``/``retry`` budgets); stage 2 floods or
        gossips within it.
        """
        if mode not in ("flood", "gossip"):
            raise ValueError(f"mode must be 'flood' or 'gossip', got {mode!r}")
        SliverSelector.validate(selector)
        anycast_record = self.anycast(
            initiator,
            target,
            policy=anycast_policy,
            selector=selector,
            ttl=ttl,
            retry=retry,
            _multicast_payload=True,
        )
        op_id = anycast_record.op_id
        record = MulticastRecord(
            op_id=op_id,
            initiator=initiator,
            target=target,
            mode=mode,
            selector=selector,
            started_at=anycast_record.started_at,
            anycast=anycast_record,
            eligible=self._eligible_nodes(target),
        )
        self.multicasts[op_id] = record
        self._mcast_seen.setdefault(op_id, set())
        # The anycast may already have delivered synchronously (initiator
        # in range): start stage 2 now in that case.
        if anycast_record.delivered and anycast_record.delivery_node is not None:
            self._start_stage2(record, anycast_record.delivery_node)
        return record

    def _eligible_nodes(self, target: TargetSpec) -> Set[NodeId]:
        """Online nodes whose *true* availability is in the target — the
        Fig 12/13 denominator, from the ``truth_eligible`` snapshot."""
        return set(self.truth_eligible(target))

    # ------------------------------------------------------------------
    # Anycast internals
    # ------------------------------------------------------------------
    def _new_attempt(self) -> int:
        self._next_attempt += 1
        return self._next_attempt

    def _handle_anycast(self, node: AvmemNode, envelope: Envelope) -> None:
        message: AnycastMessage = envelope.payload
        record = self.anycasts.get(message.op_id)
        if record is None:
            return
        record.data_messages += 1
        if self.verify_inbound and message.sender != node.id:
            if not node.verifier.accepts(message.sender):
                self.rejected_inbound += 1
                return  # no ack: the sender will treat this as a dead hop
        policy = self._policies[message.op_id]
        if policy.wants_ack and message.sender != node.id:
            node.send(message.sender, AnycastAck(message.op_id, message.attempt, node.id))
            record.ack_messages += 1
        self._process_anycast_at(node, message)

    def _process_anycast_at(self, node: AvmemNode, message: AnycastMessage) -> None:
        record = self.anycasts[message.op_id]
        believed = node.self_descriptor().availability
        if message.target.contains(believed):
            self._record_delivery(record, node, message)
            return
        if message.ttl <= 0:
            if record.status == AnycastStatus.PENDING:
                record.status = AnycastStatus.TTL_EXPIRED
            return
        policy = self._policies[message.op_id]
        candidates = self._order_candidates(node, message, record, policy)
        if not candidates:
            if record.status == AnycastStatus.PENDING:
                record.status = AnycastStatus.NO_NEIGHBOR
            return
        if policy.wants_ack:
            self._try_next_candidate(
                _PendingAttempt(
                    record=record,
                    holder=node.id,
                    base_message=message,
                    candidates=candidates,
                    next_index=0,
                    retry_remaining=message.retry,
                )
            )
        else:
            next_hop = candidates[0]
            self.network.send(
                node.id, next_hop, message.hop(node.id, next_hop, self._new_attempt())
            )

    def _order_candidates(
        self,
        node: AvmemNode,
        message: AnycastMessage,
        record: AnycastRecord,
        policy: ForwardingPolicy,
    ) -> List[NodeId]:
        """Candidate ordering over the columnar membership snapshot.

        Selector masking over the :class:`~repro.core.membership.NeighborView`
        preserves the listing order ``entries(selector)`` yields, and the
        path exclusion compares precomputed ``digest64`` values instead
        of building a NodeId set.
        """
        view = node.lists.neighbor_arrays()
        nodes = view.nodes
        avail = view.availabilities
        digests = view.digests
        if record.selector == SliverSelector.HS_ONLY:
            sel = view.horizontal
            nodes, avail, digests = nodes[sel], avail[sel], digests[sel]
        elif record.selector == SliverSelector.VS_ONLY:
            sel = ~view.horizontal
            nodes, avail, digests = nodes[sel], avail[sel], digests[sel]
        exclude = [hop.digest64 for hop in message.path]
        return policy.order_candidates(
            nodes, avail, message.target, message.ttl, self.rng, exclude, digests
        )

    def _record_delivery(
        self, record: AnycastRecord, node: AvmemNode, message: AnycastMessage
    ) -> None:
        # Retried greedy can have several copies of one operation in
        # flight (ack lost or slower than the ack timeout): a stale copy
        # that dies first may have classified the record TTL_EXPIRED /
        # NO_NEIGHBOR / RETRY_EXPIRED while this duplicate was still
        # traveling.  A message reaching the target is a genuine delivery
        # regardless, so it overrides those premature classifications;
        # only an earlier DELIVERED (the first delivery wins) and the
        # nothing-in-flight statuses (LOST, INITIATOR_OFFLINE) stand.
        if record.status in AnycastStatus.DELIVERY_OVERRIDABLE:
            record.status = AnycastStatus.DELIVERED
            record.delivered_at = self.sim.now
            record.delivery_node = node.id
            record.delivery_node_true_availability = self.truth_by_row(node.row)
            record.hops = message.hops_taken
        if message.multicast_payload:
            mcast = self.multicasts.get(message.op_id)
            if mcast is not None:
                self._start_stage2(mcast, node.id)

    # -- retried-greedy machinery --------------------------------------
    def _try_next_candidate(self, state: _PendingAttempt) -> None:
        record = state.record
        if record.status != AnycastStatus.PENDING:
            return  # already resolved elsewhere
        if state.next_index >= len(state.candidates):
            record.status = AnycastStatus.NO_NEIGHBOR
            return
        candidate = state.candidates[state.next_index]
        state.next_index += 1
        attempt = self._new_attempt()
        forwarded = state.base_message.hop(
            state.holder, candidate, attempt, retry=state.retry_remaining
        )
        if not self.network.send(state.holder, candidate, forwarded):
            # The holder is offline at send time: nothing hit the wire,
            # so arming an ack timeout would later charge a retry for a
            # transmission that never happened.  The message dies here —
            # the same outcome _on_ack_timeout applies to a holder that
            # went offline while waiting.
            return
        self._pending[attempt] = state
        state.timeout = self.sim.schedule(
            self.config.anycast.ack_timeout, self._on_ack_timeout, attempt
        )

    def _handle_ack(self, node: AvmemNode, envelope: Envelope) -> None:
        ack: AnycastAck = envelope.payload
        state = self._pending.pop(ack.attempt, None)
        if state is not None and state.timeout is not None:
            state.timeout.cancel()

    def _on_ack_timeout(self, attempt: int) -> None:
        state = self._pending.pop(attempt, None)
        if state is None:
            return  # acked in the meantime
        record = state.record
        if record.status != AnycastStatus.PENDING:
            return
        if not self.network.is_online(state.holder):
            return  # the retrying node itself went offline: message dies
        # "Each forwarded message carries the value of retry" (§3.2): the
        # budget counts *retries*, so retry=R allows R re-transmissions
        # after the initial attempt — R+1 transmissions total.  A timeout
        # that performs no transmission (budget expired, or no candidate
        # left to retry with) must not count as a retry.
        if state.retry_remaining <= 0:
            record.status = AnycastStatus.RETRY_EXPIRED
            return
        if state.next_index >= len(state.candidates):
            record.status = AnycastStatus.NO_NEIGHBOR
            return
        state.retry_remaining -= 1
        record.retries_used += 1
        self._try_next_candidate(state)

    # ------------------------------------------------------------------
    # Multicast stage 2
    # ------------------------------------------------------------------
    def _start_stage2(self, record: MulticastRecord, root: NodeId) -> None:
        seen = self._mcast_seen.setdefault(record.op_id, set())
        if self.nodes[root].row in seen:
            return
        message = MulticastMessage(
            op_id=record.op_id,
            target=record.target,
            root=root,
            sender=root,
            mode=record.mode,
        )
        self._accept_multicast(self.nodes[root], message)

    def _handle_multicast(self, node: AvmemNode, envelope: Envelope) -> None:
        message: MulticastMessage = envelope.payload
        record = self.multicasts.get(message.op_id)
        if record is None:
            return
        if self.verify_inbound and message.sender != node.id:
            if not node.verifier.accepts(message.sender):
                self.rejected_inbound += 1
                return
        self._accept_multicast(node, message)

    def _accept_multicast(self, node: AvmemNode, message: MulticastMessage) -> None:
        record = self.multicasts[message.op_id]
        seen = self._mcast_seen[message.op_id]
        row = node.row
        if row in seen:
            record.duplicate_receptions += 1
            return
        seen.add(row)
        true_av = self.truth_by_row(row)
        if record.target.contains(true_av):
            record.deliveries[node.id] = self.sim.now
        else:
            record.spam.append((node.id, self.sim.now))
        if record.mode == "flood":
            self._flood_from(node, record, message)
        else:
            self._begin_gossip(node, record, message)

    def _in_range_neighbors(
        self, node: AvmemNode, record: MulticastRecord
    ) -> List[NodeId]:
        """Neighbors whose *cached* availability lies in the target —
        stale caches here are exactly what produces spam (Fig 12).

        One mask over the columnar membership snapshot's availability
        column, in ``NeighborView`` listing order (the ``entries()``
        order).
        """
        view = node.lists.neighbor_arrays()
        mask = record.target.contains_array(view.availabilities)
        if record.selector == SliverSelector.HS_ONLY:
            mask &= view.horizontal
        elif record.selector == SliverSelector.VS_ONLY:
            mask &= ~view.horizontal
        return view.nodes[mask].tolist()

    def _flood_from(
        self, node: AvmemNode, record: MulticastRecord, message: MulticastMessage
    ) -> None:
        forwarded = message.forwarded(node.id)
        # Compared by digest64, as evaluate_many's self-exclusion is:
        # NodeId's dataclass __eq__ builds two tuples per comparison.
        sender = message.sender.digest64
        targets = [
            neighbor
            for neighbor in self._in_range_neighbors(node, record)
            if neighbor.digest64 != sender
        ]
        if targets:
            self._dispatch_mcast_cohort(node.id, targets, forwarded, record)

    def _dispatch_mcast_cohort(
        self,
        src: NodeId,
        targets: List[NodeId],
        payload: MulticastMessage,
        record: MulticastRecord,
    ) -> None:
        """One dispatch for a fan-out cohort; the message tally counts
        transmission attempts.  Every message travels: a destination
        that already processed the operation counts the duplicate when
        it receives it (:meth:`_accept_multicast`)."""
        self.network.send_batch(src, targets, payload)
        record.data_messages += len(targets)

    # -- gossip ---------------------------------------------------------
    def _begin_gossip(
        self, node: AvmemNode, record: MulticastRecord, message: MulticastMessage
    ) -> None:
        key = (record.op_id, node.id)
        if key in self._gossip:
            return
        state = _GossipState(rounds_left=self.config.gossip.rounds)
        self._gossip[key] = state
        # First gossip round fires one period after reception.
        self.sim.schedule(
            self.config.gossip.period, self._gossip_round, record.op_id, node.id
        )

    def _gossip_round(self, op_id: int, node_id: NodeId) -> None:
        key = (op_id, node_id)
        state = self._gossip.get(key)
        record = self.multicasts.get(op_id)
        if state is None or record is None or state.rounds_left <= 0:
            return
        node = self.nodes[node_id]
        if node.online:
            message = MulticastMessage(
                op_id=op_id,
                target=record.target,
                root=record.anycast.delivery_node or node_id,
                sender=node_id,
                mode="gossip",
            )
            # Deterministic iteration through the candidate list (paper's
            # choice), resuming right after the last neighbor sent to.
            # The list is recomputed each round, so the position is
            # re-anchored by neighbor identity; if that neighbor was
            # evicted in the meantime, iteration restarts from the front
            # (the sent-set suppresses duplicates).  The selection
            # consumes no randomness, so the cohort's latency draws land
            # in the same stream order as a per-send loop's.
            targets = self._gossip_targets(node, record, state)
            if targets:
                self._dispatch_mcast_cohort(node_id, targets, message, record)
        state.rounds_left -= 1
        if state.rounds_left > 0:
            self.sim.schedule(
                self.config.gossip.period, self._gossip_round, op_id, node_id
            )

    def _gossip_targets(
        self, node: AvmemNode, record: MulticastRecord, state: _GossipState
    ) -> List[NodeId]:
        """One round's picks: the resume-cursor walk over the in-range
        neighbors, stopping at ``fanout`` new targets."""
        candidates = self._in_range_neighbors(node, record)
        index = 0
        if state.resume_after is not None:
            try:
                index = candidates.index(state.resume_after) + 1
            except ValueError:
                index = 0  # evicted since last round: restart from the front
        scanned = 0
        targets: List[NodeId] = []
        while len(targets) < self.config.gossip.fanout and scanned < len(candidates):
            target_node = candidates[index % len(candidates)]
            index += 1
            scanned += 1
            if target_node in state.sent_to or target_node == node.id:
                continue
            state.sent_to.add(target_node)
            state.resume_after = target_node
            targets.append(target_node)
        return targets
