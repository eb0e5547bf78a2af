"""Integration tests for the operation engine over a controlled system.

Presence is scripted (no stochastic churn) so delivery outcomes are
deterministic up to seeded tie-breaking.
"""

import numpy as np
import pytest

from repro.churn.trace import ChurnTrace
from repro.core.availability import AvailabilityPdf
from repro.core.config import AnycastConfig, AvmemConfig
from repro.core.ids import make_node_ids
from repro.core.predicates import random_overlay_predicate
from repro.monitor.coarse_view import GlobalSampleView
from repro.monitor.oracle import OracleAvailability
from repro.ops.results import AnycastStatus
from repro.ops.spec import TargetSpec
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network

from conftest import bootstrap_all, row_engine, row_nodes


def build_system(availabilities, offline=(), rng=None, config=None, windows=None,
                 latency=None):
    """A deterministic system: node i has the given fixed availability;
    nodes in ``offline`` are never online.  ``windows`` optionally gives
    node i an explicit online-interval list (overriding ``offline``);
    ``latency`` overrides the default 50 ms constant latency."""
    rng = rng if rng is not None else np.random.default_rng(7)
    ids = make_node_ids(len(availabilities))
    horizon = 1e6
    sessions = {}
    for i, node in enumerate(ids):
        if windows is not None and i in windows:
            sessions[node] = windows[i]
        elif i in offline:
            sessions[node] = []
        else:
            # Continuously online; availability conveyed via the PDF and
            # per-node descriptor, with presence decoupled for control.
            sessions[node] = [(0.0, horizon)]
    trace = ChurnTrace.from_intervals(sessions, horizon=horizon)
    sim = Simulator()
    latency = latency if latency is not None else ConstantLatency(0.05)
    network = Network(sim, latency=latency, presence=trace, rng=rng)
    pdf = AvailabilityPdf.from_samples(availabilities, online_weighted=False)
    # A complete overlay (f = 1 everywhere): these tests exercise engine
    # mechanics, and full neighbor knowledge makes outcomes deterministic.
    predicate = random_overlay_predicate(pdf, probability=1.0)
    config = config if config is not None else AvmemConfig()
    coarse = GlobalSampleView(sim, ids, len(ids) - 1, rng=rng, presence=trace,
                              stale_fraction=0.0)
    population, service, nodes = row_nodes(
        sim, network, predicate, config, coarse, ids, availabilities, rng=rng
    )
    engine = row_engine(sim, network, nodes, config, population, service, rng=rng)
    # Bootstrap everyone against the full population.
    bootstrap_all(nodes, service)
    return sim, network, nodes, engine, ids


class TestAnycastDelivery:
    def test_initiator_in_range_succeeds_immediately(self, rng):
        sim, _, nodes, engine, ids = build_system([0.9, 0.5, 0.3], rng=rng)
        record = engine.anycast(ids[0], TargetSpec.range(0.85, 0.95))
        assert record.delivered
        assert record.hops == 0
        assert record.delivery_node == ids[0]

    def test_one_hop_delivery(self, rng):
        avs = [0.5] + [0.9] * 10 + [0.3] * 10
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        record = engine.anycast(ids[0], TargetSpec.range(0.85, 0.95))
        sim.run_until(sim.now + 10.0)
        record.finalize()
        assert record.delivered
        assert record.hops == 1

    def test_threshold_anycast(self, rng):
        avs = [0.5] + [0.95] * 5 + [0.2] * 10
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        record = engine.anycast(ids[0], TargetSpec.threshold(0.9))
        sim.run_until(sim.now + 10.0)
        record.finalize()
        assert record.delivered

    def test_offline_initiator(self, rng):
        sim, _, nodes, engine, ids = build_system([0.5, 0.9], offline={0}, rng=rng)
        record = engine.anycast(ids[0], TargetSpec.range(0.85, 0.95))
        assert record.status == AnycastStatus.INITIATOR_OFFLINE

    def test_no_neighbor_failure(self, rng):
        """An isolated selector (empty HS) cannot forward."""
        avs = [0.5] + [0.9] * 10  # nobody within ±0.1 of the initiator
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        nodes[ids[0]].lists.clear()
        record = engine.anycast(ids[0], TargetSpec.range(0.85, 0.95), selector="hs")
        sim.run_until(sim.now + 10.0)
        record.finalize()
        assert record.status == AnycastStatus.NO_NEIGHBOR

    def test_ttl_expiry(self, rng):
        """TTL 1 with no in-range believed node within one hop."""
        avs = [0.5] * 12  # nobody anywhere near the target
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        record = engine.anycast(ids[0], TargetSpec.range(0.85, 0.95), ttl=1)
        sim.run_until(sim.now + 10.0)
        record.finalize()
        assert record.status == AnycastStatus.TTL_EXPIRED

    def test_greedy_lost_on_offline_next_hop(self, rng):
        """Greedy silently loses the message if the only in-range node is
        offline; retried greedy recovers via another candidate."""
        avs = [0.5, 0.9, 0.9, 0.3, 0.35, 0.45, 0.55]
        # ids[1] offline (the two 0.9 nodes are the only in-range options).
        sim, _, nodes, engine, ids = build_system(avs, offline={1}, rng=rng)
        outcomes = set()
        for _ in range(12):
            record = engine.anycast(ids[0], TargetSpec.range(0.85, 0.95), policy="greedy")
            sim.run_until(sim.now + 5.0)
            record.finalize()
            outcomes.add(record.status)
        assert AnycastStatus.LOST in outcomes  # sometimes picked the dead node

    def test_retried_greedy_masks_offline_candidates(self, rng):
        avs = [0.5, 0.9, 0.9, 0.9, 0.3]
        sim, _, nodes, engine, ids = build_system(avs, offline={1, 2}, rng=rng)
        delivered = 0
        for _ in range(10):
            record = engine.anycast(
                ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy", retry=5
            )
            sim.run_until(sim.now + 10.0)
            record.finalize()
            delivered += record.delivered
        assert delivered == 10  # ids[3] always reachable after retries

    def test_retry_budget_exhausts(self, rng):
        avs = [0.5, 0.9, 0.9, 0.9, 0.9]
        sim, _, nodes, engine, ids = build_system(avs, offline={1, 2, 3, 4}, rng=rng)
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy", retry=2
        )
        sim.run_until(sim.now + 20.0)
        record.finalize()
        assert record.status == AnycastStatus.RETRY_EXPIRED
        assert record.retries_used == 2

    def test_acks_counted(self, rng):
        avs = [0.5] + [0.9] * 6
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy"
        )
        sim.run_until(sim.now + 10.0)
        assert record.ack_messages >= 1

    def test_anycast_avoids_path_loops(self, rng):
        avs = [0.5, 0.55, 0.52, 0.9]
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        record = engine.anycast(ids[0], TargetSpec.range(0.85, 0.95), ttl=10)
        sim.run_until(sim.now + 10.0)
        record.finalize()
        assert record.delivered


class TestMulticast:
    def test_flood_reaches_all_in_range(self, rng):
        avs = [0.5] + [0.9] * 8 + [0.2] * 6
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        record = engine.multicast(ids[0], TargetSpec.range(0.85, 0.95), mode="flood")
        sim.run_until(sim.now + 20.0)
        assert record.reliability() == pytest.approx(1.0)
        assert record.spam_ratio() == 0.0

    def test_flood_no_duplicate_deliveries(self, rng):
        avs = [0.5] + [0.9] * 8
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        record = engine.multicast(ids[0], TargetSpec.range(0.85, 0.95), mode="flood")
        sim.run_until(sim.now + 20.0)
        # Every in-range node delivered exactly once, duplicates suppressed.
        assert len(record.deliveries) == 8
        assert record.duplicate_receptions > 0  # flooding does duplicate sends

    def test_gossip_reaches_most_in_range(self, rng):
        avs = [0.5] + [0.9] * 12
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        record = engine.multicast(ids[0], TargetSpec.range(0.85, 0.95), mode="gossip")
        sim.run_until(sim.now + 30.0)
        assert record.reliability() >= 0.75

    def test_gossip_latency_exceeds_flood(self, rng):
        avs = [0.5] + [0.9] * 12
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        flood = engine.multicast(ids[0], TargetSpec.range(0.85, 0.95), mode="flood")
        sim.run_until(sim.now + 30.0)
        gossip = engine.multicast(ids[0], TargetSpec.range(0.85, 0.95), mode="gossip")
        sim.run_until(sim.now + 30.0)
        assert gossip.worst_latency() > flood.worst_latency()

    def test_initiator_in_range_roots_stage2(self, rng):
        avs = [0.9] + [0.9] * 5 + [0.2] * 4
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        record = engine.multicast(ids[0], TargetSpec.range(0.85, 0.95), mode="flood")
        sim.run_until(sim.now + 20.0)
        assert ids[0] in record.deliveries
        assert record.reliability() == pytest.approx(1.0)

    def test_eligible_snapshot_excludes_offline(self, rng):
        avs = [0.5, 0.9, 0.9, 0.9]
        sim, _, nodes, engine, ids = build_system(avs, offline={3}, rng=rng)
        record = engine.multicast(ids[0], TargetSpec.range(0.85, 0.95))
        assert ids[3] not in record.eligible
        assert record.eligible == {ids[1], ids[2]}

    def test_invalid_mode_rejected(self, rng):
        sim, _, nodes, engine, ids = build_system([0.5, 0.9], rng=rng)
        with pytest.raises(ValueError):
            engine.multicast(ids[0], TargetSpec.range(0.85, 0.95), mode="broadcast")

    def test_spam_from_stale_caches(self, rng):
        """A neighbor cached as in-range whose availability dropped
        produces spam when flooded to."""
        avs = [0.5, 0.9, 0.9, 0.88]
        sim, _, nodes, engine, ids = build_system(avs, rng=rng)
        # Manually corrupt truth: pretend ids[3] availability fell to 0.5,
        # while every node's *cached* entry still says 0.88.
        corrupted = nodes[ids[3]].row
        service = nodes[ids[0]].availability._service
        engine.truth_by_row = lambda row: 0.5 if row == corrupted else service.query(row)
        record = engine.multicast(ids[0], TargetSpec.range(0.85, 0.95), mode="flood")
        sim.run_until(sim.now + 20.0)
        assert any(node == ids[3] for node, _ in record.spam)


class TestVerificationIntegration:
    def test_verify_inbound_rejects_non_neighbors(self, rng):
        """With verification on, a forged sender gets dropped."""
        avs = [0.5] + [0.9] * 6
        sim, network, nodes, engine, ids = build_system(avs, rng=rng)
        engine.verify_inbound = True
        # Messages between genuine neighbors still flow: run an anycast.
        record = engine.anycast(ids[0], TargetSpec.range(0.85, 0.95))
        sim.run_until(sim.now + 10.0)
        record.finalize()
        # With static availabilities and fresh caches nothing is rejected.
        assert engine.rejected_inbound == 0
        assert record.delivered


class TestFinalize:
    def test_finalize_sweeps_all_pending(self, rng):
        """The plan runner's per-record finalization leaves no anycast
        pending."""
        avs = [0.5, 0.9, 0.9]
        sim, _, nodes, engine, ids = build_system(avs, offline={1, 2}, rng=rng)
        records = [
            engine.anycast(ids[0], TargetSpec.range(0.85, 0.95)) for _ in range(5)
        ]
        sim.run_until(sim.now + 10.0)
        for record in records:
            record.finalize()
        assert all(r.status != AnycastStatus.PENDING for r in records)


class TestRetryAccounting:
    """Regression tests pinning the §3.2 retry semantics: ``retry=R``
    budgets R *retries* after the initial transmission — R+1 transmission
    attempts total before RETRY_EXPIRED — and ``retries_used`` counts
    only retries actually performed (the expiring timeout is not one)."""

    @pytest.mark.parametrize("retry", [1, 2, 3])
    def test_exact_transmission_attempts(self, retry, rng):
        avs = [0.5] + [0.9] * 5
        sim, network, nodes, engine, ids = build_system(
            avs, offline={1, 2, 3, 4, 5}, rng=rng
        )
        sent_before = network.stats.sent
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy", retry=retry
        )
        sim.run_until(sim.now + 60.0)
        record.finalize()
        assert record.status == AnycastStatus.RETRY_EXPIRED
        # Initial transmission + exactly `retry` retries hit the wire.
        assert network.stats.sent - sent_before == retry + 1
        assert record.retries_used == retry

    def test_expiring_timeout_counts_no_retry(self, rng):
        """retry=1: one retry happens, the second timeout only expires."""
        avs = [0.5, 0.9, 0.9]
        sim, network, nodes, engine, ids = build_system(avs, offline={1, 2}, rng=rng)
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy", retry=1
        )
        sim.run_until(sim.now + 60.0)
        record.finalize()
        assert record.status == AnycastStatus.RETRY_EXPIRED
        assert record.retries_used == 1

    def test_candidate_exhaustion_counts_no_retry(self, rng):
        """With budget left but no candidate to retry with, the timeout
        transmits nothing — it must report NO_NEIGHBOR without counting
        a phantom retry."""
        avs = [0.5, 0.9, 0.9]
        sim, network, nodes, engine, ids = build_system(avs, offline={1, 2}, rng=rng)
        sent_before = network.stats.sent
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy", retry=5
        )
        sim.run_until(sim.now + 60.0)
        record.finalize()
        assert record.status == AnycastStatus.NO_NEIGHBOR
        # Both candidates were tried: initial transmission + one retry.
        assert network.stats.sent - sent_before == 2
        assert record.retries_used == 1


class TestDeliveryStatusRace:
    """Regression tests for the retried-greedy status race: a stale
    in-flight copy that dies first must not suppress a genuine delivery
    by a duplicate that is still traveling (ack lost or slower than the
    ack timeout → the holder re-sends while the original lives on)."""

    def test_delivery_overrides_no_neighbor(self, rng):
        """One candidate, latency (1 s) above the ack timeout (0.5 s):
        the timeout exhausts the candidate list (NO_NEIGHBOR) while the
        original copy is still in flight and then delivers."""
        avs = [0.5, 0.9]
        sim, network, nodes, engine, ids = build_system(
            avs, rng=rng, latency=ConstantLatency(1.0)
        )
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy"
        )
        sim.run_until(0.75)  # past the ack timeout, before the delivery
        assert record.status == AnycastStatus.NO_NEIGHBOR  # the premature verdict
        sim.run_until(5.0)
        assert record.status == AnycastStatus.DELIVERED
        assert record.delivery_node == ids[1]
        assert record.delivered_at == pytest.approx(1.0)
        assert record.hops == 1
        assert record.retries_used == 0  # the expiring timeout transmitted nothing

    def test_delivery_overrides_no_neighbor_with_lost_ack(self, rng):
        """The literal lost-ack shape: the holder goes offline before the
        ack can arrive (the ack is genuinely dropped), yet the data copy
        it had already sent delivers."""
        avs = [0.5, 0.9]
        sim, network, nodes, engine, ids = build_system(
            avs, rng=rng, latency=ConstantLatency(1.0),
            windows={0: [(0.0, 1.5)]},  # holder dies at 1.5; ack would arrive at 2.0
        )
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy"
        )
        sim.run_until(5.0)
        from repro.sim.network import DropReason

        assert network.stats.dropped.get(DropReason.DST_OFFLINE, 0) >= 1  # the ack
        assert record.status == AnycastStatus.DELIVERED
        assert record.delivered_at == pytest.approx(1.0)

    def test_delivery_overrides_retry_expired(self, rng):
        """retry=1 with the fallback candidates offline: the second
        timeout spends the budget (RETRY_EXPIRED) at t=1.0, then the
        original slow copy delivers at t=1.2 and must win."""
        avs = [0.5, 0.9, 0.8, 0.7]
        sim, network, nodes, engine, ids = build_system(
            avs, offline={2, 3}, rng=rng, latency=ConstantLatency(1.2)
        )
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy", retry=1
        )
        sim.run_until(1.1)
        assert record.status == AnycastStatus.RETRY_EXPIRED
        sim.run_until(5.0)
        assert record.status == AnycastStatus.DELIVERED
        assert record.retries_used == 1

    def test_first_delivery_still_wins(self, rng):
        """Two live in-range candidates: the retry duplicate delivering
        second must not displace the first delivery."""
        avs = [0.5, 0.9, 0.9]
        sim, network, nodes, engine, ids = build_system(
            avs, rng=rng, latency=ConstantLatency(1.2)
        )
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy", retry=3
        )
        sim.run_until(5.0)
        assert record.status == AnycastStatus.DELIVERED
        # Original sent at t=0 arrives 1.2; the retry copy (sent at the
        # 0.5 s timeout) arrives 1.7 and is a duplicate.
        assert record.delivered_at == pytest.approx(1.2)


class TestPhantomRetryCharge:
    """Regression test: a send attempt from an offline holder puts no
    message on the wire, so it must not arm an ack timeout that later
    charges a retry for the transmission that never happened."""

    def test_failed_send_skips_timeout_and_charge(self, rng):
        from repro.ops.anycast import make_policy
        from repro.ops.engine import _PendingAttempt
        from repro.ops.messages import AnycastMessage
        from repro.ops.results import AnycastRecord

        avs = [0.5, 0.9]
        # The holder is offline during [5.0, 6.4) — the instant the
        # forwarding step runs — and back online before the would-be
        # ack timeout (6.5) fires.
        sim, network, nodes, engine, ids = build_system(
            avs, rng=rng, windows={0: [(0.0, 5.0), (6.4, 1e6)]}
        )
        sim.run_until(6.0)
        target = TargetSpec.range(0.85, 0.95)
        record = AnycastRecord(
            op_id=99, initiator=ids[0], target=target,
            policy="retry-greedy", selector="hs+vs", started_at=sim.now,
        )
        engine.anycasts[99] = record
        engine._policies[99] = make_policy("retry-greedy")
        message = AnycastMessage(
            op_id=99, target=target, ttl=4, retry=2,
            attempt=engine._new_attempt(), origin=ids[0], sender=ids[0],
            path=(ids[0],),
        )
        state = _PendingAttempt(
            record=record, holder=ids[0], base_message=message,
            candidates=[ids[1]], next_index=0, retry_remaining=2,
        )
        sent_before = network.stats.sent
        engine._try_next_candidate(state)
        assert network.stats.sent == sent_before  # nothing hit the wire
        sim.run_until(8.0)  # past the would-be timeout; holder back online
        assert record.retries_used == 0
        assert record.status == AnycastStatus.PENDING  # message died silently
        assert network.stats.sent == sent_before
        assert not any(s.record is record for s in engine._pending.values())


class TestGossipResumption:
    """Regression test for cursor resumption across membership churn:
    the per-(op, node) gossip position is anchored to the last neighbor
    sent to, so list mutations between rounds cannot make the iteration
    skip neighbors that were never served."""

    def test_resumes_after_last_sent_despite_churn(self, rng):
        from repro.core.config import GossipConfig

        config = AvmemConfig(gossip=GossipConfig(fanout=2, rounds=2, period=1.0))
        avs = [0.9] * 6
        sim, _, nodes, engine, ids = build_system(avs, rng=rng, config=config)
        root = ids[0]
        record = engine.multicast(root, TargetSpec.range(0.85, 0.95), mode="gossip")
        # Root's deterministic candidate order is ids[1..5].  Round 1
        # (t=1) sends to ids[1], ids[2].  Before round 2, a refresh-like
        # mutation evicts ids[1] from the root's lists.
        sim.schedule_at(1.5, lambda: nodes[root].lists.remove(ids[1]))
        sim.run_until(10.0)
        state = engine._gossip[(record.op_id, root)]
        # Round 2 must resume right after ids[2] — serving ids[3] and
        # ids[4].  An index-based cursor would resume at position 2 of
        # the shrunken list and skip ids[3] in favor of ids[4], ids[5].
        assert state.sent_to == {ids[1], ids[2], ids[3], ids[4]}

    def test_no_node_skipped_with_enough_rounds(self, rng):
        """With budget to cover everyone, churn must not starve anyone
        still in the lists."""
        from repro.core.config import GossipConfig

        config = AvmemConfig(gossip=GossipConfig(fanout=2, rounds=4, period=1.0))
        avs = [0.9] * 6
        sim, _, nodes, engine, ids = build_system(avs, rng=rng, config=config)
        root = ids[0]
        record = engine.multicast(root, TargetSpec.range(0.85, 0.95), mode="gossip")
        sim.schedule_at(1.5, lambda: nodes[root].lists.remove(ids[1]))
        sim.run_until(10.0)
        state = engine._gossip[(record.op_id, root)]
        # Everyone remaining in the lists (plus the already-served
        # ids[1]) has been sent to exactly once.
        assert state.sent_to == {ids[1], ids[2], ids[3], ids[4], ids[5]}
