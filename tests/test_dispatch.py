"""Tests for the message plane: one simulator event per on-wire message.

The load-bearing property is that ``Network.send_batch`` is **exactly a
loop of** ``Network.send`` — same rng stream consumption, same events,
delivery times and handler order, same accounting totals — at the
network level (scripted presence, hypothesis) and end to end (seeded
plans replayed with ``send_batch`` swapped for the loop kept here as the
reference).  What the records must *be* is held by
``tests/test_golden_logs.py``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.trace import ChurnTrace
from repro.core.ids import make_node_ids
from repro.ops.plan import OperationItem, OperationPlan
from repro.ops.results import AnycastStatus
from repro.ops.spec import TargetSpec
from repro.sim import engine as sim_engine
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency, LogNormalLatency, UniformLatency
from repro.sim.network import DropReason, Network
from repro.telemetry import TelemetryRecorder, use_recorder

from reference.anycast_order import order_candidates_entries
from test_ops_engine import build_system
from test_golden_logs import (
    POLICIES,
    TIMINGS,
    assert_same_records,
    build_sim,
    parity_plan,
    run_plan,
    wavefront_plan,
)


# ----------------------------------------------------------------------
# Latency models: vectorized draws == sequential scalar draws
# ----------------------------------------------------------------------
class TestSampleArray:
    MODELS = (
        ConstantLatency(0.05),
        UniformLatency(0.020, 0.080),
        LogNormalLatency(median=0.045, sigma=0.5),
    )

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_scalar_stream(self, model, seed, n):
        """n batched draws consume the rng exactly like n scalar draws."""
        batch = model.sample_array(np.random.default_rng(seed), n)
        scalar_rng = np.random.default_rng(seed)
        scalars = [model.sample(scalar_rng) for _ in range(n)]
        np.testing.assert_array_equal(batch, np.array(scalars))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_stream_position_after_batch(self, model):
        """After a batch draw, the stream continues where scalar draws
        would have left it — cohorts of different sizes interleave with
        singleton sends without perturbing later draws."""
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        model.sample_array(a, 5)
        for _ in range(5):
            model.sample(b)
        assert model.sample(a) == model.sample(b)

    def test_constant_consumes_no_randomness(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        ConstantLatency(0.1).sample_array(rng, 16)
        assert rng.bit_generator.state == state

    def test_positive_and_sized(self):
        rng = np.random.default_rng(0)
        for model in self.MODELS:
            draws = model.sample_array(rng, 32)
            assert draws.shape == (32,)
            assert (draws > 0).all()


# ----------------------------------------------------------------------
# send_batch semantics
# ----------------------------------------------------------------------
class ScriptedPresence:
    """Presence oracle driven by explicit (node -> [(start, end)]) windows."""

    def __init__(self, windows):
        self.windows = windows

    def is_online(self, node, time):
        return any(start <= time < end for start, end in self.windows.get(node, []))


def recording_network(sim, latency, presence=None, nodes=("a", "b", "c", "d")):
    net = Network(sim, latency=latency, presence=presence, rng=np.random.default_rng(42))
    inbox = []
    for node in nodes:
        net.attach(node, lambda env: inbox.append((env.dst, env.delivered_at)))
    return net, inbox


def send_batch_as_loop(network, src, dsts, payload):
    """The reference ``send_batch`` is held to: one ``send`` per
    destination, in order."""
    return sum(network.send(src, dst, payload) for dst in dsts)


class TestSendBatch:
    def test_distinct_latencies_deliver_at_own_instants(self, sim):
        net, inbox = recording_network(sim, UniformLatency(0.02, 0.08))
        net.send_batch("a", ["b", "c", "d"], "x")
        sim.run()
        assert len(inbox) == 3
        times = [t for _, t in inbox]
        assert times == sorted(times)  # events fire in arrival order
        assert len(set(times)) == 3

    def test_offline_sender_draws_nothing(self, sim):
        presence = ScriptedPresence({"b": [(0, 100)], "c": [(0, 100)]})
        net, inbox = recording_network(sim, UniformLatency(), presence=presence)
        state = net.rng.bit_generator.state
        assert net.send_batch("a", ["b", "c"], "x") == 0
        assert net.rng.bit_generator.state == state  # rng untouched
        assert net.stats.sent == 0
        assert net.stats.dropped[DropReason.SRC_OFFLINE] == 2
        sim.run()
        assert inbox == []

    def test_sub_threshold_offline_sender_draws_nothing(self, sim):
        """One sender check for the cohort, a repeated destination
        included: SRC_OFFLINE x n, no latency draw, no event."""
        presence = ScriptedPresence({"b": [(0, 100)], "c": [(0, 100)]})
        net, inbox = recording_network(sim, UniformLatency(), presence=presence)
        state = net.rng.bit_generator.state
        assert net.send_batch("a", ["b", "c", "b"], "x") == 0
        assert net.rng.bit_generator.state == state
        assert net.stats.sent == 0
        assert net.stats.dropped == {DropReason.SRC_OFFLINE: 3}
        assert sim.queue_depth == 0

    @pytest.mark.parametrize("model", [UniformLatency(0.02, 0.08), ConstantLatency(0.05)])
    def test_sub_threshold_cohort_is_one_send_per_destination(self, model):
        """A cohort enqueues exactly what a loop of sends would: one
        event per message at the same instants in the same order (equal
        instants included — constant latency), arrival-time presence
        checked at delivery, the latency stream left at the same
        position."""
        windows = {
            "a": [(0, 100)], "b": [(0, 100)],
            "c": [(0.0, 0.03)],  # offline by the time its message lands
            "d": [(0, 100)],
        }
        runs = []
        for cohort in (True, False):
            sim = Simulator()
            net, inbox = recording_network(sim, model, presence=ScriptedPresence(windows))
            net.detach("d")  # NO_HANDLER resolved at delivery on both
            for dsts in (["b", "c", "d"], ["c"], ["d", "b"]):
                if cohort:
                    assert net.send_batch("a", dsts, "payload") == len(dsts)
                else:
                    assert send_batch_as_loop(net, "a", dsts, "payload") == len(dsts)
            depth = sim.queue_depth
            sim.run()
            runs.append(
                (net.stats.snapshot(), inbox, depth, sim.events_processed,
                 net.rng.bit_generator.state)
            )
        assert runs[0] == runs[1]
        assert runs[0][2] == 6  # one event per message

    def test_destination_going_offline_mid_flight(self, sim):
        """Presence is evaluated at the arrival instant, not send time."""
        presence = ScriptedPresence({"a": [(0, 100)], "b": [(0.0, 0.02)]})
        net, inbox = recording_network(sim, ConstantLatency(0.05), presence=presence)
        net.send_batch("a", ["b"], "x")  # b online now, offline at 0.05
        sim.run()
        assert inbox == []
        assert net.stats.dropped[DropReason.DST_OFFLINE] == 1

    def test_detached_mid_flight_drops_at_delivery(self, sim):
        net, inbox = recording_network(sim, ConstantLatency(0.05))
        net.send_batch("a", ["b"], "x")
        net.detach("b")
        sim.run()
        assert inbox == []
        assert net.stats.dropped[DropReason.NO_HANDLER] == 1

    def test_empty_batch_is_noop(self, sim):
        net, _ = recording_network(sim, UniformLatency())
        assert net.send_batch("a", [], "x") == 0
        assert net.stats.sent == 0

    @pytest.mark.parametrize("largest", [1, 12])
    def test_cohort_vs_singleton_stats_parity(self, largest):
        """Identically-seeded networks produce the same accounting
        totals, delivery order and delivery times whether a run of
        cohorts (all singletons, or sizes cycling up to a dozen) goes
        through ``send_batch`` or message by message."""
        nodes = tuple(f"n{k}" for k in range(13))
        windows = {node: [(0, 100)] for node in nodes}
        windows["n2"] = [(0.0, 0.03)]  # will be offline at most arrivals
        runs = []
        for batched in (True, False):
            sim = Simulator()
            net, inbox = recording_network(
                sim, UniformLatency(0.02, 0.08),
                presence=ScriptedPresence(windows), nodes=nodes,
            )
            for k in range(20):
                dsts = list(nodes[1 : 2 + k % largest])
                if batched:
                    net.send_batch("n0", dsts, "payload")
                else:
                    send_batch_as_loop(net, "n0", dsts, "payload")
            net.send("n0", "n1", "single")  # singleton sends interleave fine
            sim.run()
            runs.append((net.stats.snapshot(), inbox))
        assert runs[0] == runs[1]


class TestMessageConservation:
    """Every on-wire message is exactly one ``_deliver`` event, and ends
    delivered or dropped at its arrival — the network half of the
    cross-layer audit (ROADMAP item 5a)."""

    NODES = tuple(f"n{k}" for k in range(8))

    @given(
        windows=st.lists(
            st.lists(
                st.tuples(st.floats(0.0, 0.4), st.floats(0.0, 0.4)).map(
                    lambda p: (p[0], p[0] + p[1])
                ),
                max_size=2,
            ),
            min_size=8, max_size=8,
        ),
        calls=st.lists(
            st.tuples(
                st.floats(0.0, 0.3),  # when
                st.integers(0, 7),  # sender
                st.lists(st.integers(0, 7), max_size=20),  # [] = send, else cohort
                st.integers(0, 7),  # send destination
            ),
            min_size=1, max_size=12,
        ),
        detach=st.tuples(st.floats(0.0, 0.4), st.integers(0, 7)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_sent_equals_delivered_plus_arrival_drops(self, windows, calls, detach, seed):
        sim = Simulator()
        presence = ScriptedPresence(dict(zip(self.NODES, windows)))
        recorder = TelemetryRecorder(enabled=True)
        with use_recorder(recorder):
            net = Network(
                sim, latency=UniformLatency(0.02, 0.08), presence=presence,
                rng=np.random.default_rng(seed),
            )
        received = []
        for node in self.NODES:
            net.attach(node, received.append)
        for when, src, cohort, dst in calls:
            if cohort:
                sim.schedule_at(
                    when, net.send_batch, self.NODES[src], [self.NODES[k] for k in cohort], "x"
                )
            else:
                sim.schedule_at(when, net.send, self.NODES[src], self.NODES[dst], "x")
        sim.schedule_at(detach[0], net.detach, self.NODES[detach[1]])  # mid-flight
        sim.run()
        stats = net.stats
        assert stats.sent == (
            stats.delivered
            + stats.dropped.get(DropReason.DST_OFFLINE, 0)
            + stats.dropped.get(DropReason.NO_HANDLER, 0)
        )
        assert len(received) == stats.delivered
        scripted = len(calls) + 1
        assert sim.events_processed - scripted == stats.sent
        counted = {
            name[len("net.drop."):]: value
            for name, value in recorder.snapshot().counters.items()
            if name.startswith("net.drop.")
        }
        assert counted == stats.dropped  # src_offline included


# ----------------------------------------------------------------------
# ChurnTrace batched presence
# ----------------------------------------------------------------------
intervals_strategy = st.lists(
    st.tuples(st.floats(0.0, 900.0), st.floats(0.0, 100.0)).map(
        lambda p: (p[0], p[0] + p[1])
    ),
    max_size=5,
)


class TestTraceBatchPresence:
    @given(
        interval_lists=st.lists(intervals_strategy, min_size=1, max_size=8),
        times=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=16),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_presence(self, interval_lists, times, data):
        ids = make_node_ids(len(interval_lists))
        trace = ChurnTrace.from_intervals(dict(zip(ids, interval_lists)), horizon=1001.0)
        nodes = [
            ids[data.draw(st.integers(0, len(ids) - 1))] for _ in times
        ]
        batch = trace.timeline.is_online_array(trace.node_indices(nodes), np.array(times))
        scalar = [trace.is_online(node, t) for node, t in zip(nodes, times)]
        assert batch.tolist() == scalar

    def test_scalar_time_broadcasts(self):
        ids = make_node_ids(3)
        trace = ChurnTrace.from_intervals(
            {ids[0]: [(0, 10)], ids[1]: [], ids[2]: [(5, 20)]}, horizon=30.0
        )
        got = trace.timeline.is_online_array(trace.node_indices(ids), 7.0)
        assert got.tolist() == [True, False, True]

    def test_unknown_node_raises(self):
        ids = make_node_ids(2)
        trace = ChurnTrace.from_intervals({ids[0]: [(0, 10)]}, horizon=30.0)
        with pytest.raises(KeyError):
            trace.node_indices([ids[1]])


# ----------------------------------------------------------------------
# End-to-end record parity: send_batch vs the loop of send
# ----------------------------------------------------------------------
def assert_batch_matches_loop(seed, plan):
    """One seeded plan with ``Network.send_batch`` as shipped and with
    the reference loop in its place: identical records, network totals
    and multicast hand-offs."""
    batched = run_plan(seed, plan)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "send_batch", send_batch_as_loop)
        looped = run_plan(seed, plan)
    assert_same_records(batched, looped)
    assert batched["multicast_handoffs"] == looped["multicast_handoffs"]


class TestDispatchRecordParity:
    @given(
        seed=st.integers(0, 2**16),
        policy=st.sampled_from(POLICIES),
        mode=st.sampled_from(["flood", "gossip"]),
    )
    @settings(max_examples=6, deadline=None)
    def test_batched_matches_per_hop(self, seed, policy, mode):
        """A seeded plan whose fan-out cohorts go through ``send_batch``
        is record-identical (status, hops, transmissions, latencies,
        multicast tallies, network totals) to the same plan with every
        message sent through ``Network.send``."""
        assert_batch_matches_loop(seed, parity_plan(policy, mode))

    def test_eligible_nodes_scalar_batch_parity(self):
        """The vectorized eligibility snapshot equals a scalar loop's set
        (presence and true availability asked node by node)."""
        simulation = build_sim(5)
        engine = simulation.engine
        for target in (
            TargetSpec.range(0.2, 0.5),
            TargetSpec.range(0.6, 0.95),
            TargetSpec.threshold(0.5),
        ):
            scalar = {
                node
                for node in engine.nodes
                if simulation.network.is_online(node)
                and target.contains(simulation.true_availability(node))
            }
            assert engine._eligible_nodes(target) == scalar

    def test_band_candidates_match_scalar_shape(self):
        """The row-space band candidate list equals the scalar filter
        over online_ids, in the same order."""
        simulation = build_sim(6)
        for band in ("low", "mid", "high"):
            from repro.ops.spec import InitiatorBand

            want = [
                node
                for node in simulation.online_ids()
                if InitiatorBand.contains(band, simulation.true_availability(node))
            ]
            assert simulation.band_initiator_candidates(band) == want


# ----------------------------------------------------------------------
# Columnar candidate ordering: identical lists, identical rng streams
# ----------------------------------------------------------------------
class TestColumnarOrderingStreamParity:
    """The likeliest silent identity killer is the ``"ops"`` stream
    drifting from the entry-by-entry ordering the goldens were recorded
    under (kept verbatim in ``tests/reference/anycast_order.py``) — one
    extra (or missing) draw desynchronizes every later decision.  These
    property tests pin both the outputs and the exact generator state
    after ordering, for all three policies — including the annealing
    acceptance-probability draw."""

    @pytest.mark.parametrize("policy_name", ["greedy", "retry-greedy", "anneal"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 24),
        ttl=st.integers(1, 12),
        lo=st.floats(0.1, 0.6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_arrays_match_entries_and_stream_position(
        self, policy_name, seed, n, ttl, lo, data
    ):
        from repro.core.membership import MemberEntry, SliverKind
        from repro.ops.anycast import make_policy

        ids = make_node_ids(n) if n else []
        # Coarse availability grid so equal distances (the tiebreak-draw
        # path) actually occur.
        avs = [
            data.draw(st.sampled_from([0.05, 0.2, lo, 0.7, 0.7, 0.9]))
            for _ in range(n)
        ]
        excluded = [i for i in range(n) if data.draw(st.booleans())]
        target = TargetSpec.range(lo, min(lo + 0.2, 1.0))
        entries = [
            MemberEntry(node, av, SliverKind.HORIZONTAL, 0.0, 0.0)
            for node, av in zip(ids, avs)
        ]
        nodes_arr = np.empty(n, dtype=object)
        nodes_arr[:] = ids
        avs_arr = np.array(avs, dtype=float)
        digests = np.fromiter((i.digest64 for i in ids), dtype=np.uint64, count=n)
        exclude_digests = np.fromiter(
            (ids[i].digest64 for i in excluded), dtype=np.uint64, count=len(excluded)
        )
        policy = make_policy(policy_name)
        rng_entries = np.random.default_rng(seed)
        rng_arrays = np.random.default_rng(seed)
        want = order_candidates_entries(
            policy, entries, target, ttl, rng_entries, {ids[i] for i in excluded}
        )
        got = policy.order_candidates(
            nodes_arr, avs_arr, target, ttl, rng_arrays, exclude_digests, digests
        )
        assert got == want
        assert rng_arrays.bit_generator.state == rng_entries.bit_generator.state

    def test_annealing_acceptance_draw_happens_iff_scalar_draws(self):
        """Deterministic spot check of the annealing decision sequence:
        no draw for in-range bests or single candidates, exactly one
        acceptance draw (plus maybe a swap pick) otherwise."""
        from repro.ops.anycast import AnnealingPolicy

        ids = make_node_ids(3)
        target = TargetSpec.range(0.8, 0.9)
        policy = AnnealingPolicy()

        def order(avs, seed=5):
            n = len(avs)
            nodes_arr = np.empty(n, dtype=object)
            nodes_arr[:] = ids[:n]
            digests = np.fromiter(
                (i.digest64 for i in ids[:n]), dtype=np.uint64, count=n
            )
            rng = np.random.default_rng(seed)
            out = policy.order_candidates(
                nodes_arr, np.array(avs), target, 6, rng,
                np.zeros(0, dtype=np.uint64), digests,
            )
            return out, rng

        # All outside the range: the acceptance draw runs -> stream moved
        # beyond the two tiebreak draws.
        _, rng_explore = order([0.1, 0.2])
        reference = np.random.default_rng(5)
        reference.random(2)  # tiebreaks only
        assert rng_explore.bit_generator.state != reference.bit_generator.state
        # Greedy best in range: no acceptance draw (shuffle of the single
        # in-range candidate + one outside tiebreak draw).
        _, rng_exploit = order([0.85, 0.2])
        reference = np.random.default_rng(5)
        reference.shuffle([ids[0]])
        reference.random(1)
        assert rng_exploit.bit_generator.state == reference.bit_generator.state


# ----------------------------------------------------------------------
# Same-instant launches: end-to-end record parity across policies × timings
# ----------------------------------------------------------------------
class TestWavefrontRecordParity:
    """Plans whose anycasts, retried anycasts and multicasts share launch
    instants straddling churn events: ``send_batch`` against the loop of
    ``send``, with ack timers, stage-2 floods and gossip rounds
    interleaved at one simulated instant."""

    @given(
        seed=st.integers(0, 2**16),
        policy=st.sampled_from(POLICIES),
        timing_name=st.sampled_from(sorted(TIMINGS)),
        mode=st.sampled_from(["flood", "gossip"]),
    )
    @settings(max_examples=5, deadline=None)
    def test_wavefront_matches_per_hop(self, seed, policy, timing_name, mode):
        assert_batch_matches_loop(seed, wavefront_plan(policy, timing_name, mode))


# ----------------------------------------------------------------------
# Status races on the engine's direct first hop
# ----------------------------------------------------------------------
class TestStatusRaceUnderVectorDispatch:
    """The DELIVERY_OVERRIDABLE fix (a premature NO_NEIGHBOR /
    RETRY_EXPIRED verdict yields to a genuine delivery by a copy still
    in flight) on the path every operation takes: the initiator's first
    hop is ``_try_next_candidate`` on a fresh attempt."""

    def test_delivery_overrides_no_neighbor(self, rng):
        sim, network, nodes, engine, ids = build_system(
            [0.5, 0.9], rng=rng, latency=ConstantLatency(1.0)
        )
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy"
        )
        sim.run_until(0.75)
        assert record.status == AnycastStatus.NO_NEIGHBOR
        sim.run_until(5.0)
        assert record.status == AnycastStatus.DELIVERED
        assert record.delivery_node == ids[1]
        assert record.delivered_at == pytest.approx(1.0)
        assert record.retries_used == 0

    def test_delivery_overrides_retry_expired(self, rng):
        sim, network, nodes, engine, ids = build_system(
            [0.5, 0.9, 0.8, 0.7], rng=rng, latency=ConstantLatency(1.2), offline={2, 3}
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
        sim, network, nodes, engine, ids = build_system(
            [0.5, 0.9, 0.9], rng=rng, latency=ConstantLatency(1.2)
        )
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy", retry=3
        )
        sim.run_until(5.0)
        assert record.status == AnycastStatus.DELIVERED
        assert record.delivered_at == pytest.approx(1.2)


# ----------------------------------------------------------------------
# Per-message fixed cost: one bare heap entry and one row lookup
# ----------------------------------------------------------------------
class TestDeliveryPathCounts:
    def test_flood_plan_delivers_by_row_without_handles(self, monkeypatch):
        """A seeded N = 300 flood plan: no ``_deliver`` event asks
        ``ChurnTrace.is_online`` (delivery reads presence by row), and
        ``schedule_at_many`` builds no ``ScheduledEvent``."""
        simulation = build_sim(23, (300, "refresh-only", 600.0))
        is_online = ChurnTrace.is_online
        asked = {"deliver": 0, "other": 0}

        def counting_is_online(trace, node, time):
            caller = sys._getframe(1).f_code.co_name
            asked["deliver" if caller.startswith("_deliver") else "other"] += 1
            return is_online(trace, node, time)

        handles = {"cohort": 0, "other": 0}

        class CountingEvent(sim_engine.ScheduledEvent):
            def __init__(self, *args):
                caller = sys._getframe(1).f_code.co_name
                handles["cohort" if caller == "schedule_at_many" else "other"] += 1
                super().__init__(*args)

        cohorts = [0]
        schedule_at_many = Simulator.schedule_at_many

        def counting_schedule_at_many(sim, *args):
            cohorts[0] += 1
            return schedule_at_many(sim, *args)

        monkeypatch.setattr(ChurnTrace, "is_online", counting_is_online)
        monkeypatch.setattr(sim_engine, "ScheduledEvent", CountingEvent)
        monkeypatch.setattr(Simulator, "schedule_at_many", counting_schedule_at_many)
        stats = simulation.network.stats
        sent = stats.sent
        floods = OperationItem(
            kind="multicast", target=TargetSpec.range(0.2, 1.0), count=6,
            band="high", mode="flood", policy="retry-greedy", timing=TIMINGS["interval"],
        )
        simulation.ops.execute(OperationPlan(items=(floods,), settle=40.0))
        assert stats.sent - sent > 1000 and cohorts[0] > 100
        assert asked["deliver"] == 0
        assert asked["other"] > 0  # the wrapper is live: sender checks still ask it
        assert handles["cohort"] == 0
        assert handles["other"] > 0  # the wrapper is live: timers still get handles
