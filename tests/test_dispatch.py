"""Tests for the batched network-dispatch layer.

The load-bearing property is **vector-vs-scalar equivalence**: the
cohort path (vectorized latency draws, one batched arrival-instant
presence query, one simulator event per arrival-time cohort) must be
behaviourally indistinguishable from the sub-threshold loop of scalar
``Network.send`` calls (one event per message) — same rng stream
consumption, same delivery times and handler order, same accounting
totals, and (end to end) identical operation records on
identically-seeded simulations across forwarding policies and multicast
modes.  ``Network.batch_threshold`` is the only selection between the
two, so ``1`` vs ``10**9`` (:data:`SCALAR`) exercises both live; what
the records must *be* is held by ``tests/test_golden_logs.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.trace import ChurnTrace, NodeSchedule
from repro.core.ids import make_node_ids
from repro.ops.spec import TargetSpec
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency, LogNormalLatency, UniformLatency
from repro.sim.network import DropReason, Network

from reference.anycast_order import order_candidates_entries
from test_golden_logs import (
    POLICIES,
    TIMINGS,
    assert_same_records,
    build_sim,
    duplicate_receptions,
    parity_plan,
    run_plan,
    suppression_plan,
    wavefront_plan,
)

#: a threshold above any cohort: every message takes a scalar Network.send
SCALAR = 10**9


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


def recording_network(sim, latency, presence=None, nodes=("a", "b", "c", "d"),
                      batch_threshold=1):
    # batch_threshold=1 forces even tiny cohorts through the vector path
    # (the production default routes sub-dozen cohorts through the
    # scalar loop purely for speed); SCALAR forces the scalar loop.
    net = Network(sim, latency=latency, presence=presence,
                  batch_threshold=batch_threshold, rng=np.random.default_rng(42))
    inbox = []
    for node in nodes:
        net.attach(node, lambda env: inbox.append((env.dst, env.delivered_at)))
    return net, inbox


class TestSendBatch:
    def test_one_event_per_arrival_cohort(self, sim):
        """Equal latencies collapse the whole cohort into one event."""
        net, inbox = recording_network(sim, ConstantLatency(0.05))
        assert net.send_batch("a", ["b", "c", "d"], "x") == 3
        before = sim.events_processed
        sim.run()
        assert sim.events_processed - before == 1  # one cohort event
        assert inbox == [("b", 0.05), ("c", 0.05), ("d", 0.05)]

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
        """Below the threshold too: one sender check for the cohort,
        SRC_OFFLINE x n, no latency draw, no event."""
        presence = ScriptedPresence({"b": [(0, 100)], "c": [(0, 100)]})
        net, inbox = recording_network(
            sim, UniformLatency(), presence=presence, batch_threshold=SCALAR
        )
        state = net.rng.bit_generator.state
        assert net.send_batch("a", ["b", "c", "b"], "x") == 0
        assert net.rng.bit_generator.state == state
        assert net.stats.sent == 0
        assert net.stats.dropped == {DropReason.SRC_OFFLINE: 3}
        assert sim.queue_depth == 0

    @pytest.mark.parametrize("model", [UniformLatency(0.02, 0.08), ConstantLatency(0.05)])
    def test_sub_threshold_cohort_is_one_send_per_destination(self, model):
        """Below the threshold a cohort enqueues exactly what a loop of
        scalar sends would: one event per message at the same instants
        in the same order, arrival-time presence checked at delivery,
        the latency stream left at the same position."""
        windows = {
            "a": [(0, 100)], "b": [(0, 100)],
            "c": [(0.0, 0.03)],  # offline by the time its message lands
            "d": [(0, 100)],
        }
        runs = []
        for cohort in (True, False):
            sim = Simulator()
            net, inbox = recording_network(
                sim, model, presence=ScriptedPresence(windows), batch_threshold=SCALAR
            )
            net.detach("d")  # NO_HANDLER resolved at delivery on both
            for dsts in (["b", "c", "d"], ["c"], ["d", "b"]):
                if cohort:
                    assert net.send_batch("a", dsts, "payload") == len(dsts)
                else:
                    assert all(net.send("a", dst, "payload") for dst in dsts)
            depth = sim.queue_depth
            sim.run()
            runs.append(
                (net.stats.snapshot(), inbox, depth, sim.events_processed,
                 net.rng.bit_generator.state)
            )
        assert runs[0] == runs[1]
        assert runs[0][2] == 6  # one event per message

    def test_offline_destination_dropped_without_event(self, sim):
        presence = ScriptedPresence({"a": [(0, 100)], "b": [(0, 100)], "c": []})
        net, inbox = recording_network(sim, ConstantLatency(0.05), presence=presence)
        assert net.send_batch("a", ["b", "c"], "x") == 2
        assert net.stats.dropped[DropReason.DST_OFFLINE] == 1
        sim.run()
        assert inbox == [("b", 0.05)]

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

    @pytest.mark.parametrize("batch_threshold", [1, Network.DEFAULT_BATCH_THRESHOLD])
    def test_cohort_vs_singleton_stats_parity(self, batch_threshold):
        """Identically-seeded networks produce the same accounting
        totals, delivery order, and delivery times whether cohorts take
        the vector path (threshold 1), mix vector and scalar dispatch
        (the default threshold), or all take the scalar loop."""
        windows = {
            "a": [(0, 100)], "b": [(0, 100)],
            "c": [(0.0, 0.03)],  # will be offline at most arrivals
            "d": [(0, 100)],
        }
        runs = []
        for threshold in (batch_threshold, SCALAR):
            sim = Simulator()
            net, inbox = recording_network(
                sim, UniformLatency(0.02, 0.08),
                presence=ScriptedPresence(windows), batch_threshold=threshold,
            )
            for size in (3, 1, 2, 3, 3, 1, 3, 2, 3, 3):  # straddles any threshold
                net.send_batch("a", ["b", "c", "d"][:size], "payload")
            net.send("a", "b", "single")  # singleton sends interleave fine
            sim.run()
            runs.append((net.stats.snapshot(), inbox))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]


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
        trace = ChurnTrace(
            {node: NodeSchedule(iv) for node, iv in zip(ids, interval_lists)},
            horizon=1001.0,
        )
        nodes = [
            ids[data.draw(st.integers(0, len(ids) - 1))] for _ in times
        ]
        batch = trace.is_online_array(nodes, np.array(times))
        scalar = [trace.is_online(node, t) for node, t in zip(nodes, times)]
        assert batch.tolist() == scalar

    def test_scalar_time_broadcasts(self):
        ids = make_node_ids(3)
        trace = ChurnTrace(
            {ids[0]: NodeSchedule([(0, 10)]), ids[1]: NodeSchedule([]),
             ids[2]: NodeSchedule([(5, 20)])},
            horizon=30.0,
        )
        got = trace.is_online_array(ids, 7.0)
        assert got.tolist() == [True, False, True]

    def test_unknown_node_raises(self):
        ids = make_node_ids(2)
        trace = ChurnTrace({ids[0]: NodeSchedule([(0, 10)])}, horizon=30.0)
        with pytest.raises(KeyError):
            trace.is_online_array([ids[1]], 1.0)

    def test_network_falls_back_for_unknown_nodes(self):
        """The network's batched presence helper degrades to the scalar
        protocol (False for unknowns) instead of propagating KeyError."""
        ids = make_node_ids(2)
        trace = ChurnTrace({ids[0]: NodeSchedule([(0, 10)])}, horizon=30.0)
        net = Network(Simulator(), presence=trace)
        got = net.online_array([ids[0], ids[1]])
        assert got.tolist() == [True, False]


# ----------------------------------------------------------------------
# End-to-end record parity: every cohort vectorized vs every message scalar
# ----------------------------------------------------------------------
def assert_vector_matches_scalar(seed, plan):
    """One seeded plan at ``batch_threshold`` 1 and at :data:`SCALAR`:
    identical records and network totals; the vector run hands off no
    more multicast envelopes, the gap bounded by the duplicates the
    dispatch layer absorbed."""
    vector = run_plan(seed, plan, 1)
    scalar = run_plan(seed, plan, SCALAR)
    assert_same_records(vector, scalar)
    saved = scalar["multicast_handoffs"] - vector["multicast_handoffs"]
    assert 0 <= saved <= duplicate_receptions(scalar)
    return saved


class TestDispatchRecordParity:
    @given(
        seed=st.integers(0, 2**16),
        policy=st.sampled_from(POLICIES),
        mode=st.sampled_from(["flood", "gossip"]),
    )
    @settings(max_examples=6, deadline=None)
    def test_batched_matches_per_hop(self, seed, policy, mode):
        """A seeded plan with every cohort vectorized is record-identical
        (status, hops, transmissions, latencies, multicast tallies,
        network totals) to the same plan with every message sent per
        hop through scalar ``Network.send``."""
        assert_vector_matches_scalar(seed, parity_plan(policy, mode))

    def test_eligible_nodes_scalar_batch_parity(self):
        """The vectorized eligibility snapshot equals the scalar loop's
        set at several instants and targets."""
        simulation = build_sim(5, 1)
        engine = simulation.engine
        assert engine.truth_eligible is not None
        for target in (
            TargetSpec.range(0.2, 0.5),
            TargetSpec.range(0.6, 0.95),
            TargetSpec.threshold(0.5),
        ):
            batch = engine._eligible_nodes(target)
            snapshot_fn = engine.truth_eligible
            engine.truth_eligible = None
            try:
                scalar = engine._eligible_nodes(target)
            finally:
                engine.truth_eligible = snapshot_fn
            assert batch == scalar

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
# send_many: heterogeneous wavefront cohorts
# ----------------------------------------------------------------------
class TestSendMany:
    ITEMS = [
        ("a", "b", "p0"),
        ("ghost", "c", "p1"),  # offline sender: wired False, no draw
        ("b", "d", "p2"),
        ("c", "gone", "p3"),  # destination never online: dropped at send
        ("d", "a", "p4"),
    ]
    WINDOWS = {
        "a": [(0, 100)], "b": [(0, 100)], "c": [(0, 100)], "d": [(0, 100)],
    }

    def run_one(self, batch_threshold):
        sim = Simulator()
        net, inbox = recording_network(
            sim, UniformLatency(0.02, 0.08),
            presence=ScriptedPresence(self.WINDOWS),
            batch_threshold=batch_threshold,
        )
        wired = net.send_many(self.ITEMS)
        state = net.rng.bit_generator.state
        sim.run()
        return wired, net.stats.snapshot(), inbox, state

    def test_matches_sequential_sends(self):
        """One send_many call is indistinguishable from a loop of scalar
        sends: same wired flags, accounting totals, delivery order and
        instants, and the same latency-stream position afterwards."""
        got = self.run_one(1)
        want = self.run_one(SCALAR)
        assert got == want

    def test_threshold_routes_small_cohorts_to_scalar(self, sim):
        """A cohort under the threshold is exactly a loop of ``send``."""
        net, inbox = recording_network(
            sim, UniformLatency(0.02, 0.08),
            presence=ScriptedPresence(self.WINDOWS), batch_threshold=50,
        )
        wired = [net.send(*item) for item in self.ITEMS]
        state = net.rng.bit_generator.state
        sim.run()
        assert (wired, net.stats.snapshot(), inbox, state) == self.run_one(50)

    def test_offline_sender_consumes_no_latency_draws(self, sim):
        """An offline sender's item draws nothing — the stream position
        afterwards equals two scalar draws, not three."""
        net, _ = recording_network(
            sim, UniformLatency(0.02, 0.08),
            presence=ScriptedPresence(self.WINDOWS),
        )
        reference = np.random.default_rng(42)  # recording_network's seed
        UniformLatency(0.02, 0.08).sample_array(reference, 2)
        wired = net.send_many([("a", "b", 1), ("ghost", "c", 2), ("b", "d", 3)])
        assert wired == [True, False, True]
        assert net.stats.sent == 2
        assert net.stats.dropped[DropReason.SRC_OFFLINE] == 1
        assert net.rng.bit_generator.state == reference.bit_generator.state

    def test_heterogeneous_payloads_deliver_to_own_destinations(self, sim):
        net, inbox = recording_network(sim, ConstantLatency(0.05))
        payloads = {}
        for node in ("a", "b", "c", "d"):
            net.detach(node)
            net.attach(node, lambda env, n=node: payloads.setdefault(n, env.payload))
        net.send_many([("a", "b", "for-b"), ("b", "c", "for-c"), ("c", "d", "for-d")])
        before = sim.events_processed
        sim.run()
        # Equal arrival instants collapse the whole wavefront into one
        # cohort event.
        assert sim.events_processed - before == 1
        assert payloads == {"b": "for-b", "c": "for-c", "d": "for-d"}

    def test_empty_is_noop(self, sim):
        net, _ = recording_network(sim, UniformLatency())
        assert net.send_many([]) == []
        assert net.stats.sent == 0


# ----------------------------------------------------------------------
# Dispatch-layer duplicate suppression
# ----------------------------------------------------------------------
class TestSendBatchSuppressing:
    def test_suppressed_delivers_without_event(self, sim):
        """A suppressed destination is credited delivered but no
        simulator event is scheduled for it."""
        net, inbox = recording_network(sim, ConstantLatency(0.05))
        on_wire, dup = net.send_batch_suppressing(
            "a", ["b", "c"], "x", np.array([False, True])
        )
        assert (on_wire, dup) == (2, 1)
        assert net.stats.sent == 2
        assert net.stats.delivered == 1  # the suppressed one, pre-credited
        sim.run()
        assert inbox == [("b", 0.05)]  # only the unsuppressed traveled
        assert net.stats.delivered == 2

    def test_suppressed_offline_destination_counts_as_drop(self, sim):
        """Suppression still answers presence at the arrival instant: an
        offline duplicate is a DST_OFFLINE drop, not a reception."""
        windows = {"a": [(0, 100)], "b": [(0, 100)], "c": [(0.0, 0.02)]}
        net, inbox = recording_network(
            sim, ConstantLatency(0.05), presence=ScriptedPresence(windows)
        )
        on_wire, dup = net.send_batch_suppressing(
            "a", ["b", "c"], "x", np.array([False, True])
        )
        assert (on_wire, dup) == (2, 0)
        assert net.stats.dropped[DropReason.DST_OFFLINE] == 1
        sim.run()
        assert inbox == [("b", 0.05)]

    def test_suppressed_detached_destination_is_no_handler(self, sim):
        net, _ = recording_network(sim, ConstantLatency(0.05), nodes=("a", "b"))
        on_wire, dup = net.send_batch_suppressing(
            "a", ["b", "zz"], "x", np.array([False, True])
        )
        assert (on_wire, dup) == (2, 0)
        assert net.stats.dropped[DropReason.NO_HANDLER] == 1

    def test_latency_stream_unchanged_by_suppression(self):
        """The suppression mask must not perturb the latency draws — the
        stream position matches an unsuppressed batch of equal size."""
        states = []
        for suppress in (None, np.array([False, True, True])):
            sim = Simulator()
            net, _ = recording_network(sim, UniformLatency(0.02, 0.08))
            net.send_batch_suppressing("a", ["b", "c", "d"], "x", suppress)
            states.append(net.rng.bit_generator.state)
        assert states[0] == states[1]

    def test_scalar_fallback_suppresses_nothing(self, sim):
        """Below the batch threshold duplicates travel and are accounted
        at reception."""
        net, inbox = recording_network(
            sim, ConstantLatency(0.05), batch_threshold=50
        )
        on_wire, dup = net.send_batch_suppressing(
            "a", ["b", "c"], "x", np.array([True, True])
        )
        assert (on_wire, dup) == (2, 0)
        sim.run()
        assert len(inbox) == 2


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
# Wavefront cohorts: end-to-end record parity across policies × timings
# ----------------------------------------------------------------------
class TestWavefrontRecordParity:
    """Wavefront dispatch (launch cohorts held by the runner, delivery
    cohorts bracketed by the network hooks, columnar candidate ordering,
    dispatch-layer duplicate suppression) with every cohort vectorized
    is record-identical to the same wavefronts sent one scalar message
    per hop, on seeded runs whose launches straddle churn events."""

    @given(
        seed=st.integers(0, 2**16),
        policy=st.sampled_from(POLICIES),
        timing_name=st.sampled_from(sorted(TIMINGS)),
        mode=st.sampled_from(["flood", "gossip"]),
    )
    @settings(max_examples=5, deadline=None)
    def test_wavefront_matches_per_hop(self, seed, policy, timing_name, mode):
        assert_vector_matches_scalar(seed, wavefront_plan(policy, timing_name, mode))


# ----------------------------------------------------------------------
# Duplicate suppression: accounting parity, fewer handler invocations
# ----------------------------------------------------------------------
class TestDuplicateSuppression:
    """Seen-at-send duplicates are absorbed at the dispatch layer — the
    envelope never becomes a simulator event — while every tally
    (``duplicate_receptions``, network stats) stays identical to the
    scalar loop, where duplicates travel and are counted at reception.
    The strict handler-invocation inequality fails without suppression
    (both thresholds would deliver every duplicate envelope)."""

    @pytest.mark.parametrize("mode", ["flood", "gossip"])
    def test_suppression_preserves_tallies_and_skips_handoffs(self, mode):
        saved = assert_vector_matches_scalar(11, suppression_plan(mode))
        # The point of the seen-mask: duplicate envelopes seen at send
        # time never reach a handler on the vector path.
        assert saved > 0


# ----------------------------------------------------------------------
# Status races survive the vector path (PR 5 fix under the seen-mask move)
# ----------------------------------------------------------------------
class TestStatusRaceUnderVectorDispatch:
    """The DELIVERY_OVERRIDABLE fix (a premature NO_NEIGHBOR /
    RETRY_EXPIRED verdict yields to a genuine delivery by a copy still
    in flight) must survive wavefront dispatch: singleton flushes route
    through ``send_many`` and acks/data through the batched presence
    path once ``batch_threshold`` is 1."""

    @staticmethod
    def vector_system(avs, rng, latency, **kwargs):
        from test_ops_engine import build_system

        sim, network, nodes, engine, ids = build_system(
            avs, rng=rng, latency=latency, **kwargs
        )
        network.batch_threshold = 1  # force every cohort down the vector path
        return sim, network, nodes, engine, ids

    def test_delivery_overrides_no_neighbor(self, rng):
        from repro.ops.results import AnycastStatus

        sim, network, nodes, engine, ids = self.vector_system(
            [0.5, 0.9], rng, ConstantLatency(1.0)
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
        from repro.ops.results import AnycastStatus

        sim, network, nodes, engine, ids = self.vector_system(
            [0.5, 0.9, 0.8, 0.7], rng, ConstantLatency(1.2), offline={2, 3}
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
        from repro.ops.results import AnycastStatus

        sim, network, nodes, engine, ids = self.vector_system(
            [0.5, 0.9, 0.9], rng, ConstantLatency(1.2)
        )
        record = engine.anycast(
            ids[0], TargetSpec.range(0.85, 0.95), policy="retry-greedy", retry=3
        )
        sim.run_until(5.0)
        assert record.status == AnycastStatus.DELIVERED
        assert record.delivered_at == pytest.approx(1.2)
