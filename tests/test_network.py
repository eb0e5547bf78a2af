"""Unit tests for the presence-gated network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.trace import ChurnTrace
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import AlwaysOnline, DropReason, Envelope, Network


class ScriptedPresence:
    """Presence oracle driven by explicit (node -> [(start, end)]) windows."""

    def __init__(self, windows):
        self.windows = windows

    def is_online(self, node, time):
        return any(start <= time < end for start, end in self.windows.get(node, []))


@pytest.fixture
def net(sim):
    return Network(sim, latency=ConstantLatency(0.05))


class TestAttachment:
    def test_attach_and_deliver(self, sim, net):
        inbox = []
        net.attach("a", lambda env: None)
        net.attach("b", inbox.append)
        net.send("a", "b", "hello")
        sim.run()
        assert len(inbox) == 1
        assert inbox[0].payload == "hello"
        assert inbox[0].src == "a"

    def test_double_attach_rejected(self, net):
        net.attach("a", lambda env: None)
        with pytest.raises(ValueError):
            net.attach("a", lambda env: None)

    def test_detach_drops_future_messages(self, sim, net):
        inbox = []
        net.attach("a", lambda env: None)
        net.attach("b", inbox.append)
        net.detach("b")
        net.send("a", "b", "x")
        sim.run()
        assert inbox == []
        assert net.stats.dropped[DropReason.NO_HANDLER] == 1

    def test_node_count(self, net):
        net.attach("a", lambda env: None)
        net.attach("b", lambda env: None)
        assert net.node_count == 2


class TestEnvelope:
    """Envelopes are immutable named tuples with the field order of the
    frozen dataclass they replaced."""

    FIELDS = ("src", "dst", "payload", "sent_at", "delivered_at")

    def test_field_order(self):
        assert Envelope._fields == self.FIELDS
        env = Envelope("a", "b", "x", 1.0, 1.5)
        assert env == Envelope(src="a", dst="b", payload="x", sent_at=1.0, delivered_at=1.5)
        assert (env.src, env.dst, env.payload, env.sent_at, env.delivered_at) == tuple(env)

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_cannot_be_assigned(self, name):
        env = Envelope("a", "b", "x", 1.0, 1.5)
        with pytest.raises(AttributeError):
            setattr(env, name, None)
        assert tuple(env) == ("a", "b", "x", 1.0, 1.5)

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            Envelope("a", "b", "x", 1.0, 1.5).extra = 1

    def test_send_and_send_batch_build_envelopes(self, sim, net):
        inbox = []
        net.attach("a", lambda env: None)
        for node in ("b", "c"):
            net.attach(node, inbox.append)
        net.send("a", "b", "one")
        net.send_batch("a", ["b", "c"], "two")
        sim.run()
        assert all(type(env) is Envelope for env in inbox)
        assert sorted((env.dst, env.payload) for env in inbox) == [
            ("b", "one"), ("b", "two"), ("c", "two"),
        ]
        assert all(env.delivered_at == pytest.approx(env.sent_at + 0.05) for env in inbox)


class TestLatency:
    def test_delivery_takes_latency(self, sim, net):
        times = []
        net.attach("a", lambda env: None)
        net.attach("b", lambda env: times.append(sim.now))
        net.send("a", "b", "x")
        sim.run()
        assert times == [0.05]

    def test_envelope_timestamps(self, sim, net):
        envs = []
        net.attach("a", lambda env: None)
        net.attach("b", envs.append)
        sim.run_until(10.0)
        net.send("a", "b", "x")
        sim.run()
        assert envs[0].sent_at == 10.0
        assert envs[0].delivered_at == pytest.approx(10.05)


class TestPresenceGating:
    def test_offline_destination_drops(self, sim):
        presence = ScriptedPresence({"a": [(0, 100)], "b": []})
        net = Network(sim, latency=ConstantLatency(0.05), presence=presence)
        inbox = []
        net.attach("a", lambda env: None)
        net.attach("b", inbox.append)
        assert net.send("a", "b", "x")  # put on the wire fine
        sim.run()
        assert inbox == []
        assert net.stats.dropped[DropReason.DST_OFFLINE] == 1

    def test_offline_sender_cannot_send(self, sim):
        presence = ScriptedPresence({"a": [], "b": [(0, 100)]})
        net = Network(sim, latency=ConstantLatency(0.05), presence=presence)
        net.attach("a", lambda env: None)
        net.attach("b", lambda env: None)
        assert not net.send("a", "b", "x")
        assert net.stats.dropped[DropReason.SRC_OFFLINE] == 1
        assert net.stats.sent == 0

    def test_sender_check_can_be_disabled(self, sim):
        presence = ScriptedPresence({"a": [], "b": [(0, 100)]})
        net = Network(
            sim, latency=ConstantLatency(0.05), presence=presence, check_sender=False
        )
        inbox = []
        net.attach("a", lambda env: None)
        net.attach("b", inbox.append)
        assert net.send("a", "b", "x")
        sim.run()
        assert len(inbox) == 1

    def test_destination_going_offline_mid_flight(self, sim):
        presence = ScriptedPresence({"a": [(0, 100)], "b": [(0.0, 0.02)]})
        net = Network(sim, latency=ConstantLatency(0.05), presence=presence)
        inbox = []
        net.attach("a", lambda env: None)
        net.attach("b", inbox.append)
        net.send("a", "b", "x")  # delivery at 0.05, b offline from 0.02
        sim.run()
        assert inbox == []
        assert net.stats.dropped[DropReason.DST_OFFLINE] == 1

    def test_is_online_helper(self, sim):
        presence = ScriptedPresence({"a": [(0, 5)]})
        net = Network(sim, presence=presence)
        assert net.is_online("a")
        sim.run_until(6.0)
        assert not net.is_online("a")


    def test_online_rows_indexes_the_trace_snapshot(self, sim):
        keys = ["a", "b", "c"]
        trace = ChurnTrace.from_matrix(
            np.array([[1, 0, 1], [0, 0, 1]], dtype=bool), keys, epoch_seconds=10.0
        )
        net = Network(sim, presence=trace)
        rows = np.array([2, 0, 1])
        assert net.online_rows(rows).tolist() == [True, True, False]
        assert net.online_rows(0) and net.is_online("a")
        sim.run_until(10.0)  # the session edge: a leaves
        assert net.online_rows(rows).tolist() == [True, False, False]
        assert [net.is_online(k) for k in keys] == net.online_rows(np.arange(3)).tolist()


class TestStats:
    def test_counts_accumulate(self, sim, net):
        net.attach("a", lambda env: None)
        net.attach("b", lambda env: None)
        for _ in range(5):
            net.send("a", "b", "x")
        sim.run()
        assert net.stats.sent == 5
        assert net.stats.delivered == 5
        assert net.stats.dropped_total == 0

    def test_snapshot_is_plain_dict(self, sim, net):
        net.attach("a", lambda env: None)
        net.send("a", "missing", "x")
        sim.run()
        snap = net.stats.snapshot()
        assert snap["sent"] == 1
        assert snap["delivered"] == 0
        assert snap["dropped"][DropReason.NO_HANDLER] == 1

    def test_always_online_default(self, sim):
        net = Network(sim)
        assert isinstance(net.presence, AlwaysOnline)
        assert net.is_online("anyone")


class KeyedPresence:
    """A generic oracle wrapping a trace: the network reads it by key."""

    def __init__(self, trace):
        self.trace = trace

    def is_online(self, node, time):
        return self.trace.is_online(node, time)


class TestTraceBackedNetwork:
    """With a :class:`ChurnTrace` oracle the network translates a
    destination to its trace row once per message and reads presence
    and the handler by that row; every answer and drop reason is the
    key path's."""

    @staticmethod
    def trace():
        # a: always on; b: on until 1.0; c: on from 2.0; d: never on.
        return ChurnTrace.from_intervals(
            {"a": [(0.0, 100.0)], "b": [(0.0, 1.0)], "c": [(2.0, 100.0)], "d": []},
            horizon=100.0,
        )

    def test_drop_reason_order(self, sim):
        net = Network(sim, latency=ConstantLatency(0.05), presence=self.trace())
        inbox = []
        for key in "abcd":
            net.attach(key, inbox.append)
        net.detach("c")  # offline and detached: presence is asked first
        net.detach("a")  # online and detached
        assert net.node_count == 2
        assert net.send("b", "c", "x")
        assert net.send("b", "d", "x")
        assert net.send("b", "nobody", "x")  # an unknown key is offline
        assert net.send("b", "a", "x")
        assert not net.send("d", "b", "x")  # offline sender
        assert not net.send("ghost", "b", "x")  # unknown sender
        assert net.send_batch("d", ["a", "b"], "x") == 0
        sim.run()
        assert inbox == []
        assert net.stats.dropped == {
            DropReason.DST_OFFLINE: 3,
            DropReason.NO_HANDLER: 1,
            DropReason.SRC_OFFLINE: 4,
        }

    def test_attach_resolves_the_row_once(self, sim):
        net = Network(sim, presence=self.trace())
        net.attach("c", lambda env: None)
        with pytest.raises(ValueError):
            net.attach("c", lambda env: None)
        with pytest.raises(KeyError):
            net.attach("nobody", lambda env: None)
        net.detach("nobody")  # a no-op, like detaching twice
        net.detach("c")
        net.detach("c")
        assert net.node_count == 0
        net.attach("c", lambda env: None)
        assert net.node_count == 1

    @given(
        sends=st.lists(
            st.tuples(
                st.floats(0.0, 4.0, width=32),
                st.sampled_from(["a", "b", "c", "d", "nobody"]),
                st.booleans(),
            ),
            max_size=20,
        ),
        snapshot_at=st.sampled_from([None, 0.5, 1.5, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_path_matches_key_path(self, sends, snapshot_at):
        """The same sends, through the row path and through a generic
        oracle's key path, deliver the same envelopes in the same order
        with the same stats — with and without a live snapshot."""
        outcomes = []
        for presence in (self.trace(), KeyedPresence(self.trace())):
            sim = Simulator()
            net = Network(sim, latency=ConstantLatency(0.3), presence=presence)
            inbox = []
            for key in "abcd":
                net.attach(key, lambda env, k=key: inbox.append((k, env)))
            if snapshot_at is not None:
                (presence.trace if isinstance(presence, KeyedPresence) else presence
                 ).timeline.snapshot(snapshot_at)
            for at, dst, batch in sorted(sends, key=lambda s: s[0]):
                sim.run_until(max(sim.now, at))
                if batch:
                    net.send_batch("a", [dst, "b"], "x")
                else:
                    net.send("a", dst, "x")
            sim.run()
            outcomes.append((inbox, net.stats.snapshot()))
        assert outcomes[0] == outcomes[1]
