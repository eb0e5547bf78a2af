"""Unit tests for the presence-gated network."""

import numpy as np
import pytest

from repro.churn.trace import ChurnTrace
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import AlwaysOnline, DropReason, Network


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
