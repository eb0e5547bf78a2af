"""Unit tests for churn trace schedules and traces."""

import numpy as np
import pytest

from repro.churn.trace import ChurnTrace, NodeSchedule


class TestNodeSchedule:
    def test_presence_inside_intervals(self):
        sched = NodeSchedule([(0.0, 10.0), (20.0, 30.0)])
        assert sched.is_online(0.0)
        assert sched.is_online(5.0)
        assert not sched.is_online(10.0)  # half-open
        assert not sched.is_online(15.0)
        assert sched.is_online(20.0)
        assert not sched.is_online(30.0)

    def test_intervals_merged_and_sorted(self):
        sched = NodeSchedule([(20.0, 30.0), (0.0, 10.0), (8.0, 12.0)])
        assert sched.intervals == ((0.0, 12.0), (20.0, 30.0))

    def test_zero_length_intervals_dropped(self):
        sched = NodeSchedule([(5.0, 5.0), (1.0, 2.0)])
        assert sched.intervals == ((1.0, 2.0),)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            NodeSchedule([(5.0, 1.0)])

    def test_uptime(self):
        sched = NodeSchedule([(0.0, 10.0), (20.0, 30.0)])
        assert sched.uptime(30.0) == 20.0
        assert sched.uptime(25.0) == 15.0
        assert sched.uptime(15.0) == 10.0
        assert sched.uptime(5.0) == 5.0

    def test_uptime_with_since(self):
        sched = NodeSchedule([(0.0, 10.0), (20.0, 30.0)])
        assert sched.uptime(30.0, since=5.0) == 15.0
        assert sched.uptime(25.0, since=22.0) == 3.0

    def test_uptime_backwards_rejected(self):
        with pytest.raises(ValueError):
            NodeSchedule([(0.0, 1.0)]).uptime(0.0, since=1.0)

    def test_availability_fraction(self):
        sched = NodeSchedule([(0.0, 10.0)])
        assert sched.availability(20.0) == pytest.approx(0.5)
        assert sched.availability(10.0) == pytest.approx(1.0)

    def test_availability_zero_window_is_instantaneous(self):
        sched = NodeSchedule([(0.0, 10.0)])
        assert sched.availability(5.0, since=5.0) == 1.0
        assert sched.availability(15.0, since=15.0) == 0.0

    def test_next_transition(self):
        sched = NodeSchedule([(0.0, 10.0), (20.0, 30.0)])
        assert sched.next_transition(5.0) == 10.0
        assert sched.next_transition(15.0) == 20.0
        assert sched.next_transition(25.0) == 30.0
        assert sched.next_transition(35.0) is None

    def test_session_stats(self):
        sched = NodeSchedule([(0.0, 10.0), (20.0, 25.0)])
        assert sched.session_count == 2
        assert sched.session_lengths() == [10.0, 5.0]
        assert sched.first_appearance() == 0.0

    def test_empty_schedule(self):
        sched = NodeSchedule([])
        assert not sched.is_online(0.0)
        assert sched.availability(100.0) == 0.0
        assert sched.first_appearance() is None


class TestChurnTrace:
    @pytest.fixture
    def trace(self):
        matrix = np.array(
            [
                [True, False, True],
                [True, False, False],
                [False, True, True],
                [True, True, True],
            ]
        )
        return ChurnTrace.from_matrix(matrix, ["a", "b", "c"], epoch_seconds=10.0)

    def test_from_matrix_dimensions(self, trace):
        assert trace.node_count == 3
        assert trace.horizon == 40.0
        assert trace.nodes == ("a", "b", "c")

    def test_presence_follows_matrix(self, trace):
        assert trace.is_online("a", 5.0)
        assert trace.is_online("a", 15.0)
        assert not trace.is_online("a", 25.0)
        assert trace.is_online("a", 35.0)
        assert not trace.is_online("b", 5.0)
        assert trace.is_online("b", 25.0)

    def test_unknown_node_is_offline(self, trace):
        assert not trace.is_online("zzz", 5.0)

    def test_is_online_reads_the_live_snapshot_and_only_reads(self, trace):
        """Scalar presence equals the schedule search inside the live
        window, outside it and at both window bounds; an unknown key is
        False either way; a scalar query never builds a snapshot."""
        timeline = trace.timeline
        probes = [0.0, 5.0, 10.0, np.nextafter(20.0, 0.0), 20.0, 25.0, 30.0, 39.9, 40.0, 45.0]

        def check():
            for node in trace.nodes:
                for t in probes:
                    assert trace.is_online(node, t) == bool(trace.schedule(node).is_online(t))
            for t in probes:
                assert trace.is_online("zzz", t) is False

        check()
        assert timeline.live_snapshot(15.0) is None  # nothing built so far
        window = timeline.snapshot(15.0)
        assert (window.valid_from, window.valid_until) == (10.0, 20.0)
        check()
        assert timeline.snapshot(15.0) is window  # scalar misses left it alone
        # Inside the window the answer is the snapshot's, not a search.
        online = window.online.copy()
        online[trace.index_of("b")] = True
        window.online = online
        assert trace.is_online("b", 15.0) and not trace.schedule("b").is_online(15.0)
        assert not trace.is_online("b", 5.0)  # outside the window: the search

    def test_online_population(self, trace):
        assert trace.online_nodes(5.0) == ["a", "c"]
        assert trace.online_count(25.0) == 2

    def test_availability_raw(self, trace):
        # Node a online epochs 0, 1, 3 of 4.
        assert trace.availability("a", 40.0) == pytest.approx(0.75)
        assert trace.lifetime_availability("a") == pytest.approx(0.75)

    def test_windowed_availability(self, trace):
        # Last 20s of node a: epochs 2 (off) and 3 (on).
        assert trace.windowed_availability("a", 40.0, 20.0) == pytest.approx(0.5)

    def test_availabilities_bulk(self, trace):
        values = trace.availabilities()
        assert set(values) == {"a", "b", "c"}
        assert values["b"] == pytest.approx(0.5)

    def test_roundtrip_matrix(self, trace):
        matrix, keys = trace.to_matrix(10.0)
        rebuilt = ChurnTrace.from_matrix(matrix, keys, 10.0)
        for node in keys:
            for t in (5.0, 15.0, 25.0, 35.0):
                assert rebuilt.is_online(node, t) == trace.is_online(node, t)

    def test_restrict(self, trace):
        sub = trace.restrict(["a", "c"])
        assert sub.nodes == ("a", "c")
        assert "b" not in sub

    def test_restrict_unknown_raises(self, trace):
        with pytest.raises(KeyError):
            trace.restrict(["zzz"])

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            ChurnTrace.from_matrix(np.ones((2, 3), dtype=bool), ["a", "b"], 10.0)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            ChurnTrace.from_matrix(np.ones((2, 2), dtype=bool), ["a", "a"], 10.0)

    def test_bad_epoch_seconds_rejected(self):
        with pytest.raises(ValueError):
            ChurnTrace.from_matrix(np.ones((2, 2), dtype=bool), ["a", "b"], 0.0)

    def test_contains(self, trace):
        assert "a" in trace
        assert "zzz" not in trace
