"""Property tests for the columnar :class:`ChurnTimeline`.

The timeline is the batch-query backend behind ``ChurnTrace``, the
monitoring oracle, and every compiled scenario, so its contract is
equivalence: for any session layout and any query, the batched answer
must match the scalar :class:`NodeSchedule` answer entry for entry.
Hypothesis drives both the layouts (including overlapping/touching
inputs that exercise normalization) and the query times (including
boundary values).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.timeline import ChurnTimeline
from repro.churn.trace import ChurnTrace, NodeSchedule

HORIZON = 1000.0

# Raw, possibly overlapping/touching/zero-length intervals inside the
# horizon; the timeline and NodeSchedule must normalize them identically.
interval = st.tuples(
    st.floats(0.0, HORIZON, allow_nan=False, width=32),
    st.floats(0.0, HORIZON, allow_nan=False, width=32),
).map(lambda pair: (min(pair), max(pair)))

interval_lists = st.lists(st.lists(interval, max_size=8), min_size=1, max_size=6)

query_times = st.lists(
    st.one_of(
        st.floats(0.0, HORIZON, allow_nan=False, width=32),
        st.sampled_from([0.0, 1.0, HORIZON / 2, HORIZON - 1.0, HORIZON]),
    ),
    min_size=1,
    max_size=8,
)


def make_pair(lists):
    """(timeline, parallel NodeSchedules) over the same interval lists."""
    timeline = ChurnTimeline.from_interval_lists(lists, HORIZON)
    schedules = [NodeSchedule(intervals) for intervals in lists]
    return timeline, schedules


class TestStructure:
    @given(lists=interval_lists)
    @settings(max_examples=100, deadline=None)
    def test_sessions_disjoint_sorted_per_node(self, lists):
        timeline, schedules = make_pair(lists)
        timeline.validate()
        # Normalization parity: the per-node sessions equal NodeSchedule's.
        for i, schedule in enumerate(schedules):
            starts, ends = timeline.sessions_of(i)
            assert tuple(zip(starts.tolist(), ends.tolist())) == schedule.intervals

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ChurnTimeline(2, 100.0, np.array([0]), np.array([0.0, 1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            ChurnTimeline(1, 100.0, np.array([3]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            ChurnTimeline(1, 100.0, np.array([0]), np.array([5.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            ChurnTimeline(1, 0.0, np.array([], dtype=int), np.array([]), np.array([]))

    def test_out_of_horizon_sessions_tolerated_but_fail_validate(self):
        # ChurnTrace always accepted schedules that spill past the
        # horizon; the timeline must answer for them too, while
        # validate() (the scenario-compilation contract) still objects.
        timeline = ChurnTimeline(
            1, 50.0, np.array([0]), np.array([-10.0]), np.array([100.0])
        )
        assert timeline.online_mask(25.0)[0]
        assert timeline.is_online_array(np.array([0]), 80.0)[0]
        assert timeline.uptime_array(np.array([0]), 50.0)[0] == pytest.approx(50.0)
        assert timeline.lifetime_availability_array()[0] == pytest.approx(1.0)
        with pytest.raises(AssertionError):
            timeline.validate()

    def test_trace_with_overlong_schedule_answers_batch_queries(self):
        trace = ChurnTrace({"a": NodeSchedule([(0.0, 100.0)])}, horizon=50.0)
        assert trace.online_nodes(10.0) == ["a"]
        assert trace.online_count(60.0) == 1
        assert trace.availabilities()["a"] == pytest.approx(1.0)

    def test_merges_overlapping_sessions(self):
        timeline = ChurnTimeline(
            1, 100.0,
            np.array([0, 0, 0]),
            np.array([0.0, 5.0, 30.0]),
            np.array([10.0, 20.0, 40.0]),
        )
        starts, ends = timeline.sessions_of(0)
        assert starts.tolist() == [0.0, 30.0]
        assert ends.tolist() == [20.0, 40.0]

    def test_empty_timeline(self):
        timeline = ChurnTimeline(
            3, 50.0, np.array([], dtype=int), np.array([]), np.array([])
        )
        timeline.validate()
        assert not timeline.online_mask(10.0).any()
        assert timeline.availability_array(np.arange(3), 25.0).tolist() == [0.0] * 3


class TestQueryParity:
    @given(lists=interval_lists, times=query_times)
    @settings(max_examples=120, deadline=None)
    def test_presence_matches_schedules(self, lists, times):
        timeline, schedules = make_pair(lists)
        nodes = np.arange(len(lists), dtype=np.int64)
        for t in times:
            mask = timeline.online_mask(t)
            batch = timeline.is_online_array(nodes, t)
            scalar = [s.is_online(t) for s in schedules]
            assert mask.tolist() == scalar
            assert batch.tolist() == scalar
            # the snapshot carried over from the previous (unordered)
            # time is only reused when no session edge lies between
            assert timeline.presence_snapshot(t).tolist() == scalar

    @given(lists=interval_lists)
    @settings(max_examples=60, deadline=None)
    def test_presence_snapshot_holds_exactly_from_edge_to_edge(self, lists):
        timeline, _ = make_pair(lists)
        edges = np.unique(np.concatenate((timeline.starts, timeline.ends)))
        probes = np.concatenate(
            (edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [-1.0, 2 * HORIZON])
        )
        for t in probes.tolist():
            snapshot = timeline.presence_snapshot(t)
            assert snapshot.tolist() == timeline.online_mask(t).tolist()
            assert not snapshot.flags.writeable
        for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
            held = timeline.presence_snapshot(lo)
            assert timeline.presence_snapshot((lo + hi) / 2) is held
            assert timeline.presence_snapshot(np.nextafter(hi, -np.inf)) is held
            assert timeline.presence_snapshot(hi) is not held

    @given(
        lists=st.lists(st.lists(interval, max_size=8), min_size=2, max_size=6),
        times=query_times,
    )
    @settings(max_examples=120, deadline=None)
    def test_snapshot_availability_is_availability_array_bit_for_bit(self, lists, times):
        """The edge-to-edge snapshot's availability is the segment-search
        answer with the same association: random times, every session
        edge and its float neighbours, before a node's first session, and
        a node that is never online — equal as floats, not approximately."""
        lists = lists + [[]]  # a never-online node
        timeline, _ = make_pair(lists)
        rows = np.arange(len(lists), dtype=np.int64)
        edges = np.unique(np.concatenate((timeline.starts, timeline.ends)))
        probes = np.concatenate(
            (times, edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [-5.0])
        )
        for t in probes.tolist():
            snapshot = timeline.snapshot(t)
            assert snapshot.valid_from <= t < snapshot.valid_until
            expected = timeline.availability_array(rows, t)
            got = snapshot.availability(rows, t)
            assert got.tolist() == expected.tolist()
            assert got[-1] == 0.0
            subset = rows[::2]
            assert snapshot.availability(subset, t).tolist() == expected[::2].tolist()
            # One window, one object: a second request inside it is a hit.
            assert timeline.snapshot(t) is snapshot
            assert timeline.live_snapshot(t) is snapshot

    @given(lists=interval_lists, times=query_times, anchor=st.floats(0.0, HORIZON, width=32))
    @settings(max_examples=100, deadline=None)
    def test_trace_scalar_presence_same_inside_and_outside_the_window(self, lists, times, anchor):
        timeline, schedules = make_pair(lists)
        trace = timeline.to_trace()
        window = timeline.snapshot(anchor)
        bounds = [b for b in (window.valid_from, window.valid_until) if np.isfinite(b)]
        for t in list(times) + bounds:
            for node, schedule in enumerate(schedules):
                assert trace.is_online(node, t) == bool(schedule.is_online(t))
            assert trace.is_online(len(schedules), t) is False  # unknown key
        assert timeline.snapshot(anchor) is window

    def test_snapshot_availability_counts_uptime_before_time_zero(self):
        # A session that began before t = 0 (tolerated, see TestStructure):
        # availability over [0, t] subtracts the uptime before 0, exactly
        # as availability_array does.
        timeline = ChurnTimeline(
            2, 100.0, np.array([0, 0, 1]), np.array([-10.0, 40.0, 5.0]), np.array([20.0, 60.0, 15.0])
        )
        rows = np.arange(2)
        for t in (10.0, 20.0, 30.0, 50.0, 99.0):
            expected = timeline.availability_array(rows, t)
            assert timeline.snapshot(t).availability(rows, t).tolist() == expected.tolist()

    def test_live_snapshot_never_builds(self):
        timeline = ChurnTimeline.from_interval_lists([[(10.0, 20.0)], [(15.0, 30.0)]], HORIZON)
        assert timeline.live_snapshot(12.0) is None
        built = timeline.snapshot(12.0)
        assert (built.valid_from, built.valid_until) == (10.0, 15.0)
        assert timeline.live_snapshot(10.0) is built
        assert timeline.live_snapshot(np.nextafter(15.0, 0.0)) is built
        assert timeline.live_snapshot(15.0) is None  # [from, until)
        assert timeline.live_snapshot(np.nextafter(10.0, 0.0)) is None
        assert timeline.snapshot(12.0) is built  # a miss did not evict it
        for column in (built.online, *timeline._snapshot_sessions(12.0)):
            assert not column.flags.writeable

    @given(lists=interval_lists, times=query_times)
    @settings(max_examples=120, deadline=None)
    def test_uptime_and_availability_match_schedules(self, lists, times):
        timeline, schedules = make_pair(lists)
        nodes = np.arange(len(lists), dtype=np.int64)
        for t in times:
            up = timeline.uptime_array(nodes, t)
            scalar_up = [s.uptime(t) for s in schedules]
            assert np.allclose(up, scalar_up, rtol=0.0, atol=1e-6)
            av = timeline.availability_array(nodes, t)
            scalar_av = [s.availability(t) for s in schedules]
            assert np.allclose(av, scalar_av, rtol=0.0, atol=1e-9)

    @given(lists=interval_lists, times=query_times, window=st.floats(1.0, HORIZON))
    @settings(max_examples=100, deadline=None)
    def test_windowed_availability_matches_schedules(self, lists, times, window):
        timeline, schedules = make_pair(lists)
        nodes = np.arange(len(lists), dtype=np.int64)
        for t in times:
            got = timeline.windowed_availability_array(nodes, t, window)
            since = max(0.0, t - window)
            want = [s.availability(t, since) for s in schedules]
            assert np.allclose(got, want, rtol=0.0, atol=1e-9)

    @given(lists=interval_lists)
    @settings(max_examples=60, deadline=None)
    def test_lifetime_availability(self, lists):
        timeline, schedules = make_pair(lists)
        got = timeline.lifetime_availability_array()
        want = [s.availability(HORIZON) for s in schedules]
        assert np.allclose(got, want, rtol=0.0, atol=1e-9)

    def test_mixed_per_query_times(self):
        timeline, schedules = make_pair([[(0.0, 100.0)], [(50.0, 80.0)]])
        got = timeline.is_online_array(np.array([0, 1]), np.array([120.0, 60.0]))
        assert got.tolist() == [False, True]
        up = timeline.uptime_array(np.array([0, 1]), np.array([120.0, 60.0]))
        assert np.allclose(up, [100.0, 10.0])

    def test_negative_time_is_offline_with_zero_uptime(self):
        timeline, _ = make_pair([[(0.0, 10.0)]])
        assert not timeline.is_online_array(np.array([0]), -5.0)[0]
        assert timeline.uptime_array(np.array([0]), 0.0, 0.0)[0] == 0.0

    def test_uptime_rejects_reversed_window(self):
        timeline, _ = make_pair([[(0.0, 10.0)]])
        with pytest.raises(ValueError):
            timeline.uptime_array(np.array([0]), 1.0, since=5.0)


class TestMatrixRoundTrip:
    @given(
        matrix=st.lists(
            st.lists(st.booleans(), min_size=3, max_size=3),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_from_matrix_matches_trace(self, matrix):
        arr = np.array(matrix, dtype=bool)
        epoch = 10.0
        timeline = ChurnTimeline.from_matrix(arr, epoch)
        timeline.validate()
        trace = ChurnTrace.from_matrix(arr, ["a", "b", "c"], epoch)
        probes = np.concatenate([
            (np.arange(arr.shape[0]) + 0.5) * epoch,
            np.arange(arr.shape[0] + 1, dtype=float) * epoch,
        ])
        for t in probes:
            assert timeline.online_mask(t).tolist() == [
                trace.is_online(k, t) for k in ("a", "b", "c")
            ]

    def test_availability_matrix_shapes_and_values(self):
        timeline, schedules = make_pair([[(0.0, 500.0)], [(250.0, 1000.0)]])
        times = [100.0, 500.0, 900.0]
        raw = timeline.availability_matrix(times)
        assert raw.shape == (3, 2)
        for row, t in enumerate(times):
            for i, schedule in enumerate(schedules):
                assert raw[row, i] == pytest.approx(schedule.availability(t))
        aged = timeline.availability_matrix(times, window=200.0)
        for row, t in enumerate(times):
            for i, schedule in enumerate(schedules):
                want = schedule.availability(t, max(0.0, t - 200.0))
                assert aged[row, i] == pytest.approx(want)

    def test_online_mask_matrix(self):
        timeline, _ = make_pair([[(0.0, 500.0)], [(250.0, 1000.0)]])
        matrix = timeline.online_mask_matrix([100.0, 600.0])
        assert matrix.tolist() == [[True, False], [False, True]]


class TestSeriesQueries:
    """The whole-population series batch paths (stats ride these)."""

    def test_online_count_series_matches_online_count(self):
        timeline, _ = make_pair(
            [[(0.0, 500.0)], [(250.0, 1000.0)], [(100.0, 300.0), (600.0, 900.0)]]
        )
        times = np.array([0.0, 99.9, 250.0, 500.0, 650.0, 999.0, 1000.0])
        counts = timeline.online_count_series(times)
        assert counts.tolist() == [timeline.online_count(t) for t in times]

    def test_online_mask_matrix_matches_online_mask(self):
        timeline, _ = make_pair(
            [[(0.0, 500.0)], [(250.0, 1000.0)], [(100.0, 300.0), (600.0, 900.0)]]
        )
        times = [0.0, 250.0, 550.0, 899.9, 1000.0]
        matrix = timeline.online_mask_matrix(times)
        for row, t in enumerate(times):
            assert matrix[row].tolist() == timeline.online_mask(t).tolist()

    def test_online_mask_matrix_unsorted_times(self):
        timeline, _ = make_pair([[(0.0, 500.0)], [(250.0, 1000.0)]])
        matrix = timeline.online_mask_matrix([600.0, 100.0])
        assert matrix.tolist() == [[False, True], [True, False]]

    def test_empty_times(self):
        timeline, _ = make_pair([[(0.0, 500.0)]])
        assert timeline.online_mask_matrix([]).shape == (0, 1)
        assert timeline.online_count_series([]).size == 0
