"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import PeriodicTask, SimulationError, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_fire_in_scheduling_order(self, sim):
        order = []
        for tag in range(10):
            sim.schedule(5.0, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]
        assert sim.now == 7.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_non_callable_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.schedule(1.0, "not callable")

    def test_callback_args_passed(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_events_scheduled_during_run_execute(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        assert handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_returns_false_after_firing(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert not handle.cancel()

    def test_double_cancel_returns_false(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()

    def test_event_state_flags(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending and not handle.fired and not handle.cancelled
        sim.run()
        assert handle.fired and not handle.pending


class TestRunUntil:
    def test_runs_only_events_before_deadline(self, sim):
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule(5.0, order.append, "b")
        executed = sim.run_until(3.0)
        assert executed == 1
        assert order == ["a"]
        assert sim.now == 3.0

    def test_clock_advances_even_with_no_events(self, sim):
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_event_exactly_at_deadline_fires(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, 1)
        sim.run_until(3.0)
        assert fired == [1]

    def test_backwards_run_until_rejected(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_remaining_events_fire_on_later_run(self, sim):
        order = []
        sim.schedule(5.0, order.append, "late")
        sim.run_until(1.0)
        sim.run()
        assert order == ["late"]


class TestRunControls:
    def test_max_events(self, sim):
        order = []
        for i in range(5):
            sim.schedule(float(i + 1), order.append, i)
        executed = sim.run(max_events=3)
        assert executed == 3
        assert order == [0, 1, 2]

    def test_stop_inside_callback(self, sim):
        order = []

        def stopping():
            order.append("first")
            sim.stop()

        sim.schedule(1.0, stopping)
        sim.schedule(2.0, order.append, "second")
        sim.run()
        assert order == ["first"]
        sim.run()
        assert order == ["first", "second"]

    def test_events_processed_counter(self, sim):
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_step_returns_false_when_empty(self, sim):
        assert not sim.step()

    def test_peek_time(self, sim):
        assert sim.peek_time() is None
        sim.schedule(2.5, lambda: None)
        assert sim.peek_time() == 2.5

    def test_peek_skips_cancelled(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.peek_time() == 2.0

    def test_pending_count_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count == 1
        assert keep.pending

    def test_queue_depth_counts_cancelled_until_popped(self, sim):
        head = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        head.cancel()
        assert sim.queue_depth == 2
        assert sim.pending_times() == [2.0]
        sim.run()
        assert sim.queue_depth == 0 and sim.pending_times() == []

    def test_cancelled_head_is_skipped_not_fired(self, sim):
        order = []
        head = sim.schedule(1.0, order.append, "cancelled")
        sim.schedule(1.0, order.append, "kept")
        head.cancel()
        assert sim.run_until(1.0) == 1
        assert order == ["kept"] and sim.events_processed == 1

    def test_cancelled_head_does_not_count_against_max_events(self, sim):
        order = []
        sim.schedule(1.0, order.append, 0).cancel()
        sim.schedule(2.0, order.append, 1)
        sim.schedule(3.0, order.append, 2)
        assert sim.run(max_events=1) == 1
        assert order == [1] and sim.now == 2.0

    def test_equal_time_fifo_across_schedule_forms(self, sim):
        """schedule, schedule_at_many and schedule_at (also at the
        current instant, from inside a callback) share one sequence
        counter: equal-time events fire in scheduling order."""
        order = []
        sim.schedule(5.0, order.append, "a")
        sim.schedule_at_many([5.0, 5.0], order.append, [("b",), ("c",)])
        sim.schedule_at(5.0, order.append, "d")
        sim.schedule(5.0, lambda: sim.schedule_at(sim.now, order.append, "f"))
        sim.schedule(5.0, order.append, "e")
        sim.run()
        assert order == ["a", "b", "c", "d", "e", "f"]

    def test_stop_inside_run_until_leaves_clock_at_last_event(self, sim):
        """Regression: run_until(t) used to set now = t after a stop()
        with earlier events still queued, so the next run fired them
        with the clock jumping backwards."""
        seen = []
        sim.schedule(10.0, sim.stop)
        sim.schedule(20.0, lambda: seen.append(sim.now))
        assert sim.run_until(100.0) == 1
        assert sim.now == 10.0
        sim.run()
        assert seen == [20.0] and sim.now == 20.0
        # Without a stop the clock still lands exactly on the deadline.
        sim.run_until(100.0)
        assert sim.now == 100.0

    def test_running_flag_cleared_when_callback_raises(self, sim):
        def boom():
            raise RuntimeError("boom")

        later = []
        sim.schedule(1.0, boom)
        sim.schedule(2.0, later.append, 1)
        with pytest.raises(RuntimeError):
            sim.run_until(5.0)
        assert not sim._running
        # The failed event is gone, the clock stayed at it, the rest runs.
        assert sim.now == 1.0 and sim.events_processed == 0
        sim.run()
        assert later == [1]

    def test_schedule_at_many_validation_is_atomic(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at_many([11.0, 9.0], lambda: None, [(), ()])
        with pytest.raises(ValueError):
            sim.schedule_at_many([11.0, 12.0], lambda: None, [()])
        with pytest.raises(TypeError):
            sim.schedule_at_many([11.0], "not callable", [()])
        assert sim.queue_depth == 0

    def test_step_runs_exactly_one_event(self, sim):
        order = []
        sim.schedule(1.0, order.append, 1)
        sim.schedule(1.0, order.append, 2)
        assert sim.step()
        assert order == [1] and sim.events_processed == 1


class TestPeriodicTask:
    def test_fires_every_period(self, sim):
        times = []
        PeriodicTask(sim, 10.0, lambda: times.append(sim.now))
        sim.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_custom_start_delay(self, sim):
        times = []
        PeriodicTask(sim, 10.0, lambda: times.append(sim.now), start_delay=0.0)
        sim.run_until(25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_stop_halts_future_firings(self, sim):
        times = []
        task = PeriodicTask(sim, 10.0, lambda: times.append(sim.now))
        sim.run_until(15.0)
        task.stop()
        sim.run_until(50.0)
        assert times == [10.0]
        assert task.stopped

    def test_stop_from_inside_callback(self, sim):
        count = []
        task = PeriodicTask(sim, 5.0, lambda: (count.append(1), task.stop()))
        sim.run_until(50.0)
        assert len(count) == 1

    def test_fire_count(self, sim):
        task = PeriodicTask(sim, 1.0, lambda: None)
        sim.run_until(5.5)
        assert task.fire_count == 5

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)

    def test_jitter_requires_rng(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 1.0, lambda: None, jitter=0.5)

    def test_jitter_varies_intervals(self, sim, rng):
        times = []
        PeriodicTask(sim, 10.0, lambda: times.append(sim.now), jitter=3.0, rng=rng)
        sim.run_until(200.0)
        gaps = {round(b - a, 6) for a, b in zip(times, times[1:])}
        assert len(gaps) > 1  # not all gaps identical
        assert all(7.0 <= g <= 13.0 for g in gaps)

    def test_jitter_applies_to_first_firing(self, sim, rng):
        """Regression: with ``start_delay=None`` the first firing must be
        jittered like every later interval — otherwise an unstaggered
        population that requested jitter still fires its first round in
        lockstep at exactly one period."""
        times = []
        PeriodicTask(sim, 100.0, lambda: times.append(sim.now), jitter=50.0, rng=rng)
        sim.run_until(200.0)
        first = times[0]
        assert 50.0 <= first <= 150.0
        assert first != 100.0

    def test_first_firings_staggered_across_population(self, sim, rng):
        """Many tasks sharing period+jitter must not all fire first at
        the same instant."""
        for _ in range(20):
            PeriodicTask(sim, 100.0, (lambda: None), jitter=40.0, rng=rng)
        firsts = sim.pending_times()
        assert len(set(firsts)) > 1
        assert all(60.0 <= t <= 140.0 for t in firsts)
