"""Scheduler semantics a sequential protocol script relies on: chains of
callbacks that schedule their own next step, and periodic tasks."""

import pytest

from repro.sim.engine import PeriodicTask, SimulationError, Simulator


def chain(sim: Simulator, delays, step, start: float = 0.0):
    """Run ``step()`` after ``start`` and then after each of ``delays``
    in turn, each delay relative to the previous step.  Returns a dict
    whose ``"event"`` is the chain's pending handle, so a test can cancel
    it."""
    remaining = list(delays)
    holder = {}

    def fire():
        step()
        if remaining:
            holder["event"] = sim.schedule(remaining.pop(0), fire)

    holder["event"] = sim.schedule(start, fire)
    return holder


class TestProcessExecution:
    def test_sequential_delays(self, sim):
        log = []
        chain(sim, [5.0, 2.5], lambda: log.append(sim.now))
        sim.run()
        assert log == [0.0, 5.0, 7.5]

    def test_initial_spawn_delay(self, sim):
        log = []
        chain(sim, [], lambda: log.append(sim.now), start=3.0)
        sim.run()
        assert log == [3.0]

    def test_zero_delay_yields_allowed(self, sim):
        log = []
        chain(sim, [0.0], lambda: log.append(sim.now))
        sim.run()
        assert log == [0.0, 0.0]

    def test_two_processes_interleave(self, sim):
        log = []
        chain(sim, [1.0] * 2, lambda: log.append(("fast", sim.now)), start=1.0)
        chain(sim, [2.0] * 2, lambda: log.append(("slow", sim.now)), start=2.0)
        sim.run()
        assert log == [
            ("fast", 1.0),
            ("slow", 2.0),  # slow's t=2 step was scheduled first (FIFO)
            ("fast", 2.0),
            ("fast", 3.0),
            ("slow", 4.0),
            ("slow", 6.0),
        ]


class TestProcessErrors:
    def test_negative_yield_raises(self, sim):
        def step():
            sim.schedule(-1.0, step)

        sim.schedule(1.0, step)
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_propagates(self, sim):
        calls = []

        def step():
            calls.append(sim.now)
            if len(calls) == 2:
                raise ValueError("boom")

        chain(sim, [1.0, 1.0], step)
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert calls == [0.0, 1.0]


class TestInterrupt:
    def test_interrupt_stops_process(self, sim):
        log = []
        holder = chain(sim, [1.0] * 20, lambda: log.append(sim.now), start=1.0)
        sim.run_until(3.5)
        assert holder["event"].cancel()
        sim.run_until(10.0)
        assert log == [1.0, 2.0, 3.0]
        assert not holder["event"].pending

    def test_interrupt_runs_finally(self, sim):
        log = []
        task = PeriodicTask(sim, 1.0, lambda: log.append(sim.now))
        sim.run_until(2.0)
        task.stop()
        sim.run_until(10.0)
        assert log == [1.0, 2.0]
        assert task.stopped and task.fire_count == 2

    def test_interrupt_after_done_is_noop(self, sim):
        log = []
        event = sim.schedule(1.0, log.append, 5)
        sim.run()
        assert not event.cancel()
        assert event.fired and not event.cancelled
        assert log == [5]
