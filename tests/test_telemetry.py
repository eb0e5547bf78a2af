"""Tests for the run-level telemetry subsystem.

Covers the recorder primitives (counters, gauges, power-of-two
histograms, nested spans with exception unwinding), the exact JSON
round-trip of :class:`~repro.telemetry.snapshot.TelemetrySnapshot`
(hypothesis-generated), the disabled-recorder overhead contract, the
no-perturbation contract (seeded runs produce bit-identical operation
records with telemetry on or off), RSS unit conversion, and the
progress reporter.
"""

from __future__ import annotations

import io
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    TELEMETRY,
    Histogram,
    ProgressReporter,
    TelemetryRecorder,
    TelemetrySnapshot,
    render_diff,
    render_snapshot,
    ru_maxrss_to_mb,
)
from repro.telemetry.core import NULL_SPAN
from repro.telemetry.snapshot import FORMAT, SpanStat


@pytest.fixture
def recorder() -> TelemetryRecorder:
    return TelemetryRecorder(enabled=True)


@pytest.fixture
def global_telemetry():
    """The process-wide recorder, guaranteed disabled+reset afterwards."""
    TELEMETRY.enable(reset=True)
    try:
        yield TELEMETRY
    finally:
        TELEMETRY.disable()
        TELEMETRY.attach_progress(None)
        TELEMETRY.reset()


class TestHistogram:
    def test_bucket_boundaries(self):
        hist = Histogram()
        for value in (0, 1, 2, 3, 4, 5, 8, 9):
            hist.observe(value)
        # [0,1] -> bucket 0; (1,2] -> 1; (2,4] -> 2; (4,8] -> 3; (8,16] -> 4
        assert hist.counts[0] == 2
        assert hist.counts[1] == 1
        assert hist.counts[2] == 2
        assert hist.counts[3] == 2
        assert hist.counts[4] == 1
        assert hist.count == 8
        assert hist.total == 32.0
        assert hist.vmin == 0.0 and hist.vmax == 9.0

    def test_array_observe_matches_scalar(self, rng):
        values = rng.uniform(0, 5000, size=400)
        a, b = Histogram(), Histogram()
        for v in values:
            a.observe(v)
        b.observe_array(values)
        assert np.array_equal(a.counts, b.counts)
        assert a.count == b.count
        assert a.total == pytest.approx(b.total)
        assert a.vmin == b.vmin and a.vmax == b.vmax

    def test_negative_rejected(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.observe(-1.0)
        with pytest.raises(ValueError):
            hist.observe_array(np.array([1.0, -0.5]))

    def test_empty_as_dict(self):
        payload = Histogram().as_dict()
        assert payload["count"] == 0
        assert payload["counts"] == []
        assert payload["min"] is None and payload["max"] is None

    def test_mean(self):
        hist = Histogram()
        hist.observe_array(np.array([2.0, 4.0, 6.0]))
        assert hist.mean() == pytest.approx(4.0)
        assert Histogram().mean() != Histogram().mean()  # NaN


class TestSpans:
    def test_nesting_aggregates_into_tree(self, recorder):
        for _ in range(3):
            with recorder.span("outer"):
                with recorder.span("inner"):
                    pass
        with recorder.span("other"):
            pass
        snapshot = recorder.snapshot()
        paths = snapshot.span_paths()
        assert set(paths) == {"outer", "outer.inner", "other"}
        assert paths["outer"].count == 3
        assert paths["outer.inner"].count == 3
        assert paths["other"].count == 1
        assert paths["outer"].seconds >= paths["outer.inner"].seconds

    def test_same_name_at_different_depths_distinct(self, recorder):
        with recorder.span("a"):
            with recorder.span("a"):
                pass
        paths = recorder.snapshot().span_paths()
        assert paths["a"].count == 1
        assert paths["a.a"].count == 1

    def test_exception_unwinds_and_records(self, recorder):
        with pytest.raises(RuntimeError):
            with recorder.span("outer"):
                with recorder.span("inner"):
                    raise RuntimeError("boom")
        assert recorder._span_stack == []
        paths = recorder.snapshot().span_paths()
        assert paths["outer"].count == 1
        assert paths["inner" if "inner" in paths else "outer.inner"].count == 1
        # Recorder still usable: subsequent spans nest from the root.
        with recorder.span("after"):
            pass
        assert "after" in recorder.snapshot().span_paths()

    def test_self_seconds_subtracts_children(self, recorder):
        with recorder.span("outer"):
            with recorder.span("inner"):
                time.sleep(0.002)
        outer = recorder.snapshot().find_span("outer")
        inner = recorder.snapshot().find_span("outer.inner")
        assert outer.self_seconds == pytest.approx(
            outer.seconds - inner.seconds
        )

    def test_disabled_span_is_shared_noop(self):
        recorder = TelemetryRecorder(enabled=False)
        assert recorder.span("x") is NULL_SPAN
        assert recorder.span("y") is NULL_SPAN
        with recorder.span("x"):
            pass
        assert recorder.snapshot().spans == ()


class TestRecorder:
    def test_counters_gauges_histograms(self, recorder):
        recorder.count("a")
        recorder.count("a", 4)
        recorder.gauge("g", 2.5)
        recorder.gauge("g", 7.5)
        recorder.observe("h", 3)
        recorder.observe_array("h", np.array([1, 10]))
        snapshot = recorder.snapshot()
        assert snapshot.counters["a"] == 5
        assert snapshot.gauges["g"] == 7.5
        assert snapshot.histograms["h"]["count"] == 3

    def test_enable_resets_by_default(self, recorder):
        recorder.count("a")
        recorder.enable()
        assert recorder.snapshot().counters == {}
        recorder.count("b")
        recorder.enable(reset=False)
        assert recorder.snapshot().counters == {"b": 1}

    def test_event_tick_counts_and_samples(self, recorder):
        from repro.sim.engine import Simulator

        sim = Simulator()
        for _ in range(3000):
            recorder.event_tick(sim)
        snapshot = recorder.snapshot()
        assert snapshot.counters["sim.events"] == 3000
        assert "sim.queue_depth" in snapshot.gauges
        assert "sim.now" in snapshot.gauges

    def test_distribution_bridge(self, recorder):
        from repro.sim.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("sent").increment(7)
        registry.distribution("sizes").extend([1.0, 2.0, 3.0])
        registry.distribution("untouched")  # empty: must be skipped
        registry.export(recorder)
        snapshot = recorder.snapshot()
        assert snapshot.counters["metrics.sent"] == 7
        assert snapshot.distributions["metrics.sizes"]["count"] == 3.0
        assert "metrics.untouched" not in snapshot.distributions

    def test_export_noop_when_disabled(self):
        from repro.sim.metrics import MetricsRegistry

        recorder = TelemetryRecorder(enabled=False)
        registry = MetricsRegistry()
        registry.counter("sent").increment(1)
        registry.export(recorder)
        assert recorder.snapshot().counters == {}


finite_floats = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="._-"),
    min_size=1,
    max_size=24,
)


def span_stats(depth: int = 2):
    base = st.builds(
        SpanStat,
        name=names,
        count=st.integers(min_value=1, max_value=10_000),
        seconds=finite_floats,
    )
    if depth == 0:
        return base
    return st.builds(
        SpanStat,
        name=names,
        count=st.integers(min_value=1, max_value=10_000),
        seconds=finite_floats,
        children=st.lists(span_stats(depth - 1), max_size=3).map(tuple),
    )


snapshots = st.builds(
    TelemetrySnapshot,
    wall_seconds=finite_floats,
    counters=st.dictionaries(names, st.integers(min_value=0, max_value=2**53), max_size=5),
    gauges=st.dictionaries(names, finite_floats, max_size=5),
    histograms=st.dictionaries(
        names,
        st.builds(
            lambda counts, vals: {
                "counts": counts,
                "count": sum(counts),
                "sum": float(sum(vals)),
                "min": (min(vals) if counts and sum(counts) else None),
                "max": (max(vals) if counts and sum(counts) else None),
            },
            counts=st.lists(st.integers(min_value=1, max_value=100), max_size=4),
            vals=st.lists(finite_floats, min_size=1, max_size=4),
        ),
        max_size=3,
    ),
    distributions=st.dictionaries(
        names, st.dictionaries(names, finite_floats, min_size=1, max_size=4), max_size=3
    ),
    spans=st.lists(span_stats(), max_size=3).map(tuple),
)


class TestSnapshotRoundTrip:
    @given(snapshot=snapshots)
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_exact(self, snapshot, tmp_path_factory):
        path = tmp_path_factory.mktemp("tel") / "snap.json"
        snapshot.to_json(str(path))
        assert TelemetrySnapshot.from_json(str(path)) == snapshot

    def test_live_recorder_round_trip(self, recorder, tmp_path):
        recorder.count("events", 12)
        recorder.gauge("depth", 3.0)
        recorder.observe_array("cohorts", np.array([1, 2, 300]))
        recorder.distribution("lat", {"count": 2.0, "mean": 5.5})
        with recorder.span("build"):
            with recorder.span("inner"):
                pass
        snapshot = recorder.snapshot()
        path = tmp_path / "tel.json"
        snapshot.to_json(str(path))
        assert TelemetrySnapshot.from_json(str(path)) == snapshot

    def test_nan_distribution_scrubbed(self, recorder, tmp_path):
        recorder.distribution("empty", {"mean": float("nan"), "count": 0.0})
        path = tmp_path / "tel.json"
        recorder.snapshot().to_json(str(path))
        text = path.read_text()
        assert "NaN" not in text
        loaded = TelemetrySnapshot.from_json(str(path))
        assert loaded.distributions["empty"]["mean"] != loaded.distributions["empty"]["mean"]

    def test_format_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            TelemetrySnapshot.from_json(str(path))
        assert FORMAT == "avmem-telemetry-v1"

    def test_coverage_and_breakdown(self):
        snapshot = TelemetrySnapshot(
            wall_seconds=10.0,
            spans=(
                SpanStat(
                    name="run",
                    count=1,
                    seconds=9.5,
                    children=(SpanStat(name="sub", count=2, seconds=4.0),),
                ),
            ),
        )
        assert snapshot.span_coverage() == pytest.approx(0.95)
        rows = {row["phase"]: row for row in snapshot.phase_breakdown()}
        assert rows["run"]["self_seconds"] == pytest.approx(5.5)
        assert rows["run.sub"]["seconds"] == pytest.approx(4.0)


class TestRender:
    def test_render_snapshot_mentions_everything(self, recorder):
        recorder.count("net.drops", 3)
        recorder.gauge("queue", 17.0)
        recorder.observe("cohort", 5)
        recorder.distribution("lat", {"mean": 1.5})
        with recorder.span("phase"):
            pass
        text = render_snapshot(recorder.snapshot())
        for token in ("net.drops", "queue", "cohort", "lat", "phase", "wall-clock"):
            assert token in text

    def test_render_diff_marks_new_and_gone(self, recorder):
        a = recorder.snapshot()
        recorder.count("only.b", 2)
        b = recorder.snapshot()
        text = render_diff(a, b)
        assert "only.b" in text and "(new)" in text
        text_rev = render_diff(b, a)
        assert "(gone)" in text_rev


class TestDisabledOverhead:
    def test_disabled_span_allocates_nothing(self):
        recorder = TelemetryRecorder(enabled=False)
        spans = {id(recorder.span("x")) for _ in range(100)}
        assert spans == {id(NULL_SPAN)}

    def test_guard_overhead_small(self):
        """The per-event cost while disabled is one attribute check; a
        generous factor over an empty loop keeps this meaningful without
        being timing-flaky."""
        recorder = TelemetryRecorder(enabled=False)
        n = 200_000

        def guarded() -> float:
            t0 = time.perf_counter()
            for _ in range(n):
                if recorder.enabled:
                    recorder.count("x")
            return time.perf_counter() - t0

        flag = False

        def baseline() -> float:
            t0 = time.perf_counter()
            for _ in range(n):
                if flag:
                    pass
            return time.perf_counter() - t0

        guarded_best = min(guarded() for _ in range(5))
        baseline_best = min(baseline() for _ in range(5))
        assert guarded_best < baseline_best * 10 + 0.01


class TestNoPerturbation:
    def test_seeded_records_identical_with_telemetry(self, global_telemetry):
        """Telemetry on vs off must not move a single byte of the seeded
        operation log (instrumentation reads clocks, never rng)."""
        from repro.ops.plan import OperationItem, OperationPlan
        from repro.ops.spec import TargetSpec
        from repro.simulation import AvmemSimulation, SimulationSettings

        def run_once():
            sim = AvmemSimulation(SimulationSettings(hosts=150, seed=11))
            sim.setup(warmup=3600.0, settle=600.0)
            plan = OperationPlan(
                items=(
                    OperationItem(
                        kind="anycast",
                        target=TargetSpec.range(0.4, 0.9),
                        count=5,
                        band="mid",
                    ),
                    OperationItem(
                        kind="multicast",
                        target=TargetSpec.range(0.5, 0.95),
                        count=2,
                        band="high",
                    ),
                ),
                settle=30.0,
                name="identity-check",
            )
            return sim.ops.run(plan), sim

        global_telemetry.enable(reset=True)
        log_on, sim_on = run_once()
        global_telemetry.disable()
        log_off, _ = run_once()
        assert set(log_on.columns) == set(log_off.columns)
        for name in log_on.columns:
            assert np.array_equal(
                log_on.columns[name], log_off.columns[name], equal_nan=True
            ), f"column {name} diverged under telemetry"
        # And the enabled run actually recorded something.
        snapshot = global_telemetry.snapshot()
        assert snapshot.counters.get("sim.events", 0) > 0
        assert snapshot.find_span("ops.execute") is not None
        # Per-protocol attribution: the maintenance counters are the
        # nodes' own round counts, and summarize renders them.
        nodes = sim_on.nodes.values()
        counters = snapshot.counters
        assert counters["node.discovery.rounds"] == sum(n.discovery_rounds for n in nodes) > 0
        assert counters["node.refresh.rounds"] == sum(n.refresh_rounds for n in nodes) > 0
        assert counters["node.discovery.candidates"] >= counters["node.discovery.added"] > 0
        assert counters["node.refresh.evicted"] >= 0
        rendered = render_snapshot(snapshot)
        assert f"discovery  rounds={counters['node.discovery.rounds']}" in rendered
        assert f"refresh    rounds={counters['node.refresh.rounds']}" in rendered
        # The two operation-plane caches count their rebuilds (and only
        # those): far fewer snapshots than launches + messages, and no
        # more neighbor views than there were tables to read.
        assert 0 < counters["churn.snapshot.rebuilds"] < counters["sim.events"]
        assert counters["membership.view.rebuilds"] > 0
        assert f"snapshot  rebuilds={counters['churn.snapshot.rebuilds']}" in rendered
        assert f"view     rebuilds={counters['membership.view.rebuilds']}" in rendered

    def test_drop_counters_equal_network_stats(self, global_telemetry):
        """Every drop is recorded through one ``Network`` helper: after
        a seeded plan straddling epoch boundaries the three
        ``net.drop.<reason>`` counters equal ``Network.stats.dropped``."""
        from repro.sim.network import DropReason
        from test_golden_logs import build_sim, parity_plan

        simulation = build_sim(5, shape=(600, "off", 600.0))
        simulation.ops.run(parity_plan("greedy", "flood"))
        counters = global_telemetry.snapshot().counters
        dropped = simulation.network.stats.dropped
        assert dropped[DropReason.DST_OFFLINE] > 0
        for reason in (DropReason.SRC_OFFLINE, DropReason.DST_OFFLINE, DropReason.NO_HANDLER):
            assert counters.get(f"net.drop.{reason}", 0) == dropped.get(reason, 0), reason


class TestRss:
    def test_linux_units_kilobytes(self):
        assert ru_maxrss_to_mb(1_048_576, platform="linux") == pytest.approx(1024.0)
        assert ru_maxrss_to_mb(2048, platform="linux2") == pytest.approx(2.0)

    def test_darwin_units_bytes(self):
        assert ru_maxrss_to_mb(1_073_741_824, platform="darwin") == pytest.approx(1024.0)
        assert ru_maxrss_to_mb(1_048_576, platform="darwin") == pytest.approx(1.0)

    def test_peak_and_current_rss_positive(self):
        from repro.telemetry import current_rss_mb, peak_rss_mb

        peak = peak_rss_mb()
        if peak is not None:
            assert peak > 1.0
        current = current_rss_mb()
        if current is not None:
            assert current > 1.0

    def test_bench_util_delegates(self):
        import sys

        sys_path = list(sys.path)
        try:
            import os

            sys.path.insert(
                0, os.path.join(os.path.dirname(__file__), "..", "benchmarks")
            )
            os.environ["AVMEM_BENCH_TELEMETRY"] = "0"
            import bench_util

            from repro.telemetry.rss import peak_rss_mb as canonical

            assert bench_util.peak_rss_mb is canonical
        finally:
            sys.path[:] = sys_path
            os.environ.pop("AVMEM_BENCH_TELEMETRY", None)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestProgressReporter:
    def test_rate_limited_emission(self):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(interval=10.0, stream=stream, clock=clock)
        assert not reporter.poke()  # t=0: within the first interval
        clock.now = 5.0
        assert not reporter.poke()
        clock.now = 11.0
        assert reporter.poke()
        clock.now = 12.0
        assert not reporter.poke()  # rate-limited again
        assert reporter.lines_emitted == 1
        assert "[progress" in stream.getvalue()

    def test_sim_fields_rendered(self):
        from repro.sim.engine import Simulator

        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(interval=1.0, stream=stream, clock=clock)
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until(2.0)
        clock.now = 2.0
        assert reporter.poke(sim=sim)
        line = stream.getvalue()
        assert "sim-t=" in line
        assert "events=" in line
        assert "pending=" in line

    def test_context_rendered(self):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(interval=1.0, stream=stream, clock=clock)
        clock.now = 1.5
        assert reporter.poke(context="overlay.candidates")
        assert "overlay.candidates" in stream.getvalue()


class TestContextRouting:
    """current()/use_recorder() — the per-session routing layer."""

    def test_default_is_singleton(self):
        from repro.telemetry import current

        assert current() is TELEMETRY

    def test_use_recorder_overrides_and_restores(self, recorder):
        from repro.telemetry import current, use_recorder

        with use_recorder(recorder) as active:
            assert active is recorder
            assert current() is recorder
        assert current() is TELEMETRY

    def test_nested_contexts_unwind_in_order(self, recorder):
        from repro.telemetry import current, use_recorder

        inner = TelemetryRecorder(enabled=True)
        with use_recorder(recorder):
            with use_recorder(inner):
                assert current() is inner
            assert current() is recorder
        assert current() is TELEMETRY

    def test_restored_on_exception(self, recorder):
        from repro.telemetry import current, use_recorder

        with pytest.raises(RuntimeError):
            with use_recorder(recorder):
                raise RuntimeError("boom")
        assert current() is TELEMETRY

    def test_threads_see_their_own_recorder(self):
        import threading

        from repro.telemetry import current, use_recorder

        results = {}
        barrier = threading.Barrier(2)

        def work(name):
            mine = TelemetryRecorder(enabled=True)
            with use_recorder(mine):
                barrier.wait(5.0)  # both threads inside their contexts
                with current().span(f"phase.{name}"):
                    pass
                results[name] = current().snapshot()

        threads = [threading.Thread(target=work, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert results["a"].find_span("phase.a") is not None
        assert results["a"].find_span("phase.b") is None
        assert results["b"].find_span("phase.b") is not None
        assert results["b"].find_span("phase.a") is None

    def test_spans_land_in_active_recorder_not_singleton(self, recorder):
        from repro.telemetry import use_recorder

        with use_recorder(recorder):
            from repro.telemetry import current

            with current().span("routed.phase"):
                pass
        assert recorder.snapshot().find_span("routed.phase") is not None
        assert TELEMETRY.snapshot().find_span("routed.phase") is None
