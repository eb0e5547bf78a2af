"""Tests for the declarative scenario subsystem.

Every registered scenario must compile to a structurally sound timeline
whose batched answers match ``ChurnTrace`` scalar answers entry for
entry and whose realized long-run availability stays calibrated to the
spec's sampled targets; the batched oracle/cache path must agree with
the scalar path; and the harness/CLI plumbing must run every scenario
end to end.
"""

import json

import numpy as np
import pytest

from repro.churn.loader import TRACE_MODELS, generate_model_trace
from repro.cli import main
from repro.core.ids import make_node_ids
from repro.core.population import Population
from repro.experiments.harness import build_simulation, run_scenario
from repro.monitor.cache import CachedAvailabilityView
from repro.monitor.oracle import OracleAvailability
from repro.scenarios import (
    SCENARIOS,
    ChurnModelSpec,
    PerturbationSpec,
    PopulationSpec,
    ScenarioSpec,
    get_scenario,
    register,
    scenario_names,
)
from repro.sim.engine import Simulator
from repro.telemetry import TelemetryRecorder, use_recorder

from reference.node_schedule import NodeSchedule

COMPILE_HOSTS = 80
# A full diurnal period (72 epochs = 24 h at 20-minute epochs): shorter
# horizons cannot average out day/night modulation, so calibration
# checks would measure the trace's truncation instead of the generator.
COMPILE_EPOCHS = 72


@pytest.fixture(scope="module")
def compiled_all():
    """Every registered scenario compiled once at a small scale."""
    return {
        name: get_scenario(name).compile(
            hosts=COMPILE_HOSTS, epochs=COMPILE_EPOCHS, seed=7
        )
        for name in scenario_names()
    }


class TestRegistry:
    def test_catalogue_size_and_required_names(self):
        names = scenario_names()
        assert len(names) >= 7
        for required in (
            "overnet-replay", "weibull-lifetimes", "pareto-heavy-tail",
            "diurnal", "flash-crowd", "blackout", "availability-ramp",
        ):
            assert required in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("no-such-workload")

    def test_register_refuses_silent_overwrite(self):
        spec = SCENARIOS["diurnal"]
        with pytest.raises(ValueError, match="already registered"):
            register(spec)
        assert register(spec, replace=True) is spec

    def test_specs_validate_inputs(self):
        with pytest.raises(ValueError):
            ChurnModelSpec(model="zipf")
        with pytest.raises(ValueError):
            PopulationSpec(distribution="bimodal")
        with pytest.raises(ValueError):
            PerturbationSpec(kind="earthquake", at=0.5, duration=0.1, fraction=0.5)
        with pytest.raises(ValueError):
            get_scenario("diurnal").compile(hosts=0, epochs=10)


class TestCompiledTimelines:
    def test_sessions_disjoint_sorted_and_in_horizon(self, compiled_all):
        for name, compiled in compiled_all.items():
            compiled.timeline.validate()
            assert compiled.timeline.n_nodes == COMPILE_HOSTS
            assert compiled.targets.shape == (COMPILE_HOSTS,)

    def test_timeline_matches_trace_entry_for_entry(self, compiled_all):
        rng = np.random.default_rng(3)
        for name, compiled in compiled_all.items():
            trace = compiled.to_trace()
            nodes = list(trace.nodes)
            schedules = [NodeSchedule.from_arrays(*trace.sessions(k)) for k in nodes]
            horizon = trace.horizon
            times = np.concatenate([
                rng.uniform(0.0, horizon, 6), [0.0, horizon / 2, horizon]
            ])
            for t in times:
                assert (
                    trace.online_mask(t).tolist()
                    == [s.is_online(t) for s in schedules]
                ), f"{name}: presence diverged at t={t}"
                batch = trace.availability_array(nodes, t)
                scalar = [s.availability(t) for s in schedules]
                assert np.allclose(batch, scalar, rtol=0.0, atol=1e-9), (
                    f"{name}: availability diverged at t={t}"
                )

    def test_long_run_availability_calibrated(self, compiled_all):
        for name, compiled in compiled_all.items():
            tolerance = compiled.spec.calibration_tolerance
            if tolerance is None:
                continue
            err = compiled.calibration_error()
            assert err <= tolerance, (
                f"{name}: mean lifetime availability off target by {err:.3f} "
                f"(tolerance {tolerance})"
            )

    def test_flash_crowd_swells_online_population(self):
        spec = get_scenario("flash-crowd")
        base = ScenarioSpec(
            name="flash-crowd-base",
            description="same churn, no events",
            churn=spec.churn,
            population=spec.population,
        )
        compiled = spec.compile(hosts=150, epochs=60, seed=11)
        baseline = base.compile(hosts=150, epochs=60, seed=11)
        event = spec.perturbations[0]
        mid_event = (event.at + event.duration / 2) * compiled.timeline.horizon
        swelled = compiled.timeline.online_count(mid_event)
        assert swelled >= baseline.timeline.online_count(mid_event)
        # At least `fraction` of the population is forced online.
        assert swelled >= int(event.fraction * 150)

    def test_blackout_empties_affected_population(self):
        spec = get_scenario("blackout")
        compiled = spec.compile(hosts=150, epochs=60, seed=11)
        base = ScenarioSpec(
            name="blackout-base",
            description="same churn, no events",
            churn=spec.churn,
            population=spec.population,
        ).compile(hosts=150, epochs=60, seed=11)
        event = spec.perturbations[0]
        mid_event = (event.at + event.duration / 2) * compiled.timeline.horizon
        assert (
            compiled.timeline.online_count(mid_event)
            <= base.timeline.online_count(mid_event)
        )
        # Outside the outage the schedules are untouched.
        before = 0.5 * event.at * compiled.timeline.horizon
        assert compiled.timeline.online_count(before) == base.timeline.online_count(
            before
        )


def population_of(trace):
    """A population whose rows are the trace's."""
    return Population.from_ids(trace.nodes, np.zeros(trace.node_count))


class TestOracleBatchParity:
    @pytest.fixture
    def trace_and_sim(self):
        compiled = get_scenario("weibull-lifetimes").compile(
            hosts=60, epochs=36, seed=5
        )
        trace = compiled.to_trace(make_node_ids(60))
        sim = Simulator()
        sim.run_until(0.7 * trace.horizon)
        return trace, sim

    def test_query_array_matches_scalar_query(self, trace_and_sim):
        trace, sim = trace_and_sim
        oracle = OracleAvailability(
            trace, sim, window=86400.0, noise_std=0.05, quantization=0.01, seed=9
        )
        rows = np.arange(trace.node_count)
        batch = oracle.query_array(rows)
        scalar = np.array([oracle.query(row) for row in rows.tolist()])
        assert np.allclose(batch, scalar, rtol=0.0, atol=1e-9)
        assert batch.min() >= 0.0 and batch.max() <= 1.0

    def test_query_array_unknown_node_raises(self, trace_and_sim):
        trace, sim = trace_and_sim
        oracle = OracleAvailability(trace, sim)
        with pytest.raises(IndexError):
            oracle.query_array(np.array([trace.node_count]))  # a row past the population

    def test_fetch_array_uses_batch_and_fills_cache(self, trace_and_sim):
        trace, sim = trace_and_sim
        oracle = OracleAvailability(trace, sim, noise_std=0.02, seed=4)
        view = CachedAvailabilityView(oracle, sim, population_of(trace))
        values = view.fetch_rows(np.arange(10))
        assert view.fetch_count == 10
        for row, value in enumerate(values):
            assert view.get(row) == pytest.approx(float(value))
            assert view.staleness(row) == 0.0

    def test_scalar_fetch_after_batch_keeps_latest_value(self, trace_and_sim):
        """A scalar fetch after a batch overwrites the batch's entry."""
        trace, sim = trace_and_sim
        oracle = OracleAvailability(trace, sim, noise_std=0.0)
        view = CachedAvailabilityView(oracle, sim, population_of(trace))
        view.fetch_rows(np.array([0]))
        fresh = view.fetch(0)
        assert view.get(0) == pytest.approx(fresh)


class TestHarnessAndCli:
    def test_build_simulation_with_scenario(self):
        simulation = build_simulation(
            scale="small", seed=3, scenario="pareto-heavy-tail", setup=False
        )
        assert simulation.scenario_spec is get_scenario("pareto-heavy-tail")
        assert simulation.trace.node_count == 220

    def test_build_simulation_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_simulation(scale="small", scenario="nope", setup=False)

    def test_run_scenario_reports_metrics(self):
        recorder = TelemetryRecorder(enabled=True)
        with use_recorder(recorder):
            report = run_scenario("flash-crowd", scale="small", seed=1)
        assert report.scenario == "flash-crowd"
        assert report.hosts == 220
        assert report.online_at_start > 0
        assert report.anycasts > 0
        assert 0.0 <= report.anycast_success_rate <= 1.0
        payload = report.as_dict()
        assert payload["scenario"] == "flash-crowd"
        # Strictly valid JSON: undefined metrics must be None, never the
        # bare NaN token strict parsers reject.
        encoded = json.dumps(payload, allow_nan=False)
        assert json.loads(encoded) == payload
        # Each distribution is numpy's reduction of the log's samples
        # (and of the lifetime-availability column), and the telemetry
        # recorder holds the same summaries under ``scenario.``.
        log = report.log
        anycasts = log.anycasts & log.launched
        multicasts = log.multicasts & log.launched
        reliability = log.reliability_values(multicasts)
        spam = log.spam_ratio_values(multicasts)
        simulation = build_simulation(
            scale="small", seed=1, scenario="flash-crowd", setup=False
        )
        samples = {
            "anycast.hops": log.hops_delivered(anycasts).astype(float),
            "anycast.latency_ms": 1000.0 * log.latencies(anycasts),
            "multicast.reliability": reliability[np.isfinite(reliability)],
            "multicast.spam_ratio": spam[np.isfinite(spam)],
            "population.lifetime_availability": (
                simulation.trace.timeline.lifetime_availability_array()
            ),
        }
        assert sorted(report.distributions) == sorted(samples)
        for name, values in samples.items():
            assert values.size
            median, p90 = np.quantile(values, (0.5, 0.9))
            assert report.distributions[name] == {
                "count": float(values.size),
                "mean": float(values.mean()),
                "median": float(median),
                "p90": float(p90),
                "min": float(values.min()),
                "max": float(values.max()),
            }, name
        assert report.distributions["anycast.hops"]["count"] == report.anycasts_delivered
        assert report.distributions["population.lifetime_availability"]["mean"] == (
            report.mean_lifetime_availability
        )
        assert recorder.snapshot().distributions == {
            f"scenario.{name}": summary
            for name, summary in report.distributions.items()
        }

    def test_report_scrubs_nan_metrics(self):
        from repro.experiments.harness import ScenarioRunReport

        report = ScenarioRunReport(
            scenario="x", scale="small", seed=0, hosts=10,
            online_at_start=5, mean_lifetime_availability=0.5,
        )
        payload = report.as_dict()
        assert payload["anycast_mean_hops"] is None
        assert payload["anycast_success_rate"] is None
        json.dumps(payload, allow_nan=False)

    def test_cli_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_cli_scenario_run_with_json(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main([
            "scenario", "run", "blackout", "--scale", "small", "--seed", "2",
            "--json", str(out_path),
        ]) == 0
        assert "anycast_success_rate" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["scenario"] == "blackout"

    def test_cli_trace_model_dispatch(self, tmp_path, capsys):
        for model in ("weibull", "diurnal"):
            out = tmp_path / f"{model}.npz"
            assert main([
                "trace", "--hosts", "30", "--epochs", "12",
                "--model", model, "--out", str(out),
            ]) == 0
            assert out.exists()
        assert "mean_availability" in capsys.readouterr().out

    def test_cli_trace_summary_describes_persisted_file(self, tmp_path, capsys):
        """The printed stats must match the written file: persistence
        samples at epoch midpoints, which quantizes continuous-model
        sessions, so summarizing the pre-sampling trace would lie."""
        from repro.churn.loader import load_trace_npz
        from repro.churn.stats import summarize_trace

        out = tmp_path / "pareto.npz"
        assert main([
            "trace", "--hosts", "40", "--epochs", "16", "--seed", "1",
            "--model", "pareto", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "epoch resolution" in printed
        reloaded = summarize_trace(load_trace_npz(out))
        assert f"total_sessions: {reloaded.total_sessions:.4g}" in printed
        assert f"mean_availability: {reloaded.mean_availability:.4g}" in printed

    def test_cli_trace_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["trace", "--model", "quantum", "--out", "x.txt"])

    def test_generate_model_trace_models(self):
        assert set(TRACE_MODELS) == {"overnet", "weibull", "pareto", "diurnal"}
        trace = generate_model_trace("pareto", hosts=25, epochs=10, seed=3)
        assert trace.node_count == 25
        with pytest.raises(ValueError, match="unknown trace model"):
            generate_model_trace("quantum", hosts=10, epochs=5)
