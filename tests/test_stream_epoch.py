"""Stream epoch 2: ``affine64`` + candidate enumeration is the route
every simulation takes.

* the default simulation builds the ``affine64`` predicate and its
  direct bootstrap enumerates candidates — it never sweeps N x N;
* a hash that cannot be enumerated fails at construction, not by a
  silent fallback;
* candidates and the explicit exhaustive sweep install the identical
  overlay (paper and random predicates);
* ``hash_name`` survives every settings / session round-trip;
* the figure headline metrics sit within a stated tolerance of the
  ``mix64`` + exhaustive epoch.
"""

import json

import numpy as np
import pytest

from repro.core.config import AvmemConfig
from repro.core.predicates import AvmemPredicate
from repro.experiments.figures._anycast_common import AnycastVariant, run_variant
from repro.experiments.figures._multicast_common import MulticastScenario, run_scenario
from repro.experiments.harness import ExperimentScale
from repro.ops.spec import InitiatorBand
from repro.scenarios.registry import get_scenario
from repro.service import SessionSpec
from repro.simulation import AvmemSimulation, SimulationSettings
from repro.telemetry import TelemetryRecorder, use_recorder

MIX64_EPOCH = dict(config=AvmemConfig(hash_name="mix64"), overlay_method="exhaustive")


# -- (a) the default route ---------------------------------------------


def test_default_simulation_enumerates_candidates(monkeypatch):
    def no_sweep(self, *args, **kwargs):
        raise AssertionError("default simulation entered the exhaustive sweep")

    monkeypatch.setattr(AvmemPredicate, "_exhaustive_blocks", no_sweep)
    recorder = TelemetryRecorder(enabled=True)
    with use_recorder(recorder):
        simulation = AvmemSimulation(SimulationSettings(hosts=150, epochs=24, seed=5))
        simulation.setup(warmup=9000.0, settle=600.0)
    assert simulation.settings.overlay_method == "candidates"
    assert simulation.settings.config.hash_name == "affine64"
    assert simulation.predicate.hash_fn.name == "affine64"
    spans = recorder.snapshot().span_paths()
    assert any(path.endswith("overlay.candidates.enumerate") for path in spans), spans
    assert sum(node.lists.total_count for node in simulation.nodes.values()) > 0


# -- (b) no silent fallback ----------------------------------------------


@pytest.mark.parametrize("hash_name", ["sha1", "mix64"])
def test_non_interval_hash_with_candidates_fails_at_construction(hash_name):
    settings = SimulationSettings(
        hosts=60, epochs=12, config=AvmemConfig(hash_name=hash_name)
    )
    assert settings.overlay_method == "candidates"
    with pytest.raises(ValueError, match="candidate generation"):
        AvmemSimulation(settings)


def test_mix64_is_an_explicit_exhaustive_choice():
    simulation = AvmemSimulation(SimulationSettings(hosts=60, epochs=12, **MIX64_EPOCH))
    assert simulation.predicate.hash_fn.name == "mix64"
    simulation.setup(warmup=6000.0, settle=0.0)
    assert sum(node.lists.total_count for node in simulation.nodes.values()) > 0


def test_unknown_names_are_rejected():
    with pytest.raises(ValueError):
        AvmemConfig(hash_name="crc32")
    with pytest.raises(ValueError):
        SimulationSettings(overlay_method="auto")


# -- (c) candidates == exhaustive, at the simulation level ----------------


def installed_csr(simulation):
    """(src, dst, horizontal) of every installed membership entry, in
    CSR order."""
    src, dst, horizontal = [], [], []
    for row, node_id in enumerate(simulation.node_ids):
        view = simulation.nodes[node_id].lists.neighbor_arrays(with_nodes=False)
        order = np.argsort(view.rows, kind="stable")
        src.append(np.full(order.size, row, dtype=np.int64))
        dst.append(view.rows[order])
        horizontal.append(view.horizontal[order])
    return np.concatenate(src), np.concatenate(dst), np.concatenate(horizontal)


@pytest.mark.parametrize("predicate_kind", ["paper", "random"])
def test_simulation_overlay_identical_candidates_vs_exhaustive(predicate_kind):
    overlays = {}
    for method in ("candidates", "exhaustive"):
        simulation = AvmemSimulation(
            SimulationSettings(
                hosts=1500,
                epochs=48,
                seed=11,
                protocols="off",
                predicate_kind=predicate_kind,
                overlay_method=method,
            )
        )
        assert simulation.predicate.hash_fn.name == "affine64"
        simulation.setup(warmup=20000.0, settle=0.0)
        overlays[method] = installed_csr(simulation)
    assert overlays["candidates"][0].size > 1500
    for got, want in zip(overlays["candidates"], overlays["exhaustive"]):
        np.testing.assert_array_equal(got, want)


# -- (f) round-trips -------------------------------------------------------


def test_settings_round_trip_preserves_hash_name():
    for settings in (SimulationSettings(hosts=50), SimulationSettings(hosts=50, **MIX64_EPOCH)):
        payload = json.loads(json.dumps(settings.as_dict()))
        assert payload["config"]["hash_name"] == settings.config.hash_name
        assert payload["overlay_method"] == settings.overlay_method
        assert SimulationSettings.from_dict(payload) == settings


def test_session_spec_round_trip_preserves_hash_name():
    request = {
        "settings": {
            "hosts": 80,
            "epochs": 12,
            "config": {"hash_name": "mix64"},
            "overlay_method": "exhaustive",
        },
        "scenario": get_scenario("flash-crowd").as_dict(),
        "warmup": 4000.0,
        "settle": 600.0,
    }
    spec = SessionSpec.from_request(request)
    assert spec.settings.config.hash_name == "mix64"
    again = SessionSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert again == spec
    assert again.scenario == spec.scenario
    assert SessionSpec.from_request({"settings": {"hosts": 80}}).settings.config.hash_name == (
        "affine64"
    )


# -- (e) cross-epoch guard -------------------------------------------------

GUARD_TIER = ExperimentScale(
    name="epoch-guard",
    hosts=600,
    epochs=96,
    warmup=43800.0,
    settle=2400.0,
    runs=3,
    messages_per_run=25,
    attack_max_targets=0,
)
#: how far a headline metric may sit from the mix64 + exhaustive epoch
#: at N = 600, seed 0 (75 anycasts / 75 multicasts per cell).  Measured
#: shifts over seeds 0-3 when this epoch landed: success <= 0.053, mean
#: hops <= 0.45, reliability <= 0.066 — the spread two seeds of one
#: epoch show against each other.
SUCCESS_TOLERANCE = 0.08
HOPS_TOLERANCE = 0.6
RELIABILITY_TOLERANCE = 0.10


def headline_metrics(**settings):
    simulation = AvmemSimulation(
        SimulationSettings(hosts=GUARD_TIER.hosts, epochs=GUARD_TIER.epochs, seed=0, **settings)
    )
    simulation.setup(warmup=GUARD_TIER.warmup, settle=GUARD_TIER.settle)
    fig07 = run_variant(
        simulation, GUARD_TIER, AnycastVariant("HS+VS", "greedy", "hs+vs"),
        InitiatorBand.MID, (0.85, 0.95),
    ).summary()
    fig09 = run_variant(
        simulation, GUARD_TIER, AnycastVariant("retried", "retry-greedy", "hs+vs"),
        InitiatorBand.HIGH, (0.15, 0.25), retry=8,
    ).summary()
    fig12 = run_scenario(
        simulation, GUARD_TIER, MulticastScenario("HIGH to >0.90", "flood", InitiatorBand.HIGH, 0.90)
    ).summary()
    return {
        "fig07.success": fig07["success_rate"],
        "fig07.hops": fig07["mean_hops"],
        "fig09.success": fig09["success_rate"],
        "fig09.hops": fig09["mean_hops"],
        "fig12.reliability": fig12["mean_reliability"],
    }


@pytest.mark.slow
def test_headline_metrics_within_tolerance_of_mix64_epoch():
    now = headline_metrics()
    before = headline_metrics(**MIX64_EPOCH)
    for name, tolerance in (
        ("fig07.success", SUCCESS_TOLERANCE),
        ("fig09.success", SUCCESS_TOLERANCE),
        ("fig07.hops", HOPS_TOLERANCE),
        ("fig09.hops", HOPS_TOLERANCE),
        ("fig12.reliability", RELIABILITY_TOLERANCE),
    ):
        assert abs(now[name] - before[name]) <= tolerance, (name, now[name], before[name])
    # and the paper's qualitative claims hold in this epoch on their own
    assert now["fig07.success"] >= 0.9
    assert now["fig12.reliability"] >= 0.85
