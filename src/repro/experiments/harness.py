"""Shared experiment scaffolding.

Every figure driver accepts a ``scale`` — ``"full"`` reproduces the
paper's setup (1442 hosts, 7-day trace, 24 h warm-up, 5 runs × 50
messages); ``"small"`` is a fast configuration for smoke tests and CI.
:func:`build_simulation` centralizes the mapping so figures stay
declarative, and accepts a ``scenario`` name so any registered churn/
workload scenario (:mod:`repro.scenarios`) can drive the same harness.
:func:`run_scenario` is the one-call driver the ``repro scenario`` CLI
and the CI smoke job use: build, warm up, run the spec's operation
workload, and report metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import AvmemConfig
from repro.simulation import AvmemSimulation, SimulationSettings
from repro.telemetry import current as current_telemetry
from repro.util.mathx import summarize

__all__ = [
    "ExperimentScale",
    "SCALES",
    "build_simulation",
    "run_scenario",
    "ScenarioRunReport",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Size/effort knobs for one experiment tier."""

    name: str
    hosts: int
    epochs: int
    warmup: float
    settle: float
    runs: int
    messages_per_run: int
    attack_max_targets: int

    @property
    def total_messages(self) -> int:
        return self.runs * self.messages_per_run


SCALES: Dict[str, ExperimentScale] = {
    # The paper's setup: 1442 hosts / 7 days / 24 h warm-up / 5 x 50 msgs.
    # Warm-ups sit mid-epoch (boundary + 600 s) so measurements do not
    # coincide with the instant a cohort of trace sessions flips state.
    "full": ExperimentScale(
        name="full",
        hosts=1442,
        epochs=504,
        warmup=87000.0,
        settle=7200.0,
        runs=5,
        messages_per_run=50,
        attack_max_targets=200,
    ),
    # Mid-size: same shape, ~4x cheaper (benchmark default).
    "medium": ExperimentScale(
        name="medium",
        hosts=700,
        epochs=240,
        warmup=43800.0,
        settle=4800.0,
        runs=3,
        messages_per_run=25,
        attack_max_targets=120,
    ),
    # Smoke-test size.
    "small": ExperimentScale(
        name="small",
        hosts=220,
        epochs=96,
        warmup=24600.0,
        settle=2400.0,
        runs=2,
        messages_per_run=8,
        attack_max_targets=60,
    ),
}


def get_scale(scale: str) -> ExperimentScale:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; pick from {sorted(SCALES)}") from None


def build_simulation(
    scale: str = "full",
    seed: int = 0,
    predicate_kind: str = "paper",
    config: Optional[AvmemConfig] = None,
    monitor_noise_std: float = 0.02,
    setup: bool = True,
    scenario: Optional[str] = None,
    **settings_overrides,
) -> AvmemSimulation:
    """Construct (and by default warm up) a simulation for one experiment.

    ``scenario`` names a registered :class:`~repro.scenarios.spec.ScenarioSpec`
    whose compiled churn timeline replaces the default Overnet-like
    trace; ``None`` keeps the paper's baseline workload.
    """
    tier = get_scale(scale)
    settings = SimulationSettings(
        hosts=tier.hosts,
        epochs=tier.epochs,
        seed=seed,
        scenario=scenario,
        config=config if config is not None else AvmemConfig(),
        predicate_kind=predicate_kind,
        monitor_noise_std=monitor_noise_std,
        **settings_overrides,
    )
    simulation = AvmemSimulation(settings)
    if setup:
        simulation.setup(warmup=tier.warmup, settle=tier.settle)
    return simulation


@dataclass(frozen=True)
class ScenarioRunReport:
    """Metrics from one scenario run through the harness."""

    scenario: str
    scale: str
    seed: int
    hosts: int
    online_at_start: int
    mean_lifetime_availability: float
    anycasts: int = 0
    anycasts_delivered: int = 0
    anycast_mean_hops: float = float("nan")
    anycast_mean_latency: float = float("nan")
    anycast_data_messages: int = 0
    multicasts: int = 0
    multicast_mean_reliability: float = float("nan")
    multicast_mean_spam_ratio: float = float("nan")
    build_seconds: float = 0.0
    workload_seconds: float = 0.0
    notes: List[str] = field(default_factory=list)
    #: per-metric distribution summaries (count/mean/median/p90/min/max)
    #: of the run's non-empty samples — inline so a report JSON carries
    #: the distribution shape, not just point estimates
    distributions: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: the columnar per-operation outcomes (not part of :meth:`as_dict`;
    #: export it separately via ``log.to_json()`` / ``log.to_csv()``)
    log: Optional[object] = field(default=None, compare=False, repr=False)

    @property
    def anycast_success_rate(self) -> float:
        return self.anycasts_delivered / self.anycasts if self.anycasts else float("nan")

    def as_dict(self) -> Dict[str, object]:
        """A json-serializable flat record (the CLI emits this).

        Undefined metrics (NaN — e.g. mean hops with zero deliveries)
        become ``None`` so the output is *strictly* valid JSON;
        ``json.dump`` would otherwise emit the bare ``NaN`` token, which
        strict parsers reject.
        """

        def scrub(value: object) -> object:
            if isinstance(value, float) and value != value:
                return None
            if isinstance(value, dict):
                return {k: scrub(v) for k, v in value.items()}
            return value

        return {key: scrub(value) for key, value in {
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
            "hosts": self.hosts,
            "online_at_start": self.online_at_start,
            "mean_lifetime_availability": self.mean_lifetime_availability,
            "anycasts": self.anycasts,
            "anycasts_delivered": self.anycasts_delivered,
            "anycast_success_rate": self.anycast_success_rate,
            "anycast_mean_hops": self.anycast_mean_hops,
            "anycast_mean_latency": self.anycast_mean_latency,
            "anycast_data_messages": self.anycast_data_messages,
            "multicasts": self.multicasts,
            "multicast_mean_reliability": self.multicast_mean_reliability,
            "multicast_mean_spam_ratio": self.multicast_mean_spam_ratio,
            "build_seconds": self.build_seconds,
            "workload_seconds": self.workload_seconds,
            "notes": list(self.notes),
            "distributions": {
                name: dict(summary)
                for name, summary in sorted(self.distributions.items())
            },
        }.items()}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioRunReport":
        """Rebuild a report from :meth:`as_dict` output (``None`` →
        NaN for the scrubbed undefined metrics).  ``anycast_success_rate``
        is derived, so it is ignored on input; the operation ``log`` is
        not part of the flat record and comes back ``None``.
        """

        def unscrub(value: object) -> float:
            return float("nan") if value is None else float(value)

        return cls(
            scenario=str(payload["scenario"]),
            scale=str(payload["scale"]),
            seed=int(payload["seed"]),
            hosts=int(payload["hosts"]),
            online_at_start=int(payload["online_at_start"]),
            mean_lifetime_availability=unscrub(payload["mean_lifetime_availability"]),
            anycasts=int(payload["anycasts"]),
            anycasts_delivered=int(payload["anycasts_delivered"]),
            anycast_mean_hops=unscrub(payload["anycast_mean_hops"]),
            anycast_mean_latency=unscrub(payload["anycast_mean_latency"]),
            anycast_data_messages=int(payload["anycast_data_messages"]),
            multicasts=int(payload["multicasts"]),
            multicast_mean_reliability=unscrub(payload["multicast_mean_reliability"]),
            multicast_mean_spam_ratio=unscrub(payload["multicast_mean_spam_ratio"]),
            build_seconds=float(payload["build_seconds"]),
            workload_seconds=float(payload["workload_seconds"]),
            notes=list(payload.get("notes", ())),
            distributions={
                name: {k: unscrub(v) for k, v in summary.items()}
                for name, summary in dict(payload.get("distributions", {})).items()
            },
        )


def run_scenario(
    name: str,
    scale: str = "small",
    seed: int = 0,
    **sim_kwargs,
) -> ScenarioRunReport:
    """Build a simulation for scenario ``name``, execute the spec's
    workload as an :class:`~repro.ops.plan.OperationPlan`, and summarize
    the resulting :class:`~repro.ops.log.OperationLog`.

    This is the single entry point behind ``repro scenario run`` and the
    CI smoke job — a scenario that compiles, warms up, and pushes its
    workload through here is runnable end to end.
    """
    from repro.ops.log import OperationLog
    from repro.scenarios.registry import get_scenario

    spec = get_scenario(name)
    workload = spec.workload
    started = time.perf_counter()
    telemetry = current_telemetry()
    with telemetry.span("scenario.build"):
        simulation = build_simulation(
            scale=scale, seed=seed, scenario=name, **sim_kwargs
        )
    build_seconds = time.perf_counter() - started
    notes: List[str] = []
    online = len(simulation.online_ids())
    started = time.perf_counter()
    with telemetry.span("scenario.workload"):
        plan = workload.to_plan(name=f"{name}-workload")
        if plan is not None:
            log = simulation.ops.run(plan)
        else:
            log = OperationLog.builder().finalize()
    workload_seconds = time.perf_counter() - started
    anycasts = log.anycasts & log.launched
    multicasts = log.multicasts & log.launched
    skipped_anycasts = int((log.anycasts & ~log.launched).sum())
    skipped_multicasts = int((log.multicasts & ~log.launched).sum())
    if skipped_anycasts:
        notes.append(
            f"only {int(anycasts.sum())}/{workload.anycasts} anycasts launched "
            f"(no online initiator in band {workload.anycast_band!r} at times)"
        )
    if skipped_multicasts:
        notes.append(
            f"only {int(multicasts.sum())}/{workload.multicasts} multicasts "
            f"launched (no online initiator in band {workload.multicast_band!r})"
        )
    hops = log.hops_delivered(anycasts)
    latencies = log.latencies(anycasts)
    reliability = log.reliability_values(multicasts)
    spam = log.spam_ratio_values(multicasts)
    targets = simulation.trace.timeline.lifetime_availability_array()
    # The run's sample distributions, summarized so the report carries
    # shape (median/p90/min/max), not just the means — and recorded in
    # the active telemetry recorder so a --telemetry snapshot holds the
    # same summaries alongside the engine's phase spans.
    samples = {
        "anycast.hops": hops,
        "anycast.latency_ms": 1000.0 * latencies,
        "multicast.reliability": reliability[np.isfinite(reliability)],
        "multicast.spam_ratio": spam[np.isfinite(spam)],
        "population.lifetime_availability": targets,
    }
    distributions = {
        metric: summarize(values)
        for metric, values in sorted(samples.items())
        if len(values)
    }
    if telemetry.enabled:
        for metric, summary in distributions.items():
            telemetry.distribution(f"scenario.{metric}", summary)
    return ScenarioRunReport(
        scenario=name,
        scale=scale,
        seed=seed,
        hosts=simulation.settings.hosts,
        online_at_start=online,
        mean_lifetime_availability=float(targets.mean()),
        anycasts=int(anycasts.sum()),
        anycasts_delivered=int((log.delivered & anycasts).sum()),
        anycast_mean_hops=float(hops.mean()) if hops.size else float("nan"),
        anycast_mean_latency=float(latencies.mean()) if latencies.size else float("nan"),
        anycast_data_messages=int(log.transmissions[anycasts].sum()),
        multicasts=int(multicasts.sum()),
        multicast_mean_reliability=(
            float(reliability.mean()) if reliability.size else float("nan")
        ),
        multicast_mean_spam_ratio=float(spam.mean()) if spam.size else float("nan"),
        build_seconds=build_seconds,
        workload_seconds=workload_seconds,
        notes=notes,
        distributions=distributions,
        log=log,
    )


__all__.append("get_scale")
