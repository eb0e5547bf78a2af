"""Shared anycast experiment machinery for Figs 7-10.

Each figure cell is ``runs × messages`` anycasts of one
:class:`AnycastVariant` — expressed as one phase-staggered
:class:`~repro.ops.plan.OperationPlan` (each run's item replicates the
historical batch *launch schedule*: messages 2 s apart, a 30 s settle
gap before the next run) and executed through ``sim.ops.run``.  All
metric math happens on the columnar
:class:`~repro.ops.log.OperationLog`; no per-record Python loops remain
here.

One deliberate semantic difference from the per-batch drivers: records
are finalized once at plan end, so an operation still pending at its
own run's settle boundary that delivers during a *later* run now counts
DELIVERED instead of being frozen LOST.  An operation that delivers,
delivered; only multi-run straggler classification can differ from the
seed drivers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.experiments.harness import ExperimentScale
from repro.ops.log import OperationLog
from repro.ops.plan import OperationItem, OperationPlan, OperationTiming
from repro.ops.spec import TargetSpec
from repro.simulation import AvmemSimulation

__all__ = [
    "AnycastVariant",
    "variant_plan",
    "run_variant",
    "status_fractions",
    "mean_delivered_latency_ms",
    "PAPER_VARIANTS",
]

#: the historical batch-driver schedule constants
ANYCAST_SPACING = 2.0
RUN_SETTLE = 30.0


class AnycastVariant:
    """(policy, selector) pair with the paper's display name."""

    def __init__(self, label: str, policy: str, selector: str):
        self.label = label
        self.policy = policy
        self.selector = selector


#: The four variants Figs 7-8 plot.
PAPER_VARIANTS: Tuple[AnycastVariant, ...] = (
    AnycastVariant("VS-only", "greedy", "vs"),
    AnycastVariant("HS+VS", "greedy", "hs+vs"),
    AnycastVariant("HS-only", "greedy", "hs"),
    AnycastVariant("sim-annealing", "anneal", "hs+vs"),
)


def variant_plan(
    tier: ExperimentScale,
    variant: AnycastVariant,
    initiator_band: str,
    target: Tuple[float, float],
    retry: Optional[int] = None,
) -> OperationPlan:
    """``runs × messages`` anycasts of one variant as a single plan."""
    spec = TargetSpec.range(*target)
    run_span = tier.messages_per_run * ANYCAST_SPACING + RUN_SETTLE
    items = tuple(
        OperationItem(
            kind="anycast",
            target=spec,
            count=tier.messages_per_run,
            band=initiator_band,
            policy=variant.policy,
            selector=variant.selector,
            retry=retry,
            timing=OperationTiming(
                mode="interval", spacing=ANYCAST_SPACING, phase=run * run_span
            ),
            label=f"run{run}",
        )
        for run in range(tier.runs)
    )
    return OperationPlan(
        items=items, settle=RUN_SETTLE, name=f"{variant.label}:{initiator_band}"
    )


def run_variant(
    simulation: AvmemSimulation,
    tier: ExperimentScale,
    variant: AnycastVariant,
    initiator_band: str,
    target: Tuple[float, float],
    retry: Optional[int] = None,
) -> OperationLog:
    """Execute one variant's plan; returns its columnar log."""
    return simulation.ops.run(
        variant_plan(tier, variant, initiator_band, target, retry=retry)
    )


def status_fractions(log: OperationLog) -> Dict[str, float]:
    """Fraction of launched operations per terminal status (Fig 9)."""
    return log.status_fractions()


def mean_delivered_latency_ms(log: OperationLog) -> float:
    """Mean stage-1 delivery latency in milliseconds (NaN if none)."""
    return log.mean_latency_ms()
