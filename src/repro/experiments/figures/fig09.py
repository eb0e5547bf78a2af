"""Figure 9 — retried greedy anycast in a harsh environment.

Anycasts from HIGH initiators to [0.15, 0.25] with retried-greedy
forwarding (HS+VS), sweeping retry ∈ {2, 4, 8, 16}.  Reports the
delivered / TTL-expired / retry-expired fractions and the mean delivery
latency (each hop takes U[20, 80] ms).  Paper: retry = 8 reaches the
plateau — 60 % delivery at an average 739 ms.

Two list-maintenance configurations are reported:

* **maintained** — our default hygiene (discovery handshakes, refresh
  evicts unresponsive neighbors): retries are rarely needed because
  lists stay mostly live.
* **stale (paper-like)** — liveness hygiene off, noisier monitoring:
  low-availability entries die in place, so the retry budget is exactly
  what stands between the message and a silent drop.  This is the
  configuration whose behaviour matches the paper's figure.
"""

from __future__ import annotations

from repro.core.config import AvmemConfig
from repro.experiments.figures._anycast_common import (
    AnycastVariant,
    mean_delivered_latency_ms,
    run_variant,
    status_fractions,
)
from repro.experiments.harness import build_simulation, get_scale
from repro.experiments.report import FigureResult
from repro.ops.results import AnycastStatus
from repro.ops.spec import InitiatorBand

__all__ = ["run", "RETRIES", "TARGET"]

RETRIES = (2, 4, 8, 16)
TARGET = (0.15, 0.25)
VARIANT = AnycastVariant("retried-greedy HS+VS", "retry-greedy", "hs+vs")

_CONFIGS = (
    ("maintained", dict(monitor_noise_std=0.02, config=AvmemConfig())),
    (
        "stale (paper-like)",
        dict(
            monitor_noise_std=0.05,
            config=AvmemConfig(refresh_liveness=False, discovery_liveness=False),
        ),
    ),
)


def run(
    scale: str = "full",
    seed: int = 0,
    predicate_kind: str = "paper",
    figure_id: str = "fig9",
) -> FigureResult:
    """Regenerate Fig 9: the retry sweep under both list-maintenance modes."""
    tier = get_scale(scale)
    title = "Retried greedy anycast, HIGH -> [0.15, 0.25]"
    if predicate_kind == "random":
        title += " (random overlay baseline)"
    result = FigureResult(
        figure_id=figure_id,
        title=title,
        headers=[
            "lists",
            "retry",
            "delivered",
            "ttl_expired",
            "retry_expired",
            "other_failed",
            "avg_latency_ms",
        ],
    )
    for config_label, overrides in _CONFIGS:
        simulation = build_simulation(
            scale=scale, seed=seed, predicate_kind=predicate_kind, **overrides
        )
        for retry in RETRIES:
            log = run_variant(
                simulation, tier, VARIANT, InitiatorBand.HIGH, TARGET, retry=retry
            )
            fractions = status_fractions(log)
            other = sum(
                fractions.get(status, 0.0)
                for status in AnycastStatus.TERMINAL
                if status
                not in (
                    AnycastStatus.DELIVERED,
                    AnycastStatus.TTL_EXPIRED,
                    AnycastStatus.RETRY_EXPIRED,
                )
            )
            result.add_row(
                config_label,
                retry,
                fractions.get(AnycastStatus.DELIVERED, 0.0),
                fractions.get(AnycastStatus.TTL_EXPIRED, 0.0),
                fractions.get(AnycastStatus.RETRY_EXPIRED, 0.0),
                other,
                mean_delivered_latency_ms(log),
            )
            result.series[f"{config_label}:retry={retry}:latency_ms"] = (
                (1000.0 * log.latencies()).tolist()
            )
    result.add_note(
        "paper (AVMEM overlay): retry=8 plateau, ~60% delivered, ~739 ms avg "
        "latency — compare the 'stale (paper-like)' rows"
    )
    return result
