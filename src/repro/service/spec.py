"""What one service session is built from.

A :class:`SessionSpec` is the durable recipe for a session: the
simulation settings, the warm-up window run at creation, and optionally
an inline :class:`~repro.scenarios.spec.ScenarioSpec` (clients can ship
a scenario in the create request instead of naming a registered one).
``SessionSpec.from_request`` is the API-facing constructor — it resolves
an :class:`~repro.experiments.harness.ExperimentScale` name into
hosts/epochs/warmup/settle defaults and applies explicit overrides on
top, so a minimal create request is just ``{"scale": "small"}``.

The spec round-trips exactly through :meth:`as_dict`/:meth:`from_dict`;
the session manifest persists it, and restore rebuilds the identical
simulation from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.harness import SCALES, ExperimentScale, get_scale
from repro.scenarios.spec import ScenarioSpec
from repro.simulation import SimulationSettings

__all__ = ["SessionSpec"]


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to build — or rebuild — one session."""

    settings: SimulationSettings
    warmup: float
    settle: float
    #: inline scenario; when set it overrides ``settings.scenario``
    scenario: Optional[ScenarioSpec] = None
    #: whether the session's private recorder is enabled (phase
    #: breakdowns via the telemetry endpoint cost some event overhead)
    telemetry: bool = True

    def __post_init__(self):
        if self.warmup <= 0:
            raise ValueError(f"warmup must be positive, got {self.warmup}")
        if self.settle < 0 or self.settle > self.warmup:
            raise ValueError(
                f"settle must be in [0, warmup], got {self.settle}"
            )

    @classmethod
    def from_request(cls, payload: dict) -> "SessionSpec":
        """Build a spec from a create-request body.

        Recognized keys (all optional):

        * ``scale`` — an :data:`~repro.experiments.harness.SCALES` name
          supplying hosts/epochs/warmup/settle defaults (default
          ``"small"``);
        * ``settings`` — :class:`SimulationSettings` field overrides;
        * ``scenario`` — a registered scenario name (string) or an
          inline :class:`ScenarioSpec` dict;
        * ``warmup`` / ``settle`` — explicit warm-up window override;
        * ``telemetry`` — enable the per-session recorder (default on).
        """
        if not isinstance(payload, dict):
            raise ValueError("create request body must be a JSON object")
        known = {"scale", "settings", "scenario", "warmup", "settle", "telemetry"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown session fields: {sorted(unknown)}")
        scale_name = payload.get("scale", "small")
        tier: ExperimentScale = get_scale(scale_name)
        overrides = dict(payload.get("settings") or {})
        scenario_payload = payload.get("scenario")
        scenario = None
        if isinstance(scenario_payload, str):
            overrides["scenario"] = scenario_payload
        elif isinstance(scenario_payload, dict):
            scenario = ScenarioSpec.from_dict(scenario_payload)
        elif scenario_payload is not None:
            raise ValueError("scenario must be a name or a ScenarioSpec object")
        overrides.setdefault("hosts", tier.hosts)
        overrides.setdefault("epochs", tier.epochs)
        return cls(
            settings=SimulationSettings.from_dict(overrides),
            warmup=float(payload.get("warmup", tier.warmup)),
            settle=float(payload.get("settle", tier.settle)),
            scenario=scenario,
            telemetry=bool(payload.get("telemetry", True)),
        )

    def as_dict(self) -> dict:
        return {
            "settings": self.settings.as_dict(),
            "warmup": self.warmup,
            "settle": self.settle,
            "scenario": None if self.scenario is None else self.scenario.as_dict(),
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SessionSpec":
        scenario = payload.get("scenario")
        return cls(
            settings=SimulationSettings.from_dict(payload["settings"]),
            warmup=float(payload["warmup"]),
            settle=float(payload["settle"]),
            scenario=None if scenario is None else ScenarioSpec.from_dict(scenario),
            telemetry=bool(payload.get("telemetry", True)),
        )


# Re-export for callers that want to enumerate valid scale names.
SCALE_NAMES = tuple(sorted(SCALES))
