"""Declarative operation plans.

The paper's whole evaluation is "launch {threshold, range} × {anycast,
multicast} operations, measure reliability/spam/latency" (Sections 3.2,
4.2).  An :class:`OperationPlan` makes that workload a *value*: a tuple
of :class:`OperationItem` entries — each naming the operation kind, the
availability target, who initiates (a band or an explicit node), the
forwarding policy/selector, a count, and a :class:`OperationTiming` —
plus a trailing settle window.  Plans are executed by
:class:`~repro.ops.runner.OperationRunner` (``sim.ops.run(plan)``) and
their outcomes land in a columnar :class:`~repro.ops.log.OperationLog`.

Timing modes:

* ``"batch"``    — all ``count`` launches at the item's phase offset;
* ``"interval"`` — launches ``spacing`` seconds apart (the seed batch
  drivers' shape; the schedule horizon includes one trailing spacing);
* ``"poisson"``  — exponential inter-arrival gaps at ``rate`` arrivals
  per second (mixed anycast+multicast Poisson streams interleave by
  launch time).

Phase offsets shift an item's whole schedule, so multi-item plans can
express staggered runs or overlapping streams.  Compilation
(:meth:`OperationPlan.compile`) is deterministic given an rng, and plans
round-trip through plain dicts / JSON files for the ``repro ops run``
CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.membership import SliverSelector
from repro.ops.anycast import POLICY_NAMES
from repro.ops.spec import InitiatorBand, TargetSpec
from repro.util.validation import check_positive

__all__ = [
    "OperationTiming",
    "OperationItem",
    "OperationPlan",
    "LaunchSchedule",
    "TIMING_MODES",
    "OPERATION_KINDS",
]

TIMING_MODES = ("batch", "interval", "poisson")
OPERATION_KINDS = ("anycast", "multicast")

#: default inter-launch spacing per kind (the seed batch drivers' values)
DEFAULT_SPACING = {"anycast": 2.0, "multicast": 5.0}
#: default stage-1 forwarding policy per kind (seed ``run_*`` defaults)
DEFAULT_POLICY = {"anycast": "greedy", "multicast": "retry-greedy"}


def sequential_multicast_phase(
    anycasts: int, settle: float, anycast_spacing: Optional[float] = None
) -> float:
    """Where an interval-timed multicast stream starts when it follows a
    sequential anycast stream: after the anycast stream's trailing
    spacing plus one settle window (the historical sequential driver
    shape).  Shared by :meth:`WorkloadSpec.to_plan` and the ``repro ops
    run`` flag builder so the rule has one home.
    """
    if anycasts <= 0:
        return 0.0
    spacing = anycast_spacing if anycast_spacing is not None else DEFAULT_SPACING["anycast"]
    return anycasts * spacing + settle


@dataclass(frozen=True)
class OperationTiming:
    """When an item's ``count`` launches happen, relative to plan start.

    ``spacing`` applies to ``"interval"`` mode, ``rate`` (arrivals per
    second) to ``"poisson"``; ``phase`` shifts the whole schedule.
    """

    mode: str = "interval"
    spacing: Optional[float] = None  # None -> the kind's default spacing
    rate: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.mode not in TIMING_MODES:
            raise ValueError(f"mode must be one of {TIMING_MODES}, got {self.mode!r}")
        if self.spacing is not None and self.spacing < 0:
            raise ValueError(f"spacing must be >= 0, got {self.spacing}")
        if self.mode == "poisson":
            check_positive(self.rate, "rate")
        if self.phase < 0:
            raise ValueError(f"phase must be >= 0, got {self.phase}")

    def offsets(
        self, count: int, kind: str, rng: Optional[np.random.Generator]
    ) -> Tuple[np.ndarray, float]:
        """``(launch_offsets, horizon)`` for ``count`` launches.

        The horizon is where the item's schedule *ends* — interval mode
        includes one trailing spacing (the historical batch drivers ran
        the simulator one spacing past the last launch before settling).
        Poisson mode draws from ``rng``; the other modes consume none.
        """
        if count == 0:
            return np.zeros(0), self.phase
        if self.mode == "batch":
            return np.full(count, self.phase), self.phase
        if self.mode == "interval":
            spacing = self.spacing if self.spacing is not None else DEFAULT_SPACING[kind]
            offsets = self.phase + spacing * np.arange(count, dtype=float)
            return offsets, self.phase + spacing * count
        if rng is None:
            raise ValueError("poisson timing needs an rng to compile")
        gaps = rng.exponential(1.0 / self.rate, size=count)
        offsets = self.phase + np.cumsum(gaps)
        return offsets, float(offsets[-1])

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "spacing": self.spacing,
            "rate": self.rate,
            "phase": self.phase,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OperationTiming":
        return cls(
            mode=str(data.get("mode", "interval")),
            spacing=None if data.get("spacing") is None else float(data["spacing"]),
            rate=float(data.get("rate", 1.0)),
            phase=float(data.get("phase", 0.0)),
        )


@dataclass(frozen=True)
class OperationItem:
    """One operation stream of a plan.

    ``initiator`` may be an explicit :class:`~repro.core.ids.NodeId` (or,
    in JSON plans, an integer index into the simulation's node list);
    when ``None`` a fresh online node is drawn from ``band`` per launch.
    ``policy`` is the anycast forwarding policy (stage 1 for multicasts;
    ``None`` resolves to the kind's default), ``mode`` the multicast
    dissemination mode (ignored for anycasts).
    """

    kind: str
    target: TargetSpec
    count: int = 1
    band: str = InitiatorBand.MID
    initiator: Optional[object] = None
    policy: Optional[str] = None
    selector: str = SliverSelector.BOTH
    mode: str = "flood"
    ttl: Optional[int] = None
    retry: Optional[int] = None
    timing: OperationTiming = field(default_factory=OperationTiming)
    label: Optional[str] = None

    def __post_init__(self):
        if self.kind not in OPERATION_KINDS:
            raise ValueError(f"kind must be one of {OPERATION_KINDS}, got {self.kind!r}")
        if not isinstance(self.target, TargetSpec):
            raise TypeError(f"target must be a TargetSpec, got {type(self.target)}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        InitiatorBand.validate(self.band)
        if self.policy is not None and self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}; pick from {POLICY_NAMES}")
        SliverSelector.validate(self.selector)
        if self.mode not in ("flood", "gossip"):
            raise ValueError(f"mode must be 'flood' or 'gossip', got {self.mode!r}")

    @property
    def resolved_policy(self) -> str:
        return self.policy if self.policy is not None else DEFAULT_POLICY[self.kind]

    def as_dict(self) -> Dict[str, object]:
        initiator = self.initiator
        if initiator is not None and not isinstance(initiator, int):
            # NodeIds serialize by endpoint; the runner resolves either form.
            initiator = getattr(initiator, "endpoint", str(initiator))
        return {
            "kind": self.kind,
            "target": {
                "lo": self.target.lo,
                "hi": self.target.hi,
                "kind": self.target.kind,
            },
            "count": self.count,
            "band": self.band,
            "initiator": initiator,
            "policy": self.policy,
            "selector": self.selector,
            "mode": self.mode,
            "ttl": self.ttl,
            "retry": self.retry,
            "timing": self.timing.as_dict(),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OperationItem":
        target = data["target"]
        if isinstance(target, dict):
            spec = TargetSpec(
                lo=float(target["lo"]),
                hi=float(target.get("hi", 1.0)),
                kind=str(target.get("kind", "range")),
            )
        elif isinstance(target, (list, tuple)):
            spec = TargetSpec.range(float(target[0]), float(target[1]))
        else:
            spec = TargetSpec.threshold(float(target))
        timing = data.get("timing", {})
        return cls(
            kind=str(data["kind"]),
            target=spec,
            count=int(data.get("count", 1)),
            band=str(data.get("band", InitiatorBand.MID)),
            initiator=data.get("initiator"),
            policy=data.get("policy"),
            selector=str(data.get("selector", SliverSelector.BOTH)),
            mode=str(data.get("mode", "flood")),
            ttl=None if data.get("ttl") is None else int(data["ttl"]),
            retry=None if data.get("retry") is None else int(data["retry"]),
            timing=timing if isinstance(timing, OperationTiming)
            else OperationTiming.from_dict(timing),
            label=data.get("label"),
        )


@dataclass(frozen=True)
class LaunchSchedule:
    """A compiled plan: one row per launch, sorted by time.

    ``times`` are offsets relative to plan start; ``item_index`` maps
    each launch back to its plan item; ``seq`` is the launch's index
    within its item.  ``horizon`` is where the schedule ends (the drain
    point before the plan's settle window).
    """

    times: np.ndarray
    item_index: np.ndarray
    seq: np.ndarray
    horizon: float

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class OperationPlan:
    """A schedule of management operations plus a settle window."""

    items: Tuple[OperationItem, ...]
    settle: float = 30.0
    name: str = "plan"

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise ValueError("a plan needs at least one item")
        if self.settle < 0:
            raise ValueError(f"settle must be >= 0, got {self.settle}")

    @property
    def total_operations(self) -> int:
        return sum(item.count for item in self.items)

    def compile(self, rng: Optional[np.random.Generator] = None) -> LaunchSchedule:
        """Flatten the items into one time-sorted launch schedule.

        Deterministic timing modes consume no randomness, so compiling a
        deterministic plan twice yields identical schedules; Poisson
        items draw their gaps from ``rng`` in item order.
        """
        times: List[np.ndarray] = []
        item_idx: List[np.ndarray] = []
        seqs: List[np.ndarray] = []
        horizon = 0.0
        for i, item in enumerate(self.items):
            offsets, item_horizon = item.timing.offsets(item.count, item.kind, rng)
            horizon = max(horizon, item_horizon)
            times.append(offsets)
            item_idx.append(np.full(offsets.size, i, dtype=np.int32))
            seqs.append(np.arange(offsets.size, dtype=np.int32))
        all_times = np.concatenate(times) if times else np.zeros(0)
        all_items = np.concatenate(item_idx) if item_idx else np.zeros(0, np.int32)
        all_seqs = np.concatenate(seqs) if seqs else np.zeros(0, np.int32)
        # Stable sort: ties launch in item order, then per-item sequence
        # order (the concatenation order), so deterministic plans map
        # one-to-one onto the historical scalar batch loops.
        order = np.argsort(all_times, kind="stable")
        return LaunchSchedule(
            times=all_times[order],
            item_index=all_items[order],
            seq=all_seqs[order],
            horizon=float(horizon),
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, item: OperationItem, settle: float = 30.0, name: str = "plan"):
        return cls(items=(item,), settle=settle, name=name)

    # ------------------------------------------------------------------
    # Serialization (the ``repro ops run --plan file.json`` format)
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "settle": self.settle,
            "items": [item.as_dict() for item in self.items],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OperationPlan":
        return cls(
            items=tuple(OperationItem.from_dict(d) for d in data.get("items", ())),
            settle=float(data.get("settle", 30.0)),
            name=str(data.get("name", "plan")),
        )

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "OperationPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
