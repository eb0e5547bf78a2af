"""Seeded operation plans for the end-to-end benchmark.

The benchmark — not the program under test — turns ``--seed`` into load:
every builder here is a pure function of ``(seed, ops)`` and returns a
plain :class:`~repro.ops.plan.OperationPlan` (the service workload ships
its ``as_dict()`` form as the request body).  The *shape* of each plan is
fixed — which targets, policies, dissemination modes and timing modes it
covers, and how many operations each item gets — so that runs at
different seeds cost the same and their simulated outcomes
(``success_rate``, ``mean_reliability``) stay comparable.  The seed
decides when each stream launches (its phase, hence which nodes are
online and which initiators are drawn), which initiator band each item
draws from (a rotated Latin square, so every seed still covers every band
for every target and policy), and which anycast items are batch cohorts.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ops.anycast import POLICY_NAMES
from repro.ops.plan import OperationItem, OperationPlan, OperationTiming
from repro.ops.spec import PAPER_RANGES, TargetSpec

__all__ = ["plan_paper", "plan_anycast", "plan_multicast"]

BANDS = ("low", "mid", "high")
MODES = ("flood", "gossip")
#: the multicast threshold targets: the paper's middle threshold for the
#: mixed plan, a selective one for the fan-out plan
PAPER_THRESHOLD = 0.49
FANOUT_THRESHOLD = 0.7
#: seconds of simulated time over which the seed spreads stream starts
PHASE_WINDOW = 60.0


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _split(total: int, parts: int) -> List[int]:
    """``total`` operations dealt evenly over ``parts`` items."""
    return [total // parts + (k < total % parts) for k in range(parts)]


def _anycast_items(
    rng: np.random.Generator,
    seed: int,
    cells: Sequence[tuple],
    counts: Sequence[int],
    spacing: float,
    alternate_cohorts: bool = False,
) -> List[OperationItem]:
    """One anycast item per ``(range_index, policy_index, band_index)``
    cell.  With ``alternate_cohorts`` every other item is a batch-timed
    cohort (all launches at one instant — the wavefront path); the rest
    are interval streams ``spacing`` seconds apart (the singleton path).
    """
    items = []
    for k, ((r, p, b), count) in enumerate(zip(cells, counts)):
        if alternate_cohorts and (k + seed) % 2 == 0:
            timing = OperationTiming(mode="batch", phase=float(rng.uniform(0.0, PHASE_WINDOW)))
        else:
            timing = OperationTiming(
                mode="interval", spacing=spacing, phase=float(rng.uniform(0.0, PHASE_WINDOW))
            )
        items.append(
            OperationItem(
                kind="anycast",
                target=TargetSpec.range(*PAPER_RANGES[r]),
                count=count,
                band=BANDS[b],
                policy=POLICY_NAMES[p],
                timing=timing,
            )
        )
    return items


def _multicast_items(
    rng: np.random.Generator,
    seed: int,
    counts: Sequence[int],
    threshold: float,
    spacing: float,
) -> List[OperationItem]:
    """Flood and gossip on each paper range plus one threshold flood
    (``len(counts)`` = 7)."""
    targets = [
        (TargetSpec.range(*PAPER_RANGES[r]), mode)
        for r in range(len(PAPER_RANGES))
        for mode in MODES
    ]
    targets.append((TargetSpec.threshold(threshold), "flood"))
    return [
        OperationItem(
            kind="multicast",
            target=target,
            count=count,
            band=BANDS[(k + seed) % 3],
            mode=mode,
            timing=OperationTiming(
                mode="interval", spacing=spacing, phase=float(rng.uniform(0.0, PHASE_WINDOW))
            ),
        )
        for k, ((target, mode), count) in enumerate(zip(targets, counts))
    ]


def plan_paper(seed: int, ops: int, round_index: int = 0) -> OperationPlan:
    """``PLAN_PAPER``: the paper-shaped mixed plan.

    3 paper ranges × {anneal, greedy, retry-greedy} anycast streams
    (80 % of ``ops``) interleaved with flood + gossip multicasts on the
    same ranges and one threshold flood.  ``round_index`` gives repeated
    rounds on one simulation (the service workload) distinct plans.
    """
    rng = _rng(seed, 101 + round_index)
    multicasts = max(7, ops // 5)
    cells = [(r, p, (r + p + seed + round_index) % 3) for r in range(3) for p in range(3)]
    items = _anycast_items(
        rng, seed, cells, _split(max(9, ops - multicasts), len(cells)), spacing=2.0
    )
    items += _multicast_items(
        rng, seed, _split(multicasts, 7), PAPER_THRESHOLD, spacing=5.0
    )
    return OperationPlan(items=tuple(items), settle=30.0, name="paper")


def plan_anycast(seed: int, ops: int) -> OperationPlan:
    """``PLAN_ANYCAST``: 3 ranges × 3 initiator bands × 3 policies; every
    other item is a batch-timed cohort, the rest are 50 ms streams."""
    rng = _rng(seed, 202)
    cells = [(r, p, b) for r in range(3) for b in range(3) for p in range(3)]
    items = _anycast_items(
        rng, seed, cells, _split(ops, len(cells)), spacing=0.05, alternate_cohorts=True
    )
    return OperationPlan(items=tuple(items), settle=30.0, name="anycast")


def plan_multicast(seed: int, ops: int) -> OperationPlan:
    """``PLAN_MULTICAST``: flood + gossip on the 3 paper ranges plus
    threshold-0.7 floods — wide fan-out, few operations."""
    rng = _rng(seed, 303)
    items = _multicast_items(
        rng, seed, _split(max(7, ops), 7), FANOUT_THRESHOLD, spacing=5.0
    )
    return OperationPlan(items=tuple(items), settle=30.0, name="multicast")
