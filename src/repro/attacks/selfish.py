"""Selfish-node behaviours at the operation level.

Where :mod:`repro.attacks.flooding` measures predicate-level acceptance
rates, this module stages the behaviour itself: a selfish node that
enumerates every host it has heard of (its slivers plus its coarse
view — and optionally a crawled host list) and sprays a message at all
of them, hoping for an audience beyond its legitimate out-neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.core.ids import NodeId
from repro.core.node import AvmemNode
from repro.core.predicates import AvmemPredicate

__all__ = ["SprayOutcome", "spray_attack"]

TruthFn = Callable[[NodeId], float]


@dataclass(frozen=True)
class SprayOutcome:
    """What a spray attack bought the attacker."""

    attacker: NodeId
    targets_tried: int
    accepted_total: int
    accepted_illegitimate: int  # accepted despite ground-truth M(x,y)=0
    legitimate_targets: int  # ground-truth out-neighbors among targets

    @property
    def illegitimate_audience_rate(self) -> float:
        """Fraction of non-neighbor targets that accepted — the attack's
        yield (Fig 5's per-attacker quantity)."""
        illegit = self.targets_tried - self.legitimate_targets
        if illegit == 0:
            return float("nan")
        return self.accepted_illegitimate / illegit


def spray_attack(
    attacker: AvmemNode,
    nodes: Dict[NodeId, AvmemNode],
    predicate: AvmemPredicate,
    truth: TruthFn,
    extra_known: Optional[Iterable[NodeId]] = None,
    cushion: float = 0.0,
) -> SprayOutcome:
    """Stage a spray: the attacker contacts everyone it knows about.

    The known set is its membership lists plus its coarse view plus
    ``extra_known`` (modeling a crawler feeding the attacker addresses).
    Each online target verifies the claimed relationship.
    """
    known: Set[NodeId] = set(attacker.lists.neighbor_ids())
    known.update(attacker.population.ids_of(attacker.coarse_view.view_rows(attacker.row)))
    if extra_known is not None:
        known.update(extra_known)
    known.discard(attacker.id)

    from repro.attacks.flooding import _ground_truth_member  # shared check

    tried = 0
    accepted_total = 0
    accepted_illegit = 0
    legit = 0
    for target_id in sorted(known):
        target = nodes.get(target_id)
        if target is None or not target.online:
            continue
        tried += 1
        is_legit = _ground_truth_member(predicate, truth, attacker.id, target_id)
        if is_legit:
            legit += 1
        if target.verifier.accepts(attacker.id, cushion=cushion):
            accepted_total += 1
            if not is_legit:
                accepted_illegit += 1
    return SprayOutcome(
        attacker=attacker.id,
        targets_tried=tried,
        accepted_total=accepted_total,
        accepted_illegitimate=accepted_illegit,
        legitimate_targets=legit,
    )
