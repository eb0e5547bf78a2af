"""The entry-list candidate ordering as it shipped beside the columnar
one (``_greedy_order`` and the annealing swap, verbatim): one Python
step per ``MemberEntry``, one scalar ``rng.random()`` per out-of-range
candidate.  ``ForwardingPolicy.order_candidates`` must return the same
list and leave the generator in the same state."""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np

from repro.core.ids import NodeId
from repro.core.membership import MemberEntry
from repro.ops.anycast import AnnealingPolicy, ForwardingPolicy
from repro.ops.spec import TargetSpec


def greedy_order(
    entries: Sequence[MemberEntry],
    target: TargetSpec,
    rng: np.random.Generator,
    exclude: Set[NodeId],
) -> List[NodeId]:
    """In-range candidates first (shuffled), then by distance to the range."""
    in_range: List[NodeId] = []
    outside: List[tuple] = []
    for entry in entries:
        if entry.node in exclude:
            continue
        distance = target.distance(entry.availability)
        if distance == 0.0:
            in_range.append(entry.node)
        else:
            outside.append((distance, entry.node))
    rng.shuffle(in_range)
    # Random tiebreak for equal distances, then sort by distance.
    keyed = [(d, float(rng.random()), node) for d, node in outside]
    keyed.sort(key=lambda item: (item[0], item[1]))
    return in_range + [node for _, _, node in keyed]


def order_candidates_entries(
    policy: ForwardingPolicy,
    entries: Sequence[MemberEntry],
    target: TargetSpec,
    ttl_remaining: int,
    rng: np.random.Generator,
    exclude: Set[NodeId],
) -> List[NodeId]:
    ordered = greedy_order(entries, target, rng, exclude)
    if not isinstance(policy, AnnealingPolicy):
        return ordered
    if len(ordered) < 2:
        return ordered
    by_node = {e.node: e for e in entries}
    delta = target.distance(by_node[ordered[0]].availability)
    if delta == 0.0:
        return ordered  # greedy best already in range: deliver
    if rng.random() < policy.acceptance_probability(delta, ttl_remaining):
        pick = 1 + int(rng.integers(len(ordered) - 1))
        ordered[0], ordered[pick] = ordered[pick], ordered[0]
    return ordered
