"""Inbound message verification (Sections 2 and 4.1).

Consistency of the AVMEM predicate means a recipient ``y`` (or any third
party) can check whether a sender ``x`` is legitimately its in-neighbor:
recompute ``H(id(x), id(y))`` and compare against
``f(av(x), av(y)) + cushion``, using whatever availability estimates the
verifier has.  Staleness and monitor inconsistency make this check
imperfect in both directions — Fig 5 measures how many *illegitimate*
messages slip through, Fig 6 how many *legitimate* ones are rejected —
and the cushion trades one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.ids import NodeId
from repro.core.predicates import AvmemPredicate
from repro.monitor.cache import CachedAvailabilityView
from repro.util.validation import check_probability

__all__ = ["VerificationResult", "InboundVerifier"]


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one in-neighbor check, with the evidence used."""

    accepted: bool
    hash_value: float
    threshold: float
    cushion: float
    sender_availability: float
    self_availability: float

    @property
    def margin(self) -> float:
        """``(threshold + cushion) − hash`` — positive iff accepted."""
        return min(1.0, self.threshold + self.cushion) - self.hash_value


class InboundVerifier:
    """Checks ``M(sender, owner)`` from the local knowledge of the owner,
    the node at population row ``row``.

    The verifier reads availabilities through the owner's
    :class:`~repro.monitor.cache.CachedAvailabilityView` — cached values
    if present (the realistic, attackable configuration), else a fresh
    fetch from the monitoring service — at the rows of the cache's
    population: a sender's row is resolved per check (an unknown sender
    raises KeyError).
    """

    def __init__(
        self,
        row: int,
        predicate: AvmemPredicate,
        cache: CachedAvailabilityView,
        cushion: float = 0.0,
    ):
        self.row = row
        self.owner = cache.population.id_of(row)
        self.predicate = predicate
        self.cache = cache
        self.cushion = check_probability(cushion, "cushion")
        self.accept_count = 0
        self.reject_count = 0

    def verify(
        self, sender: NodeId, cushion: Optional[float] = None
    ) -> VerificationResult:
        """Would the owner accept a message claiming to come from its
        in-neighbor ``sender``?

        ``cushion`` overrides the verifier's configured cushion for this
        check (the Figs 5-6 experiments sweep it without rebuilding the
        population).
        """
        effective_cushion = (
            self.cushion if cushion is None else check_probability(cushion, "cushion")
        )
        av_sender = self.cache.get_or_fetch(self.cache.population.row_of(sender))
        av_self = self.cache.get_or_fetch(self.row)
        hash_value = self.predicate.hash_value(sender, self.owner)
        threshold = self.predicate.threshold(av_sender, av_self)
        accepted = hash_value <= min(1.0, threshold + effective_cushion)
        if accepted:
            self.accept_count += 1
        else:
            self.reject_count += 1
        return VerificationResult(
            accepted=accepted,
            hash_value=hash_value,
            threshold=threshold,
            cushion=effective_cushion,
            sender_availability=av_sender,
            self_availability=av_self,
        )

    def accepts(self, sender: NodeId, cushion: Optional[float] = None) -> bool:
        """Boolean-only convenience wrapper over :meth:`verify`."""
        return self.verify(sender, cushion=cushion).accepted
