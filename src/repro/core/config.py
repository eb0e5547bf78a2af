"""Configuration surface for AVMEM nodes and experiments.

All tunables from Sections 2-4 in one validated dataclass, with the
paper's defaults.  Everything that varies between figures (cushion,
retry counts, gossip parameters, …) is expressed as an override of this
object, so experiment code never hard-codes magic numbers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.core.hashing import HASH_NAMES
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = ["AvmemConfig", "GossipConfig", "AnycastConfig"]


@dataclass(frozen=True)
class GossipConfig:
    """Gossip dissemination parameters (Section 3.2, multicast).

    The paper selects ``Ng × fanout ≈ log(N*)`` and evaluates
    ``fanout=5, Ng=2`` with a 1-second gossip period.
    """

    fanout: int = 5
    rounds: int = 2  # the paper's Ng
    period: float = 1.0

    def __post_init__(self):
        if self.fanout <= 0:
            raise ValueError(f"fanout must be positive, got {self.fanout}")
        if self.rounds <= 0:
            raise ValueError(f"rounds (Ng) must be positive, got {self.rounds}")
        check_positive(self.period, "gossip period")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "GossipConfig":
        return cls(**payload)


@dataclass(frozen=True)
class AnycastConfig:
    """Anycast parameters (Section 3.2)."""

    ttl: int = 6
    retry: int = 8
    ack_timeout: float = 0.5

    def __post_init__(self):
        if self.ttl <= 0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")
        if self.retry <= 0:
            raise ValueError(f"retry must be positive, got {self.retry}")
        check_positive(self.ack_timeout, "ack_timeout")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "AnycastConfig":
        return cls(**payload)


@dataclass(frozen=True)
class AvmemConfig:
    """Node-level AVMEM configuration (paper defaults).

    Attributes
    ----------
    epsilon:
        The horizontal-sliver half-width; the paper finds 0.1 suffices.
    c1, c2:
        Constants of sub-predicates I.B and II.B.
    cushion:
        Verification slack added to ``f`` (Section 4.1); 0 or 0.1 in the
        paper's experiments.
    discovery_period:
        Discovery sub-protocol period — "typically 1 minute".
    refresh_period:
        Refresh sub-protocol period — "20 minutes suffices".
    coarse_view_size:
        Shuffled-membership view size ``v``; None selects ``⌈√N*⌉`` per
        the Section 3.1 optimality argument.
    pdf_bins:
        Discretization of the availability PDF.
    hash_name:
        Registry name of the membership hash ``H``
        (:data:`repro.core.hashing.HASH_NAMES`).  The default
        ``"affine64"`` is interval-searchable, which the default
        ``overlay_method="candidates"`` bootstrap requires; ``"mix64"``,
        ``"sha1"``, ``"md5"`` and ``"blake2b"`` need
        ``overlay_method="exhaustive"``.
    availability_window:
        None for raw (from trace start) availability; otherwise the
        trailing-window length in seconds ("aged" availability).
    """

    epsilon: float = 0.1
    c1: float = 3.0
    c2: float = 1.0
    cushion: float = 0.0
    discovery_period: float = 60.0
    refresh_period: float = 1200.0
    coarse_view_size: Optional[int] = None
    pdf_bins: int = 20
    hash_name: str = "affine64"
    availability_window: Optional[float] = None
    #: refresh probes each neighbor and evicts unresponsive (offline)
    #: ones; they are re-discovered once back online.  Between refreshes
    #: entries still go stale — that residual staleness is what retried-
    #: greedy forwarding (Fig 9) and the cushion (Figs 5-6) absorb.
    refresh_liveness: bool = True
    #: discovery handshakes with a candidate before adopting it, so only
    #: currently-reachable nodes enter the lists (they may of course go
    #: offline immediately afterwards).
    discovery_liveness: bool = True
    anycast: AnycastConfig = field(default_factory=AnycastConfig)
    gossip: GossipConfig = field(default_factory=GossipConfig)

    def __post_init__(self):
        check_positive(self.epsilon, "epsilon")
        if self.epsilon > 0.5:
            raise ValueError(f"epsilon must be <= 0.5, got {self.epsilon}")
        check_positive(self.c1, "c1")
        check_positive(self.c2, "c2")
        check_probability(self.cushion, "cushion")
        check_positive(self.discovery_period, "discovery_period")
        check_positive(self.refresh_period, "refresh_period")
        if self.coarse_view_size is not None and self.coarse_view_size <= 0:
            raise ValueError(
                f"coarse_view_size must be positive or None, got {self.coarse_view_size}"
            )
        if self.pdf_bins <= 0:
            raise ValueError(f"pdf_bins must be positive, got {self.pdf_bins}")
        if self.hash_name not in HASH_NAMES:
            raise ValueError(
                f"unknown hash_name {self.hash_name!r}; pick from {HASH_NAMES}"
            )
        if self.availability_window is not None:
            check_positive(self.availability_window, "availability_window")

    def as_dict(self) -> dict:
        """All-primitive dict (nested configs become dicts), exact
        round-trip through :meth:`from_dict` — what session manifests
        persist."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "AvmemConfig":
        payload = dict(payload)
        if isinstance(payload.get("anycast"), dict):
            payload["anycast"] = AnycastConfig.from_dict(payload["anycast"])
        if isinstance(payload.get("gossip"), dict):
            payload["gossip"] = GossipConfig.from_dict(payload["gossip"])
        return cls(**payload)

    def view_size_for(self, n_star: float) -> int:
        """Resolve the coarse view size: explicit, or ``⌈√N*⌉``."""
        if self.coarse_view_size is not None:
            return self.coarse_view_size
        check_non_negative(n_star, "n_star")
        return max(1, int(round(n_star**0.5)))
