"""Seeded random-number streams.

Every stochastic component in the reproduction draws from its own named
stream derived from a single root seed.  This gives two properties the
experiments rely on:

* **Reproducibility** — a root seed fully determines a simulation run.
* **Isolation** — adding draws to one component (say, the churn generator)
  does not perturb the sequence seen by another (say, anycast forwarding),
  so experiments stay comparable across code revisions.

Streams are ``numpy.random.Generator`` instances keyed by a string name;
the child seed is derived by hashing ``(root_seed, name)`` through NumPy's
``SeedSequence`` spawning facility.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Optional

import numpy as np

__all__ = ["STREAM_EPOCH", "RandomRouter", "derive_seed", "fallback_rng", "stream"]

#: Generation counter of everything a root seed determines.  A change
#: that must alter seeded results (overlays, operation logs) bumps it
#: once, by name, in CHANGES.md; service manifests record it so a
#: journal written under one epoch is never replayed under another.
#:
#: * 1 — ``mix64`` membership hash, exhaustive N x N direct bootstrap.
#: * 2 — ``affine64`` membership hash, candidate-enumerated bootstrap,
#:   II.B threshold evaluated on its 1e-3 availability grid (same churn
#:   trace, different overlay for the same seed).
STREAM_EPOCH = 2


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic 64-bit child seed from a root seed and a name.

    The derivation must be stable across processes and Python versions, so
    it uses CRC32 over the UTF-8 name rather than ``hash()`` (which is
    salted per process).
    """
    if root_seed < 0:
        raise ValueError(f"root_seed must be non-negative, got {root_seed}")
    tag = zlib.crc32(name.encode("utf-8"))
    mixed = (root_seed * 0x9E3779B97F4A7C15 + tag * 0xBF58476D1CE4E5B9) % (1 << 64)
    return mixed


def stream(root_seed: int, name: str) -> np.random.Generator:
    """Create an independent ``Generator`` for component ``name``."""
    return np.random.default_rng(derive_seed(root_seed, name))


def fallback_rng(seed: int = 0) -> np.random.Generator:
    """Deterministic stand-in generator for components built without one.

    Components that take an optional ``rng`` parameter (engine, network,
    overlays, monitors) default to this when constructed directly — unit
    tests and standalone scripts.  The full simulation wiring always
    passes a named :class:`RandomRouter` stream instead; this is the one
    sanctioned way to construct a generator outside that router (the
    ``np-random`` avmemlint rule flags any other construction site).

    Returns exactly ``np.random.default_rng(seed)`` — the historical
    per-component default — so seeded streams in existing tests are
    unchanged.
    """
    return np.random.default_rng(seed)


class RandomRouter:
    """Hands out named, memoized random streams derived from one root seed.

    >>> router = RandomRouter(seed=7)
    >>> a = router.get("churn")
    >>> b = router.get("churn")
    >>> a is b
    True
    >>> router.get("anycast") is a
    False
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the memoized stream for ``name``, creating it on demand."""
        if name not in self._streams:
            self._streams[name] = stream(self.seed, name)
        return self._streams[name]

    def fork(self, name: str) -> "RandomRouter":
        """Create a child router whose root seed is derived from ``name``.

        Useful to give each of several repeated experiment runs its own
        namespace of streams.
        """
        return RandomRouter(derive_seed(self.seed, name))

    def names(self) -> Iterable[str]:
        """Names of the streams created so far (for diagnostics)."""
        return tuple(self._streams)

    def reset(self, name: Optional[str] = None) -> None:
        """Forget one stream (or all of them), so the next ``get`` restarts it."""
        if name is None:
            self._streams.clear()
        else:
            self._streams.pop(name, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomRouter(seed={self.seed}, streams={sorted(self._streams)})"
