"""Consistent normalized pairwise hash functions — the ``H(id(x), id(y))``
of the AVMEM predicate (equation 1).

The paper requires ``H`` to be a *fixed, well-known, consistent* hash
normalized to [0, 1] — "a normalized version of SHA-1 or MD-5 could be
used".  Consistency (any party computes the same value from the two
identifiers alone) is the property that lets third parties verify
membership claims; cryptographic strength is not otherwise load-bearing.

Interchangeable implementations:

* :class:`DigestPairHash` — SHA-1 (paper's suggestion), MD5, or BLAKE2b
  over the concatenated endpoint strings.
* :class:`Mix64PairHash` — a splitmix64-style bijective mixer over the
  ids' 64-bit digests.  Statistically uniform, an order of magnitude
  faster than the digests, and vectorizable with NumPy.  Salted, it is
  AVMON's monitor-selection hash; as the membership hash it is an
  explicit ``hash_name="mix64", overlay_method="exhaustive"`` choice.
* :class:`Affine64PairHash` — the **default** membership hash: a
  *shift-structured* consistent hash,
  ``H(x, y) = ((A·mix64(dx) + B·mix64(dy)) mod 2^64) / 2^64``.  Still
  consistent, directed, and per-pair uniform, but for a fixed source the
  membership condition ``H(x, y) <= t`` becomes a single wrapped
  interval over the destination *key* ``B·mix64(dy)`` — which is what
  lets the candidate-generation stage in
  :mod:`repro.core.candidates` enumerate exactly the passing
  destinations by binary search instead of evaluating all N pairs.
  The output-mixed hashes (mix64, the digest hashes) are PRF-like:
  every ordered pair's bit is independent, so *no* sub-quadratic exact
  enumeration exists for them and overlay construction with them must
  request the block-tiled N×N sweep explicitly.

All of them are **asymmetric**: ``H(x, y) != H(y, x)`` in general, because
membership ``M(x, y)`` is a directed relation.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Dict, Type

import numpy as np

from repro.core.ids import NodeId

__all__ = [
    "PairwiseHash",
    "DigestPairHash",
    "Mix64PairHash",
    "Affine64PairHash",
    "make_hash",
    "HASH_NAMES",
]

_U64_MASK = (1 << 64) - 1
_U64_SCALE = float(1 << 64)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


class PairwiseHash(abc.ABC):
    """Normalized consistent hash of an **ordered** node pair."""

    #: short registry name, e.g. "sha1"
    name: str = "abstract"

    @abc.abstractmethod
    def value(self, x: NodeId, y: NodeId) -> float:
        """``H(id(x), id(y))`` in [0, 1)."""

    def value_many(self, x: NodeId, digests_y: np.ndarray) -> np.ndarray:
        """Vectorized ``H(x, y_i)`` given the ``uint64`` digests of the
        ``y_i``.  The base implementation falls back to nothing — only
        digest-mixing hashes can vectorize; string hashes must loop."""
        raise NotImplementedError(f"{self.name} hash does not support vectorized evaluation")

    def value_matrix(self, digests_x: np.ndarray, digests_y: np.ndarray) -> np.ndarray:
        """Fully-batched pairwise digest matrix: ``H(x_i, y_j)`` for every
        ordered pair, shape ``(len(digests_x), len(digests_y))``.

        Powers the block-tiled overlay construction in
        :meth:`repro.core.predicates.AvmemPredicate.evaluate_all`.  Only
        digest-mixing hashes can batch; string hashes must loop."""
        raise NotImplementedError(f"{self.name} hash does not support matrix evaluation")

    @property
    def supports_vectorized(self) -> bool:
        return type(self).value_many is not PairwiseHash.value_many

    @property
    def supports_matrix(self) -> bool:
        return type(self).value_matrix is not PairwiseHash.value_matrix

    @property
    def supports_interval(self) -> bool:
        """Whether ``H(x, y) <= t`` reduces, for fixed ``x``, to a wrapped
        integer interval over a per-destination key (see
        :class:`Affine64PairHash`).  Hashes with this structure support
        exact O(log m) candidate enumeration; PRF-style hashes do not."""
        return False


def _mix64_int(z: int) -> int:
    """splitmix64 finalizer on a Python int (kept in 64 bits)."""
    z = (z + _GOLDEN) & _U64_MASK
    z = ((z ^ (z >> 30)) * _MIX_1) & _U64_MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _U64_MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = (z + np.uint64(_GOLDEN)).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)).astype(np.uint64)
    return z ^ (z >> np.uint64(31))


class Mix64PairHash(PairwiseHash):
    """Fast consistent hash mixing the two ids' 64-bit digests.

    ``H(x, y) = mix64(digest(x) + mix64(digest(y)) + salt) / 2^64`` — the
    inner mix breaks the symmetry between the operands, making the
    relation directed as required.  Distinct ``salt`` values give
    independent hash families (AVMON's monitor-selection hash must be
    independent of the AVMEM membership hash).
    """

    name = "mix64"

    def __init__(self, salt: int = 0):
        if salt < 0:
            raise ValueError(f"salt must be non-negative, got {salt}")
        self.salt = salt & _U64_MASK
        if self.salt:
            self.name = f"mix64:{self.salt}"

    def value(self, x: NodeId, y: NodeId) -> float:
        inner = _mix64_int(y.digest64)
        outer = _mix64_int((x.digest64 + inner + self.salt) & _U64_MASK)
        return outer / _U64_SCALE

    def value_many(self, x: NodeId, digests_y: np.ndarray) -> np.ndarray:
        digests_y = np.asarray(digests_y, dtype=np.uint64)
        with np.errstate(over="ignore"):
            inner = _mix64_array(digests_y)
            shifted = (np.uint64(x.digest64) + inner + np.uint64(self.salt)).astype(np.uint64)
            outer = _mix64_array(shifted)
        return outer.astype(np.float64) / _U64_SCALE

    def value_matrix(self, digests_x: np.ndarray, digests_y: np.ndarray) -> np.ndarray:
        digests_x = np.asarray(digests_x, dtype=np.uint64)
        digests_y = np.asarray(digests_y, dtype=np.uint64)
        with np.errstate(over="ignore"):
            # The inner mix depends only on y: compute it once per column
            # and broadcast against the source digests.
            inner = _mix64_array(digests_y)
            shifted = (
                digests_x[:, None] + inner[None, :] + np.uint64(self.salt)
            ).astype(np.uint64)
            outer = _mix64_array(shifted)
        return outer.astype(np.float64) / _U64_SCALE


class Affine64PairHash(PairwiseHash):
    """Shift-structured consistent hash enabling exact candidate
    enumeration.

    ``H(x, y) = ((A·mix64(digest(x)) + B·mix64(digest(y)) + salt') mod
    2^64) / 2^64`` with fixed odd constants ``A`` and ``B`` (and
    ``salt' = mix64(salt)``).  The per-operand mix64 scrambles the raw
    SHA-1 digests so availability bands do not correlate with hash
    position; the *affine combination* — instead of an output mix —
    preserves order structure: for a fixed source the condition
    ``H(x, y) <= t`` holds iff the destination key ``B·mix64(digest(y))``
    falls in one wrapped interval of width ``t·2^64`` whose position
    depends only on the source.  Sorting keys once therefore answers
    every membership query by binary search, which is the foundation of
    the O(N·k) overlay construction in :mod:`repro.core.candidates`.

    The hash stays consistent (any third party recomputes it from the
    two identifiers), directed (``A != B`` breaks symmetry), and
    per-pair marginally uniform (for fixed ``x``, ``y -> H(x, y)`` is a
    bijection of the mixed key space).  What it gives up relative to
    mix64 is *pairwise independence across sources* — structured source
    digests could correlate — which the AVMEM predicate does not rely
    on.
    """

    name = "affine64"

    #: odd multipliers: golden-ratio and a xxhash-style constant
    _A = 0x9E3779B97F4A7C15
    _B = 0xC2B2AE3D27D4EB4F

    def __init__(self, salt: int = 0):
        if salt < 0:
            raise ValueError(f"salt must be non-negative, got {salt}")
        self.salt = salt & _U64_MASK
        self._salt_mixed = _mix64_int(self.salt) if self.salt else 0
        if self.salt:
            self.name = f"affine64:{self.salt}"

    def _shift_int(self, digest: int) -> int:
        """Source-side term ``A·mix64(dx) + salt'`` (mod 2^64)."""
        return (self._A * _mix64_int(digest) + self._salt_mixed) & _U64_MASK

    def _key_int(self, digest: int) -> int:
        """Destination-side key ``B·mix64(dy)`` (mod 2^64)."""
        return (self._B * _mix64_int(digest)) & _U64_MASK

    def value(self, x: NodeId, y: NodeId) -> float:
        wrapped = (self._shift_int(x.digest64) + self._key_int(y.digest64)) & _U64_MASK
        return wrapped / _U64_SCALE

    def shift_array(self, digests_x: np.ndarray) -> np.ndarray:
        """Vectorized source shifts (``uint64``)."""
        digests_x = np.asarray(digests_x, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = _mix64_array(digests_x)
            return (
                np.uint64(self._A) * mixed + np.uint64(self._salt_mixed)
            ).astype(np.uint64)

    def key_array(self, digests_y: np.ndarray) -> np.ndarray:
        """Vectorized destination keys (``uint64``)."""
        digests_y = np.asarray(digests_y, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return (np.uint64(self._B) * _mix64_array(digests_y)).astype(np.uint64)

    def value_many(self, x: NodeId, digests_y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            shift = np.uint64(self._shift_int(x.digest64))
            wrapped = (shift + self.key_array(digests_y)).astype(np.uint64)
        return wrapped.astype(np.float64) / _U64_SCALE

    def value_matrix(self, digests_x: np.ndarray, digests_y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            shifts = self.shift_array(digests_x)
            keys = self.key_array(digests_y)
            wrapped = (shifts[:, None] + keys[None, :]).astype(np.uint64)
        return wrapped.astype(np.float64) / _U64_SCALE

    @property
    def supports_interval(self) -> bool:
        return True


class DigestPairHash(PairwiseHash):
    """Cryptographic-digest hash over the concatenated endpoints.

    ``H(x, y) = int(digest("x.endpoint|y.endpoint")[:8]) / 2^64``.
    """

    _ALGORITHMS = ("sha1", "md5", "blake2b")

    def __init__(self, algorithm: str = "sha1"):
        if algorithm not in self._ALGORITHMS:
            raise ValueError(
                f"unknown digest algorithm {algorithm!r}; pick from {self._ALGORITHMS}"
            )
        self.name = algorithm
        self._algorithm = algorithm

    def value(self, x: NodeId, y: NodeId) -> float:
        payload = f"{x.endpoint}|{y.endpoint}".encode("utf-8")
        digest = hashlib.new(self._algorithm, payload).digest()
        return int.from_bytes(digest[:8], "big") / _U64_SCALE


def _sha1() -> PairwiseHash:
    return DigestPairHash("sha1")


def _md5() -> PairwiseHash:
    return DigestPairHash("md5")


def _blake2b() -> PairwiseHash:
    return DigestPairHash("blake2b")


_REGISTRY: Dict[str, object] = {
    "mix64": Mix64PairHash,
    "affine64": Affine64PairHash,
    "sha1": _sha1,
    "md5": _md5,
    "blake2b": _blake2b,
}

#: Names accepted by :func:`make_hash`.
HASH_NAMES = tuple(sorted(_REGISTRY))


def make_hash(name: str = "affine64") -> PairwiseHash:
    """Instantiate a registered pairwise hash by name."""
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(f"unknown hash {name!r}; pick from {HASH_NAMES}")
    return factory()
