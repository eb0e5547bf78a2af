"""Candidate-generated overlay construction — exact O(N·k) enumeration.

The block-tiled ``AvmemPredicate.evaluate_all`` sweep evaluates every
ordered pair: O(N²) hash values and threshold comparisons, which tops
out around N = 20k.  This module replaces the sweep with a two-stage
*candidate generation + exact filter* pipeline, in the spirit of
locality-restricted overlay construction (MPO), while keeping the
result **bit-identical** to the exhaustive path:

1. **Index** (once per population): nodes are partitioned into
   availability buckets aligned to the PDF's bins, and within each
   bucket sorted by their destination hash key.  With the
   shift-structured :class:`~repro.core.hashing.Affine64PairHash`,
   ``H(x, y) <= t`` holds iff the destination key lies in one wrapped
   uint64 interval determined by the source — so a sorted-key bucket
   answers "which members pass?" with two binary searches.

2. **Enumerate + filter** (per source block × bucket): an upper bound
   ``T(x, b)`` of the true threshold over the bucket (horizontal bound
   if the bucket sits fully inside the ±ε band, vertical bound if fully
   outside, the max when straddling) is inflated by a float-safety
   margin and turned into a key interval; ``searchsorted`` yields the
   candidate positions.  Every candidate is then re-checked with the
   *same* float comparisons the exhaustive path performs (same
   per-pair threshold expressions, same ``|Δav| < ε`` classification,
   same cushion clamp), so over-approximation in the bound can only
   cost time, never change the edge set.

Why the bound is sound: bucket bounds are computed from the *actual*
member values (bucket max of exact per-destination thresholds, exact
member min/max availabilities), never from bin-edge arithmetic, so no
float-rounding at bucket boundaries can exclude a passing pair; the
integer interval adds a ``(1 + 2^-40)·T·2^64 + 4096`` margin that
dominates both the product rounding and the uint64→float64 rounding of
the final comparison.

Expected work per source is O(buckets·log m + k'), where k' is the
number of candidates (≈ the true degree k plus bound slack), against
O(N) for the sweep.

This is only possible for hashes with interval structure
(``supports_interval``) and sliver rules that declare a bucket bound
(:attr:`~repro.core.slivers._Rule.CANDIDATE_BOUND`); PRF-style hashes
(mix64, digest hashes) make every ordered pair an independent
unpredictable bit, so *no* exact sub-quadratic enumeration exists for
them and callers must fall back to the exhaustive sweep.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.slivers import has_candidate_bound
from repro.telemetry import current as current_telemetry

__all__ = ["supports_candidates", "evaluate_all_candidates", "CandidateIndex"]

_U64_SCALE = float(1 << 64)
#: relative + absolute inflation of the enumeration interval; dominates
#: every float rounding in the bound computation and the uint64→float64
#: rounding (ulp 2^11 near 2^64) of the exact filter's hash values.
_REL_SLACK = 1.0 + 2.0**-40
_ABS_SLACK = 4096.0
#: scaled thresholds at or above this enumerate the whole bucket (the
#: value is exactly representable and safely below 2^64).
_FULL_CUTOFF = _U64_SCALE - 2.0**13
#: (source, bucket) range entries searched at once, and over-approximate
#: candidates expanded + filtered at once.  Both bound transient arrays
#: to a few MiB whatever N is: large one-shot allocations are what a
#: small population's peak RSS would otherwise pay for the fast path.
_RANGE_BUDGET = 1 << 16
_CANDIDATE_BUDGET = 1 << 16


def supports_candidates(predicate) -> bool:
    """Whether ``predicate`` admits exact candidate generation: an
    interval-structured hash plus bucket-boundable sliver rules."""
    return (
        getattr(predicate.hash_fn, "supports_interval", False)
        and has_candidate_bound(predicate.horizontal)
        and has_candidate_bound(predicate.vertical)
    )


def _expand_ranges(
    starts: np.ndarray, stops: np.ndarray, owners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten per-owner index ranges ``[starts, stops)`` into a flat
    position array plus the owner of each position."""
    lengths = stops - starts
    keep = lengths > 0
    if not keep.any():
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    starts = starts[keep]
    lengths = lengths[keep]
    ends = np.cumsum(lengths)
    out = np.ones(int(ends[-1]), dtype=np.int64)
    out[0] = starts[0]
    if starts.size > 1:
        out[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    np.cumsum(out, out=out)
    return out, np.repeat(owners[keep], lengths)


class CandidateIndex:
    """Availability-bucket / sorted-hash-key inverted index.

    Buckets are a uniform grid refined from the PDF's bins (so each
    bucket is no wider than ~ε/2 where affordable); per-bucket bound
    statistics are taken over the actual members, which is what makes
    the enumeration bound sound without any bin-edge float reasoning.
    """

    def __init__(self, predicate, digests: np.ndarray, availabilities: np.ndarray):
        if not supports_candidates(predicate):
            raise ValueError(
                f"predicate {predicate!r} does not support candidate generation "
                "(needs an interval-structured hash, e.g. affine64, and "
                "bucket-boundable sliver rules)"
            )
        self.predicate = predicate
        self.digests = np.asarray(digests, dtype=np.uint64)
        self.availabilities = np.asarray(availabilities, dtype=float)
        pdf = predicate.pdf
        bins = int(pdf.bins)
        refine = max(1, int(np.ceil((1.0 / bins) / max(predicate.epsilon / 2.0, 1e-3))))
        refine = min(refine, max(1, 1024 // bins))
        self.n_buckets = bins * refine
        avs = self.availabilities
        n = avs.shape[0]
        bucket_of = np.clip(
            (avs * self.n_buckets).astype(np.int64), 0, self.n_buckets - 1
        )
        self.keys = predicate.hash_fn.key_array(self.digests)
        self.shifts = predicate.hash_fn.shift_array(self.digests)
        order = np.lexsort((self.keys, bucket_of))
        self.rows_sorted = order.astype(np.int64)
        self.keys_sorted = self.keys[order]
        counts = np.bincount(bucket_of, minlength=self.n_buckets)
        self.offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.nonempty = np.flatnonzero(counts).astype(np.int64)
        starts = self.offsets[self.nonempty]
        avs_sorted = avs[order]
        if n:
            self.av_min = np.minimum.reduceat(avs_sorted, starts)
            self.av_max = np.maximum.reduceat(avs_sorted, starts)
        else:
            self.av_min = np.empty(0)
            self.av_max = np.empty(0)
        # Vertical bound inputs (see _Rule.CANDIDATE_BOUND).
        vertical = predicate.vertical
        self.v_kind = vertical.CANDIDATE_BOUND
        self.v_const = 0.0
        self.v_values = None
        self.v_bucket_max = None
        if self.v_kind == "const":
            self.v_const = float(vertical.threshold(0.0, 1.0, pdf))
        else:
            self.v_values = vertical.candidate_values(avs, pdf)
            if n:
                self.v_bucket_max = np.maximum.reduceat(self.v_values[order], starts)
            else:
                self.v_bucket_max = np.empty(0)
        horizontal = predicate.horizontal
        self.h_kind = horizontal.CANDIDATE_BOUND
        self.h_const = 0.0
        self.h_values = None
        if self.h_kind == "const":
            self.h_const = float(horizontal.threshold(0.0, 0.0, pdf))
        elif self.h_kind == "src":
            self.h_values = horizontal.candidate_values(avs, pdf)
        else:
            raise ValueError(
                f"horizontal rule {horizontal!r} declares unsupported bound "
                f"kind {self.h_kind!r} (horizontal rules must be 'const' or 'src')"
            )


def _bucket_ranges(index, s0: int, s1: int, cushion: float):
    """Candidate position ranges of sources ``s0:s1`` in every non-empty
    bucket: ``(starts, stops)``, both ``(2·buckets, s1 − s0)`` int64 —
    rows ``2j`` / ``2j + 1`` hold bucket ``j``'s first / wrapped-around
    range as positions into ``index.rows_sorted``."""
    eps = index.predicate.epsilon
    av_x = index.availabilities[s0:s1]
    shifts = index.shifts[s0:s1]
    with np.errstate(over="ignore"):
        lo_key = (np.uint64(0) - shifts).astype(np.uint64)
    if index.h_kind == "src":
        t_h = index.h_values[s0:s1]
    else:
        t_h = np.full(av_x.shape[0], index.h_const)
    starts = np.zeros((2 * index.nonempty.size, av_x.shape[0]), dtype=np.int64)
    stops = np.zeros_like(starts)
    for j, b in enumerate(index.nonempty):
        b_start = index.offsets[b]
        b_stop = index.offsets[b + 1]
        lo_av = index.av_min[j]
        hi_av = index.av_max[j]
        # Band classification of the whole bucket per source, from
        # actual member min/max (float subtraction is monotone, so
        # these are exactly the extreme per-pair distances).
        in_all = (av_x - lo_av < eps) & (hi_av - av_x < eps)
        out_all = (lo_av - av_x >= eps) | (av_x - hi_av >= eps)
        if index.v_kind == "const":
            t_v = np.full(av_x.shape[0], index.v_const)
        elif index.v_kind == "dst":
            t_v = np.full(av_x.shape[0], index.v_bucket_max[j])
        else:  # "dst-distance"
            dist_min = np.maximum(np.maximum(lo_av - av_x, av_x - hi_av), 0.0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t_v = np.where(
                    dist_min > 0.0, index.v_bucket_max[j] / dist_min, np.inf
                )
            t_v = np.minimum(t_v, 1.0)
        bound = np.where(in_all, t_h, np.where(out_all, t_v, np.maximum(t_h, t_v)))
        if cushion:
            bound = np.minimum(1.0, bound + cushion)
        scaled = bound * _U64_SCALE * _REL_SLACK + _ABS_SLACK
        full = scaled >= _FULL_CUTOFF
        # Full buckets bypass the interval search entirely; clip so the
        # cast stays in uint64 range for them too.
        t_int = np.minimum(scaled, _FULL_CUTOFF).astype(np.uint64)
        bucket_keys = index.keys_sorted[b_start:b_stop]
        with np.errstate(over="ignore"):
            hi_key = (t_int - shifts).astype(np.uint64)
        a = np.searchsorted(bucket_keys, lo_key, side="left") + b_start
        c = np.searchsorted(bucket_keys, hi_key, side="right") + b_start
        wrapped = (lo_key > hi_key) & ~full
        # Range 1: [0, c) when wrapped, the whole bucket when full, else
        # [a, c).  Range 2: [a, m) when wrapped (disjoint from range 1).
        starts[2 * j] = np.where(wrapped | full, b_start, a)
        stops[2 * j] = np.where(full, b_stop, c)
        starts[2 * j + 1] = np.where(wrapped, a, 0)
        stops[2 * j + 1] = np.where(wrapped, b_stop, 0)
    return starts, stops


def _budget_cuts(counts: np.ndarray, budget: int) -> list:
    """Boundaries splitting ``counts`` into consecutive runs that each
    sum to at most ``budget`` (a single over-budget element is its own
    run)."""
    cumulative = np.cumsum(counts)
    cuts = [0]
    spent = 0
    while cuts[-1] < counts.size:
        stop = int(np.searchsorted(cumulative, spent + budget, side="right"))
        stop = max(stop, cuts[-1] + 1)
        cuts.append(stop)
        spent = int(cumulative[stop - 1])
    return cuts


def evaluate_all_candidates(
    predicate,
    digests: np.ndarray,
    availabilities: np.ndarray,
    cushion: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact ``evaluate_all`` via candidate generation.

    Returns the same ``(src_indices, dst_indices, horizontal)`` CSR
    triple as the exhaustive sweep, bit-identical (property-tested in
    ``tests/test_population_and_candidates.py`` and asserted per
    benchmark run).  Sources are processed in runs sized by how many
    candidates they enumerate (:data:`_CANDIDATE_BUDGET`), not by a row
    count, so the transient working set is the same few MiB at every N.
    """
    telemetry = current_telemetry()
    with telemetry.span("overlay.candidates.index"):
        index = CandidateIndex(predicate, digests, availabilities)
    avs = index.availabilities
    n = avs.shape[0]
    eps = predicate.epsilon
    pdf = predicate.pdf
    vertical = predicate.vertical
    src_chunks = []
    dst_chunks = []
    horizontal_chunks = []
    block_rows = max(1, _RANGE_BUDGET // max(1, 2 * index.nonempty.size))
    for s0 in range(0, n, block_rows):
        s1 = min(s0 + block_rows, n)
        with telemetry.span("overlay.candidates.enumerate"):
            starts, stops = _bucket_ranges(index, s0, s1, cushion)
            cuts = _budget_cuts((stops - starts).sum(axis=0), _CANDIDATE_BUDGET)
        if telemetry.enabled:
            telemetry.poke_progress(context="overlay.candidates")
        for c0, c1 in zip(cuts[:-1], cuts[1:]):
            with telemetry.span("overlay.candidates.filter"):
                owners = np.tile(np.arange(s0 + c0, s0 + c1, dtype=np.int64), starts.shape[0])
                pos, src = _expand_ranges(
                    starts[:, c0:c1].ravel(), stops[:, c0:c1].ravel(), owners
                )
                dst = index.rows_sorted[pos]
                not_self = dst != src
                dst = dst[not_self]
                src = src[not_self]
                if dst.size == 0:
                    continue
                # Exact filter: identical float comparisons to the
                # exhaustive block sweep (same per-pair thresholds, same
                # |Δav| < ε classification, same cushion clamp).
                with np.errstate(over="ignore"):
                    wrapped_sum = (index.shifts[src] + index.keys[dst]).astype(np.uint64)
                hashes = wrapped_sum.astype(np.float64) / _U64_SCALE
                h_mask = np.abs(avs[src] - avs[dst]) < eps
                if index.h_kind == "src":
                    h_t = index.h_values[src]
                else:
                    h_t = index.h_const
                if index.v_kind == "const":
                    v_t = index.v_const
                elif index.v_kind == "dst":
                    v_t = index.v_values[dst]
                else:
                    v_t = vertical.pair_threshold_values(avs[src], avs[dst], pdf)
                thresholds = np.where(h_mask, h_t, v_t)
                if cushion:
                    thresholds = np.minimum(1.0, thresholds + cushion)
                member = hashes <= thresholds
                src = src[member]
                dst = dst[member]
                order = np.lexsort((dst, src))
                src_chunks.append(src[order])
                dst_chunks.append(dst[order])
                horizontal_chunks.append(h_mask[member][order])
    if not src_chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=bool)
    return (
        np.concatenate(src_chunks),
        np.concatenate(dst_chunks),
        np.concatenate(horizontal_chunks),
    )
