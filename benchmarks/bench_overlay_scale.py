"""Overlay + membership scaling sweep over the array backends
(:class:`~repro.overlays.graphs.OverlayGraph` construction and
:class:`~repro.core.membership.MembershipTable` bootstrap/refresh).

Sweeps N ∈ {1k, 5k, 20k} (override with ``--sizes``) over the same
descriptor population and reports absolute timings:

**Overlay construction** — ``OverlayGraph.build`` (block-tiled
``evaluate_all`` over descriptors).

**Candidate-generated construction** — ``OverlayGraph.build_rows`` over a
struct-of-arrays :class:`~repro.core.population.Population` with the
affine64 interval-searchable hash, candidate (O(N·k)) vs exhaustive
(N×N) method, swept to N = 100k by default (candidate-only above the
exhaustive cutoff; pass ``--candidate-sizes 1000000`` for the 1M build)
with per-size peak-RSS reporting and exact CSR parity asserted at
N ≤ 5k.

**Membership tables** — the two hot paths ``bootstrap="direct"`` and the
refresh sub-protocol exercise:

* ``install`` — populate every node's membership table from its
  OverlayGraph CSR row, one columnar ``upsert_rows`` per node;
* ``refresh`` — one full refresh round (re-evaluate the predicate for
  every neighbor against perturbed availabilities, evict non-members,
  re-cache the rest): ``evaluate_many`` + one masked ``refresh_round``
  pass per node.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_overlay_scale.py
    PYTHONPATH=src python benchmarks/bench_overlay_scale.py --sizes 1000 5000

The seed per-edge networkx build and dict-of-dataclasses membership
lists this sweep used to race were retired in PR 13 (their last ratios
are recorded in CHANGES.md); table parity against a scalar model is
property-tested in ``tests/test_membership_table.py``.  Results are
also written to ``benchmarks/results/BENCH_overlay_scale.json``
(:mod:`bench_util`).
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

import numpy as np

from repro.core.availability import AvailabilityPdf
from repro.core.hashing import Affine64PairHash
from repro.core.ids import NodeId, make_node_ids
from repro.core.membership import MembershipTable
from repro.core.population import Population
from repro.core.predicates import AvmemPredicate, NodeDescriptor
from repro.overlays.graphs import OverlayGraph

from bench_util import emit_bench_json, peak_rss_mb

DEFAULT_SIZES = (1_000, 5_000, 20_000)
#: the candidate-generated O(N*k) path scales well past the N x N
#: sweeps; the top end runs candidate-only (exhaustive would be 10^10
#: pair evaluations at 100k).  Push further with --candidate-sizes
#: 1000000 for the memory-bounded 1M-row build.
DEFAULT_CANDIDATE_SIZES = (1_000, 5_000, 20_000, 100_000)
#: largest N where the exhaustive baseline still runs (and, at <= 5k,
#: where the two paths are asserted CSR-identical every invocation)
EXHAUSTIVE_CUTOFF = 20_000
PARITY_CUTOFF = 5_000


def make_population(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    ids = make_node_ids(n)
    avs = np.clip(rng.beta(4.0, 1.5, n), 0.01, 0.99)
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    from repro.core.predicates import paper_predicate

    return (
        [NodeDescriptor(node, float(a)) for node, a in zip(ids, avs)],
        paper_predicate(pdf),
    )


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def make_row_population(n: int, seed: int = 0):
    """Struct-of-arrays population + affine64 paper predicate.

    The candidate-generation stage needs an interval-searchable pairwise
    hash, so this sweep runs the paper predicate over
    :class:`Affine64PairHash`; the population is synthetic (digests
    derived from endpoint strings without materializing NodeId objects),
    which is what keeps the 100k/1M builds object-free.
    """
    rng = np.random.default_rng(seed)
    avs = np.clip(rng.beta(4.0, 1.5, n), 0.01, 0.99)
    population = Population.synthetic(avs)
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    from repro.core.predicates import paper_predicate

    return population, paper_predicate(pdf, hash_fn=Affine64PairHash())


# ----------------------------------------------------------------------
# Membership-table paths (bootstrap install + refresh round)
# ----------------------------------------------------------------------
def batched_install(overlay: OverlayGraph) -> Dict[NodeId, MembershipTable]:
    """The columnar bootstrap sink: one ``upsert_rows`` per CSR row."""
    tables: Dict[NodeId, MembershipTable] = {}
    avs = overlay.availabilities
    for i, owner in enumerate(overlay.ids):
        table = MembershipTable(owner, overlay.population)
        dsts, horizontal = overlay.row(i)
        table.upsert_rows(dsts, avs[dsts], horizontal, now=0.0)
        tables[owner] = table
    return tables


def perturbed_availabilities(
    overlay: OverlayGraph, seed: int, noise: float = 0.05
) -> np.ndarray:
    """Availabilities one monitoring epoch later (what a refresh re-fetches)."""
    rng = np.random.default_rng(seed + 1)
    return np.clip(
        overlay.availabilities + rng.normal(0.0, noise, overlay.number_of_nodes),
        0.01, 0.99,
    )


def batched_refresh(
    tables: Dict[NodeId, MembershipTable],
    overlay: OverlayGraph,
    new_avs: np.ndarray,
    predicate: AvmemPredicate,
    now: float = 1200.0,
) -> int:
    """The columnar refresh round: ``evaluate_many`` + one masked
    ``refresh_round`` pass per node (what ``AvmemNode.refresh_step``
    runs)."""
    evicted = 0
    for i, owner in enumerate(overlay.ids):
        table = tables[owner]
        view = table.neighbor_arrays(with_nodes=False)
        if view.slots.size == 0:
            continue
        neighbor_avs = new_avs[view.rows]
        me = NodeDescriptor(owner, float(new_avs[i]))
        member, horizontal = predicate.evaluate_many(
            me, overlay.population, view.rows, neighbor_avs
        )
        evicted += table.refresh_round(
            view.slots, neighbor_avs, horizontal, member, now
        )
    return evicted


def run_construction_sweep(args) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    print(f"{'N':>8} {'array_s':>10} {'edges':>10}")
    for n in args.sizes:
        descriptors, predicate = make_population(n, seed=args.seed)
        overlay, array_s = timed(OverlayGraph.build, descriptors, predicate)
        rows.append({"n": n, "array_s": array_s, "edges": overlay.number_of_edges})
        print(f"{n:>8} {array_s:10.3f} {overlay.number_of_edges:>10}")
    return rows


def run_candidate_sweep(args) -> List[Dict[str, object]]:
    """Candidate-generated vs exhaustive row-space construction.

    At N <= PARITY_CUTOFF every invocation asserts the two CSR triples
    are identical (same arrays, same order); above EXHAUSTIVE_CUTOFF only
    the O(N*k) candidate path runs.  Peak RSS is reported per size — the
    metric the memory-bounded large-N milestone tracks.
    """
    rows: List[Dict[str, object]] = []
    print(f"\n{'N':>8} {'exhaustive_s':>13} {'candidates_s':>13} {'speedup':>8} "
          f"{'edges':>10} {'rss_mb':>8}")
    for n in args.candidate_sizes:
        population, predicate = make_row_population(n, seed=args.seed)
        overlay, cand_s = timed(
            OverlayGraph.build_rows, population, predicate, method="candidates"
        )
        row: Dict[str, object] = {
            "n": n,
            "candidates_s": cand_s,
            "edges": overlay.number_of_edges,
            "peak_rss_mb": peak_rss_mb(),
        }
        if n <= EXHAUSTIVE_CUTOFF:
            exhaustive, exh_s = timed(
                OverlayGraph.build_rows, population, predicate, method="exhaustive"
            )
            row["exhaustive_s"] = exh_s
            row["speedup"] = exh_s / cand_s
            speedup = f"{exh_s / cand_s:7.1f}x"
            exh_repr = f"{exh_s:13.3f}"
            if n <= PARITY_CUTOFF:
                assert (overlay.src_indices == exhaustive.src_indices).all()
                assert (overlay.dst_indices == exhaustive.dst_indices).all()
                assert (overlay.horizontal == exhaustive.horizontal).all()
                row["parity"] = "exact"
        else:
            speedup, exh_repr = "      —", "            —"
        rows.append(row)
        rss = row["peak_rss_mb"]
        print(
            f"{n:>8} {exh_repr} {cand_s:13.3f} {speedup:>8} "
            f"{overlay.number_of_edges:>10} {rss if rss is None else round(rss):>8}"
        )
    return rows


def run_membership_sweep(args) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    print(f"\n{'N':>8} {'install_s':>10} {'refresh_s':>10} {'evicted':>8} {'edges':>10}")
    for n in args.sizes:
        descriptors, predicate = make_population(n, seed=args.seed)
        overlay = OverlayGraph.build(descriptors, predicate)
        tables, install_s = timed(batched_install, overlay)
        new_avs = perturbed_availabilities(overlay, args.seed)
        evicted, refresh_s = timed(batched_refresh, tables, overlay, new_avs, predicate)
        rows.append({
            "n": n,
            "install_batch_s": install_s,
            "refresh_batch_s": refresh_s,
            "refresh_evicted": evicted,
            "edges": overlay.number_of_edges,
        })
        print(
            f"{n:>8} {install_s:10.3f} {refresh_s:10.3f} {evicted:>8} "
            f"{overlay.number_of_edges:>10}"
        )
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="population sizes to sweep",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--candidate-sizes", type=int, nargs="+",
        default=list(DEFAULT_CANDIDATE_SIZES),
        help="population sizes for the candidate-generated construction "
             "sweep (candidate-only above the exhaustive cutoff; try 1000000)",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="result path (default: benchmarks/results/BENCH_overlay_scale.json)",
    )
    args = parser.parse_args(argv)

    construction = run_construction_sweep(args)
    candidates = run_candidate_sweep(args)
    membership = run_membership_sweep(args)
    emit_bench_json(
        "overlay_scale",
        {
            "seed": args.seed,
            "construction": construction,
            "candidates": candidates,
            "membership": membership,
        },
        path=args.json_out,
    )


if __name__ == "__main__":
    main()
