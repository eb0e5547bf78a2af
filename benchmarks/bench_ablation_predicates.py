"""Ablation: the sliver sub-predicate family (Section 2.1).

Builds static overlays over the same population under every
vertical × horizontal rule combination and reports mean sliver sizes,
degree spread, and 2ε-band connectivity — the properties Theorems 1-3
attribute to the logarithmic rules.  I.B+II.B (the paper's default)
should achieve band connectivity with O(log N*) degrees; the constant
rules either overshoot degrees or lose connectivity on skewed PDFs.
"""

import numpy as np

from repro.churn.overnet import sample_availabilities
from repro.core.availability import AvailabilityPdf
from repro.core.ids import make_node_ids
from repro.core.predicates import AvmemPredicate, NodeDescriptor
from repro.core.slivers import (
    ConstantHorizontal,
    ConstantVertical,
    LogarithmicConstantHorizontal,
    LogarithmicDecreasingVertical,
    LogarithmicVertical,
)
from repro.experiments.report import format_table
from repro.overlays.graphs import band_connectivity, build_overlay, sliver_sizes

POPULATION = 600


def _population(seed=0):
    rng = np.random.default_rng(seed)
    ids = make_node_ids(POPULATION)
    avs = sample_availabilities(POPULATION, rng)
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    descriptors = [NodeDescriptor(n, float(a)) for n, a in zip(ids, avs)]
    return descriptors, pdf


def _evaluate(descriptors, pdf, vertical, horizontal):
    predicate = AvmemPredicate(horizontal, vertical, pdf, epsilon=0.1)
    graph = build_overlay(descriptors, predicate)
    sizes = sliver_sizes(graph)
    hs = [v[0] for v in sizes.values()]
    vs = [v[1] for v in sizes.values()]
    bands_connected = sum(
        band_connectivity(graph, c - 0.1, c + 0.1)
        for c in (0.15, 0.35, 0.55, 0.75, 0.95)
    )
    return {
        "hs_mean": float(np.mean(hs)),
        "vs_mean": float(np.mean(vs)),
        "deg_p99": float(np.percentile([h + v for h, v in zip(hs, vs)], 99)),
        "bands_connected": f"{bands_connected}/5",
    }


def run_ablation():
    descriptors, pdf = _population()
    n_star = pdf.n_star
    verticals = {
        "I.A const": ConstantVertical.from_target_count(3.0 * np.log(n_star), n_star),
        "I.B log": LogarithmicVertical(c1=3.0),
        "I.C log-decr": LogarithmicDecreasingVertical(c1=3.0),
    }
    horizontals = {
        "II.A const": ConstantHorizontal.from_target_count(
            1.0 * np.log(n_star), max(1.0, pdf.n_star_av(0.5, 0.1))
        ),
        "II.B log-const": LogarithmicConstantHorizontal(c2=1.0),
    }
    rows = []
    for v_name, vertical in verticals.items():
        for h_name, horizontal in horizontals.items():
            stats = _evaluate(descriptors, pdf, vertical, horizontal)
            rows.append(
                [f"{v_name} + {h_name}", stats["hs_mean"], stats["vs_mean"],
                 stats["deg_p99"], stats["bands_connected"]]
            )
    return rows


def test_ablation_predicates(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    print(format_table(
        ["rules", "hs_mean", "vs_mean", "deg_p99", "bands_connected"], rows
    ))
    assert len(rows) == 6
    # The paper's I.B + II.B pairing must keep every probed band connected.
    paper_row = next(r for r in rows if r[0] == "I.B log + II.B log-const")
    assert paper_row[4] == "5/5"
