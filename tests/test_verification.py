"""Unit tests for inbound message verification (the consistency check)."""

import numpy as np
import pytest

from repro.churn.trace import ChurnTrace
from repro.core.availability import AvailabilityPdf
from repro.core.ids import make_node_ids
from repro.core.population import Population
from repro.core.predicates import NodeDescriptor, paper_predicate
from repro.core.verification import InboundVerifier
from repro.monitor.cache import CachedAvailabilityView
from repro.monitor.oracle import OracleAvailability
from repro.sim.engine import Simulator


def new_cache(oracle, sim):
    """An availability cache over the rows of the oracle's trace."""
    trace = oracle.trace
    population = Population.from_ids(trace.nodes, np.zeros(trace.node_count))
    return CachedAvailabilityView(oracle, sim, population)


@pytest.fixture
def verification_setup(rng):
    ids = make_node_ids(60)
    # Stable presence so raw availabilities are exact and controllable:
    # node i online a fraction (i+1)/60 of each 1000-second cycle.
    sessions = {}
    for i, node in enumerate(ids):
        fraction = (i + 1) / 60.0
        windows = [
            (k * 1000.0, k * 1000.0 + fraction * 1000.0) for k in range(200)
        ]
        sessions[node] = windows
    trace = ChurnTrace.from_intervals(sessions, horizon=200_000.0)
    sim = Simulator()
    oracle = OracleAvailability(trace, sim)
    avs = [(i + 1) / 60.0 for i in range(60)]
    pdf = AvailabilityPdf.from_samples(avs)
    predicate = paper_predicate(pdf)
    sim.run_until(50_000.0)
    return sim, trace, oracle, predicate, ids


class TestVerifier:
    def test_accepts_true_neighbors_with_fresh_info(self, verification_setup):
        sim, trace, oracle, predicate, ids = verification_setup
        owner_row = 30
        owner = ids[owner_row]
        verifier = InboundVerifier(
            owner_row, predicate, new_cache(oracle, sim)
        )
        own_av = oracle.query(owner_row)
        mismatches = 0
        checked = 0
        for row, sender in enumerate(ids):
            if sender == owner:
                continue
            truth = predicate.evaluate(
                NodeDescriptor(sender, oracle.query(row)),
                NodeDescriptor(owner, own_av),
            )
            checked += 1
            if verifier.accepts(sender) != truth:
                mismatches += 1
        # Fresh caches (get_or_fetch pulls current values): perfect match.
        assert mismatches == 0
        assert checked == 59

    def test_stale_cache_changes_decisions(self, verification_setup):
        sim, trace, oracle, predicate, ids = verification_setup
        owner_row = 10
        owner = ids[owner_row]
        cache = new_cache(oracle, sim)
        verifier = InboundVerifier(owner_row, predicate, cache)
        # Fetch everything now; then query much later against moved values.
        cache.fetch_rows(np.arange(len(ids)))
        results_then = {s: verifier.accepts(s) for s in ids if s != owner}
        fresh = new_cache(oracle, sim)
        fresh_verifier = InboundVerifier(owner_row, predicate, fresh)
        sim.run_until(sim.now + 600.0)  # mid-cycle: raw availabilities shift
        results_fresh = {s: fresh_verifier.accepts(s) for s in ids if s != owner}
        # Decisions based on the stale cache are NOT recomputed.
        repeat = {s: verifier.accepts(s) for s in ids if s != owner}
        assert repeat == results_then
        assert isinstance(results_fresh, dict)

    def test_cushion_only_widens(self, verification_setup):
        sim, _, oracle, predicate, ids = verification_setup
        owner_row = 45
        owner = ids[owner_row]
        verifier = InboundVerifier(
            owner_row, predicate, new_cache(oracle, sim)
        )
        for sender in ids[:20]:
            if sender == owner:
                continue
            if verifier.accepts(sender, cushion=0.0):
                assert verifier.accepts(sender, cushion=0.2)

    def test_cushion_override_beats_default(self, verification_setup):
        sim, _, oracle, predicate, ids = verification_setup
        verifier = InboundVerifier(
            45, predicate, new_cache(oracle, sim), cushion=0.0
        )
        result = verifier.verify(ids[0], cushion=0.25)
        assert result.cushion == 0.25

    def test_result_margin_sign(self, verification_setup):
        sim, _, oracle, predicate, ids = verification_setup
        owner_row = 20
        owner = ids[owner_row]
        verifier = InboundVerifier(
            owner_row, predicate, new_cache(oracle, sim)
        )
        for sender in ids[:15]:
            if sender == owner:
                continue
            result = verifier.verify(sender)
            assert result.accepted == (result.margin >= 0)

    def test_counters(self, verification_setup):
        sim, _, oracle, predicate, ids = verification_setup
        owner_row = 20
        owner = ids[owner_row]
        verifier = InboundVerifier(
            owner_row, predicate, new_cache(oracle, sim)
        )
        for sender in ids[:10]:
            if sender != owner:
                verifier.verify(sender)
        assert verifier.accept_count + verifier.reject_count == 10

    def test_invalid_cushion_rejected(self, verification_setup):
        sim, _, oracle, predicate, ids = verification_setup
        with pytest.raises(ValueError):
            InboundVerifier(
                0, predicate, new_cache(oracle, sim), cushion=1.5
            )
