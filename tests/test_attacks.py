"""Tests for the attack-analysis experiments (Figs 5-6 machinery)."""

import numpy as np
import pytest

from repro.attacks.flooding import (
    BandedRates,
    _ground_truth_member,
    _GroundTruth,
    flooding_attack_experiment,
    legitimate_rejection_experiment,
)
from repro.attacks.selfish import spray_attack
from repro.core.predicates import AvmemPredicate


class TestBandedRates:
    def test_overall_and_rows(self):
        from repro.core.ids import make_node_ids

        ids = make_node_ids(3)
        rates = BandedRates(
            cushion=0.0,
            band_rates={0.0: 0.1, 0.5: 0.3},
            sender_rates={ids[0]: 0.1, ids[1]: 0.2, ids[2]: 0.3},
        )
        assert rates.overall == pytest.approx(0.2)
        assert rates.max_band_rate == pytest.approx(0.3)
        assert rates.rows() == [(0.0, 0.1), (0.5, 0.3)]

    def test_empty_rates_nan(self):
        rates = BandedRates(cushion=0.0)
        assert np.isnan(rates.overall)
        assert np.isnan(rates.max_band_rate)


class TestAttackExperiments:
    """Run on the shared small simulation (realistic churn and caches)."""

    def test_flooding_acceptance_low(self, small_simulation):
        s = small_simulation
        rates = flooding_attack_experiment(
            s.nodes, s.predicate, s.true_availability,
            cushion=0.0, max_targets=50, rng=np.random.default_rng(0),
        )
        # Paper's headline: < 10% acceptance in every band.  Allow slack
        # for the small population.
        assert rates.overall < 0.20
        assert len(rates.sender_rates) > 10

    def test_cushion_raises_acceptance(self, small_simulation):
        s = small_simulation
        kwargs = dict(max_targets=50, rng=np.random.default_rng(0))
        base = flooding_attack_experiment(
            s.nodes, s.predicate, s.true_availability, cushion=0.0, **kwargs
        )
        wide = flooding_attack_experiment(
            s.nodes, s.predicate, s.true_availability, cushion=0.1, **kwargs
        )
        assert wide.overall > base.overall

    def test_rejection_bounded(self, small_simulation):
        s = small_simulation
        rates = legitimate_rejection_experiment(
            s.nodes, s.predicate, s.true_availability, cushion=0.0
        )
        assert 0.0 <= rates.overall < 0.5

    def test_cushion_lowers_rejection(self, small_simulation):
        s = small_simulation
        base = legitimate_rejection_experiment(
            s.nodes, s.predicate, s.true_availability, cushion=0.0
        )
        cushioned = legitimate_rejection_experiment(
            s.nodes, s.predicate, s.true_availability, cushion=0.1
        )
        assert cushioned.overall <= base.overall + 1e-9

    def test_attacker_subset(self, small_simulation):
        s = small_simulation
        attackers = s.online_ids()[:5]
        rates = flooding_attack_experiment(
            s.nodes, s.predicate, s.true_availability,
            cushion=0.0, attackers=attackers, max_targets=30,
        )
        assert set(rates.sender_rates) <= set(attackers)

    def test_batched_targets_equal_scalar_ground_truth(self, small_simulation):
        """The Figs 5-6 targets read from one batched predicate call per
        sender are exactly the per-pair scalar ``evaluate`` targets."""
        s = small_simulation
        ground = _GroundTruth(s.nodes, s.predicate, s.true_availability, online_only=True)
        checked = 0
        for sender in list(s.nodes)[::3]:
            for members in (True, False):
                scalar = [
                    y
                    for y in s.nodes
                    if y != sender
                    and s.nodes[sender].online
                    and s.nodes[y].online
                    and _ground_truth_member(s.predicate, s.true_availability, sender, y)
                    == members
                ]
                assert ground.others(sender, members) == scalar
                checked += len(scalar)
        assert checked > 1000

    def test_experiments_make_no_scalar_ground_truth_calls(
        self, small_simulation, monkeypatch
    ):
        """Ground truth is one batched call per sender: neither
        experiment evaluates the predicate pair by pair."""
        s = small_simulation
        calls = []
        scalar = AvmemPredicate.evaluate

        def counting(self, *args, **kwargs):
            calls.append(1)
            return scalar(self, *args, **kwargs)

        monkeypatch.setattr(AvmemPredicate, "evaluate", counting)
        flooding_attack_experiment(
            s.nodes, s.predicate, s.true_availability,
            max_targets=20, rng=np.random.default_rng(0),
        )
        legitimate_rejection_experiment(s.nodes, s.predicate, s.true_availability)
        assert calls == []


class TestSprayAttack:
    def test_spray_outcome_consistency(self, small_simulation):
        s = small_simulation
        attacker_id = s.online_ids()[0]
        outcome = spray_attack(
            s.nodes[attacker_id], s.nodes, s.predicate, s.true_availability,
        )
        assert outcome.attacker == attacker_id
        assert outcome.accepted_total <= outcome.targets_tried
        assert outcome.accepted_illegitimate <= outcome.accepted_total
        assert outcome.legitimate_targets <= outcome.targets_tried

    def test_extra_known_expands_targets(self, small_simulation):
        s = small_simulation
        attacker_id = s.online_ids()[1]
        base = spray_attack(
            s.nodes[attacker_id], s.nodes, s.predicate, s.true_availability
        )
        extra = spray_attack(
            s.nodes[attacker_id], s.nodes, s.predicate, s.true_availability,
            extra_known=s.online_ids(),
        )
        assert extra.targets_tried >= base.targets_tried

    def test_illegitimate_audience_rate_bounded(self, small_simulation):
        s = small_simulation
        attacker_id = s.online_ids()[2]
        outcome = spray_attack(
            s.nodes[attacker_id], s.nodes, s.predicate, s.true_availability,
            extra_known=s.online_ids(),
        )
        rate = outcome.illegitimate_audience_rate
        assert np.isnan(rate) or 0.0 <= rate <= 1.0
