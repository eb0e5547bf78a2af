"""The paper's full algorithm matrix, exercised end to end.

Section 3.2: three anycast policies × three neighbor-set flavors = nine
anycast algorithms; two multicast approaches × three flavors = six
multicast algorithms.  Every cell must run and produce coherent records
on a realistic (churning) system — this is the coverage net for the
combinatorial API surface the figures sample from.
"""

import itertools

import numpy as np
import pytest

from repro.ops.anycast import POLICY_NAMES
from repro.ops.results import AnycastStatus

from conftest import launch

SELECTORS = ("hs", "vs", "hs+vs")
MODES = ("flood", "gossip")


class TestNineAnycastVariants:
    @pytest.mark.parametrize(
        "policy,selector", list(itertools.product(sorted(POLICY_NAMES), SELECTORS))
    )
    def test_variant_runs_and_terminates(self, small_simulation, policy, selector):
        records = launch(
            small_simulation, "anycast", (0.6, 1.0), count=4, band="mid",
            policy=policy, selector=selector, settle=15.0,
        )
        assert records
        for record in records:
            assert record.status in AnycastStatus.TERMINAL
            assert record.policy == policy
            assert record.selector == selector
            if record.delivered:
                assert record.hops is not None
                assert record.latency is not None and record.latency >= 0

    def test_hs_vs_union_dominates_parts(self, small_simulation):
        """HS+VS can only see more candidates than either sliver alone,
        so its delivery rate is (statistically) at least comparable."""
        rates = {}
        for selector in SELECTORS:
            records = launch(
                small_simulation, "anycast", (0.6, 1.0), count=12, band="mid",
                policy="retry-greedy", selector=selector, settle=15.0,
            )
            rates[selector] = np.mean([r.delivered for r in records])
        assert rates["hs+vs"] >= max(rates["hs"], rates["vs"]) - 0.35


class TestSixMulticastVariants:
    @pytest.mark.parametrize(
        "mode,selector", list(itertools.product(MODES, SELECTORS))
    )
    def test_variant_runs(self, small_simulation, mode, selector):
        (record,) = launch(
            small_simulation, "multicast", (0.6, 1.0), band="high", mode=mode,
            selector=selector, settle=20.0,
        )
        assert record.mode == mode
        assert record.selector == selector
        reliability = record.reliability()
        assert np.isnan(reliability) or 0.0 <= reliability <= 1.0
        assert record.data_messages >= 0

    def test_flood_at_least_as_reliable_as_gossip(self, small_simulation):
        flood = [
            launch(small_simulation, "multicast", (0.6, 1.0), band="high",
                   mode="flood", settle=15.0)[0].reliability()
            for _ in range(4)
        ]
        gossip = [
            launch(small_simulation, "multicast", (0.6, 1.0), band="high",
                   mode="gossip", settle=15.0)[0].reliability()
            for _ in range(4)
        ]
        assert np.nanmean(flood) >= np.nanmean(gossip) - 0.15
