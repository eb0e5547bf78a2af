"""Message-accounting consistency between operation records and the
network layer — the cost numbers reported by the figures must add up."""

import numpy as np
import pytest

from repro.ops.spec import TargetSpec

from conftest import launch


class TestAnycastAccounting:
    def test_data_messages_bounded_by_network_sends(self, small_simulation):
        s = small_simulation
        sent_before = s.network.stats.sent
        (record,) = launch(s, "anycast", (0.6, 1.0), band="mid", policy="retry-greedy")
        sent_after = s.network.stats.sent
        # Receptions counted by the record cannot exceed what the network
        # actually carried in that window.
        assert record.data_messages <= sent_after - sent_before

    def test_hops_consistent_with_receptions(self, small_simulation):
        (record,) = launch(
            small_simulation, "anycast", (0.6, 1.0), band="mid", policy="greedy"
        )
        if record.delivered and record.hops is not None:
            # Each hop is one reception (the initiator's self-check is not
            # a network reception).
            assert record.data_messages >= record.hops

    def test_zero_hop_delivery_sends_nothing(self, small_simulation):
        s = small_simulation
        # Find an online initiator already inside the target.
        initiator = None
        for node in s.online_ids():
            if 0.55 <= s.nodes[node].self_descriptor().availability <= 1.0:
                initiator = node
                break
        if initiator is None:
            pytest.skip("no initiator inside the target right now")
        (record,) = launch(s, "anycast", (0.55, 1.0), initiator=initiator, policy="greedy")
        assert record.delivered
        assert record.hops == 0
        assert record.data_messages == 0


class TestMulticastAccounting:
    def test_flood_messages_cover_deliveries(self, small_simulation):
        (record,) = launch(
            small_simulation, "multicast", (0.6, 1.0), band="high", mode="flood"
        )
        # Every stage-2 delivery beyond the root required >= 1 message.
        non_root_deliveries = max(0, len(record.deliveries) - 1)
        assert record.data_messages >= non_root_deliveries

    def test_gossip_message_budget(self, small_simulation):
        """Gossip sends at most fanout x rounds messages per participant."""
        s = small_simulation
        config = s.settings.config.gossip
        (record,) = launch(s, "multicast", (0.6, 1.0), band="high", mode="gossip")
        participants = len(record.deliveries) + len(record.spam)
        assert record.data_messages <= participants * config.fanout * config.rounds

    def test_engine_records_registry(self, small_simulation):
        s = small_simulation
        before = len(s.engine.multicasts)
        launch(s, "multicast", (0.6, 1.0), band="high")
        assert len(s.engine.multicasts) == before + 1
        # Each multicast shares its op id with its stage-1 anycast.
        op_id, record = max(s.engine.multicasts.items())
        assert record.anycast is s.engine.anycasts[op_id]


class TestDuplicateSuppressionAccounting:
    """Vectorized cohorts absorb seen-at-send duplicates before they
    become simulator events, pre-crediting ``delivered`` and
    ``duplicate_receptions`` at send time.  The record-level accounting
    identities must therefore hold exactly as if every duplicate had
    traveled (which is what the sub-threshold scalar loop does)."""

    def test_receptions_bounded_by_data_messages(self, small_simulation):
        (record,) = launch(
            small_simulation, "multicast", (0.5, 0.9), band="high", mode="flood"
        )
        receptions = (
            len(record.deliveries) + len(record.spam) + record.duplicate_receptions
        )
        # The root's self-acceptance is not a network reception, so it is
        # excluded; every other (first or duplicate) reception consumed
        # exactly one of the record's data messages.
        assert receptions - 1 <= record.data_messages

    def test_seen_set_is_exactly_first_receptions(self, small_simulation):
        """``_mcast_seen`` (where duplicates are told from first receptions) grows
        by exactly the first receptions — deliveries plus spam — and
        duplicates never enter it."""
        s = small_simulation
        (record,) = launch(s, "multicast", (0.5, 0.9), band="high", mode="flood")
        seen = s.engine._mcast_seen[record.op_id]
        assert seen == set(record.deliveries) | {node for node, _ in record.spam}

    def test_gossip_duplicates_balance_too(self, small_simulation):
        (record,) = launch(
            small_simulation, "multicast", (0.5, 0.9), band="high", mode="gossip"
        )
        receptions = (
            len(record.deliveries) + len(record.spam) + record.duplicate_receptions
        )
        assert receptions - 1 <= record.data_messages
        seen = small_simulation.engine._mcast_seen[record.op_id]
        assert seen == set(record.deliveries) | {node for node, _ in record.spam}
