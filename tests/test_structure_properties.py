"""Hypothesis property tests on the core data structures.

Invariants that every other layer builds on: schedule/uptime algebra,
membership-table consistency, and event-loop ordering.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.trace import ChurnTrace, NodeSchedule
from repro.core.ids import make_node_ids
from repro.core.membership import MembershipTable
from repro.core.predicates import SliverKind
from repro.sim.engine import Simulator

# ----------------------------------------------------------------------
# NodeSchedule
# ----------------------------------------------------------------------
interval_list = st.lists(
    st.tuples(st.floats(0, 1000), st.floats(0, 1000)).map(
        lambda p: (min(p), max(p))
    ),
    min_size=0,
    max_size=12,
)


@given(intervals=interval_list, probe=st.floats(0, 1000))
@settings(max_examples=80, deadline=None)
def test_schedule_presence_matches_intervals(intervals, probe):
    schedule = NodeSchedule(intervals)
    manual = any(start <= probe < end for start, end in schedule.intervals)
    assert schedule.is_online(probe) == manual


@given(intervals=interval_list)
@settings(max_examples=80, deadline=None)
def test_schedule_normalization_invariants(intervals):
    schedule = NodeSchedule(intervals)
    normalized = schedule.intervals
    # Sorted, disjoint, non-degenerate.
    for (s1, e1), (s2, e2) in zip(normalized, normalized[1:]):
        assert e1 < s2
    for start, end in normalized:
        assert end > start


@given(
    intervals=interval_list,
    t1=st.floats(0, 1000),
    t2=st.floats(0, 1000),
)
@settings(max_examples=80, deadline=None)
def test_uptime_additivity(intervals, t1, t2):
    """uptime(0, b) == uptime(0, a) + uptime(a, b) for a <= b."""
    a, b = sorted((t1, t2))
    schedule = NodeSchedule(intervals)
    total = schedule.uptime(b)
    split = schedule.uptime(a) + schedule.uptime(b, since=a)
    assert total == pytest.approx(split, abs=1e-6)
    # Uptime never exceeds elapsed time.
    assert 0.0 <= schedule.uptime(b) <= b + 1e-9


@given(intervals=interval_list, probe=st.floats(0, 999))
@settings(max_examples=60, deadline=None)
def test_next_transition_flips_presence(intervals, probe):
    schedule = NodeSchedule(intervals)
    nxt = schedule.next_transition(probe)
    if nxt is not None:
        assert nxt > probe
        before = schedule.is_online((probe + nxt) / 2 if nxt > probe else probe)
        after = schedule.is_online(nxt)
        assert before != after


# ----------------------------------------------------------------------
# MembershipTable
# ----------------------------------------------------------------------
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["upsert_h", "upsert_v", "remove"]),
        st.integers(1, 12),  # node index (0 is the owner)
        st.floats(0, 1),
    ),
    min_size=0,
    max_size=40,
)


@given(ops=ops_strategy)
@settings(max_examples=80, deadline=None)
def test_membership_table_invariants(ops):
    ids = make_node_ids(13)
    table = MembershipTable(ids[0])
    model = {}
    for op, index, availability in ops:
        node = ids[index]
        if op == "remove":
            assert table.remove(node) == (node in model)
            model.pop(node, None)
        else:
            kind = SliverKind.HORIZONTAL if op == "upsert_h" else SliverKind.VERTICAL
            table.upsert(node, availability, kind, now=0.0)
            model[node] = kind
    # The table agrees with a plain dict model.
    assert table.total_count == len(model)
    assert {e.node for e in table.horizontal} == {
        n for n, k in model.items() if k is SliverKind.HORIZONTAL
    }
    assert {e.node for e in table.vertical} == {
        n for n, k in model.items() if k is SliverKind.VERTICAL
    }
    # A node is never in both slivers.
    assert not ({e.node for e in table.horizontal} & {e.node for e in table.vertical})


# ----------------------------------------------------------------------
# Simulator ordering
# ----------------------------------------------------------------------
@given(delays=st.lists(st.floats(0, 100), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_simulator_executes_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    # The clock equals each event's scheduled delay at firing time.
    for fired_at, delay in fired:
        assert fired_at == pytest.approx(delay)


@given(
    delays=st.lists(st.floats(0, 100), min_size=2, max_size=20),
    cutoff=st.floats(0, 100),
)
@settings(max_examples=60, deadline=None)
def test_run_until_is_a_prefix(delays, cutoff):
    """run_until(t) fires exactly the events with time <= t."""
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run_until(cutoff)
    assert sorted(fired) == sorted(d for d in delays if d <= cutoff)
