"""Committed golden operation logs: seeded record identity across commits.

Every dispatch case below is one seeded N = 70 simulation executing one
operation plan.  Its ``OperationLog`` (plus the network accounting
totals, the per-operation initiator/delivery endpoints and the number of
multicast envelopes handed to a handler) is committed under
``tests/data/golden/`` and every run must reproduce it.  Each case
replays once; the three test ids per case pin three facets of that one
replay (``FACETS``).

The files were written by a one-event-per-message network, which is what
the network is: a refactor of the simulation core either reproduces them
or changes them deliberately.

The two ``maintain-*`` cases pin the maintenance path instead: N = 300
with discovery *and* refresh on every node through a 900 s settle (15
discovery periods), then a flood / gossip plan.  Besides the records
they hold ``sim.events_processed`` (after set-up and after the plan) and
the next draw of the ``coarse-view`` stream, so a change to how a
discovery round samples, fetches or inserts either reproduces the event
count and the generator state or shows up here.  They were written by
the per-candidate discovery loop (now ``tests/reference/discovery.py``)
at the commit before it was deleted.

``PYTHONPATH=src python tests/test_golden_logs.py`` rewrites the files.
That is the only sanctioned way to change them, and only alongside a
``repro.util.randomness.STREAM_EPOCH`` bump.
"""

from __future__ import annotations

import functools
import itertools
import json
import tempfile
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.node import AvmemNode
from repro.core.population import Population
from repro.core.predicates import AvmemPredicate
from repro.monitor.oracle import OracleAvailability
from repro.ops.log import COLUMN_NAMES
from repro.ops.messages import MulticastMessage
from repro.ops.plan import OperationItem, OperationPlan, OperationTiming
from repro.ops.spec import TargetSpec
from repro.simulation import AvmemSimulation, SimulationSettings
from repro.util.randomness import STREAM_EPOCH

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

POLICIES = ("greedy", "retry-greedy", "anneal")
MODES = ("flood", "gossip")

# Launch offsets phase just before the trace's 1200 s epoch boundaries
# (setup ends on one), so in-flight hops, 0.5 s ack timeouts and gossip
# rounds straddle churn events: the drop/retry paths are part of what
# must stay identical.
TIMINGS = {
    "batch": OperationTiming(mode="batch", phase=1199.8),
    "interval": OperationTiming(mode="interval", spacing=299.95, phase=1199.8),
    "poisson": OperationTiming(mode="poisson", rate=1.0 / 240.0, phase=1199.8),
}


def parity_plan(policy: str, mode: str) -> OperationPlan:
    anycasts = OperationItem(
        kind="anycast", target=TargetSpec.range(0.5, 0.9), count=8,
        policy=policy, timing=TIMINGS["interval"],
    )
    multicasts = OperationItem(
        kind="multicast", target=TargetSpec.range(0.4, 0.8), count=3,
        band="high", mode=mode, policy=policy,
        timing=OperationTiming(mode="interval", spacing=1200.0, phase=1199.9),
    )
    return OperationPlan(items=(anycasts, multicasts), settle=40.0)


def wavefront_plan(policy: str, timing_name: str, mode: str) -> OperationPlan:
    timing = TIMINGS[timing_name]
    anycasts = OperationItem(
        kind="anycast", target=TargetSpec.range(0.5, 0.9), count=10,
        policy=policy, timing=timing,
    )
    # High-band initiators chasing a low target: long walks with ack
    # timeouts and retries interleaved at the shared launch instants.
    retried = OperationItem(
        kind="anycast", target=TargetSpec.range(0.05, 0.25), count=6,
        band="high", policy="retry-greedy", retry=2, timing=timing,
    )
    # Multicasts share the launch instants so stage-2 floods mix with
    # anycast forwards at one simulated instant.
    multicasts = OperationItem(
        kind="multicast", target=TargetSpec.range(0.4, 0.8), count=2,
        band="high", mode=mode, policy=policy, timing=timing,
    )
    return OperationPlan(items=(anycasts, retried, multicasts), settle=40.0)


def suppression_plan(mode: str) -> OperationPlan:
    """Two same-instant multicasts over a wide range: duplicate-heavy."""
    item = OperationItem(
        kind="multicast", target=TargetSpec.range(0.4, 0.9), count=2,
        band="high", mode=mode, timing=TIMINGS["batch"],
    )
    return OperationPlan(items=(item,), settle=40.0)


def _case_table() -> Dict[str, Tuple[int, OperationPlan]]:
    cases: Dict[str, Tuple[int, OperationPlan]] = {}
    for seed, policy, mode in itertools.product((3, 1729, 40507), POLICIES, MODES):
        cases[f"dispatch-s{seed}-{policy}-{mode}"] = (seed, parity_plan(policy, mode))
    combos = itertools.product(POLICIES, sorted(TIMINGS), MODES)
    for k, (policy, timing_name, mode) in enumerate(combos):
        cases[f"wavefront-{policy}-{timing_name}-{mode}"] = (
            100 + 7 * k, wavefront_plan(policy, timing_name, mode),
        )
    for mode in MODES:
        cases[f"suppression-{mode}"] = (11, suppression_plan(mode))
    return cases


#: case id -> (simulation seed, plan)
CASES = _case_table()

#: (hosts, protocols, settle) of the simulation a case runs on
DISPATCH_SHAPE = (70, "refresh-only", 600.0)
MAINTENANCE_SHAPE = (300, "full", 900.0)

#: case id -> (simulation seed, plan), on ``MAINTENANCE_SHAPE``
MAINTENANCE_CASES: Dict[str, Tuple[int, OperationPlan]] = {
    "maintain-flood": (23, parity_plan("greedy", "flood")),
    "maintain-gossip": (577, parity_plan("retry-greedy", "gossip")),
}


def build_sim(seed: int, shape: Tuple[int, str, float] = DISPATCH_SHAPE) -> AvmemSimulation:
    """A warmed simulation of ``shape``."""
    hosts, protocols, settle = shape
    simulation = AvmemSimulation(
        SimulationSettings(hosts=hosts, epochs=24, seed=seed, protocols=protocols)
    )
    simulation.setup(warmup=7200.0, settle=settle)
    return simulation


def run_plan(
    seed: int,
    plan: OperationPlan,
    shape: Tuple[int, str, float] = DISPATCH_SHAPE,
) -> dict:
    """Execute ``plan`` on a fresh seeded simulation; returns the golden
    payload (log, network totals, endpoints, multicast hand-offs; on the
    maintenance shape also the event counts and the coarse-view stream's
    next draw)."""
    simulation = build_sim(seed, shape)
    setup_events = simulation.sim.events_processed
    handlers = simulation.network._handlers
    handoffs = [0]
    for node, original in list(handlers.items()):
        def counting(envelope, _original=original):
            if isinstance(envelope.payload, MulticastMessage):
                handoffs[0] += 1
            _original(envelope)

        handlers[node] = counting
    execution = simulation.ops.execute(plan)
    endpoints = []
    for record in execution.records:
        if record is None:
            endpoints.append(None)
            continue
        anycast = getattr(record, "anycast", record)
        delivered_to = anycast.delivery_node
        endpoints.append(
            [record.initiator.endpoint, delivered_to.endpoint if delivered_to else None]
        )
    with tempfile.TemporaryDirectory() as scratch:
        log_path = Path(scratch) / "log.json"
        execution.log.to_json(str(log_path))
        log_payload = json.loads(log_path.read_text(encoding="utf-8"))
    payload = {
        "stream_epoch": STREAM_EPOCH,
        "network": simulation.network.stats.snapshot(),
        "multicast_handoffs": handoffs[0],
        "endpoints": endpoints,
        "log": log_payload,
    }
    if shape == MAINTENANCE_SHAPE:
        payload["setup_events"] = setup_events
        payload["events_processed"] = simulation.sim.events_processed
        payload["coarse_view_next_draw"] = float(simulation.coarse_view.rng.random())
    return payload


@functools.lru_cache(maxsize=None)
def run_case(case_id: str) -> dict:
    """One replay per case and process: the facet tests share it."""
    if case_id in MAINTENANCE_CASES:
        return run_plan(*MAINTENANCE_CASES[case_id], MAINTENANCE_SHAPE)
    return run_plan(*CASES[case_id])


def golden_path(case_id: str) -> Path:
    return GOLDEN_DIR / f"{case_id}.json"


def write_goldens() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.json"):
        stale.unlink()
    for case_id in (*CASES, *MAINTENANCE_CASES):
        with open(golden_path(case_id), "w", encoding="utf-8") as fh:
            json.dump(run_case(case_id), fh, sort_keys=True)
            fh.write("\n")


def load_golden(case_id: str) -> dict:
    with open(golden_path(case_id), "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["stream_epoch"] != STREAM_EPOCH:
        pytest.fail(
            f"{golden_path(case_id).name} was recorded at stream epoch "
            f"{golden['stream_epoch']} but the code is at {STREAM_EPOCH}: "
            "rewrite the goldens with `PYTHONPATH=src python "
            "tests/test_golden_logs.py` in the commit that bumps STREAM_EPOCH"
        )
    return golden


def assert_same_records(got: dict, want: dict) -> None:
    """Code/integer columns exactly, float columns at rel 1e-9, plus the
    per-operation endpoints and the network's accounting totals."""
    assert got["log"]["vocabularies"] == want["log"]["vocabularies"]
    for name in COLUMN_NAMES:
        want_col, got_col = want["log"]["columns"][name], got["log"]["columns"][name]
        if any(isinstance(v, float) for v in want_col + got_col):
            np.testing.assert_allclose(
                np.array(got_col, dtype=float),  # None -> nan
                np.array(want_col, dtype=float),
                rtol=1e-9, atol=0.0, equal_nan=True, err_msg=name,
            )
        else:
            assert got_col == want_col, name
    assert got["endpoints"] == want["endpoints"]
    assert got["network"] == want["network"]


def duplicate_receptions(payload: dict) -> int:
    # anycast rows carry the -1 "not a multicast" sentinel
    return sum(d for d in payload["log"]["columns"]["duplicates"] if d > 0)


def test_golden_directory_matches_case_table():
    on_disk = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(CASES) | set(MAINTENANCE_CASES)


def assert_handoffs_match(got: dict, want: dict) -> None:
    """Every multicast envelope the golden run handed to a handler is
    handed to one now — duplicates included: nothing absorbs a message
    between the wire and the receiver."""
    assert got["multicast_handoffs"] == want["multicast_handoffs"]


def assert_messages_conserved(got: dict, want: dict) -> None:
    """Exact conservation over a whole plan: every message put on the
    wire was delivered or dropped at its arrival, and every duplicate
    reception in the log is one of the handler hand-offs."""
    network = got["network"]
    dropped = network["dropped"]
    assert network["sent"] == (
        network["delivered"] + dropped.get("dst_offline", 0) + dropped.get("no_handler", 0)
    )
    duplicates = duplicate_receptions(got)
    assert duplicates == duplicate_receptions(want)
    assert duplicates <= got["multicast_handoffs"]


#: facet id -> check of one replay against its golden.  The ids are not
#: descriptive: they are the names the PR driver's floor list of tests
#: that must keep passing already carries for these cases.
FACETS = {
    "default": assert_same_records,
    "scalar": assert_handoffs_match,
    "vector": assert_messages_conserved,
}


@pytest.mark.parametrize("facet", sorted(FACETS))
@pytest.mark.parametrize("case_id", sorted(CASES))
def test_replay_matches_golden(case_id, facet):
    golden = load_golden(case_id)
    FACETS[facet](run_case(case_id), golden)
    if case_id.startswith("suppression"):
        assert duplicate_receptions(golden) > 0  # the duplicate-heavy plans stay so


@pytest.mark.parametrize("case_id", sorted(MAINTENANCE_CASES))
def test_maintenance_replay_matches_golden(case_id):
    golden = load_golden(case_id)
    got = run_case(case_id)
    assert_same_records(got, golden)
    assert got["multicast_handoffs"] == golden["multicast_handoffs"]
    for name in ("setup_events", "events_processed", "coarse_view_next_draw"):
        assert got[name] == golden[name], name


def test_maintenance_rounds_stay_batched(monkeypatch):
    """Counts, not times: through a full-protocol set-up no candidate is
    evaluated or fetched one at a time.  ``evaluate_kind`` is never
    called, and the only scalar oracle queries are the self fetches —
    one per node at bootstrap and one per online discovery or refresh
    round — so the per-candidate loop cannot come back through a
    fallback.  Per-node timers are untouched: the event count is the
    golden's."""
    calls = {"evaluate_kind": 0, "query": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(AvmemPredicate, "evaluate_kind")
    counted(OracleAvailability, "query")
    seed, _ = MAINTENANCE_CASES["maintain-flood"]
    simulation = build_sim(seed, MAINTENANCE_SHAPE)
    nodes = list(simulation.nodes.values())
    discovery_rounds = sum(node.discovery_rounds for node in nodes)
    refresh_rounds = sum(node.refresh_rounds for node in nodes)
    assert discovery_rounds > 10 * len(nodes) // 4  # the rounds did run
    assert calls["evaluate_kind"] == 0
    assert calls["query"] <= len(nodes) + discovery_rounds + refresh_rounds
    assert sum(node.availability.fetch_count for node in nodes) > 5 * calls["query"]
    assert simulation.sim.events_processed == load_golden("maintain-flood")["setup_events"]


def test_round_fetches_materialize_no_ids(monkeypatch):
    """Counts, not times: through a full-protocol set-up with a 3600 s
    settle, ``Population.ids_of`` never runs.  The availability cache is
    keyed by population row and the predicate hashes the population's
    key column, so neither a round's fetch nor its evaluation
    materializes an id; a cache or predicate that maps rows back to ids
    fails here."""
    calls = {"ids_of": 0, "_evaluate_rows": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Population, "ids_of")
    counted(AvmemNode, "_evaluate_rows")
    seed, _ = MAINTENANCE_CASES["maintain-flood"]
    hosts, protocols, _ = MAINTENANCE_SHAPE
    build_sim(seed, (hosts, protocols, 3600.0))
    assert calls["_evaluate_rows"] > 10 * hosts  # the rounds did run
    assert calls["ids_of"] == 0


def test_round_availability_reads_search_once_per_window(monkeypatch):
    """Counts, not times: through the same settle, the per-node segment
    search ``ChurnTimeline._last_started`` runs once per edge-to-edge
    window the rounds read (``_snapshot_sessions``), plus the one-off
    uptime-before-zero pass and at most one more.  Every raw
    availability read of a round, scalar or batched, answers from the
    live snapshot its online gate built; a batched read that searches
    again fails here."""
    from repro.churn.timeline import ChurnTimeline

    calls = {"_last_started": 0, "_snapshot_sessions": 0}
    for name in calls:
        original = getattr(ChurnTimeline, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ChurnTimeline, name, wrapper)
    seed, _ = MAINTENANCE_CASES["maintain-flood"]
    hosts, protocols, _ = MAINTENANCE_SHAPE
    simulation = build_sim(seed, (hosts, protocols, 3600.0))
    assert sum(node.discovery_rounds for node in simulation.nodes.values()) > 10 * hosts
    assert calls["_snapshot_sessions"] >= 1
    assert calls["_last_started"] <= calls["_snapshot_sessions"] + 2


def test_interval_plan_pays_population_passes_per_edge_not_per_launch(monkeypatch):
    """Counts, not times: a 300-launch 50 ms interval plan straddling an
    epoch boundary makes whole-population passes (``online_mask``, the
    ``_last_started`` segment search) once per session edge it crosses,
    not once per launch.  Protocols are off, so nothing else reaches
    either method: a per-launch
    ``online_mask`` + ``availability_array`` coming back fails here."""
    from repro.churn.timeline import ChurnTimeline

    simulation = build_sim(5, shape=(150, "off", 600.0))
    calls = {"online_mask": 0, "_last_started": 0}
    for name in calls:
        original = getattr(ChurnTimeline, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ChurnTimeline, name, wrapper)
    start = simulation.sim.now
    plan = OperationPlan(
        items=(
            OperationItem(
                kind="anycast", target=TargetSpec.range(0.5, 0.9), count=300,
                timing=OperationTiming(mode="interval", spacing=0.05, phase=1192.0),
            ),
            OperationItem(
                kind="multicast", target=TargetSpec.range(0.4, 0.8), count=4, band="high",
                timing=OperationTiming(mode="interval", spacing=3.0, phase=1193.0),
            ),
        ),
        settle=40.0,
    )
    simulation.ops.run(plan)
    assert len(simulation.engine.anycasts) == 304  # every slot launched
    timeline = simulation.trace.timeline
    edges = np.unique(np.concatenate((timeline.starts, timeline.ends)))
    crossed = int(np.count_nonzero((edges > start) & (edges <= simulation.sim.now)))
    assert 1 <= crossed <= 3  # the plan does straddle an epoch boundary
    assert 0 < calls["online_mask"] <= crossed + 1
    # + 1: the uptime-before-zero column, gathered once per timeline.
    assert 0 < calls["_last_started"] <= crossed + 2


if __name__ == "__main__":
    write_goldens()
    print(f"wrote {len(CASES) + len(MAINTENANCE_CASES)} golden logs to {GOLDEN_DIR}")
