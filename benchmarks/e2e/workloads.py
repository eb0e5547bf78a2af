"""The four workloads of the end-to-end benchmark and their output checks.

Each workload is one run of the path a user pays for —
``AvmemSimulation(...)`` → ``setup()`` → ``sim.ops.run(plan)`` →
``OperationLog.summary``/``aggregate`` (→ service checkpoint/restore) —
at a size chosen so that a different set of layers does the work (see
``README.md``).  :func:`run_workload` executes one run in this process and
returns an :class:`Outcome`: the end-to-end metrics, the public counters
the per-layer metrics are derived from, the digests the orchestrator
compares across same-seed repetitions, and the list of failed checks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np
from plans import plan_anycast, plan_multicast, plan_paper

from repro.ops.log import COLUMN_NAMES, STATUSES, OperationLog
from repro.service.client import ServiceClient
from repro.service.http import make_server
from repro.service.orchestrator import SessionOrchestrator
from repro.service.store import SessionStore
from repro.sim.network import DropReason
from repro.simulation import AvmemSimulation, SimulationSettings
from repro.telemetry import TELEMETRY, peak_rss_mb

__all__ = ["Spec", "Outcome", "WORKLOADS", "SMOKE", "RUN_SECONDS", "run_workload"]

#: ``--seconds`` the sizes below were calibrated for; other values scale
#: the operation budgets linearly (set-up sizes are part of the workload's
#: definition and do not scale)
RUN_SECONDS = 25
EPOCHS = 96
WARMUP = 43800.0
#: the simulated system is part of each workload's definition: one churn
#: trace, one overlay.  ``--seed`` varies the load offered to it (the
#: plans), not the system, so that runs at different seeds do the same
#: set-up work and hold the same memory.
SIM_SEED = 0
AGGREGATE_BY = ("kind", "policy")
_PENDING = STATUSES.index("pending")


@dataclass(frozen=True)
class Spec:
    """One workload: simulation size, warm-up window, operation budgets
    (why each exists: ``BENCHMARK.json`` and ``README.md``)."""

    name: str
    hosts: int
    protocols: str
    settle: float
    #: (plan builder, operations at ``--seconds RUN_SECONDS``) per plan
    plans: Tuple[Tuple[Callable, int], ...]
    #: service-replay only: plan rounds before the checkpoint, log polls
    rounds: int = 0
    polls: int = 0

    @property
    def service(self) -> bool:
        return self.rounds > 0


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="paper-maintain",
            hosts=1442, protocols="full", settle=3600.0,
            plans=((plan_paper, 1500),),
        ),
        Spec(
            name="scale-build",
            hosts=20000, protocols="off", settle=0.0,
            plans=((plan_paper, 100),),
        ),
        Spec(
            name="ops-mixed",
            hosts=5000, protocols="refresh-only", settle=2400.0,
            plans=((plan_anycast, 21000), (plan_multicast, 220)),
        ),
        Spec(
            name="service-replay",
            hosts=5000, protocols="refresh-only", settle=2400.0,
            plans=((plan_paper, 260),), rounds=3, polls=100,
        ),
    )
}

#: ``--smoke``: the same scripts at N <= 300, seconds instead of minutes
SMOKE: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("paper-maintain", 200, "full", 600.0, ((plan_paper, 80),)),
        Spec("scale-build", 300, "off", 0.0, ((plan_paper, 80),)),
        Spec(
            "ops-mixed", 300, "refresh-only", 2400.0,
            ((plan_anycast, 400), (plan_multicast, 40)),
        ),
        Spec(
            "service-replay", 300, "refresh-only", 2400.0,
            ((plan_paper, 80),), rounds=2, polls=20,
        ),
    )
}


@dataclass
class Outcome:
    """What one run produced (see module docstring)."""

    metrics: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    digests: List[str] = field(default_factory=list)
    net: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def log_digest(log: OperationLog) -> str:
    """sha256 over the log's columns in ``COLUMN_NAMES`` order."""
    digest = hashlib.sha256()
    for name in COLUMN_NAMES:
        digest.update(np.ascontiguousarray(log.columns[name]).tobytes())
    return digest.hexdigest()


def check_log(outcome: Outcome, log: OperationLog, label: str) -> None:
    """No record left pending, no launch slot skipped, and every launched
    multicast had somebody to reach — a vacuous plan must fail loudly."""
    status = log.columns["status"]
    outcome.check(not (status == _PENDING).any(), f"{label}: records left pending")
    outcome.check(bool(log.launched.all()), f"{label}: launch slots skipped")
    multicasts = log.multicasts & log.launched
    outcome.check(
        bool((log.columns["eligible"][multicasts] >= 1).all()),
        f"{label}: multicast launched with nobody eligible",
    )


def check_conservation(outcome: Outcome, net: Dict[str, object], label: str) -> None:
    """Every message put on the wire was delivered or dropped.  A send
    from an offline node is recorded as a ``src_offline`` drop without
    ever counting as sent, so those drops sit outside the balance."""
    dropped = dict(net["dropped"])
    on_wire_drops = net["dropped_total"] - dropped.get(DropReason.SRC_OFFLINE, 0)
    outcome.check(
        net["sent"] == net["delivered"] + on_wire_drops,
        f"{label}: sent {net['sent']} != delivered {net['delivered']} + dropped {on_wire_drops}",
    )


def public_counters(simulation: AvmemSimulation, with_caches: bool) -> Dict[str, float]:
    """Exact counts the program already keeps (no wrapper involved)."""
    net = simulation.network.stats.snapshot()
    counters = {
        "sim.events": simulation.sim.events_processed,
        "sim.net_sent": net["sent"],
        "sim.net_delivered": net["delivered"],
        "sim.net_dropped": net["dropped_total"],
    }
    if with_caches:
        caches = [node.availability for node in simulation.nodes.values()]
        counters["monitor.cache_fetch_calls"] = sum(c.fetch_count for c in caches)
        counters["monitor.cache_hits"] = sum(c.hit_count for c in caches)
    return counters


def _log_counters(logs: List[OperationLog]) -> Dict[str, float]:
    return {
        "ops.launched": sum(int(log.launched.sum()) for log in logs),
        "ops.transmissions": sum(int(log.columns["transmissions"].sum()) for log in logs),
        "ops.retries": sum(int(log.columns["retries"].sum()) for log in logs),
        "ops.log_rows": sum(len(log) for log in logs),
    }


def _add(into: Dict[str, float], more: Dict[str, float]) -> None:
    for name, value in more.items():
        into[name] = into.get(name, 0) + value


def _anycast_success(groups: List[dict]) -> float:
    anycasts = [g for g in groups if g["kind"] == "anycast"]
    return sum(g["delivered"] for g in anycasts) / sum(g["launched"] for g in anycasts)


def _scaled(ops: int, scale: float) -> int:
    return max(16, int(round(ops * scale)))


# ----------------------------------------------------------------------
# Direct workloads: the library driven in-process
# ----------------------------------------------------------------------
def run_direct(spec: Spec, seed: int, scale: float, tracer) -> Outcome:
    outcome = Outcome()
    started = perf_counter()
    with tracer.span("bench.plan_gen", "bench"):
        plans = [builder(seed, _scaled(ops, scale)) for builder, ops in spec.plans]
    simulation = AvmemSimulation(
        SimulationSettings(
            hosts=spec.hosts, epochs=EPOCHS, seed=SIM_SEED, protocols=spec.protocols
        )
    )
    simulation.setup(warmup=WARMUP, settle=spec.settle)
    setup_done = perf_counter()
    sent_before = simulation.network.stats.sent
    logs = [simulation.ops.run(plan) for plan in plans]
    log = OperationLog.concat(logs)
    summary = log.summary()
    groups = log.aggregate(by=AGGREGATE_BY)
    plan_s = perf_counter() - setup_done
    with tracer.span("bench.checks", "bench"):
        for plan, plan_log in zip(plans, logs):
            check_log(outcome, plan_log, plan.name)
            outcome.digests.append(log_digest(plan_log))
        outcome.net = simulation.network.stats.snapshot()
        check_conservation(outcome, outcome.net, spec.name)
        outcome.counters = public_counters(simulation, tracer.enabled)
        _add(outcome.counters, _log_counters(logs))
        outcome.counters["plan.net_sent"] = outcome.net["sent"] - sent_before
        outcome.counters["plan.launched"] = summary["launched"]
    wall_s = perf_counter() - started
    launched = summary["launched"]
    outcome.attempted += launched
    outcome.metrics = {
        "setup_s": setup_done - started,
        "plan_s": plan_s,
        "wall_s": wall_s,
        "events_per_s": simulation.sim.events_processed / wall_s,
        "ops_per_s": launched / plan_s,
        "msgs_per_s": outcome.counters["plan.net_sent"] / plan_s,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": _anycast_success(groups),
        "mean_reliability": summary["mean_reliability"],
    }
    return outcome


# ----------------------------------------------------------------------
# service-replay: the HTTP service driven by one closed-loop client
# ----------------------------------------------------------------------
def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(root)
        for name in names
    )


def run_service(spec: Spec, seed: int, scale: float, tracer, scratch: str) -> Outcome:
    outcome = Outcome()
    started = perf_counter()
    session_id = "bench"
    by = list(AGGREGATE_BY)
    builder, ops = spec.plans[0]
    with tracer.span("bench.plan_gen", "bench"):
        bodies = [
            builder(seed, _scaled(ops, scale), round_index=r).as_dict()
            for r in range(spec.rounds + 1)
        ]
    state_dir = os.path.join(scratch, f"state-{os.getpid()}")
    shutil.rmtree(state_dir, ignore_errors=True)
    store = SessionStore(state_dir)
    orchestrator = SessionOrchestrator(store)
    server = make_server(orchestrator, port=0)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=170.0)

    def request(span_name: str, call: Callable, *args, **kwargs):
        """One closed-loop round trip: (reply, seconds).  A non-2xx reply
        raises ServiceClientError and fails the run."""
        outcome.attempted += 1
        with tracer.span(span_name, "service"):
            begin = perf_counter()
            reply = call(*args, **kwargs)
            return reply, perf_counter() - begin

    try:
        for _ in range(20):
            request("service.healthz", client.healthz)
        _, setup_s = request(
            "service.create",
            client.create_session,
            id=session_id,
            settings={
                "hosts": spec.hosts,
                "epochs": EPOCHS,
                "seed": SIM_SEED,
                "protocols": spec.protocols,
            },
            warmup=WARMUP,
            settle=spec.settle,
            telemetry=False,
        )
        plan_s = 0.0
        launched = 0
        for body in bodies[: spec.rounds]:
            reply, seconds = request("service.plan_cmd", client.run_plan, session_id, body)
            launched += reply["summary"]["launched"]
            plan_s += seconds
            plan_s += request("service.advance_cmd", client.advance, session_id, 600.0)[1]
            plan_s += request("service.step_cmd", client.step, session_id, 500)[1]
        for _ in range(spec.polls):
            before, seconds = request("service.log_poll", client.log, session_id, by=by)
            plan_s += seconds
        first_life = orchestrator.get(session_id)
        outcome.counters = public_counters(first_life.simulation, tracer.enabled)
        outcome.counters["plan.net_sent"] = outcome.counters["sim.net_sent"]
        outcome.counters["plan.launched"] = launched
        outcome.counters["service.journal_entries"] = len(first_life.journal)
        check_conservation(
            outcome, first_life.simulation.network.stats.snapshot(), "before checkpoint"
        )
        del first_life
        request("service.checkpoint", client.checkpoint, session_id)
        outcome.counters["service.checkpoint_bytes"] = _tree_bytes(state_dir)
        request("service.evict", client.evict, session_id)
        # The evicted session is cyclic garbage.  Collect it now, so that
        # peak_rss_mb measures one live session and not the accident of
        # whether the collector ran before the restore rebuilt it.
        gc.collect()
        after, restore_s = request("service.restore", client.log, session_id, by=by)
        with tracer.span("bench.checks", "bench"):
            outcome.check(
                json.dumps(before, sort_keys=True) == json.dumps(after, sort_keys=True),
                "aggregation payload after restore differs from the one before evict",
            )
            restored = orchestrator.get(session_id)
            for k, replayed in enumerate(restored.logs):
                outcome.check(
                    log_digest(replayed) == log_digest(store.load_log(session_id, k)),
                    f"restored log {k} differs from the checkpointed one",
                )
        request("service.plan_cmd", client.run_plan, session_id, bodies[-1])
        final, _ = request("service.log_poll", client.log, session_id, by=by)
        with tracer.span("bench.checks", "bench"):
            for k, plan_log in enumerate(restored.logs):
                check_log(outcome, plan_log, f"plan {k}")
                outcome.digests.append(log_digest(plan_log))
            outcome.net = restored.simulation.network.stats.snapshot()
            check_conservation(outcome, outcome.net, "after restore")
            _add(outcome.counters, public_counters(restored.simulation, tracer.enabled))
            _add(outcome.counters, _log_counters(restored.logs))
        wall_s = perf_counter() - started
    finally:
        server.shutdown()
        server.server_close()
        serving.join()
        shutil.rmtree(state_dir, ignore_errors=True)
    outcome.attempted += launched + final["summary"]["launched"]
    outcome.metrics = {
        "setup_s": setup_s,
        "plan_s": plan_s,
        "wall_s": wall_s,
        "events_per_s": outcome.counters["sim.events"] / wall_s,
        "ops_per_s": launched / plan_s,
        "msgs_per_s": outcome.counters["plan.net_sent"] / plan_s,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": _anycast_success(final["groups"]),
        "mean_reliability": final["summary"]["mean_reliability"],
    }
    outcome.counters["service.restore_s"] = restore_s
    return outcome


def run_workload(spec: Spec, seed: int, scale: float, tracer, scratch: str) -> Outcome:
    """One run of ``spec`` in this process."""
    if spec.service:
        outcome = run_service(spec, seed, scale, tracer, scratch)
    else:
        outcome = run_direct(spec, seed, scale, tracer)
    # The measurement must not be taken with the program's own recorder
    # on: it is process-global and changes every hot path's cost.
    outcome.check(TELEMETRY.enabled is False, "repro.telemetry.TELEMETRY is enabled")
    return outcome
