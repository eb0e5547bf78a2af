"""Per-layer metrics of a traced run.

:func:`layer_metrics` turns the tracer's exact per-name totals and the
program's own public counters into the named per-layer metrics declared
in ``BENCHMARK.json``.  Every workload reports every name; a layer that
does not run on a workload (no service on ``scale-build``, no discovery
on ``ops-mixed``) reports 0 there.  ``README.md`` says which end-to-end
metric each one should move, and on which workload.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["layer_metrics"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile_ms(tracer, name: str, q: float) -> float:
    """Nearest-rank percentile of the recorded spans of ``name``."""
    values = sorted(tracer.durations(name))
    if not values:
        return 0.0
    return 1000.0 * values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(tracer, counters: Dict[str, float], wall_s: float) -> Dict[str, float]:
    """name -> value for every per-layer metric (see module docstring)."""
    t, calls, own = tracer.total_s, tracer.calls, tracer.self_s
    sent = counters.get("sim.net_sent", 0)
    plan_sent = counters.get("plan.net_sent", 0)
    fetches = counters.get("monitor.cache_fetch_calls", 0)
    hits = counters.get("monitor.cache_hits", 0)
    setup_s = t("simulation.setup")
    restore_s = counters.get("service.restore_s", 0.0)
    create_s = t("service.create")
    return {
        # simulation
        "simulation.build_s": t("simulation.build"),
        "simulation.setup_s": setup_s,
        "simulation.bootstrap_s": setup_s - tracer.edge_s("simulation.setup", "sim.run"),
        # churn
        "churn.trace_gen_s": t("churn.trace_gen"),
        "churn.online_mask_s": t("churn.online_mask"),
        "churn.online_mask_calls": calls("churn.online_mask"),
        # core.population
        "core.population_build_s": t("core.population_build"),
        "core.pdf_build_s": t("core.pdf_build"),
        # core.node
        "core.node_construct_s": t("core.node_construct"),
        "core.node_constructs": calls("core.node_construct"),
        "core.discovery_step_s": t("core.discovery_step"),
        "core.discovery_steps": calls("core.discovery_step"),
        "core.discovery_added": tracer.measured("core.discovery_step"),
        "core.discovery_yield": _ratio(
            tracer.measured("core.discovery_step"), tracer.measured("monitor.coarse_view")
        ),
        "core.refresh_step_s": t("core.refresh_step"),
        "core.refresh_steps": calls("core.refresh_step"),
        "core.refresh_evicted": tracer.measured("core.refresh_step"),
        # core.predicates
        "core.eval_all_rows_s": t("core.eval_all_rows"),
        "core.overlay_edges": tracer.measured("core.eval_all_rows"),
        "core.overlay_edges_per_s": _ratio(
            tracer.measured("core.eval_all_rows"), t("core.eval_all_rows")
        ),
        "core.eval_many_s": t("core.eval_many"),
        "core.eval_kind_calls": tracer.count("core.eval_kind"),
        # core.membership
        "core.install_rows_s": t("core.install_rows"),
        "core.install_rows_calls": calls("core.install_rows"),
        "core.refresh_round_s": t("core.refresh_round"),
        "core.neighbor_arrays_calls": tracer.count("core.neighbor_arrays"),
        # overlays
        "overlays.graph_build_s": t("overlays.graph_build"),
        "overlays.row_calls": tracer.count("overlays.row"),
        # monitor
        "monitor.coarse_view_s": t("monitor.coarse_view"),
        "monitor.coarse_view_calls": calls("monitor.coarse_view"),
        "monitor.oracle_query_calls": (
            tracer.count("monitor.oracle_query") + tracer.count_measured("monitor.oracle_query")
        ),
        "monitor.cache_fetch_calls": fetches,
        "monitor.cache_hit_share": _ratio(hits, hits + fetches),
        # sim.engine
        "sim.events": counters.get("sim.events", 0),
        "sim.run_s": t("sim.run"),
        "sim.loop_self_s": own("sim.run"),
        "sim.events_per_run_s": _ratio(counters.get("sim.events", 0), t("sim.run")),
        # sim.network
        "sim.net_sent": sent,
        "sim.net_delivered": counters.get("sim.net_delivered", 0),
        "sim.net_dropped": counters.get("sim.net_dropped", 0),
        "sim.net_drop_share": _ratio(counters.get("sim.net_dropped", 0), sent),
        "sim.net_send_s": t("sim.net_send"),
        "sim.net_send_calls": calls("sim.net_send"),
        "sim.net_cohort_mean": _ratio(sent, calls("sim.net_send")),
        # ops
        "ops.paper_plan_s": t("ops.paper_plan"),
        "ops.anycast_plan_s": t("ops.anycast_plan"),
        "ops.multicast_plan_s": t("ops.multicast_plan"),
        "ops.handle_s": t("ops.handle"),
        "ops.handle_calls": calls("ops.handle"),
        "ops.launched": counters.get("ops.launched", 0),
        "ops.transmissions": counters.get("ops.transmissions", 0),
        "ops.retries": counters.get("ops.retries", 0),
        "ops.retry_share": _ratio(
            counters.get("ops.retries", 0), counters.get("ops.transmissions", 0)
        ),
        "ops.msgs_per_op": _ratio(plan_sent, counters.get("plan.launched", 0)),
        "ops.aggregate_s": t("ops.aggregate"),
        "ops.log_rows": counters.get("ops.log_rows", 0),
        "ops.log_json_s": t("ops.log_json"),
        # service
        "service.create_s": create_s,
        "service.restore_s": restore_s,
        "service.replay_share": _ratio(restore_s - create_s, restore_s),
        "service.plan_cmd_p50_ms": _percentile_ms(tracer, "service.plan_cmd", 0.5),
        "service.advance_cmd_p50_ms": _percentile_ms(tracer, "service.advance_cmd", 0.5),
        "service.step_cmd_p50_ms": _percentile_ms(tracer, "service.step_cmd", 0.5),
        "service.log_poll_p50_ms": _percentile_ms(tracer, "service.log_poll", 0.5),
        "service.log_poll_p90_ms": _percentile_ms(tracer, "service.log_poll", 0.9),
        "service.healthz_p50_ms": _percentile_ms(tracer, "service.healthz", 0.5),
        "service.checkpoint_s": t("service.checkpoint"),
        "service.checkpoint_bytes": counters.get("service.checkpoint_bytes", 0),
        "service.evict_s": t("service.evict"),
        "service.journal_entries": counters.get("service.journal_entries", 0),
        # trace
        "trace.spans": sum(total[1] for total in tracer.totals.values()),
        "trace.coverage": _ratio(tracer.root_s(), wall_s),
    }
