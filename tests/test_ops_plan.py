"""Tests for the declarative operation-plan API: timing/item/plan
validation and round-trips, and plan execution through ``sim.ops``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ops.plan import (
    OPERATION_KINDS,
    TIMING_MODES,
    OperationItem,
    OperationPlan,
    OperationTiming,
)
from repro.ops.results import AnycastStatus
from repro.ops.spec import TargetSpec
from repro.simulation import AvmemSimulation, SimulationSettings


@pytest.fixture(scope="module")
def simulation() -> AvmemSimulation:
    sim = AvmemSimulation(SimulationSettings(hosts=120, epochs=48, seed=5))
    sim.setup(warmup=12600.0, settle=1200.0)
    return sim


class TestTiming:
    def test_batch_offsets(self):
        timing = OperationTiming(mode="batch", phase=7.0)
        offsets, horizon = timing.offsets(4, "anycast", None)
        np.testing.assert_allclose(offsets, 7.0)
        assert horizon == 7.0

    def test_interval_offsets_and_trailing_spacing(self):
        timing = OperationTiming(mode="interval", spacing=3.0, phase=10.0)
        offsets, horizon = timing.offsets(3, "anycast", None)
        np.testing.assert_allclose(offsets, [10.0, 13.0, 16.0])
        assert horizon == pytest.approx(19.0)  # includes one trailing spacing

    def test_interval_default_spacing_per_kind(self):
        timing = OperationTiming(mode="interval")
        a, _ = timing.offsets(2, "anycast", None)
        m, _ = timing.offsets(2, "multicast", None)
        assert a[1] - a[0] == pytest.approx(2.0)
        assert m[1] - m[0] == pytest.approx(5.0)

    def test_poisson_reproducible_and_sorted(self):
        timing = OperationTiming(mode="poisson", rate=0.5, phase=2.0)
        one, h1 = timing.offsets(20, "anycast", np.random.default_rng(3))
        two, h2 = timing.offsets(20, "anycast", np.random.default_rng(3))
        np.testing.assert_array_equal(one, two)
        assert h1 == h2 == one[-1]
        assert (np.diff(one) >= 0).all()
        assert (one >= 2.0).all()

    def test_poisson_without_rng_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            OperationTiming(mode="poisson", rate=1.0).offsets(1, "anycast", None)

    def test_zero_count(self):
        offsets, horizon = OperationTiming(mode="interval", phase=4.0).offsets(
            0, "anycast", None
        )
        assert offsets.size == 0
        assert horizon == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OperationTiming(mode="uniform")
        with pytest.raises(ValueError):
            OperationTiming(spacing=-1.0)
        with pytest.raises(ValueError):
            OperationTiming(phase=-0.1)
        with pytest.raises(ValueError):
            OperationTiming(mode="poisson", rate=0.0)

    def test_dict_roundtrip(self):
        timing = OperationTiming(mode="poisson", rate=0.25, phase=3.0)
        assert OperationTiming.from_dict(timing.as_dict()) == timing


class TestItem:
    def test_kind_vocabulary(self):
        assert set(OPERATION_KINDS) == {"anycast", "multicast"}
        with pytest.raises(ValueError):
            OperationItem(kind="broadcast", target=TargetSpec.range(0.1, 0.2))

    def test_target_type_enforced(self):
        with pytest.raises(TypeError):
            OperationItem(kind="anycast", target=(0.1, 0.2))

    def test_policy_defaults_per_kind(self):
        target = TargetSpec.range(0.1, 0.2)
        assert OperationItem(kind="anycast", target=target).resolved_policy == "greedy"
        assert (
            OperationItem(kind="multicast", target=target).resolved_policy
            == "retry-greedy"
        )
        item = OperationItem(kind="anycast", target=target, policy="anneal")
        assert item.resolved_policy == "anneal"

    def test_validation(self):
        target = TargetSpec.range(0.1, 0.2)
        with pytest.raises(ValueError):
            OperationItem(kind="anycast", target=target, count=-1)
        with pytest.raises(ValueError):
            OperationItem(kind="anycast", target=target, band="top")
        with pytest.raises(ValueError):
            OperationItem(kind="anycast", target=target, policy="teleport")
        with pytest.raises(ValueError):
            OperationItem(kind="anycast", target=target, selector="all")
        with pytest.raises(ValueError):
            OperationItem(kind="multicast", target=target, mode="carrier-pigeon")

    def test_dict_roundtrip_with_threshold_target(self):
        item = OperationItem(
            kind="multicast",
            target=TargetSpec.threshold(0.4),
            count=3,
            band="high",
            mode="gossip",
            retry=2,
            timing=OperationTiming(mode="poisson", rate=0.1),
            label="x",
        )
        clone = OperationItem.from_dict(item.as_dict())
        assert clone == item

    def test_from_dict_target_shorthand(self):
        ranged = OperationItem.from_dict({"kind": "anycast", "target": [0.2, 0.5]})
        assert ranged.target == TargetSpec.range(0.2, 0.5)
        threshold = OperationItem.from_dict({"kind": "anycast", "target": 0.7})
        assert threshold.target == TargetSpec.threshold(0.7)


class TestPlan:
    def _item(self, **kwargs):
        defaults = dict(kind="anycast", target=TargetSpec.range(0.3, 0.6))
        defaults.update(kwargs)
        return OperationItem(**defaults)

    def test_needs_items(self):
        with pytest.raises(ValueError):
            OperationPlan(items=())

    def test_compile_sorts_and_keeps_tie_order(self):
        plan = OperationPlan(items=(
            self._item(count=2, timing=OperationTiming(mode="batch", phase=5.0)),
            self._item(count=2, timing=OperationTiming(mode="batch", phase=0.0)),
        ))
        schedule = plan.compile()
        np.testing.assert_allclose(schedule.times, [0.0, 0.0, 5.0, 5.0])
        assert schedule.item_index.tolist() == [1, 1, 0, 0]
        assert schedule.seq.tolist() == [0, 1, 0, 1]

    def test_horizon_is_max_item_end(self):
        plan = OperationPlan(items=(
            self._item(count=3, timing=OperationTiming(mode="interval", spacing=2.0)),
            self._item(count=1, timing=OperationTiming(mode="batch", phase=100.0)),
        ))
        assert plan.compile().horizon == pytest.approx(100.0)

    def test_total_operations(self):
        plan = OperationPlan(items=(self._item(count=3), self._item(count=4)))
        assert plan.total_operations == 7

    def test_json_roundtrip(self, tmp_path):
        plan = OperationPlan(
            items=(
                self._item(count=2, retry=1),
                self._item(
                    kind="multicast",
                    target=TargetSpec.threshold(0.5),
                    mode="gossip",
                    band="high",
                    timing=OperationTiming(mode="poisson", rate=0.05),
                ),
            ),
            settle=12.0,
            name="roundtrip",
        )
        path = tmp_path / "plan.json"
        plan.to_json(str(path))
        assert OperationPlan.from_json(str(path)) == plan

    def test_deterministic_plans_compile_without_rng(self):
        plan = OperationPlan(items=(self._item(count=5),))
        one = plan.compile()
        two = plan.compile()
        np.testing.assert_array_equal(one.times, two.times)


class TestRunner:
    def test_requires_setup(self):
        simulation = AvmemSimulation(SimulationSettings(hosts=60, epochs=24, seed=0))
        item = OperationItem(kind="anycast", target=TargetSpec.range(0.5, 1.0))
        with pytest.raises(RuntimeError):
            simulation.ops.run(OperationPlan.single(item))

    def test_execution_log_rows_match_records(self, simulation):
        item = OperationItem(
            kind="anycast", target=TargetSpec.range(0.6, 1.0), count=4, band="mid"
        )
        execution = simulation.ops.execute(OperationPlan.single(item))
        assert len(execution.log) == len(execution.launched) == 4
        for i, record in enumerate(execution.launched):
            row = execution.log.row(i)
            assert row["op_id"] == record.op_id
            assert row["status"] == record.status
            assert row["hops"] == (-1 if record.hops is None else record.hops)
            assert row["transmissions"] == record.data_messages

    def test_initiator_by_index_and_endpoint(self, simulation):
        target = TargetSpec.range(0.0, 1.0)  # initiator itself is in range
        by_index = OperationItem(
            kind="anycast", target=target, initiator=3,
            timing=OperationTiming(mode="batch"),
        )
        by_endpoint = OperationItem(
            kind="anycast", target=target,
            initiator=simulation.node_ids[3].endpoint,
            timing=OperationTiming(mode="batch"),
        )
        execution = simulation.ops.execute(
            OperationPlan(items=(by_index, by_endpoint), settle=5.0)
        )
        launched = execution.launched
        assert [r.initiator for r in launched] == [simulation.node_ids[3]] * 2

    def test_endpoint_index_rebuilt_per_execution(self):
        """Regression: the endpoint → node index must be rebuilt each
        execution.  A once-built cache resolves endpoint-addressed
        initiators against a stale population after the simulation's
        node set changes (here: a node leaves between plans)."""
        simulation = AvmemSimulation(SimulationSettings(hosts=60, epochs=24, seed=3))
        simulation.setup(warmup=7200.0, settle=600.0)
        target = TargetSpec.range(0.0, 1.0)

        def endpoint_item(endpoint):
            return OperationItem(
                kind="anycast", target=target, initiator=endpoint,
                timing=OperationTiming(mode="batch"),
            )

        node = simulation.node_ids[5]
        execution = simulation.ops.execute(
            OperationPlan.single(endpoint_item(node.endpoint), settle=5.0)
        )
        assert execution.records[0].initiator == node
        # The node leaves the population; its endpoint must stop resolving.
        simulation.node_ids.pop(5)
        with pytest.raises(ValueError, match="unknown initiator endpoint"):
            simulation.ops.execute(
                OperationPlan.single(endpoint_item(node.endpoint), settle=5.0)
            )
        # And it resolves again once the node is back.
        simulation.node_ids.insert(5, node)
        execution = simulation.ops.execute(
            OperationPlan.single(endpoint_item(node.endpoint), settle=5.0)
        )
        assert execution.records[0].initiator == node

    def test_unknown_endpoint_rejected(self, simulation):
        item = OperationItem(
            kind="anycast", target=TargetSpec.range(0.5, 1.0),
            initiator="255.255.255.255:1",
        )
        with pytest.raises(ValueError, match="endpoint"):
            simulation.ops.run(OperationPlan.single(item))

    def test_mixed_poisson_plan_end_to_end(self, simulation):
        plan = OperationPlan(
            items=(
                OperationItem(
                    kind="anycast", target=TargetSpec.range(0.6, 0.9), count=5,
                    band="mid", timing=OperationTiming(mode="poisson", rate=0.2),
                ),
                OperationItem(
                    kind="multicast", target=TargetSpec.threshold(0.5), count=3,
                    band="high", timing=OperationTiming(mode="poisson", rate=0.1),
                ),
            ),
            settle=30.0,
            name="mixed",
        )
        log = simulation.ops.run(plan)
        assert len(log) == 8
        assert int(log.anycasts.sum()) == 5
        assert int(log.multicasts.sum()) == 3
        launched_at = log.launched_at[log.launched]
        assert (np.diff(launched_at) >= 0).all()  # interleaved by time
        fractions = log.status_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        for status in log.columns["status"]:
            # every launched row reached a terminal state post-settle
            from repro.ops.log import STATUSES

            assert STATUSES[status] != AnycastStatus.PENDING

    def test_workload_spec_compiles_to_mixed_plan(self):
        from repro.scenarios.spec import WorkloadSpec

        workload = WorkloadSpec(anycasts=4, multicasts=2, timing="poisson", rate=0.1)
        plan = workload.to_plan(name="spec")
        assert {item.kind for item in plan.items} == {"anycast", "multicast"}
        assert all(item.timing.mode == "poisson" for item in plan.items)
        assert plan.total_operations == 6
        # Interval mode keeps the historical sequential shape.
        sequential = WorkloadSpec(anycasts=4, multicasts=2).to_plan()
        phases = {item.kind: item.timing.phase for item in sequential.items}
        assert phases["anycast"] == 0.0
        assert phases["multicast"] == pytest.approx(4 * 2.0 + 30.0)
        # Empty workloads compile to no plan at all.
        assert WorkloadSpec(anycasts=0, multicasts=0).to_plan() is None

    def test_timing_modes_vocabulary(self):
        assert set(TIMING_MODES) == {"batch", "interval", "poisson"}

    def test_multicast_item_budgets_reach_stage1(self, simulation):
        # An initiator whose *believed* availability is outside a narrow
        # target: with ttl=0 the stage-1 anycast must expire immediately
        # instead of running on the default TTL budget.
        initiator = next(
            node
            for node in simulation.online_ids()
            if simulation.nodes[node].self_descriptor().availability < 0.97
        )
        item = OperationItem(
            kind="multicast",
            target=TargetSpec.range(0.98, 0.99),
            initiator=initiator,
            ttl=0,
            retry=1,
            timing=OperationTiming(mode="batch"),
        )
        execution = simulation.ops.execute(OperationPlan.single(item, settle=5.0))
        record = execution.records[0]
        assert record.anycast.status == AnycastStatus.TTL_EXPIRED
