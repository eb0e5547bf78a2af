"""Plan execution: ``sim.ops.run(plan)``.

:class:`OperationRunner` is the single entry point through which every
management-operation workload flows — the figure drivers, the scenario
harness, the service and the ``repro ops run`` CLI all compile down to
an :class:`~repro.ops.plan.OperationPlan` executed here.

Execution walks the compiled launch schedule in time order: advance the
simulator to each launch offset, resolve the initiator (explicit node,
node index, or a fresh draw from the item's band), hand the operation to
the :class:`~repro.ops.engine.OperationEngine`, then drain to the
schedule horizon, run the settle window, finalize the records, and
freeze everything into a columnar :class:`~repro.ops.log.OperationLog`.

Band-addressed launches sharing one launch instant form a natural
cohort: the per-band candidate set is a pure function of (band, sim
time), so it is computed once per (band, instant) — one vectorized
presence + availability pass — and every same-offset slot draws its
initiator from the shared list, consuming the ``"initiators"`` stream
exactly as the per-slot recomputation did.

Plans consume randomness from named streams (``"ops-plan-timing"``,
``"initiators"``, ``"ops"``, ``"latency"``) in launch order; the
seeded records this produces are pinned by ``tests/data/golden/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.ids import NodeId
from repro.ops.log import OperationLog
from repro.ops.plan import OperationItem, OperationPlan
from repro.ops.results import AnycastRecord, MulticastRecord
from repro.telemetry import current as current_telemetry

__all__ = ["OperationRunner", "PlanExecution"]

Record = Union[AnycastRecord, MulticastRecord]


@dataclass(frozen=True)
class PlanExecution:
    """What one :meth:`OperationRunner.run` call produced.

    ``log`` is the columnar outcome table (one row per launch slot,
    including skipped slots); ``records`` the live per-operation records
    in launch order (``None`` where a slot was skipped) for callers that
    need record-level access (examples, tests).
    """

    plan: OperationPlan
    log: OperationLog
    records: Tuple[Optional[Record], ...]

    @property
    def launched(self) -> List[Record]:
        return [record for record in self.records if record is not None]


class OperationRunner:
    """Executes :class:`~repro.ops.plan.OperationPlan`\\ s on a simulation."""

    #: rng stream names (on the simulation's router)
    TIMING_STREAM = "ops-plan-timing"
    INITIATOR_STREAM = "initiators"

    def __init__(self, simulation):
        self._simulation = simulation
        # The simulation's captured recorder (falling back to the active
        # context for stub simulations in tests) — plan execution records
        # into the same per-session recorder as the engine beneath it.
        self._telemetry = getattr(simulation, "telemetry", None)
        if self._telemetry is None:
            self._telemetry = current_telemetry()
        self._by_endpoint: Optional[dict] = None
        # Per-launch-instant cache of band -> initiator candidate row
        # arrays (valid only while sim.now is unchanged; see
        # _pick_from_band).
        self._band_cache: Dict[str, "np.ndarray"] = {}
        self._band_cache_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, plan: OperationPlan) -> OperationLog:
        """Execute ``plan`` and return its :class:`OperationLog`."""
        return self.execute(plan).log

    def execute(self, plan: OperationPlan) -> PlanExecution:
        """Execute ``plan``, keeping record-level results too."""
        with self._telemetry.span("ops.execute"):
            return self._execute(plan)

    def _execute(self, plan: OperationPlan) -> PlanExecution:
        simulation = self._simulation
        simulation._require_ready()
        # The endpoint index is rebuilt per execution: the population may
        # have changed since the last plan ran, and a stale index would
        # resolve endpoint-addressed initiators against nodes that no
        # longer exist (or miss ones that now do).
        self._by_endpoint = None
        self._band_cache = {}
        self._band_cache_time = None
        schedule = plan.compile(rng=simulation._router.get(self.TIMING_STREAM))
        sim = simulation.sim
        engine = simulation.engine
        start = sim.now
        outcomes: List[Tuple[int, float, Optional[Record]]] = []
        telemetry = self._telemetry
        for k in range(len(schedule)):
            launch_at = start + float(schedule.times[k])
            if launch_at > sim.now:
                with telemetry.span("ops.advance"):
                    sim.run_until(launch_at)
            item_index = int(schedule.item_index[k])
            item = plan.items[item_index]
            initiator = self._resolve_initiator(item)
            if initiator is None:
                if telemetry.enabled:
                    telemetry.count("ops.skipped")
                outcomes.append((item_index, sim.now, None))
                continue
            if telemetry.enabled:
                telemetry.count("ops.launched")
                telemetry.count(f"ops.launched.{item.kind}")
            if item.kind == "anycast":
                record: Record = engine.anycast(
                    initiator,
                    item.target,
                    policy=item.resolved_policy,
                    selector=item.selector,
                    ttl=item.ttl,
                    retry=item.retry,
                )
            else:
                record = engine.multicast(
                    initiator,
                    item.target,
                    mode=item.mode,
                    selector=item.selector,
                    anycast_policy=item.resolved_policy,
                    ttl=item.ttl,
                    retry=item.retry,
                )
            outcomes.append((item_index, record.started_at, record))
        drain_until = start + schedule.horizon
        if drain_until > sim.now:
            sim.run_until(drain_until)
        if plan.settle > 0:
            sim.run_until(sim.now + plan.settle)
        builder = OperationLog.builder()
        records: List[Optional[Record]] = []
        for item_index, at, record in outcomes:
            item = plan.items[item_index]
            band = item.band if item.initiator is None else None
            if record is None:
                builder.append_skipped(item, item=item_index, at=at)
            elif isinstance(record, MulticastRecord):
                if record.anycast is not None:
                    record.anycast.finalize()
                builder.append_multicast(record, band=band, item=item_index)
            else:
                record.finalize()
                builder.append_anycast(record, band=band, item=item_index)
            records.append(record)
        return PlanExecution(plan=plan, log=builder.finalize(), records=tuple(records))

    # ------------------------------------------------------------------
    # Initiator resolution
    # ------------------------------------------------------------------
    def _resolve_initiator(self, item: OperationItem) -> Optional[NodeId]:
        simulation = self._simulation
        initiator = item.initiator
        if initiator is None:
            return self._pick_from_band(item.band)
        if isinstance(initiator, NodeId):
            return initiator
        if isinstance(initiator, bool):
            raise TypeError("initiator must be a NodeId, index, or endpoint")
        if isinstance(initiator, int):
            return simulation.node_ids[initiator]
        if isinstance(initiator, str):
            if self._by_endpoint is None:
                self._by_endpoint = {
                    node.endpoint: node for node in simulation.node_ids
                }
            node = self._by_endpoint.get(initiator)
            if node is None:
                raise ValueError(f"unknown initiator endpoint {initiator!r}")
            return node
        raise TypeError(f"cannot resolve initiator {initiator!r}")

    def _pick_from_band(self, band: str) -> Optional[NodeId]:
        """Draw a band initiator, sharing the candidate set across every
        launch slot at the current instant.

        The candidate set is deterministic given (band, sim.now), so
        same-offset slots reuse one vectorized computation while drawing
        from the ``"initiators"`` stream exactly like per-slot
        :meth:`~repro.simulation.AvmemSimulation.pick_initiator` calls.
        Candidates are cached as a population-row array — only the one
        drawn row is translated back to a :class:`NodeId` (trace order is
        row order, so ``rows[j]`` names the node scalar candidate lists
        held at position ``j``, and the rng consumption is unchanged).
        """
        simulation = self._simulation
        now = simulation.sim.now
        if self._band_cache_time != now:
            self._band_cache = {}
            self._band_cache_time = now
        rows = self._band_cache.get(band)
        if rows is None:
            rows = simulation.band_initiator_rows(band)
            self._band_cache[band] = rows
        if not rows.size:
            return None
        rng = simulation._router.get(self.INITIATOR_STREAM)
        return simulation.trace.nodes[int(rows[int(rng.integers(rows.size))])]
