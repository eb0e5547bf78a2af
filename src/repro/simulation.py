"""End-to-end simulation orchestrator.

:class:`AvmemSimulation` wires every substrate together the way the
paper's evaluation does: an Overnet-style churn trace drives presence; the
trace-backed availability oracle answers availability queries by
population row; a shuffled coarse view feeds discovery; AVMEM nodes maintain
their slivers; and an :class:`~repro.ops.engine.OperationEngine` executes
the management operations, with per-hop latencies of U[20, 80] ms.

Two bootstrap modes (docs/architecture.md, "Bootstrap modes"):

* ``"protocol"`` — nodes start with empty lists and run the discovery/
  refresh protocols through the warm-up period (the paper's 24 hours).
  Faithful but expensive; use for small populations and protocol tests.
* ``"direct"`` — the warm-up clock is advanced, then every node's lists
  are enumerated from the consistent predicate in one O(N·k) candidate
  pass (``overlay_method``), after which the periodic refresh keeps them
  current.  Because the predicate is consistent, this is the graph
  discovery converges to; it makes full-scale (1442-host) figure
  regeneration cheap and N = 20k construction a matter of seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.churn.overnet import OvernetTraceConfig, generate_overnet_trace
from repro.churn.trace import ChurnTrace
from repro.core.availability import AvailabilityPdf
from repro.core.config import AvmemConfig
from repro.core.hashing import make_hash
from repro.core.ids import NodeId, make_node_ids
from repro.core.node import AvmemNode
from repro.core.population import Population
from repro.core.predicates import (
    AvmemPredicate,
    NodeDescriptor,
    paper_predicate,
)
from repro.monitor.cache import CachedAvailabilityView
from repro.monitor.coarse_view import GlobalSampleView, ShuffledCoarseView
from repro.monitor.oracle import OracleAvailability
from repro.ops.engine import OperationEngine
from repro.ops.runner import OperationRunner
from repro.ops.spec import InitiatorBand, TargetSpec
from repro.overlays.graphs import OverlayGraph
from repro.overlays.random_overlay import degree_matched_random_predicate
from repro.sim.engine import Simulator
from repro.sim.latency import PAPER_HOP_LATENCY
from repro.sim.network import Network
from repro.telemetry import current as current_telemetry
from repro.util.randomness import RandomRouter

__all__ = ["SimulationSettings", "AvmemSimulation"]

TargetLike = Union[TargetSpec, Tuple[float, float], float]


@dataclass(frozen=True)
class SimulationSettings:
    """Everything needed to reproduce one simulation run.

    Defaults are the paper's evaluation setup at full scale; tests use
    smaller ``hosts``/``epochs``.

    The ``protocols`` field selects which maintenance loops run after
    :meth:`AvmemSimulation.setup`:

    * ``"full"`` — discovery **and** refresh on every node (the paper's
      deployment; required for ``bootstrap="protocol"`` to converge);
    * ``"refresh-only"`` — only the refresh loop: entries are kept
      current and evicted when the predicate fails, but no *new*
      neighbors are discovered.  The cheap mode for large sweeps where
      direct bootstrap already installed the converged overlay;
    * ``"off"`` — frozen lists; cache staleness grows unboundedly.
      Useful for isolating staleness effects (Figs 5-6 style analyses).
    """

    hosts: int = 1442
    epochs: int = 504
    epoch_seconds: float = 1200.0
    seed: int = 0
    #: name of a registered scenario (repro.scenarios.registry) that
    #: generates the churn workload; None keeps the paper's Overnet-like
    #: default trace (byte-identical to the pre-scenario behaviour)
    scenario: Optional[str] = None
    config: AvmemConfig = field(default_factory=AvmemConfig)
    #: "paper" (I.B + II.B) or "random" (degree-matched f = p baseline)
    predicate_kind: str = "paper"
    #: "direct" or "protocol" (see module docstring)
    bootstrap: str = "direct"
    #: "global" (idealized resampler) or "shuffled" (CYCLON-style swaps)
    coarse_view_kind: str = "global"
    #: which protocol loops run after setup: "full", "refresh-only", "off"
    protocols: str = "full"
    #: monitoring-service degradation (drives Figs 5-6 divergence)
    monitor_noise_std: float = 0.02
    monitor_quantization: float = 0.0
    #: should operation recipients verify senders (Section 4.1 checks)?
    verify_inbound: bool = False
    #: how direct bootstrap enumerates the overlay: "candidates" (O(N*k)
    #: interval enumeration; construction raises unless config.hash_name
    #: is interval-searchable, e.g. affine64) or "exhaustive" (block-
    #: tiled N x N — the explicit choice for mix64).  Both produce the
    #: identical overlay for a given hash; there is no fallback.
    overlay_method: str = "candidates"
    #: diurnal churn parameters forwarded to the trace generator
    diurnal_amplitude: float = 0.3
    diurnal_fraction: float = 0.4

    def __post_init__(self):
        if self.hosts <= 1:
            raise ValueError(f"hosts must be > 1, got {self.hosts}")
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.predicate_kind not in ("paper", "random"):
            raise ValueError(
                f"predicate_kind must be 'paper' or 'random', got {self.predicate_kind!r}"
            )
        if self.bootstrap not in ("direct", "protocol"):
            raise ValueError(
                f"bootstrap must be 'direct' or 'protocol', got {self.bootstrap!r}"
            )
        if self.coarse_view_kind not in ("global", "shuffled"):
            raise ValueError(
                f"coarse_view_kind must be 'global' or 'shuffled', got {self.coarse_view_kind!r}"
            )
        if self.protocols not in ("full", "refresh-only", "off"):
            raise ValueError(
                f"protocols must be 'full', 'refresh-only' or 'off', got {self.protocols!r}"
            )
        if self.overlay_method not in ("exhaustive", "candidates"):
            raise ValueError(
                f"overlay_method must be 'exhaustive' or 'candidates', "
                f"got {self.overlay_method!r}"
            )

    @property
    def horizon(self) -> float:
        return self.epochs * self.epoch_seconds

    def as_dict(self) -> dict:
        """All-primitive dict, exact round-trip through
        :meth:`from_dict` — what session manifests persist so a service
        restart can rebuild the identical simulation."""
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclass_fields(self)
            if f.name != "config"
        }
        payload["config"] = self.config.as_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationSettings":
        """Rejects keys that are not fields (a create request's typo, a
        manifest written before a field was removed) by name."""
        payload = dict(payload)
        unknown = sorted(set(payload) - {f.name for f in dataclass_fields(cls)})
        if unknown:
            raise ValueError(f"unknown settings fields: {unknown}")
        if isinstance(payload.get("config"), dict):
            payload["config"] = AvmemConfig.from_dict(payload["config"])
        return cls(**payload)


class AvmemSimulation:
    """A fully wired AVMEM system over a synthetic Overnet trace.

    Construction builds every substrate (trace, network, monitoring
    oracle, coarse view, nodes, operation engine) but advances no time;
    call :meth:`setup` once to warm the system up, then execute an
    :class:`~repro.ops.plan.OperationPlan` through :attr:`ops`
    (``sim.ops.run(plan)``).  All randomness derives from
    ``settings.seed``, so a run is reproducible end to end.

    >>> from repro.ops.plan import OperationItem, OperationPlan
    >>> sim = AvmemSimulation(SimulationSettings(hosts=200, seed=7))
    >>> sim.setup(warmup=3600.0, settle=600.0)
    >>> item = OperationItem(kind="anycast", target=TargetSpec.range(0.8, 0.95))
    >>> log = sim.ops.run(OperationPlan.single(item))
    """

    def __init__(
        self,
        settings: Optional[SimulationSettings] = None,
        scenario_spec=None,
        trace: Optional[ChurnTrace] = None,
    ):
        """Build every substrate for ``settings``.

        ``scenario_spec`` supplies an inline
        :class:`~repro.scenarios.spec.ScenarioSpec` instead of a registry
        lookup of ``settings.scenario`` (the service layer creates
        sessions from ScenarioSpec JSON this way).  ``trace`` injects a
        pre-generated churn trace — e.g. one reopened from a
        checkpoint's spilled timeline — skipping trace generation; the
        injected trace must be the one the settings would generate
        (streams are per-name independent, so skipping the ``"churn"``
        draws perturbs nothing else).
        """
        self.settings = settings if settings is not None else SimulationSettings()
        self._scenario_override = scenario_spec
        self._trace_override = trace
        self._router = RandomRouter(self.settings.seed)
        #: the recorder this simulation's instrumentation routes into,
        #: captured from the active telemetry context at construction
        #: (the process-wide default unless built under ``use_recorder``)
        self.telemetry = current_telemetry()
        with self.telemetry.span("sim.build"):
            self._build()
        self._ready = False
        self._ops_runner: Optional[OperationRunner] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        s = self.settings
        self.node_ids: List[NodeId] = make_node_ids(s.hosts)
        self.scenario_spec = self._scenario_override
        if self._trace_override is not None:
            self.trace: ChurnTrace = self._trace_override
            if len(self.trace.nodes) != s.hosts:
                raise ValueError(
                    f"injected trace covers {len(self.trace.nodes)} nodes, "
                    f"settings expect {s.hosts}"
                )
        elif self.scenario_spec is not None or s.scenario is not None:
            if self.scenario_spec is None:
                from repro.scenarios.registry import get_scenario

                self.scenario_spec = get_scenario(s.scenario)
            compiled = self.scenario_spec.compile(
                hosts=s.hosts,
                epochs=s.epochs,
                epoch_seconds=s.epoch_seconds,
                rng=self._router.get("churn"),
            )
            self.trace = compiled.to_trace(self.node_ids)
        else:
            trace_config = OvernetTraceConfig(
                hosts=s.hosts,
                epochs=s.epochs,
                epoch_seconds=s.epoch_seconds,
                diurnal_amplitude=s.diurnal_amplitude,
                diurnal_fraction=s.diurnal_fraction,
            )
            self.trace = generate_overnet_trace(
                node_keys=self.node_ids, config=trace_config, rng=self._router.get("churn")
            )
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            latency=PAPER_HOP_LATENCY,
            presence=self.trace,
            rng=self._router.get("latency"),
        )
        self.oracle = OracleAvailability(
            self.trace,
            self.sim,
            window=s.config.availability_window,
            noise_std=s.monitor_noise_std,
            quantization=s.monitor_quantization,
            seed=s.seed,
        )
        # The "crawler's" offline PDF: lifetime availabilities of all hosts.
        lifetime = self.trace.timeline.lifetime_availability_array()
        # Struct-of-arrays identity core: digests/availabilities as flat
        # columns, row index == trace/node_ids order.  Nodes and their
        # membership tables hang off rows of this population.
        self.population = Population.from_ids(tuple(self.node_ids), lifetime)
        self.pdf = AvailabilityPdf.from_samples(lifetime, bins=s.config.pdf_bins)
        self.predicate = self._make_predicate(lifetime)
        if s.bootstrap == "direct":
            self.predicate.check_overlay_method(s.overlay_method)
        view_size = s.config.view_size_for(self.pdf.n_star)
        if s.coarse_view_kind == "global":
            self.coarse_view = GlobalSampleView(
                self.sim,
                self.node_ids,
                view_size,
                rng=self._router.get("coarse-view"),
                presence=self.trace,
                period=s.config.discovery_period,
            )
        else:
            self.coarse_view = ShuffledCoarseView(
                self.sim,
                self.node_ids,
                view_size,
                rng=self._router.get("coarse-view"),
                presence=self.trace,
                period=s.config.discovery_period,
            )
        self.nodes: Dict[NodeId, AvmemNode] = {}
        for row, node_id in enumerate(self.node_ids):
            cache = CachedAvailabilityView(self.oracle, self.sim, population=self.population)
            self.nodes[node_id] = AvmemNode(
                self.sim,
                self.network,
                self.predicate,
                s.config,
                availability_view=cache,
                coarse_view=self.coarse_view,
                rng=self._router.get(f"node:{node_id.endpoint}"),
                population=self.population,
                row=row,
            )
        self.engine = OperationEngine(
            self.sim,
            self.network,
            self.nodes,
            s.config,
            truth_availability=self.true_availability,
            rng=self._router.get("ops"),
            verify_inbound=s.verify_inbound,
            truth_eligible=self.truth_eligible_ids,
        )

    def _make_predicate(self, lifetime: np.ndarray) -> AvmemPredicate:
        """The configured predicate over ``config.hash_name`` (the
        random baseline inherits the paper predicate's hash)."""
        config = self.settings.config
        base = paper_predicate(
            self.pdf,
            epsilon=config.epsilon,
            c1=config.c1,
            c2=config.c2,
            hash_fn=make_hash(config.hash_name),
        )
        if self.settings.predicate_kind == "paper":
            return base
        descriptors = [
            NodeDescriptor(node, av) for node, av in zip(self.node_ids, lifetime)
        ]
        return degree_matched_random_predicate(base, descriptors)

    # ------------------------------------------------------------------
    # Ground truth accessors
    # ------------------------------------------------------------------
    def true_availability(self, node: NodeId) -> float:
        """Exact raw availability of ``node`` as of the current sim time."""
        return self.trace.availability(node, self.sim.now)

    def _online_truth_rows(self, keep_fn) -> np.ndarray:
        """Population rows of the online nodes whose *true* availability
        passes ``keep_fn`` (an availability-array → bool-mask callable),
        in trace (= row) order.

        The shared row-space pass under multicast eligibility and
        initiator-candidate queries.  Presence and each node's current
        session come from the timeline's edge-to-edge snapshot, so
        launches between two session edges share one whole-population
        pass — and no per-node key translation, because the population
        *is* the timeline.
        """
        now = self.sim.now
        snapshot = self.trace.timeline.snapshot(now)
        rows = np.flatnonzero(snapshot.online)
        if not rows.size:
            return rows
        return rows[keep_fn(snapshot.availability(rows, now))]

    def truth_eligible_ids(self, target: TargetSpec) -> set:
        """Online nodes whose *true* availability is in ``target`` right
        now — the engine's multicast-eligibility snapshot (Fig 12/13
        denominator)."""
        order = self.trace.nodes
        return {order[i] for i in self._online_truth_rows(target.contains_array)}

    def online_ids(self) -> List[NodeId]:
        return self.trace.online_nodes(self.sim.now)

    # ------------------------------------------------------------------
    # Setup / warm-up
    # ------------------------------------------------------------------
    def setup(self, warmup: float = 86400.0, settle: float = 3600.0) -> None:
        """Warm the system up to ``warmup`` seconds of trace time.

        In ``protocol`` mode the discovery/refresh loops run through the
        whole warm-up.  In ``direct`` mode the overlay is materialized
        from the consistent predicate at ``warmup − settle``, after which
        the configured protocol loops run through the ``settle`` window —
        so by ``warmup`` the lists and caches exhibit the realistic
        staleness profile (entries whose nodes have since gone offline,
        availability values up to one refresh period old) that the
        paper's retried-greedy and attack experiments depend on.
        """
        if self._ready:
            raise RuntimeError("setup() already ran for this simulation")
        s = self.settings
        if warmup >= self.trace.horizon:
            raise ValueError(
                f"warmup {warmup} must leave trace time for experiments "
                f"(horizon {self.trace.horizon})"
            )
        if settle < 0 or settle > warmup:
            raise ValueError(f"settle must be in [0, warmup], got {settle}")
        with self.telemetry.span("sim.setup"):
            if s.bootstrap == "protocol":
                self._start_protocols(s.protocols if s.protocols != "off" else "full")
                with self.telemetry.span("sim.warmup"):
                    self.sim.run_until(warmup)
            else:
                with self.telemetry.span("sim.warmup"):
                    self.sim.run_until(warmup - settle)
                self._direct_bootstrap()
                if s.protocols != "off":
                    self._start_protocols(s.protocols)
                with self.telemetry.span("sim.warmup"):
                    self.sim.run_until(warmup)
        self._ready = True

    def _start_protocols(self, which: str) -> None:
        for node in self.nodes.values():
            if which == "full":
                node.start()
            else:  # refresh-only
                from repro.sim.engine import PeriodicTask

                delay = float(node.rng.uniform(0, self.settings.config.refresh_period))
                node._tasks.append(
                    PeriodicTask(
                        self.sim,
                        self.settings.config.refresh_period,
                        node.refresh_step,
                        start_delay=delay,
                    )
                )
        self._schedule_rejoin_refreshes()

    def _schedule_rejoin_refreshes(self) -> None:
        """Run a refresh right after every rejoin.

        While a node is offline its lists decay unchecked; a real process
        re-validates its neighbor state on restart rather than serving
        hours-stale entries until the next periodic refresh.  The trace
        is known ahead of time, so we schedule one refresh shortly after
        each online-session start (a small jitter models restart work).
        """
        now = self.sim.now
        for node_id, node in self.nodes.items():
            starts, __ = self.trace.sessions(node_id)
            for start in starts.tolist():
                if start > now:
                    jitter = float(node.rng.uniform(1.0, 15.0))
                    self.sim.schedule_at(start + jitter, node.refresh_step)

    def _direct_bootstrap(self) -> None:
        """Materialize the overlay from the consistent predicate.

        Every node evaluates the predicate against the *currently online*
        population using the monitoring service's current estimates — the
        candidates a long-running discovery process would have surfaced
        through the (live-node-circulating) coarse view.  Later discovery
        and refresh rounds keep evolving the lists from there.

        Because the oracle answers deterministically within a time
        bucket, the whole bootstrap is one consistent-predicate overlay:
        a single batched row-space ``evaluate_all_rows`` over the
        population (candidate-generated unless ``overlay_method`` asks
        for the exhaustive sweep, which yields the identical overlay),
        with edges to offline candidates masked out,
        materialized as an :class:`~repro.overlays.graphs.OverlayGraph`
        whose CSR rows feed each node's row-keyed
        :meth:`~repro.core.membership.MembershipTable.upsert_rows`
        directly — no identity objects and no per-edge Python anywhere
        on the install path.
        """
        pop = self.population.with_availabilities(
            self.oracle.query_array(np.arange(len(self.node_ids), dtype=np.int64))
        )
        avs = pop.availabilities
        method = self.settings.overlay_method
        with self.telemetry.span("overlay.build"):
            keys = pop.hash_keys(self.predicate.hash_fn) if method == "candidates" else None
            src, dst, horizontal = self.predicate.evaluate_all_rows(
                pop.digests, avs, method=method, keys=keys
            )
            # Trace order is population row order, so the presence
            # snapshot is already row-aligned; building it here lets the
            # priming fetches below read its window instead of searching.
            online_mask = self.trace.presence_snapshot(self.sim.now)
            keep = online_mask[dst]
            overlay = OverlayGraph(
                None, None, src[keep], dst[keep], horizontal[keep], population=pop
            )
        with self.telemetry.span("overlay.install"):
            for i, node_id in enumerate(self.node_ids):
                node = self.nodes[node_id]
                # Prime the node's own availability cache with the
                # service's current answer, then install its row of
                # predicate matches.
                node.availability.fetch(node.row)
                neighbors, row_horizontal = overlay.row(i)
                node.install_member_rows(neighbors, avs[neighbors], row_horizontal)

    # ------------------------------------------------------------------
    # Operation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def as_target(target: TargetLike) -> TargetSpec:
        """Coerce ``(lo, hi)`` tuples / bare thresholds / specs."""
        if isinstance(target, TargetSpec):
            return target
        if isinstance(target, tuple):
            return TargetSpec.range(*target)
        return TargetSpec.threshold(float(target))

    def band_initiator_rows(self, band: str) -> np.ndarray:
        """Population rows of the online nodes whose true availability
        lies in ``band`` right now, in trace (= row) order.

        The object-free form of :meth:`band_initiator_candidates`, no
        NodeId materialization — what the plan runner caches per launch
        instant.
        """
        InitiatorBand.validate(band)
        return self._online_truth_rows(
            lambda availabilities: InitiatorBand.contains_array(band, availabilities)
        )

    def band_initiator_candidates(self, band: str) -> List[NodeId]:
        """Online nodes whose true availability lies in ``band`` right
        now, in trace order — the list the scalar loop over
        :meth:`online_ids` produced, from one vectorized row-space
        pass."""
        order = self.trace.nodes
        return [order[i] for i in self.band_initiator_rows(band)]

    def pick_initiator(
        self, band: str, rng: Optional[np.random.Generator] = None
    ) -> Optional[NodeId]:
        """A random online node whose true availability is in the band."""
        rng = rng if rng is not None else self._router.get("initiators")
        candidates = self.band_initiator_candidates(band)
        if not candidates:
            return None
        return candidates[int(rng.integers(len(candidates)))]

    @property
    def ops(self) -> OperationRunner:
        """The operation-plan entry point: ``sim.ops.run(plan)``.

        Every operation workload — single shots, batches, mixed/timed
        streams — is an :class:`~repro.ops.plan.OperationPlan` executed
        here.
        """
        if self._ops_runner is None:
            self._ops_runner = OperationRunner(self)
        return self._ops_runner

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def online_nodes(self) -> List[AvmemNode]:
        return [self.nodes[node_id] for node_id in self.online_ids()]

    def _require_ready(self) -> None:
        if not self._ready:
            raise RuntimeError("call setup() before running operations")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AvmemSimulation(hosts={self.settings.hosts}, now={self.sim.now:.0f}s, "
            f"online={len(self.online_ids()) if self._ready else '?'})"
        )
