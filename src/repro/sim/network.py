"""Simulated message-passing network with presence-gated delivery.

Messages between nodes take a latency drawn from a
:class:`~repro.sim.latency.LatencyModel`.  Delivery only succeeds if the
destination is online at the arrival instant (per the churn trace); a
message to an offline node is silently dropped — exactly the failure mode
that the paper's retried-greedy anycast (Section 3.2) exists to mask.

Single messages go through :meth:`Network.send` — one latency draw, one
simulator event.  Fan-out cohorts (multicast floods, gossip rounds) go
through :meth:`Network.send_batch`, which samples the whole cohort's
latencies in one vectorized draw, answers destination presence *at the
per-message arrival instants* with one batched oracle query, and
enqueues one simulator event per arrival-time cohort instead of one per
message.  A ``send_batch`` cohort below ``batch_threshold`` keeps one
event per message — one sender check, one ``sample_array`` draw and one
``schedule_at_many`` for the cohort, each destination's presence checked
when its message arrives — and a sub-threshold ``send_many`` (one sender
per item) sends its items one by one.  Either way deliveries are
identical (same rng stream consumption, same handler invocation order)
— property-tested in ``tests/test_dispatch.py``.

The network layer is deliberately dumb: no acknowledgements, no retries.
Those are protocol behaviours and live in :mod:`repro.ops`, built from
plain messages plus simulator timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Protocol, Sequence

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel, UniformLatency
from repro.telemetry import current as current_telemetry
from repro.util.randomness import fallback_rng

__all__ = ["Network", "NetworkStats", "PresenceOracle", "Envelope", "DropReason"]

NodeKey = Hashable
Handler = Callable[["Envelope"], None]


class PresenceOracle(Protocol):
    """Answers whether a node is online at a given simulation time.

    Implemented by :class:`repro.churn.trace.ChurnTrace` and by the
    always-on oracle used in unit tests.  Presence must be a pure
    function of ``(node, time)`` — the batched dispatch path evaluates
    arrival-instant presence at send time, which is only equivalent to
    an arrival-time query for oracles that answer consistently.  Oracles
    may optionally provide a vectorized
    ``is_online_array(nodes, times) -> bool array`` (as
    :class:`~repro.churn.trace.ChurnTrace` does); the network batches
    through it when present and falls back to scalar queries otherwise.
    Row-addressed callers (population-backed nodes) additionally need
    ``presence_snapshot(time) -> bool array`` over the oracle's own node
    order (see :meth:`Network.online_rows`).
    """

    def is_online(self, node: NodeKey, time: float) -> bool:  # pragma: no cover
        ...


class AlwaysOnline:
    """Presence oracle that reports every node online (for tests/examples)."""

    def is_online(self, node: NodeKey, time: float) -> bool:
        return True


@dataclass(frozen=True)
class Envelope:
    """A message in flight (or delivered)."""

    src: NodeKey
    dst: NodeKey
    payload: Any
    sent_at: float
    delivered_at: float


class DropReason:
    """Enumerates why a message failed to deliver (plain strings for cheap
    counter keys)."""

    SRC_OFFLINE = "src_offline"
    DST_OFFLINE = "dst_offline"
    NO_HANDLER = "no_handler"


@dataclass
class NetworkStats:
    """Running message accounting for a :class:`Network`."""

    sent: int = 0
    delivered: int = 0
    dropped: Dict[str, int] = field(default_factory=dict)

    @property
    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    def record_drop(self, reason: str, count: int = 1) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + count

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict copy for reports."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": dict(self.dropped),
            "dropped_total": self.dropped_total,
        }


class Network:
    """Latency- and presence-aware message router.

    Parameters
    ----------
    sim:
        The driving simulator.
    latency:
        Per-message one-way latency model.  Defaults to the paper's
        uniform [20 ms, 80 ms].
    presence:
        Oracle deciding who is online when.  Defaults to always-online.
    rng:
        Random stream for latency sampling.
    check_sender:
        When True (default), a message from a node that is offline at send
        time is dropped immediately — a crashed node cannot transmit.
    batch_threshold:
        Cohorts smaller than this keep one simulator event per message
        (arrival-instant presence checked at delivery) instead of the
        batched destination-presence query and arrival-time grouping —
        below roughly a dozen messages that fixed cost exceeds the
        per-message events it saves.  Both are behaviourally identical
        (same rng consumption, same delivery order), so the size-based
        selection is purely a matter of speed;
        ``tests/test_golden_logs.py`` replays every golden log at 1
        (always vectorize) and 10**9 (never).
    """

    #: cohort size below which a cohort keeps one event per message.
    #: Re-measured on ``benchmarks/e2e`` with the sub-threshold cohort
    #: path in place (``plan_s`` medians at 1 / 12 / 10**9 for
    #: ``ops-mixed`` and ``paper-maintain`` are in CHANGES.md, PR 15);
    #: ``ops-mixed`` runs both sides — anycast walks are sub-threshold
    #: cohorts, multicast fan-out is vectorized.
    DEFAULT_BATCH_THRESHOLD = 12

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        presence: Optional[PresenceOracle] = None,
        rng: Optional[np.random.Generator] = None,
        check_sender: bool = True,
        batch_threshold: Optional[int] = None,
    ):
        self.sim = sim
        self.latency = latency if latency is not None else UniformLatency()
        self.presence = presence if presence is not None else AlwaysOnline()
        self.rng = rng if rng is not None else fallback_rng()
        self.check_sender = check_sender
        self.batch_threshold = (
            self.DEFAULT_BATCH_THRESHOLD if batch_threshold is None else int(batch_threshold)
        )
        self.stats = NetworkStats()
        # Captured once (see Simulator): a network built under
        # telemetry.use_recorder() records into that session's recorder.
        self._telemetry = current_telemetry()
        self._handlers: Dict[NodeKey, Handler] = {}
        #: optional (begin, end) callbacks bracketing every multi-message
        #: delivery cohort — the operation engine hangs its wavefront
        #: hold/release here so all receptions at one simulated instant
        #: dispatch their forwards as a single cohort.
        self.cohort_hooks: Optional["tuple[Callable[[], None], Callable[[], None]]"] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def attach(self, node: NodeKey, handler: Handler) -> None:
        """Register the message handler for ``node`` (one per node)."""
        if node in self._handlers:
            raise ValueError(f"node {node!r} already attached")
        self._handlers[node] = handler

    def detach(self, node: NodeKey) -> None:
        """Remove a node's handler; in-flight messages to it will be dropped."""
        self._handlers.pop(node, None)

    def is_attached(self, node: NodeKey) -> bool:
        return node in self._handlers

    @property
    def node_count(self) -> int:
        return len(self._handlers)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: NodeKey, dst: NodeKey, payload: Any) -> bool:
        """Send ``payload`` from ``src`` to ``dst``.

        Returns True if the message was put on the wire (it may still be
        dropped at arrival if the destination has gone offline by then).
        Returns False if the sender itself was offline.
        """
        now = self.sim.now
        if self.check_sender and not self.presence.is_online(src, now):
            self.stats.record_drop(DropReason.SRC_OFFLINE)
            return False
        self.stats.sent += 1
        delay = self.latency.sample(self.rng)
        deliver_at = now + delay
        envelope = Envelope(src=src, dst=dst, payload=payload, sent_at=now, delivered_at=deliver_at)
        self.sim.schedule(delay, self._deliver, envelope)
        return True

    def send_batch(self, src: NodeKey, dsts: Sequence[NodeKey], payload: Any) -> int:
        """Send one ``payload`` from ``src`` to every node in ``dsts``.

        The batched equivalent of one :meth:`send` per destination, with
        identical semantics and accounting totals: the cohort's latencies
        come from one vectorized :meth:`~repro.sim.latency.LatencyModel.
        sample_array` draw (consuming the rng stream exactly like
        per-destination scalar draws, in ``dsts`` order), destination
        presence at the per-message arrival instants is answered by one
        batched oracle query, and deliveries are enqueued as **one
        simulator event per arrival-time cohort** — a
        :meth:`_deliver_batch` that walks the cohort's envelopes in send
        order, preserving the handler invocation order the per-message
        events would have produced.

        Messages whose destination is offline at arrival record their
        ``DST_OFFLINE`` drop immediately (a sub-threshold cohort records it at
        the arrival instant; totals are identical, only the counter
        timing differs) and schedule no event at all.  Returns the number
        of messages put on the wire (0 when the sender is offline — no
        latency is drawn, matching the scalar path).
        """
        sent, _ = self.send_batch_suppressing(src, dsts, payload, None)
        return sent

    def send_batch_suppressing(
        self,
        src: NodeKey,
        dsts: Sequence[NodeKey],
        payload: Any,
        suppress: Optional[np.ndarray],
    ) -> "tuple[int, int]":
        """:meth:`send_batch` with a per-destination suppression mask.

        ``suppress[k]`` marks a destination whose reception is already
        known to be a no-op for the protocol (e.g. a multicast duplicate:
        the seen-set only grows, so seen-at-send implies seen-at-arrival).
        A suppressed message is accounted exactly as if it had traveled —
        its latency draw still happens in ``dsts`` order (stream parity
        with per-message sends), an offline-at-arrival destination still
        records ``DST_OFFLINE``, a missing handler still records
        ``NO_HANDLER``, and an otherwise-deliverable one still counts in
        ``stats.delivered`` — but **no simulator event is scheduled** for
        it.  Returns ``(on_wire, suppressed_delivered)`` where the second
        element is how many suppressed messages would have reached their
        handler (the caller credits those as duplicate receptions).

        A cohort below the threshold sends every message normally — one
        event each, exactly what one :meth:`send` per destination would
        enqueue — and ``suppressed_delivered`` is 0: the receiver-side
        seen-set check then accounts the duplicates, so totals agree on
        both paths.
        """
        n = len(dsts)
        if n == 0:
            return 0, 0
        now = self.sim.now
        batched = n >= self.batch_threshold
        if batched and self._telemetry.enabled:
            self._telemetry.observe("net.batch_cohort_size", n)
        if self.check_sender and not self.presence.is_online(src, now):
            self.stats.record_drop(DropReason.SRC_OFFLINE, count=n)
            return 0, 0
        self.stats.sent += n
        arrivals = now + self.latency.sample_array(self.rng, n)
        if not batched:
            times = arrivals.tolist()
            self.sim.schedule_at_many(
                times,
                self._deliver,
                [
                    (Envelope(src=src, dst=dst, payload=payload, sent_at=now, delivered_at=at),)
                    for dst, at in zip(dsts, times)
                ],
            )
            return n, 0
        online = self._presence_array(dsts, arrivals)
        offline_count = int(n - np.count_nonzero(online))
        if offline_count:
            self.stats.record_drop(DropReason.DST_OFFLINE, count=offline_count)
            if self._telemetry.enabled:
                self._telemetry.count("net.drop.dst_offline", offline_count)
        if suppress is not None:
            deliver_mask = online & ~suppress
            suppressed_live = np.flatnonzero(online & suppress)
            suppressed_delivered = 0
            for i in suppressed_live.tolist():
                # Handler resolution mirrors delivery time: a detached
                # destination drops exactly as _deliver_batch would.
                if dsts[i] in self._handlers:
                    self.stats.delivered += 1
                    suppressed_delivered += 1
                else:
                    self.stats.record_drop(DropReason.NO_HANDLER)
        else:
            deliver_mask = online
            suppressed_delivered = 0
        if suppress is not None and self._telemetry.enabled:
            self._telemetry.count(
                "net.suppressed_duplicates", int(np.count_nonzero(suppress))
            )
        live = np.flatnonzero(deliver_mask)
        if not live.size:
            return n, suppressed_delivered
        live_times = arrivals[live]
        # Unique arrival times define the cohorts; walking the live
        # indices in send order keeps each cohort's envelope list in the
        # order the per-message events would have fired (equal-time
        # events tie-break by scheduling order).
        unique_times, inverse = np.unique(live_times, return_inverse=True)
        cohorts: List[List[Envelope]] = [[] for _ in range(unique_times.size)]
        for k, i in zip(inverse.tolist(), live.tolist()):
            cohorts[k].append(
                Envelope(
                    src=src,
                    dst=dsts[i],
                    payload=payload,
                    sent_at=now,
                    delivered_at=float(arrivals[i]),
                )
            )
        self.sim.schedule_at_many(
            unique_times.tolist(),
            self._deliver_batch,
            [(cohort,) for cohort in cohorts],
        )
        return n, suppressed_delivered

    def send_many(
        self, items: Sequence["tuple[NodeKey, NodeKey, Any]"]
    ) -> List[bool]:
        """Dispatch a heterogeneous cohort of ``(src, dst, payload)`` sends.

        The wavefront sibling of :meth:`send_batch`: one vectorized
        sender-presence query at the current instant, one latency draw
        for the live-sender messages (in item order — an offline sender
        draws nothing, exactly like scalar :meth:`send`), one batched
        destination-presence query at the per-message arrival instants,
        and one simulator event per arrival-time cohort.  Returns the
        per-item on-wire flags (``False`` ⇔ the sender was offline), in
        item order — callers arm ack timeouts only for wired items, as
        they would off scalar :meth:`send` return values.

        Degrades to a loop of scalar sends when the cohort is below the
        threshold (every item has its own sender to check); both paths
        consume the latency stream identically and deliver in the same
        order.
        """
        n = len(items)
        wired = [False] * n
        if n == 0:
            return wired
        if n < self.batch_threshold:
            for k, (src, dst, payload) in enumerate(items):
                wired[k] = self.send(src, dst, payload)
            return wired
        now = self.sim.now
        if self._telemetry.enabled:
            self._telemetry.observe("net.wavefront_cohort_size", n)
        if self.check_sender:
            src_online = self._presence_array([item[0] for item in items], now)
        else:
            src_online = np.ones(n, dtype=bool)
        live_src = np.flatnonzero(src_online)
        if live_src.size < n:
            self.stats.record_drop(
                DropReason.SRC_OFFLINE, count=int(n - live_src.size)
            )
        if not live_src.size:
            return wired
        m = int(live_src.size)
        self.stats.sent += m
        arrivals = now + self.latency.sample_array(self.rng, m)
        live_items = [items[int(i)] for i in live_src]
        for i in live_src.tolist():
            wired[i] = True
        online = self._presence_array([item[1] for item in live_items], arrivals)
        deliverable = np.flatnonzero(online)
        if deliverable.size < m:
            self.stats.record_drop(
                DropReason.DST_OFFLINE, count=int(m - deliverable.size)
            )
            if self._telemetry.enabled:
                self._telemetry.count(
                    "net.drop.dst_offline", int(m - deliverable.size)
                )
        if not deliverable.size:
            return wired
        live_times = arrivals[deliverable]
        unique_times, inverse = np.unique(live_times, return_inverse=True)
        cohorts: List[List[Envelope]] = [[] for _ in range(unique_times.size)]
        for k, j in zip(inverse.tolist(), deliverable.tolist()):
            src, dst, payload = live_items[j]
            cohorts[k].append(
                Envelope(
                    src=src,
                    dst=dst,
                    payload=payload,
                    sent_at=now,
                    delivered_at=float(arrivals[j]),
                )
            )
        self.sim.schedule_at_many(
            unique_times.tolist(),
            self._deliver_batch,
            [(cohort,) for cohort in cohorts],
        )
        return wired

    def is_online(self, node: NodeKey) -> bool:
        """Convenience: is ``node`` online right now?"""
        return self.presence.is_online(node, self.sim.now)

    def online_array(self, nodes: Sequence[NodeKey]) -> np.ndarray:
        """Presence of many nodes right now — one batched oracle query."""
        return self._presence_array(nodes, self.sim.now)

    def online_rows(self, rows) -> np.ndarray:
        """Presence right now by *row* of the presence oracle (an index
        or an index array into its node order): one lookup in the
        oracle's ``presence_snapshot``, which a trace-backed oracle
        reuses until the next session edge.  Population-backed nodes,
        whose population rows are the trace's rows, gate their protocol
        rounds and probe discovery candidates through this."""
        return self.presence.presence_snapshot(self.sim.now)[rows]

    def _presence_array(self, nodes: Sequence[NodeKey], times) -> np.ndarray:
        """Boolean presence of ``nodes[k]`` at ``times`` (scalar or
        parallel array), batched through the oracle when it can."""
        batch = getattr(self.presence, "is_online_array", None)
        if batch is not None:
            try:
                return np.asarray(batch(nodes, times), dtype=bool)
            except KeyError:
                # A node the oracle doesn't know: the scalar protocol
                # answers False for unknowns, so fall through to it.
                pass
        times_arr = np.broadcast_to(np.asarray(times, dtype=float), (len(nodes),))
        return np.fromiter(
            (self.presence.is_online(node, float(t)) for node, t in zip(nodes, times_arr)),
            dtype=bool,
            count=len(nodes),
        )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, envelope: Envelope) -> None:
        if not self.presence.is_online(envelope.dst, self.sim.now):
            self.stats.record_drop(DropReason.DST_OFFLINE)
            return
        handler = self._handlers.get(envelope.dst)
        if handler is None:
            self.stats.record_drop(DropReason.NO_HANDLER)
            return
        self.stats.delivered += 1
        handler(envelope)

    def _deliver_batch(self, envelopes: List[Envelope]) -> None:
        """Deliver one arrival-time cohort.

        Presence was already checked (for the arrival instant) at send
        time; handlers are still resolved here, at fire time, so a node
        detached mid-flight drops its messages exactly as a scalar
        :meth:`send` would.

        Multi-message cohorts are bracketed by :attr:`cohort_hooks` when
        set: everything the handlers enqueue at this instant (anycast
        forwards, flood fan-outs) flushes as one wavefront after the
        last reception.
        """
        handlers = self._handlers
        stats = self.stats
        hooks = self.cohort_hooks if len(envelopes) > 1 else None
        if hooks is not None:
            hooks[0]()
        try:
            for envelope in envelopes:
                handler = handlers.get(envelope.dst)
                if handler is None:
                    stats.record_drop(DropReason.NO_HANDLER)
                    continue
                stats.delivered += 1
                handler(envelope)
        finally:
            if hooks is not None:
                hooks[1]()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(nodes={self.node_count}, sent={self.stats.sent}, "
            f"delivered={self.stats.delivered}, dropped={self.stats.dropped_total})"
        )
