"""Simulated message-passing network with presence-gated delivery.

Messages between nodes take a latency drawn from a
:class:`~repro.sim.latency.LatencyModel`.  Delivery only succeeds if the
destination is online at the arrival instant (per the churn trace); a
message to an offline node is silently dropped — exactly the failure mode
that the paper's retried-greedy anycast (Section 3.2) exists to mask.

Every on-wire message is exactly one simulator event.  A single message
goes through :meth:`Network.send`; a fan-out cohort (a multicast flood,
a gossip round) goes through :meth:`Network.send_batch`, which checks the
sender once, draws the cohort's latencies in one ``sample_array`` call
and enqueues its ``_deliver`` events with one ``schedule_at_many`` — the
same stream consumption, events and handler order as one ``send`` per
destination (property-tested in ``tests/test_dispatch.py``).  Presence of
the destination is checked when its message arrives, and duplicates are
left to the receiver to count: with a continuous latency model no two
arrivals share an instant, so grouping deliveries by arrival time merges
nothing (docs/architecture.md, "The message plane").

One message costs one bare heap entry (no cancellable handle) and, when
the oracle is a :class:`~repro.churn.trace.ChurnTrace`, one key → row
lookup at arrival: presence is the timeline's
:meth:`~repro.churn.timeline.ChurnTimeline.presence_of` for that row and
the handler sits at that row of a list filled by :meth:`Network.attach`.
Any other oracle is asked by key.

The network layer is deliberately dumb: no acknowledgements, no retries.
Those are protocol behaviours and live in :mod:`repro.ops`, built from
plain messages plus simulator timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Protocol, Sequence, Union,
)

import numpy as np

from repro.churn.trace import ChurnTrace
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
    always-on oracle used in unit tests.  The network asks about the
    sender at send time and about the destination when its message
    arrives (a trace by the destination's row, see the module
    docstring), always at the simulator's current instant.  The nodes'
    protocol rounds ask by row instead, through
    ``presence_snapshot(time) -> bool array`` over the oracle's own node
    order (see :meth:`Network.online_rows`).  A churn trace answers both
    from its one :class:`~repro.churn.timeline.ChurnTimeline`, so the
    scalar and the row answer for a node at an instant never differ.
    """

    def is_online(self, node: NodeKey, time: float) -> bool:  # pragma: no cover
        ...


class AlwaysOnline:
    """Presence oracle that reports every node online (for tests/examples)."""

    def is_online(self, node: NodeKey, time: float) -> bool:
        return True


class Envelope(NamedTuple):
    """A message in flight (or delivered).

    An immutable named tuple: every on-wire message builds one, and a
    positional tuple costs about a third of a frozen dataclass's
    ``__init__``.
    """

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
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        presence: Optional[PresenceOracle] = None,
        rng: Optional[np.random.Generator] = None,
        check_sender: bool = True,
    ):
        self.sim = sim
        self.latency = latency if latency is not None else UniformLatency()
        self.presence = presence if presence is not None else AlwaysOnline()
        self.rng = rng if rng is not None else fallback_rng()
        self.check_sender = check_sender
        self.stats = NetworkStats()
        # Captured once (see Simulator): a network built under
        # telemetry.use_recorder() records into that session's recorder.
        self._telemetry = current_telemetry()
        if isinstance(self.presence, ChurnTrace):
            # Trace-backed: a message's destination key is translated to
            # its trace row once, at delivery, and both presence and the
            # handler are read by that row.
            self._row_of = self.presence.rows.get
            self._online_row = self.presence.timeline.presence_of
            self._handlers: Union[List[Optional[Handler]], Dict[NodeKey, Handler]] = [
                None
            ] * self.presence.node_count
            self._deliver = self._deliver_by_row
        else:
            # Any other oracle answers by key only.
            self._handlers = {}
            self._deliver = self._deliver_by_key

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def attach(self, node: NodeKey, handler: Handler) -> None:
        """Register the message handler for ``node`` (one per node).  A
        trace-backed network finds the node's row here, once, and
        refuses a node its trace does not cover (``KeyError``)."""
        handlers = self._handlers
        if isinstance(handlers, dict):
            if node in handlers:
                raise ValueError(f"node {node!r} already attached")
            handlers[node] = handler
            return
        row = self._row_of(node)
        if row is None:
            raise KeyError(f"node {node!r} is not in the presence trace")
        if handlers[row] is not None:
            raise ValueError(f"node {node!r} already attached")
        handlers[row] = handler

    def detach(self, node: NodeKey) -> None:
        """Remove a node's handler; in-flight messages to it will be dropped."""
        handlers = self._handlers
        if isinstance(handlers, dict):
            handlers.pop(node, None)
            return
        row = self._row_of(node)
        if row is not None:
            handlers[row] = None

    @property
    def node_count(self) -> int:
        handlers = self._handlers
        if isinstance(handlers, dict):
            return len(handlers)
        return len(handlers) - handlers.count(None)

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
            self._record_drop(DropReason.SRC_OFFLINE)
            return False
        self.stats.sent += 1
        at = now + self.latency.sample(self.rng)
        self.sim._enqueue(at, self._deliver, (Envelope(src, dst, payload, now, at),))
        return True

    def send_batch(self, src: NodeKey, dsts: Sequence[NodeKey], payload: Any) -> int:
        """Send one ``payload`` from ``src`` to every node in ``dsts``.

        Exactly one :meth:`send` per destination, at a lower fixed cost:
        one sender check, one :meth:`~repro.sim.latency.LatencyModel.
        sample_array` draw (consuming the rng stream like per-destination
        scalar draws, in ``dsts`` order) and one ``schedule_at_many`` —
        one ``_deliver`` event per message, each destination's presence
        and handler resolved when its message arrives.  Returns the
        number of messages put on the wire (0 when the sender is offline
        — no latency is drawn).
        """
        n = len(dsts)
        if n == 0:
            return 0
        now = self.sim.now
        if self.check_sender and not self.presence.is_online(src, now):
            self._record_drop(DropReason.SRC_OFFLINE, count=n)
            return 0
        self.stats.sent += n
        times = (now + self.latency.sample_array(self.rng, n)).tolist()
        self.sim.schedule_at_many(
            times,
            self._deliver,
            [(Envelope(src, dst, payload, now, at),) for dst, at in zip(dsts, times)],
        )
        return n

    # benchmarks/e2e/tracer.py (frozen here) wraps these two names by
    # Network.__dict__ lookup; nothing in src/ calls them.  ROADMAP item 4
    # re-points the tracer at send_batch and removes them.
    send_batch_suppressing = send_batch
    send_many = send_batch

    def is_online(self, node: NodeKey) -> bool:
        """Convenience: is ``node`` online right now?"""
        return self.presence.is_online(node, self.sim.now)

    def online_rows(self, rows) -> np.ndarray:
        """Presence right now by *row* of the presence oracle (an index
        or an index array into its node order): one lookup in the
        oracle's ``presence_snapshot``, which a trace-backed oracle
        reuses until the next session edge.  Nodes, whose population
        rows are the trace's rows, gate their protocol rounds and probe
        discovery candidates and refresh neighbors through this."""
        return self.presence.presence_snapshot(self.sim.now)[rows]

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    # ``_deliver`` is one of these two, picked by the oracle's kind.
    # Both check presence at the arrival instant (an event fires at its
    # envelope's ``delivered_at``) before the handler, so an offline or
    # unknown destination is DST_OFFLINE and a detached one NO_HANDLER.
    def _deliver_by_row(self, envelope: Envelope) -> None:
        row = self._row_of(envelope.dst)
        if row is None or not self._online_row(row, envelope.delivered_at):
            self._record_drop(DropReason.DST_OFFLINE)
            return
        handler = self._handlers[row]
        if handler is None:
            self._record_drop(DropReason.NO_HANDLER)
            return
        self.stats.delivered += 1
        handler(envelope)

    def _deliver_by_key(self, envelope: Envelope) -> None:
        if not self.presence.is_online(envelope.dst, envelope.delivered_at):
            self._record_drop(DropReason.DST_OFFLINE)
            return
        handler = self._handlers.get(envelope.dst)
        if handler is None:
            self._record_drop(DropReason.NO_HANDLER)
            return
        self.stats.delivered += 1
        handler(envelope)

    def _record_drop(self, reason: str, count: int = 1) -> None:
        """Every drop is accounted here: ``stats`` always, and the
        ``net.drop.<reason>`` counter when telemetry is on."""
        self.stats.record_drop(reason, count)
        if self._telemetry.enabled:
            self._telemetry.count(f"net.drop.{reason}", count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(nodes={self.node_count}, sent={self.stats.sent}, "
            f"delivered={self.stats.delivered}, dropped={self.stats.dropped_total})"
        )
