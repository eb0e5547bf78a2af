"""Wire messages for the management operations (Section 3.2).

Payloads are small frozen dataclasses dispatched by type through
:meth:`repro.core.node.AvmemNode.register_handler`.  A forwarded copy
(:meth:`AnycastMessage.hop`, :meth:`MulticastMessage.forwarded`) is
built by a positional constructor call rather than
``dataclasses.replace``, which re-reads every field by name on each
hop; the property tests in ``tests/test_ops_units.py`` hold both to the
``replace`` result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.ids import NodeId
from repro.ops.spec import TargetSpec

__all__ = ["AnycastMessage", "AnycastAck", "MulticastMessage"]


@dataclass(frozen=True)
class AnycastMessage:
    """An in-flight anycast (also the first stage of a multicast).

    ``retry`` is the remaining retried-greedy budget carried with the
    message ("each forwarded message carries the value of retry");
    ``attempt`` uniquely identifies one transmission for acking.
    """

    op_id: int
    target: TargetSpec
    ttl: int
    retry: int
    attempt: int
    origin: NodeId
    sender: NodeId
    path: Tuple[NodeId, ...]
    multicast_payload: bool = False  # stage-1 carrier for a multicast?

    def hop(
        self, sender: NodeId, next_hop: NodeId, attempt: int, retry: Optional[int] = None
    ) -> "AnycastMessage":
        """The message as forwarded by ``sender`` to ``next_hop``.

        TTL is decremented; the next hop joins the path (so loops are
        avoidable by excluding path members); ``retry`` optionally
        updates the remaining retry budget.
        """
        return AnycastMessage(
            self.op_id,
            self.target,
            self.ttl - 1,
            self.retry if retry is None else retry,
            attempt,
            self.origin,
            sender,
            self.path + (next_hop,),
            self.multicast_payload,
        )

    @property
    def hops_taken(self) -> int:
        """Virtual hops traversed so far (path includes the origin)."""
        return len(self.path) - 1


@dataclass(frozen=True)
class AnycastAck:
    """Receipt acknowledgement for one anycast transmission attempt."""

    op_id: int
    attempt: int
    acker: NodeId


@dataclass(frozen=True)
class MulticastMessage:
    """Stage-2 multicast dissemination inside the target range."""

    op_id: int
    target: TargetSpec
    root: NodeId  # the in-range node where stage 2 started
    sender: NodeId
    mode: str  # "flood" | "gossip"
    hop_count: int = 0

    def forwarded(self, sender: NodeId) -> "MulticastMessage":
        return MulticastMessage(
            self.op_id, self.target, self.root, sender, self.mode, self.hop_count + 1
        )
