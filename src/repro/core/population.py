"""Struct-of-arrays population core — the row space under everything.

At 20k nodes the reproduction could afford one Python object per node;
at 1M it cannot: a million :class:`~repro.core.ids.NodeId` instances
cost hundreds of megabytes before a single overlay edge exists.
:class:`Population` flips the layout: the population is a pair of flat
arrays (``uint64`` endpoint digests and ``float64`` availabilities,
plus an optional online mask), and a *node* is just a row index into
them.  Everything downstream — the overlay CSR
(:mod:`repro.overlays.graphs`), the membership tables
(:mod:`repro.core.membership`), the churn timeline
(:mod:`repro.churn.timeline`) — already speaks row indices; this module
makes the row space the source of truth and demotes :class:`NodeId`
objects to lazily-materialized views.

Synthetic populations (:meth:`Population.synthetic`) compute the SHA-1
endpoint digests directly from the deterministic ``10.a.b.c:port``
address scheme of :meth:`NodeId.from_index` without ever constructing
the id objects, so a 1M-row population costs ~16 MB of arrays instead
of ~300 MB of objects.  ``id_of(row)`` materializes a single
:class:`NodeId` on demand (and caches it), so protocol-level code that
still needs identity objects — network probes, membership entries shown
to users — pays only for the rows it actually touches.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.ids import NodeId, digest_array

__all__ = ["Population"]


class Population:
    """A population as parallel flat arrays keyed by row index.

    ``digests[i]`` is the 64-bit endpoint digest of row ``i`` (the
    quantity every pairwise hash mixes), ``availabilities[i]`` its
    availability estimate, and ``online[i]`` an optional presence flag.
    ``ids`` / ``id_of`` materialize :class:`NodeId` objects lazily.
    """

    __slots__ = (
        "digests",
        "availabilities",
        "online",
        "_ids",
        "_synthetic_port",
        "_id_tuple",
        "_digest_order",
        "_digests_sorted",
    )

    def __init__(
        self,
        digests: np.ndarray,
        availabilities: np.ndarray,
        *,
        ids: Optional[Sequence[Optional[NodeId]]] = None,
        online: Optional[np.ndarray] = None,
        synthetic_port: Optional[int] = None,
    ):
        digests = np.ascontiguousarray(digests, dtype=np.uint64)
        availabilities = np.ascontiguousarray(availabilities, dtype=np.float64)
        if digests.ndim != 1 or availabilities.ndim != 1:
            raise ValueError("digests and availabilities must be 1-D arrays")
        if digests.shape[0] != availabilities.shape[0]:
            raise ValueError(
                f"digests ({digests.shape[0]}) and availabilities "
                f"({availabilities.shape[0]}) must have equal length"
            )
        if ids is None and synthetic_port is None:
            raise ValueError(
                "Population needs an id source: pass ids= or synthetic_port="
            )
        if ids is not None and len(ids) != digests.shape[0]:
            raise ValueError(
                f"ids ({len(ids)}) and digests ({digests.shape[0]}) must have equal length"
            )
        if online is not None:
            online = np.ascontiguousarray(online, dtype=bool)
            if online.shape != digests.shape:
                raise ValueError("online mask must match the population length")
        self.digests = digests
        self.availabilities = availabilities
        self.online = online
        if ids is not None:
            self._ids: Optional[np.ndarray] = np.empty(len(ids), dtype=object)
            self._ids[:] = list(ids)
        else:
            self._ids = None
        self._synthetic_port = synthetic_port
        self._id_tuple: Optional[tuple] = None
        self._digest_order: Optional[np.ndarray] = None
        self._digests_sorted: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_ids(
        cls,
        ids: Sequence[NodeId],
        availabilities: Sequence[float],
        *,
        online: Optional[np.ndarray] = None,
    ) -> "Population":
        """Wrap already-materialized :class:`NodeId` objects (the seed
        path).  ``id_of`` returns the exact same objects, so identity is
        preserved for callers that key dictionaries by node."""
        return cls(
            digest_array(ids),
            np.asarray(availabilities, dtype=np.float64),
            ids=list(ids),
            online=online,
        )

    @classmethod
    def from_descriptors(cls, descriptors: Iterable) -> "Population":
        """From ``(node, availability)`` descriptor pairs (duck-typed:
        anything with ``.node`` and ``.availability``, or 2-tuples)."""
        ids: List[NodeId] = []
        avs: List[float] = []
        for item in descriptors:
            node = getattr(item, "node", None)
            if node is None:
                node, availability = item
            else:
                availability = item.availability
            ids.append(node)
            avs.append(float(availability))
        return cls.from_ids(ids, avs)

    @classmethod
    def synthetic(
        cls,
        availabilities: Sequence[float],
        *,
        port: int = 9000,
        online: Optional[np.ndarray] = None,
    ) -> "Population":
        """Deterministic synthetic population over the ``10.0.0.0/8``
        address scheme of :meth:`NodeId.from_index` — digests are
        computed from the endpoint strings without constructing any
        :class:`NodeId` objects, which is what makes 1M-row populations
        affordable."""
        availabilities = np.asarray(availabilities, dtype=np.float64)
        n = availabilities.shape[0]
        if n >= (1 << 24):
            raise ValueError(f"synthetic populations cap at 2^24 rows, got {n}")
        digests = np.empty(n, dtype=np.uint64)
        sha1 = hashlib.sha1
        from_bytes = int.from_bytes
        for i in range(n):
            endpoint = f"10.{(i >> 16) & 0xFF}.{(i >> 8) & 0xFF}.{i & 0xFF}:{port}"
            digests[i] = from_bytes(sha1(endpoint.encode("utf-8")).digest()[:8], "big")
        return cls(digests, availabilities, synthetic_port=port, online=online)

    def with_availabilities(self, availabilities: Sequence[float]) -> "Population":
        """A sibling population sharing digests/ids but with different
        availability estimates (e.g. bootstrap-time oracle snapshots vs
        lifetime values)."""
        availabilities = np.asarray(availabilities, dtype=np.float64)
        if availabilities.shape != self.digests.shape:
            raise ValueError("availabilities must match the population length")
        sibling = Population.__new__(Population)
        sibling.digests = self.digests
        sibling.availabilities = availabilities
        sibling.online = self.online
        # Allocate the (lazy) id cache now so both populations share one
        # array — ids materialized through either view are seen by both.
        if self._ids is None:
            self._ids = np.empty(self.size, dtype=object)
        sibling._ids = self._ids
        sibling._synthetic_port = self._synthetic_port
        sibling._id_tuple = None
        sibling._digest_order = self._digest_order
        sibling._digests_sorted = self._digests_sorted
        return sibling

    # ------------------------------------------------------------------
    # Row <-> id views
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return int(self.digests.shape[0])

    def __len__(self) -> int:
        return self.size

    def id_of(self, row: int) -> NodeId:
        """Materialize (and cache) the :class:`NodeId` of one row."""
        row = int(row)
        if row < 0 or row >= self.size:
            raise IndexError(f"row {row} out of range [0, {self.size})")
        if self._ids is None:
            self._ids = np.empty(self.size, dtype=object)
        node = self._ids[row]
        if node is None:
            if self._synthetic_port is None:
                raise KeyError(f"row {row} has no id and the population is not synthetic")
            node = NodeId.from_index(row, port=self._synthetic_port)
            self._ids[row] = node
        return node

    def ids_of(self, rows: Sequence[int]) -> List[NodeId]:
        """Materialize the ids of a batch of rows (one gather when they
        already exist; only rows never touched before pay ``id_of``)."""
        rows = np.asarray(rows, dtype=np.int64)
        if self._ids is not None and (rows >= 0).all():
            ids = self._ids[rows].tolist()
            if None not in ids:
                return ids
        return [self.id_of(row) for row in rows]

    @property
    def id_tuple(self) -> tuple:
        """All ids as a tuple (materializes the whole population — avoid
        on large synthetic runs)."""
        if self._id_tuple is None:
            self._id_tuple = tuple(self.id_of(i) for i in range(self.size))
        return self._id_tuple

    @property
    def id_array(self) -> np.ndarray:
        """All ids as an object array (materializes everything)."""
        self.id_tuple
        return self._ids.copy()

    def row_of(self, node: NodeId) -> int:
        """Row index of a node, resolved through its endpoint digest."""
        row = self.find_row(node)
        if row < 0:
            raise KeyError(f"{node} is not in this population")
        return row

    def find_row(self, node: NodeId) -> int:
        """Like :meth:`row_of` but returns -1 for unknown nodes."""
        if self._digest_order is None:
            self._digest_order = np.argsort(self.digests, kind="stable")
            self._digests_sorted = self.digests[self._digest_order]
        digest = np.uint64(node.digest64)
        pos = int(np.searchsorted(self._digests_sorted, digest))
        if pos >= self.size or self._digests_sorted[pos] != digest:
            return -1
        return int(self._digest_order[pos])

    def __contains__(self, node: NodeId) -> bool:
        return self.find_row(node) >= 0

    def __repr__(self) -> str:
        kind = "synthetic" if self._synthetic_port is not None else "materialized"
        return f"Population(size={self.size}, {kind})"
