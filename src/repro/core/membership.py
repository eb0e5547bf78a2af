"""Per-node membership state: the horizontal and vertical slivers.

Each node maintains two small lists (Fig 1): ``HS(x)`` — nodes with
availability close to its own — and ``VS(x)`` — a sample across the rest
of the availability space.  Entries carry the availability value that
was *cached* when the entry was last checked, plus the time of that
check: the ops layer forwards using these cached values ("this eschews
querying the availability service for each forwarded message",
Section 3.2), which is exactly what makes Figs 5-6's staleness effects
observable.

Storage layout (docs/architecture.md §"Membership tables")
----------------------------------------------------------
:class:`MembershipTable` keeps the neighbor set in **columnar numpy
arrays** — one slot per neighbor, with parallel columns for identity,
cached availability, sliver kind, and the added/checked timestamps —
instead of the seed's dict-of-dataclasses.  Scalar callers see the exact
same API as before (``upsert`` / ``remove`` / ``entries`` / ...,
returning :class:`MemberEntry` values materialized on demand), while the
bootstrap, discovery and refresh hot paths use the bulk operations, which
address neighbors by population row:

* :meth:`MembershipTable.upsert_rows` — install a whole batch of
  already-evaluated predicate matches in a handful of array writes; fed
  directly from :class:`~repro.overlays.graphs.OverlayGraph` CSR rows
  during ``bootstrap="direct"``.
* :meth:`MembershipTable.neighbor_arrays` +
  :meth:`MembershipTable.refresh_round` — one masked array pass that
  re-caches availabilities/timestamps for the whole neighbor set and
  evicts entries whose predicate no longer holds.

Bulk operations key neighbors by their precomputed 64-bit endpoint
digests (``NodeId.digest64``); SHA-1-prefix collisions between distinct
endpoints are assumed absent (the synthetic-host space is ≤ 2^24, so the
birthday bound is ~2^-17 across the whole population).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.ids import NodeId
from repro.core.population import Population
from repro.core.predicates import NodeDescriptor, SliverKind
from repro.telemetry import current as current_telemetry

__all__ = [
    "MemberEntry",
    "MembershipTable",
    "NeighborView",
    "SliverSelector",
]


@dataclass(frozen=True)
class MemberEntry:
    """One neighbor: identity, cached availability, sliver, bookkeeping.

    ``availability`` is the value cached at the last check — forwarding
    decisions read it instead of querying the monitoring service, which
    is what makes it (deliberately) stale between refreshes.
    ``added_at`` is when the neighbor first entered the lists;
    ``checked_at`` is when its availability/sliver was last re-validated.
    """

    node: NodeId
    availability: float  # cached value used by forwarding decisions
    kind: SliverKind
    added_at: float
    checked_at: float

    @property
    def descriptor(self) -> NodeDescriptor:
        """The ``(id, cached availability)`` pair the predicate operates on."""
        return NodeDescriptor(self.node, self.availability)

    def refreshed(self, availability: float, kind: SliverKind, now: float) -> "MemberEntry":
        """A copy with the availability/sliver re-cached at time ``now``."""
        return replace(self, availability=availability, kind=kind, checked_at=now)


class SliverSelector:
    """Which neighbor sets an operation may use (Section 3.2's
    HS-only / VS-only / HS+VS flavors)."""

    HS_ONLY = "hs"
    VS_ONLY = "vs"
    BOTH = "hs+vs"

    _VALID = (HS_ONLY, VS_ONLY, BOTH)

    @classmethod
    def validate(cls, selector: str) -> str:
        if selector not in cls._VALID:
            raise ValueError(
                f"selector must be one of {cls._VALID}, got {selector!r}"
            )
        return selector


class NeighborView(NamedTuple):
    """A positional snapshot of a table's live neighbors.

    Parallel read-only arrays over the neighbors in listing order (HS
    first, then VS, each in recency order — the same order
    :meth:`MembershipTable.entries` yields).  The table hands the same
    view to every caller until it is next mutated; ``slots`` are opaque
    handles for :meth:`MembershipTable.refresh_round` and stay valid
    only that long.
    """

    slots: np.ndarray  #: int64 slot handles (pass back to refresh_round)
    nodes: Optional[np.ndarray]  #: object array of NodeId (None if not requested)
    availabilities: np.ndarray  #: float array of cached availabilities
    horizontal: np.ndarray  #: bool array, True = HORIZONTAL sliver
    digests: np.ndarray  #: uint64 endpoint digests (for vectorized hashing)
    rows: np.ndarray  #: int64 population rows


class MembershipTable:
    """Array-backed HS/VS neighbor tables of one node.

    Columnar storage: each neighbor occupies one slot across parallel
    numpy columns (identity, digest, availability, sliver flag,
    timestamps, recency sequence, liveness).  Scalar mutators behave
    exactly like the historical dict-of-dataclasses implementation —
    including the detail that *every* upsert moves the entry to the tail
    of its (possibly new) sliver's listing order — and the bulk
    operations (:meth:`upsert_rows`, :meth:`refresh_round`) replicate a
    scalar loop entry-for-entry while doing only O(1) numpy calls.

    Every neighbor is a row of ``population`` (the owner's
    :class:`~repro.core.population.Population`): bulk installs are
    keyed by row, scalar ones resolve the row of the id they are given
    (and refuse a node outside the population).

    The NodeId→slot index and the :class:`MemberEntry` materializations
    are caches built lazily on the first scalar access after a bulk
    mutation, so pure-bulk workloads (direct bootstrap at large N) never
    pay per-entry Python.
    """

    _INITIAL_CAPACITY = 8

    def __init__(self, owner: NodeId, population: Population):
        self.owner = owner
        #: identities are materialized from it lazily, only when scalar
        #: accessors or the nodes column of :meth:`neighbor_arrays` need them
        self.population = population
        capacity = self._INITIAL_CAPACITY
        self._capacity = capacity
        self._size = 0  # high-water slot mark (live + dead slots)
        self._count = 0  # live entries
        self._seq_counter = 0
        self._ids = np.empty(capacity, dtype=object)
        self._digests = np.zeros(capacity, dtype=np.uint64)
        self._avail = np.zeros(capacity, dtype=float)
        self._horiz = np.zeros(capacity, dtype=bool)
        self._added = np.zeros(capacity, dtype=float)
        self._checked = np.zeros(capacity, dtype=float)
        self._seq = np.zeros(capacity, dtype=np.int64)
        self._alive = np.zeros(capacity, dtype=bool)
        self._rows = np.full(capacity, -1, dtype=np.int64)
        # Lazy caches: None marks "rebuild on next scalar access".
        self._slot_of: Optional[Dict[NodeId, int]] = {}
        self._materialized: Dict[NodeId, MemberEntry] = {}
        # neighbor_arrays() results (without / with the nodes column) and
        # _match_slots()' live slots in digest order (int32: it is held
        # per table between rounds), dropped by every mutator.
        self._view: Optional[NeighborView] = None
        self._view_with_nodes: Optional[NeighborView] = None
        self._match_index: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------
    def _materialize_missing_ids(self, slots: np.ndarray) -> None:
        """Fill in identity objects for row-installed slots that have
        never been touched by a scalar accessor: one masked gather of
        the population's own id objects."""
        missing = slots[np.equal(self._ids[slots], None)]
        if missing.size:
            self._ids[missing] = self.population.ids_of(self._rows[missing])

    def _ensure_index(self) -> Dict[NodeId, int]:
        if self._slot_of is None:
            live = np.flatnonzero(self._alive[: self._size])
            self._materialize_missing_ids(live)
            self._slot_of = {self._ids[slot]: int(slot) for slot in live}
        return self._slot_of

    def _grow_to(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        for name in ("_digests", "_avail", "_horiz", "_added", "_checked", "_seq", "_alive"):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)
        rows = np.full(capacity, -1, dtype=np.int64)
        rows[: self._size] = self._rows[: self._size]
        self._rows = rows
        ids = np.empty(capacity, dtype=object)
        ids[: self._size] = self._ids[: self._size]
        self._ids = ids
        self._capacity = capacity

    def _next_seq_block(self, count: int) -> np.ndarray:
        start = self._seq_counter
        self._seq_counter += count
        return np.arange(start, start + count, dtype=np.int64)

    def _maybe_compact(self) -> None:
        """Reclaim dead slots once they outnumber ``max(8, live count)``."""
        dead = self._size - self._count
        if dead <= max(8, self._count):
            return
        live = np.flatnonzero(self._alive[: self._size])
        for name in ("_ids", "_digests", "_avail", "_horiz", "_added", "_checked", "_seq", "_rows"):
            column = getattr(self, name)
            column[: live.size] = column[live]
        self._alive[: live.size] = True
        self._alive[live.size : self._size] = False
        self._ids[live.size : self._size] = None
        self._size = live.size
        self._slot_of = None
        self._drop_views()

    def _drop_views(self) -> None:
        self._view = self._view_with_nodes = self._match_index = None

    def _entry_at(self, slot: int) -> MemberEntry:
        node = self._ids[slot]
        if node is None:
            self._materialize_missing_ids(np.array([slot]))
            node = self._ids[slot]
        entry = self._materialized.get(node)
        if entry is None:
            entry = MemberEntry(
                node=node,
                availability=float(self._avail[slot]),
                kind=SliverKind.HORIZONTAL if self._horiz[slot] else SliverKind.VERTICAL,
                added_at=float(self._added[slot]),
                checked_at=float(self._checked[slot]),
            )
            self._materialized[node] = entry
        return entry

    def _sliver_slots(self, horizontal: bool) -> np.ndarray:
        """Live slots of one sliver, in recency (listing) order."""
        bound = self._size
        mask = self._alive[:bound] & (self._horiz[:bound] == horizontal)
        slots = np.flatnonzero(mask)
        return slots[np.argsort(self._seq[slots], kind="stable")]

    # ------------------------------------------------------------------
    # Scalar mutation
    # ------------------------------------------------------------------
    def upsert(
        self, node: NodeId, availability: float, kind: SliverKind, now: float
    ) -> MemberEntry:
        """Insert or update a neighbor, moving it between slivers if its
        classification changed (``added_at`` is preserved on update).
        Raises ``KeyError`` (leaving the table as it was) for a node
        outside the population."""
        if node == self.owner:
            raise ValueError("a node cannot be its own neighbor")
        index = self._ensure_index()
        slot = index.get(node)
        if slot is None:
            row = self.population.row_of(node)
            self._grow_to(self._size + 1)
            slot = self._size
            self._size += 1
            self._count += 1
            self._ids[slot] = node
            self._digests[slot] = node.digest64
            self._added[slot] = now
            self._alive[slot] = True
            self._rows[slot] = row
            index[node] = slot
        self._avail[slot] = availability
        self._horiz[slot] = kind is SliverKind.HORIZONTAL
        self._checked[slot] = now
        self._seq[slot] = self._seq_counter
        self._seq_counter += 1
        self._drop_views()
        entry = MemberEntry(
            node=node,
            availability=float(availability),
            kind=kind,
            added_at=float(self._added[slot]),
            checked_at=float(now),
        )
        self._materialized[node] = entry
        return entry

    def remove(self, node: NodeId) -> bool:
        """Drop a neighbor from whichever sliver holds it."""
        index = self._ensure_index()
        slot = index.pop(node, None)
        if slot is None:
            return False
        self._alive[slot] = False
        self._ids[slot] = None
        self._count -= 1
        self._materialized.pop(node, None)
        self._drop_views()
        self._maybe_compact()
        return True

    def clear(self) -> None:
        """Drop every neighbor."""
        self._alive[: self._size] = False
        self._ids[: self._size] = None
        self._rows[: self._size] = -1
        self._size = 0
        self._count = 0
        self._slot_of = {}
        self._materialized = {}
        self._drop_views()

    # ------------------------------------------------------------------
    # Bulk mutation (array hot paths)
    # ------------------------------------------------------------------
    def upsert_rows(
        self,
        rows: np.ndarray,
        availabilities: np.ndarray,
        horizontal_flags: np.ndarray,
        now: float,
    ) -> int:
        """Install a batch of neighbors, addressed by population row, in
        one columnar pass.

        Equivalent to calling :meth:`upsert` for each position in batch
        order (``added_at`` preserved for existing entries, every touched
        entry moved to the tail of its sliver), but with O(1) numpy calls
        instead of per-entry Python.  ``rows``, ``availabilities`` and
        ``horizontal_flags`` are parallel (True = HORIZONTAL); rows must
        be unique within one batch.  ``now`` is recorded as
        ``checked_at`` (and ``added_at`` for new entries).

        Digests come straight from the population's digest column;
        identities stay unmaterialized until a scalar accessor (or the
        ``nodes`` column of :meth:`neighbor_arrays`) asks for them —
        which is what keeps whole-population bootstrap object-free at
        large N.  Returns the number of entries written.
        """
        rows = np.asarray(rows, dtype=np.int64)
        batch = rows.size
        if batch == 0:
            return 0
        availabilities = np.asarray(availabilities, dtype=float)
        horizontal_flags = np.asarray(horizontal_flags, dtype=bool)
        if not (availabilities.size == horizontal_flags.size == batch):
            raise ValueError(
                f"parallel batch arrays must share length {batch}, got "
                f"{availabilities.size}/{horizontal_flags.size}"
            )
        if np.unique(rows).size != batch:
            raise ValueError("rows must be unique within one upsert_rows batch")
        digests = self.population.digests[rows]
        if np.any(digests == np.uint64(self.owner.digest64)):
            raise ValueError("a node cannot be its own neighbor")
        slots = self._match_slots(digests)
        new_mask = slots < 0
        fresh = int(np.count_nonzero(new_mask))
        if fresh:
            self._grow_to(self._size + fresh)
            new_slots = np.arange(self._size, self._size + fresh, dtype=np.int64)
            self._size += fresh
            self._count += fresh
            self._ids[new_slots] = None  # lazily materialized from rows
            self._digests[new_slots] = digests[new_mask]
            self._added[new_slots] = now
            self._alive[new_slots] = True
            slots[new_mask] = new_slots
        self._rows[slots] = rows
        self._avail[slots] = availabilities
        self._horiz[slots] = horizontal_flags
        self._checked[slots] = now
        self._seq[slots] = self._next_seq_block(batch)
        self._materialized = {}
        self._slot_of = None
        self._drop_views()
        return batch

    def _match_slots(self, digests: np.ndarray) -> np.ndarray:
        """Slot of each digest among live entries, -1 where absent: a
        binary search of the live digests, sorted once per table state."""
        out = np.full(digests.size, -1, dtype=np.int64)
        if self._count == 0:
            return out
        slots = self._match_index
        if slots is None:
            live = np.flatnonzero(self._alive[: self._size])
            slots = live[np.argsort(self._digests[live])].astype(np.int32)
            self._match_index = slots
        sorted_digests = self._digests[slots]
        position = np.minimum(sorted_digests.searchsorted(digests), slots.size - 1)
        matched = sorted_digests[position] == digests
        out[matched] = slots[position[matched]]
        return out

    def contains_digests(self, digests: np.ndarray) -> np.ndarray:
        """Boolean mask: which of these endpoint digests are neighbors —
        the batched ``node in table``.  Row-space callers pass
        ``population.digests[rows]``; a neighbor is found however it was
        installed (by id or by row)."""
        return self._match_slots(np.asarray(digests, dtype=np.uint64)) >= 0

    def neighbor_arrays(self, with_nodes: bool = True) -> NeighborView:
        """Columnar snapshot of the live neighbors (listing order).

        The returned :class:`NeighborView` is cached: every call until
        the next mutation (:meth:`upsert`, :meth:`remove`, :meth:`clear`,
        :meth:`upsert_rows`, :meth:`refresh_round`, compaction) gets the
        same read-only arrays.  It carries the slot handles
        :meth:`refresh_round` consumes; any mutation of the table
        invalidates them.  ``with_nodes=False`` skips :class:`NodeId`
        materialization (``nodes`` is None) — row-space callers should
        prefer it so bulk flows never instantiate identity objects.
        """
        view = self._view
        if view is None:
            view = self._view = self._build_view()
        if not with_nodes:
            return view
        full = self._view_with_nodes
        if full is None:
            self._materialize_missing_ids(view.slots)
            nodes = self._ids[view.slots]
            nodes.flags.writeable = False
            full = self._view_with_nodes = view._replace(nodes=nodes)
        return full

    def _build_view(self) -> NeighborView:
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.count("membership.view.rebuilds")
        live = np.flatnonzero(self._alive[: self._size])
        # One lexsort gives the listing order directly: HS block first
        # (~horizontal ascending), recency within each block.
        slots = live[np.lexsort((self._seq[live], ~self._horiz[live]))]
        view = NeighborView(
            slots=slots,
            nodes=None,
            availabilities=self._avail[slots],
            horizontal=self._horiz[slots],
            digests=self._digests[slots],
            rows=self._rows[slots],
        )
        for column in view:
            if column is not None:
                column.flags.writeable = False
        return view

    def refresh_round(
        self,
        slots: np.ndarray,
        availabilities: np.ndarray,
        horizontal_flags: np.ndarray,
        keep_mask: np.ndarray,
        now: float,
    ) -> int:
        """Apply one batched refresh pass over ``slots``.

        Equivalent to walking the entries scalar-style — ``remove`` where
        ``keep_mask`` is False, ``upsert`` with the re-fetched
        availability/kind where True — but as one masked array pass.
        ``slots`` must come from :meth:`neighbor_arrays` on this table
        with no mutation in between; ``availabilities`` and
        ``horizontal_flags`` are only read at kept positions.

        Returns the number of entries evicted.
        """
        with current_telemetry().span("membership.refresh_round"):
            return self._refresh_round(
                slots, availabilities, horizontal_flags, keep_mask, now
            )

    def _refresh_round(
        self,
        slots: np.ndarray,
        availabilities: np.ndarray,
        horizontal_flags: np.ndarray,
        keep_mask: np.ndarray,
        now: float,
    ) -> int:
        slots = np.asarray(slots, dtype=np.int64)
        keep = np.asarray(keep_mask, dtype=bool)
        availabilities = np.asarray(availabilities, dtype=float)
        horizontal_flags = np.asarray(horizontal_flags, dtype=bool)
        if not (keep.size == availabilities.size == horizontal_flags.size == slots.size):
            raise ValueError(
                f"parallel refresh arrays must share length {slots.size}, got "
                f"{keep.size}/{availabilities.size}/{horizontal_flags.size}"
            )
        if slots.size == 0:
            return 0
        if not np.all(self._alive[slots]):
            raise ValueError("stale slot handles: table mutated since neighbor_arrays()")
        kept = slots[keep]
        self._avail[kept] = availabilities[keep]
        self._horiz[kept] = horizontal_flags[keep]
        self._checked[kept] = now
        self._seq[kept] = self._next_seq_block(kept.size)
        dropped = slots[~keep]
        if dropped.size:
            self._alive[dropped] = False
            self._ids[dropped] = None
            self._count -= int(dropped.size)
        self._materialized = {}
        self._slot_of = None
        self._drop_views()
        self._maybe_compact()
        return int(dropped.size)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._ensure_index()

    def get(self, node: NodeId) -> Optional[MemberEntry]:
        """The entry for ``node``, or None if it is not a neighbor."""
        slot = self._ensure_index().get(node)
        if slot is None:
            return None
        return self._entry_at(slot)

    @property
    def horizontal(self) -> Tuple[MemberEntry, ...]:
        """HS entries in listing (recency) order."""
        return tuple(self._entry_at(int(slot)) for slot in self._sliver_slots(True))

    @property
    def vertical(self) -> Tuple[MemberEntry, ...]:
        """VS entries in listing (recency) order."""
        return tuple(self._entry_at(int(slot)) for slot in self._sliver_slots(False))

    @property
    def horizontal_count(self) -> int:
        bound = self._size
        return int(np.count_nonzero(self._alive[:bound] & self._horiz[:bound]))

    @property
    def vertical_count(self) -> int:
        return self._count - self.horizontal_count

    @property
    def total_count(self) -> int:
        return self._count

    def entries(self, selector: str = SliverSelector.BOTH) -> List[MemberEntry]:
        """Neighbors visible under an HS/VS/both selector, deterministic
        order (HS first, then VS, each in recency order)."""
        SliverSelector.validate(selector)
        out: List[MemberEntry] = []
        if selector in (SliverSelector.HS_ONLY, SliverSelector.BOTH):
            out.extend(self.horizontal)
        if selector in (SliverSelector.VS_ONLY, SliverSelector.BOTH):
            out.extend(self.vertical)
        return out

    def neighbor_ids(self, selector: str = SliverSelector.BOTH) -> List[NodeId]:
        """Neighbor identities under a selector (same order as :meth:`entries`)."""
        return [entry.node for entry in self.entries(selector)]

    def all_entries(self) -> Iterator[MemberEntry]:
        """Iterate every entry, HS first then VS."""
        yield from self.horizontal
        yield from self.vertical

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(owner={self.owner}, hs={self.horizontal_count}, "
            f"vs={self.vertical_count})"
        )
