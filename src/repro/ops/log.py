"""Columnar operation outcomes: the :class:`OperationLog`.

One row per *launch slot* of an executed
:class:`~repro.ops.plan.OperationPlan` (including slots skipped because
no initiator was online in the requested band), stored struct-of-arrays:
status codes, hop counts, transmissions, latencies, target bounds, band/
policy/selector/mode codes, launch times, and the multicast tallies
(eligible / delivered / spam / duplicates).  All the evaluation metrics
the figure drivers and the scenario harness need — success rate, status
fractions, latency percentiles, spam ratio, reliability, grouped by any
combination of code columns — are vectorized numpy reductions over these
arrays; no per-record Python loops remain downstream.

Logs are built through :class:`OperationLogBuilder` (append rows, then
:meth:`~OperationLogBuilder.finalize`), round-trip through JSON and CSV
(:meth:`OperationLog.to_json` / :meth:`OperationLog.from_json`,
:meth:`OperationLog.to_csv` / :meth:`OperationLog.from_csv`), and can be
synthesized from legacy record lists with :meth:`OperationLog.from_records`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.membership import SliverSelector
from repro.ops.anycast import POLICY_NAMES
from repro.ops.results import AnycastRecord, AnycastStatus, MulticastRecord
from repro.ops.spec import InitiatorBand

__all__ = ["OperationLog", "OperationLogBuilder", "STATUSES", "KINDS"]

#: status vocabulary: the anycast terminal taxonomy plus the log-only
#: "skipped" (launch slot with no eligible initiator) and "pending"
#: (never present after a finalized run; kept for completeness)
STATUSES: Tuple[str, ...] = (
    "skipped",
    AnycastStatus.PENDING,
    AnycastStatus.DELIVERED,
    AnycastStatus.TTL_EXPIRED,
    AnycastStatus.RETRY_EXPIRED,
    AnycastStatus.NO_NEIGHBOR,
    AnycastStatus.LOST,
    AnycastStatus.INITIATOR_OFFLINE,
)
KINDS: Tuple[str, ...] = ("anycast", "multicast")
BANDS: Tuple[str, ...] = (InitiatorBand.LOW, InitiatorBand.MID, InitiatorBand.HIGH)
SELECTORS: Tuple[str, ...] = (
    SliverSelector.HS_ONLY,
    SliverSelector.VS_ONLY,
    SliverSelector.BOTH,
)
MODES: Tuple[str, ...] = ("flood", "gossip")
TARGET_KINDS: Tuple[str, ...] = ("range", "threshold")

_STATUS_CODE = {name: i for i, name in enumerate(STATUSES)}
_BAND_CODE = {name: i for i, name in enumerate(BANDS)}
_POLICY_CODE = {name: i for i, name in enumerate(POLICY_NAMES)}
_SELECTOR_CODE = {name: i for i, name in enumerate(SELECTORS)}
_MODE_CODE = {name: i for i, name in enumerate(MODES)}
_TARGET_KIND_CODE = {name: i for i, name in enumerate(TARGET_KINDS)}

#: (column, dtype) schema — the single source of truth for exports.
_SCHEMA: Tuple[Tuple[str, type], ...] = (
    ("op_id", np.int64),
    ("item", np.int32),
    ("kind", np.int8),
    ("status", np.int8),
    ("band", np.int8),
    ("policy", np.int8),
    ("selector", np.int8),
    ("mode", np.int8),
    ("target_lo", np.float64),
    ("target_hi", np.float64),
    ("target_kind", np.int8),
    ("launched_at", np.float64),
    ("hops", np.int32),
    ("transmissions", np.int32),
    ("acks", np.int32),
    ("retries", np.int32),
    ("latency", np.float64),
    ("eligible", np.int32),
    ("delivered_count", np.int32),
    ("spam_count", np.int32),
    ("duplicates", np.int32),
    ("worst_latency", np.float64),
)
COLUMN_NAMES: Tuple[str, ...] = tuple(name for name, _ in _SCHEMA)
_FLOAT_COLUMNS = frozenset(n for n, d in _SCHEMA if d is np.float64)

#: columns whose codes decode through a vocabulary (for grouping labels)
_DECODERS: Dict[str, Tuple[str, ...]] = {
    "kind": KINDS,
    "status": STATUSES,
    "band": BANDS,
    "policy": POLICY_NAMES,
    "selector": SELECTORS,
    "mode": MODES,
    "target_kind": TARGET_KINDS,
}


def _decode(column: str, code: int) -> object:
    vocabulary = _DECODERS.get(column)
    if vocabulary is None:
        return int(code)
    return vocabulary[code] if 0 <= code < len(vocabulary) else None


class OperationLogBuilder:
    """Accumulates log rows; :meth:`finalize` freezes them columnar."""

    def __init__(self):
        self._rows: List[Tuple] = []

    def __len__(self) -> int:
        return len(self._rows)

    def _append(
        self,
        *,
        op_id: int,
        item: int,
        kind: str,
        status: str,
        band: Optional[str],
        policy: Optional[str],
        selector: str,
        mode: Optional[str],
        target,
        launched_at: float,
        hops: Optional[int],
        transmissions: int,
        acks: int,
        retries: int,
        latency: Optional[float],
        eligible: int,
        delivered_count: int,
        spam_count: int,
        duplicates: int,
        worst_latency: Optional[float],
    ) -> None:
        self._rows.append((
            op_id,
            item,
            KINDS.index(kind),
            _STATUS_CODE[status],
            -1 if band is None else _BAND_CODE[band],
            -1 if policy is None else _POLICY_CODE[policy],
            _SELECTOR_CODE[selector],
            -1 if mode is None else _MODE_CODE[mode],
            float(target.lo),
            float(target.hi),
            _TARGET_KIND_CODE[target.kind],
            launched_at,
            -1 if hops is None else int(hops),
            int(transmissions),
            int(acks),
            int(retries),
            math.nan if latency is None else float(latency),
            int(eligible),
            int(delivered_count),
            int(spam_count),
            int(duplicates),
            math.nan if worst_latency is None else float(worst_latency),
        ))

    def append_anycast(
        self,
        record: AnycastRecord,
        *,
        band: Optional[str] = None,
        item: int = -1,
    ) -> None:
        """One finalized anycast record becomes one row."""
        self._append(
            op_id=record.op_id,
            item=item,
            kind="anycast",
            status=record.status,
            band=band,
            policy=record.policy,
            selector=record.selector,
            mode=None,
            target=record.target,
            launched_at=record.started_at,
            hops=record.hops,
            transmissions=record.data_messages,
            acks=record.ack_messages,
            retries=record.retries_used,
            latency=record.latency,
            eligible=-1,
            delivered_count=-1,
            spam_count=-1,
            duplicates=-1,
            worst_latency=None,
        )

    def append_multicast(
        self,
        record: MulticastRecord,
        *,
        band: Optional[str] = None,
        item: int = -1,
    ) -> None:
        """One multicast record (both stages) becomes one row.

        The row's status/hops/latency/retries come from the stage-1
        anycast; transmissions count both stages' data messages.
        """
        stage1 = record.anycast
        self._append(
            op_id=record.op_id,
            item=item,
            kind="multicast",
            status=stage1.status if stage1 is not None else AnycastStatus.PENDING,
            band=band,
            policy=stage1.policy if stage1 is not None else None,
            selector=record.selector,
            mode=record.mode,
            target=record.target,
            launched_at=record.started_at,
            hops=stage1.hops if stage1 is not None else None,
            transmissions=record.data_messages
            + (stage1.data_messages if stage1 is not None else 0),
            acks=stage1.ack_messages if stage1 is not None else 0,
            retries=stage1.retries_used if stage1 is not None else 0,
            latency=stage1.latency if stage1 is not None else None,
            eligible=len(record.eligible),
            delivered_count=len(record.deliveries),
            spam_count=len(record.spam),
            duplicates=record.duplicate_receptions,
            worst_latency=record.worst_latency(),
        )

    def append_skipped(self, item_spec, *, item: int = -1, at: float = math.nan) -> None:
        """A launch slot whose band had no online initiator."""
        self._append(
            op_id=-1,
            item=item,
            kind=item_spec.kind,
            status="skipped",
            band=item_spec.band,
            policy=item_spec.resolved_policy,
            selector=item_spec.selector,
            mode=item_spec.mode if item_spec.kind == "multicast" else None,
            target=item_spec.target,
            launched_at=at,
            hops=None,
            transmissions=0,
            acks=0,
            retries=0,
            latency=None,
            eligible=-1,
            delivered_count=-1,
            spam_count=-1,
            duplicates=-1,
            worst_latency=None,
        )

    def finalize(self) -> "OperationLog":
        """Freeze the appended rows into a columnar :class:`OperationLog`."""
        if self._rows:
            transposed = list(zip(*self._rows))
        else:
            transposed = [[] for _ in _SCHEMA]
        columns = {
            name: np.asarray(values, dtype=dtype)
            for (name, dtype), values in zip(_SCHEMA, transposed)
        }
        return OperationLog(columns)


@dataclass(frozen=True, eq=False)
class OperationLog:
    """Immutable columnar outcomes of one executed plan (see module doc)."""

    columns: Dict[str, np.ndarray]

    def __post_init__(self):
        sizes = {c.size for c in self.columns.values()}
        if set(self.columns) != set(COLUMN_NAMES):
            missing = set(COLUMN_NAMES) - set(self.columns)
            extra = set(self.columns) - set(COLUMN_NAMES)
            raise ValueError(f"bad column set (missing={missing}, extra={extra})")
        if len(sizes) > 1:
            raise ValueError(f"ragged columns: sizes {sorted(sizes)}")

    # -- plumbing -------------------------------------------------------
    def __len__(self) -> int:
        return int(self.columns["op_id"].size)

    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise AttributeError(name) from None

    @classmethod
    def builder(cls) -> OperationLogBuilder:
        return OperationLogBuilder()

    @classmethod
    def concat(cls, logs: Sequence["OperationLog"]) -> "OperationLog":
        """Stack several logs into one, preserving row order.

        A session that ran three plans holds three logs; its combined
        aggregations (success rate, latency percentiles, …) are computed
        over ``concat(logs)`` exactly as if one plan had produced every
        row.  ``op_id``/``item`` values are kept verbatim — they are
        per-plan identifiers, disambiguated by row position.
        """
        logs = list(logs)
        if not logs:
            return cls.builder().finalize()
        if len(logs) == 1:
            return logs[0]
        return cls(
            {
                name: np.concatenate([log.columns[name] for log in logs])
                for name in COLUMN_NAMES
            }
        )

    @classmethod
    def from_records(
        cls,
        anycasts: Sequence[AnycastRecord] = (),
        multicasts: Sequence[MulticastRecord] = (),
        band: Optional[str] = None,
    ) -> "OperationLog":
        """Adapt legacy record lists (benchmarks, tests, old pipelines)."""
        builder = cls.builder()
        for record in anycasts:
            builder.append_anycast(record, band=band)
        for record in multicasts:
            builder.append_multicast(record, band=band)
        return builder.finalize()

    # -- masks ----------------------------------------------------------
    @property
    def launched(self) -> np.ndarray:
        """Rows that actually launched (op_id assigned)."""
        return self.columns["status"] != _STATUS_CODE["skipped"]

    @property
    def anycasts(self) -> np.ndarray:
        return self.columns["kind"] == KINDS.index("anycast")

    @property
    def multicasts(self) -> np.ndarray:
        return self.columns["kind"] == KINDS.index("multicast")

    @property
    def delivered(self) -> np.ndarray:
        """Stage-1 delivery (anycast delivered / multicast reached range)."""
        return self.columns["status"] == _STATUS_CODE[AnycastStatus.DELIVERED]

    def _mask(self, mask: Optional[np.ndarray]) -> np.ndarray:
        if mask is None:
            return np.ones(len(self), dtype=bool)
        return np.asarray(mask, dtype=bool)

    # -- scalar aggregates ----------------------------------------------
    def success_rate(self, mask: Optional[np.ndarray] = None) -> float:
        """Delivered fraction over the *launched* rows under ``mask``."""
        mask = self._mask(mask) & self.launched
        n = int(mask.sum())
        if n == 0:
            return float("nan")
        return float((self.delivered & mask).sum() / n)

    def status_fractions(self, mask: Optional[np.ndarray] = None) -> Dict[str, float]:
        """Terminal-status fractions over launched rows (Fig 9's bars)."""
        mask = self._mask(mask) & self.launched
        n = int(mask.sum())
        if n == 0:
            return {}
        counts = np.bincount(self.columns["status"][mask], minlength=len(STATUSES))
        return {status: counts[_STATUS_CODE[status]] / n for status in AnycastStatus.TERMINAL}

    def latencies(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Stage-1 delivery latencies (seconds) of delivered rows."""
        mask = self._mask(mask) & self.delivered
        values = self.columns["latency"][mask]
        return values[np.isfinite(values)]

    def latency_percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0), mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Latency percentiles in *milliseconds* (NaNs when undefined)."""
        values = self.latencies(mask)
        if values.size == 0:
            return np.full(len(qs), np.nan)
        return 1000.0 * np.percentile(values, qs)

    def mean_latency_ms(self, mask: Optional[np.ndarray] = None) -> float:
        values = self.latencies(mask)
        return float(1000.0 * values.mean()) if values.size else float("nan")

    def hops_delivered(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        return self.columns["hops"][self._mask(mask) & self.delivered]

    def hop_fraction_within(self, limit: int, mask: Optional[np.ndarray] = None) -> float:
        """Fraction of delivered rows that took ``<= limit`` hops."""
        hops = self.hops_delivered(mask)
        return float((hops <= limit).mean()) if hops.size else float("nan")

    # -- multicast metrics ----------------------------------------------
    def reliability_values(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-multicast delivered/eligible (Fig 13); NaN when nobody
        was eligible; rows without tallies (anycasts, skips) dropped."""
        mask = self._mask(mask) & self.launched & (self.columns["eligible"] >= 0)
        eligible = self.columns["eligible"][mask].astype(float)
        delivered = self.columns["delivered_count"][mask].astype(float)
        out = np.full(eligible.size, np.nan)
        np.divide(delivered, eligible, out=out, where=eligible > 0)
        return out

    def spam_ratio_values(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-multicast spam/eligible (Fig 12), NaN when undefined."""
        mask = self._mask(mask) & self.launched & (self.columns["eligible"] >= 0)
        eligible = self.columns["eligible"][mask].astype(float)
        spam = self.columns["spam_count"][mask].astype(float)
        out = np.full(eligible.size, np.nan)
        np.divide(spam, eligible, out=out, where=eligible > 0)
        return out

    def worst_latencies(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Finite last-delivery latencies (seconds) of multicast rows."""
        values = self.columns["worst_latency"][self._mask(mask)]
        return values[np.isfinite(values)]

    # -- grouped aggregation --------------------------------------------
    def aggregate(
        self, by: Sequence[str] = ("kind",), mask: Optional[np.ndarray] = None
    ) -> List[Dict[str, object]]:
        """Grouped metrics, one dict per distinct ``by``-tuple.

        ``by`` may name any code column (``kind``, ``band``, ``policy``,
        ``selector``, ``mode``, ``item``, ``target_kind``) or ``"target"``
        (grouping on the exact ``(lo, hi, kind)`` region).  Each group
        reports launched/delivered counts, success rate, mean hops and
        transmissions, latency p50/p90, and — where multicast tallies
        exist — mean reliability and spam ratio.  Groups are keyed by the
        decoded labels and returned sorted by key.
        """
        mask = self._mask(mask)
        keys: List[np.ndarray] = []
        decoders: List[Tuple[str, Optional[np.ndarray]]] = []
        for field in by:
            if field == "target":
                stacked = np.stack(
                    [
                        self.columns["target_lo"],
                        self.columns["target_hi"],
                        self.columns["target_kind"].astype(float),
                    ],
                    axis=1,
                )
                uniq, codes = np.unique(stacked, axis=0, return_inverse=True)
                keys.append(codes.reshape(-1))
                decoders.append((field, uniq))
            elif field in COLUMN_NAMES and field not in _FLOAT_COLUMNS:
                keys.append(self.columns[field].astype(np.int64))
                decoders.append((field, None))
            else:
                raise ValueError(f"cannot group by {field!r}")
        if not keys:
            raise ValueError("aggregate needs at least one field")
        stacked_keys = np.stack(keys, axis=1)[mask]
        if stacked_keys.shape[0] == 0:
            return []
        # Factorize once: np.unique gives each masked row its group code;
        # a stable argsort of the codes then makes every group one
        # contiguous slice of row indices (still in ascending row order,
        # so per-group value sequences — and hence every mean/percentile
        # below — match the per-group boolean-mask extraction exactly).
        groups, inverse = np.unique(stacked_keys, axis=0, return_inverse=True)
        indices = np.flatnonzero(mask)
        order = np.argsort(inverse.reshape(-1), kind="stable")
        sorted_rows = indices[order]
        bounds = np.searchsorted(
            inverse.reshape(-1)[order], np.arange(groups.shape[0] + 1)
        )
        launched_col = self.launched
        delivered_col = self.delivered
        latency_col = self.columns["latency"]
        hops_col = self.columns["hops"]
        transmissions_col = self.columns["transmissions"]
        eligible_col = self.columns["eligible"]
        delivered_count_col = self.columns["delivered_count"]
        spam_col = self.columns["spam_count"]
        out: List[Dict[str, object]] = []
        for g in range(groups.shape[0]):
            rows = sorted_rows[bounds[g] : bounds[g + 1]]
            entry: Dict[str, object] = {}
            for (field, uniq), code in zip(decoders, groups[g]):
                if uniq is not None:  # "target"
                    lo, hi, kind_code = uniq[code]
                    entry[field] = {
                        "lo": float(lo),
                        "hi": float(hi),
                        "kind": TARGET_KINDS[int(kind_code)],
                    }
                else:
                    entry[field] = _decode(field, int(code))
            launched = launched_col[rows]
            delivered = delivered_col[rows]
            n_launched = int(launched.sum())
            n_delivered_launched = int((delivered & launched).sum())
            latencies = latency_col[rows[delivered]]
            latencies = latencies[np.isfinite(latencies)]
            if latencies.size:
                p50, p90 = 1000.0 * np.percentile(latencies, (50.0, 90.0))
            else:
                p50 = p90 = float("nan")
            hops = hops_col[rows[delivered]]
            tallied = rows[launched & (eligible_col[rows] >= 0)]
            eligible = eligible_col[tallied].astype(float)
            reliability = np.full(eligible.size, np.nan)
            np.divide(
                delivered_count_col[tallied].astype(float),
                eligible,
                out=reliability,
                where=eligible > 0,
            )
            spam = np.full(eligible.size, np.nan)
            np.divide(
                spam_col[tallied].astype(float), eligible, out=spam, where=eligible > 0
            )
            entry.update(
                rows=int(rows.size),
                launched=n_launched,
                delivered=int(delivered.sum()),
                success_rate=(
                    float(n_delivered_launched / n_launched)
                    if n_launched
                    else float("nan")
                ),
                mean_hops=float(hops.mean()) if hops.size else float("nan"),
                mean_transmissions=(
                    float(transmissions_col[rows[launched]].mean())
                    if n_launched
                    else float("nan")
                ),
                latency_p50_ms=float(p50),
                latency_p90_ms=float(p90),
                mean_reliability=(
                    float(np.nanmean(reliability))
                    if np.isfinite(reliability).any()
                    else float("nan")
                ),
                mean_spam_ratio=(
                    float(np.nanmean(spam))
                    if np.isfinite(spam).any()
                    else float("nan")
                ),
            )
            out.append(entry)
        out.sort(key=lambda e: tuple(str(e[f]) for f in by))
        return out

    def summary(self) -> Dict[str, object]:
        """One flat overall record (the CLI prints this)."""
        p50, p90, p99 = self.latency_percentiles((50.0, 90.0, 99.0))
        reliability = self.reliability_values()
        spam = self.spam_ratio_values()
        hops = self.hops_delivered()
        return {
            "operations": len(self),
            "launched": int(self.launched.sum()),
            "skipped": int((~self.launched).sum()),
            "anycasts": int((self.anycasts & self.launched).sum()),
            "multicasts": int((self.multicasts & self.launched).sum()),
            "delivered": int(self.delivered.sum()),
            "success_rate": self.success_rate(),
            "mean_hops": float(hops.mean()) if hops.size else float("nan"),
            "latency_p50_ms": float(p50),
            "latency_p90_ms": float(p90),
            "latency_p99_ms": float(p99),
            "transmissions": int(self.columns["transmissions"].sum()),
            "acks": int(self.columns["acks"].sum()),
            "retries": int(self.columns["retries"].sum()),
            "mean_reliability": (
                float(np.nanmean(reliability))
                if np.isfinite(reliability).any()
                else float("nan")
            ),
            "mean_spam_ratio": (
                float(np.nanmean(spam)) if np.isfinite(spam).any() else float("nan")
            ),
            "status_fractions": self.status_fractions(),
        }

    # -- row access / export --------------------------------------------
    def row(self, i: int) -> Dict[str, object]:
        """Row ``i`` decoded to labels (debugging / CSV export)."""
        out: Dict[str, object] = {}
        for name in COLUMN_NAMES:
            value = self.columns[name][i]
            if name in _DECODERS:
                out[name] = _decode(name, int(value))
            elif name in _FLOAT_COLUMNS:
                out[name] = float(value)
            else:
                out[name] = int(value)
        return out

    def to_json(self, path: str) -> None:
        """Columns as JSON (NaN encoded as null — strict-parser safe).

        The categorical code vocabularies are embedded and verified on
        reload, so an archived log cannot silently mis-decode after a
        vocabulary change (e.g. a newly registered forwarding policy
        reordering ``POLICY_NAMES``).  The CSV export stores bare codes
        and carries no such guard.
        """
        payload = {
            "schema": 1,
            "rows": len(self),
            "vocabularies": {name: list(vocab) for name, vocab in _DECODERS.items()},
            "columns": {},
        }
        for name in COLUMN_NAMES:
            column = self.columns[name]
            if name in _FLOAT_COLUMNS:
                values = [None if not math.isfinite(v) else v for v in column.tolist()]
            else:
                values = column.tolist()
            payload["columns"][name] = values
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "OperationLog":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        stored = payload.get("vocabularies")
        if stored is not None:
            current = {name: list(vocab) for name, vocab in _DECODERS.items()}
            if stored != current:
                drift = sorted(
                    name for name in current
                    if stored.get(name) != current[name]
                )
                raise ValueError(
                    f"log was written with different code vocabularies for "
                    f"{drift}; its codes would decode to the wrong labels"
                )
        columns = {}
        for name, dtype in _SCHEMA:
            values = payload["columns"][name]
            if name in _FLOAT_COLUMNS:
                values = [math.nan if v is None else v for v in values]
            columns[name] = np.asarray(values, dtype=dtype)
        return cls(columns)

    def to_csv(self, path: str) -> None:
        """One encoded row per line (codes, not labels; NaN as empty)."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COLUMN_NAMES)
            for i in range(len(self)):
                row = []
                for name in COLUMN_NAMES:
                    value = self.columns[name][i]
                    if name in _FLOAT_COLUMNS:
                        row.append("" if not math.isfinite(value) else repr(float(value)))
                    else:
                        row.append(int(value))
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path: str) -> "OperationLog":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != COLUMN_NAMES:
                raise ValueError(f"unexpected CSV header {header}")
            raw: List[List[str]] = list(reader)
        columns = {}
        for j, (name, dtype) in enumerate(_SCHEMA):
            cells = [row[j] for row in raw]
            if name in _FLOAT_COLUMNS:
                values = [math.nan if cell == "" else float(cell) for cell in cells]
            else:
                values = [int(cell) for cell in cells]
            columns[name] = np.asarray(values, dtype=dtype)
        return cls(columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OperationLog(rows={len(self)}, launched={int(self.launched.sum())}, "
            f"delivered={int(self.delivered.sum())})"
        )
