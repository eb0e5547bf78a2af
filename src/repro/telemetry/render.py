"""Human rendering of telemetry snapshots: summarize one, diff two.

``repro telemetry summarize A.json`` pretty-prints one snapshot — the
span tree with per-phase totals and percentages of run wall-clock,
then counters, gauges, histograms, and distribution summaries.  With a
second file it renders a side-by-side diff (absolute and relative
deltas) — the perf-regression triage view.
"""

from __future__ import annotations

from typing import Dict, List

from repro.telemetry.snapshot import SpanStat, TelemetrySnapshot

__all__ = ["render_snapshot", "render_diff"]


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 100.0:
        return f"{seconds:.1f}s"
    if seconds >= 0.1:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000.0:.2f}ms"


def _render_span(
    span: SpanStat, wall: float, depth: int, lines: List[str]
) -> None:
    pct = 100.0 * span.seconds / wall if wall > 0 else float("nan")
    indent = "  " * depth
    lines.append(
        f"  {indent}{span.name:<{max(4, 40 - 2 * depth)}} "
        f"{_fmt_seconds(span.seconds):>10}  {pct:5.1f}%  "
        f"x{span.count}"
    )
    for child in span.children:
        _render_span(child, wall, depth + 1, lines)


def _render_maintenance(counters: Dict[str, int]) -> List[str]:
    """Per-protocol attribution of the maintenance rounds, derived from
    the ``node.discovery.*`` / ``node.refresh.*`` counters."""
    rounds = counters.get("node.discovery.rounds", 0)
    refreshes = counters.get("node.refresh.rounds", 0)
    if not rounds and not refreshes:
        return []
    candidates = counters.get("node.discovery.candidates", 0)
    added = counters.get("node.discovery.added", 0)
    evicted = counters.get("node.refresh.evicted", 0)
    share = f"{100.0 * added / candidates:.2f}%" if candidates else "n/a"
    return [
        "maintenance rounds (online nodes only):",
        f"  discovery  rounds={rounds} candidates={candidates} "
        f"added={added} (yield {share})",
        f"  refresh    rounds={refreshes} evicted={evicted}",
    ]


def _render_caches(counters: Dict[str, int]) -> List[str]:
    """Rebuild counts of the operation plane's two caches (counted at
    the rebuild points only, so a hit costs telemetry nothing)."""
    snapshots = counters.get("churn.snapshot.rebuilds", 0)
    views = counters.get("membership.view.rebuilds", 0)
    if not snapshots and not views:
        return []
    return [
        "cache rebuilds:",
        f"  churn edge-to-edge snapshot  rebuilds={snapshots}",
        f"  membership neighbor view     rebuilds={views}",
    ]


def render_snapshot(snapshot: TelemetrySnapshot) -> str:
    """One snapshot as a readable report."""
    lines: List[str] = []
    wall = snapshot.wall_seconds
    coverage = snapshot.span_coverage()
    lines.append(
        f"wall-clock: {_fmt_seconds(wall)}   "
        f"span coverage: {100.0 * coverage:.1f}%"
        if coverage == coverage
        else f"wall-clock: {_fmt_seconds(wall)}"
    )
    if snapshot.spans:
        lines.append("spans (total, % of wall, calls):")
        for span in snapshot.spans:
            _render_span(span, wall, 0, lines)
    if snapshot.counters:
        lines.append("counters:")
        for name, value in snapshot.counters.items():
            lines.append(f"  {name:<42} {value}")
    lines.extend(_render_maintenance(snapshot.counters))
    lines.extend(_render_caches(snapshot.counters))
    if snapshot.gauges:
        lines.append("gauges (last sample):")
        for name, value in snapshot.gauges.items():
            lines.append(f"  {name:<42} {value:g}")
    if snapshot.histograms:
        lines.append("histograms:")
        for name, hist in snapshot.histograms.items():
            count = hist.get("count", 0)
            if count:
                mean = hist.get("sum", 0.0) / count
                lines.append(
                    f"  {name:<42} n={count} mean={mean:.2f} "
                    f"min={hist.get('min'):g} max={hist.get('max'):g}"
                )
            else:
                lines.append(f"  {name:<42} n=0")
    if snapshot.distributions:
        lines.append("distributions:")
        for name, summary in snapshot.distributions.items():
            rendered = " ".join(
                f"{key}={value:g}" for key, value in summary.items()
            )
            lines.append(f"  {name:<42} {rendered}")
    return "\n".join(lines)


def _diff_rows(
    a: Dict[str, float], b: Dict[str, float], fmt
) -> List[str]:
    lines: List[str] = []
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if va is None:
            lines.append(f"  {name:<42} {'—':>12} -> {fmt(vb):>12}  (new)")
        elif vb is None:
            lines.append(f"  {name:<42} {fmt(va):>12} -> {'—':>12}  (gone)")
        else:
            delta = vb - va
            ratio = f" ({vb / va:.2f}x)" if va else ""
            lines.append(
                f"  {name:<42} {fmt(va):>12} -> {fmt(vb):>12}  "
                f"{'+' if delta >= 0 else ''}{fmt(delta)}{ratio}"
            )
    return lines


def render_diff(a: TelemetrySnapshot, b: TelemetrySnapshot) -> str:
    """Two snapshots side by side: A -> B with deltas (regression
    triage)."""
    lines: List[str] = []
    lines.append(
        f"wall-clock: {_fmt_seconds(a.wall_seconds)} -> "
        f"{_fmt_seconds(b.wall_seconds)}"
    )
    spans_a = {path: node.seconds for path, node in a.span_paths().items()}
    spans_b = {path: node.seconds for path, node in b.span_paths().items()}
    if spans_a or spans_b:
        lines.append("span seconds:")
        lines.extend(_diff_rows(spans_a, spans_b, _fmt_seconds))
    counters_a = {k: float(v) for k, v in a.counters.items()}
    counters_b = {k: float(v) for k, v in b.counters.items()}
    if counters_a or counters_b:
        lines.append("counters:")
        lines.extend(_diff_rows(counters_a, counters_b, lambda v: f"{v:g}"))
    hist_a = {
        k: (v.get("sum", 0.0) / v["count"] if v.get("count") else 0.0)
        for k, v in a.histograms.items()
    }
    hist_b = {
        k: (v.get("sum", 0.0) / v["count"] if v.get("count") else 0.0)
        for k, v in b.histograms.items()
    }
    if hist_a or hist_b:
        lines.append("histogram means:")
        lines.extend(_diff_rows(hist_a, hist_b, lambda v: f"{v:.2f}"))
    return "\n".join(lines)
