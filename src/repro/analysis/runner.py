"""File walking, rule execution, suppression handling, and rendering.

:func:`run_lint` is the one entry point: it parses every ``.py`` file
under the given paths, runs the selected rules (module rules per file,
project rules once over the whole set), drops findings covered by a
justified inline suppression, and reports suppression hygiene
(``bad-suppression`` for reason-less markers, ``unused-suppression``
for markers that match nothing).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.base import (
    DEFAULT_CONFIG,
    LintConfig,
    ModuleContext,
    Rule,
    RuleRegistry,
)
from repro.analysis.baseline import Baseline, BaselineComparison
from repro.analysis.deadknobs import DeadKnobRule
from repro.analysis.determinism import (
    NpRandomRule,
    RandomModuleRule,
    SetIterationRule,
    WallClockRule,
)
from repro.analysis.findings import BAD_SUPPRESSION, UNUSED_SUPPRESSION, Finding
from repro.analysis.hotloops import HotLoopRule
from repro.analysis.service_rules import JournalCoverageRule, LockDisciplineRule

__all__ = [
    "build_registry",
    "iter_source_files",
    "load_contexts",
    "render_json",
    "render_text",
    "run_lint",
]


def build_registry() -> RuleRegistry:
    registry = RuleRegistry()
    registry.register(RandomModuleRule())
    registry.register(NpRandomRule())
    registry.register(WallClockRule())
    registry.register(SetIterationRule())
    registry.register(HotLoopRule())
    registry.register(LockDisciplineRule())
    registry.register(JournalCoverageRule())
    registry.register(DeadKnobRule())
    return registry


def iter_source_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return sorted(dict.fromkeys(out))


def _rel_path(path: str, roots: Sequence[str]) -> str:
    """Path relative to the deepest containing root (lint scoping key)."""
    best: Optional[str] = None
    abspath = os.path.abspath(path)
    for root in roots:
        absroot = os.path.abspath(root)
        if os.path.isfile(absroot):
            absroot = os.path.dirname(absroot)
        if abspath == absroot or abspath.startswith(absroot + os.sep):
            if best is None or len(absroot) > len(best):
                best = absroot
    rel = os.path.relpath(abspath, best) if best else os.path.basename(abspath)
    return rel.replace(os.sep, "/")


def load_contexts(
    paths: Sequence[str], config: LintConfig = DEFAULT_CONFIG
) -> Tuple[List[ModuleContext], List[Finding]]:
    """Parse every source file; unparseable files become findings."""
    contexts: List[ModuleContext] = []
    errors: List[Finding] = []
    for path in iter_source_files(paths):
        rel = _rel_path(path, paths)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            contexts.append(ModuleContext(path, rel, source, config))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", None) or 1
            errors.append(Finding(
                rule="parse-error",
                path=rel,
                line=int(line),
                column=0,
                message=f"cannot analyze: {type(exc).__name__}: {exc}",
                symbol="<module>",
                snippet="",
            ))
    return contexts, errors


def _apply_suppressions(
    contexts: List[ModuleContext], findings: List[Finding]
) -> List[Finding]:
    """Drop suppressed findings; emit suppression-hygiene findings."""
    by_rel: Dict[str, ModuleContext] = {ctx.rel: ctx for ctx in contexts}
    kept: List[Finding] = []
    for finding in findings:
        ctx = by_rel.get(finding.path)
        suppressed = False
        if ctx is not None:
            for supp in ctx.suppressions:
                if supp.line in (finding.line, finding.line - 1) and supp.matches(
                    finding.rule
                ):
                    supp.used = True
                    suppressed = True
                    break
        if not suppressed:
            kept.append(finding)
    for ctx in contexts:
        for supp in ctx.suppressions:
            if supp.reason is None:
                kept.append(ctx.finding(
                    BAD_SUPPRESSION, supp.line,
                    "suppression without a reason is inert; write "
                    "`# avmemlint: disable=RULE -- reason`",
                ))
            elif not supp.used:
                kept.append(ctx.finding(
                    UNUSED_SUPPRESSION, supp.line,
                    f"suppression for {', '.join(supp.rules)} matches no "
                    "finding; remove it",
                ))
    return kept


def run_lint(
    paths: Sequence[str],
    config: LintConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[str]] = None,
    registry: Optional[RuleRegistry] = None,
) -> List[Finding]:
    """Lint ``paths``; returns suppression-filtered, sorted findings."""
    registry = registry if registry is not None else build_registry()
    selected = registry.select(rules)
    contexts, findings = load_contexts(paths, config)
    for rule in selected:
        for ctx in contexts:
            findings.extend(rule.check_module(ctx))
        findings.extend(rule.check_project(contexts))
    findings = _apply_suppressions(contexts, findings)
    return sorted(findings, key=Finding.sort_key)


def render_text(
    comparison: BaselineComparison,
    show_baselined: bool = True,
) -> str:
    """Human-readable report: new findings first, then known debt."""
    lines: List[str] = []
    if comparison.new:
        lines.append(f"{len(comparison.new)} new finding(s):")
        lines.extend(f"  {f.render()}" for f in comparison.new)
    if comparison.baselined:
        if show_baselined:
            lines.append(f"{len(comparison.baselined)} baselined finding(s):")
            lines.extend(f"  {f.render()}" for f in comparison.baselined)
        else:
            lines.append(f"{len(comparison.baselined)} baselined finding(s) (known debt)")
    if comparison.stale:
        lines.append(
            f"{len(comparison.stale)} stale baseline entr"
            f"{'y' if len(comparison.stale) == 1 else 'ies'} "
            "(debt paid down — regenerate with --write-baseline):"
        )
        lines.extend(
            "  {rule} {path} [{symbol}] x{missing}: {snippet}".format(**entry)
            for entry in comparison.stale
        )
    if not (comparison.new or comparison.baselined or comparison.stale):
        lines.append("no findings")
    return "\n".join(lines)


def render_json(comparison: BaselineComparison) -> str:
    payload = {
        "new": [f.as_dict() for f in comparison.new],
        "baselined": [f.as_dict() for f in comparison.baselined],
        "stale": comparison.stale,
        "counts": {
            "new": len(comparison.new),
            "baselined": len(comparison.baselined),
            "stale": len(comparison.stale),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def compare_to_baseline(
    findings: List[Finding], baseline: Optional[Baseline]
) -> BaselineComparison:
    return (baseline or Baseline.empty()).compare(findings)
