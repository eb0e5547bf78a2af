"""Rule plumbing: lint configuration, per-module context, rule protocol.

Rules come in two shapes:

* **module rules** implement :meth:`Rule.check_module` and see one file
  at a time (the determinism and hot-loop families);
* **project rules** implement :meth:`Rule.check_project` and see every
  scanned module together (the service lock/journal families, which
  need cross-file call sites to decide reachability).

Scoping is path-prefix based and entirely data-driven through
:class:`LintConfig`, so the test fixtures exercise every rule against
synthetic trees without touching the real package layout.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, Suppression, parse_suppressions

__all__ = ["LintConfig", "ModuleContext", "Rule", "attribute_chain", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class LintConfig:
    """Where each rule family applies, relative to the lint root.

    Prefixes ending in ``/`` match directories; other entries match one
    file exactly.  An empty-string prefix matches everything (useful in
    fixture tests).
    """

    #: the only modules allowed to construct numpy generators directly
    randomness_modules: Tuple[str, ...] = ("util/randomness.py",)
    #: deterministic-engine modules: wall-clock reads and unordered-set
    #: iteration feeding RNG/log state are flagged here
    engine_scope: Tuple[str, ...] = (
        "simulation.py",
        "core/",
        "sim/",
        "ops/",
        "overlays/",
        "churn/",
        "scenarios/",
        "monitor/",
        "attacks/",
        "experiments/",
    )
    #: row-space hot modules: per-node Python loops are the 1M-node
    #: burn-down list
    hot_modules: Tuple[str, ...] = ("simulation.py", "ops/", "core/", "sim/", "monitor/")
    #: iterable names treated as population-sized in hot modules
    population_names: Tuple[str, ...] = (
        "nodes",
        "node_ids",
        "node_keys",
        "population",
        "descriptors",
    )
    #: threaded service modules checked for lock/journal discipline
    service_modules: Tuple[str, ...] = ("service/",)
    #: callables that execute a function argument under the session lock
    lock_entrypoints: Tuple[str, ...] = ("run_command",)
    #: settings classes whose every field must be read somewhere outside
    #: the class itself (the dead-knob rule)
    config_classes: Tuple[str, ...] = (
        "AvmemConfig",
        "AnycastConfig",
        "GossipConfig",
        "SimulationSettings",
    )

    def in_scope(self, rel: str, prefixes: Sequence[str]) -> bool:
        for prefix in prefixes:
            if prefix == "" or rel == prefix:
                return True
            if prefix.endswith("/") and rel.startswith(prefix):
                return True
        return False


DEFAULT_CONFIG = LintConfig()


def attribute_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``np.random.default_rng`` → ``("np", "random", "default_rng")``.

    Returns None when the expression is not a pure Name/Attribute chain
    (calls, subscripts, …), which no chain-based rule should match.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _ScopeIndexer(ast.NodeVisitor):
    """Maps line numbers to enclosing ``Class.method`` qualnames."""

    def __init__(self):
        self.stack: List[str] = []
        self.spans: List[Tuple[int, int, str]] = []

    def _enter(self, node) -> None:
        self.stack.append(node.name)
        end = getattr(node, "end_lineno", node.lineno) or node.lineno
        self.spans.append((node.lineno, end, ".".join(self.stack)))
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = _enter
    visit_AsyncFunctionDef = _enter
    visit_ClassDef = _enter


class ModuleContext:
    """One parsed source file plus its lint metadata."""

    def __init__(self, path: str, rel: str, source: str, config: LintConfig):
        self.path = path
        self.rel = rel.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.config = config
        self.suppressions: List[Suppression] = parse_suppressions(source)
        indexer = _ScopeIndexer()
        indexer.visit(self.tree)
        # innermost scope wins: sort spans so later (narrower) entries
        # override earlier ones during lookup
        self._spans = sorted(indexer.spans, key=lambda s: (s[0], -s[1]))

    def symbol_at(self, line: int) -> str:
        best = "<module>"
        for start, end, name in self._spans:
            if start <= line <= end:
                best = name
        return best

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule: str, node_or_line, message: str, column: Optional[int] = None
    ) -> Finding:
        if isinstance(node_or_line, int):
            line, col = node_or_line, 0 if column is None else column
        else:
            line = node_or_line.lineno
            col = node_or_line.col_offset if column is None else column
        return Finding(
            rule=rule,
            path=self.rel,
            line=line,
            column=col,
            message=message,
            symbol=self.symbol_at(line),
            snippet=self.line_text(line),
        )


class Rule:
    """Base class; subclasses set :attr:`id` and :attr:`summary`."""

    id: str = ""
    summary: str = ""

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_project(self, contexts: List[ModuleContext]) -> Iterable[Finding]:
        return ()


@dataclass
class RuleRegistry:
    """Ordered rule catalogue keyed by rule id."""

    rules: Dict[str, Rule] = field(default_factory=dict)

    def register(self, rule: Rule) -> Rule:
        if not rule.id:
            raise ValueError(f"rule {type(rule).__name__} has no id")
        if rule.id in self.rules:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        self.rules[rule.id] = rule
        return rule

    def select(self, ids: Optional[Sequence[str]] = None) -> List[Rule]:
        if ids is None:
            return list(self.rules.values())
        unknown = [i for i in ids if i not in self.rules]
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(self.rules))}"
            )
        return [self.rules[i] for i in ids]
