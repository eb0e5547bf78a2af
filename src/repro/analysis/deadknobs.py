"""Dead-knob rule: a configuration field nothing consumes.

``AvmemConfig.hash_name`` was declared, documented, validated and
round-tripped through manifests for five PRs while no code path ever
read it — setting it changed nothing.  **dead-knob** makes that a lint
failure: for every annotated field of a configured settings class
(:attr:`LintConfig.config_classes`), some scanned code must load an
attribute of that name.  Reads inside the class's own ``__post_init__``
do not count — validating a knob is not using it.

Matching is by attribute *name* (the same honest limit as the service
rules): ``anything.ttl`` keeps ``AnycastConfig.ttl`` alive, so the rule
can miss a dead field with a common name but never flags a live one.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.base import ModuleContext, Rule
from repro.analysis.findings import Finding

__all__ = ["DeadKnobRule"]


def _attribute_loads(tree: ast.AST, excluded: Optional[ast.AST] = None) -> Set[str]:
    """Attribute names loaded anywhere in ``tree`` except inside the
    ``excluded`` subtree."""
    loads: Set[str] = set()
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if node is excluded:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return loads


class DeadKnobRule(Rule):
    id = "dead-knob"
    summary = "settings field never read outside its own validation"

    def check_project(self, contexts: List[ModuleContext]) -> Iterable[Finding]:
        findings: List[Finding] = []
        loads = [_attribute_loads(ctx.tree) for ctx in contexts]
        for ctx in contexts:
            for cls in ast.walk(ctx.tree):
                if not (
                    isinstance(cls, ast.ClassDef)
                    and cls.name in ctx.config.config_classes
                ):
                    continue
                validation = next(
                    (
                        stmt
                        for stmt in cls.body
                        if isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "__post_init__"
                    ),
                    None,
                )
                read = _attribute_loads(ctx.tree, validation).union(
                    *(found for other, found in zip(contexts, loads) if other is not ctx)
                )
                for stmt in cls.body:
                    if not (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                    ):
                        continue
                    if stmt.target.id not in read:
                        findings.append(ctx.finding(
                            self.id, stmt,
                            f"{cls.name}.{stmt.target.id} is declared but never "
                            "read outside its own validation — a dead knob: "
                            "wire it through or delete it",
                        ))
        return findings
