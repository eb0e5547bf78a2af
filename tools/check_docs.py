#!/usr/bin/env python
"""Documentation checks: runnable code blocks, link integrity, symbols.

Keeps README.md and docs/ honest in CI:

1. **Executable snippets** — every fenced ```python`` block in the
   checked markdown files is executed verbatim (fresh namespace per
   block, repo root as cwd, ``src/`` on ``sys.path``).  The README
   quickstart therefore runs on every CI build; snippets that are not
   meant to execute should use a different language tag (``console``,
   ``text``, or a bare fence).
2. **Link check** — every relative markdown link must point at an
   existing file, and every ``#fragment`` (same-file or cross-file) must
   match a heading anchor in the target, using GitHub's slug rules.
3. **Symbol check** — every backticked ``Class.member`` (or
   ``Class.member(...)``) whose ``Class`` is defined under
   ``src/repro`` must name a member of that class or of one of its
   ``src`` bases: a method, a class-level name or an attribute its
   methods assign on ``self`` (found with :mod:`ast`, nothing imported).
4. **Dotted references** — every backticked ``repro.<dotted>`` in the
   checked markdown files, and every ``:mod:``/``:class:``/``:meth:``/
   ``:func:``/``:data:``/``:attr:`` target ``repro.<dotted>`` in
   ``src/repro``, must resolve: the longest importable module prefix
   is imported and the rest looked up with ``getattr``.

Run from the repository root (CI does)::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import importlib
import io
import os
import re
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKED_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

FENCE_RE = re.compile(r"^```(\w*)\s*$")
LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^()\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
SYMBOL_RE = re.compile(r"`(\w+)\.(\w+)[`(]")
DOTTED_RE = re.compile(r"`(repro(?:\.\w+)+)")
ROLE_RE = re.compile(r":(?:mod|class|meth|func|data|attr):`[~.]?(repro(?:\.\w+)+)`")


def iter_code_blocks(text: str) -> Iterator[Tuple[str, int, str]]:
    """Yield ``(language, start_line, code)`` for each fenced block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        match = FENCE_RE.match(lines[i])
        if match:
            language = match.group(1).lower()
            start = i + 1
            body: List[str] = []
            i += 1
            while i < len(lines) and not lines[i].startswith("```"):
                body.append(lines[i])
                i += 1
            yield language, start, "\n".join(body)
        i += 1


def github_slug(heading: str) -> str:
    """GitHub's markdown heading → anchor slug transformation."""
    slug = re.sub(r"[`*_]", "", heading.strip().lower())
    slug = re.sub(r"[^\w\- ]", "", slug, flags=re.UNICODE)
    return slug.replace(" ", "-")


def heading_anchors(path: Path) -> set:
    anchors = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            anchors.add(github_slug(match.group(2)))
    return anchors


def check_links(path: Path) -> List[str]:
    errors: List[str] = []
    text = path.read_text(encoding="utf-8")
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        link, _, fragment = target.partition("#")
        resolved = (path.parent / link).resolve() if link else path
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in heading_anchors(resolved):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: missing anchor -> {target}"
                )
    return errors


def source_classes() -> Dict[str, Tuple[Set[str], List[str]]]:
    """Class name -> (member names, base names) over ``src/repro``.
    Members are the class body's defs and assigned names plus every
    ``self.<name>`` its methods store to; same-named classes are merged."""
    classes: Dict[str, Tuple[Set[str], List[str]]] = {}
    for module in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            members, bases = classes.setdefault(node.name, (set(), []))
            bases.extend(
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    members.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    members.update(t.id for t in targets if isinstance(t, ast.Name))
            members.update(
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            )
    return classes


def has_member(classes, cls: str, member: str, seen: Tuple[str, ...] = ()) -> bool:
    if cls not in classes or cls in seen:
        return False
    members, bases = classes[cls]
    return member in members or any(
        has_member(classes, base, member, seen + (cls,)) for base in bases
    )


def check_symbols(path: Path, classes) -> List[str]:
    errors: List[str] = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for cls, member in SYMBOL_RE.findall(line):
            if cls in classes and not has_member(classes, cls, member):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}:{number}: `{cls}.{member}` "
                    f"names no member of {cls}"
                )
    return errors


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module or an attribute chain on one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if not (name + ".").startswith(f"{exc.name}."):
                raise  # a real import failure inside the module
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_dotted(path: Path, pattern: re.Pattern) -> Tuple[int, List[str]]:
    """``(references seen, errors)`` for ``pattern``'s matches in ``path``."""
    text = path.read_text(encoding="utf-8")
    matches = list(pattern.finditer(text))
    errors = [
        f"{path.relative_to(REPO_ROOT)}:{text.count(chr(10), 0, m.start()) + 1}: "
        f"`{m.group(1)}` does not resolve"
        for m in matches
        if not resolves(m.group(1))
    ]
    return len(matches), errors


def run_code_blocks(path: Path) -> List[str]:
    errors: List[str] = []
    for language, line, code in iter_code_blocks(path.read_text(encoding="utf-8")):
        if language != "python":
            continue
        label = f"{path.relative_to(REPO_ROOT)}:{line}"
        started = time.perf_counter()
        captured = io.StringIO()
        try:
            with redirect_stdout(captured):
                exec(compile(code, str(label), "exec"), {"__name__": "__docs__"})
        except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
            errors.append(f"{label}: python block raised {type(exc).__name__}: {exc}")
        else:
            print(f"  ran python block at {label} ({time.perf_counter() - started:.1f}s)")
    return errors


def main() -> int:
    os.chdir(REPO_ROOT)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    failures: List[str] = []
    classes = source_classes()
    references = 0
    for path in CHECKED_FILES:
        print(f"checking {path.relative_to(REPO_ROOT)}")
        failures.extend(check_links(path))
        failures.extend(check_symbols(path, classes))
        seen, errors = check_dotted(path, DOTTED_RE)
        references += seen
        failures.extend(errors)
        failures.extend(run_code_blocks(path))
    for module in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        seen, errors = check_dotted(module, ROLE_RE)
        references += seen
        failures.extend(errors)
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"\nOK: {len(CHECKED_FILES)} files, all links resolve, all class members "
        f"named exist, all {references} dotted references resolve, all python "
        "blocks ran"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
