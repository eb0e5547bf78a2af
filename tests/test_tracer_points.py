"""The benchmark tracer's patch points still exist where it looks.

``benchmarks/e2e/tracer.py`` wraps the program's entry points by name,
and looks each method up in its owner's ``__dict__``: a refactor that
moves or renames one of them crashes ``run.py --trace 1``.  This test
reads the tracer's tables (without installing anything) and resolves
every point the way the tracer does, so that refactor fails here.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracer.py"


def load_tracer() -> types.ModuleType:
    """Execute the tracer's source in a fresh module: read only, no
    import-system side effects (no bytecode cache next to it)."""
    module = types.ModuleType("e2e_tracer_tables")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


TABLES = load_tracer()
POINTS = [point[:3] for point in TABLES.ENTRY_POINTS + TABLES.COUNT_POINTS] + [
    ("repro.core.node", "AvmemNode", "register_handler")
]


@pytest.mark.parametrize(
    "module_name, owner_name, attr", POINTS, ids=[".".join(filter(None, p)) for p in POINTS]
)
def test_patch_point_resolves(module_name, owner_name, attr):
    module = importlib.import_module(module_name)
    if owner_name is None:
        assert callable(getattr(module, attr))
        return
    owner = getattr(module, owner_name)
    original = owner.__dict__[attr]  # the tracer's own lookup
    assert callable(getattr(original, "__func__", original))
