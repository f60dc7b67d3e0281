"""isodiam runs on one thread: no module of the package may import a
thread or process pool."""

import ast
from pathlib import Path

import pytest

import isodiam

FORBIDDEN = ("concurrent.futures", "threading", "multiprocessing")
SOURCES = sorted(Path(isodiam.__file__).parent.glob("*.py"))


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_thread_or_process_pool(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        name
        for name in imported_modules(tree)
        if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    ]
    assert found == []
