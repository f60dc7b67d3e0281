import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import isodiam

MODULES = ["isodiam", *(f"isodiam.{m.name}" for m in pkgutil.iter_modules(isodiam.__path__))]

# Public names that no subcommand or other module reaches yet, each kept
# for the ROADMAP item that will use it.
UNUSED_ON_PURPOSE = {
    "crossover": "item 10 gives it its conjecture use; test_04 pins the paper's crossovers with it",
    "ta2_bound": "items 7 and 9",
    "nb_of": "items 7 and 9",
    "DisjointDisks": "items 7 and 9",
    "region_diam3_sampled": "bench/spans.py TARGETS binds it until item 1",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """A name deleted from a module must leave its __all__ too."""
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert [n for n in exports if not hasattr(module, n)] == []
    assert len(set(exports)) == len(exports)


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _loaded_names(tree: ast.Module) -> set[str]:
    """Names read as a Name or an Attribute, or bound by an import alias.
    The strings of __all__ and a name's own def are not reads."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unused_exports(package: Path) -> dict[str, str]:
    """Each __all__ name of a module under package, other than __init__,
    that neither another module nor its own module reads, mapped to its
    module's name. __init__ re-exports names but does not use them."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    trees.pop("__init__", None)
    used = set().union(*map(_loaded_names, trees.values()))
    return {name: stem for stem, tree in trees.items() for name in _exports(tree) if name not in used}


def test_every_export_is_used_by_the_package():
    """The library ships what a subcommand or another module uses, not
    oracles that only tests call; those live under tests/. The names kept
    for a numbered ROADMAP item are listed with their reasons, and a name
    leaves the list once something uses it."""
    unused = unused_exports(Path(isodiam.__file__).parent)
    assert set(unused) - set(UNUSED_ON_PURPOSE) == set(), unused
    assert set(UNUSED_ON_PURPOSE) - set(unused) == set()
