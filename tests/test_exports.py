import importlib
import pkgutil

import pytest

import isodiam

MODULES = ["isodiam", *(f"isodiam.{m.name}" for m in pkgutil.iter_modules(isodiam.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """A name deleted from a module must leave its __all__ too."""
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert [n for n in exports if not hasattr(module, n)] == []
    assert len(set(exports)) == len(exports)
