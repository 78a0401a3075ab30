import importlib
import pkgutil

import pytest

import magmoves

MODULES = [magmoves] + [
    importlib.import_module(f"magmoves.{info.name}")
    for info in pkgutil.iter_modules(magmoves.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
