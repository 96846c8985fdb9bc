import importlib
import pkgutil

import pytest

import coverlattice

MODULES = ["coverlattice"] + [
    f"coverlattice.{info.name}" for info in pkgutil.iter_modules(coverlattice.__path__)
]


def test_every_submodule_is_listed():
    assert len(MODULES) == 8  # the package and its seven modules


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(exported) == len(set(exported)), f"{module}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}, which do not resolve"
