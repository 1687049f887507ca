"""Every name in an __all__ of the package resolves, so that a definition
deleted from a module but left in its exports fails here rather than first
at a star import."""

import importlib
import pkgutil

import pytest

import pdwg

# __main__ runs the command line when imported
MODULES = ["pdwg"] + [f"pdwg.{info.name}" for info in pkgutil.iter_modules(pdwg.__path__)
                      if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
