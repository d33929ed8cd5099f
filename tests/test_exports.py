"""Every name a ``fracspectra`` module exports in ``__all__`` must resolve.

A name left in ``__all__`` after its definition is deleted breaks only
``from ... import *``, which nothing else in the suite runs.
"""

import importlib
import pkgutil

import pytest

import fracspectra

MODULES = ["fracspectra"] + [
    f"fracspectra.{info.name}" for info in pkgutil.iter_modules(fracspectra.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
