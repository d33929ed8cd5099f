"""Every name a ``fracspectra`` module exports in ``__all__`` must resolve,
and so must every function the benchmark harness times by name.

A name left in ``__all__`` after its definition is deleted breaks only
``from ... import *``, which nothing else in the suite runs.  A per-layer
target deleted from a module breaks every traced benchmark pass, which
only the slow harness suite, outside the tier-1 test paths, would notice.
"""

import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import fracspectra

MODULES = ["fracspectra"] + [
    f"fracspectra.{info.name}" for info in pkgutil.iter_modules(fracspectra.__path__)
]

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def layer_targets() -> list[str]:
    """``module.name`` of each per-layer metric in ``BENCHMARK.json``, its
    first two dotted parts, as ``benchmarks/run.py`` derives them, less the
    ``cli`` and ``trace`` layers, which wrap no function, and the ``linalg``
    layer, whose targets are numpy and scipy routines."""
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted(
        {
            ".".join(name.split(".")[:2])
            for name in names
            if name.split(".")[0] not in ("cli", "trace", "linalg")
        }
    )


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"


def test_every_benchmarked_layer_target_resolves():
    # the traced harness resolves each target with a bare getattr on its
    # module and times a class through its __init__
    targets = layer_targets()
    assert "fractal_operator.assemble_trace_operator" in targets
    missing = []
    for target in targets:
        module, name = target.split(".")
        if not callable(getattr(importlib.import_module(f"fracspectra.{module}"), name, None)):
            missing.append(target)
    assert not missing, f"benchmark layer targets undefined {missing}"
    from fracspectra.fractal_operator import BesselKernel

    assert inspect.isclass(BesselKernel)
