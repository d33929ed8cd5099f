"""The compiled scipy modules the package calls, loaded without their packages.

Every scipy routine a run needs lives in one of three extension modules:
``scipy.special._special_ufuncs`` (``kv``, ``gammaln``),
``scipy.linalg._flapack`` (``dgtsv``, the eigensolve's LAPACK routines,
``?gesdd``) and ``scipy.linalg._fblas`` (``dgemm``).  Importing the
``scipy.linalg`` or ``scipy.special`` package to reach them runs both
``__init__`` files, which pull in ``numpy.testing``, ``numpy.ma`` and
``unittest``: about 0.25 s and 27 MiB per process that no number uses.
:func:`native` loads the one file instead, on first use, so importing
``fracspectra`` or loading a config touches no scipy module.  The functions
are the objects the packages export (``scipy.special.kv is
_special_ufuncs.kv``), so every result is bitwise the package-level call's.
The module names are private to scipy, hence the version floor in
``pyproject.toml``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from types import ModuleType

__all__ = ["native"]

_LOAD_LOCK = threading.Lock()


def native(package: str, name: str) -> ModuleType:
    """The compiled module ``scipy.<package>.<name>``, one object per process.

    A module already in ``sys.modules`` under that name (a test or a tracer
    may have imported the package first) is returned as it is.  Otherwise
    the extension file is found in scipy's package directory with one of
    ``importlib.machinery.EXTENSION_SUFFIXES``, loaded by
    ``spec_from_file_location`` under a lock, so threads that reach it
    together (``--jobs``) share one fully initialised module, and registered
    under that name, which a later package import reuses.  A missing file
    raises ``ImportError``: there is no fallback to the package import.
    """
    full = f"scipy.{package}.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    with _LOAD_LOCK:
        module = sys.modules.get(full)
        if module is None:
            module = _load(full, package, name)
            sys.modules[full] = module
    return module


def _load(full: str, package: str, name: str) -> ModuleType:
    spec = importlib.util.find_spec("scipy")
    roots = [] if spec is None else list(spec.submodule_search_locations or ())
    dirs = [os.path.join(root, package) for root in roots]
    for directory in dirs:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, name + suffix)
            if os.path.isfile(path):
                found = importlib.util.spec_from_file_location(full, path)
                module = importlib.util.module_from_spec(found)
                found.loader.exec_module(module)
                return module
    raise ImportError(
        f"scipy package {package!r} has no compiled module {name!r}: searched "
        f"{dirs or 'no scipy installation'}",
        name=full,
    )
