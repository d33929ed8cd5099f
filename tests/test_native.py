"""The loader of the compiled scipy modules the package calls."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy
import scipy.linalg
import scipy.special

from fracspectra._native import native

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def test_a_missing_module_fails_loudly_with_what_was_searched():
    searched = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    with pytest.raises(ImportError) as info:
        native("linalg", "_no_such_module")
    message = str(info.value)
    assert "'linalg'" in message and "'_no_such_module'" in message
    assert searched in message
    assert info.value.name == "scipy.linalg._no_such_module"
    assert "scipy.linalg._no_such_module" not in sys.modules


def test_one_module_object_serves_the_package_and_the_loader():
    # here the packages were imported first, and the loader returns their
    # modules: the very functions the package-level names are
    flapack, fblas = native("linalg", "_flapack"), native("linalg", "_fblas")
    special = native("special", "_special_ufuncs")
    assert flapack is scipy.linalg._flapack and fblas is scipy.linalg._fblas
    assert special is sys.modules["scipy.special._special_ufuncs"]
    assert scipy.linalg.lapack.dsytrd is flapack.dsytrd
    assert scipy.linalg.lapack.zgesdd is flapack.zgesdd
    assert scipy.linalg.blas.dgemm is fblas.dgemm
    assert scipy.special.kv is special.kv and scipy.special.gammaln is special.gammaln
    assert native("linalg", "_flapack") is flapack


def test_first_loads_from_many_threads_give_one_module_each():
    # a fresh interpreter, so every load is a first one: eight threads, more
    # than the cores, reach the loader together with a short switch
    # interval; each name must yield one module object, the only scipy
    # modules loaded are the three, and a later package import reuses them
    probe = """
import sys, threading
from fracspectra._native import native
names = [("linalg", "_flapack"), ("linalg", "_fblas"), ("special", "_special_ufuncs")]
start, got = threading.Barrier(8), [[] for _ in names]
def work():
    start.wait(timeout=60)
    for slot, name in zip(got, names):
        slot.append(native(*name))
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work) for _ in range(8)]
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
assert not any(t.is_alive() for t in threads)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import scipy.linalg, scipy.special
print([len(slot) for slot in got], [len({id(m) for m in slot}) for slot in got], loaded,
      scipy.linalg.lapack.dsytrd is got[0][0].dsytrd, scipy.linalg.blas.dgemm is got[1][0].dgemm,
      scipy.special.kv is got[2][0].kv)
"""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]),
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == (
        "[8, 8, 8] [1, 1, 1] ['scipy.linalg._fblas', 'scipy.linalg._flapack', "
        "'scipy.special._special_ufuncs'] True True True"
    )
