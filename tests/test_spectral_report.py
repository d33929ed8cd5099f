"""Eigenvalue ordering, decay-exponent fitting, and verdict reports."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import assert_gathers, assert_operator_is, dense_kernel, held_matrix
from fracspectra._native import native
from fracspectra.experiment import _assemble, _build_measure, load_config
from fracspectra.fractal_measure import build_cantor_like, quadrature
from fracspectra.fractal_operator import (
    CutoffTailWarning,
    MirrorBlocks,
    PairGather,
    PsdViolationWarning,
    WindowViolationError,
    assemble_dmu_kernel,
    assemble_tmu_galerkin,
)
from fracspectra.psido_engine import make_symbol
from fracspectra import fractal_operator, spectral_report
from fracspectra.spectral_report import (
    DecayFit,
    InsufficientSpectrumError,
    SpectrumReport,
    assess_decay,
    eigen_spectrum,
    fit_decay_exponent,
    fit_upper_envelope,
    nonzero_part,
    order_by_modulus,
    snumber_exponent_check,
    theoretical_exponent,
    theoretical_snumber_exponent,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# the compiled LAPACK and BLAS modules the eigensolve calls, which its spies patch
FLAPACK, FBLAS = native("linalg", "_flapack"), native("linalg", "_fblas")
D_CANTOR = 0.6309297535714574  # log 2 / log 3, dimension of the middle-third set

# (ambient_dim, n_maps, ratio, translations) of sets off the two-map Cantor line
THREE_MAPS = (1, 3, 0.2, [[0.0], [math.sqrt(2.0) - 1.0], [0.8]])
SYMMETRIC_DUST = (2, 4, 0.25, [[0.0, 0.0], [0.0, 0.75], [0.75, 0.0], [0.75, 0.75]])
LOPSIDED_FOUR_MAPS = (1, 4, 0.08, [[0.0], [0.25], [0.5], [0.9]])
# the one-dimensional counterpart of SYMMETRIC_DUST, for the Galerkin path
SYMMETRIC_FOUR_MAPS = (1, 4, 0.2, [[0.0], [0.25], [0.5], [0.75]])


@pytest.fixture(scope="module")
def cantor_ifs():
    return build_cantor_like(1, 2, 1.0 / 3.0, [[0.0], [2.0 / 3.0]])


@pytest.fixture(scope="module")
def measure_l1(cantor_ifs):
    return quadrature(cantor_ifs, 1)


@pytest.fixture(scope="module")
def measure_l5(cantor_ifs):
    return quadrature(cantor_ifs, 5)


@pytest.fixture(scope="module")
def measure_l7(cantor_ifs):
    return quadrature(cantor_ifs, 7)


def power_law(count: int, exponent: float, scale: float = 1.0) -> np.ndarray:
    return scale * np.arange(1, count + 1, dtype=float) ** (-exponent)


@contextmanager
def eigensolve_calls():
    """Record the routines the eigensolve calls inside as ``(kind, arg)``, in
    order: ``"reduce"`` for a ``dsytrd`` tridiagonal reduction (``arg`` the
    order), ``"values"`` for ``dsterf`` (the values it returns), ``"vectors"``
    for ``dstein`` (the values it is given, its ``iblock`` and its
    ``isplit``), ``"map"`` for ``dormqr`` (its ``lwork``), ``"product"`` for
    a ``dgemm`` residual product on one strip of rows (the shape of the
    strip's transpose it is given: the order, then the strip's rows), and
    ``"all"`` or ``"eigh"`` for a ``scipy.linalg.eigh`` call that returns
    every eigenvector or not (the order).  A ``dstebz``,
    ``eigh_tridiagonal`` or ``dsymm`` call fails the test at once."""
    calls = []
    lapack, blas = FLAPACK, FBLAS
    real_eigh = scipy.linalg.eigh
    real = {name: getattr(lapack, name) for name in ("dsytrd", "dsterf", "dstein", "dormqr")}
    real_product = blas.dgemm

    def reduction(a, *args, **kwargs):
        calls.append(("reduce", np.shape(a)[0]))
        return real["dsytrd"](a, *args, **kwargs)

    def values(d, e, *args, **kwargs):
        out = real["dsterf"](d, e, *args, **kwargs)
        calls.append(("values", out[0].copy()))
        return out

    def vectors(d, e, w, iblock, isplit):
        calls.append(("vectors", (np.array(w), np.array(iblock), np.array(isplit))))
        return real["dstein"](d, e, w, iblock, isplit)

    def back_map(side, trans, a, tau, c, lwork, *args, **kwargs):
        calls.append(("map", lwork))
        return real["dormqr"](side, trans, a, tau, c, lwork, *args, **kwargs)

    def product(alpha, a, b, *args, **kwargs):
        calls.append(("product", np.shape(a)))
        return real_product(alpha, a, b, *args, **kwargs)

    def eigh(a, *args, **kwargs):
        every = not kwargs.get("eigvals_only") and kwargs.get("subset_by_index") is None
        calls.append(("all" if every else "eigh", np.shape(a)[0]))
        return real_eigh(a, *args, **kwargs)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the eigensolve called {name}")

        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lapack, "dsytrd", reduction)
        mp.setattr(lapack, "dsterf", values)
        mp.setattr(lapack, "dstein", vectors)
        mp.setattr(lapack, "dormqr", back_map)
        mp.setattr(blas, "dgemm", product)
        mp.setattr(blas, "dsymm", forbidden("dsymm"))
        mp.setattr(scipy.linalg, "eigh", eigh)
        mp.setattr(lapack, "dstebz", forbidden("dstebz"))
        mp.setattr(scipy.linalg, "eigh_tridiagonal", forbidden("eigh_tridiagonal"))
        yield calls


def assert_block_solves(calls, orders) -> None:
    """Per block, of the given orders in turn: one tridiagonal reduction, one
    ``dsterf`` of all its values, one ``dstein`` at ``min(50, order)`` of
    those very values (a bottom run and a top run of them, T taken as one
    block), the ``dormqr`` workspace query and map, and the ``dgemm``
    residual products of strips of rows that cover the block in order, all
    but the last of one height, at most 32 of them.  A block of order 1
    needs neither ``dsterf``, ``dstein`` nor ``dormqr``.  No
    ``scipy.linalg.eigh`` call."""
    kinds = ("values", "vectors", "map", "product")
    assert calls and calls[0][0] == "reduce", calls
    blocks = []
    for kind, arg in calls:
        if kind == "reduce":
            blocks.append((arg, {k: [] for k in kinds}))
        else:
            assert kind in kinds, calls
            blocks[-1][1][kind].append(arg)
    assert [n for n, _ in blocks] == orders
    for n, got in blocks:
        orders, heights = zip(*got["product"])
        assert set(orders) == {n} and sum(heights) == n and len(heights) <= 32
        assert len(set(heights[:-1])) <= 1 and heights[-1] <= heights[0]
        if n == 1:
            assert got["values"] == got["vectors"] == got["map"] == []
            continue
        ((w,), ((top, iblock, isplit),), (query, lwork)) = (got[k] for k in kinds[:3])
        m = min(50, n)
        assert w.size == n and top.size == m and query == -1 and lwork > 0
        runs = [np.r_[w[:b], w[n - m + b :]] for b in range(m + 1)]
        assert any(np.array_equal(top.view(np.uint64), run.view(np.uint64)) for run in runs)
        assert np.all(iblock == 1) and isplit[0] == n


def assert_bitwise_equal(a: np.ndarray, b: np.ndarray) -> None:
    """``a`` and ``b`` hold the same float64 bits (a signed zero included)."""
    assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_symmetric(rng, n: int) -> np.ndarray:
    """A random real symmetric matrix of order n."""
    a = rng.standard_normal((n, n))
    return a + a.T


def operator(mat, assembly=None, tiles: int = 1) -> PairGather:
    """Bitwise symmetric ``mat`` of order n as an operator with the given
    ``assembly`` record (none by default), held as a pair gather with no
    ``r`` whose table is the entries of ``mat``: ``tiles`` x ``tiles`` tiles
    of order ``size = n // tiles``, tile (a, b) read at the codes ``(a tiles
    + b) size^2 + arange(size^2)``, so its gather is ``mat`` bit for bit.
    One tile by default: the table is ``mat.ravel()`` at the codes
    ``arange(n * n)``."""
    mat = np.asarray(mat, dtype=float)
    size = mat.shape[0] // tiles
    table = mat.reshape(tiles, size, tiles, size).swapaxes(1, 2).ravel()
    hi = np.arange(tiles * tiles).reshape(tiles, tiles)
    lo = np.arange(size * size).reshape(size, size)
    return PairGather(assembly or {}, table, hi, lo, size * size)


def mirror_symmetric(rng, n: int) -> np.ndarray:
    """A random symmetric matrix with ``K == J K J`` (J the index reversal)."""
    a = random_symmetric(rng, n)
    return a + a[::-1, ::-1]


def toeplitz_mirror_blocks(table: np.ndarray) -> tuple[MirrorBlocks, np.ndarray]:
    """Hand-built mirror blocks of the symmetric Toeplitz ``K[a, b] = table[a
    - b + n - 1]`` of even order n, from its palindromic ``table`` of 2n - 1
    entries, and K: the level-1 gather over n evenly spaced maps (pair
    digit ``a - b + n - 1``), held as the code factors ``hi = digit`` and
    the level-0 codes ``lo``, the one code 0, with ``D^0 = 1``."""
    n = (table.size + 1) // 2
    digit = np.subtract.outer(np.arange(n), np.arange(n)) + n - 1
    return MirrorBlocks({}, table, digit, np.zeros((1, 1), dtype=np.intp), 1), table[digit]


def held_arrays(op) -> list:
    """Every array ``op`` holds: its table, code factors, any ``r``, and the
    reversed code factor of mirror blocks."""
    return (
        [op.table, op.hi, op.lo, np.array(op.step)]
        + ([] if op.r is None else [op.r])
        + ([op.flipped] if isinstance(op, MirrorBlocks) else [])
    )


def certify(op, sign=None) -> tuple[np.ndarray, np.ndarray]:
    """``spectral_report._certified_pairs`` on ``op`` gathered as the solve
    gathers it: whole (no ``sign``), or as its mirror block of that sign."""
    if sign is None:
        gather = op.dense
    else:

        def gather(out=None, rows=None):
            return op.block(sign, out, rows)

    return spectral_report._certified_pairs(gather(), gather)


def mirror_block(K: np.ndarray, sign: int) -> np.ndarray:
    """``A + B J`` (positive ``sign``) or ``A - B J`` formed from K in full,
    bitwise the block a :class:`MirrorBlocks` of K gathers."""
    h = K.shape[0] // 2
    return K[:h, :h] + sign * K[:h, h:][:, ::-1]


def rss_anon() -> int:
    """This process's resident anonymous memory in bytes (``RssAnon`` in
    ``/proc/self/status``): it counts the pages of an anonymous ``mmap``,
    which ``tracemalloc`` does not see."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no RssAnon line in /proc/self/status")


def mapping_rss(array: np.ndarray) -> int:
    """Resident bytes of the one memory mapping that holds ``array``'s data
    (its ``Rss`` in ``/proc/self/smaps``)."""
    address, inside = array.ctypes.data, False
    with open("/proc/self/smaps", encoding="ascii") as smaps:
        for line in smaps:
            head = line.split(None, 1)[0]
            if not head.endswith(":"):  # a mapping's first line: start-end perms ...
                start, stop = (int(x, 16) for x in head.split("-"))
                inside = start <= address < stop
            elif inside and head == "Rss:":
                return int(line.split()[1]) * 1024
    raise AssertionError(f"no mapping holds address {address:#x}")


def triangle_pages(n: int, size: int) -> int:
    """Bytes in the 4 KiB pages of a page-aligned C-ordered float64 buffer
    of order n that its tiles (a, b) of order ``size`` with ``b >= a`` cover:
    row i from column ``(i // size) size`` to its end."""
    pages = set()
    for i in range(n):
        start, stop = 8 * (i * n + (i // size) * size), 8 * (i + 1) * n
        pages.update(range(start // 4096, (stop - 1) // 4096 + 1))
    return 4096 * len(pages)


def split_eigvalsh(K: np.ndarray) -> np.ndarray:
    """The eigenvalues of the blocks ``A +- B J`` formed from K, each from a
    values-only ``scipy.linalg.eigh``, ordered by modulus."""
    h = K.shape[0] // 2
    a, bj = K[:h, :h], K[:h, h:][:, ::-1]
    blocks = (a + bj, a - bj)
    return order_by_modulus(
        np.concatenate([scipy.linalg.eigh(b, eigvals_only=True) for b in blocks])
    )


class TestOrdering:
    def test_modulus_descending_with_real_tiebreak(self):
        res = order_by_modulus([-1.0, 0.5, 1.0])
        assert np.array_equal(res, [1.0, -1.0, 0.5])
        assert res.dtype == np.float64  # real input stays real

    def test_conjugate_pair_positive_imag_first(self):
        res = order_by_modulus([1.0 - 2.0j, 1.0 + 2.0j])
        assert res[0] == 1.0 + 2.0j and res[1] == 1.0 - 2.0j
        assert res.dtype == np.complex128

    def test_empty_input(self):
        assert order_by_modulus([]).size == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            order_by_modulus([1.0, np.nan])

    def test_nonzero_part_drops_relative_dust(self):
        res = nonzero_part([1.0, 1e-15, 0.5])
        assert np.array_equal(res, np.array([1.0, 0.5], dtype=complex))

    def test_nonzero_part_of_zero_sequence_is_empty(self):
        assert nonzero_part(np.zeros(4)).size == 0

    @given(st.integers(0, 10**6), st.integers(2, 30))
    def test_ordering_is_nonincreasing_and_a_permutation(self, seed, count):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        res = order_by_modulus(vals)
        mods = np.abs(res)
        assert np.all(np.diff(mods) <= 1e-15 * mods[0])
        assert np.allclose(np.sort_complex(res), np.sort_complex(vals))


class TestEigenSpectrum:
    def test_diagonal_two_by_two(self):
        # a real symmetric operator's spectrum is real, and returned as such
        res = eigen_spectrum(operator(np.diag([1.0, 0.5])))
        assert np.allclose(res, [1.0, 0.5])
        assert res.dtype == np.float64

    def test_two_atom_kernel_matrix_closed_form(self, measure_l1):
        # symmetric 2x2 with equal diagonal: eigenvalues are diag +- offdiag
        op = assemble_dmu_kernel(measure_l1, 0.45)
        k = dense_kernel(measure_l1, 0.45)
        assert_operator_is(op, k)
        res = eigen_spectrum(op)
        hi = k[0, 0] + k[0, 1]
        lo = k[0, 0] - k[0, 1]
        assert np.all(res.imag == 0.0)
        assert res.real == pytest.approx([hi, lo], rel=1e-12)
        assert res.real[1] > 0.0

    def test_zero_matrix_all_zero_empty_nonzero_part(self):
        res = eigen_spectrum(operator(np.zeros((5, 5))))
        assert res.size == 5
        assert np.all(res == 0.0)
        assert nonzero_part(res).size == 0

    def test_kernel_operator_spectrum_is_real(self, measure_l5):
        op = assemble_dmu_kernel(measure_l5, 0.45)
        res = eigen_spectrum(op)
        assert np.all(res.imag == 0.0)
        ref = np.sort(np.linalg.eigvalsh(dense_kernel(measure_l5, 0.45)))[::-1]
        assert np.allclose(res.real, ref, rtol=1e-10, atol=1e-14 * ref[0])

    def test_residual_certificate_failure_carries_provenance(self, measure_l5, monkeypatch):
        op = assemble_dmu_kernel(measure_l5, 0.45)
        monkeypatch.setattr(spectral_report, "RESIDUAL_REL", 0.0)
        with pytest.raises(RuntimeError, match="kernel-gram"):
            eigen_spectrum(op)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, value):
        # refused by the operator itself, so no solver ever sees the entry
        mat = np.eye(3)
        mat[0, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                operator(mat)

    def test_empty_matrix(self):
        assert eigen_spectrum(operator(np.zeros((0, 0)))).size == 0

    def test_opposite_eigenvalues_put_the_positive_one_first(self):
        # eigenvalues +1 and -1 tie in modulus; the real tie-break orders them
        res = eigen_spectrum(operator([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(res, np.array([1.0, -1.0], dtype=complex))

    def test_indefinite_kernel_gram_warns_but_other_operators_do_not(self):
        mat = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        op = operator(mat, {"kind": "kernel-gram"})
        with pytest.warns(PsdViolationWarning, match="eigenvalue -1.000e"):
            res = eigen_spectrum(op)
        assert res.real == pytest.approx([3.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", PsdViolationWarning)
            assert np.array_equal(eigen_spectrum(operator(mat)), res)

    @pytest.mark.parametrize("ratio, warns", [(-0.5e-8, False), (-2e-8, True)])
    def test_kernel_gram_psd_threshold_is_one_part_in_a_hundred_million(self, ratio, warns):
        # lambda_min = ratio * lambda_max on either side of the -1e-8 edge
        op = operator(np.diag([1.0, ratio]), {"kind": "kernel-gram"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            eigen_spectrum(op)
        psd = [w for w in caught if issubclass(w.category, PsdViolationWarning)]
        assert len(psd) == (1 if warns else 0)

    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_symmetric_path_matches_reference_eigensolver(self, seed, n):
        a = np.random.default_rng(seed).standard_normal((n, n))
        mat = a + a.T
        mine = eigen_spectrum(operator(mat))
        ref = order_by_modulus(np.linalg.eigvals(mat))
        assert np.allclose(mine, ref, rtol=0.0, atol=1e-9 * max(np.abs(ref[0]), 1.0))

    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_symmetric_path_spectra_are_real_and_ordered(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        res = eigen_spectrum(operator((a + a.T) / 2.0))
        assert np.all(res.imag == 0.0)
        mods = np.abs(res)
        assert np.all(np.diff(mods) <= 1e-12 * max(mods[0], 1e-300))

    @pytest.mark.parametrize("case", ["odd-order", "off-mirror", "dense-mirror"])
    def test_unsplittable_matrix_gets_one_full_solve(self, case):
        # a pair gather is solved at full size, a mirror-symmetric one too:
        # only an assembly decides the split, never the entries
        rng = np.random.default_rng(11)
        if case == "odd-order":
            mat = mirror_symmetric(rng, 9)
        else:
            mat = mirror_symmetric(rng, 10)
        if case == "off-mirror":
            bump = np.zeros_like(mat)
            bump[0, 1] = bump[1, 0] = 1e-6 * np.abs(mat).max()
            mat = mat + bump  # still symmetric, no longer mirror-symmetric
        ref = np.sort(np.linalg.eigvalsh(mat))[::-1]
        with eigensolve_calls() as calls:
            res = eigen_spectrum(operator(mat))
        assert_block_solves(calls, [mat.shape[0]])
        assert np.all(res.imag == 0.0)
        assert np.allclose(np.sort(res.real)[::-1], ref, rtol=0.0, atol=1e-12 * abs(ref[0]))
        assert np.array_equal(np.sort(res.real), scipy.linalg.eigh(mat, eigvals_only=True))

    def test_cantor_kernel_split_matches_full_solve(self, cantor_ifs):
        mu = quadrature(cantor_ifs, 9)
        op = assemble_dmu_kernel(mu, 0.45)
        ref = np.sort(scipy.linalg.eigvalsh(dense_kernel(mu, 0.45)))[::-1][:200]
        with eigensolve_calls() as calls:
            res = eigen_spectrum(op)
        assert_block_solves(calls, [256, 256])
        assert res.real[:200] == pytest.approx(ref, rel=1e-12, abs=0.0)

    # mirror blocks, split into two blocks of 60; a pair gather, unsplit
    @pytest.mark.parametrize("n", [120, 119])
    def test_negative_dominated_spectrum_takes_the_bottom_run(self, n):
        # shifted down by half the spectral radius, the largest moduli are
        # mostly negative, so the top 50 need the bottom eigenvectors too
        rng = np.random.default_rng(17)
        if n == 120:
            half = rng.standard_normal(n)  # the last entry is the centre
            table = np.concatenate([half, half[-2::-1]])
            _, mat = toeplitz_mirror_blocks(table)
            # the centre code is the coincident one: lowering it shifts the diagonal
            table[n - 1] -= 0.5 * np.abs(np.linalg.eigvalsh(mat)).max()
            op, mat = toeplitz_mirror_blocks(table)
        else:
            mat = mirror_symmetric(rng, n)
            mat = mat - 0.5 * np.abs(np.linalg.eigvalsh(mat)).max() * np.eye(n)
            op = operator(mat)
        ref = order_by_modulus(np.linalg.eigvalsh(mat))
        assert ref[0].real < 0.0
        with eigensolve_calls() as calls:
            res = eigen_spectrum(op)
        assert_block_solves(calls, [60, 60] if n == 120 else [119])
        # the values dstein gets start at the block's bottom eigenvalue
        values = [arg for kind, arg in calls if kind == "values"]
        vectors = [arg[0] for kind, arg in calls if kind == "vectors"]
        assert len(values) == len(vectors) == (2 if n == 120 else 1)
        assert all(top[0] == w[0] < 0.0 for w, top in zip(values, vectors))
        assert np.all(res.imag == 0.0)
        assert np.allclose(res, ref, rtol=0.0, atol=1e-12 * abs(ref[0]))

    def test_no_call_computes_every_eigenvector(self, cantor_ifs):
        kernel = assemble_dmu_kernel(quadrature(cantor_ifs, 7), 0.45)  # blocks of 64
        a = np.random.default_rng(19).standard_normal((101, 101))
        for op in (kernel, operator(a + a.T)):
            with eigensolve_calls() as calls:
                eigen_spectrum(op)
            assert calls and all(kind not in ("all", "eigh") for kind, _ in calls)

    # kernel mirror blocks; dense three-map kernel; unsplit random
    @pytest.mark.parametrize("n", [128, 81, 101])
    def test_certificate_rejects_vectors_that_do_not_pair_with_the_values(
        self, cantor_ifs, n
    ):
        if n == 128:
            op = assemble_dmu_kernel(quadrature(cantor_ifs, 7), 0.45)
            assert isinstance(op, MirrorBlocks)
        elif n == 81:
            op = assemble_dmu_kernel(quadrature(build_cantor_like(*THREE_MAPS), 4), 0.45)
            assert type(op) is PairGather and op.order == 81
        else:
            a = np.random.default_rng(23).standard_normal((n, n))
            op = operator(a + a.T)
        real_vectors = FLAPACK.dstein
        rng = np.random.default_rng(29)

        def perturbed(*args):
            z, info = real_vectors(*args)
            return z + 1e-6 * rng.standard_normal(z.shape), info

        eigen_spectrum(op)  # certified as solved
        record = re.escape(f"assembly record: {op.assembly}")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FLAPACK, "dstein", perturbed)
            with pytest.raises(RuntimeError, match=f"eigenpair residual .*{record}"):
                eigen_spectrum(op)

    def test_certificate_covers_every_pair_the_solve_computes(self, cantor_ifs):
        # the cantor_p2 kernel at L = 8 is solved as two blocks of order 128,
        # each for its 50 pairs of largest modulus; the second block's
        # smallest of them lies outside the operator's top 50, and a vector
        # that does not pair with it is refused all the same
        op = assemble_dmu_kernel(quadrature(cantor_ifs, 8), 0.45)
        assert isinstance(op, MirrorBlocks)
        values = eigen_spectrum(op)
        _, top, _ = spectral_report._top_pairs(op.block(-1))
        smallest = int(np.argmin(np.abs(top)))
        assert top.size == 50 and abs(top[smallest]) < abs(values[49])
        real_vectors, shapes = FLAPACK.dstein, []
        rng = np.random.default_rng(83)

        def perturbed(*args):
            z, info = real_vectors(*args)
            shapes.append(z.shape)
            if len(shapes) == 2:  # A - B J
                z[:, smallest] += 1e-6 * rng.standard_normal(z.shape[0])
            return z, info

        record = re.escape(f"assembly record: {op.assembly}")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FLAPACK, "dstein", perturbed)
            with pytest.raises(RuntimeError, match=f"eigenpair residual .*{record}"):
                eigen_spectrum(op)
        assert shapes == [(128, 50), (128, 50)]

    @pytest.mark.parametrize("n", [1, 2, 3, 60, 700])  # 700 takes the blocked reduction
    def test_one_reduction_spectrum_is_bitwise_eigh(self, n):
        block = random_symmetric(np.random.default_rng(31), n)
        w, _, _ = spectral_report._top_pairs(block.copy())
        assert np.array_equal(w, scipy.linalg.eigh(block, eigvals_only=True))

    @pytest.mark.parametrize("scale", [1e-140, 1e-20, 1e20, 1e70])
    def test_one_reduction_is_bitwise_eigh_across_the_unscaled_range(self, scale):
        # dsyevr rescales only a block whose largest entry lies outside about
        # [1e-146, 1e76]; inside that range the bits match at any magnitude
        block = scale * random_symmetric(np.random.default_rng(41), 60)
        w, _, _ = spectral_report._top_pairs(block.copy())
        assert np.array_equal(w, scipy.linalg.eigh(block, eigvals_only=True))

    @pytest.mark.parametrize("routine", ["dsytrd", "dsterf", "dstein", "dormqr"])
    def test_lapack_error_carries_provenance(self, routine, monkeypatch):
        # the reduction, the values, the vectors, and their map back
        mat = random_symmetric(np.random.default_rng(37), 8)
        op = operator(mat, {"kind": "probe"})
        real_routine = getattr(FLAPACK, routine)

        def failing(*args, **kwargs):
            *out, _ = real_routine(*args, **kwargs)
            return (*out, 1)

        failing.__name__ = routine
        monkeypatch.setattr(FLAPACK, routine, failing)
        keep = mat.copy()
        with pytest.raises(scipy.linalg.LinAlgError, match=f"{routine} returned info = 1"):
            spectral_report._top_pairs(mat.copy())
        with pytest.raises(RuntimeError, match="did not converge.*'kind': 'probe'"):
            eigen_spectrum(op)
        assert np.shares_memory(op.table, mat)
        assert_bitwise_equal(mat, keep)  # the solve reduced a gathered copy

    @pytest.mark.parametrize(
        "case", ["modulated-galerkin", "three-map-kernel", "galerkin-mirror-blocks"]
    )
    def test_solve_leaves_the_matrix_intact(self, cantor_ifs, case):
        # the solve gathers what it reduces into a buffer of its own: an
        # assembled operator's arrays are only read
        if case == "modulated-galerkin":
            sym = make_symbol("separable_demo", sigma=-0.9)
            op = assemble_tmu_galerkin(sym, 0.45, 2.0, quadrature(cantor_ifs, 7), 1.0e5)
            assert op.assembly["similarity"] == "diag(sqrt(a))"
        elif case == "three-map-kernel":  # fails the digit test: a dense K
            op = assemble_dmu_kernel(quadrature(build_cantor_like(*THREE_MAPS), 4), 0.45)
            assert type(op) is PairGather
        else:  # an x-independent symbol
            sym = make_symbol("bessel_power", sigma=-0.9)
            op = assemble_tmu_galerkin(sym, 0.45, 2.0, quadrature(cantor_ifs, 7), 1.0e5)
            assert isinstance(op, MirrorBlocks)
        held = held_arrays(op)
        keep = [a.copy() for a in held]
        with eigensolve_calls() as calls:
            eigen_spectrum(op)
        n = op.order
        split = isinstance(op, MirrorBlocks)
        assert_block_solves(calls, [n // 2, n // 2] if split else [n])
        assert len(held) == 4 + (op.r is not None) + split
        for a, b in zip(held, keep):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", ["dense", "galerkin-mirror-blocks", "kernel-mirror-blocks"])
    def test_reduction_overwrites_the_block_it_is_given(self, cantor_ifs, case):
        # dsytrd gets overwrite_a on the block's own storage, and makes no
        # copy of it
        if case == "dense":
            op = operator(random_symmetric(np.random.default_rng(53), 90))
        elif case == "galerkin-mirror-blocks":  # an x-independent symbol
            sym = make_symbol("bessel_power", sigma=-0.9)
            op = assemble_tmu_galerkin(sym, 0.45, 2.0, quadrature(cantor_ifs, 7), 1.0e5)
        else:
            op = assemble_dmu_kernel(quadrature(cantor_ifs, 7), 0.45)
        blocks, reductions = [], []
        real_top_pairs, real_reduction = spectral_report._top_pairs, FLAPACK.dsytrd

        def top_pairs(block):
            blocks.append(block)
            return real_top_pairs(block)

        def reduction(a, *args, **kwargs):
            out = real_reduction(a, *args, **kwargs)
            shared = np.shares_memory(a, blocks[-1]) and np.shares_memory(out[0], a)
            reductions.append((kwargs.get("overwrite_a"), shared))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral_report, "_top_pairs", top_pairs)
            mp.setattr(FLAPACK, "dsytrd", reduction)
            eigen_spectrum(op)
        assert reductions == [(1, True)] * (1 if case == "dense" else 2)
        if case == "dense":  # the gather into the solve's own buffer
            assert not np.shares_memory(blocks[0], op.table)

    @pytest.mark.parametrize("case", ["dense", "kernel-mirror-blocks"])
    def test_certificate_product_is_scipy_dgemm_on_strips_of_k(self, cantor_ifs, case):
        # the residual product runs on the OpenBLAS that reduced the block,
        # one dgemm per strip of rows of K, gathered again in order into one
        # small buffer that is not the reduced block, and read through its
        # Fortran-ordered transpose with no copy.  Order 700 in tiles of 100
        # takes 16 strips of 46 rows, most across a tile edge; the blocks of
        # order 512 take 8 strips of 64
        if case == "dense":
            K = random_symmetric(np.random.default_rng(59), 700)
            op, refs = operator(K, tiles=7), [K]
        else:
            mu = quadrature(cantor_ifs, 10)
            op, K = assemble_dmu_kernel(mu, 0.45), dense_kernel(mu, 0.45)
            refs = [mirror_block(K, 1), mirror_block(K, -1)]
        blocks, products = [], []
        real_top_pairs, real_product = spectral_report._top_pairs, FBLAS.dgemm

        def top_pairs(block):
            blocks.append((block, []))
            return real_top_pairs(block)

        def product(alpha, a, b, **kwargs):
            block, strips = blocks[-1]
            start = sum(strip.shape[1] for strip in strips)
            ref = refs[len(blocks) - 1][start : start + a.shape[1]]
            assert_bitwise_equal(a.T, ref)  # rows start:stop of K, every entry
            assert a.flags.f_contiguous and not np.shares_memory(a, block)
            assert not strips or a.ctypes.data == strips[0].ctypes.data  # one buffer
            assert (alpha, kwargs["beta"], kwargs["trans_a"]) == (1.0, -1.0, 1)
            strips.append(a)
            return real_product(alpha, a, b, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral_report, "_top_pairs", top_pairs)
            mp.setattr(FBLAS, "dgemm", product)
            eigen_spectrum(op)
        heights = [[strip.shape[1] for strip in strips] for _, strips in blocks]
        if case == "dense":
            assert heights == [[46] * 15 + [10]]
        else:
            assert heights == [[64] * 8] * 2

    @pytest.mark.parametrize("case", ["dense", "kernel-mirror-block"])
    def test_residuals_match_the_numpy_product_to_rounding(self, cantor_ifs, case):
        # the residual against the block re-gathered strip by strip, against
        # the block formed in full (mirror_block)
        if case == "dense":
            block = random_symmetric(np.random.default_rng(61), 300)
            _, res = certify(operator(block))
        else:
            mu = quadrature(cantor_ifs, 10)
            block = mirror_block(dense_kernel(mu, 0.45), -1)
            _, res = certify(assemble_dmu_kernel(mu, 0.45), -1)
        _, top, u = spectral_report._top_pairs(block.copy())
        oracle = np.linalg.norm(block @ u - u * top, axis=0)
        scale = np.finfo(float).eps * float(np.abs(top).max())
        assert res.shape == (50,) and np.all(res <= 100 * scale)
        assert np.allclose(res, oracle, rtol=0.0, atol=4 * scale)

    @pytest.mark.parametrize("config", ["cantor_p2", "cantor_p15"])
    def test_solve_grows_less_than_one_block_over_what_it_holds(self, config):
        # at level 10: the kernel Gram operator's two mirror blocks of order
        # 512, and the modulated Galerkin matrix of order 1024, solved at full
        # size; a copy of the block for the reduction alone would be 8 n^2 B,
        # on the traced heap or, made resident, in RssAnon
        cfg = load_config(CONFIG_DIR / f"{config}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffTailWarning)
            op = _assemble(cfg, _build_measure(cfg, 10))
        assert isinstance(op, MirrorBlocks) == (config == "cantor_p2")
        traced, resident, orders = [], [], []
        real_certified = spectral_report._certified_pairs

        def certified(block, gather):
            held, rss = tracemalloc.get_traced_memory()[0], rss_anon()
            tracemalloc.reset_peak()
            out = real_certified(block, gather)
            traced.append(tracemalloc.get_traced_memory()[1] - held)
            resident.append(rss_anon() - rss)
            orders.append(block.shape[0])
            return out

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral_report, "_certified_pairs", certified)
                eigen_spectrum(op)
        finally:
            tracemalloc.stop()
        assert orders == ([512, 512] if config == "cantor_p2" else [1024])
        for g, r, n in zip(traced, resident, orders):
            assert g < 8 * n * n, f"solve grew {g} B, a block of order {n} is {8 * n * n} B"
            assert r < 8 * n * n, f"RssAnon grew {r} B, a block of order {n} is {8 * n * n} B"

    def test_mirror_solve_holds_one_block_for_both(self, cantor_ifs):
        # at level 10 each mirror block has order 512; A - B J is gathered
        # into the storage of A + B J, which is still alive when it is
        # certified: the solve makes one buffer, and its resident memory
        # grows by one block.  The spy keeps weak references only, so it
        # holds no block alive itself
        op = assemble_dmu_kernel(quadrature(cantor_ifs, 10), 0.45)
        eigen_spectrum(op)  # warm-up: imports and LAPACK wrappers
        refs, same, grown, made = [], [], [], []
        real_certified = spectral_report._certified_pairs
        real_buffer = fractal_operator._solve_buffer

        def certified(block, gather):
            same.append(bool(refs) and refs[0]() is block)
            refs.append(weakref.ref(block))
            out = real_certified(block, gather)
            grown.append(rss_anon() - rss)
            return out

        def buffer(n):
            made.append(n)
            return real_buffer(n)

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral_report, "_certified_pairs", certified)
                mp.setattr(fractal_operator, "_solve_buffer", buffer)
                rss = rss_anon()
                eigen_spectrum(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same == [False, True] and made == [512]
        size = 8 * (op.order // 2) ** 2
        assert size == 8 * 512 * 512
        assert peak < 1.5 * size, f"solve peaked at {peak} B, a block is {size} B"
        assert max(grown) < 1.5 * size, f"RssAnon grew {max(grown)} B, a block is {size} B"

    @pytest.mark.parametrize(
        "config, level", [("cantor_p15", 10), ("cantor_p15", 11), ("cantor_p2", 11)]
    )
    def test_solve_buffer_is_resident_for_its_gathered_triangle_only(self, config, level):
        # the gather writes the tiles (a, b) with b >= a, the reduction reads
        # and writes only them, and the certificate re-gathers K elsewhere:
        # no other page of the buffer is ever faulted in, so of its 8 n^2 B
        # at most 4 n^2 + 4 KiB per row are resident (the diagonal tiles
        # whole, and each row's first page in part), with 64 KiB of slack.
        # cantor_p15 is solved at orders 1024 and 2048, cantor_p2 at
        # level 11 as two mirror blocks of 1024 in one buffer
        cfg = load_config(CONFIG_DIR / f"{config}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffTailWarning)
            op = _assemble(cfg, _build_measure(cfg, level))
        resident, real_certified = [], spectral_report._certified_pairs

        def certified(block, gather):
            out = real_certified(block, gather)
            resident.append((block.shape[0], mapping_rss(block)))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral_report, "_certified_pairs", certified)
            eigen_spectrum(op)
        split = isinstance(op, MirrorBlocks)
        assert [n for n, _ in resident] == ([1024, 1024] if split else [2**level])
        size, slack = op.lo.shape[0], 2**16
        assert size == 256
        for n, got in resident:
            assert got <= triangle_pages(n, size) + slack <= 4 * n * n + 4096 * n + slack
            assert got < 8 * n * n
        if split:
            assert resident[0] == resident[1]

    @pytest.mark.parametrize(
        "case",
        ["identity", "split", "multiplicity-50", "rank-one", "negative", "n1", "n2", "zero"],
    )
    def test_dstein_path_certifies_hard_spectra(self, case):
        # dstein takes T as one block, with no split found by a bisection,
        # so it meets the exact zeros of e, clusters and repeated values
        rng = np.random.default_rng(67)
        if case == "identity":
            mat = np.eye(100)
        elif case == "split":  # its reduction has an exact zero in e
            mat = scipy.linalg.block_diag(*(random_symmetric(rng, k) for k in (30, 40, 30)))
        elif case == "multiplicity-50":  # 8 values, each 50 times, at n = 400
            q, _ = np.linalg.qr(rng.standard_normal((400, 400)))
            mat = (q * np.repeat(np.arange(1.0, 9.0), 50)) @ q.T
        elif case == "rank-one":
            v = rng.standard_normal(200)
            mat = np.multiply.outer(v, v)
        elif case == "negative":
            mat = random_symmetric(rng, 120) - 30.0 * np.eye(120)
        elif case == "n1":
            mat = np.array([[-3.0]])
        elif case == "n2":
            mat = np.array([[1.0, 2.0], [2.0, 1.0]])
        else:
            mat = np.zeros((50, 50))
        mat = np.tril(mat) + np.tril(mat, -1).T  # bitwise symmetric
        if case == "split":
            e = scipy.linalg.lapack.dsytrd(mat.copy())[2]
            assert np.count_nonzero(e == 0.0) >= 2
        w, res = certify(operator(mat))
        _, top, _ = spectral_report._top_pairs(mat.copy())
        ref = np.linalg.eigvalsh(mat)
        norm = float(np.abs(ref).max())
        assert top.size == res.size == min(50, len(mat))
        assert np.all(res <= 1e-13 * norm)
        assert np.allclose(w, ref, rtol=0.0, atol=1e-13 * norm)
        values = eigen_spectrum(operator(mat))
        assert np.allclose(values, order_by_modulus(ref), rtol=0.0, atol=1e-13 * norm)

    @pytest.mark.parametrize("n, tiles", [(1, 1), (5, 5), (300, 3), (777, 7)])
    def test_hand_built_gather_is_its_matrix_at_any_tiling(self, n, tiles):
        # every hand-built case here goes through operator(): one tile holds
        # the matrix itself as its table, more tiles a reordered copy, and
        # either way the gather is the matrix bit for bit, in a new buffer,
        # solved at full size to the same eigenvalue bits
        mat = random_symmetric(np.random.default_rng(79), n)
        whole, tiled = operator(mat), operator(mat, tiles=tiles)
        assert np.shares_memory(whole.table, mat)
        assert tiled.order == n and tiled.hi.shape == (tiles, tiles)
        for op in (whole, tiled):
            K = op.dense()
            assert not np.shares_memory(K, mat)
            assert_gathers(K, mat)
        with eigensolve_calls() as calls:
            values = eigen_spectrum(tiled)
        assert_block_solves(calls, [n])
        assert_bitwise_equal(values, eigen_spectrum(whole))
        ref = order_by_modulus(np.linalg.eigvalsh(mat))
        assert np.allclose(values, ref, rtol=0.0, atol=1e-13 * abs(ref[0]))

    def test_one_operator_solved_from_two_threads_at_once(self, cantor_ifs):
        # nothing is written into an operator: each solve gathers into a
        # buffer of its own, so concurrent solves of one
        # operator agree with a serial one bit for bit and leave it as it was
        cfg = load_config(CONFIG_DIR / "cantor_p15.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffTailWarning)
            modulated = _assemble(cfg, _build_measure(cfg, 8))
        kernel = assemble_dmu_kernel(quadrature(cantor_ifs, 8), 0.45)
        hand_built = operator(random_symmetric(np.random.default_rng(71), 256))
        assert isinstance(kernel, MirrorBlocks)
        assert type(modulated) is PairGather and modulated.r is not None
        for op in (kernel, modulated, hand_built):
            keep = [a.copy() for a in held_arrays(op)]
            serial = eigen_spectrum(op)
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(eigen_spectrum, [op] * 4))
            for res in results:
                assert_bitwise_equal(res, serial)
            for a, b in zip(held_arrays(op), keep):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", ["separable_demo-cantor_p15", "odd-m-kernel"])
    def test_assembly_allocates_no_n_squared_array(self, case):
        # an assembled operator holds its table, code factors and r only;
        # the smallest N x N array an assembly ever built, the int32 pair
        # codes, is 4 N^2 B, and the float64 matrix 8 N^2 B
        if case == "odd-m-kernel":
            mu = quadrature(build_cantor_like(*THREE_MAPS), 7)

            def build():
                return assemble_dmu_kernel(mu, 0.45)

        else:
            cfg = load_config(CONFIG_DIR / "cantor_p15.json")
            mu = _build_measure(cfg, 11)

            def build():
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", CutoffTailWarning)
                    return _assemble(cfg, mu)

        build()  # warm-up: imports and first-call caches
        tracemalloc.start()
        try:
            op = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = mu.n_atoms
        assert type(op) is PairGather
        assert peak < 4 * n * n, f"assembly peaked at {peak} B, 4 N^2 = {4 * n * n} B"

    @pytest.mark.parametrize("case", ["cantor_p2", "cantor_p15", "odd-m-kernel", "hand-built"])
    def test_solve_grows_by_one_buffer_and_a_few_n_by_50_arrays(self, case):
        # the solve's one buffer of order h (N/2 for mirror blocks, else N),
        # off the traced heap, four arrays of h x 50 (the vectors, dormqr's
        # copy, the residual), and the gather's tile and strip temporaries,
        # under 1 MiB; resident, the buffer and the same arrays
        if case == "odd-m-kernel":
            op = assemble_dmu_kernel(quadrature(build_cantor_like(*THREE_MAPS), 6), 0.45)
        elif case == "hand-built":  # seven by seven tiles of order 100
            op = operator(random_symmetric(np.random.default_rng(73), 700), tiles=7)
        else:
            cfg = load_config(CONFIG_DIR / f"{case}.json")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CutoffTailWarning)
                op = _assemble(cfg, _build_measure(cfg, 10))
        h = op.order // (2 if isinstance(op, MirrorBlocks) else 1)
        eigen_spectrum(op)  # warm-up: imports and LAPACK wrappers
        made, grown = [], []
        real_certified = spectral_report._certified_pairs
        real_buffer = fractal_operator._solve_buffer

        def certified(block, gather):
            out = real_certified(block, gather)
            grown.append(rss_anon() - rss)
            return out

        def buffer(n):
            made.append(n)
            return real_buffer(n)

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral_report, "_certified_pairs", certified)
                mp.setattr(fractal_operator, "_solve_buffer", buffer)
                held, rss = tracemalloc.get_traced_memory()[0], rss_anon()
                eigen_spectrum(op)
            growth = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert made == [h]
        bound = 4 * 8 * h * 50 + 2**20
        assert growth < bound, f"solve grew {growth} B over a bound of {bound} B"
        bound += 8 * h * h
        assert max(grown) < bound, f"RssAnon grew {max(grown)} B over a bound of {bound} B"

class TestKernelMirrorBlocks:
    """The kernel operator held as its two mirror blocks, against the dense K
    the test gathers in full (``dense_kernel``)."""

    @pytest.mark.parametrize("level", range(1, 12))
    def test_cantor_p2_blocks_spectrum_and_residuals_match_the_dense_path(
        self, cantor_ifs, level
    ):
        # the cantor_p2 geometry and smoothness, 2s = 0.9
        mu = quadrature(cantor_ifs, level)
        op = assemble_dmu_kernel(mu, 0.45)
        K = dense_kernel(mu, 0.45)
        assert_operator_is(op, K)  # every entry of A +- B J, bitwise
        values = eigen_spectrum(op)
        assert np.array_equal(values, split_eigvalsh(K))
        # the per-block residual is the residual of the lifted vector
        # [u; +-J u] / sqrt(2) against K, for the eigenvectors and for
        # vectors that are not, up to the rounding of a length-N product
        n = K.shape[0]
        atol = n * np.finfo(float).eps * float(np.abs(values).max())
        rng = np.random.default_rng(level)
        for sign in (1, -1):
            block = mirror_block(K, sign)
            _, res = certify(op, sign)
            _, top, u = spectral_report._top_pairs(op.block(sign))

            def lift(v):
                return np.vstack([v, sign * v[::-1]]) / math.sqrt(2.0)

            def residual(mat, v):
                return np.linalg.norm(mat @ v - v * top, axis=0)

            assert np.allclose(res, residual(K, lift(u)), rtol=0.0, atol=atol)
            v = u + 1e-6 * rng.standard_normal(u.shape)
            assert np.allclose(residual(block, v), residual(K, lift(v)), rtol=0.0, atol=atol)

    @pytest.mark.parametrize(
        "geometry, level, s, assembly, split",
        [
            (THREE_MAPS, 4, 0.45, "kernel", False),  # odd m, odd N
            (LOPSIDED_FOUR_MAPS, 3, 0.45, "kernel", False),  # even m, digits fail the test
            (SYMMETRIC_DUST, 3, 0.75, "kernel", True),  # m = 4: (m/2)^2 sub-gathers per block
            (LOPSIDED_FOUR_MAPS, 3, 0.45, "bessel_power", False),
            (SYMMETRIC_FOUR_MAPS, 3, 0.45, "bessel_power", True),  # Galerkin is 1-D only
        ],
        ids=[
            "three-maps",
            "lopsided-four-maps",
            "symmetric-dust",
            "bessel_power-lopsided-four-maps",
            "bessel_power-symmetric-four-maps",
        ],
    )
    def test_the_digit_test_decides_the_split(self, geometry, level, s, assembly, split):
        mu = quadrature(build_cantor_like(*geometry), level)
        if assembly == "kernel":
            op = assemble_dmu_kernel(mu, s)
            K = dense_kernel(mu, s)
        else:  # the Galerkin compression of an x-independent symbol
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CutoffTailWarning)
                op = assemble_tmu_galerkin(make_symbol(assembly, sigma=-2.0 * s), s, 2.0, mu, 1.0e5)
            K = held_matrix(op, mu)
        assert isinstance(op, MirrorBlocks) == split
        assert_operator_is(op, K)
        with eigensolve_calls() as calls:
            values = eigen_spectrum(op)  # certified, or it raises
        n = mu.n_atoms
        assert_block_solves(calls, [n // 2, n // 2] if split else [n])
        if split:
            assert np.array_equal(values, split_eigvalsh(K))
        else:
            assert np.array_equal(values, order_by_modulus(scipy.linalg.eigh(K, eigvals_only=True)))

    @pytest.mark.parametrize("assembly", ["kernel", "x-independent-galerkin"])
    def test_kernel_solve_never_holds_an_n_by_n_array(self, cantor_ifs, assembly):
        # K in float64 is 8 N^2 bytes; the mirror path holds two small code
        # factors and one block, which is reduced in place
        mu = quadrature(cantor_ifs, 10)
        n = mu.n_atoms
        if assembly == "kernel":
            tracemalloc.start()
            try:
                eigen_spectrum(assemble_dmu_kernel(mu, 0.45))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * n * n, f"peak {peak} B reaches 8 N^2 = {8 * n * n} B"
            return
        # the Galerkin assembly peaks in its profile quadrature, whose chunk
        # is set by the cutoff, not by N; so what the operator holds once
        # assembled is measured, then the peak of its solve
        sym = make_symbol("bessel_power", sigma=-0.9)
        assemble_tmu_galerkin(sym, 0.45, 2.0, quadrature(cantor_ifs, 3), 1.0e5)  # warm-up
        tracemalloc.start()
        try:
            op = assemble_tmu_galerkin(sym, 0.45, 2.0, mu, 1.0e5)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            eigen_spectrum(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 8 * n * n, f"the operator holds {held} B, 8 N^2 = {8 * n * n} B"
        assert peak < 8 * n * n, f"solve peak {peak} B reaches 8 N^2 = {8 * n * n} B"


class TestTheoreticalExponents:
    def test_cantor_hilbert_rate(self):
        val = theoretical_exponent(1, D_CANTOR, 0.45, 2.0)
        assert val == pytest.approx(-0.8415037499278844, abs=1e-9)

    def test_upper_boundary_gives_minus_one(self):
        assert theoretical_exponent(1, D_CANTOR, 0.5, 2.0) == -1.0

    def test_cantor_p15_rate(self):
        val = theoretical_exponent(1, D_CANTOR, 0.8 / 1.5, 1.5)
        assert val == pytest.approx(-0.6830074998557688, abs=1e-9)

    def test_snumber_rate(self):
        val = theoretical_snumber_exponent(1, D_CANTOR, 0.45, 2.0)
        assert val == pytest.approx(-0.4207518749639422, abs=1e-9)

    def test_snumber_boundary_collapses_to_minus_inverse_p(self):
        assert theoretical_snumber_exponent(1, D_CANTOR, 0.5, 2.0) == -0.5

    def test_snumber_rate_is_half_the_eigen_rate_at_p_two(self):
        half = theoretical_exponent(1, D_CANTOR, 0.45, 2.0) / 2.0
        assert theoretical_snumber_exponent(1, D_CANTOR, 0.45, 2.0) == pytest.approx(
            half, abs=1e-12
        )

    @pytest.mark.parametrize(
        "n, d, s, p",
        [
            (1, D_CANTOR, 0.18, 2.0),  # s*p below n - d
            (1, D_CANTOR, 0.60, 2.0),  # s*p above n
            (1, 1.2, 0.45, 2.0),  # dimension outside (0, n)
            (1, D_CANTOR, 0.45, -1.0),  # nonpositive integrability
        ],
    )
    def test_window_violations(self, n, d, s, p):
        with pytest.raises(WindowViolationError):
            theoretical_exponent(n, d, s, p)
        with pytest.raises(WindowViolationError):
            theoretical_snumber_exponent(n, d, s, p)


class TestFitDecayExponent:
    def test_exact_power_law_recovered(self):
        fit = fit_decay_exponent(power_law(1000, 0.8415))
        assert fit.k_lo == 10 and fit.k_hi == 200
        assert fit.slope == pytest.approx(-0.8415, abs=1e-9)
        assert abs(fit.intercept) < 1e-9
        assert fit.residual < 1e-12
        assert fit.kind == "least-squares" and fit.quantile is None

    def test_default_window_caps_at_400(self):
        fit = fit_decay_exponent(power_law(3000, 0.5))
        assert fit.k_hi == 400

    def test_explicit_window_clipped_to_count(self):
        fit = fit_decay_exponent(power_law(150, 0.5), k_hi=200)
        assert fit.k_hi == 150

    def test_perturbed_power_law_within_centiband(self):
        k = np.arange(1, 1001, dtype=float)
        vals = 3.7 * k**-0.8415 * (1.0 + 0.05 * (-1.0) ** np.arange(1, 1001))
        fit = fit_decay_exponent(vals)
        assert fit.slope == pytest.approx(-0.8415, abs=0.01)
        assert fit.intercept == pytest.approx(math.log(3.7), abs=0.05)

    def test_alternating_signs_fit_the_moduli(self):
        k = np.arange(1, 501, dtype=float)
        signed = (-1.0) ** np.arange(1, 501) * k**-0.8
        assert fit_decay_exponent(signed).slope == fit_decay_exponent(k**-0.8).slope

    def test_too_few_values(self):
        with pytest.raises(InsufficientSpectrumError, match="at least 30"):
            fit_decay_exponent(power_law(20, 0.5))

    def test_relative_dust_does_not_count_as_spectrum(self):
        vals = np.concatenate([power_law(25, 0.5), np.full(100, 1e-20)])
        with pytest.raises(InsufficientSpectrumError, match="at least 30"):
            fit_decay_exponent(vals)

    def test_degenerate_default_window(self):
        # 40 nonzero values put the default upper edge at 8, below k_lo = 10
        with pytest.raises(InsufficientSpectrumError, match="fewer than 5"):
            fit_decay_exponent(power_law(40, 0.5))

    def test_window_start_must_be_positive(self):
        with pytest.raises(ValueError, match="rank 1"):
            fit_decay_exponent(power_law(1000, 0.5), k_lo=0)

    @given(
        st.floats(0.3, 1.5),
        st.floats(-4.0, 4.0),
    )
    def test_power_law_recovery_property(self, exponent, log_scale):
        vals = power_law(400, exponent, scale=math.exp(log_scale))
        fit = fit_decay_exponent(vals)
        assert fit.slope == pytest.approx(-exponent, abs=1e-6)
        assert fit.intercept == pytest.approx(log_scale, abs=1e-6)

    @given(st.floats(1e-3, 1e3), st.integers(0, 10**6))
    def test_scaling_moves_only_the_intercept(self, scale, seed):
        rng = np.random.default_rng(seed)
        k = np.arange(1, 301, dtype=float)
        vals = k**-0.7 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 300))
        base = fit_decay_exponent(vals)
        scaled = fit_decay_exponent(scale * vals)
        assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
        assert scaled.intercept - base.intercept == pytest.approx(
            math.log(scale), abs=1e-9
        )
        assert np.allclose(
            order_by_modulus(scale * vals), scale * order_by_modulus(vals)
        )


def pinball_loss(x, y, quantile, intercept, slope) -> float:
    u = y - (intercept + slope * x)
    return float(np.sum(np.where(u > 0.0, quantile * u, (quantile - 1.0) * u)))


def highs_envelope(x, y, quantile) -> tuple[float, float]:
    """The intercept and slope that ``linprog(method="highs")`` gives for the
    pinball-loss linear program: variables intercept, slope, the above-line
    excess u >= 0 and the below-line slack v >= 0, with ``a + b x + u - v =
    y``."""
    m = x.size
    cost = np.concatenate([[0.0, 0.0], np.full(m, quantile), np.full(m, 1.0 - quantile)])
    a_eq = np.hstack([np.ones((m, 1)), x[:, None], np.eye(m), -np.eye(m)])
    bounds = [(None, None)] * 2 + [(0.0, None)] * (2 * m)
    result = linprog(cost, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    assert result.success, result.message
    return float(result.x[0]), float(result.x[1])


def assert_envelope_is_the_lp_optimum(values, k_lo: int, k_hi: int) -> None:
    """The envelope's pinball loss is HiGHS's or lower, up to 1e-12
    relative, and its slope is HiGHS's to 1e-12 relative."""
    fit = fit_upper_envelope(values, k_lo=k_lo, k_hi=k_hi)
    _, _, x, y = spectral_report._window_logs(values, k_lo, k_hi)
    intercept, slope = highs_envelope(x, y, 0.95)
    ours = pinball_loss(x, y, 0.95, fit.intercept, fit.slope)
    assert ours <= pinball_loss(x, y, 0.95, intercept, slope) * (1.0 + 1e-12)
    assert fit.residual == pytest.approx(ours / x.size, rel=1e-12)
    assert fit.slope == pytest.approx(slope, rel=1e-12, abs=0.0)


class TestUpperEnvelope:
    @given(
        st.integers(5, 391),
        st.integers(0, 2**32 - 1),
        st.floats(0.3, 1.5),
        st.floats(0.05, 1.0),
    )
    def test_envelope_is_the_lp_optimum_on_power_law_clouds(self, m, seed, exponent, noise):
        # m window points [10, m + 9] of a noisy power law, sorted as the fit sorts them
        k = np.arange(1, max(m + 9, 30) + 1, dtype=float)
        jitter = np.random.default_rng(seed).uniform(0.0, 1.0, k.size)
        assert_envelope_is_the_lp_optimum(k**-exponent * np.exp(-noise * jitter), 10, m + 9)

    @pytest.mark.parametrize("level", [8, 11])
    def test_envelope_is_the_lp_optimum_on_the_general_exponent_spectrum(self, level):
        config = load_config(CONFIG_DIR / "cantor_p15.json")
        values = eigen_spectrum(_assemble(config, _build_measure(config, level)))
        assert_envelope_is_the_lp_optimum(values, config.fit.k_lo, config.fit.k_hi)

    def test_exact_power_law_envelope_equals_line(self):
        fit = fit_upper_envelope(power_law(500, 0.9))
        assert fit.kind == "quantile-envelope" and fit.quantile == 0.95
        assert fit.slope == pytest.approx(-0.9, abs=1e-8)
        assert abs(fit.intercept) < 1e-8
        assert fit.residual < 1e-10

    def test_envelope_sits_above_downward_noise(self):
        rng = np.random.default_rng(7)
        k = np.arange(1, 501, dtype=float)
        vals = np.exp(-0.8 * np.log(k) - 0.5 * rng.uniform(0.0, 1.0, 500))
        env = fit_upper_envelope(vals)
        ls = fit_decay_exponent(vals)
        assert env.slope == pytest.approx(-0.8, abs=0.08)
        assert env.intercept > ls.intercept
        # at the 0.95 quantile only a ~5 percent sliver may exceed the line
        mods = np.abs(nonzero_part(vals))
        x = np.log(np.arange(env.k_lo, env.k_hi + 1, dtype=float))
        y = np.log(mods[env.k_lo - 1 : env.k_hi])
        above = int(np.count_nonzero(y > env.intercept + env.slope * x + 1e-9))
        assert above <= math.ceil(0.05 * x.size) + 1

    def test_quantile_validation(self):
        with pytest.raises(ValueError, match="quantile"):
            fit_upper_envelope(power_law(500, 0.9), quantile=1.0)

    def test_insufficient_spectrum_shares_the_precondition(self):
        with pytest.raises(InsufficientSpectrumError):
            fit_upper_envelope(power_law(20, 0.9))

    @given(st.floats(0.3, 1.5))
    def test_envelope_matches_least_squares_on_pure_power_laws(self, exponent):
        vals = power_law(400, exponent)
        env = fit_upper_envelope(vals)
        ls = fit_decay_exponent(vals)
        assert env.slope == pytest.approx(ls.slope, abs=1e-6)


class TestAssessDecay:
    def test_two_sided_pass(self):
        rep = assess_decay(
            power_law(1000, 0.8415),
            theoretical=-0.8415037499278844,
            tolerance=0.08,
            provenance={"stage": "unit-test"},
        )
        assert rep.passed and rep.verdict == "PASS"
        assert rep.comparison == "two-sided"
        assert rep.count == 1000 and rep.n_zero == 0
        assert rep.provenance == {"stage": "unit-test"}

    def test_two_sided_fail(self):
        rep = assess_decay(power_law(1000, 0.5), theoretical=-0.8415, tolerance=0.08)
        assert not rep.passed and rep.verdict == "FAIL"

    def test_upper_comparison_accepts_faster_decay(self):
        rep = assess_decay(
            power_law(1000, 0.9),
            theoretical=-0.6830074998557688,
            tolerance=0.08,
            comparison="upper",
        )
        assert rep.passed
        assert rep.fit.kind == "quantile-envelope"

    def test_upper_comparison_rejects_slower_decay(self):
        rep = assess_decay(
            power_law(1000, 0.5),
            theoretical=-0.6830074998557688,
            tolerance=0.08,
            comparison="upper",
        )
        assert not rep.passed

    def test_unknown_comparison(self):
        with pytest.raises(ValueError, match="comparison"):
            assess_decay(power_law(1000, 0.9), theoretical=-1.0, tolerance=0.1,
                         comparison="lower")

    def test_as_dict_is_json_ready(self):
        rep = assess_decay(
            power_law(1000, 0.8415), theoretical=-0.8415, tolerance=0.08
        )
        payload = rep.as_dict()
        text = json.dumps(payload, sort_keys=True)
        assert '"verdict": "PASS"' in text
        assert payload["window"] == [10, 200]
        assert payload["exponents"]["theoretical"] == -0.8415
        assert payload["fit_kind"] == "least-squares"


class TestSpectrumReportInvariants:
    @staticmethod
    def _fit(slope: float = -1.0) -> DecayFit:
        return DecayFit(1, 2, slope, 0.0, 0.0)

    def test_rejects_misordered_eigenvalues(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            SpectrumReport(
                eigenvalues=np.array([1.0, 2.0], dtype=complex),
                fit=self._fit(),
                theoretical=-1.0,
                tolerance=0.1,
                comparison="two-sided",
            )

    def test_rejects_window_outside_count(self):
        with pytest.raises(ValueError, match="inside"):
            SpectrumReport(
                eigenvalues=np.array([2.0, 1.0], dtype=complex),
                fit=DecayFit(1, 5, -1.0, 0.0, 0.0),
                theoretical=-1.0,
                tolerance=0.1,
                comparison="two-sided",
            )

    def test_rejects_empty_spectrum(self):
        with pytest.raises(ValueError, match="at least one"):
            SpectrumReport(
                eigenvalues=np.zeros(0, dtype=complex),
                fit=self._fit(),
                theoretical=-1.0,
                tolerance=0.1,
                comparison="two-sided",
            )

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            SpectrumReport(
                eigenvalues=np.array([2.0, 1.0], dtype=complex),
                fit=self._fit(),
                theoretical=-1.0,
                tolerance=-0.1,
                comparison="two-sided",
            )

    def test_rejects_unknown_comparison(self):
        with pytest.raises(ValueError, match="comparison"):
            SpectrumReport(
                eigenvalues=np.array([2.0, 1.0], dtype=complex),
                fit=self._fit(),
                theoretical=-1.0,
                tolerance=0.1,
                comparison="sideways",
            )

    def test_decay_fit_window_must_increase(self):
        with pytest.raises(ValueError, match="not increasing"):
            DecayFit(5, 5, -1.0, 0.0, 0.0)

    def test_default_upper_edge_is_the_float_one_in_integers(self):
        # min(count // 5, 400) is int(min(0.2 count, 400.0)) at every count
        # a float holds, and resolves a count too large for one
        for count in [*range(30, 5000), 10**6, 2**53]:
            assert spectral_report._fit_window(count, 1, None) == (
                1, int(min(0.2 * count, 400.0))
            )
        assert spectral_report._fit_window(2**2000, 10, None) == (10, 400)

    def test_n_zero_counts_the_dropped_tail(self):
        vals = np.concatenate([power_law(40, 0.5), np.full(3, 1e-20)])
        rep = assess_decay(
            order_by_modulus(vals),
            theoretical=-0.5,
            tolerance=0.1,
            k_lo=2,
            k_hi=40,
        )
        assert rep.count == 43 and rep.n_zero == 3


class TestSnumberExponentCheck:
    def test_transference_halves_the_eigenvalue_slope(self, measure_l7):
        # singular values squared are the kernel-matrix eigenvalues, so on a
        # shared window the fitted slope is exactly half
        rep = snumber_exponent_check(
            measure_l7, 0.45, k_lo=10, k_hi=25, tolerance=0.5
        )
        op = assemble_dmu_kernel(measure_l7, 0.45)
        eig_fit = fit_decay_exponent(eigen_spectrum(op), k_lo=10, k_hi=25)
        assert rep.fit.slope == pytest.approx(eig_fit.slope / 2.0, abs=1e-6)
        assert rep.passed
        assert rep.comparison == "two-sided"
        assert rep.theoretical == pytest.approx(-0.4207518749639422, abs=1e-9)
        assert rep.provenance["quantity"] == "approximation-numbers"
        assert rep.provenance["assembly"]["kind"] == "kernel-gram"
        assert np.all(rep.eigenvalues.imag == 0.0)
        assert np.all(rep.eigenvalues.real >= 0.0)

    def test_kernel_route_is_dimension_general(self):
        ifs2 = build_cantor_like(
            2, 4, 0.25, [[0.0, 0.0], [0.0, 0.75], [0.75, 0.0], [0.75, 0.75]]
        )
        rep = snumber_exponent_check(
            quadrature(ifs2, 3), 0.75, k_lo=2, k_hi=40, tolerance=1.0
        )
        a = rep.eigenvalues.real
        assert a.size == 64
        assert np.all(np.isfinite(a)) and np.all(a >= 0.0)
        assert rep.theoretical == -0.25
