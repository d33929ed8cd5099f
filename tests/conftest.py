import math

import hypothesis
import numpy as np
import pytest

from fracspectra.fractal_measure import _pair_codes, _pair_digits
from fracspectra.fractal_operator import BesselKernel, MirrorBlocks, cell_pair_energy
from fracspectra.psido_engine import Symbol

hypothesis.settings.register_profile(
    "default",
    max_examples=40,
    derandomize=True,
    deadline=None,
)
hypothesis.settings.register_profile(
    "fast",
    max_examples=8,
    derandomize=True,
    deadline=None,
)
hypothesis.settings.load_profile("default")


def one_shot_distances(ifs, level: int) -> np.ndarray:
    """The ``D^level`` pair distances indexed by code, from the whole
    difference array built one digit at a time: the recursion that the
    chunked ``fractal_measure._folded_table``, and so ``_pair_distances``,
    must reproduce bit for bit."""
    deltas, _ = _pair_digits(ifs)
    diff = np.zeros((1, ifs.ambient_dim))
    for _ in range(level):
        diff = (deltas[:, None, :] + ifs.ratio * diff[None, :, :]).reshape(-1, ifs.ambient_dim)
    return np.linalg.norm(diff, axis=1)


def one_shot_table(dist: np.ndarray, radial, centre: float) -> np.ndarray:
    """``radial`` on the first half of the palindromic ``dist`` in one call,
    mirrored, with ``centre`` at the coincident code: the oracle of
    ``fractal_measure._folded_table``."""
    mid = dist.size // 2
    table = np.empty(dist.size)
    table[:mid] = radial(dist[:mid])
    table[mid] = centre
    table[mid + 1 :] = table[:mid][::-1]
    return table


def dense_kernel(mu, s: float) -> np.ndarray:
    """The N x N kernel Gram matrix K of ``assemble_dmu_kernel(mu, s)``,
    gathered in full: the folded kernel table at every level-L pair code."""
    n = mu.ifs.ambient_dim
    kernel = BesselKernel(order=2.0 * s, ambient_dim=n)
    conv, w = (2.0 * math.pi) ** (-n / 2.0), mu.weight
    energy, _ = cell_pair_energy(mu, kernel)
    dist = one_shot_distances(mu.ifs, mu.level)
    table = one_shot_table(dist, lambda rho: conv * w * kernel(rho), conv * energy / w)
    return table[_pair_codes(mu.ifs, mu.level)]


def held_matrix(op, mu) -> np.ndarray:
    """The N x N matrix K that ``op``, assembled on ``mu``, stands for, bit
    for bit: its table gathered at every level-L pair code, times ``r_j
    r_k`` where it has ``r``.  The one place a test materialises an
    assembled operator."""
    K = op.table[_pair_codes(mu.ifs, mu.level)]
    return K if op.r is None else K * np.multiply.outer(op.r, op.r)


def assert_gathers(got: np.ndarray, K: np.ndarray) -> None:
    """``got``, gathered into a solve buffer, holds the upper triangle of K
    bit for bit, the triangle the reduction reads, and K is bitwise its own
    transpose, so that triangle is all of it."""
    assert got.shape == K.shape and got.dtype == K.dtype and got.flags.c_contiguous
    assert np.array_equal(K.view(np.uint64), K.T.view(np.uint64))
    upper = np.triu_indices(K.shape[0])
    assert np.array_equal(got[upper].view(np.uint64), K[upper].view(np.uint64))


def assert_operator_is(op, K: np.ndarray) -> None:
    """``op`` holds exactly ``K``: as the gather of its code factors, or as
    the two mirror blocks ``K[:h, :h] +- K[:h, h:][:, ::-1]``, every entry
    of the gathered upper triangle bitwise (:func:`assert_gathers`)."""
    assert (op.order, op.order) == K.shape
    if not isinstance(op, MirrorBlocks):
        assert_gathers(op.dense(), K)
        return
    assert np.array_equal(K, K[::-1, ::-1])
    h = K.shape[0] // 2
    a, bj = K[:h, :h], K[:h, h:][:, ::-1]
    assert_gathers(op.block(1), a + bj)
    assert_gathers(op.block(-1), a - bj)


@pytest.fixture
def dyadic_shell_symbol():
    """Factory for a complex, x-dependent symbol of true type delta = 1.

    It sums exp(i 2^j x) * exp(-(log2|xi| - j)^2) over j = 0..6: spatial
    oscillations at dyadic frequencies, each under a log-scale Gaussian
    window on its own octave.  Its derivative bounds hold only with a full
    unit loss per spatial derivative, and its seven spatial factors are
    distinct and complex, so no catalog symbol can stand in for it.  Its
    windows are not bracket powers, so it is an evaluator alone, which is
    all the derivative probes read.
    """

    def evaluator(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
        r = np.sqrt(np.sum(xi**2, axis=-1))
        lr = np.full(r.shape, -100.0)
        np.log2(r, out=lr, where=r > 0)
        acc = np.zeros(np.broadcast_shapes(x.shape, xi.shape)[:-1], dtype=complex)
        for j in range(7):
            acc = acc + np.exp(1j * 2.0**j * x[..., 0]) * np.exp(-((lr - j) ** 2))
        return acc

    def build(order: float = 0.0, type_delta: float = 1.0) -> Symbol:
        return Symbol(
            name="dyadic_shells", evaluator=evaluator, order=order, type_delta=type_delta
        )

    return build


def coupled_phase_symbol() -> Symbol:
    """A symbol with no separable terms whose x and xi dependence is coupled:
    ``exp(i x xi / <xi>) <xi>^(-0.8)``, ``<xi> = (1 + xi^2)^(1/2)``.  Its
    evaluator multiplies x by xi, so it only works on broadcast arguments."""

    def evaluator(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        bracket = np.sqrt(1.0 + np.sum(xi**2, axis=-1))
        phase = np.sum(x * xi, axis=-1) / bracket
        return np.exp(1j * phase) * bracket**-0.8

    return Symbol(name="coupled_phase", evaluator=evaluator, order=-0.8)
