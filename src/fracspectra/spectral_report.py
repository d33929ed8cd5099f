"""Spectra of discretized operators and their decay-rate verdicts.

This module turns an assembled operator into an eigenvalue sequence
ordered by decreasing modulus, fits the power-law decay of that sequence on
a rank window, and compares the fitted exponent against the rate predicted
by the smoothness order and the dimension of the supporting set:

* kernel operator eigenvalues decay like ``k ** (-1 + (n - s*p)/d)``,
* approximation numbers of the restriction map decay like
  ``k ** (-1/p + (n/p - s)/d)``.

``eigen_spectrum`` solves an assembled operator, the
:class:`~fracspectra.fractal_operator.PairGather` that every assembly
builds real symmetric, and returns its real spectrum as float64.
It owns the only N x N buffer of a run and writes one triangle of it: it
gathers the operator's upper triangle into it, the one triangle that the
tridiagonal reduction reads, and one reduction per block, in that buffer,
gives the whole spectrum and the block's 50 eigenpairs of largest modulus,
each certified by its residual against the operator gathered again, a
strip of rows at a time.  Only the buffer's written pages are resident,
about ``4 N^2 + 4096 N`` bytes of its ``8 N^2``.  An operator held as
mirror blocks (a kernel Gram operator, or the Galerkin compression of an
x-independent symbol, on a digit-mirror-symmetric set, as every bundled
IFS is) is solved as its two half-size blocks in turn, in one buffer;
every other at full size.  No
solve writes an operator, so one may be solved from several threads at
once.  The whole solve, the certificate's product included, runs on
scipy's OpenBLAS, through the LAPACK and BLAS wrappers of its compiled
``_flapack`` and ``_fblas`` modules, loaded without the ``scipy.linalg``
package (:mod:`fracspectra._native`): numpy loads a second OpenBLAS, whose
idle worker threads would compete for the cores with the next reduction
(:func:`_certified_pairs`).

Two-sided checks use ordinary least squares on ``log |lambda_k|`` versus
``log k``.  Checks of genuinely one-sided bounds instead fit an upper
envelope through the point cloud by quantile regression, so oscillating
spectra below the envelope never produce spurious failures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._native import native
from .fractal_measure import FractalMeasure
from .fractal_operator import (
    MirrorBlocks,
    PairGather,
    PsdViolationWarning,
    _check_rate_window,
    assemble_dmu_kernel,
)

__all__ = [
    "ZERO_REL",
    "InsufficientSpectrumError",
    "DecayFit",
    "SpectrumReport",
    "order_by_modulus",
    "nonzero_part",
    "eigen_spectrum",
    "theoretical_exponent",
    "theoretical_snumber_exponent",
    "fit_decay_exponent",
    "fit_upper_envelope",
    "assess_decay",
    "snumber_exponent_check",
]

ZERO_REL = 1e-12
"""Relative floor: moduli at or below ``ZERO_REL * |lambda_1|`` count as zero."""

RESIDUAL_REL = 1e-8
"""Residual certificate of the symmetric eigensolve: every eigenpair it
computes, each block's up to 50 of largest modulus (which contain the
operator's top 50), must have ``||K v - lambda v|| <= RESIDUAL_REL * ||K||``."""

_STRIP_BYTES = 2**18  # the residual's strip of rows of K, at most, unless
_STRIPS = 32  # that would take more strips per block than this


class InsufficientSpectrumError(ValueError):
    """Raised when too few nonzero values remain to fit a decay law."""


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


def order_by_modulus(values) -> np.ndarray:
    """Sort values by decreasing modulus with a deterministic tie-break.

    Real input is returned as float64 and complex input as complex128.  Ties
    in modulus are broken by decreasing real part, then by decreasing
    imaginary part, so conjugate pairs always appear with the positive
    imaginary part first and reruns produce identical orderings.
    """
    vals = np.asarray(values, complex if np.iscomplexobj(values) else float).ravel()
    if vals.size == 0:
        return vals
    if not np.all(np.isfinite(vals)):
        raise ValueError("cannot order non-finite eigenvalues")
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    return vals[order]


def nonzero_part(values) -> np.ndarray:
    """Ordered values with the near-zero tail dropped.

    Values of modulus at most ``ZERO_REL`` times the largest modulus are
    treated as zeros of a finite-rank remainder and removed; the zero
    sequence itself yields an empty array.
    """
    ordered = order_by_modulus(values)
    if ordered.size == 0:
        return ordered
    mods = np.abs(ordered)
    if mods[0] == 0.0:
        return ordered[:0]
    return ordered[mods > ZERO_REL * mods[0]]


# ---------------------------------------------------------------------------
# Eigensolve
# ---------------------------------------------------------------------------


def _lapack(routine, *args, **kwargs) -> list:
    """Outputs of a raw LAPACK wrapper, less its ``info``; a nonzero ``info``
    raises :class:`numpy.linalg.LinAlgError`, the class
    ``scipy.linalg.LinAlgError`` names too."""
    *out, info = routine(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} returned info = {info}")
    return out


def _top_pairs(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending eigenvalues of real symmetric ``block``, then its up to 50 of
    largest modulus and their eigenvectors, from one tridiagonal reduction
    done in ``block``'s own storage, which it overwrites.

    ``block`` must be a C-ordered float64 array whose upper triangle is that
    of a real symmetric matrix; its strict lower triangle is never read (the
    solve's gather never writes it).

    ``dsytrd`` (lower triangle) reduces the block once to the tridiagonal
    ``T = Q^T block Q``, and the whole spectrum is ``dsterf`` on T.  That is
    bit for bit the values-only ``scipy.linalg.eigh``, which is LAPACK
    ``dsyevr`` with ``RANGE='A'``, ``JOBZ='N'``: it runs the same two
    routines on the lower triangle, and it hands the reduction its own
    workspace less the ``5n`` entries it keeps for T and the reflector
    scalars.  The reduction's block size, and with it the rounding, follows
    from that workspace, so here it is derived from the same ``dsyevr``
    workspace query.  (``dsyevr`` would also rescale a matrix whose largest
    entry lies outside about ``[1e-146, 1e76]``, which no assembled operator
    comes near.)

    **In place.**  ``dsytrd`` gets ``block.T``, a Fortran-ordered view of
    the same storage, with ``overwrite_a``, so no copy is made.  Its lower
    triangle is ``block``'s upper one, which holds the values that
    ``scipy.linalg.eigh``'s Fortran copy of the symmetric matrix has in its
    lower triangle; so d, e and the reflectors are bit for bit those of that
    copy.  ``xSYTRD`` with ``UPLO='L'`` reads and writes only the diagonal
    and the lower triangle of its argument (Anderson et al., *LAPACK Users'
    Guide*, SIAM 1999), so no page of ``block``'s strict lower triangle
    that the gather left unwritten is ever touched.

    In an ascending spectrum the m values of largest modulus are a bottom run
    ``[0, b)`` (the negative ones) and a top run ``[n - m + b, n)``.  Their
    eigenvectors of T come from ``dstein``, inverse iteration at those very
    ``dsterf`` values with T taken as one block, and ``dormtr`` maps them
    back, here spelled out as what it does for the lower triangle: ``Q =
    diag(1, Q')``, with ``Q'`` the ``n - 1`` Householder reflectors stored
    below the subdiagonal, applied by ``dormqr`` to rows ``1:``.  The
    residual certificate of :func:`eigen_spectrum` checks the pairing that
    is returned.  Every routine is scipy's wrapper from its compiled
    ``_flapack`` module, the very object ``scipy.linalg.lapack`` exports.
    """
    lapack = native("linalg", "_flapack")
    n = block.shape[0]
    m = min(50, n)
    lwork = int(_lapack(lapack.dsyevr_lwork, n, lower=1)[0]) - 5 * n
    c, d, e, tau = _lapack(lapack.dsytrd, block.T, lower=1, overwrite_a=1, lwork=lwork)
    if n == 1:  # the wrappers of dsterf and dstein refuse an empty e
        return d, d, np.ones((1, 1))
    (w,) = _lapack(lapack.dsterf, d, e)
    b = int(np.count_nonzero(w[np.argsort(-np.abs(w), kind="stable")[:m]] < 0))
    picked = np.r_[0:b, n - m + b : n]
    top = w[picked]
    if d.any() or e.any():
        (vecs,) = _lapack(lapack.dstein, d, e, top, np.ones(n, np.int32), np.full(n, n, np.int32))
    else:  # T = 0 gives inverse iteration no scale, and every unit vector pairs
        vecs = np.zeros((n, m), order="F")
        vecs[picked, np.arange(m)] = 1.0
    # c[1:, :n-1] as a view: its Fortran buffer from entry 1 on, with leading
    # dimension n (dormtr's A(2,1), LDA = n); the view's last row is never
    # read, and no order-n copy is made
    refl = c.reshape(-1, order="F")[1 : 1 + n * (n - 1)].reshape(n, n - 1, order="F")
    query = _lapack(lapack.dormqr, "L", "N", refl, tau, vecs[1:], -1)[1]
    vecs[1:] = _lapack(lapack.dormqr, "L", "N", refl, tau, vecs[1:], int(query[0]))[0]
    return w, top, vecs


def _certified_pairs(block: np.ndarray, gather) -> tuple[np.ndarray, np.ndarray]:
    """The ascending spectrum of symmetric ``block``, which it overwrites,
    and the residual norm ``||K u - lambda u||`` of each pair that
    :func:`_top_pairs` computes, taken against the K that ``gather`` gathers
    into ``block``: ``gather(out=strip, rows=(start, stop))`` writes rows
    ``start:stop`` of K whole (as ``PairGather.dense`` and
    ``MirrorBlocks.block`` do).

    The reduction overwrites the one triangle of ``block`` that was
    gathered, so K is gathered again, a strip of rows at a time, into one
    small buffer: at most 256 KiB of rows, or more where that would take
    over 32 strips.  Each strip ``S`` adds ``K[S] u - u[S] lambda`` to the
    residual (``beta = -1``) with ``dgemm``, on the OpenBLAS library of the
    reduction, through scipy's wrapper from its compiled ``_fblas`` module,
    which ``scipy.linalg.blas`` exports; the C-ordered strip is read as its
    Fortran-ordered transpose (``trans_a``), so no copy is made.  numpy and
    scipy each load their own OpenBLAS, each with worker threads that
    busy-wait for a while after a call; a product on numpy's would leave its
    workers spinning against the next block's threaded ``dsytrd``."""
    w, top, u = _top_pairs(block)
    n = block.shape[0]
    count = max(_STRIP_BYTES // (8 * n), -(-n // _STRIPS))
    strip = np.empty((min(count, n), n))
    dgemm = native("linalg", "_fblas").dgemm
    res = u * top
    for start in range(0, n, count):
        stop = min(start + count, n)
        rows = gather(out=strip[: stop - start], rows=(start, stop))
        res[start:stop] = dgemm(1.0, rows.T, u, beta=-1.0, c=res[start:stop], trans_a=1)
    del strip, rows  # freed before the norm's temporary the size of res is made
    return w, np.linalg.norm(res, axis=0)


def eigen_spectrum(op: PairGather) -> np.ndarray:
    """Full spectrum of an assembled operator, as float64 ordered by
    decreasing modulus (:func:`order_by_modulus`).

    Every operator is real symmetric by construction, so its eigenvalues are
    real, and each block's up to 50 eigenpairs of largest modulus, every
    pair the solve computes, are certified by the residual bound ``||K v -
    lambda v|| <= RESIDUAL_REL * ||K||`` (Parlett, *The Symmetric Eigenvalue
    Problem*, SIAM 1998, ch. 4).  The gather refuses a non-finite table or
    ``r`` when it is built.

    Each block is reduced to tridiagonal form T once (:func:`_top_pairs`),
    in a buffer the solve owns, which holds the upper triangle of the
    operator or of its half-size block.  Nothing the operator holds is
    written, so one operator may be solved from several threads at once.
    All eigenvalues come from T with no eigenvectors, bit for bit those of
    a values-only ``scipy.linalg.eigh``; the eigenvectors of the 50
    eigenvalues of largest modulus only come from inverse iteration on T at
    those values, mapped back through the reduction's reflectors.  The
    certificate is computed with the returned eigenvalues and the returned
    vectors, so it checks exactly the pairing that is returned.  Solver
    failures, a nonzero LAPACK ``info`` among them, are re-raised together
    with the assembly record so the failing operator can be identified.

    **Mirror blocks.**  An operator that is a
    :class:`~fracspectra.fractal_operator.MirrorBlocks` is exactly
    centrosymmetric, ``K = J K J`` with J the index reversal, by the digit
    test of its assembly (:func:`~fracspectra.fractal_operator._gather_pairs`),
    and is solved as two symmetric blocks of order h = N/2 (Cantoni &
    Butler, *Linear Algebra Appl.* 13, 1976).  The reduction is exact:
    write ``K = [[A, B], [J B J, J A J]]``; ``Q = [[I, I], [J, -J]] /
    sqrt(2)`` is orthogonal, and ``Q^T K Q = diag(A + B J, A - B J)``, so
    the spectrum of K is the union of the spectra of the blocks, and an
    eigenvector u of ``A +- B J`` lifts to the eigenvector ``[u; +-J u] /
    sqrt(2)`` of K.  K is never formed: ``A + B J`` is gathered, solved and
    certified, then ``A - B J`` is gathered into its storage, so the solve
    holds one block of order h.  The certificate is taken per block, ``||(A
    +- B J) u - lambda u||``, over both blocks' top 50, which contain the top
    50 of K, and it equals the residual of the lifted vector against K: with
    ``r = (A +- B J) u - lambda u``, ``K [u; +-J u] = [A u +- B J u; J B J u
    +- J A u] = [(A +- B J) u; +-J (A +- B J) u]``, so the lifted residual
    is ``[r; +-J r] / sqrt(2)``, of norm ``||r||``.  Every other operator is
    solved at full size, whatever its entries, and certified against itself.

    This is also where a kernel Gram matrix is judged positive-definite: for
    an operator whose assembly record has ``kind == "kernel-gram"``, the
    solve raises :class:`~fracspectra.fractal_operator.PsdViolationWarning`
    when ``lambda_min < -1e-8 * lambda_max``, read off the eigenvalues it
    already holds.  Other operators are not judged, since an indefinite
    symmetric matrix is valid input there.
    """
    provenance = op.assembly
    if op.order == 0:
        return np.zeros(0)
    try:
        if isinstance(op, MirrorBlocks):
            gathers = [lambda out, rows=None, s=s: op.block(s, out, rows) for s in (1, -1)]
        else:
            gathers = [op.dense]
        block, parts = None, []
        for gather in gathers:  # A - B J goes into the storage of A + B J
            block = gather(out=block)
            parts.append(_certified_pairs(block, gather))
        w = np.sort(np.concatenate([values for values, _ in parts]))
        res = np.concatenate([r for _, r in parts])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver did not converge ({exc}); assembly record: {provenance}"
        ) from exc
    if not np.all(np.isfinite(w)):
        raise RuntimeError(
            f"eigensolver returned non-finite values; assembly record: {provenance}"
        )
    if provenance.get("kind") == "kernel-gram" and w[0] < -1e-8 * w[-1]:
        warnings.warn(
            f"kernel matrix has eigenvalue {w[0]:.3e} below "
            f"-1e-8 * lambda_max = {-1e-8 * w[-1]:.3e}",
            PsdViolationWarning,
            stacklevel=2,
        )
    norm = float(np.abs(w).max())
    worst = float(res.max())
    if norm > 0.0 and not worst <= RESIDUAL_REL * norm:  # a NaN residual fails too
        raise RuntimeError(
            f"eigenpair residual {worst:.3e} exceeds "
            f"{RESIDUAL_REL:.1e} * ||K|| = {RESIDUAL_REL * norm:.3e}; "
            f"assembly record: {provenance}"
        )
    return order_by_modulus(w)


# ---------------------------------------------------------------------------
# Predicted exponents
# ---------------------------------------------------------------------------


def theoretical_exponent(ambient_dim: int, dimension: float, s: float, p: float) -> float:
    """Predicted eigenvalue-decay exponent ``-1 + (n - s*p)/d``.

    Valid on the compactness window of
    :func:`~fracspectra.fractal_operator._check_rate_window`; at its upper
    edge ``s*p = n`` the exponent is exactly ``-1``.
    """
    sp = _check_rate_window(ambient_dim, dimension, s, p)
    return -1.0 + (ambient_dim - sp) / dimension


def theoretical_snumber_exponent(
    ambient_dim: int, dimension: float, s: float, p: float
) -> float:
    """Predicted approximation-number exponent ``-1/p + (n/p - s)/d``.

    Shares the compactness window; at ``s = n/p`` it collapses to
    ``-1/p``, and at ``p = 2`` it is exactly half of
    :func:`theoretical_exponent` (squared singular values of the restriction
    are the kernel-operator eigenvalues).
    """
    _check_rate_window(ambient_dim, dimension, s, p)
    return -1.0 / p + (ambient_dim / p - s) / dimension


# ---------------------------------------------------------------------------
# Decay fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """A fitted line through ``(log k, log |lambda_k|)`` on a rank window."""

    k_lo: int
    k_hi: int
    slope: float
    intercept: float
    residual: float
    kind: str = "least-squares"
    quantile: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.k_lo < self.k_hi:
            raise ValueError(f"fit window [{self.k_lo}, {self.k_hi}] is not increasing")


def _fit_window(count: int, k_lo: int, k_hi: int | None) -> tuple[int, int]:
    """Resolve the rank window against the nonzero count.

    The default upper edge is ``min(count // 5, 400)``: the head of the
    spectrum is excluded because the first few eigenvalues carry lattice
    artifacts, and the deep tail is excluded because discretization corrupts
    it.  It is integer arithmetic, so any count, even one too large for a
    float, resolves.  At least five points must remain.
    """
    if count < 30:
        raise InsufficientSpectrumError(
            f"need at least 30 nonzero values to fit a decay law, got {count}"
        )
    k_lo = int(k_lo)
    if k_lo < 1:
        raise ValueError("fit window must start at rank 1 or later")
    if k_hi is None:
        k_hi = min(count // 5, 400)
    k_hi = min(int(k_hi), count)
    if k_hi - k_lo + 1 < 5:
        raise InsufficientSpectrumError(
            f"fit window [{k_lo}, {k_hi}] holds fewer than 5 points"
        )
    return k_lo, k_hi


def _window_logs(values, k_lo: int, k_hi: int | None) -> tuple[int, int, np.ndarray, np.ndarray]:
    mods = np.abs(nonzero_part(values))
    k_lo, k_hi = _fit_window(mods.size, k_lo, k_hi)
    x = np.log(np.arange(k_lo, k_hi + 1, dtype=float))
    y = np.log(mods[k_lo - 1 : k_hi])
    return k_lo, k_hi, x, y


def fit_decay_exponent(values, *, k_lo: int = 10, k_hi: int | None = None) -> DecayFit:
    """Least-squares decay exponent of ``log |lambda_k|`` versus ``log k``.

    The fit always runs on moduli sorted in decreasing order, so sign or
    phase patterns in the input cannot change the slope.  Entries below the
    ``ZERO_REL`` floor are dropped first; at least 30 nonzero values are
    required.  ``k_hi=None`` selects the default window policy of
    ``[k_lo, min(count // 5, 400)]``.
    """
    k_lo, k_hi, x, y = _window_logs(values, k_lo, k_hi)
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (intercept + slope * x)) ** 2)))
    return DecayFit(k_lo, k_hi, float(slope), float(intercept), rms)


def fit_upper_envelope(
    values,
    *,
    k_lo: int = 10,
    k_hi: int | None = None,
    quantile: float = 0.95,
) -> DecayFit:
    """Upper-envelope decay line by quantile regression on the log-log cloud.

    Minimizes the pinball loss ``G(a, b) = sum_i rho(y_i - a - b x_i)``,
    ``rho(u) = tau u`` for ``u >= 0`` and ``(tau - 1) u`` below (``tau =
    quantile``), so for ``quantile=0.95`` roughly 95 percent of the window
    points lie on or below the fitted line.  This is the right fit when the
    decay law is an upper bound only: points may drop far below the envelope
    without moving it.  The recorded residual is the mean pinball loss.

    The minimum is found exactly, not iteratively.  G is convex and linear
    between the lines ``a + b x_i = y_i``, so it has a minimum at one of
    their crossings, a line through two window points (Koenker & Bassett,
    Econometrica 1978): its slope is one of the pairwise slopes.  For a
    fixed slope b the best intercept is a tau-quantile of the residuals
    ``y - b x``, which gives the profile ``F(b) = min_a G(a, b)``, convex
    and piecewise linear in b.  So F restricted to the sorted distinct
    pairwise slopes decreases, then increases, and a bisection on the sign
    of ``F(b_{k+1}) - F(b_k)`` finds its minimum in ``log2`` of their
    number steps.  Ties are broken deterministically: of two candidate
    slopes whose losses compare equal the smaller is kept, and the
    intercept is the smallest tau-quantile, the ``ceil(tau m)``-th smallest
    residual of the m window points (``tau m`` taken exactly).
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie strictly between 0 and 1")
    k_lo, k_hi, x, y = _window_logs(values, k_lo, k_hi)
    m = x.size
    num, den = float(quantile).as_integer_ratio()
    rank = -(-num * m // den) - 1  # ceil(tau m) - 1, exactly
    i, j = np.triu_indices(m, 1)
    slopes = np.unique((y[j] - y[i]) / (x[j] - x[i]))

    def profile(b: float) -> tuple[float, float]:
        resid = y - b * x
        a = np.partition(resid, rank)[rank]
        u = resid - a
        return float(np.sum(np.where(u > 0.0, quantile * u, (quantile - 1.0) * u))), float(a)

    lo, hi = 0, slopes.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if profile(slopes[mid])[0] <= profile(slopes[mid + 1])[0]:
            hi = mid
        else:
            lo = mid + 1
    loss, intercept = profile(slopes[lo])
    return DecayFit(
        k_lo,
        k_hi,
        float(slopes[lo]),
        intercept,
        residual=loss / m,
        kind="quantile-envelope",
        quantile=float(quantile),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


@dataclass(frozen=True)
class SpectrumReport:
    """An ordered spectrum, its decay fit, and the verdict against a prediction.

    ``comparison`` is ``"two-sided"`` (pass when ``|slope - theoretical| <=
    tolerance``) or ``"upper"`` (pass when ``slope <= theoretical +
    tolerance``).  The verdict ``passed`` is derived from the fit, the
    prediction and the tolerance by that one rule; it is never declared.
    """

    eigenvalues: np.ndarray
    fit: DecayFit
    theoretical: float
    tolerance: float
    comparison: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        vals = self.eigenvalues
        vals = np.asarray(vals, complex if np.iscomplexobj(vals) else float).ravel()
        object.__setattr__(self, "eigenvalues", vals)
        mods = np.abs(vals)
        if vals.size == 0:
            raise ValueError("a spectrum report needs at least one eigenvalue")
        slack = 1e-12 * float(mods[0])
        if np.any(np.diff(mods) > slack):
            raise ValueError("eigenvalues must be ordered by nonincreasing modulus")
        if not 1 <= self.fit.k_lo < self.fit.k_hi <= vals.size:
            raise ValueError(
                f"fit window [{self.fit.k_lo}, {self.fit.k_hi}] must sit inside "
                f"[1, {vals.size}]"
            )
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be nonnegative")
        if self.comparison not in ("two-sided", "upper"):
            raise ValueError("comparison must be 'two-sided' or 'upper'")

    @property
    def passed(self) -> bool:
        if self.comparison == "two-sided":
            return abs(self.fit.slope - self.theoretical) <= self.tolerance
        return self.fit.slope <= self.theoretical + self.tolerance

    @property
    def count(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def n_zero(self) -> int:
        mods = np.abs(self.eigenvalues)
        if mods.size == 0 or mods[0] == 0.0:
            return int(mods.size)
        return int(np.count_nonzero(mods <= ZERO_REL * mods[0]))

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def as_dict(self) -> dict:
        """JSON-ready summary: window, exponents, verdict, and provenance."""
        return {
            "count": self.count,
            "n_zero": self.n_zero,
            "window": [self.fit.k_lo, self.fit.k_hi],
            "exponents": {
                "fitted_slope": self.fit.slope,
                "intercept": self.fit.intercept,
                "fit_residual": self.fit.residual,
                "theoretical": self.theoretical,
            },
            "fit_kind": self.fit.kind,
            "quantile": self.fit.quantile,
            "comparison": self.comparison,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "provenance": _jsonable(self.provenance),
        }


def assess_decay(
    values,
    *,
    theoretical: float,
    tolerance: float,
    k_lo: int = 10,
    k_hi: int | None = None,
    comparison: str = "two-sided",
    quantile: float = 0.95,
    provenance: dict | None = None,
) -> SpectrumReport:
    """Order a spectrum, fit its decay, and judge it against a prediction.

    ``comparison="two-sided"`` uses the least-squares fit;
    ``comparison="upper"`` fits the quantile upper envelope and accepts any
    slope at or below ``theoretical + tolerance``.
    """
    ordered = order_by_modulus(values)
    if comparison == "two-sided":
        fit = fit_decay_exponent(ordered, k_lo=k_lo, k_hi=k_hi)
    elif comparison == "upper":
        fit = fit_upper_envelope(ordered, k_lo=k_lo, k_hi=k_hi, quantile=quantile)
    else:
        raise ValueError("comparison must be 'two-sided' or 'upper'")
    return SpectrumReport(
        eigenvalues=ordered,
        fit=fit,
        theoretical=float(theoretical),
        tolerance=float(tolerance),
        comparison=comparison,
        provenance=dict(provenance or {}),
    )


def snumber_exponent_check(
    measure: FractalMeasure,
    s: float,
    *,
    tolerance: float = 0.05,
    k_lo: int = 10,
    k_hi: int | None = None,
) -> SpectrumReport:
    """Measure the approximation-number decay of the restriction operator.

    This is the Hilbert case ``p = 2``, the only one computed: the restriction
    ``tr : H^s -> L2(mu)`` factors the kernel operator, ``tr tr* = (id -
    Delta)^{-s} mu``, and its discretization A satisfies ``A A* = K`` for the
    kernel matrix K of :func:`assemble_dmu_kernel`.  Hence ``sigma_k(A)**2 =
    lambda_k(A A*) = lambda_k(K)``, and the approximation numbers (the
    singular values, at p = 2) are exactly ``a_k = sqrt(lambda_k(K))``; no
    factor A is formed.  K comes from the same assembly and certified
    eigensolve as the eigenvalue check; the clip ``max(lambda_k, 0)`` only
    guards roundoff below zero.  The values are fitted like a spectrum and
    compared two-sidedly against ``-1/p + (n/p - s)/d`` at ``p = 2``.
    """
    expected = theoretical_snumber_exponent(
        measure.ifs.ambient_dim, measure.dimension, s, 2.0
    )
    op = assemble_dmu_kernel(measure, s)
    lam = eigen_spectrum(op)
    return assess_decay(
        np.sqrt(np.maximum(lam, 0.0)),
        theoretical=expected,
        tolerance=tolerance,
        k_lo=k_lo,
        k_hi=k_hi,
        comparison="two-sided",
        provenance={"quantity": "approximation-numbers", "assembly": op.assembly},
    )
