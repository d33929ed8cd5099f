"""Discretized trace, kernel, and compressed-symbol operators on fractal measures.

This module turns an atomic self-similar measure into finite matrices whose
spectra approximate the continuum objects:

* ``BesselKernel`` evaluates, from the modified-Bessel closed form, the
  radially symmetric kernel whose Fourier transform is the inverse
  smoothness bracket ``(1 + |xi|**2) ** (-a/2)``.
* The pair assemblies evaluate a kernel once per pair difference up to sign
  and gather the entries by pair code (``fractal_measure._pair_table``).
  This is exact, not an interpolation: ``x_i - x_j = sum_k r^k (t_{i_k} -
  t_{j_k})`` depends only on the digit-by-digit translation differences of
  the two atom words, and the codes of (i, j) and (j, i) mirror each other
  about the table's centre.  The kernel table is filled chunk by chunk
  from the distances (only the Galerkin assembly holds them all), and the
  N x N codes are never held: every matrix is gathered tile by tile from
  two code factors whose Kronecker sum they are (:func:`_code_factors`).
* ``assemble_dmu_kernel`` assembles the symmetric positive kernel operator K
  whose eigenvalues are the squared singular values of the restriction
  (trace) operator: at p = 2, ``tr tr* = (id - Delta)^{-s} mu`` is K, so the
  approximation numbers are exactly ``a_k = sqrt(lambda_k(K))``.
* Every assembled square operator holds no matrix, only its folded table,
  its code factors and, for a modulated symbol, ``r = sqrt(a)``
  (:class:`PairGather`); the eigensolve gathers its upper triangle into
  the one N x N buffer of a run, and rows of it again for the residuals.
  :func:`_gather_pairs` builds each one, and so alone decides the
  reflection split: on a digit-mirror-symmetric set, the
  kernel K or the Galerkin compression of an x-independent symbol is a
  :class:`MirrorBlocks`, whose half-size blocks ``A +- B J`` the solver
  gathers one after the other into one buffer of order N/2.
* ``assemble_trace_operator`` returns the frequency-truncated plane-wave
  trace factor, the complex N x n_modes array of smoothness-weighted
  plane-wave coefficients at the weighted atoms; no eigensolve reads it.
* ``assemble_tmu_galerkin`` compresses a separable negative-order symbol,
  whose terms share one real, strictly positive spatial factor a, to atom
  space through a smoothly truncated frequency integral, in the exactly
  similar symmetric form ``diag(sqrt(a)) S diag(sqrt(a))``, held as the
  table of S and ``sqrt(a)`` and symmetric bit for bit by construction;
  with ``a == 1`` that is the gather S itself, held as above.

Every operator is a real symmetric pair gather, the one form
:func:`~fracspectra.spectral_report.eigen_spectrum` solves.

All singular diagonals use one shared rule, ``cell_pair_energy``: the exact
self-similar subdivision of a cell for a few levels plus a closed-form
geometric continuation of the coincidence chain.
"""

from __future__ import annotations

import math
import mmap
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._native import native
from .besov_analysis import build_resolution
from .fractal_measure import (
    FractalMeasure,
    _folded_table,
    _lower_pair_counts,
    _pair_codes,
    _pair_digits,
    _pair_distances,
    _pair_table,
)

__all__ = [
    "SingularKernelError",
    "WindowViolationError",
    "PsdViolationWarning",
    "CutoffTailWarning",
    "BesselKernel",
    "cell_pair_energy",
    "DiscretizedOperator",
    "PairGather",
    "MirrorBlocks",
    "assemble_dmu_kernel",
    "assemble_trace_operator",
    "assemble_tmu_galerkin",
]


class SingularKernelError(ValueError):
    """Kernel evaluation requested below the trusted radius of a singular kernel."""


class WindowViolationError(ValueError):
    """Smoothness parameters fall outside the admissible window."""


def _check_rate_window(ambient_dim: int, dimension: float, s: float, p: float) -> float:
    """``s*p`` if it lies in the compactness window ``n - d < s*p <= n``.

    This is the one statement of the window: the trace ``B^s_p -> L_p(mu)``
    needs ``s > (n - d)/p``, and the rates are stated up to ``s*p = n``.  The
    upper edge admits a roundoff of 1e-12, so ``s = n/p`` given as a decimal
    is accepted.  The kernel and trace assemblies pass ``p = 2``, where
    ``s*p`` is their kernel order ``2s`` exactly.
    """
    if not ambient_dim >= 1:
        raise WindowViolationError("ambient dimension must be a positive integer")
    if not 0.0 < dimension < ambient_dim:
        raise WindowViolationError(
            f"set dimension d = {dimension!r} must lie strictly between 0 and "
            f"the ambient dimension {ambient_dim}"
        )
    if not p > 0.0:
        raise WindowViolationError(f"integrability exponent p = {p!r} must be positive")
    sp = s * p
    upper_ok = sp <= ambient_dim or math.isclose(sp, ambient_dim, rel_tol=0.0, abs_tol=1e-12)
    if not (sp > ambient_dim - dimension and upper_ok):
        raise WindowViolationError(
            f"smoothness-integrability product s*p = {sp:.6f} must lie in "
            f"(n - d, n] = ({ambient_dim - dimension:.6f}, {ambient_dim}]"
        )
    return sp


class PsdViolationWarning(UserWarning):
    """An assembled kernel matrix has a significantly negative eigenvalue."""


class CutoffTailWarning(UserWarning):
    """The frequency cutoff leaves a non-negligible tail at the working distances."""


_PHI0 = build_resolution(1).phi0


# ---------------------------------------------------------------------------
# Bessel-type kernel in closed form
# ---------------------------------------------------------------------------


SINGULAR_RADIUS = 1e-12
"""Radius below which a singular kernel (order <= dimension) refuses to evaluate."""


def _closed_form_values(a: float, n: int, rho: np.ndarray) -> np.ndarray:
    """Closed-form kernel ``2**(1-a/2)/Gamma(a/2) rho**((a-n)/2) K_((n-a)/2)(rho)``."""
    special = native("special", "_special_ufuncs")
    rho = np.asarray(rho, dtype=float)
    log_c = (1.0 - a / 2.0) * math.log(2.0) - special.gammaln(a / 2.0)
    return np.exp(log_c + ((a - n) / 2.0) * np.log(rho)) * special.kv((n - a) / 2.0, rho)


@dataclass(eq=False)
class BesselKernel:
    """Radial kernel with Fourier transform ``bracket(xi)**(-a)``.

    Every radius is evaluated from the modified-Bessel closed form
    (``_closed_form_values``, i.e. ``kv``) in every ambient dimension; the
    assemblies call it once per distinct pair distance, not once per pair.
    Below ``SINGULAR_RADIUS`` a singular kernel (a <= n) refuses to evaluate
    while a bounded one returns its exact limit ``value_at_zero``.
    """

    order: float
    ambient_dim: int = 1
    method = "closed-form-modified-bessel"
    convention = "(2*pi)**(-n/2) * integral exp(i x.xi) (1+|xi|^2)**(-a/2) dxi"

    def __post_init__(self) -> None:
        if self.order <= 0.0:
            raise ValueError("kernel order must be positive")
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be at least one")

    @property
    def value_at_zero(self) -> float:
        """Exact coincidence limit, finite only above the singular range."""
        a, n = self.order, self.ambient_dim
        if a <= n:
            raise SingularKernelError(
                f"kernel of order {a} in dimension {n} diverges at zero radius"
            )
        gammaln = native("special", "_special_ufuncs").gammaln
        return float(
            2.0 ** (-n / 2.0) * math.exp(gammaln((a - n) / 2.0) - gammaln(a / 2.0))
        )

    def __call__(self, rho) -> np.ndarray:
        r = np.asarray(rho, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if not np.all(r >= 0.0):
            raise ValueError("radius must be non-negative and not NaN")
        tiny = r < SINGULAR_RADIUS
        out = np.empty_like(r)
        if np.any(tiny):
            if self.order <= self.ambient_dim:
                raise SingularKernelError(
                    f"radius below {SINGULAR_RADIUS:.0e} for a singular kernel "
                    f"(order {self.order} <= dimension {self.ambient_dim})"
                )
            out[tiny] = self.value_at_zero
        out[~tiny] = _closed_form_values(self.order, self.ambient_dim, r[~tiny])
        return out[0] if scalar else out


# ---------------------------------------------------------------------------
# Shared singular-diagonal rule: exact subdivision + geometric continuation
# ---------------------------------------------------------------------------


_TAIL_ANCHOR_FLOOR = 1e-11
"""Smallest pair distance at which the coincidence chain is still summed exactly."""

_CHAIN_STEP_LIMIT = 0.995  # largest step ratio of a singular chain that is summed


def cell_pair_energy(
    measure: FractalMeasure,
    kernel_fn: Callable[[np.ndarray], np.ndarray],
    explicit_depth: int = 4,
) -> tuple[float, dict]:
    """Self-interaction energy of one cell: ``E = iint_{C x C} k(|u-v|) dmu dmu``.

    Every level-L cell of an equal-ratio, equal-weight measure is a scaled
    isometric copy of the attractor, so one value serves the whole diagonal.
    The cell is subdivided ``explicit_depth`` extra levels and all pairs of
    distinct subcells are evaluated at their barycenters with exact weights.
    The remaining coincidence chain (both points in the same deepest subcell)
    is followed level by level while distances stay above
    ``_TAIL_ANCHOR_FLOOR`` and then closed in one of three forms fitted to the
    measured per-level pair sums F(k):

    * power branch - F grows geometrically toward coincidence (singular
      kernel), sum the geometric series with the measured step ratio; exact
      for pure power kernels;
    * geometric-approach branch - F approaches a constant with geometrically
      shrinking increments (smooth kernel); exact for kernels affine in the
      radius, including constants;
    * linear branch - constant increments (``|q - 1| <= 0.02``, logarithmic
      blowup), exact for pair sums affine in the chain level, and the
      fallback for every ratio the other two branches do not claim.

    The branch is chosen by the measured increment ratio
    ``q = (F(K+2) - F(K+1)) / (F(K+1) - F(K))``.

    The chain's probes reach at least three levels below the deepest
    subcells.  A cell too small for that at ``explicit_depth`` is subdivided
    only as deep as keeps them at or above ``_TAIL_ANCHOR_FLOOR``; where not
    even depth 1 does, a ``ValueError`` names the level, the ratio and the
    radius before any pair table is built.

    Returns the energy and a provenance dict, which records the depth used.
    """
    if explicit_depth < 1:
        raise ValueError("explicit_depth must be at least one")
    ifs = measure.ifs
    m, r, w = ifs.n_maps, ifs.ratio, measure.weight
    scale = r**measure.level

    codes, dist = _pair_table(ifs, 1)
    d0 = dist[codes[np.triu_indices(m, 1)]]  # each unordered pair once
    d0_min = float(d0.min())
    if d0_min <= 0.0:
        raise ValueError("first-level cells share a barycenter; measure is degenerate")

    # the chain's first probe, F(3), must lie at or above the anchor floor
    while scale * r ** (explicit_depth + 3) * d0_min < _TAIL_ANCHOR_FLOOR:
        if explicit_depth == 1:
            raise ValueError(
                f"cells of level {measure.level} at ratio {r!r} are too small for "
                f"the coincidence chain: its first probe radius "
                f"{scale * r**4 * d0_min:.3e} lies below {_TAIL_ANCHOR_FLOOR:.0e} "
                f"even at explicit depth 1"
            )
        explicit_depth -= 1

    codes, dist = _pair_table(ifs, explicit_depth)
    iu = np.triu_indices(codes.shape[0], 1)
    mass_d = w / m**explicit_depth
    explicit = 2.0 * mass_d**2 * float(np.sum(kernel_fn(scale * dist[codes[iu]])))

    # exact chain levels: k = 0 .. K-1 plus the two anchor sums F(K), F(K+1)
    K = 1
    while scale * r ** (explicit_depth + K + 2) * d0_min >= _TAIL_ANCHOR_FLOOR and K < 60:
        K += 1

    def pair_sum(k: int) -> float:
        rho = scale * r ** (explicit_depth + k) * d0
        return 2.0 * float(np.sum(kernel_fn(rho)))

    f_vals = [pair_sum(k) for k in range(K + 3)]
    chain_exact = sum(f_vals[k] * m ** (-k) for k in range(K))
    f_anchor, f_next, f_probe = f_vals[K], f_vals[K + 1], f_vals[K + 2]

    t_hat = None
    if f_anchor > 0.0 and f_next > 0.0:
        t_hat = math.log(f_next / f_anchor) / math.log(1.0 / r)
    delta = f_next - f_anchor
    if delta == 0.0 or abs(delta) <= 1e-13 * abs(f_anchor):
        q_hat = 0.0
    else:
        q_hat = (f_probe - f_next) / delta
    step = None
    if delta > 0.0 and q_hat >= 1.02:
        # growing pair sums: the singular-power regime
        step = f_next / (m * f_anchor)
        if step >= _CHAIN_STEP_LIMIT:
            # a kernel ~ rho**(s*p - n) steps by r**(d - n + s*p), since m = r**-d
            raise WindowViolationError(
                f"coincidence chain does not converge: measured step ratio "
                f"{step:.6f} reaches the limit {_CHAIN_STEP_LIMIT}, i.e. s*p - "
                f"(n - d) = {math.log(step) / math.log(r):.6f} is not above "
                f"{math.log(_CHAIN_STEP_LIMIT) / math.log(r):.6f}; the kernel "
                f"singularity is too strong for the measure dimension"
            )
        branch = "power"
        tail = f_anchor / (1.0 - step)
    elif -0.5 < q_hat < 0.98:
        # contracting increments: smooth kernel approaching its limit
        branch = "geometric-approach"
        tail = f_anchor * m / (m - 1.0) + delta * (
            m / (m - 1.0) - 1.0 / (1.0 - q_hat / m)
        ) / (1.0 - q_hat)
    else:
        # constant increments (q near 1: logarithmic blowup, continued affinely
        # and exactly) or any ratio the two branches above do not claim
        branch = "linear"
        tail = f_anchor * m / (m - 1.0) + delta * m / (m - 1.0) ** 2
    chain = (w**2 / m ** (explicit_depth + 2)) * (chain_exact + m ** (-K) * tail)
    energy = explicit + chain
    info = {
        "explicit_depth": explicit_depth,
        "exact_chain_levels": K,
        "tail_branch": branch,
        "tail_step_ratio": step,
        "tail_decrement_ratio": q_hat,
        "measured_decay_exponent": t_hat,
        "chain_share": chain / energy if energy else 0.0,
    }
    return energy, info


# ---------------------------------------------------------------------------
# Discretized operator container
# ---------------------------------------------------------------------------


_TILE = 256  # rows (and columns) per tile of the code gathers


def _code_factors(ifs, level: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The factors ``(hi, lo, D^l)`` of the level-L pair codes: ``lo`` holds
    the codes at level l, ``hi`` those at level ``L - l``, widened to
    ``np.intp`` so that no tile offset wraps in int32, and l is the largest
    level count with ``m^l <= _TILE``, capped at ``L - 1`` (0 at L = 0), so
    that ``hi`` keeps the first digit (:class:`MirrorBlocks`).  The word of
    atom ``ih m^l + il`` is that of ih followed by that of il, and a code is
    the base-D number of the pair's digits, first most significant, so
    ``C[ih m^l + il, jh m^l + jl] = hi[ih, jh] D^l + lo[il, jl]`` exactly: C
    is the Kronecker sum ``hi (x) D^l + lo``, and tile (ih, jh) of
    ``table[C]`` is ``table[hi[ih, jh] D^l:][lo]``."""
    m, l = ifs.n_maps, 0
    while l < level - 1 and m ** (l + 1) <= _TILE:
        l += 1
    base = _pair_digits(ifs)[0].shape[0]
    return _pair_codes(ifs, level - l).astype(np.intp), _pair_codes(ifs, l), base**l


def _solve_buffer(n: int) -> np.ndarray:
    """A zeroed C-ordered float64 array of order n on a private anonymous
    ``mmap`` of its own, advised ``MADV_NOHUGEPAGE``: a page is made
    resident only when it is first written, 4 KiB at a time, so a buffer
    whose triangle alone is written (:func:`_gather`) is about half
    resident.  numpy's own large arrays are advised ``MADV_HUGEPAGE``, and
    one write per 2 MiB would fault in every page.  The memory is unmapped
    when the last view of it goes."""
    if n == 0:
        return np.zeros((0, 0))
    buf = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)
    buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(n, n)


def _gather(table, hi, lo, step: int, out=None, combine=None, rows=None, r=None) -> np.ndarray:
    """``K = table[hi (x) step + lo]`` (:func:`_code_factors`), times ``r_j
    r_k`` where ``r`` is given, gathered tile by tile into ``out``, or
    combined into it by the ufunc ``combine``; no temporary is larger than
    one tile.

    With no ``rows``, only the tiles (a, b) with ``b >= a`` are written, into
    ``out`` or a new :func:`_solve_buffer` of order N: they hold K's upper
    triangle (the diagonal tiles whole), the lower triangle of the
    Fortran-ordered view that the reduction reads, and nothing else of the
    buffer is touched.  With ``rows = (start, stop)``, rows ``start:stop``
    of K, every column, are written into ``out`` of shape ``(stop - start,
    N)``.  Either way, entry (j, k) is ``table[code] (r_j r_k)``: the same
    bits wherever it is gathered."""
    nh, size = hi.shape[0], lo.shape[0]
    first, stop = (0, nh * size) if rows is None else rows
    if rows is None and out is None:
        out = _solve_buffer(nh * size)
    for a in range(first // size, -(-stop // size)):
        part = slice(max(first - a * size, 0), min(stop - a * size, size))
        dest = slice(a * size + part.start - first, a * size + part.stop - first)
        index = lo[part].astype(np.intp)  # cast once per tile row, not per tile
        for b in range(a if rows is None else 0, nh):
            cols = slice(b * size, (b + 1) * size)
            tile, values = out[dest, cols], table[hi[a, b] * step :][index]
            if r is not None:
                values *= np.multiply.outer(r[a * size :][part], r[cols])
            if combine is None:
                tile[...] = values
            else:
                combine(tile, values, out=tile)
    return out


@dataclass(frozen=True, eq=False)
class PairGather:
    """``K = table[hi (x) step + lo]`` (:func:`_code_factors`), times ``r_j
    r_k`` where ``r`` is given, held as those arrays and gathered only on
    request.  K is bitwise symmetric by construction: ``code(j, i) = D^L - 1
    - code(i, j)`` reads the same value of the palindromic ``table``, and
    ``r_j r_k`` is one product for both entries."""

    table: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    step: int
    r: np.ndarray | None = None

    @property
    def order(self) -> int:
        """The order N of K."""
        return self.hi.shape[0] * self.lo.shape[0]

    def dense(self, out: np.ndarray | None = None, rows=None) -> np.ndarray:
        """K's upper triangle gathered into a new C-ordered buffer whose lower
        one is never written, or rows ``start:stop`` of K whole into ``out``
        (:func:`_gather`); with ``r``, entry (j, k) is ``table[code] (r_j
        r_k)``."""
        return _gather(self.table, self.hi, self.lo, self.step, out, rows=rows, r=self.r)


@dataclass(frozen=True, eq=False)
class MirrorBlocks(PairGather):
    """A :class:`PairGather` (with no ``r``) that is exactly centrosymmetric,
    ``K = [[A, B], [J B J, J A J]]`` of order ``N = 2h`` (J the index
    reversal), so it is solved as its blocks ``A +- B J``, each gathered on
    request.  :func:`_gather_pairs` builds it, only where K is exactly that.

    ``hi`` keeps the first digit, so the rows of A, whose first digit is
    below ``m / 2``, are the tile rows ``ih < nh / 2``.  Reversing an atom
    index reverses its tile index and its index in the tile, so tile (ih,
    jh) of ``B J`` is ``table[hi[ih, nh - 1 - jh] step:][flipped]``, with
    ``flipped = lo[:, ::-1]`` made once per operator."""

    flipped: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flipped", np.ascontiguousarray(self.lo[:, ::-1]))

    def block(self, sign: int, out: np.ndarray | None = None, rows=None) -> np.ndarray:
        """``A + B J`` for positive ``sign``, else ``A - B J``: entry by entry
        bitwise ``K[:h, :h] +- K[:h, h:][:, ::-1]``, its upper triangle
        gathered into ``out`` (C-ordered float64 of order h, overwritten) or
        a new buffer, or its rows ``start:stop`` whole into ``out``
        (:func:`_gather`)."""
        q = self.hi.shape[0] // 2
        out = _gather(self.table, self.hi[:q, :q], self.lo, self.step, out, rows=rows)
        combine = np.add if sign > 0 else np.subtract
        hi = self.hi[:q, ::-1][:, :q]
        return _gather(self.table, hi, self.flipped, self.step, out, combine, rows)


def _gather_pairs(ifs, level: int, table: np.ndarray, r=None) -> PairGather:
    """The operator ``K = table[_pair_codes(ifs, level)]`` of a folded
    ``table`` (a bitwise palindrome, :func:`_folded_table`), times ``r_j
    r_k`` where ``r`` is given: its :class:`MirrorBlocks` when there is no
    ``r`` and K is exactly centrosymmetric, else its :class:`PairGather`,
    either way held as the code factors ``hi``, ``lo``, since the level-L
    codes are exactly ``hi (x) D^l + lo`` (:func:`_code_factors`).  Every
    assembled square operator is built here.

    With m maps, D digits and level L >= 1, K is held as blocks when m is
    even and the level-1 digits satisfy ``digit[m-1-a, m-1-b] ==
    D-1-digit[a, b]``.  That is an O(m^2) exact test on integers, and the one
    place the reflection split is decided.  The index reversal J maps atom i,
    in base m, to the word with every digit a replaced by ``m-1-a``, so under
    the test the code of ``(J i, J j)`` is ``sum_k (D-1-digit_k) D^(L-1-k) =
    D^L - 1 - code(i, j)``, and the palindromic table holds bitwise the same
    value there: K is exactly centrosymmetric, ``K = J K J``.  It is also
    exactly symmetric (:class:`PairGather`).  Hence A is bitwise symmetric,
    and so is ``B J``: ``(B J)[j, i] = K[j, N-1-i] = K[N-1-j, i] = K[i,
    N-1-j] = (B J)[i, j]``, by centrosymmetry and then symmetry.  So is each
    block ``A +- B J``, since ``x +- y`` rounds the same for the mirrored
    entry pair.  Any other set (every odd m, and an even-m set whose digits
    fail the test), and every operator with an ``r``, is solved at full size.
    """
    deltas, digit = _pair_digits(ifs)
    base, m = deltas.shape[0], ifs.n_maps
    split = r is None and level >= 1 and m % 2 == 0
    if split and np.array_equal(digit[::-1, ::-1], base - 1 - digit):
        return MirrorBlocks(table, *_code_factors(ifs, level))
    return PairGather(table, *_code_factors(ifs, level), r=r)


@dataclass(frozen=True)
class DiscretizedOperator:
    """An assembled operator: its ``assembly`` record, which says how it was
    built and what its axes mean (``kind``, ``n_atoms`` and any
    ``similarity``), and its :class:`PairGather` in ``pairs``.

    The operator holds no matrix, only the gather's table, code factors and
    any ``r``.  It is symmetric by construction, so no tile pass reads it;
    it is refused when its table or ``r`` has a non-finite entry.  Only
    :func:`~fracspectra.spectral_report.eigen_spectrum` gathers it, into a
    buffer of its own, so nothing writes an operator."""

    assembly: dict
    pairs: PairGather

    def __post_init__(self) -> None:
        r = 1.0 if self.pairs.r is None else self.pairs.r
        if not (np.all(np.isfinite(self.pairs.table)) and np.all(np.isfinite(r))):
            raise ValueError("operator table or r contains non-finite entries")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.pairs.order, self.pairs.order)


# ---------------------------------------------------------------------------
# Assembly: symmetric kernel matrix of the restriction Gram operator
# ---------------------------------------------------------------------------


def assemble_dmu_kernel(measure: FractalMeasure, s: float) -> DiscretizedOperator:
    """Symmetric kernel matrix ``(2 pi)^{-n/2} sqrt(w_j) G_{2s}(|x_j - x_k|) sqrt(w_k)``.

    Its eigenvalues are the squared approximation numbers of the restriction
    from the smoothness-s Hilbert space to L2 of the measure.  The diagonal
    holds the cell-averaged self-interaction instead of the divergent
    coincidence value.  Requires ``2s`` in the compactness window
    (:func:`_check_rate_window` at ``p = 2``).

    Entries are gathered by pair code from one kernel value per distinct pair
    difference (:func:`_pair_table`), the diagonal from the coincident code.
    The kernel values form the folded table T, a bitwise palindrome,
    evaluated chunk by chunk (:func:`_folded_table`), so beside T and the
    code factors no array is longer than a chunk.

    **Mirror blocks.**  K is held by :func:`_gather_pairs` as T and the code
    factors: a :class:`MirrorBlocks` when the set passes the digit test
    there, which makes K exactly centrosymmetric, else a :class:`PairGather`
    that the solve gathers whole.

    Only the operator is built here.  Positive-definiteness is judged by
    :func:`~fracspectra.spectral_report.eigen_spectrum`, which raises
    :class:`PsdViolationWarning` for a ``"kernel-gram"`` assembly from the
    smallest eigenvalue of the solve it runs anyway.
    """
    ifs = measure.ifs
    n, d = ifs.ambient_dim, measure.dimension
    a = _check_rate_window(n, d, s, 2.0)
    kernel = BesselKernel(order=a, ambient_dim=n)
    w = measure.weight
    conv = (2.0 * math.pi) ** (-n / 2.0)
    N, level = measure.n_atoms, measure.level
    energy, diag_info = cell_pair_energy(measure, kernel)
    table = _folded_table(ifs, level, lambda rho: conv * w * kernel(rho), conv * energy / w)
    assembly = {
        "kind": "kernel-gram",
        "smoothness_s": s,
        "kernel_order": a,
        "ambient_dim": n,
        "set_dimension": d,
        "level": level,
        "n_atoms": N,
        "convention": "(2*pi)**(-n/2) * sqrt(w_j w_k) * kernel(|x_j - x_k|)",
        "kernel_method": kernel.method,
        "diagonal_rule": diag_info,
    }
    return DiscretizedOperator(assembly, _gather_pairs(ifs, level, table))


# ---------------------------------------------------------------------------
# Assembly: plane-wave trace factor
# ---------------------------------------------------------------------------


def assemble_trace_operator(
    measure: FractalMeasure,
    s: float,
    *,
    freq_cutoff: float = 256.0,
    n_modes: int = 513,
) -> np.ndarray:
    """Frequency-truncated trace factor A from plane waves to atom samples,
    a complex N x n_modes array.

    Column m holds ``sqrt(w_j) sqrt(dxi/(2 pi)) (1+xi_m^2)^{-s/2} e^{i x_j xi_m}``,
    on ``n_modes`` equispaced frequencies ``xi_m`` spanning ``[-freq_cutoff,
    freq_cutoff]`` with spacing ``dxi``, so the Gram ``A A*`` is the kernel
    matrix of :func:`assemble_dmu_kernel` with the frequency integral
    truncated to ``|xi| <= freq_cutoff``.  The exact approximation numbers
    come from that kernel matrix instead (see
    :func:`~fracspectra.spectral_report.snumber_exponent_check`).  Requires
    ``2s`` in the compactness window (:func:`_check_rate_window` at ``p = 2``).
    """
    ifs = measure.ifs
    n, d = ifs.ambient_dim, measure.dimension
    if n != 1:
        raise NotImplementedError("trace assembly is implemented for ambient dimension one")
    _check_rate_window(n, d, s, 2.0)
    if n_modes < 3:
        raise ValueError("need at least three frequency modes")
    if not 0.0 < freq_cutoff < math.inf:
        raise ValueError("frequency cutoff must be positive and finite")
    xi = np.linspace(-freq_cutoff, freq_cutoff, n_modes)
    amp = np.sqrt((xi[1] - xi[0]) / (2.0 * math.pi)) * (1.0 + xi**2) ** (-s / 2.0)
    phase = np.exp(1j * measure.atoms[:, 0, None] * xi[None, :])
    return math.sqrt(measure.weight) * amp[None, :] * phase


# ---------------------------------------------------------------------------
# Assembly: Galerkin compression of a separable negative-order symbol
# ---------------------------------------------------------------------------


_PROFILE_RHO_MIN = 1e-12  # radius below which a profile returns its value at zero
_PROFILE_TARGET_REL = 3e-5  # taper-correction bound, relative, beyond the split
_PROFILE_NODES = 700  # log-spaced table nodes of the spline below the split
_PROFILE_BUFFER = 1 << 17  # entries of the quadrature buffer (1 MiB): rows per chunk times n_xi


class _NotAKnotSpline:
    """The not-a-knot cubic spline through ``(x, y)``, for strictly increasing
    ``x`` with at least four nodes (de Boor, *A Practical Guide to Splines*).

    The node slopes solve one (1, 1)-banded system; row i of ``c`` holds the
    coefficient of ``(t - x_k)^(3-i)`` on interval k.  Every step is
    ``scipy.interpolate.CubicSpline``'s, in its order, so the coefficients
    and the values are bitwise its own: the interval is the last node at or
    below t, clipped to the first and last (which extrapolates), and the
    value is the power sum ``sum_i c[3-i] z_i`` with ``z = 1, s, s^2, s^3``
    built by repeated multiplication.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        n, dx = x.size, np.diff(x)
        slope = np.diff(y) / dx
        ab, b = np.zeros((3, n)), np.empty(n)
        ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        ab[0, 2:] = dx[:-1]
        ab[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        ab[1, 0] = dx[1]
        ab[0, 1] = d = x[2] - x[0]
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        ab[1, -1] = dx[-2]
        ab[-1, -2] = d = x[-1] - x[-3]
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        # the very dgtsv call of scipy.linalg.solve_banded((1, 1), ab, b,
        # overwrite_ab=True, overwrite_b=True, check_finite=False)
        *_, s, info = native("linalg", "_flapack").dgtsv(
            ab[2, :-1], ab[1], ab[0, 1:], b.reshape(n, 1),
            overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
        s = s.reshape(n)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        k = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        s = t - self.x[k]
        out, z = np.zeros(s.shape), np.ones(s.shape)
        for row in self.c[::-1]:
            out += row[k] * z
            z *= s
        return out


class _CutoffProfile:
    """Radial position-space profile of one separable term under a smooth cutoff.

    Represents ``P(rho) = (2 pi)^{-1/2} integral phi0(|xi|/cutoff) b(|xi|)
    e^{i rho xi} dxi`` in ambient dimension one.  Radii below an adaptive
    split are tabulated at ``_PROFILE_NODES`` log-spaced nodes by a
    vectorized quadrature whose step resolves every oscillation, and read
    off a not-a-knot cubic spline in ``log rho`` (:class:`_NotAKnotSpline`,
    one banded solve); beyond the split the smooth-taper correction is provably
    below ``_PROFILE_TARGET_REL`` and the untruncated closed-form kernel is used
    (bracket-power terms) or a dense table (generic terms, moderate cutoffs).
    The quadrature takes ``_PROFILE_BUFFER // n_xi`` nodes (at least one) at
    a time into one buffer of about 1 MiB, which holds their phases, then
    their weighted cosines, each row summed pairwise by numpy: no BLAS
    thread count or chunk moves a bit.
    """

    def __init__(
        self,
        radial: Callable[[np.ndarray], np.ndarray],
        freq_cutoff: float,
        *,
        rho_maxdist: float,
    ) -> None:
        xi_max = 1.5 * freq_cutoff
        self.cutoff = freq_cutoff
        bracket = getattr(radial, "bracket_exponent", None)
        self.bracket_order = None if bracket is None else float(bracket)

        # numeric second-derivative mass of the chopped taper band, for the
        # double integration-by-parts bound |correction| <= B / rho^2
        ts = np.linspace(freq_cutoff, xi_max, 8193)
        with np.errstate(all="ignore"):
            g = (1.0 - _PHI0(ts / freq_cutoff)) * np.asarray(radial(ts), dtype=float)
        h = ts[1] - ts[0]
        g2 = np.abs(np.diff(g, 2)) / h**2
        self.taper_bound = math.sqrt(2.0 / math.pi) * float(np.sum(g2) * h)

        far_kernel = None
        if self.bracket_order is not None and self.bracket_order < 0.0:
            far_kernel = BesselKernel(order=-self.bracket_order, ambient_dim=1)
            probe = np.geomspace(max(_PROFILE_RHO_MIN * 10.0, 1e-9), rho_maxdist, 400)
            far_vals = far_kernel(probe)
            ok = self.taper_bound / probe**2 <= _PROFILE_TARGET_REL * np.abs(far_vals)
            base_split = 20.0 / freq_cutoff
            if np.any(ok):
                rho_split = max(float(probe[np.argmax(ok)]), base_split)
            else:
                rho_split = rho_maxdist
            self._far = far_kernel
        else:
            if freq_cutoff > 4000.0:
                raise ValueError(
                    "generic radial parts are tabulated densely and need a "
                    "moderate cutoff (<= 4000); bracket-power parts scale further"
                )
            rho_split = rho_maxdist  # single dense table covers everything
            self._far = None
        self.rho_split = min(rho_split, rho_maxdist)

        # vectorized Simpson panels: a fine origin panel resolves the
        # unit-scale curvature of the radial part, then geometrically graded
        # segments track its decay across decades while keeping the largest
        # retained phase below pi/32 per step
        def _simpson_nodes(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
            pts = np.linspace(lo, hi, n)
            wts = np.ones(n)
            wts[1:-1:2] = 4.0
            wts[2:-1:2] = 2.0
            wts *= (pts[1] - pts[0]) / 3.0
            return pts, wts

        def _phase_count(lo: float, hi: float, floor: int) -> int:
            by_phase = int(math.ceil(self.rho_split * (hi - lo) * 32.0 / math.pi)) | 1
            return max(floor, by_phase)

        panels = []
        if xi_max <= 256.0:
            panels.append(_simpson_nodes(0.0, xi_max, _phase_count(0.0, xi_max, 4097)))
        else:
            panels.append(_simpson_nodes(0.0, 64.0, _phase_count(0.0, 64.0, 4097)))
            seg_lo = 64.0
            while seg_lo < xi_max:
                seg_hi = min(seg_lo * 4.0, xi_max)
                panels.append(_simpson_nodes(seg_lo, seg_hi, _phase_count(seg_lo, seg_hi, 257)))
                seg_lo = seg_hi
        pieces = []
        for pts, wts in panels:
            with np.errstate(all="ignore"):
                w_seg = _PHI0(pts / freq_cutoff) * np.asarray(radial(pts), dtype=float)
            if not np.all(np.isfinite(w_seg)):
                raise ValueError("radial part produced non-finite values on the panel")
            if np.any(w_seg != 0.0):
                pieces.append((pts, w_seg * wts))
        xs = np.concatenate([pts for pts, _ in pieces])
        wind_w = np.concatenate([ww for _, ww in pieces])
        n_xi = xs.size
        if n_xi > (1 << 21):
            raise ValueError("cutoff profile would need too fine a quadrature panel")

        nodes = np.geomspace(_PROFILE_RHO_MIN, self.rho_split, _PROFILE_NODES)
        vals = np.empty(_PROFILE_NODES)
        chunk = max(1, _PROFILE_BUFFER // n_xi)
        buf = np.empty((min(chunk, _PROFILE_NODES), n_xi))
        for lo in range(0, _PROFILE_NODES, chunk):
            rows = nodes[lo : lo + chunk]
            phase = np.multiply.outer(rows, xs, out=buf[: rows.size])
            np.multiply(np.cos(phase, out=phase), wind_w, out=phase)
            vals[lo : lo + rows.size] = np.add.reduce(phase, axis=1)
        vals *= math.sqrt(2.0 / math.pi)
        self._near = _NotAKnotSpline(np.log(nodes), vals)
        self._zero = math.sqrt(2.0 / math.pi) * float(wind_w.sum())
        self.splice_rel = 0.0
        if self._far is not None:
            a, b = float(vals[-1]), float(self._far(self.rho_split))
            self.splice_rel = abs(a - b) / max(abs(b), 1e-300)

    def __call__(self, rho) -> np.ndarray:
        r = np.atleast_1d(np.asarray(rho, dtype=float))
        out = np.empty_like(r)
        tiny = r < _PROFILE_RHO_MIN
        out[tiny] = self._zero if np.any(tiny) else 0.0
        near = (~tiny) & (r <= self.rho_split)
        if np.any(near):
            out[near] = self._near(np.log(r[near]))
        beyond = r > self.rho_split
        if np.any(beyond):
            if self._far is None:
                raise ValueError("distance beyond the tabulated profile range")
            out[beyond] = self._far(r[beyond])
        return out if np.ndim(rho) else out[0]


def _shared_positive_factor(sym, atoms: np.ndarray) -> np.ndarray:
    """The real, strictly positive spatial factor ``a`` at the atoms that every
    term of ``sym`` shares (``a = 1`` when none has one); anything else raises
    ``ValueError`` naming the condition."""
    n_atoms = atoms.shape[0]
    shared = None
    for term in sym.separable_terms:
        a = np.ones(n_atoms) if term.spatial is None else np.asarray(term.spatial(atoms))
        if np.iscomplexobj(a):
            raise ValueError("Galerkin assembly needs real spatial factors; a term's is complex")
        a = a.astype(float).reshape(n_atoms)
        if not np.all(a > 0.0):
            raise ValueError("Galerkin assembly needs strictly positive spatial factors")
        if shared is not None and not np.array_equal(a, shared):
            raise ValueError("Galerkin assembly needs terms that share one spatial factor")
        shared = a
    return np.ones(n_atoms) if shared is None else shared


def _band_row_max(pairs: PairGather, rows, band) -> float:
    """``max |rows_j S_jk|`` (0.0 if none) over the pairs whose code c has
    ``band[c]``, for ``S = table[hi (x) step + lo]`` of ``pairs`` (without its
    ``r``), never held: tile (a, b) of S and of its mask is ``table`` and
    ``band`` at ``[hi[a, b] step:][lo]``."""
    table, lo, step = pairs.table, pairs.lo, pairs.step
    size, top = lo.shape[0], 0.0
    for (a, b), code in np.ndenumerate(pairs.hi):
        near = band[code * step :][lo]
        if near.any():
            rs = slice(a * size, (a + 1) * size)
            tile = rows[rs, None] * table[code * step :][lo]
            top = max(top, float(np.abs(tile[near]).max()))
    return top


def assemble_tmu_galerkin(
    sym,
    s: float,
    p: float,
    measure: FractalMeasure,
    freq_cutoff: float,
) -> DiscretizedOperator:
    """Compress a validated separable symbol of order ``-s p`` to atom space.

    Entry (j, k) is ``(2 pi)^{-1} w_k integral phi0(|xi|/cutoff)
    tau(x_j, xi) e^{i (x_k - x_j) xi} dxi`` - the symbol acting on the
    measure-smeared atom k, sampled at atom j.  For an x-independent bracket
    symbol at p = 2 this matrix is similar via diag(sqrt(w)) to the kernel
    matrix of :func:`assemble_dmu_kernel`.  The coincidence diagonal is
    cell-averaged with the same rule as the kernel assembly.  Each term's
    profile is tabulated on the pair distances as there and added into one
    table, and its gather by pair code is the symmetric ``S``.  With ``c =
    (2 pi)^{-1/2}`` and ``D = diag(a(x_j))``, the compression is ``M = c w D
    S``.

    The terms must share bitwise one real, strictly positive factor a (every
    catalog symbol does; x-independent ones have ``D = I``).  A complex
    factor, one that is not strictly positive, or terms whose factors differ
    raise ``ValueError`` before any pair table exists.  The summed table is
    scaled by ``c w`` once, in place, after :func:`_gather_pairs` has built
    the operator from it.  With ``a == 1``, ``M = c w S`` is held as that
    gather, so on a digit-mirror-symmetric set as :class:`MirrorBlocks`.
    Otherwise the operator is the similar ``D^{-1/2} M D^{1/2} = c w D^{1/2}
    S D^{1/2}`` (the same spectrum, exactly, certified by the eigensolve's
    residuals), held as the :class:`PairGather` of that table with ``r =
    sqrt(a)``: entry (j, k) is ``(c w T)[c] (r_j r_k)``, and entry (k, j)
    reads the code ``D^L - 1 - c``, where the palindromic table holds the
    same value, times the same product, so it is symmetric bit for bit by
    construction.  The assembly records ``"similarity": "diag(sqrt(a))"``
    (None when ``a == 1``).  The :class:`CutoffTailWarning` reads its entry
    scale, in either form, off the unscaled table row-scaled by ``D``, tile
    by tile (:func:`_band_row_max`), at the pairs within half the median
    pair distance of it.  The median is found before any table, from the
    codes below the coincident one, which carry each off-diagonal pair once
    up to its mirror.  Requires ``s p`` in the compactness window
    (:func:`_check_rate_window`) and a symbol with separable terms.
    """
    ifs = measure.ifs
    n, d = ifs.ambient_dim, measure.dimension
    if n != 1 or getattr(sym, "ambient_dim", 1) != 1:
        raise NotImplementedError("Galerkin assembly is implemented for ambient dimension one")
    sp = _check_rate_window(n, d, s, p)
    if sym.separable_terms is None:
        raise ValueError(
            "Galerkin assembly needs a symbol with separable terms; general "
            "evaluators cannot resolve the coincidence diagonal"
        )
    if abs(sym.order + sp) > 1e-8:
        raise ValueError(
            f"symbol order {sym.order} must equal -(s*p) = {-sp} for this compression"
        )
    if freq_cutoff <= 0.0:
        raise ValueError("frequency cutoff must be positive")
    w = measure.weight
    N, level = measure.n_atoms, measure.level
    shared = _shared_positive_factor(sym, measure.atoms)
    similarity = None if np.all(shared == 1.0) else "diag(sqrt(a))"
    dist = _pair_distances(ifs, level)
    diam = float(dist.max()) if N > 1 else 1.0
    if N > 1:
        # the typical working distance of the tail estimate: the median of
        # the N (N - 1) off-diagonal pairs.  Pair (k, j) mirrors (j, k) about
        # the coincident code mid, so the H pairs coded below mid have as
        # order statistics (H - 1) // 2 and H // 2 the middle two of all 2H
        mid = dist.size // 2
        order = np.argsort(dist[:mid], kind="stable")
        cum = _lower_pair_counts(ifs, level)[order]
        np.cumsum(cum, out=cum)
        half = int(cum[-1])
        pick = np.searchsorted(cum, [(half - 1) // 2, half // 2], side="right")
        rho_med = float(dist[order[pick]].mean())
        del order, cum
        near = np.subtract(dist, rho_med)
        near = np.abs(near, out=near) < 0.5 * rho_med  # one temporary, not two

    conv = (2.0 * math.pi) ** (-0.5)  # the profile carries the other (2 pi)^{-1/2}
    table, term_info = np.zeros(dist.size), []
    del dist
    for term in sym.separable_terms:
        profile = _CutoffProfile(
            term.radial, freq_cutoff, rho_maxdist=max(diam * 1.01, 1e-6)
        )
        energy, diag_info = cell_pair_energy(measure, profile)
        table += _folded_table(ifs, level, profile, energy / w**2)
        term_info.append(
            {
                "bracket_order": profile.bracket_order,
                "rho_split": profile.rho_split,
                "taper_bound": profile.taper_bound,
                "splice_rel": profile.splice_rel,
                "diagonal_rule": diag_info,
            }
        )
    pairs = _gather_pairs(ifs, level, table, None if similarity is None else np.sqrt(shared))
    if N > 1:
        # the entry scale is that of the row-scaled c w D S, read off the
        # unscaled table
        top = _band_row_max(pairs, shared, near)
        # c w > 0 and rounding is monotone: c w max|x| rounds to max|c w x|
        scale_med = max(1e-300, conv * w * top)
        tail_est = conv * w * sum(t["taper_bound"] for t in term_info) / rho_med**2
        if tail_est > 1e-6 * scale_med:
            warnings.warn(
                f"frequency cutoff {freq_cutoff:.3g} leaves an estimated tail "
                f"{tail_est:.3e} vs entry scale {scale_med:.3e} at typical "
                f"distances; increase the cutoff",
                CutoffTailWarning,
                stacklevel=2,
            )
    table *= conv * w  # in place: pairs holds this very table

    assembly = {
        "kind": "separable-symbol-compression",
        "symbol": getattr(sym, "name", "?"),
        "smoothness_s": s,
        "integrability_p": p,
        "symbol_order": sym.order,
        "freq_cutoff": freq_cutoff,
        "level": level,
        "n_atoms": N,
        "convention": "(2*pi)**(-n) * w_k * integral phi0 tau(x_j, xi) "
        "exp(i (x_k - x_j) xi) dxi",
        "terms": term_info,
        "similarity": similarity,
    }
    return DiscretizedOperator(assembly, pairs)
