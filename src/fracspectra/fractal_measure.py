"""Self-similar sets, their natural measures, and atomic quadrature.

The laboratory's sets are the attractors of equal-ratio, translation-only
systems ``x -> r x + t_i`` in R^n, built as ``SimilitudeIFS(ambient_dim,
ratio, translations)``: m maps with one ratio r in (0, 1) generate a compact
d-set with ``d = log m / log(1/r)``, carrying the self-similar probability
measure that gives every level-L cell the mass ``m ** (-L)``.  This module
builds such systems, discretizes the measure into equally weighted atoms at
a chosen refinement level, numbers the atom pairs by their translation
differences (``_pair_table``), and checks the scaling of the measure of
balls empirically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SimilitudeIFS",
    "FractalMeasure",
    "OverlapError",
    "DimensionRangeError",
    "AtomBudgetError",
    "ResolutionError",
    "build_cantor_like",
    "quadrature",
    "ball_measure_ratio",
]


class OverlapError(ValueError):
    """Level-1 cells of the system overlap, the open set condition fails."""


class DimensionRangeError(ValueError):
    """Similarity dimension is not strictly between 0 and the ambient one."""


class AtomBudgetError(ValueError):
    """Requested refinement level would exceed the atom budget."""


class ResolutionError(ValueError):
    """Discretization level too coarse for the requested evaluation."""


@dataclass(frozen=True, eq=False)
class SimilitudeIFS:
    """The m maps ``x -> ratio * x + translations[i]`` in R^n.

    With one common ratio the Moran equation ``m ratio**d = 1`` has the
    closed form ``d = log m / log(1/ratio)``; the attractor is the unique
    compact set invariant under the union of the maps.  ``translations`` is
    stored as a read-only (m, n) float array.  Like :class:`FractalMeasure`,
    instances compare and hash by identity: a field-wise comparison would
    ask for the truth value of an array comparison and raise.
    """

    ambient_dim: int
    ratio: float
    translations: np.ndarray
    dimension: float = field(init=False)

    def __post_init__(self) -> None:
        t = np.array(self.translations, dtype=float)
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] != self.ambient_dim:
            raise ValueError(
                f"translations must have shape (m, {self.ambient_dim}) with "
                f"m >= 1, got {t.shape}"
            )
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"contraction ratio must lie in (0, 1), got {self.ratio}")
        t.setflags(write=False)
        object.__setattr__(self, "translations", t)
        object.__setattr__(
            self, "dimension", math.log(t.shape[0]) / math.log(1.0 / self.ratio)
        )
        if not (0.0 < self.dimension < self.ambient_dim):
            raise DimensionRangeError(
                f"similarity dimension {self.dimension:.6f} must be strictly "
                f"between 0 and the ambient dimension {self.ambient_dim}"
            )

    @property
    def n_maps(self) -> int:
        return self.translations.shape[0]

    def bounding_box(self) -> np.ndarray:
        """Axis-aligned box (2, n) containing the attractor: the exact
        per-axis range [min t/(1-r), max t/(1-r)] of the fixed points."""
        fixed = self.translations / (1.0 - self.ratio)
        return np.stack([fixed.min(axis=0), fixed.max(axis=0)])

    def barycenter(self) -> np.ndarray:
        """Fixed point of the equally weighted average of the maps."""
        return self.translations.mean(axis=0) / (1.0 - self.ratio)

    def diameter(self) -> float:
        box = self.bounding_box()
        return float(np.linalg.norm(box[1] - box[0]))


@dataclass(frozen=True, eq=False)
class FractalMeasure:
    """Atomic discretization of the self-similar probability measure.

    Atoms sit at the images of the attractor barycenter under all length-L
    words of maps, listed in lexicographic word order, each carrying the
    weight ``m ** (-L) = 1 / n_atoms``.  The total mass is one.
    """

    ifs: SimilitudeIFS
    level: int
    atoms: np.ndarray

    @property
    def dimension(self) -> float:
        return self.ifs.dimension

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def weight(self) -> float:
        """The common atom weight ``1 / n_atoms``."""
        return 1.0 / self.n_atoms

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n_atoms, self.weight)

    def cell_diameter(self) -> float:
        """Diameter of one level-L cell (all cells are congruent here)."""
        return self.ifs.diameter() * self.ifs.ratio**self.level


def build_cantor_like(
    ambient_dim: int,
    n_maps: int,
    ratio: float,
    translations,
) -> SimilitudeIFS:
    """Construct an equal-ratio, translation-only similitude system.

    Parameters
    ----------
    ambient_dim : dimension of the surrounding Euclidean space
    n_maps : number of similitudes
    ratio : common contraction ratio in (0, 1)
    translations : iterable of n_maps translation vectors

    Raises
    ------
    DimensionRangeError if the similarity dimension reaches the ambient one.
    OverlapError if the level-1 cell bounding boxes intersect.
    """
    trans = [np.atleast_1d(np.asarray(t, dtype=float)) for t in translations]
    if len(trans) != n_maps:
        raise ValueError(f"expected {n_maps} translations, got {len(trans)}")
    for t in trans:
        if t.shape != (ambient_dim,):
            raise ValueError("translation dimension mismatch")
    ifs = SimilitudeIFS(ambient_dim, float(ratio), np.array(trans))

    # the (lo, hi) box of each level-1 cell: the image of the attractor's box
    boxes = ifs.ratio * ifs.bounding_box() + ifs.translations[:, None]
    for i, j in itertools.combinations(range(n_maps), 2):
        lo = np.maximum(boxes[i][0], boxes[j][0])
        hi = np.minimum(boxes[i][1], boxes[j][1])
        if np.all(lo < hi - 1e-14):
            raise OverlapError(
                f"level-1 cells {i} and {j} overlap, open set condition fails"
            )
    return ifs


def quadrature(ifs: SimilitudeIFS, level: int, atom_budget: int = 4_000_000) -> FractalMeasure:
    """Equal-weight atomic quadrature of the self-similar measure at a level.

    Every atom is the image of the attractor barycenter under one
    length-`level` composition of the maps, in lexicographic word order.
    """
    if level < 0:
        raise ValueError(f"quadrature level must be nonnegative, got {level}")
    m = ifs.n_maps
    count = m**level
    if count > atom_budget:
        raise AtomBudgetError(
            f"m**L = {m}**{level} = {count} atoms exceeds the budget {atom_budget}"
        )
    pts = ifs.barycenter()[None, :]
    for _ in range(level):
        # prepend each map index, keeping lexicographic word order
        pts = (ifs.ratio * pts[None] + ifs.translations[:, None]).reshape(-1, ifs.ambient_dim)
    return FractalMeasure(ifs, level, pts)


def _pair_digits(ifs: SimilitudeIFS) -> tuple[np.ndarray, np.ndarray]:
    """The D distinct level-1 differences ``t_a - t_b``, sorted, and the (m, m)
    digit of each map pair ``(a, b)``: the index of ``t_a - t_b`` among them."""
    t = ifs.translations
    m, n = t.shape
    deltas, digit = np.unique(
        (t[:, None, :] - t[None, :, :]).reshape(m * m, n), axis=0, return_inverse=True
    )
    return deltas, digit.reshape(m, m)


def _pair_codes(ifs: SimilitudeIFS, level: int) -> np.ndarray:
    """The (N, N) pair codes at ``level`` (see :func:`_pair_table`)."""
    deltas, digit = _pair_digits(ifs)
    base, m = deltas.shape[0], digit.shape[0]
    digit = digit.astype(np.int32 if base**level <= 2**31 else np.int64)
    codes = np.zeros((1, 1), dtype=digit.dtype)
    for depth in range(level):
        size = codes.shape[0]
        lead = digit * base**depth
        codes = (lead[:, None, :, None] + codes[None, :, None, :]).reshape(m * size, m * size)
    return codes


def _lower_pair_counts(ifs: SimilitudeIFS, level: int) -> np.ndarray:
    """How many atom pairs at ``level`` carry each code below the coincident
    one, ``mid = D^level // 2``: exactly ``np.bincount(_pair_codes(ifs,
    level).ravel())[:mid]``, without the (N, N) codes or the upper half.

    The code of a pair prefixes its first digit to a level-``(level-1)``
    code, so all ``D^level`` counts are ``kron(c1, counts_{L-1})``, with
    ``c1`` the counts of the level-1 digits.  The zero difference is the
    middle digit ``h = D // 2`` (the differences are sorted and symmetric
    about it), so the codes below ``mid`` are those that lead with a digit
    below h, followed by those that lead with h and go on below the
    level-``(level-1)`` middle: ``concat(kron(c1[:h], counts_{L-1}), c1[h]
    lower_{L-1})``, built into the one array returned.
    """
    deltas, digit = _pair_digits(ifs)
    c1 = np.bincount(digit.ravel(), minlength=deltas.shape[0])
    h = c1.size // 2
    counts, lower = np.ones(1, dtype=c1.dtype), np.zeros(0, dtype=c1.dtype)
    for depth in range(level):
        size = counts.size
        out = np.empty(h * size + lower.size, dtype=c1.dtype)
        np.multiply.outer(c1[:h], counts, out=out[: h * size].reshape(h, size))
        np.multiply(c1[h], lower, out=out[h * size :])
        lower = out
        if depth < level - 1:
            counts = np.kron(c1, counts)
    return lower


_CHUNK = 4096  # most distances per chunk: a chunk's temporaries stay a few tens of KiB


def _folded_table(
    ifs: SimilitudeIFS, level: int, radial: Callable[[np.ndarray], np.ndarray], centre: float
) -> np.ndarray:
    """``radial`` of the ``D^level`` pair distances indexed by code, with
    ``centre`` at the coincident code ``mid``: evaluated on the codes ``[0,
    mid)`` and mirrored, as the distances are a bitwise palindrome
    (:func:`_pair_table`).  The codes come in chunks of ``D^t <= _CHUNK``,
    one per prefix of leading digits, so no other array is longer than a
    chunk: the differences of the last t digits are built once, and each
    chunk adds its leading digits by Horner's rule, last first, with the
    very roundings of a whole-array recursion."""
    deltas, _ = _pair_digits(ifs)
    base, r, n = deltas.shape[0], ifs.ratio, ifs.ambient_dim
    t = 0
    while t < level and base ** (t + 1) <= _CHUNK:
        t += 1
    tail = np.zeros((1, n))
    for _ in range(t):
        tail = (deltas[:, None, :] + r * tail[None, :, :]).reshape(-1, n)
    mid, size = base**level // 2, tail.shape[0]
    table = np.empty(2 * mid + 1)
    for start in range(0, mid, size):
        diff, lead = tail[: mid - start], start // size
        for _ in range(level - t):
            lead, digit = divmod(lead, base)
            diff = deltas[digit] + r * diff
        table[start : start + diff.shape[0]] = radial(np.linalg.norm(diff, axis=1))
    table[mid] = centre
    table[mid + 1 :] = table[:mid][::-1]
    return table


def _pair_distances(ifs: SimilitudeIFS, level: int) -> np.ndarray:
    """The ``D^level`` pair distances indexed by code (see :func:`_pair_table`)."""
    return _folded_table(ifs, level, lambda dist: dist, 0.0)


def _pair_table(ifs: SimilitudeIFS, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer code of every atom pair at ``level`` and the distance of each code.

    Lives beside :func:`quadrature` because both fix the same lexicographic
    atom (word) order; the assemblies of :mod:`fracspectra.fractal_operator`
    and its diagonal rule gather their kernel values through it.  The two
    halves are also built apart, by :func:`_pair_codes` and
    :func:`_pair_distances`, as no assembly needs the codes at ``level``;
    :func:`_folded_table` builds a radial function of the distances without
    the whole distance array.

    With maps ``x -> r x + t``, the atom of word ``(i_0, ..., i_{L-1})`` is
    ``sum_k r^k t_{i_k} + r^L b``, so ``x_i - x_j = sum_k r^k (t_{i_k} -
    t_{j_k})`` depends only on the digit-by-digit translation differences.
    With the D distinct level-1 differences ``t_a - t_b`` numbered 0..D-1
    (:func:`_pair_digits`), the code of (i, j) is the base-D number of its
    differences, first digit most significant, built by a Kronecker recursion
    in atom order.  Returns the (N, N) codes and the D^L distances indexed by
    code.  Since ``t_b - t_a = -(t_a - t_b)`` exactly, a gather from the table
    is bitwise symmetric; it is also centrosymmetric when the digits pass the
    mirror test of :func:`~fracspectra.fractal_operator._gather_pairs`.
    For any ``0 <= l <= L`` the code of the pair ``(ih m^l + il, jh m^l +
    jl)`` is ``hi[ih, jh] D^l + lo[il, jl]`` exactly, with ``hi`` and ``lo``
    the codes at levels ``L - l`` and l: the pair's digits are those of (ih,
    jh) followed by those of (il, jl)
    (:func:`~fracspectra.fractal_operator._code_factors`).

    The distances are a bitwise palindrome with the coincident code
    ``(D^L - 1) / 2`` at the centre, so a radial function need only be
    evaluated on the first half.  The D differences come sorted from
    ``np.unique`` and are closed under negation; negation reverses their
    (lexicographic) order, so digit k of ``-delta`` is ``D - 1 - k`` and the
    code of the reversed pair (j, i) is ``D^L - 1 - c``.  Rounding commutes
    with negation, so Horner's rule gives that code the negated difference
    (up to the sign of a zero coordinate), hence bitwise the same norm.  The
    zero difference is the middle digit ``(D - 1) / 2`` (D is odd), and
    every digit of a coincident pair is that one.
    """
    return _pair_codes(ifs, level), _pair_distances(ifs, level)


def ball_measure_ratio(measure: FractalMeasure, center, rho: float) -> float:
    """Empirical mass of a ball divided by rho ** d.

    For a d-set this ratio stays inside a fixed band over all centers on the
    set and radii between the atomic resolution and the diameter.  The level
    must resolve the radius: one cell diameter has to be at most rho / 10.
    """
    if rho <= 0:
        raise ValueError("radius must be positive")
    if measure.cell_diameter() > rho / 10.0:
        raise ResolutionError(
            f"cell diameter {measure.cell_diameter():.3e} too coarse for "
            f"radius {rho:.3e}, need at most rho / 10"
        )
    c = np.atleast_1d(np.asarray(center, dtype=float))
    dist = np.linalg.norm(measure.atoms - c[None, :], axis=1)
    mass = float(measure.weights[dist <= rho].sum())
    return mass / rho**measure.dimension
