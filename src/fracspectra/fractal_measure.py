"""Self-similar sets, their natural measures, and atomic quadrature.

An iterated function system of contracting similitudes with a common ratio
generates a compact attractor carrying a unique self-similar probability
measure.  This module builds such systems, discretizes the measure into
weighted atoms at a chosen refinement level, and provides the measure-side
utilities the rest of the package consumes: weighted p-norms on the attractor
and empirical scaling checks of the measure of balls.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "SimilitudeMap",
    "SimilitudeIFS",
    "FractalMeasure",
    "OverlapError",
    "DimensionRangeError",
    "AtomBudgetError",
    "ResolutionError",
    "UnequalRatioError",
    "build_cantor_like",
    "quadrature",
    "ball_measure_ratio",
    "lp_norm_on_gamma",
    "export_atoms_csv",
]

MORAN_TOL = 1e-12


class OverlapError(ValueError):
    """Level-1 cells of the system overlap, the open set condition fails."""


class DimensionRangeError(ValueError):
    """Similarity dimension is not strictly between 0 and the ambient one."""


class AtomBudgetError(ValueError):
    """Requested refinement level would exceed the atom budget."""


class ResolutionError(ValueError):
    """Discretization level too coarse for the requested evaluation."""


class UnequalRatioError(NotImplementedError):
    """Quadrature supports equal contraction ratios only."""


@dataclass(frozen=True)
class SimilitudeMap:
    """One contracting similitude x -> ratio * x + translation (no rotation)."""

    ratio: float
    translation: np.ndarray

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.ratio * points + self.translation


@dataclass(frozen=True)
class SimilitudeIFS:
    """A finite family of contracting similitudes in R^n.

    The similarity dimension d solves the Moran equation
    sum_i ratio_i ** d = 1, and the attractor is the unique compact set
    invariant under the union of the maps.
    """

    ambient_dim: int
    maps: tuple[SimilitudeMap, ...]
    dimension: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.maps:
            raise ValueError("need at least one map")
        for m in self.maps:
            if not (0.0 < m.ratio < 1.0):
                raise ValueError(f"contraction ratio must lie in (0, 1), got {m.ratio}")
            if m.translation.shape != (self.ambient_dim,):
                raise ValueError("translation shape does not match ambient dimension")
        object.__setattr__(self, "dimension", self._moran_dimension())
        if not (0.0 < self.dimension < self.ambient_dim):
            raise DimensionRangeError(
                f"similarity dimension {self.dimension:.6f} must be strictly "
                f"between 0 and the ambient dimension {self.ambient_dim}"
            )

    def _moran_dimension(self) -> float:
        ratios = np.array([m.ratio for m in self.maps])
        if np.allclose(ratios, ratios[0], rtol=0, atol=1e-15):
            # equal ratios admit the closed form d = log m / log(1/r)
            return math.log(len(ratios)) / math.log(1.0 / ratios[0])
        f = lambda d: np.sum(ratios**d) - 1.0
        hi = math.log(len(ratios)) / math.log(1.0 / ratios.max())
        return float(brentq(f, 1e-9, hi + 1e-9, xtol=1e-15, rtol=8.9e-16))

    def moran_residual(self) -> float:
        return abs(sum(m.ratio**self.dimension for m in self.maps) - 1.0)

    @property
    def equal_ratio(self) -> bool:
        ratios = [m.ratio for m in self.maps]
        return all(abs(r - ratios[0]) <= 1e-15 for r in ratios)

    def bounding_box(self) -> np.ndarray:
        """Axis-aligned box (2, n) containing the attractor: the exact
        per-axis range [min t/(1-r), max t/(1-r)] of the fixed points."""
        t = np.array([m.translation for m in self.maps])
        r = np.array([m.ratio for m in self.maps])[:, None]
        return np.stack([(t / (1.0 - r)).min(axis=0), (t / (1.0 - r)).max(axis=0)])

    def barycenter(self) -> np.ndarray:
        """Fixed point of the equally weighted average of the maps."""
        m = len(self.maps)
        mean_ratio = sum(mp.ratio for mp in self.maps) / m
        return sum(mp.translation for mp in self.maps) / m / (1.0 - mean_ratio)

    def cell_box(self, word: tuple[int, ...]) -> np.ndarray:
        box = self.bounding_box()
        corners = box
        for idx in reversed(word):
            corners = self.maps[idx](corners)
        lo = corners.min(axis=0)
        hi = corners.max(axis=0)
        return np.stack([lo, hi])

    def diameter(self) -> float:
        box = self.bounding_box()
        return float(np.linalg.norm(box[1] - box[0]))


@dataclass(frozen=True)
class FractalMeasure:
    """Atomic discretization of the self-similar probability measure.

    Atoms sit at the images of the attractor barycenter under all length-L
    words of maps, listed in lexicographic word order, each carrying weight
    m ** (-L).  The total mass is normalized to one.
    """

    ifs: SimilitudeIFS
    level: int
    atoms: np.ndarray
    weights: np.ndarray

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """Map-index word of each atom, in atom (lexicographic) order."""
        return tuple(itertools.product(range(len(self.ifs.maps)), repeat=self.level))

    @property
    def dimension(self) -> float:
        return self.ifs.dimension

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def cell_diameter(self) -> float:
        """Diameter of one level-L cell (all cells are congruent here)."""
        r = self.ifs.maps[0].ratio
        return self.ifs.diameter() * r**self.level

    def total_mass(self) -> float:
        return float(self.weights.sum())


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
    maps = tuple(SimilitudeMap(float(ratio), t) for t in trans)
    ifs = SimilitudeIFS(ambient_dim, maps)

    boxes = [ifs.cell_box((i,)) for i in range(n_maps)]
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

    Only systems with one common contraction ratio are supported; the
    natural weights are then uniform and every atom is the image of the
    attractor barycenter under one length-`level` composition.
    """
    if not ifs.equal_ratio:
        raise UnequalRatioError(
            "atomic quadrature requires equal contraction ratios"
        )
    m = len(ifs.maps)
    count = m**level
    if count > atom_budget:
        raise AtomBudgetError(
            f"m**L = {m}**{level} = {count} atoms exceeds the budget {atom_budget}"
        )
    pts = ifs.barycenter()[None, :]
    for _ in range(level):
        # prepend each map index, keeping lexicographic word order
        pts = np.concatenate([mp(pts) for mp in ifs.maps], axis=0)
    weights = np.full(count, 1.0 / count)
    return FractalMeasure(ifs, level, pts, weights)


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


def lp_norm_on_gamma(values: np.ndarray, measure: FractalMeasure, p: float) -> float:
    """Weighted p-norm of atom values: (sum_j w_j |f_j|**p) ** (1/p).

    p = inf returns the plain sup over atoms.
    """
    v = np.abs(np.asarray(values))
    if v.shape[0] != measure.n_atoms:
        raise ValueError("value vector length does not match the atom count")
    if math.isinf(p):
        return float(v.max())
    if p < 1:
        raise ValueError("p must be at least 1")
    return float((measure.weights @ v**p) ** (1.0 / p))


def export_atoms_csv(measure: FractalMeasure, path) -> None:
    """Write atoms as CSV rows (word, coordinates, weight)."""
    n = measure.ifs.ambient_dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word"] + [f"x{i}" for i in range(n)] + ["weight"])
        for word, atom, w in zip(measure.words, measure.atoms, measure.weights):
            writer.writerow(
                ["".join(map(str, word))] + [repr(float(a)) for a in atom] + [repr(float(w))]
            )
