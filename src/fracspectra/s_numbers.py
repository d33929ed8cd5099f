"""Approximation and entropy numbers of finite-dimensional operators.

Approximation numbers come from singular values (Hilbert case).  Entropy
numbers of small real matrices are bracketed by certified bounds: an upper
bound from an explicit ball cover of the image of the unit ball (lattice
cloud, greedy seeding, alternating reassignment, candidate-lattice
refinement), and a lower bound from volume comparison and packing
certificates.  Audit routines then check the
eigenvalue/entropy and composition inequalities that any correct spectral
pipeline must satisfy.

The refinement scores candidate centres against each cluster's
lattice-boundary points only, and rules most candidates out exactly on a
small sample of those points first.  A cloud point whose 2n axis lattice
neighbours all lie in its own cluster maps to the midpoint of each
neighbour pair's images, so by convexity its l_q distance to any candidate
is at most the larger of theirs, and no cluster's largest distance changes
when such points are dropped (`_cover_radius` gives the argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._native import native

__all__ = [
    "SNumberSequence",
    "AuditCheck",
    "AuditReport",
    "approximation_numbers_hilbert",
    "entropy_numbers_bruteforce",
    "entropy_volume_lower",
    "entropy_estimate_diagonal",
    "carl_audit",
    "entropy_ideal_quasinorm",
    "composition_law_audit",
]

_KINDS = ("approximation", "entropy-upper", "entropy-lower")


@dataclass(frozen=True)
class SNumberSequence:
    """A nonincreasing sequence of s-numbers of one kind."""

    kind: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("values must be a flat sequence")
        if vals.size:
            if not np.all(np.isfinite(vals)) or vals.min() < 0.0:
                raise ValueError("s-numbers must be finite and nonnegative")
            tol = 1e-12 * max(float(vals[0]), 1e-300)
            if np.any(np.diff(vals) > tol):
                raise ValueError("s-number sequences are nonincreasing")
            # wash out sub-tolerance float jitter so the invariant is exact
            vals = np.minimum.accumulate(vals)
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    def __len__(self) -> int:
        return len(self.values)

    def value(self, k: int) -> float:
        """k-th s-number, 1-indexed; zero beyond the stored range."""
        if k < 1:
            raise ValueError("s-number indices start at 1")
        return self.values[k - 1] if k <= len(self.values) else 0.0


def approximation_numbers_hilbert(matrix: np.ndarray) -> SNumberSequence:
    """Approximation numbers of a matrix between Euclidean spaces.

    These coincide with the singular values in descending order; the adjoint
    has the same sequence.  They are bitwise ``scipy.linalg.svdvals``: the
    same LAPACK call from scipy's compiled ``_flapack`` module (``dgesdd``
    for real input, ``zgesdd`` for complex, without vectors, after its
    workspace query), and, as there, a non-finite entry raises ``ValueError``.
    """
    m = np.atleast_2d(np.asarray_chkfinite(matrix))
    if m.size == 0:
        return SNumberSequence("approximation", ())
    flapack = native("linalg", "_flapack")
    prefix = "z" if np.iscomplexobj(m) else "d"
    work, info = getattr(flapack, f"{prefix}gesdd_lwork")(*m.shape, compute_uv=0)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    _, s, _, info = getattr(flapack, f"{prefix}gesdd")(m, compute_uv=0, lwork=int(work.real))
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return SNumberSequence("approximation", tuple(float(v) for v in s))


# ---------------------------------------------------------------------------
# entropy numbers of small real matrices, by certified search
# ---------------------------------------------------------------------------

_MAX_BRUTE_DIM = 3
_MAX_BRUTE_K = 7


def _vector_norms(arr: np.ndarray, p: float) -> np.ndarray:
    """l_p norms of the rows of a 2-D array, p in [1, inf].

    They are the `_pairwise` distances to the origin, so the module has one
    norm rule.  Subtracting 0.0 leaves every coordinate as it is (-0.0 stays
    -0.0, whose absolute value is 0.0), so by `_pairwise`'s argument each
    norm is bitwise ``np.sum(np.abs(a)**p, axis=-1) ** (1/p)`` over the row
    (its max of absolute values for p = inf).
    """
    return _pairwise(arr, np.zeros((1, arr.shape[1])), p)[:, 0]


def _ball_volume(n: int, p: float) -> float:
    """Volume of the unit l_p ball in R^n."""
    if math.isinf(p):
        return 2.0**n
    return 2.0**n * math.gamma(1.0 + 1.0 / p) ** n / math.gamma(1.0 + n / p)


def _ball_cloud(dim: int, p: float, resolution: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Lattice points filling the unit l_p ball, the mesh slack, and the steps.

    Every point of the ball rounds to a retained lattice point at l_p
    distance at most the returned mesh, so covering the cloud covers the
    ball up to that slack.  Each point is ``h * steps`` for its row of
    integer lattice coordinates, which `_lattice_boundary` reads.
    """
    h = 2.0 / (resolution - 1)
    mesh = (h / 2.0) * (1.0 if math.isinf(p) else dim ** (1.0 / p))
    half_steps = int(math.ceil((1.0 + h) / h))
    # the steps are held in the smallest signed type that fits +-half_steps
    axis = np.arange(-half_steps, half_steps + 1, dtype=np.min_scalar_type(-half_steps - 1))
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    steps = np.stack([g.ravel() for g in grids], axis=-1)
    pts = h * steps
    inside = _vector_norms(pts, p) <= 1.0 + mesh + 1e-12
    pts, steps = pts[inside], steps[inside]
    # lexicographic order makes every argmax/argmin tie-break deterministic
    order = np.lexsort(tuple(pts[:, c] for c in range(dim - 1, -1, -1)))
    return pts[order], mesh, steps[order]


def _pairwise(points: np.ndarray, centers: np.ndarray, q: float) -> np.ndarray:
    """l_q distances from every point to every centre, as (points, centres).

    The n <= 3 coordinates are taken one at a time: each adds
    ``|points[:, c] - centers[:, c]|**q`` into one (points, centres) array
    (or takes the maximum, for q = inf), and the root is taken once at the
    end, so no (points, centres, n) array is ever made.  Every entry goes
    through the same operations in the same order as
    ``np.sum(np.abs(d)**q, axis=-1) ** (1/q)`` over the 3-D differences d:
    the same subtraction, absolute value and power per coordinate, and
    numpy's sum over a last axis this short adds its terms in index order,
    as the coordinate loop does.  The in-place ``**=`` takes the same
    fast paths as ``**`` (a square for q = 2, a square root for the root).
    So every distance is bitwise what the 3-D formula gives; the reference
    tests in ``tests/test_snumbers.py`` hold this for q in {1, 1.5, 2, 3, inf}.
    """
    dists = None
    for c in range(points.shape[1]):
        term = np.subtract.outer(points[:, c], centers[:, c])
        np.abs(term, out=term)
        if not math.isinf(q):
            term **= q
        if dists is None:
            dists = term
        elif math.isinf(q):
            np.maximum(dists, term, out=dists)
        else:
            dists += term
        del term  # at most two (points, centres) arrays are held at once
    if not math.isinf(q):
        dists **= 1.0 / q
    return dists


def _refine_candidates(points: np.ndarray, radius: float) -> np.ndarray:
    """Candidate centers on a lattice of pitch ~radius/4 over the points' box."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    spans = hi - lo
    pitch = max(radius / 4.0, float(spans.max()) / 8.0, 1e-9)
    axes = [
        np.arange(lo[c], hi[c] + 0.5 * pitch, pitch) if spans[c] > 0 else np.array([lo[c]])
        for c in range(points.shape[1])
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _farthest_points(
    points: np.ndarray,
    count: int,
    q: float,
    idx: Sequence[int] = (),
    dmin: np.ndarray | None = None,
) -> tuple[list[int], np.ndarray]:
    """Greedy farthest-point seeding, starting from the point farthest from the
    mean, or continuing the seeding `idx` whose distances are `dmin`.

    Returns ``count`` indices and every point's l_q distance to the nearest
    chosen one.  Each pick depends only on the picks before it, so continuing
    a shorter seeding gives exactly the picks and distances of a fresh one.
    """
    idx = list(idx)
    if not idx:
        idx = [int(np.argmax(_pairwise(points, points.mean(axis=0)[None], q)[:, 0]))]
        dmin = _pairwise(points, points[idx[0], None], q)[:, 0]
    while len(idx) < count:
        nxt = int(np.argmax(dmin))
        idx.append(nxt)
        dmin = np.minimum(dmin, _pairwise(points, points[nxt, None], q)[:, 0])
    return idx, dmin


def _nearest(points: np.ndarray, centers: np.ndarray, q: float) -> tuple[np.ndarray, float]:
    """Each point's nearest centre, and the radius of the cover by the centres.

    The distances are taken one centre at a time, so no (points, centres)
    table is held, and numpy's row-wise argmin and min, slow over so few
    columns, are not needed.  Each
    column is the whole table's (`_pairwise` works entry by entry), a
    minimum is exact and the strict comparison keeps argmin's first-index
    tie-break, so both results are bitwise ``argmin(dists, axis=1)`` and
    ``dists.min(axis=1).max()`` of the table ``_pairwise(points, centers)``.
    """
    nearest = _pairwise(points, centers[:1], q)[:, 0]
    assign = np.zeros(points.shape[0], dtype=np.intp)
    for c in range(1, centers.shape[0]):
        column = _pairwise(points, centers[c : c + 1], q)[:, 0]
        assign[column < nearest] = c
        np.minimum(nearest, column, out=nearest)
    return assign, float(nearest.max())


_POLISH_BLOCK = 256  # points per distance block of the polish


def _max_distances(points: np.ndarray, centers: np.ndarray, q: float) -> np.ndarray:
    """Each centre's largest l_q distance to the points.

    The maximum runs over blocks of `_POLISH_BLOCK` points, so at most one
    block's (points, centres) table is held.  Every distance is the one the
    whole table holds (`_pairwise` works entry by entry), and a maximum is
    exact, so the result is bitwise the whole table's column maximum.
    """
    far = _pairwise(points[:_POLISH_BLOCK], centers, q).max(axis=0)
    for start in range(_POLISH_BLOCK, points.shape[0], _POLISH_BLOCK):
        block = _pairwise(points[start : start + _POLISH_BLOCK], centers, q)
        np.maximum(far, block.max(axis=0), out=far)
    return far


_POLISH_PROBES = 16  # about how many points give the polish's lower bounds


def _best_candidate(points: np.ndarray, centers: np.ndarray, q: float) -> int:
    """The centre whose largest l_q distance to the points is least, first on
    ties: bitwise ``argmin(_max_distances(points, centers, q))``.

    Every centre's largest distance to an evenly strided sample of about
    `_POLISH_PROBES` points bounds its score from below.  The centre with
    the least such bound is scored in full, and only the centres whose bound
    does not exceed that score can still score least, so only they are
    scored in full.  Each distance is the one the whole table holds
    (`_pairwise` works entry by entry) and every step is a maximum or a
    comparison, so the pick is exact: a dropped centre scores strictly more
    than some kept one, and every centre tied for least is kept, in order.
    """
    probe = points[:: max(1, points.shape[0] // _POLISH_PROBES)]
    lower = _pairwise(probe, centers, q).max(axis=0)
    bound = _max_distances(points, centers[int(np.argmin(lower)), None], q)[0]
    live = np.flatnonzero(lower <= bound)
    return int(live[np.argmin(_max_distances(points, centers[live], q))])


def _clusters(assign: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Point indices grouped by cluster (a stable sort): cluster ``c`` is
    ``order[bounds[c]:bounds[c + 1]]``, in ascending index order."""
    order = np.argsort(assign, kind="stable")
    bounds = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(assign, minlength=m), out=bounds[1:])
    return order, bounds


def _recentred(points: np.ndarray, assign: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Every nonempty cluster's box midpoint, a good single cover centre (exact
    for l_inf); an empty cluster keeps its centre.

    One sort groups the clusters, and one `minimum.reduceat` and one
    `maximum.reduceat` take every cluster's box.  Minimum and maximum are
    exact, so each midpoint is bitwise that of the cluster taken alone.
    """
    order, bounds = _clusters(assign, centers.shape[0])
    starts = bounds[:-1]
    full = starts < bounds[1:]
    grouped = points[order]
    lo = np.minimum.reduceat(grouped, starts[full], axis=0)
    hi = np.maximum.reduceat(grouped, starts[full], axis=0)
    moved = centers.copy()
    moved[full] = 0.5 * (lo + hi)
    return moved


def _lattice_boundary(steps: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Which cloud points have an axis lattice neighbour outside their cluster.

    A point is dropped only when all 2n of its axis neighbours are cloud
    points of its own cluster.  The test reads a label grid over the
    lattice box, padded by one step on every side, that holds each cloud
    point's cluster and -1 elsewhere, as int8: a search has at most
    ``2**(_MAX_BRUTE_K - 1) = 64`` clusters.  The steps are widened to
    `np.intp` before any arithmetic, since the grid's indices run past the
    range of the steps' own small type.
    """
    lo = steps.min(axis=0).astype(np.intp) - 1
    coords = [col.astype(np.intp) - shift for col, shift in zip(steps.T, lo)]
    labels = np.full(steps.max(axis=0) - lo + 2, -1, dtype=np.int8)
    labels[tuple(coords)] = assign
    inner = np.ones(assign.shape, dtype=bool)
    for axis in range(steps.shape[1]):
        for shift in (-1, 1):
            moved = list(coords)
            moved[axis] = coords[axis] + shift
            inner &= labels[tuple(moved)] == assign
    return ~inner


def _cover_radius(
    points: np.ndarray, steps: np.ndarray, seeds: list[int], dmin: np.ndarray, q: float
) -> float:
    """Radius of an explicit cover of `points` by m balls in the l_q norm.

    `points` are the images of the lattice points ``h * steps`` under one
    linear map.  Starts from the m greedy farthest-point `seeds` and every
    point's distance `dmin` to the nearest of them, then alternating
    reassignment with box-midpoint recentering, then one candidate-lattice
    polish per cluster.  Any returned configuration is an actual cover, so
    the radius is a true upper bound regardless of how close the search got
    to optimal.

    The polish scores each candidate centre by its largest distance to the
    cluster's lattice-boundary points only (`_lattice_boundary`), which
    gives the same score as all of the cluster's points.  Take a point x of
    the cluster and an axis e, and walk from x along e both ways while the
    lattice points stay in the cluster.  The run ends at two points that
    each have a neighbour outside the cluster, so both are kept.  The map is
    linear, so the run's images lie on one line at equal steps, along which
    the l_q distance to a fixed candidate is convex; so its value at x is at
    most its value at one of the two ends.  That is exact arithmetic; that
    the rounded images keep it bitwise is what ``tests/test_snumbers.py``
    checks.  The assignment step and the final min-over-centres radius
    still run on all points, so the returned radius is that of an actual
    cover whichever candidate the polish picks.  Of the candidates, only
    those that a small sample of the kept points cannot rule out are scored
    on all kept points (`_best_candidate`).

    Every distance here comes from `_pairwise`, bitwise the value of the
    (points, centres, n) reduction, so each argmin, max and radius is too.
    The root stays on every entry: comparing sums of q-th powers instead
    could flip an argmin where two different sums have roots that round
    alike.  Each round carries the accepted assignment rather than its
    distances, and `_nearest` holds one centre's distances at a time.
    """
    m = len(seeds)
    centers = points[seeds]
    best_r = float(dmin.max())

    assign = _nearest(points, centers, q)[0]
    for _ in range(40):
        moved = _recentred(points, assign, centers)
        moved_assign, r = _nearest(points, moved, q)
        if not r < best_r - 1e-15:
            break
        best_r, centers, assign = r, moved, moved_assign

    # polish each cluster against a local candidate lattice
    kept = _lattice_boundary(steps, assign)
    order, bounds = _clusters(assign, m)
    polished = centers.copy()
    for c in range(m):
        members = order[bounds[c] : bounds[c + 1]]
        if not members.size:
            continue
        cluster = points[members]
        cand = _refine_candidates(cluster, best_r)
        polished[c] = cand[_best_candidate(cluster[kept[members]], cand, q)]
    return min(best_r, _nearest(points, polished, q)[1])


def _packing_separation(chosen: np.ndarray, q: float) -> float:
    """Min pairwise l_q distance of the `chosen` points (at least two)."""
    dists = _pairwise(chosen, chosen, q)
    np.fill_diagonal(dists, np.inf)
    return float(dists.min())


def entropy_volume_lower(matrix: np.ndarray, k: int, norms: tuple[float, float]) -> float:
    """Volume-comparison lower bound for the k-th entropy number.

    Covering the image of the unit ball by 2^(k-1) balls of radius eps forces
    |det T| vol(B_p) <= 2^(k-1) eps^N vol(B_q).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return 0.0
    p, q = norms
    n = m.shape[0]
    det = abs(float(np.linalg.det(m)))
    if det == 0.0:
        return 0.0
    ratio = det * _ball_volume(n, p) / _ball_volume(n, q)
    return 2.0 ** (-(k - 1) / n) * ratio ** (1.0 / n)


def entropy_numbers_bruteforce(
    matrix: np.ndarray,
    k_max: int,
    norms: tuple[float, float] = (2.0, 2.0),
    resolution: int = 41,
) -> tuple[SNumberSequence, SNumberSequence]:
    """Certified (lower, upper) entropy-number bounds for a small real matrix.

    The upper bound covers a lattice discretization of the unit-ball image
    and adds the mesh slack times a sound operator-norm bound, so it covers
    the whole image.  The lower bound is the better of the volume comparison
    and a packing certificate (points of the image at pairwise distance s
    force e_k >= s/2 once there are more points than balls).
    """
    m = np.asarray(matrix)
    if np.iscomplexobj(m):
        raise ValueError("entropy brute force handles real matrices only")
    m = np.atleast_2d(m.astype(float))
    if m.size == 0 or not np.all(np.isfinite(m)):
        raise ValueError("entropy brute force needs a nonempty, finite matrix")
    rows, cols = m.shape
    if max(rows, cols) > _MAX_BRUTE_DIM:
        raise ValueError(
            f"entropy brute force is limited to dimension {_MAX_BRUTE_DIM}"
        )
    if not 1 <= k_max <= _MAX_BRUTE_K:
        raise ValueError(f"k_max must lie in [1, {_MAX_BRUTE_K}]")
    if (
        isinstance(resolution, bool)
        or not isinstance(resolution, (int, np.integer))
        or resolution < 2
    ):
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")
    p, q = norms
    if not (p >= 1.0 and q >= 1.0):
        raise ValueError("norm indices must lie in [1, inf]")

    ball, mesh, steps = _ball_cloud(cols, p, resolution)
    image = ball @ m.T
    # packing certificates need genuine image points, so they use only the
    # lattice points inside the closed unit ball (up to float rounding);
    # the inflated cloud is correct for covering, where extra points only
    # make the cover harder
    interior = ball[_vector_norms(ball, p) <= 1.0 + 1e-12] @ m.T
    # |x|_p <= 1 implies |x|_inf <= 1, so row mass bounds the image norm
    norm_bound = float(_vector_norms(np.abs(m).sum(axis=1)[None, :], q)[0])
    slack = mesh * norm_bound

    # one greedy seeding per cloud serves every k: the packings slice the
    # longest one (a packing certifies a lower bound only with more points
    # than balls), and the covers extend theirs as k grows
    most = 2 ** (k_max - 1) + 1
    packed = interior[_farthest_points(interior, min(most, interior.shape[0]), q)[0]]
    del ball, interior  # the covers need only the image and the lattice steps
    seeds, dmin = [], None
    uppers, lowers = [], []
    for k in range(1, k_max + 1):
        balls = 2 ** (k - 1)
        cover = 0.0
        if balls < image.shape[0]:
            seeds, dmin = _farthest_points(image, balls, q, seeds, dmin)
            cover = _cover_radius(image, steps, seeds, dmin, q)
        uppers.append(cover + slack if cover > 0.0 or norm_bound > 0.0 else 0.0)
        packing = _packing_separation(packed[: balls + 1], q) if balls < len(packed) else 0.0
        lowers.append(max(0.5 * packing, entropy_volume_lower(m, k, norms)))
    upper_vals = np.minimum.accumulate(np.asarray(uppers))
    lower_vals = np.minimum.accumulate(np.asarray(lowers))
    if np.any(lower_vals > upper_vals + 1e-12):
        raise RuntimeError("certified entropy bounds crossed; search is buggy")

    return (
        SNumberSequence("entropy-lower", tuple(lower_vals)),
        SNumberSequence("entropy-upper", tuple(upper_vals)),
    )


def entropy_estimate_diagonal(sigma: Sequence[float], k: int) -> float:
    """Scalable entropy-number surrogate for diag(sigma) on a sequence space.

    sup over j of 2^(-(k-1)/j) * (sigma_1 ... sigma_j)^(1/j); equivalent to
    the true entropy numbers up to dimension-free constants, and used only
    against same-family quantities or in report-only audits.
    """
    vals = np.asarray(sigma, dtype=float)
    if vals.size == 0:
        raise ValueError("sigma must be nonempty")
    if np.any(vals <= 0.0):
        raise ValueError("diagonal entries must be positive")
    if np.any(np.diff(vals) > 1e-12 * vals[0]):
        raise ValueError("sigma must be nonincreasing")
    if k < 1:
        raise ValueError("k starts at 1")
    j = np.arange(1, vals.size + 1)
    log_geo = np.cumsum(np.log(vals)) / j
    return float(np.max(np.exp(-(k - 1) / j * math.log(2.0) + log_geo)))


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditCheck:
    """Outcome of one inequality family within an audit."""

    name: str
    k_range: tuple[int, int]
    worst_slack: float
    passed: bool
    consistency_only: bool = False


@dataclass(frozen=True)
class AuditReport:
    """A bundle of inequality checks with an overall verdict."""

    name: str
    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.consistency_only)

    def as_dict(self) -> dict:
        return {
            "audit": self.name,
            "verdict": "PASS" if self.passed else "FAIL",
            "checks": [
                {
                    "check": c.name,
                    "k_range": list(c.k_range),
                    "worst_slack": c.worst_slack,
                    "verdict": "PASS" if c.passed else "FAIL",
                    "consistency_only": c.consistency_only,
                }
                for c in self.checks
            ],
        }


_SLACK_TOL = 1.0 + 1e-9


def _ratio(lhs: float, rhs: float) -> float:
    if lhs == 0.0:
        return 0.0
    if rhs == 0.0:
        return math.inf
    return lhs / rhs


def carl_audit(
    eigenvalues: Sequence[complex],
    entropy_upper: SNumberSequence,
    consistency_only: bool = False,
) -> AuditReport:
    """Check eigenvalue moduli against entropy bounds.

    Two theorem families: pointwise |lambda_k| <= sqrt(2) e_k (valid in any
    Banach context), and the volume comparison on the span of principal
    vectors, (prod_{j<=k} |lambda_j|)^(1/k) <= inf_m 2^((m-1)/k) e_m, which
    is exact in Hilbert contexts because orthogonal projection of a covering
    ball onto a subspace keeps its radius.  Feed the geometric check
    Euclidean-context bounds only; for estimator-based or non-Hilbert inputs
    pass consistency_only=True, which turns the slack into a health record
    instead of a theorem test.  A failure on conforming inputs means a defect
    in the eigensolver or the bounds, never in the inequalities.
    """
    mods = np.abs(np.asarray(eigenvalues, dtype=complex))
    if mods.size and np.any(np.diff(mods) > 1e-12 * max(mods[0], 1e-300)):
        raise ValueError("eigenvalues must be ordered by nonincreasing modulus")
    if entropy_upper.kind != "entropy-upper":
        raise ValueError("carl_audit needs an upper entropy sequence")
    count = min(mods.size, len(entropy_upper))
    if count == 0:
        check = AuditCheck("carl_pointwise", (1, 0), 0.0, True, consistency_only)
        return AuditReport("carl", (check,))

    point_slack = 0.0
    for k in range(1, count + 1):
        point_slack = max(
            point_slack, _ratio(float(mods[k - 1]), math.sqrt(2.0) * entropy_upper.value(k))
        )

    geo_slack = 0.0
    log_mods = np.log(np.maximum(mods[:count], 1e-300))
    for k in range(1, count + 1):
        lhs = float(np.exp(np.mean(log_mods[:k]))) if mods[k - 1] > 0.0 else 0.0
        rhs = min(
            2.0 ** ((m - 1.0) / k) * entropy_upper.value(m)
            for m in range(1, len(entropy_upper) + 1)
        )
        geo_slack = max(geo_slack, _ratio(lhs, rhs))

    checks = (
        AuditCheck(
            "carl_pointwise", (1, count), point_slack, point_slack <= _SLACK_TOL,
            consistency_only,
        ),
        AuditCheck(
            "carl_geometric_mean", (1, count), geo_slack, geo_slack <= _SLACK_TOL,
            consistency_only,
        ),
    )
    return AuditReport("carl", checks)


def entropy_ideal_quasinorm(
    e: SNumberSequence | Sequence[float], p: float, q: float
) -> float:
    """Lorentz-style quasinorm of an entropy sequence.

    (sum_k e_k^q k^(q/p - 1))^(1/q), with the sup form sup_k e_k k^(1/p)
    at q = inf.
    """
    vals = np.asarray(e.values if isinstance(e, SNumberSequence) else e, dtype=float)
    if p <= 0.0 or q <= 0.0:
        raise ValueError("p and q must be positive")
    if vals.size == 0:
        return 0.0
    k = np.arange(1, vals.size + 1, dtype=float)
    if math.isinf(q):
        return float(np.max(vals * k ** (1.0 / p)))
    return float(np.sum(vals**q * k ** (q / p - 1.0)) ** (1.0 / q))


def composition_law_audit(
    svd_trials: int = 50,
    entropy_trials: int = 3,
    dim: int = 6,
    seed: int = 7,
) -> AuditReport:
    """Exercise the multiplicativity laws of approximation and entropy numbers.

    Exact singular values verify a_k(RST) <= |R| a_k(S) |T| and
    a_{k+l-1}(ST) <= a_k(S) a_l(T) on random Euclidean triples, with the
    identity as the equality case.  The entropy analogues pair a certified
    lower bound on the left with certified upper bounds on the right, so a
    violation is meaningful and not an artifact of bound slack.  Entropy
    duality has no proof in general: for a diagonal operator the two dual
    contexts are compared and recorded only.
    """
    rng = np.random.default_rng(seed)
    checks: list[AuditCheck] = []

    three_slack, index_slack = 0.0, 0.0
    for _ in range(svd_trials):
        r, s, t = (rng.standard_normal((dim, dim)) for _ in range(3))
        a_rst = approximation_numbers_hilbert(r @ s @ t)
        a_s = approximation_numbers_hilbert(s)
        norm_r = approximation_numbers_hilbert(r).value(1)
        norm_t = approximation_numbers_hilbert(t).value(1)
        s_t = approximation_numbers_hilbert(s @ t)
        a_t = approximation_numbers_hilbert(t)
        for k in range(1, dim + 1):
            three_slack = max(
                three_slack, _ratio(a_rst.value(k), norm_r * a_s.value(k) * norm_t)
            )
            for length in range(1, dim + 2 - k):
                index_slack = max(
                    index_slack,
                    _ratio(s_t.value(k + length - 1), a_s.value(k) * a_t.value(length)),
                )
    checks.append(
        AuditCheck("svd_three_factor", (1, dim), three_slack, three_slack <= _SLACK_TOL)
    )
    checks.append(
        AuditCheck("svd_index_additivity", (1, dim), index_slack, index_slack <= _SLACK_TOL)
    )

    eye = np.eye(2)
    ident = approximation_numbers_hilbert(eye)
    eq_slack = max(
        _ratio(ident.value(k + 1 - 1), ident.value(k) * ident.value(1)) for k in (1, 2)
    )
    checks.append(
        AuditCheck("identity_equality_case", (1, 2), eq_slack, abs(eq_slack - 1.0) <= 1e-12)
    )

    mult_slack, add_slack = 0.0, 0.0
    for _ in range(entropy_trials):
        s = rng.standard_normal((2, 2))
        t = rng.standard_normal((2, 2))
        lo_st, _ = entropy_numbers_bruteforce(s @ t, k_max=5, resolution=25)
        lo_sum, _ = entropy_numbers_bruteforce(s + t, k_max=5, resolution=25)
        _, up_s = entropy_numbers_bruteforce(s, k_max=3, resolution=25)
        _, up_t = entropy_numbers_bruteforce(t, k_max=3, resolution=25)
        for k in range(1, 4):
            for length in range(1, 4):
                mult_slack = max(
                    mult_slack,
                    _ratio(
                        lo_st.value(k + length - 1),
                        up_s.value(k) * up_t.value(length),
                    ),
                )
                add_slack = max(
                    add_slack,
                    _ratio(
                        lo_sum.value(k + length - 1),
                        up_s.value(k) + up_t.value(length),
                    ),
                )
    checks.append(
        AuditCheck("entropy_multiplicativity", (1, 5), mult_slack, mult_slack <= _SLACK_TOL)
    )
    checks.append(
        AuditCheck("entropy_sum_bound", (1, 5), add_slack, add_slack <= _SLACK_TOL)
    )

    # duality record: diag(1, 1/2) in a context and its formal dual; the
    # general comparability question is open, so this is never asserted
    diag = np.diag([1.0, 0.5])
    _, up_fwd = entropy_numbers_bruteforce(diag, k_max=4, norms=(math.inf, 2.0))
    _, up_dual = entropy_numbers_bruteforce(diag, k_max=4, norms=(2.0, 1.0))
    dual_slack = max(
        max(_ratio(a, b), _ratio(b, a))
        for a, b in zip(up_fwd.values, up_dual.values)
        if a > 0.0 or b > 0.0
    )
    checks.append(
        AuditCheck("entropy_duality_recorded", (1, 4), dual_slack, True, True)
    )

    return AuditReport("composition_laws", tuple(checks))
