"""Approximation and entropy numbers of finite-dimensional operators.

Approximation numbers come from singular values (Hilbert case).  Entropy
numbers of small real matrices are bracketed by certified bounds: an upper
bound from an explicit ball cover of the image of the unit ball (lattice
cloud, greedy seeding, alternating reassignment, candidate-lattice
refinement), and a lower bound from volume comparison and packing
certificates.  Audit routines then check the
eigenvalue/entropy and composition inequalities that any correct spectral
pipeline must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import svdvals

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
    has the same sequence.
    """
    m = np.atleast_2d(np.asarray(matrix))
    if m.size == 0:
        return SNumberSequence("approximation", ())
    return SNumberSequence("approximation", tuple(float(s) for s in svdvals(m)))


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


def _ball_cloud(dim: int, p: float, resolution: int) -> tuple[np.ndarray, float]:
    """Lattice points filling the unit l_p ball, with the mesh slack.

    Every point of the ball rounds to a retained lattice point at l_p
    distance at most the returned mesh, so covering the cloud covers the
    ball up to that slack.
    """
    h = 2.0 / (resolution - 1)
    mesh = (h / 2.0) * (1.0 if math.isinf(p) else dim ** (1.0 / p))
    half_steps = int(math.ceil((1.0 + h) / h))
    axis = h * np.arange(-half_steps, half_steps + 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    pts = pts[_vector_norms(pts, p) <= 1.0 + mesh + 1e-12]
    # lexicographic order makes every argmax/argmin tie-break deterministic
    order = np.lexsort(tuple(pts[:, c] for c in range(dim - 1, -1, -1)))
    return pts[order], mesh


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


def _one_center(points: np.ndarray) -> np.ndarray:
    """A good single cover center for the cluster (exact for l_inf)."""
    return 0.5 * (points.min(axis=0) + points.max(axis=0))


def _refine_candidates(points: np.ndarray, radius: float) -> np.ndarray:
    """Candidate centers on a lattice of pitch ~radius/4 over the hull box."""
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


def _extreme_points(cluster: np.ndarray) -> np.ndarray:
    """The cluster's hull vertices and Qhull-coplanar points.

    A cluster that is 1-D, flat (Qhull refuses it) or has at most n + 1
    points in R^n is returned whole.
    """
    dim = cluster.shape[1]
    if dim < 2 or cluster.shape[0] <= dim + 1:
        return cluster
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(cluster, qhull_options="Qc")
    except QhullError:
        return cluster
    return cluster[np.union1d(hull.vertices, hull.coplanar[:, 0])]


def _cover_radius(points: np.ndarray, seeds: list[int], dmin: np.ndarray, q: float) -> float:
    """Radius of an explicit cover of `points` by m balls in the l_q norm.

    Starts from the m greedy farthest-point `seeds` and every point's
    distance `dmin` to the nearest of them, then alternating reassignment with
    box-midpoint recentering, then one candidate-lattice polish per cluster.
    Any returned configuration is an actual cover, so the radius is a true
    upper bound regardless of how close the search got to optimal.

    The polish scores each candidate centre by its largest distance to the
    cluster's extreme points only (`_extreme_points`), which gives the same
    score as all of the cluster's points.  For a fixed candidate the l_q
    distance is convex in the point, so its maximum over the cluster is
    reached at a vertex of the cluster's convex hull.  A non-extreme point
    can tie that maximum only where the norm is not strictly convex (l_1,
    l_inf); then the tie lies on a supporting hyperplane of the hull, so the
    point is on the hull boundary, and Qhull's "Qc" keeps such points.  The
    assignment step and the final min-over-centres radius still run on all
    points, so the returned radius is that of an actual cover whichever
    candidate the polish picks.

    Every distance here comes from `_pairwise`, bitwise the value of the
    (points, centres, n) reduction, so each argmin, max and radius is too.
    The root stays on every entry: comparing sums of q-th powers instead
    could flip an argmin where two different sums have roots that round
    alike.
    """
    m = len(seeds)
    centers = points[seeds]
    best_r = float(dmin.max())

    # the distances to the accepted centres carry into the next round
    dists = _pairwise(points, centers, q)
    for _ in range(40):
        assign = np.argmin(dists, axis=1)
        moved = centers.copy()
        for c in range(m):
            cluster = points[assign == c]
            if cluster.shape[0]:
                moved[c] = _one_center(cluster)
        moved_dists = _pairwise(points, moved, q)
        r = float(moved_dists.min(axis=1).max())
        if r < best_r - 1e-15:
            best_r, centers, dists = r, moved, moved_dists
        else:
            break

    # polish each cluster against a local candidate lattice
    assign = np.argmin(dists, axis=1)
    del dists, moved_dists  # free both tables before the polish makes its own
    polished = centers.copy()
    for c in range(m):
        cluster = points[assign == c]
        if not cluster.shape[0]:
            continue
        cand = _refine_candidates(cluster, best_r)
        radii = _pairwise(_extreme_points(cluster), cand, q).max(axis=0)
        polished[c] = cand[int(np.argmin(radii))]
    r = float(_pairwise(points, polished, q).min(axis=1).max())
    return min(best_r, r)


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

    ball, mesh = _ball_cloud(cols, p, resolution)
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
    seeds, dmin = [], None
    uppers, lowers = [], []
    for k in range(1, k_max + 1):
        balls = 2 ** (k - 1)
        cover = 0.0
        if balls < image.shape[0]:
            seeds, dmin = _farthest_points(image, balls, q, seeds, dmin)
            cover = _cover_radius(image, seeds, dmin, q)
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
