import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspectra import s_numbers
from fracspectra.s_numbers import (
    AuditCheck,
    AuditReport,
    SNumberSequence,
    approximation_numbers_hilbert,
    carl_audit,
    composition_law_audit,
    entropy_estimate_diagonal,
    entropy_ideal_quasinorm,
    entropy_numbers_bruteforce,
    entropy_volume_lower,
)


class TestSNumberSequence:
    def test_kind_guard(self) -> None:
        with pytest.raises(ValueError, match="kind"):
            SNumberSequence("spectral", (1.0,))

    def test_monotonicity_guard(self) -> None:
        with pytest.raises(ValueError, match="nonincreasing"):
            SNumberSequence("approximation", (1.0, 2.0))
        with pytest.raises(ValueError):
            SNumberSequence("approximation", (1.0, -0.5))

    def test_value_indexing(self) -> None:
        seq = SNumberSequence("approximation", (3.0, 1.0))
        assert seq.value(1) == 3.0
        assert seq.value(2) == 1.0
        assert seq.value(7) == 0.0
        with pytest.raises(ValueError):
            seq.value(0)

    def test_jitter_is_washed(self) -> None:
        seq = SNumberSequence("approximation", (1.0, 1.0 + 1e-15))
        assert seq.values[1] <= seq.values[0]


class TestApproximationNumbers:
    def test_diagonal_matrix(self) -> None:
        seq = approximation_numbers_hilbert(np.diag([3.0, 1.0]))
        assert seq.values == (3.0, 1.0)

    def test_identity(self) -> None:
        seq = approximation_numbers_hilbert(np.eye(5))
        assert seq.values == (1.0,) * 5

    def test_adjoint_has_equal_sequence(self) -> None:
        rng = np.random.default_rng(5)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = approximation_numbers_hilbert(m)
        b = approximation_numbers_hilbert(m.conj().T)
        assert np.allclose(a.values, b.values, rtol=1e-12, atol=0.0)

    def test_first_value_is_operator_norm(self) -> None:
        rng = np.random.default_rng(6)
        m = rng.standard_normal((7, 7))
        seq = approximation_numbers_hilbert(m)
        assert seq.value(1) == pytest.approx(np.linalg.norm(m, 2), abs=1e-10)

    def test_diagonal_closed_form(self) -> None:
        # a diagonal matrix has the moduli of its entries, sorted down
        seq = approximation_numbers_hilbert(np.diag([0.25, -1.0, 0.5]))
        assert seq.values == (1.0, 0.5, 0.25)

    def test_constant_diagonal(self) -> None:
        seq = approximation_numbers_hilbert(0.7 * np.eye(4))
        assert np.allclose(seq.values, (0.7,) * 4, rtol=1e-15, atol=0.0)

    def test_rank_one_has_one_nonzero_value(self) -> None:
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 0.0, 4.0, 0.0])
        seq = approximation_numbers_hilbert(np.outer(u, v))
        assert len(seq) == 3
        assert seq.value(1) == pytest.approx(15.0, rel=1e-14)
        assert max(seq.values[1:]) <= 1e-14

    def test_empty_matrix(self) -> None:
        seq = approximation_numbers_hilbert(np.zeros((0, 3)))
        assert seq.values == ()
        assert seq.value(1) == 0.0


class TestEntropyBruteForce:
    def test_half_diagonal_sup_norm(self) -> None:
        lower, upper = entropy_numbers_bruteforce(
            np.diag([1.0, 0.5]), k_max=3, norms=(math.inf, math.inf)
        )
        # one sup-ball cover of [-1,1]x[-1/2,1/2] cannot beat radius 1;
        # two balls split the long axis at exactly 1/2
        assert lower.value(1) == pytest.approx(1.0, abs=1e-12)
        assert 1.0 <= upper.value(1) <= 1.05
        assert lower.value(2) == pytest.approx(0.5, abs=1e-12)
        assert 0.5 <= upper.value(2) <= 0.55

    def test_zero_matrix(self) -> None:
        lower, upper = entropy_numbers_bruteforce(np.zeros((2, 2)), k_max=4)
        assert lower.values == (0.0,) * 4
        assert upper.values == (0.0,) * 4

    def test_volume_lower_bound_euclidean(self) -> None:
        bound = entropy_volume_lower(np.diag([1.0, 0.5]), 2, (2.0, 2.0))
        assert bound == pytest.approx(2.0**-0.5 * 0.5**0.5, abs=1e-14)
        lower, _ = entropy_numbers_bruteforce(np.diag([1.0, 0.5]), k_max=2)
        assert lower.value(2) >= 0.5 - 1e-12

    def test_lower_never_exceeds_upper(self) -> None:
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = rng.standard_normal((2, 2))
            lower, upper = entropy_numbers_bruteforce(m, k_max=6, resolution=25)
            for lo, hi in zip(lower.values, upper.values):
                assert lo <= hi + 1e-12

    def test_dimension_guard(self) -> None:
        with pytest.raises(ValueError, match="dimension"):
            entropy_numbers_bruteforce(np.eye(4), k_max=2)

    @pytest.mark.parametrize(
        "matrix",
        [[[math.inf, 0.0], [0.0, 1.0]], np.zeros((0, 0)), [[math.nan]]],
        ids=["inf", "empty", "nan"],
    )
    def test_empty_or_nonfinite_guard(self, matrix) -> None:
        with pytest.raises(ValueError, match="nonempty, finite"):
            entropy_numbers_bruteforce(np.asarray(matrix), k_max=2)

    def test_k_guard(self) -> None:
        with pytest.raises(ValueError, match="k_max"):
            entropy_numbers_bruteforce(np.eye(2), k_max=8)

    def test_real_only(self) -> None:
        with pytest.raises(ValueError, match="real"):
            entropy_numbers_bruteforce(np.eye(2) * (1 + 0j), k_max=2)

    def test_three_dimensional_brackets(self) -> None:
        lower, upper = entropy_numbers_bruteforce(
            np.diag([1.0, 0.6, 0.3]), k_max=4, resolution=13
        )
        assert lower.value(1) == pytest.approx(1.0, abs=1e-12)
        assert upper.value(1) >= 1.0
        for lo, hi in zip(lower.values, upper.values):
            assert 0.0 < lo <= hi

    @pytest.mark.parametrize("resolution", [1, 0, -3, 3.5, True])
    def test_resolution_guard(self, resolution) -> None:
        with pytest.raises(ValueError, match="resolution"):
            entropy_numbers_bruteforce(np.eye(2), k_max=2, resolution=resolution)

    def test_one_interior_point_packs_nothing(self) -> None:
        # resolution 2 leaves only the origin inside the unit ball
        lower, upper = entropy_numbers_bruteforce(np.eye(2), k_max=2, resolution=2)
        assert lower.value(2) == pytest.approx(
            entropy_volume_lower(np.eye(2), 2, (2.0, 2.0)), abs=1e-15
        )
        assert lower.value(2) <= upper.value(2)

    def test_packing_needs_more_points_than_balls(self) -> None:
        # resolution 3 leaves three interior points of [-1, 1]; they cannot
        # certify anything against four or eight balls, and the identity on
        # R^1 has e_k = 2^(1-k) exactly
        lower, upper = entropy_numbers_bruteforce(np.eye(1), k_max=4, resolution=3)
        for k in range(1, 5):
            assert lower.value(k) <= 2.0 ** (1 - k) <= upper.value(k)


def _all_points(cluster: np.ndarray) -> np.ndarray:
    return cluster


_POLISH_MATRICES = {
    "dim1": np.array([[-0.7]]),
    "dim2": np.array([[0.9, -0.4], [0.3, 0.8]]),
    "dim3": np.array([[0.8, 0.2, -0.5], [-0.3, 0.7, 0.1], [0.4, -0.6, 0.9]]),
    "rank1-dim2": np.outer([1.0, -0.5], [0.6, 0.8]),
    "rank2-dim3": np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [1.0, 1.0, 1.0]]),
}

_POLISH_NORMS = pytest.mark.parametrize(
    "norms",
    [(2.0, 2.0), (math.inf, 2.0), (2.0, 1.0), (1.0, math.inf), (math.inf, math.inf)],
    ids=["l2-l2", "linf-l2", "l2-l1", "l1-linf", "linf-linf"],
)


class TestHullPolish:
    """The hull-point polish returns what polishing on every point returns."""

    @_POLISH_NORMS
    @pytest.mark.parametrize("name", sorted(_POLISH_MATRICES))
    def test_bitwise_equal_to_all_points_polish(self, monkeypatch, name, norms) -> None:
        # the rank-deficient images are flat, so Qhull refuses their clusters
        # and the polish falls back to all points without raising
        matrix = _POLISH_MATRICES[name]
        hull = entropy_numbers_bruteforce(matrix, k_max=4, norms=norms, resolution=17)
        monkeypatch.setattr(s_numbers, "_extreme_points", _all_points)
        reference = entropy_numbers_bruteforce(
            matrix, k_max=4, norms=norms, resolution=17
        )
        assert hull == reference

    def test_one_ball_bitwise_equal_to_all_points_polish(self, monkeypatch) -> None:
        matrix = _POLISH_MATRICES["dim3"]
        hull = entropy_numbers_bruteforce(matrix, k_max=1, resolution=21)
        monkeypatch.setattr(s_numbers, "_extreme_points", _all_points)
        assert hull == entropy_numbers_bruteforce(matrix, k_max=1, resolution=21)

    @_POLISH_NORMS
    @pytest.mark.parametrize("name", ["dim2", "dim3"])
    def test_every_candidate_scores_the_same(self, name, norms) -> None:
        # the exactness claim itself: the farthest extreme point is as far
        # as the farthest point, bitwise, for lattice and random candidates
        p, q = norms
        matrix = _POLISH_MATRICES[name]
        image = s_numbers._ball_cloud(matrix.shape[1], p, 17)[0] @ matrix.T
        rng = np.random.default_rng(0)
        cand = np.vstack(
            [
                s_numbers._refine_candidates(image, 0.3),
                rng.uniform(-1.5, 1.5, (200, matrix.shape[0])),
            ]
        )
        kept = s_numbers._extreme_points(image)
        assert kept.shape[0] < image.shape[0]
        hull_radii = s_numbers._pairwise(kept, cand, q).max(axis=0)
        all_radii = s_numbers._pairwise(image, cand, q).max(axis=0)
        assert np.array_equal(hull_radii, all_radii)

    def test_full_cluster_keeps_its_boundary_only(self) -> None:
        cloud, _ = s_numbers._ball_cloud(2, math.inf, 9)
        kept = s_numbers._extreme_points(cloud)
        # the lattice square keeps its 32 boundary points, not its 49 inner ones
        assert kept.shape == (32, 2)
        assert np.all(np.isclose(np.abs(kept).max(axis=1), np.abs(cloud).max()))

    @pytest.mark.parametrize(
        "cluster",
        [
            np.linspace(-1.0, 1.0, 7)[:, None],
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[t, 2.0 * t] for t in np.linspace(-1.0, 1.0, 9)]),
            np.array([[x, y, x + y] for x in range(4) for y in range(4)], dtype=float),
        ],
        ids=["1-D", "n+1 points", "flat 2-D", "flat 3-D"],
    )
    def test_degenerate_cluster_is_kept_whole(self, cluster) -> None:
        assert s_numbers._extreme_points(cluster) is cluster


class TestSeeding:
    @_POLISH_NORMS
    def test_continued_seeding_equals_a_fresh_one(self, norms) -> None:
        # every k extends the previous k's cover seeding, which must give
        # the picks and distances of seeding from scratch, bitwise
        q = norms[1]
        image = s_numbers._ball_cloud(3, norms[0], 17)[0] @ _POLISH_MATRICES["dim3"].T
        idx, dmin = [], None
        for count in (1, 2, 4, 8, 9):
            idx, dmin = s_numbers._farthest_points(image, count, q, idx, dmin)
            fresh_idx, fresh_dmin = s_numbers._farthest_points(image, count, q)
            assert idx == fresh_idx
            assert np.array_equal(dmin, fresh_dmin)


_Q_VALUES = [1.0, 1.5, 2.0, 3.0, math.inf]


def _reference_norms(a: np.ndarray, q: float) -> np.ndarray:
    """The l_q rule over the last axis as one numpy reduction."""
    a = np.abs(a)
    if math.isinf(q):
        return np.max(a, axis=-1)
    return np.sum(a**q, axis=-1) ** (1.0 / q)


def _reference_pairwise(points: np.ndarray, centers: np.ndarray, q: float) -> np.ndarray:
    """Distances through the (points, centres, n) array of differences."""
    return _reference_norms(points[:, None, :] - centers[None], q)


@st.composite
def _clouds(draw) -> tuple[np.ndarray, np.ndarray]:
    """Points and centres in R^n, n <= 3: random floats, some set to exact
    zeros or small integers so that distances vanish and tie, points drawn
    with repeats from a small pool, and some centres sitting on points."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.uniform(-2.0, 2.0, (draw(st.integers(1, 12)), n))
    pool[rng.random(pool.shape) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = 0.0
    pool[rng.random(pool.shape) < 0.2] = rng.integers(-3, 4)
    points = pool[rng.integers(0, len(pool), draw(st.integers(1, 60)))]
    centers = np.vstack(
        [
            pool[rng.integers(0, len(pool), draw(st.integers(0, 4)))],
            rng.uniform(-2.0, 2.0, (draw(st.integers(1, 5)), n)),
        ]
    )
    return points, centers


class TestDistanceRule:
    """The coordinate-wise distance loop is bitwise the 3-D reduction and
    holds no 3-D array."""

    @given(cloud=_clouds(), q=st.sampled_from(_Q_VALUES))
    @settings(max_examples=200, deadline=None)
    def test_pairwise_equals_the_3d_formula(self, cloud, q) -> None:
        points, centers = cloud
        assert np.array_equal(
            s_numbers._pairwise(points, centers, q), _reference_pairwise(points, centers, q)
        )

    @given(cloud=_clouds(), q=st.sampled_from(_Q_VALUES))
    @settings(max_examples=200, deadline=None)
    def test_vector_norms_equal_the_reduction(self, cloud, q) -> None:
        points = cloud[0]
        assert np.array_equal(s_numbers._vector_norms(points, q), _reference_norms(points, q))

    @pytest.mark.parametrize("q", _Q_VALUES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_large_cloud_equals_the_3d_formula(self, n, q) -> None:
        # long enough rows for numpy's vector loops and their tails
        rng = np.random.default_rng(n)
        points = rng.uniform(-1.0, 1.0, (2003, n))
        points[::7] = 0.0
        points[1::5] = points[::5][: len(points[1::5])]
        centers = np.vstack([points[:5], rng.uniform(-1.0, 1.0, (12, n))])
        assert np.array_equal(
            s_numbers._pairwise(points, centers, q), _reference_pairwise(points, centers, q)
        )
        assert np.array_equal(s_numbers._vector_norms(points, q), _reference_norms(points, q))

    def test_search_never_holds_a_points_by_centres_by_n_array(self, monkeypatch) -> None:
        # the largest distance table the search makes, as a (points, centres,
        # 3) float64 array, is more than the whole call may hold at its peak;
        # the hull polish imports scipy.spatial lazily, so load it untraced
        import scipy.spatial  # noqa: F401

        largest = 0
        pairwise = s_numbers._pairwise

        def spy(points, centers, q):
            nonlocal largest
            largest = max(largest, 8 * points.size * centers.shape[0])
            return pairwise(points, centers, q)

        monkeypatch.setattr(s_numbers, "_pairwise", spy)
        matrix = _POLISH_MATRICES["dim3"]
        tracemalloc.start()
        try:
            entropy_numbers_bruteforce(matrix, k_max=5, resolution=31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < largest, f"peak {peak} B reaches one 3-D table, {largest} B"


# (trial, norms, lower, upper): float.hex of the entropy bounds (k_max=4,
# resolution=31) of criterion 4's first twelve matrices under (2, 2), and of
# its first 3 x 3 matrix (trial 2) under (inf, 2) and (2, 1)
_PINNED_ENTROPY = [
    (0, (2.0, 2.0),
     "0x1.986cf24b0c378p-3 0x1.986cf24b0c378p-4 0x1.986cf24b0c378p-5 0x1.986cf24b0c378p-6",
     "0x1.a60a2d91d0e40p-3 0x1.b3a768d895908p-4 0x1.1048a1875d7a6p-4 0x1.1048a1875d7a5p-5"),
    (1, (2.0, 2.0),
     "0x1.dd5084ab28488p-1 0x1.dd5084ab28488p-2 0x1.dd319309a5934p-3 0x1.dd319309a5934p-4",
     "0x1.0895aacd3785bp+0 0x1.177a803db25dfp-1 0x1.58e2a2d6f1c81p-2 0x1.8f96b01c35152p-3"),
    (2, (2.0, 2.0),
     "0x1.6fa998f04bcc6p+0 0x1.cb8163869f169p-1 0x1.4438ce824026fp-1 0x1.0155c8aea7b4cp-1",
     "0x1.aee08ee4dc0e8p+0 0x1.6d8a32bfb68dcp+0 0x1.214d6138af18ep+0 0x1.f3e2e639e3cadp-1"),
    (3, (2.0, 2.0),
     "0x1.34ca0d1a50788p-1 0x1.34ca0d1a50788p-2 0x1.34ca0d1a50788p-3 0x1.34ca0d1a50788p-4",
     "0x1.3f150d8a1ff40p-1 0x1.49600df9ef6f7p-2 0x1.9bb811786b4b7p-3 0x1.9bb811786b4b6p-4"),
    (4, (2.0, 2.0),
     "0x1.154f21c2a5271p+0 0x1.1b0ac29bf6841p-1 0x1.6571b3232c184p-2 0x1.a7a7b6d8e3fb8p-3",
     "0x1.3622f65622f1dp+0 0x1.70b337a12a064p-1 0x1.0a21a80b4fc8ap-1 0x1.76eb3703d7336p-2"),
    (5, (2.0, 2.0),
     "0x1.63178b16b3298p-1 0x1.bbe592ab7a232p-2 0x1.15fd203100494p-2 0x1.da9bdd3ea54cdp-3",
     "0x1.9ae650f28a9a5p-1 0x1.522004fb7ff41p-1 0x1.04a38cea9a79cp-1 0x1.93bd4a66aa492p-2"),
    (6, (2.0, 2.0),
     "0x1.eb7e51c13d3d4p-1 0x1.eb7e51c13d3d4p-2 0x1.eb7e51c13d3d4p-3 0x1.eb7e51c13d3d4p-4",
     "0x1.fbe0658bf27b0p-1 0x1.06213cab53dc6p-1 0x1.47a98bd628d39p-2 0x1.47a98bd628d3ap-3"),
    (7, (2.0, 2.0),
     "0x1.2591fbd8a1cc7p+0 0x1.2a75d0ba1488fp-1 0x1.40482ee019c40p-2 0x1.7ca0bdfa7b93ep-3",
     "0x1.42062fb3dae5dp+0 0x1.6b830fd079a6ep-1 0x1.e14909ab2afe4p-2 0x1.7153026e73a16p-2"),
    (8, (2.0, 2.0),
     "0x1.d6af7f1b9345dp+0 0x1.da8ecd4c0165cp-1 0x1.fa2fb1122b7d3p-2 0x1.28036bb61b22fp-2",
     "0x1.138a8f3c661c5p+1 0x1.383f39162b0cap+0 0x1.aa0f42a73781cp-1 0x1.3b60f7e358e0bp-1"),
    (9, (2.0, 2.0),
     "0x1.31c7c56d76c34p-2 0x1.31c7c56d76c34p-3 0x1.31c7c56d76c34p-4 0x1.31c7c56d76c34p-5",
     "0x1.3bf918cefab8bp-2 0x1.462a6c307eae2p-3 0x1.97b5073c9e59bp-4 0x1.97b5073c9e598p-5"),
    (10, (2.0, 2.0),
     "0x1.a2f720abefac7p-1 0x1.c3311fc1cd8b8p-2 0x1.1b1bed86f7bffp-2 0x1.906070aa41444p-3",
     "0x1.d174dd09f4712p-1 0x1.3a947f6bd01e2p-1 0x1.b1809fccfd38dp-2 0x1.4afe27e383282p-2"),
    (11, (2.0, 2.0),
     "0x1.60170d0a8868ap+0 0x1.6518a086f96eep-1 0x1.84786c92bb252p-2 0x1.d93b7c817f0f0p-3",
     "0x1.95cf233b7dcadp+0 0x1.e58347dfa5181p-1 0x1.44b42e445d2d5p-1 0x1.d49c445629487p-2"),
    (2, (math.inf, 2.0),
     "0x1.2beeaee7f418dp+1 0x1.7073f1c12da39p+0 0x1.f0933708f500fp-1 0x1.7d514e8f24442p-1",
     "0x1.389c6ee4d5f64p+1 0x1.ef718203a0082p+0 0x1.6944292b741bcp+0 0x1.28f0d230f9869p+0"),
    (2, (2.0, 1.0),
     "0x1.26a9cbb6cf73ep+1 0x1.3ef652d4dd0bcp+0 0x1.efde81db39017p-1 0x1.78e4116166c0ep-1",
     "0x1.5c4bef2df2c1cp+1 0x1.10d6d91603297p+1 0x1.e22c27b318768p+0 0x1.9077fb330fec6p+0"),
]


def _criterion_4_matrices(count: int) -> list[np.ndarray]:
    """The first matrices of the acceptance suite's criterion 4 corpus."""
    rng = np.random.default_rng(20260818)
    return [rng.uniform(-1.0, 1.0, (1 + t % 3, 1 + t % 3)) for t in range(count)]


class TestPinnedEntropySequences:
    """The bounds stay bitwise what the search gave when they were recorded
    (with distances through 3-D difference arrays); one changed bit fails."""

    @pytest.mark.parametrize(
        "trial, norms, lower_hex, upper_hex",
        _PINNED_ENTROPY,
        ids=[f"trial{t}-{norms}" for t, norms, _, _ in _PINNED_ENTROPY],
    )
    def test_bounds_are_bitwise_pinned(self, trial, norms, lower_hex, upper_hex) -> None:
        matrix = _criterion_4_matrices(trial + 1)[trial]
        lower, upper = entropy_numbers_bruteforce(
            matrix, k_max=4, norms=norms, resolution=31
        )
        assert [v.hex() for v in lower.values] == lower_hex.split()
        assert [v.hex() for v in upper.values] == upper_hex.split()


class TestEntropyEstimator:
    def test_two_term_example(self) -> None:
        assert entropy_estimate_diagonal([1.0, 0.5], 2) == pytest.approx(0.5, abs=1e-14)

    def test_single_term(self) -> None:
        assert entropy_estimate_diagonal([0.3], 5) == pytest.approx(
            0.3 * 2.0**-4, abs=1e-15
        )

    def test_flat_sequence(self) -> None:
        assert entropy_estimate_diagonal([1.0] * 7, 4) == pytest.approx(
            2.0 ** (-3.0 / 7.0), abs=1e-14
        )

    def test_guards(self) -> None:
        with pytest.raises(ValueError):
            entropy_estimate_diagonal([], 1)
        with pytest.raises(ValueError):
            entropy_estimate_diagonal([0.5, 1.0], 1)
        with pytest.raises(ValueError):
            entropy_estimate_diagonal([1.0, -1.0], 1)
        with pytest.raises(ValueError):
            entropy_estimate_diagonal([1.0], 0)

    @given(
        k=st.integers(min_value=1, max_value=12),
        decay=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_k(self, k: int, decay: float) -> None:
        sigma = [decay**j for j in range(10)]
        assert entropy_estimate_diagonal(sigma, k + 1) <= entropy_estimate_diagonal(
            sigma, k
        ) + 1e-15


class TestCarlAudit:
    def test_euclidean_diagonal_passes(self) -> None:
        _, upper = entropy_numbers_bruteforce(np.diag([1.0, 0.5]), k_max=4)
        report = carl_audit([1.0, 0.5], upper)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["carl_pointwise", "carl_geometric_mean"]

    def test_zero_operator_vacuous(self) -> None:
        upper = SNumberSequence("entropy-upper", (0.0, 0.0))
        report = carl_audit([0.0, 0.0], upper)
        assert report.passed
        assert all(c.worst_slack == 0.0 for c in report.checks)

    def test_random_euclidean_certified(self) -> None:
        rng = np.random.default_rng(12)
        for _ in range(5):
            m = rng.standard_normal((2, 2))
            lam = np.linalg.eigvals(m)
            lam = lam[np.argsort(-np.abs(lam))]
            _, upper = entropy_numbers_bruteforce(m, k_max=6, resolution=25)
            assert carl_audit(lam, upper).passed

    def test_consistency_flag_excuses_verdict(self) -> None:
        upper = SNumberSequence("entropy-upper", (0.1,))
        report = carl_audit([5.0], upper, consistency_only=True)
        assert report.passed  # flagged checks do not gate the verdict
        assert all(c.consistency_only for c in report.checks)
        strict = carl_audit([5.0], upper)
        assert not strict.passed

    def test_ordering_guard(self) -> None:
        upper = SNumberSequence("entropy-upper", (1.0,))
        with pytest.raises(ValueError, match="nonincreasing"):
            carl_audit([0.5, 1.0], upper)

    def test_needs_upper_kind(self) -> None:
        lower = SNumberSequence("entropy-lower", (1.0,))
        with pytest.raises(ValueError, match="upper"):
            carl_audit([1.0], lower)


class TestEntropyIdealQuasinorm:
    def test_single_spike(self) -> None:
        assert entropy_ideal_quasinorm([1.0, 0.0, 0.0], 3.0, 1.5) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_critical_decay_sup_form(self) -> None:
        e = [k ** (-1.0 / 2.0) for k in range(1, 51)]
        assert entropy_ideal_quasinorm(e, 2.0, math.inf) == pytest.approx(1.0, abs=1e-12)

    def test_harmonic_square_sum(self) -> None:
        e = [1.0 / k for k in range(1, 101)]
        value = entropy_ideal_quasinorm(e, 2.0, 2.0)
        assert value == pytest.approx(1.2786648897130526, abs=1e-12)
        assert value == pytest.approx(
            math.sqrt(sum(k**-2.0 for k in range(1, 101))), abs=1e-12
        )

    def test_accepts_sequence_type(self) -> None:
        seq = SNumberSequence("entropy-upper", (1.0, 0.5))
        assert entropy_ideal_quasinorm(seq, 1.0, 1.0) == pytest.approx(1.5, abs=1e-14)

    def test_positive_indices_guard(self) -> None:
        with pytest.raises(ValueError):
            entropy_ideal_quasinorm([1.0], 0.0, 2.0)
        with pytest.raises(ValueError):
            entropy_ideal_quasinorm([1.0], 2.0, -1.0)


class TestCompositionAudit:
    def test_full_audit_passes(self) -> None:
        report = composition_law_audit(svd_trials=50, entropy_trials=3)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["identity_equality_case"].worst_slack == pytest.approx(
            1.0, abs=1e-12
        )
        assert by_name["entropy_duality_recorded"].consistency_only
        assert not by_name["svd_three_factor"].consistency_only

    def test_json_shape(self) -> None:
        report = composition_law_audit(svd_trials=3, entropy_trials=1)
        payload = report.as_dict()
        assert payload["audit"] == "composition_laws"
        assert payload["verdict"] in ("PASS", "FAIL")
        for check in payload["checks"]:
            assert set(check) == {
                "check",
                "k_range",
                "worst_slack",
                "verdict",
                "consistency_only",
            }

    def test_dict_keeps_an_infinite_slack_through_json(self) -> None:
        # audits.json is written with sorted keys; an inf slack must survive it
        report = AuditReport(
            "demo",
            (
                AuditCheck("zero_rhs", (1, 4), math.inf, False),
                AuditCheck("info", (2, 3), 0.5, False, consistency_only=True),
            ),
        )
        payload = report.as_dict()
        assert payload["verdict"] == "FAIL"
        assert payload["checks"][0]["worst_slack"] == math.inf
        assert payload["checks"][1] == {
            "check": "info",
            "k_range": [2, 3],
            "worst_slack": 0.5,
            "verdict": "FAIL",
            "consistency_only": True,
        }
        assert json.loads(json.dumps(payload, sort_keys=True, indent=2)) == payload

    def test_deterministic_given_seed(self) -> None:
        a = composition_law_audit(svd_trials=5, entropy_trials=1, seed=3)
        b = composition_law_audit(svd_trials=5, entropy_trials=1, seed=3)
        assert a == b
