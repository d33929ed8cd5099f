import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracspectra.fractal_measure import (
    AtomBudgetError,
    DimensionRangeError,
    OverlapError,
    ResolutionError,
    SimilitudeIFS,
    _lower_pair_counts,
    _pair_codes,
    _pair_digits,
    ball_measure_ratio,
    build_cantor_like,
    quadrature,
)

# frozen oracle: log(2)/log(3) computed independently
CANTOR_DIM = 0.6309297535714574


@pytest.fixture(scope="module")
def cantor():
    return build_cantor_like(1, 2, 1.0 / 3.0, [[0.0], [2.0 / 3.0]])


class TestBuildCantorLike:
    def test_middle_third_dimension(self, cantor):
        assert cantor.dimension == pytest.approx(CANTOR_DIM, abs=1e-14)

    def test_attractor_box_is_unit_interval(self, cantor):
        box = cantor.bounding_box()
        assert box[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert box[1, 0] == pytest.approx(1.0, abs=1e-14)

    def test_half_ratio_hits_full_dimension(self):
        with pytest.raises(DimensionRangeError):
            build_cantor_like(1, 2, 0.5, [[0.0], [0.5]])

    def test_planar_four_corner_dust(self):
        ifs = build_cantor_like(
            2, 4, 0.25,
            [[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]],
        )
        assert ifs.dimension == pytest.approx(1.0, abs=1e-14)

    def test_overlapping_cells_rejected(self):
        # three maps, ratio 0.3: d ~ 0.91 < 1, but the middle cell
        # [0.2, 0.5] intersects the left cell [0, 0.3]
        with pytest.raises(OverlapError):
            build_cantor_like(1, 3, 0.3, [[0.0], [0.2], [0.7]])

    def test_translation_count_mismatch(self):
        with pytest.raises(ValueError):
            build_cantor_like(1, 2, 1.0 / 3.0, [[0.0]])

    @given(
        m=st.integers(min_value=2, max_value=5),
        inv_gap=st.floats(min_value=1.05, max_value=4.0),
    )
    def test_moran_equation_holds(self, m, inv_gap):
        # spread m cells over [0, 1] with ratio strictly below 1/m
        r = 1.0 / (m * inv_gap)
        step = (1.0 - r) / (m - 1)
        ifs = build_cantor_like(1, m, r, [[i * step] for i in range(m)])
        assert abs(ifs.n_maps * ifs.ratio**ifs.dimension - 1.0) <= 1e-12
        assert 0.0 < ifs.dimension < 1.0


class TestSimilitudeIFS:
    def test_one_ratio_and_a_translation_array(self, cantor):
        ifs = SimilitudeIFS(1, 1.0 / 3.0, [[0.0], [2.0 / 3.0]])
        assert ifs.n_maps == 2 and ifs.translations.shape == (2, 1)
        assert ifs.dimension == cantor.dimension
        with pytest.raises(ValueError):
            ifs.translations[0, 0] = 1.0  # the structure is read-only

    @pytest.mark.parametrize(
        "ratio, translations",
        [
            (1.0, [[0.0], [0.5]]),
            (0.0, [[0.0], [0.5]]),
            (0.25, [[0.0, 0.0], [0.5, 0.5]]),
            (0.25, []),
        ],
        ids=["ratio-one", "ratio-zero", "wrong-dimension", "no-maps"],
    )
    def test_malformed_structure_refused(self, ratio, translations):
        with pytest.raises(ValueError):
            SimilitudeIFS(1, ratio, translations)

    def test_barycenter_is_fixed_by_the_averaged_map(self, cantor):
        b = cantor.barycenter()
        images = cantor.ratio * b + cantor.translations
        assert images.mean(axis=0) == pytest.approx(b, abs=1e-15)
        assert b == pytest.approx([0.5], abs=1e-15)

    def test_one_map_has_dimension_zero(self):
        # m = 1 gives d = log 1 / log(1/r) = 0, outside (0, n)
        with pytest.raises(DimensionRangeError):
            SimilitudeIFS(1, 0.5, [[0.0]])


class TestQuadrature:
    def test_level_one_cantor_atoms(self, cantor):
        mu = quadrature(cantor, 1)
        assert mu.atoms[:, 0] == pytest.approx([1.0 / 6.0, 5.0 / 6.0], abs=1e-15)
        assert mu.weights == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_level_eleven_count(self, cantor):
        mu = quadrature(cantor, 11)
        assert mu.n_atoms == 2048
        assert float(mu.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_word_order_lexicographic(self, cantor):
        mu = quadrature(cantor, 2)
        # word (i_0, i_1) is the atom t_{i_0} + r t_{i_1} + r^2 b, listed in
        # the order (0, 0), (0, 1), (1, 0), (1, 1)
        t, r, b = cantor.translations[:, 0], cantor.ratio, cantor.barycenter()[0]
        words = itertools.product(range(2), repeat=2)
        expected = [t[i] + r * t[j] + r**2 * b for i, j in words]
        assert mu.atoms[:, 0] == pytest.approx(expected, abs=1e-15)
        # leftmost word gives the leftmost atom for this system
        assert np.argmin(mu.atoms[:, 0]) == 0

    @pytest.mark.parametrize("level", range(1, 9))
    def test_first_moment_exact_by_symmetry(self, cantor, level):
        mu = quadrature(cantor, level)
        assert float(mu.weights @ mu.atoms[:, 0]) == pytest.approx(0.5, abs=1e-14)

    def test_budget_guard_names_count(self, cantor):
        with pytest.raises(AtomBudgetError, match="2\\*\\*25"):
            quadrature(cantor, 25, atom_budget=1000)

    def test_negative_level_names_the_level(self, cantor):
        with pytest.raises(ValueError, match="-1"):
            quadrature(cantor, -1)

    def test_common_weight_is_the_inverse_atom_count(self, cantor):
        mu = quadrature(cantor, 5)
        assert mu.weight == 1.0 / 32.0
        assert np.array_equal(mu.weights, np.full(32, 1.0 / 32.0))

    @pytest.mark.parametrize("level", [0, 4, 9])
    def test_cell_diameter_shrinks_by_the_ratio(self, cantor, level):
        mu = quadrature(cantor, level)
        assert cantor.diameter() == pytest.approx(1.0, abs=1e-15)
        assert mu.cell_diameter() == pytest.approx(3.0**-level, rel=1e-14)

    def test_planar_dust_atoms(self):
        ifs = build_cantor_like(
            2, 4, 0.25,
            [[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]],
        )
        mu = quadrature(ifs, 3)
        assert mu.atoms.shape == (64, 2)
        # the atoms' mean is the barycenter, here the center of the unit square
        assert mu.weights @ mu.atoms == pytest.approx([0.5, 0.5], abs=1e-14)
        box = ifs.bounding_box()
        assert np.all((mu.atoms >= box[0]) & (mu.atoms <= box[1]))

    def test_weights_sum_to_one_invariant(self, cantor):
        for level in (3, 6, 9):
            mu = quadrature(cantor, level)
            assert abs(float(mu.weights.sum()) - 1.0) <= 1e-12
            box = cantor.bounding_box()
            assert np.all(mu.atoms >= box[0] - 1e-12)
            assert np.all(mu.atoms <= box[1] + 1e-12)


class TestPairCounts:
    @pytest.mark.parametrize("level", range(8))
    @pytest.mark.parametrize(
        "dim, maps",
        [
            (1, (2, 1.0 / 3.0, [[0.0], [2.0 / 3.0]])),
            (1, (3, 0.2, [[0.0], [math.sqrt(2.0) - 1.0], [0.8]])),
            (2, (3, 0.3, [[0.0, 0.0], [0.7, 0.1], [0.2, 0.7]])),
        ],
        ids=["bundled-cantor", "three-maps", "2d-dust"],
    )
    def test_counts_equal_the_bincount_of_the_codes(self, dim, maps, level):
        # the counts of the codes below the coincident one, mid: the N (N -
        # 1) / 2 off-diagonal pairs, one of each mirrored pair
        ifs = build_cantor_like(dim, *maps)
        counts = _lower_pair_counts(ifs, level)
        mid = _pair_digits(ifs)[0].shape[0] ** level // 2
        expect = np.bincount(_pair_codes(ifs, level).ravel())[:mid]
        assert counts.dtype == expect.dtype and np.array_equal(counts, expect)
        n = ifs.n_maps**level
        assert counts.sum() == (n * n - n) // 2


class TestBallMeasureRatio:
    def test_left_half_ball(self, cantor):
        mu = quadrature(cantor, 8)
        # ball of radius 1/3 at the origin captures exactly the left cell
        ratio = ball_measure_ratio(mu, [0.0], 1.0 / 3.0)
        assert ratio == pytest.approx(0.5 * 3.0**CANTOR_DIM, abs=1e-12)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_full_set_ball(self, cantor):
        mu = quadrature(cantor, 8)
        assert ball_measure_ratio(mu, [0.0], 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_far_center_zero(self, cantor):
        mu = quadrature(cantor, 8)
        assert ball_measure_ratio(mu, [5.0], 0.25) == 0.0

    def test_radius_must_be_positive(self, cantor):
        mu = quadrature(cantor, 8)
        for rho in (0.0, -0.5):
            with pytest.raises(ValueError, match="radius must be positive"):
                ball_measure_ratio(mu, [0.0], rho)

    def test_resolution_guard(self, cantor):
        mu = quadrature(cantor, 3)
        with pytest.raises(ResolutionError):
            ball_measure_ratio(mu, [0.0], 0.05)

    def test_dset_regularity_band(self, cantor):
        # 100 probes: centers on the set, radii from atomic scale to diameter
        mu = quadrature(cantor, 11)
        rng = np.random.default_rng(20260818)
        centers = mu.atoms[rng.integers(0, mu.n_atoms, size=20)]
        radii = np.geomspace(mu.cell_diameter() * 10.0, 1.0, 5)
        ratios = [
            ball_measure_ratio(mu, c, float(rho))
            for c in centers
            for rho in radii
        ]
        assert len(ratios) == 100
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) <= 8.0
