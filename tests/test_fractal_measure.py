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
    ball_measure_ratio,
    build_cantor_like,
    export_atoms_csv,
    lp_norm_on_gamma,
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
    def test_moran_residual_small(self, m, inv_gap):
        # spread m cells over [0, 1] with ratio strictly below 1/m
        r = 1.0 / (m * inv_gap)
        step = (1.0 - r) / (m - 1)
        ifs = build_cantor_like(1, m, r, [[i * step] for i in range(m)])
        assert ifs.moran_residual() <= 1e-12
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
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_word_order_lexicographic(self, cantor):
        mu = quadrature(cantor, 2)
        assert mu.words == ((0, 0), (0, 1), (1, 0), (1, 1))
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

    def test_weights_sum_to_one_invariant(self, cantor):
        for level in (3, 6, 9):
            mu = quadrature(cantor, level)
            assert abs(mu.total_mass() - 1.0) <= 1e-12
            box = cantor.bounding_box()
            assert np.all(mu.atoms >= box[0] - 1e-12)
            assert np.all(mu.atoms <= box[1] + 1e-12)


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


class TestLpNorm:
    def test_two_atom_frozen_value(self, cantor):
        mu = quadrature(cantor, 1)
        got = lp_norm_on_gamma(np.array([1.0, 2.0]), mu, 2.0)
        assert got == pytest.approx(math.sqrt(2.5), abs=1e-14)

    def test_constant_function_any_p(self, cantor):
        mu = quadrature(cantor, 5)
        vals = np.full(mu.n_atoms, 3.25)
        for p in (1.0, 1.5, 2.0, 7.0):
            assert lp_norm_on_gamma(vals, mu, p) == pytest.approx(3.25, rel=1e-12)

    def test_sup_norm(self, cantor):
        mu = quadrature(cantor, 4)
        vals = np.linspace(-2.0, 1.0, mu.n_atoms)
        assert lp_norm_on_gamma(vals, mu, math.inf) == pytest.approx(2.0)

    def test_length_mismatch(self, cantor):
        mu = quadrature(cantor, 2)
        with pytest.raises(ValueError):
            lp_norm_on_gamma(np.ones(5), mu, 2.0)

    @given(c=st.floats(min_value=0.01, max_value=50.0), p=st.floats(min_value=1.0, max_value=8.0))
    def test_homogeneity(self, c, p):
        ifs = build_cantor_like(1, 2, 1.0 / 3.0, [[0.0], [2.0 / 3.0]])
        mu = quadrature(ifs, 3)
        base = np.linspace(0.5, 1.5, mu.n_atoms)
        lhs = lp_norm_on_gamma(c * base, mu, p)
        rhs = c * lp_norm_on_gamma(base, mu, p)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_export_atoms_csv(tmp_path, cantor):
    mu = quadrature(cantor, 2)
    path = tmp_path / "atoms.csv"
    export_atoms_csv(mu, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "word,x0,weight"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "00"
    assert float(first[1]) == pytest.approx(1.0 / 18.0)
    assert float(first[2]) == pytest.approx(0.25)
