import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspectra.besov_analysis import GridFunction, build_resolution, lift

EXTENT = 64.0
N = 2048


def grid_x():
    return -EXTENT / 2.0 + EXTENT / N * np.arange(N)


def gaussian(sigma: float) -> GridFunction:
    x = grid_x()
    return GridFunction(np.exp(-(x**2) / (2.0 * sigma**2)), EXTENT)


def planar_gaussian(n: int = 96, extent: float = 24.0) -> tuple[GridFunction, np.ndarray]:
    ax = -extent / 2.0 + (extent / n) * np.arange(n)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    r2 = xx**2 + yy**2
    return GridFunction(np.exp(-r2 / 2.0), (extent, extent)), r2


def grid_norm(f: GridFunction) -> float:
    return math.sqrt(float(np.prod(f.spacings)) * float(np.sum(np.abs(f.values) ** 2)))


class TestGridFunction:
    def test_forward_matches_analytic_gaussian(self):
        # hat of exp(-x^2/2) is exp(-xi^2/2) under the symmetric convention
        f = gaussian(1.0)
        hat = f.hat()
        xi = f.freq_magnitude()
        assert np.abs(hat - np.exp(-(xi**2) / 2.0)).max() < 1e-12

    def test_round_trip(self):
        f = gaussian(0.8)
        g = GridFunction.from_hat(f.hat(), EXTENT)
        assert np.abs(g.values - f.values).max() < 1e-12

    def test_parseval(self):
        f = gaussian(1.3)
        hat = f.hat()
        dxi = 2.0 * math.pi / EXTENT
        dx = EXTENT / N
        assert dx * float(np.sum(np.abs(f.values) ** 2)) == pytest.approx(
            dxi * float(np.sum(np.abs(hat) ** 2)), rel=1e-12
        )

    def test_two_dimensional_gaussian_matches_analytic(self):
        f, _ = planar_gaussian()
        xi = f.freq_magnitude()
        assert xi.shape == f.shape == (96, 96)
        assert np.abs(f.hat() - np.exp(-(xi**2) / 2.0)).max() < 1e-12

    def test_round_trip_with_unequal_extents(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20))
        f = GridFunction(values, (3.0, 7.5))
        assert f.spacings == (0.25, 0.375)
        g = GridFunction.from_hat(f.hat(), f.extent)
        assert np.abs(g.values - values).max() < 1e-13

    def test_extent_must_match_dimension(self):
        with pytest.raises(ValueError, match="extent length"):
            GridFunction(np.zeros((4, 4)), (1.0, 2.0, 3.0))
        assert GridFunction(np.zeros((4, 6)), 2.0).extent == (2.0, 2.0)

    def test_shift_theorem(self):
        # rolling by k cells is a translation by k * h, a phase exp(-i xi k h)
        rng = np.random.default_rng(9)
        values = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        f = GridFunction(values, 16.0)
        k = 37
        shifted = GridFunction(np.roll(values, k), 16.0)
        xi = f.freq_axes()[0]
        expected = np.exp(-1j * xi * k * f.spacings[0]) * f.hat()
        assert np.abs(shifted.hat() - expected).max() < 1e-12

    def test_frequency_axes(self):
        f = gaussian(1.0)
        (xi,) = f.freq_axes()
        assert xi[1] == pytest.approx(2.0 * math.pi / EXTENT, rel=1e-15)
        # the Nyquist frequency pi / h, listed negative in FFT order
        assert np.abs(xi).max() == pytest.approx(math.pi * N / EXTENT, rel=1e-15)
        assert np.array_equal(f.freq_magnitude(), np.abs(xi))


class TestDyadicResolution:
    def test_plateau_and_support(self):
        res = build_resolution(8)
        r = np.array([0.0, 0.5, 1.0])
        assert np.all(res.phi0(r) == 1.0)
        assert np.all(res.phi0(np.array([1.5, 2.0, 100.0])) == 0.0)
        # even, and nonincreasing across the glue
        r = np.linspace(0.0, 2.0, 2001)
        assert np.array_equal(res.phi0(-r), res.phi0(r))
        assert np.all(np.diff(res.phi0(r)) <= 0.0)

    def test_symmetric_glue_midpoint(self):
        res = build_resolution(4)
        assert res.phi0(np.array([1.25]))[0] == pytest.approx(0.5, abs=1e-14)
        # the glue is antisymmetric about that midpoint
        r = np.linspace(1.01, 1.49, 49)
        assert np.abs(res.phi0(r) + res.phi0(2.5 - r) - 1.0).max() <= 1e-14

    def test_partition_residual_zero(self):
        for j_max in (1, 3, 6, 9):
            res = build_resolution(j_max)
            r = np.linspace(0.0, 2.0**j_max, 4001)
            assert res.partition_residual(r).max() <= 1e-12

    def test_shell_support_annulus(self):
        res = build_resolution(6)
        for k in (1, 3, 5):
            # the last shell ends at 3 * 2**(j_max - 1)
            r = np.linspace(0.0, 3.0 * 2.0 ** (res.j_max - 1), 8000)
            vals = res.phi(k, r)
            inside = (r >= 2.0 ** (k - 1)) & (r <= 3.0 * 2.0 ** (k - 1))
            assert np.all(vals[~inside] == 0.0)
            assert vals.max() > 0.9

    def test_shells_nonnegative(self):
        res = build_resolution(5)
        r = np.linspace(0.0, 3.0 * 2.0 ** (res.j_max - 1), 5000)
        for k in range(res.j_max + 1):
            assert res.phi(k, r).min() >= -1e-15

    def test_needs_one_shell(self):
        with pytest.raises(ValueError, match="at least one shell"):
            build_resolution(0)

    def test_shell_index_bounds(self):
        res = build_resolution(3)
        r = np.array([1.0, 4.0])
        for j in (-1, 4):
            with pytest.raises(ValueError, match="outside"):
                res.phi(j, r)
        assert np.array_equal(res.phi(0, r), res.phi0(r))

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_shells_are_dilates_of_the_first(self, k):
        res = build_resolution(6)
        r = np.linspace(0.0, 3.0 * 2.0 ** (k - 1), 4001)
        assert np.array_equal(res.phi(k, r), res.phi(1, r / 2.0 ** (k - 1)))


class TestLift:
    def test_alpha_zero_identity(self):
        f = gaussian(1.0)
        g = lift(f, 0.0)
        assert np.abs(g.values - f.values).max() < 1e-14

    def test_round_trip(self):
        f = gaussian(0.9)
        g = lift(lift(f, 0.7), -0.7)
        assert np.abs(g.values - f.values).max() <= 1e-10
        # orders add in general
        for a, b in [(0.7, -0.3), (-1.2, 0.5), (1.0, 1.0)]:
            once = lift(f, a + b).values
            twice = lift(lift(f, a), b).values
            assert np.abs(twice - once).max() <= 1e-12 * np.abs(once).max()

    def test_second_order_lift_matches_analytic(self):
        # (1 + |xi|^2) multiplier equals f - f'' pointwise; for the unit
        # Gaussian f - f'' = (2 - x^2) exp(-x^2/2)
        f = gaussian(1.0)
        g = lift(f, 2.0)
        x = grid_x()
        analytic = (2.0 - x**2) * np.exp(-(x**2) / 2.0)
        assert np.abs(g.values - analytic).max() < 1e-11

    def test_negative_order_contracts_the_grid_norm(self):
        f = gaussian(0.6)
        norms = [grid_norm(lift(f, -a)) for a in (0.0, 0.5, 1.0, 2.0)]
        assert norms[0] == pytest.approx(grid_norm(f), rel=1e-14)
        assert all(b < a for a, b in zip(norms, norms[1:]))

    @given(shift=st.integers(min_value=1, max_value=511))
    @settings(max_examples=10)
    def test_translation_commutes(self, shift):
        x = -EXTENT / 2.0 + EXTENT / 512 * np.arange(512)
        f = GridFunction(np.exp(-(x**2) / (2.0 * 1.2**2)), EXTENT)
        rolled = GridFunction(np.roll(f.values, shift), EXTENT)
        lhs = lift(rolled, -0.9).values
        rhs = np.roll(lift(f, -0.9).values, shift)
        assert np.abs(lhs - rhs).max() < 1e-12

    @given(
        a_re=st.floats(-2.0, 2.0),
        a_im=st.floats(-2.0, 2.0),
        b_re=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=10)
    def test_linearity(self, a_re, a_im, b_re):
        a = complex(a_re, a_im)
        f, g = gaussian(1.0), gaussian(1.7)
        combined = GridFunction(a * f.values + b_re * g.values, EXTENT)
        lhs = lift(combined, -0.9).values
        rhs = a * lift(f, -0.9).values + b_re * lift(g, -0.9).values
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_second_order_lift_in_the_plane(self):
        # (1 - Laplacian) exp(-|x|^2/2) = (3 - |x|^2) exp(-|x|^2/2) in R^2
        f, r2 = planar_gaussian()
        g = lift(f, 2.0)
        assert np.abs(g.values - (3.0 - r2) * np.exp(-r2 / 2.0)).max() < 1e-11
