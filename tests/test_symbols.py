import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspectra.besov_analysis import BesovParams, GridFunction, build_resolution, lift
from fracspectra.psido_engine import (
    CutoffTooSmallError,
    ProbeSpec,
    Symbol,
    SymbolInstabilityError,
    apply_psido,
    available_symbols,
    band_limited_corpus,
    boundedness_probe,
    compose_lifted_symbol,
    make_symbol,
    validate_symbol,
)

EXTENT = 64.0
N = 2048


def grid_x(n: int = N) -> np.ndarray:
    return -EXTENT / 2.0 + (EXTENT / n) * np.arange(n)


def gaussian(sigma: float, n: int = N) -> GridFunction:
    x = grid_x(n)
    return GridFunction(np.exp(-(x**2) / (2.0 * sigma**2)), EXTENT)


def sin_square_symbol() -> Symbol:
    def evaluator(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return np.sin(np.sum(xi**2, axis=-1)) + 0.0j

    return Symbol(name="sin_freq_square", evaluator=evaluator, order=0.0, type_delta=0.0)


class TestSymbolType:
    def test_delta_range_enforced(self) -> None:
        with pytest.raises(ValueError):
            Symbol(name="bad", evaluator=lambda x, xi: xi, order=0.0, type_delta=1.5)

    def test_depth_bounds(self) -> None:
        with pytest.raises(ValueError):
            Symbol(
                name="bad",
                evaluator=lambda x, xi: xi,
                order=0.0,
                type_delta=0.0,
                max_derivative_order=4,
            )

    def test_catalog_names(self) -> None:
        assert available_symbols() == (
            "identity",
            "bessel_power",
            "separable_demo",
            "exotic_demo",
        )
        with pytest.raises(ValueError, match="unknown symbol"):
            make_symbol("mystery")
        with pytest.raises(ValueError, match="requires sigma"):
            make_symbol("bessel_power")


class TestProbeSpec:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            ProbeSpec(freq_cutoff=2.0)
        with pytest.raises(ValueError):
            ProbeSpec(n_freq=96)
        with pytest.raises(ValueError):
            ProbeSpec(n_x=4)

    def test_doubling_keeps_base_points(self) -> None:
        base = ProbeSpec()
        dense = base.doubled()
        pts = base.freq_points()
        dense_pts = dense.freq_points()
        assert dense_pts.size > pts.size
        for p in pts:
            assert np.min(np.abs(dense_pts - p)) < 1e-9 * max(1.0, abs(p))

    def test_freq_points_cover_cutoff(self) -> None:
        pts = ProbeSpec(freq_cutoff=32.0).freq_points()
        assert pts.min() == -32.0 and pts.max() == 32.0
        assert np.any(pts == 0.0)


class TestValidateSymbol:
    def test_identity_constants_exact(self) -> None:
        report = validate_symbol(make_symbol("identity"))
        assert report.passed
        assert report.constants[(0, 0)] == 1.0
        for key, value in report.constants.items():
            if key != (0, 0):
                assert value == 0.0

    def test_bessel_power_passes_with_unit_constant(self) -> None:
        report = validate_symbol(make_symbol("bessel_power", sigma=-0.9))
        assert report.passed
        assert report.constants[(0, 0)] == pytest.approx(1.0, abs=1e-13)
        # x-independent: every spatial-derivative constant cancels exactly
        for (alpha, gamma), value in report.constants.items():
            if alpha > 0:
                assert value == 0.0

    def test_separable_demo_passes(self) -> None:
        report = validate_symbol(make_symbol("separable_demo", sigma=-0.9))
        assert report.passed
        assert report.constants[(0, 0)] == pytest.approx(1.5, abs=1e-12)

    def test_sin_square_fails_with_cutoff_growth(self) -> None:
        report = validate_symbol(sin_square_symbol())
        assert not report.passed
        kinds = {(v[0], v[1], v[2]) for v in report.violations}
        assert (0, 1, "range") in kinds
        # the first frequency derivative grows like the cutoff itself
        assert report.range_growth[(0, 1)] > 2.0

    def test_exotic_demo_passes_at_full_delta(self) -> None:
        report = validate_symbol(make_symbol("exotic_demo"))
        assert report.passed
        assert report.declared_delta == 1.0

    def test_exotic_demo_fails_at_zero_delta(self) -> None:
        report = validate_symbol(make_symbol("exotic_demo", type_delta=0.0))
        assert not report.passed
        kinds = {(v[0], v[1], v[2]) for v in report.violations}
        assert (1, 0, "range") in kinds

    def test_non_finite_probe_raises(self) -> None:
        def evaluator(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
            r = np.sqrt(np.sum(np.asarray(xi, dtype=float) ** 2, axis=-1))
            return np.where(r < 1.0, np.inf, 1.0) + 0.0j

        bad = Symbol(name="blows_up", evaluator=evaluator, order=0.0, type_delta=0.0)
        with pytest.raises(SymbolInstabilityError):
            validate_symbol(bad)

    def test_max_order_guard(self) -> None:
        with pytest.raises(ValueError):
            validate_symbol(make_symbol("identity"), max_order=4)

    def test_planar_symbols_not_probed(self) -> None:
        sym = Symbol(
            name="planar",
            evaluator=lambda x, xi: np.sum(np.asarray(xi), axis=-1) * 0.0 + 1.0,
            order=0.0,
            type_delta=0.0,
            ambient_dim=2,
        )
        with pytest.raises(NotImplementedError):
            validate_symbol(sym)

    def test_summary_mentions_verdict(self) -> None:
        report = validate_symbol(make_symbol("identity"), max_order=1)
        assert "PASS" in report.summary()


class TestApplyPsido:
    def test_identity_is_exact_on_grid(self) -> None:
        f = gaussian(1.0)
        out = apply_psido(make_symbol("identity"), f, freq_cutoff=110.0)
        assert np.max(np.abs(out.values - f.values)) < 1e-13

    def test_identity_direct_path_matches(self) -> None:
        f = gaussian(1.0, n=1024)
        out = apply_psido(make_symbol("identity"), f, freq_cutoff=110.0, method="direct")
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_bracket_power_matches_lift(self) -> None:
        f = gaussian(1.3)
        for alpha in (-1.2, 0.8):
            sym = make_symbol("bessel_power", sigma=alpha)
            out = apply_psido(sym, f, freq_cutoff=110.0)
            ref = lift(f, alpha)
            assert np.max(np.abs(out.values - ref.values)) < 1e-10

    def test_separable_demo_factorizes(self) -> None:
        f = gaussian(0.9)
        sym = make_symbol("separable_demo", sigma=-0.9)
        out = apply_psido(sym, f, freq_cutoff=110.0)
        x = grid_x()
        ref = (1.0 + 0.5 * np.cos(x)) * lift(f, -0.9).values
        assert np.max(np.abs(out.values - ref)) < 1e-10

    def test_separable_agrees_with_direct(self) -> None:
        f = gaussian(1.1, n=1024)
        sym = make_symbol("separable_demo", sigma=-0.9)
        fast = apply_psido(sym, f, freq_cutoff=100.0)
        slow = apply_psido(sym, f, freq_cutoff=100.0, method="direct")
        assert np.max(np.abs(fast.values - slow.values)) < 1e-9

    def test_exotic_agrees_with_direct(self) -> None:
        f = gaussian(0.7, n=1024)
        sym = make_symbol("exotic_demo")
        fast = apply_psido(sym, f, freq_cutoff=100.0)
        slow = apply_psido(sym, f, freq_cutoff=100.0, method="direct")
        assert np.max(np.abs(fast.values - slow.values)) < 1e-9

    def test_two_dimensional_direct(self) -> None:
        n = 32
        ax = -8.0 + (16.0 / n) * np.arange(n)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        f = GridFunction(np.exp(-(xx**2 + yy**2) / 2.0), (16.0, 16.0))
        sym = Symbol(
            name="flat2d",
            evaluator=lambda x, xi: np.sum(np.asarray(xi), axis=-1) * 0.0 + 1.0,
            order=0.0,
            type_delta=0.0,
            ambient_dim=2,
        )
        out = apply_psido(sym, f, freq_cutoff=15.0, method="direct")
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_cutoff_too_small(self) -> None:
        f = gaussian(1.0)
        with pytest.raises(CutoffTooSmallError, match="beyond cutoff"):
            apply_psido(make_symbol("identity"), f, freq_cutoff=4.0)

    def test_method_guards(self) -> None:
        f = gaussian(1.0)
        sym = make_symbol("separable_demo", sigma=-0.9)
        with pytest.raises(ValueError, match="unknown method"):
            apply_psido(sym, f, freq_cutoff=110.0, method="magic")
        with pytest.raises(ValueError, match="positive"):
            apply_psido(sym, f, freq_cutoff=-1.0)

    def test_dimension_mismatch(self) -> None:
        f = gaussian(1.0)
        sym = Symbol(
            name="flat2d",
            evaluator=lambda x, xi: np.sum(np.asarray(xi), axis=-1) * 0.0 + 1.0,
            order=0.0,
            type_delta=0.0,
            ambient_dim=2,
        )
        with pytest.raises(ValueError, match="dimensions differ"):
            apply_psido(sym, f, freq_cutoff=10.0)

    @given(
        a_re=st.floats(-2.0, 2.0),
        a_im=st.floats(-2.0, 2.0),
        b_re=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_linearity(self, a_re: float, a_im: float, b_re: float) -> None:
        a = complex(a_re, a_im)
        b = complex(b_re, 0.0)
        f = gaussian(1.0, n=512)
        g = gaussian(1.7, n=512)
        sym = make_symbol("separable_demo", sigma=-0.9)
        combined = GridFunction(a * f.values + b * g.values, EXTENT)
        lhs = apply_psido(sym, combined, freq_cutoff=40.0)
        rhs = a * apply_psido(sym, f, freq_cutoff=40.0).values
        rhs = rhs + b * apply_psido(sym, g, freq_cutoff=40.0).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-10

    @given(shift=st.integers(min_value=1, max_value=511))
    @settings(max_examples=10, deadline=None)
    def test_translation_commutes_for_x_independent(self, shift: int) -> None:
        f = gaussian(1.2, n=512)
        sym = make_symbol("bessel_power", sigma=-0.9)
        rolled = GridFunction(np.roll(f.values, shift), EXTENT)
        lhs = apply_psido(sym, rolled, freq_cutoff=40.0).values
        rhs = np.roll(apply_psido(sym, f, freq_cutoff=40.0).values, shift)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestComposeLifted:
    def test_bracket_power_lifts_to_one(self) -> None:
        sym = compose_lifted_symbol(make_symbol("bessel_power", sigma=-0.9))
        assert sym.order == 0.0
        xi = np.linspace(-40.0, 40.0, 201)[:, None]
        x = np.zeros_like(xi)
        vals = sym(x, xi)
        assert np.max(np.abs(vals - 1.0)) < 1e-14

    def test_pointwise_product_identity(self) -> None:
        base = make_symbol("separable_demo", sigma=-1.3)
        lifted = compose_lifted_symbol(base)
        rng = np.random.default_rng(3)
        x = rng.uniform(-30, 30, size=(64, 1))
        xi = rng.uniform(-40, 40, size=(64, 1))
        w = (1.0 + np.sum(xi**2, axis=-1)) ** (-1.3 / 2.0)
        assert np.max(np.abs(lifted(x, xi) * w - base(x, xi))) < 1e-12

    def test_lifted_symbol_validates_at_order_zero(self) -> None:
        lifted = compose_lifted_symbol(make_symbol("separable_demo", sigma=-0.9))
        report = validate_symbol(lifted, max_order=2)
        assert report.passed
        assert report.declared_order == 0.0

    def test_requires_negative_order(self) -> None:
        with pytest.raises(ValueError, match="negative-order"):
            compose_lifted_symbol(make_symbol("identity"))

    def test_separable_terms_survive_lifting(self) -> None:
        lifted = compose_lifted_symbol(make_symbol("separable_demo", sigma=-0.9))
        assert lifted.separable_terms is not None
        f = gaussian(1.0, n=1024)
        fast = apply_psido(lifted, f, freq_cutoff=100.0)
        slow = apply_psido(lifted, f, freq_cutoff=100.0, method="direct")
        assert np.max(np.abs(fast.values - slow.values)) < 1e-9


class TestBoundednessProbe:
    params = BesovParams(s=0.45, p=2.0, q=2.0)
    resolution = build_resolution(6)

    def test_identity_ratios_are_one(self) -> None:
        corpus = band_limited_corpus(5, band=8, n_points=1024, extent=EXTENT, seed=2)
        report = boundedness_probe(
            make_symbol("identity"), self.params, corpus, self.resolution, freq_cutoff=40.0
        )
        assert report.passed
        for ratio in report.ratios:
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_lifted_pipeline_symbol_regression(self) -> None:
        sym = compose_lifted_symbol(make_symbol("separable_demo", sigma=-0.9))
        corpus = band_limited_corpus(20, band=8, n_points=1024, extent=EXTENT, seed=11)
        report = boundedness_probe(sym, self.params, corpus, self.resolution, freq_cutoff=40.0)
        assert report.passed
        assert len(report.ratios) == 20
        assert report.max_ratio == pytest.approx(1.1016972903166802, rel=1e-3)

    def test_zero_function_skipped(self) -> None:
        corpus = [GridFunction(np.zeros(1024, dtype=complex), EXTENT)]
        report = boundedness_probe(
            make_symbol("identity"), self.params, corpus, self.resolution, freq_cutoff=40.0
        )
        assert report.skipped == 1
        assert report.ratios == ()
        assert "skipped" in report.summary()

    def test_rejects_nonzero_order(self) -> None:
        sym = make_symbol("bessel_power", sigma=-0.9)
        with pytest.raises(ValueError, match="order-zero"):
            boundedness_probe(sym, self.params, [], self.resolution, freq_cutoff=40.0)

    def test_rejects_p_not_q(self) -> None:
        params = BesovParams(s=0.45, p=2.0, q=3.0)
        with pytest.raises(ValueError, match="p == q"):
            boundedness_probe(
                make_symbol("identity"), params, [], self.resolution, freq_cutoff=40.0
            )


class TestCorpusHelper:
    def test_deterministic(self) -> None:
        a = band_limited_corpus(3, band=5, n_points=256, extent=32.0, seed=9)
        b = band_limited_corpus(3, band=5, n_points=256, extent=32.0, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_band_bounds(self) -> None:
        with pytest.raises(ValueError):
            band_limited_corpus(1, band=0, n_points=256, extent=32.0, seed=1)
        with pytest.raises(ValueError):
            band_limited_corpus(1, band=128, n_points=256, extent=32.0, seed=1)

    def test_band_is_respected(self) -> None:
        (f,) = band_limited_corpus(1, band=5, n_points=256, extent=32.0, seed=4)
        hat = f.hat()
        mags = f.freq_magnitude()
        outside = np.abs(hat[mags > 2.0 * np.pi * 5.5 / 32.0]) ** 2
        assert np.sum(outside) < 1e-20 * np.sum(np.abs(hat) ** 2)
