import dataclasses

import numpy as np
import pytest

from conftest import coupled_phase_symbol
from fracspectra.besov_analysis import GridFunction, lift
from fracspectra.psido_engine import (
    Symbol,
    SymbolInstabilityError,
    _probe_points,
    available_symbols,
    make_symbol,
    validate_symbol,
)


EXTENT = 64.0
N = 2048

# every catalog symbol, with the parameters a config must give it
CATALOG = {
    "identity": {},
    "bessel_power": {"sigma": -0.9},
    "separable_demo": {"sigma": -0.9},
}


def grid_x() -> np.ndarray:
    return -EXTENT / 2.0 + (EXTENT / N) * np.arange(N)


def sample_points(count: int = 64, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-30.0, 30.0, size=(count, 1))
    xi = rng.uniform(-40.0, 40.0, size=(count, 1))
    return x, xi


def bracket(xi: np.ndarray, sigma: float) -> np.ndarray:
    return (1.0 + np.sum(xi**2, axis=-1)) ** (sigma / 2.0)


def sin_square_symbol() -> Symbol:
    def evaluator(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return np.sin(np.sum(xi**2, axis=-1)) + 0.0j

    return Symbol(name="sin_freq_square", evaluator=evaluator, order=0.0, type_delta=0.0)


class TestSymbolType:
    def test_delta_range_enforced(self) -> None:
        with pytest.raises(ValueError):
            Symbol(name="bad", evaluator=lambda x, xi: xi, order=0.0, type_delta=1.5)

    def test_catalog_names(self) -> None:
        assert available_symbols() == ("identity", "bessel_power", "separable_demo")
        with pytest.raises(ValueError, match="unknown symbol"):
            make_symbol("mystery")
        with pytest.raises(ValueError, match="requires sigma"):
            make_symbol("bessel_power")


class TestMakeSymbolParameters:
    @pytest.mark.parametrize(
        "name, params",
        [
            ("identity", {"sigma": -0.9}),
            ("identity", {"sigma": None}),
        ],
        ids=["identity-sigma", "identity-none"],
    )
    def test_unread_parameter_refused(self, name, params) -> None:
        with pytest.raises(ValueError, match="does not read sigma"):
            make_symbol(name, **params)

    @pytest.mark.parametrize("name", ["bessel_power", "separable_demo"])
    def test_null_sigma_refused(self, name) -> None:
        with pytest.raises(ValueError, match="requires sigma"):
            make_symbol(name, sigma=None)

    def test_declared_at_delta_zero_with_no_override(self) -> None:
        for name, params in CATALOG.items():
            assert make_symbol(name, **params).type_delta == 0.0
            with pytest.raises(TypeError, match="type_delta"):
                make_symbol(name, type_delta=0.5, **params)


class TestCatalogValues:
    def test_identity_is_one_everywhere(self) -> None:
        x, xi = sample_points()
        vals = make_symbol("identity")(x, xi)
        assert vals.dtype == complex
        assert np.array_equal(vals, np.ones(64, dtype=complex))

    @pytest.mark.parametrize("sigma", [-1.2, -0.9, 0.8])
    def test_bessel_power_is_the_bracket_power(self, sigma) -> None:
        x, xi = sample_points()
        sym = make_symbol("bessel_power", sigma=sigma)
        assert sym.order == sigma
        vals = sym(x, xi)
        assert np.max(np.abs(vals - bracket(xi, sigma))) <= 1e-14 * np.max(bracket(xi, sigma))

    @pytest.mark.parametrize("sigma", [-1.2, 0.8])
    def test_bracket_power_matches_lift(self, sigma) -> None:
        # the Fourier multiplier of bessel_power(sigma) is the lift of order sigma
        x = grid_x()
        f = GridFunction(np.exp(-(x**2) / (2.0 * 1.3**2)), EXTENT)
        xi = f.freq_axes()[0][:, None]
        weight = make_symbol("bessel_power", sigma=sigma)(np.zeros_like(xi), xi)
        out = GridFunction.from_hat(weight * f.hat(), EXTENT)
        assert np.max(np.abs(out.values - lift(f, sigma).values)) < 1e-12

    def test_separable_demo_factorizes(self) -> None:
        x, xi = sample_points()
        vals = make_symbol("separable_demo", sigma=-1.3)(x, xi)
        ref = (1.0 + 0.5 * np.cos(x[:, 0])) * bracket(xi, -1.3)
        assert np.max(np.abs(vals - ref)) < 1e-14

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_evaluator_is_the_sum_of_its_separable_terms(self, name) -> None:
        x, xi = sample_points()
        sym = make_symbol(name, **CATALOG[name])
        r = np.abs(xi[:, 0])
        total = np.zeros(len(r), dtype=complex)
        for term in sym.separable_terms:
            a = np.ones(len(r)) if term.spatial is None else term.spatial(x)
            total = total + a * term.radial(r)
        assert np.max(np.abs(sym(x, xi) - total)) < 1e-14

    @pytest.mark.parametrize("name", ["identity", "bessel_power"])
    def test_x_independent_symbols_ignore_x(self, name) -> None:
        x, xi = sample_points()
        sym = make_symbol(name, **CATALOG[name])
        assert np.array_equal(sym(x, xi), sym(np.zeros_like(x), xi))
        assert all(term.spatial is None for term in sym.separable_terms)

    def test_bracket_exponent_marks_closed_form_radials(self) -> None:
        # kernel assembly reads this marker to pick the closed-form profile
        for name in ("bessel_power", "separable_demo"):
            (term,) = make_symbol(name, sigma=-0.7).separable_terms
            assert term.radial.bracket_exponent == -0.7
        (term,) = make_symbol("identity").separable_terms
        assert term.radial.bracket_exponent == 0.0

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_values_broadcast_over_leading_axes(self, name) -> None:
        sym = make_symbol(name, **CATALOG[name])
        x = np.linspace(-2.0, 2.0, 5).reshape(5, 1, 1)
        xi = np.linspace(-9.0, 9.0, 7).reshape(1, 7, 1)
        vals = sym(x, xi)
        assert vals.shape == (5, 7) and vals.dtype == complex
        for i in range(5):
            for k in range(7):
                assert vals[i, k] == sym(x[i, 0][None, :], xi[0, k][None, :])


    def test_complex_distinct_factors_sum_to_the_closed_form(self, dyadic_shell_symbol) -> None:
        # catalog spatial factors are real or absent; this sum is complex
        x, xi = sample_points()
        vals = dyadic_shell_symbol()(x, xi)
        lr = np.log2(np.abs(xi[:, 0]))
        ref = sum(np.exp(1j * 2.0**j * x[:, 0]) * np.exp(-((lr - j) ** 2)) for j in range(7))
        assert vals.dtype == complex
        assert np.max(np.abs(vals - ref)) < 1e-13


class TestProbeGrid:
    def test_doubling_keeps_base_points(self) -> None:
        (x, pts), (dense_x, dense_pts) = _probe_points(1), _probe_points(2)
        assert dense_x.size == 2 * x.size - 1 and np.array_equal(dense_x[::2], x)
        assert dense_pts.size > pts.size
        for p in pts:
            assert np.min(np.abs(dense_pts - p)) < 1e-9 * max(1.0, abs(p))

    def test_freq_points_cover_cutoff(self) -> None:
        _, pts = _probe_points(1)
        # 2 ** log2(40) rounds one ulp off 40
        assert pts.min() == pytest.approx(-40.0, rel=1e-15, abs=0.0)
        assert pts.max() == pytest.approx(40.0, rel=1e-15, abs=0.0)
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

    def test_dyadic_shells_pass_at_full_delta(self, dyadic_shell_symbol) -> None:
        report = validate_symbol(dyadic_shell_symbol())
        assert report.passed
        assert report.declared_delta == 1.0

    def test_dyadic_shells_fail_at_zero_delta(self, dyadic_shell_symbol) -> None:
        report = validate_symbol(dyadic_shell_symbol(type_delta=0.0))
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
        report = validate_symbol(make_symbol("identity"))
        assert report.max_order == 3
        assert "PASS" in report.summary()


def report_bits(report) -> tuple:
    """Every field of a ValidationReport, each float as its hex string."""

    def bits(table):
        return {key: float(value).hex() for key, value in table.items()}

    return (
        report.symbol_name,
        report.declared_order,
        report.declared_delta,
        bits(report.constants),
        bits(report.density_growth),
        bits(report.range_growth),
        [(a, g, kind, float(f).hex()) for a, g, kind, f in report.violations],
    )


class TestProbeBroadcastContract:
    @pytest.mark.parametrize(
        "name", [*CATALOG, "dyadic_shells", "sin_freq_square", "coupled_phase"]
    )
    def test_report_is_bitwise_that_of_broadcast_arguments(self, name, dyadic_shell_symbol) -> None:
        # the probes pass each frequency once, as one row against the x
        # probes; an evaluator fed both arguments broadcast to one shape, as
        # the probes once passed them, gives the same report bit for bit
        builders = {
            "dyadic_shells": dyadic_shell_symbol,
            "sin_freq_square": sin_square_symbol,
            "coupled_phase": coupled_phase_symbol,
        }
        sym = make_symbol(name, **CATALOG[name]) if name in CATALOG else builders[name]()
        broadcast = dataclasses.replace(
            sym, evaluator=lambda x, xi: sym.evaluator(*np.broadcast_arrays(x, xi))
        )
        assert report_bits(validate_symbol(sym)) == report_bits(validate_symbol(broadcast))

    def test_probes_pass_each_frequency_once(self) -> None:
        shapes = []

        def evaluator(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
            shapes.append((x.shape, xi.shape))
            return np.ones(np.broadcast_shapes(x.shape, xi.shape)[:-1], dtype=complex)

        validate_symbol(Symbol(name="recording", evaluator=evaluator, order=0.0))
        # one row of frequencies against the x probes, which are one column
        # wherever the stencil takes no x step
        for x, xi in shapes:
            assert xi[0] == 1 and x[1] in (1, xi[1]) and x[0] > 1
        assert {x[1] == 1 for x, _ in shapes} == {True, False}
