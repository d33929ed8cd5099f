"""Tests for kernel tabulation, diagonal cell averaging, and the three
operator assemblies (kernel gram, trace factor, compressed symbol)."""

import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import gammaln, j0, kv

from conftest import (
    assert_gathers,
    assert_operator_is,
    dense_kernel,
    held_matrix,
    one_shot_distances,
    one_shot_table,
)
from fracspectra.fractal_measure import (
    _pair_codes,
    _pair_digits,
    _pair_distances,
    _pair_table,
    build_cantor_like,
    quadrature,
)
from fracspectra.fractal_operator import (
    BesselKernel,
    CutoffTailWarning,
    MirrorBlocks,
    PairGather,
    PsdViolationWarning,
    SingularKernelError,
    WindowViolationError,
    _CutoffProfile,
    assemble_dmu_kernel,
    assemble_tmu_galerkin,
    assemble_trace_operator,
    cell_pair_energy,
)
from fracspectra import fractal_measure, fractal_operator, spectral_report
from fracspectra.experiment import _build_measure, load_config
from fracspectra.psido_engine import SeparableTerm, Symbol, available_symbols, make_symbol
from fracspectra.spectral_report import (
    eigen_spectrum,
    order_by_modulus,
    theoretical_exponent,
    theoretical_snumber_exponent,
)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

GEOMETRIES = {
    "cantor-1d": (1, 2, 1.0 / 3.0, [[0.0], [2.0 / 3.0]]),
    "dust-2d": (2, 4, 0.25, [[0.0, 0.0], [0.0, 0.75], [0.75, 0.0], [0.75, 0.75]]),
    "non-lattice-1d": (1, 3, 0.2, [[0.0], [math.sqrt(2.0) - 1.0], [0.8]]),
    "symmetric-four-maps": (1, 4, 0.2, [[0.0], [0.25], [0.5], [0.75]]),
    "lopsided-four-maps": (1, 4, 0.08, [[0.0], [0.25], [0.5], [0.9]]),
}


@pytest.fixture(scope="module")
def cantor_ifs():
    return build_cantor_like(1, 2, 1.0 / 3.0, [[0.0], [2.0 / 3.0]])


@pytest.fixture(scope="module")
def mu5(cantor_ifs):
    return quadrature(cantor_ifs, 5)


@pytest.fixture(scope="module")
def mu7(cantor_ifs):
    return quadrature(cantor_ifs, 7)


def closed_form(a: float, n: int, rho: float) -> float:
    log_c = (1.0 - a / 2.0) * math.log(2.0) - gammaln(a / 2.0)
    return math.exp(log_c + 0.5 * (a - n) * math.log(rho)) * kv(0.5 * (n - a), rho)


class TestBesselKernel:
    def test_order_two_matches_exponential(self):
        ker = BesselKernel(order=2.0, ambient_dim=1)
        rho = np.linspace(0.0, 10.0, 401)
        exact = math.sqrt(math.pi / 2.0) * np.exp(-rho)
        got = np.array([ker.value_at_zero if r == 0.0 else ker(r) for r in rho])
        assert np.max(np.abs(got - exact)) <= 1e-8

    def test_order_two_value_at_zero(self):
        ker = BesselKernel(order=2.0, ambient_dim=1)
        assert ker.value_at_zero == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-12)

    def test_order_two_below_table_returns_limit(self):
        ker = BesselKernel(order=2.0, ambient_dim=1)
        assert ker(1e-14) == pytest.approx(ker.value_at_zero, rel=1e-12)

    def test_singular_order_matches_modified_bessel(self):
        ker = BesselKernel(order=0.9, ambient_dim=1)
        for rho in np.geomspace(1e-10, 15.0, 120):
            exact = closed_form(0.9, 1, float(rho))
            assert ker(float(rho)) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_singular_order_power_blowup(self):
        ker = BesselKernel(order=0.9, ambient_dim=1)
        slope = (math.log(ker(1e-6)) - math.log(ker(1e-8))) / (
            math.log(1e-6) - math.log(1e-8)
        )
        # near-field growth exponent a - n = -0.1 up to slowly-varying terms
        assert -0.15 < slope < -0.05

    def test_singular_order_refuses_coincidence(self):
        ker = BesselKernel(order=0.9, ambient_dim=1)
        with pytest.raises(SingularKernelError):
            ker(1e-13)
        with pytest.raises(SingularKernelError):
            ker.value_at_zero

    def test_asymptote_beyond_table(self):
        ker2 = BesselKernel(order=2.0, ambient_dim=1)
        ker09 = BesselKernel(order=0.9, ambient_dim=1)
        for rho in (20.5, 25.0, 40.0, 80.0):
            assert ker2(rho) == pytest.approx(closed_form(2.0, 1, rho), rel=1e-13, abs=0.0)
            assert ker09(rho) == pytest.approx(closed_form(0.9, 1, rho), rel=1e-13, abs=0.0)

    def test_higher_dimension_uses_closed_form(self):
        ker = BesselKernel(order=4.0, ambient_dim=2)
        assert ker.method == "closed-form-modified-bessel"
        # 2^{1-a/2}/Gamma(a/2) rho K_{-1}(rho) at rho = 1 equals K_1(1)/2
        assert ker(1.0) == pytest.approx(0.5 * float(kv(1.0, 1.0)), rel=1e-10)

    def test_higher_dimension_value_at_zero(self):
        # independent route: (2 pi)^{-1} * 2 pi * int r (1+r^2)^{-a/2} dr = 1/(a-2)
        ker = BesselKernel(order=2.5, ambient_dim=2)
        assert ker.value_at_zero == pytest.approx(2.0, rel=1e-10)

    def test_higher_dimension_hankel_oracle(self):
        # truncated Hankel transform; averaging endpoints half a Bessel
        # period apart cancels the leading oscillatory tail
        ker = BesselKernel(order=2.5, ambient_dim=2)
        integrand = lambda r: r * (1.0 + r * r) ** (-1.25) * j0(r)
        upper, _ = quad(integrand, 0.0, 200.0, limit=400)
        shifted, _ = quad(integrand, 0.0, 200.0 + math.pi, limit=400)
        assert ker(1.0) == pytest.approx(0.5 * (upper + shifted), rel=1e-5)

    def test_table_is_positive_and_monotone(self):
        ker = BesselKernel(order=0.9, ambient_dim=1)
        rho = np.geomspace(1e-9, 15.0, 300)
        vals = ker(rho)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 1e-9 * vals[0])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BesselKernel(order=0.0, ambient_dim=1)
        with pytest.raises(ValueError):
            BesselKernel(order=1.0, ambient_dim=0)

    def test_convention_recorded(self):
        ker = BesselKernel(order=2.0, ambient_dim=1)
        assert "(2*pi)**(-n/2)" in ker.convention
        assert ker.method == "closed-form-modified-bessel"

    def test_negative_or_nan_radius_rejected(self):
        ker = BesselKernel(order=0.9, ambient_dim=1)
        with pytest.raises(ValueError, match="non-negative"):
            ker(np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="NaN"):
            ker([math.nan, 0.5, math.nan])

    def test_vectorized_matches_scalar(self):
        rho = np.array([1e-6, 0.3, 1.0, 5.0, 19.0, 30.0])
        ker = BesselKernel(order=0.9, ambient_dim=1)
        vec = ker(rho)
        assert vec == pytest.approx([ker(float(r)) for r in rho], rel=1e-13, abs=0.0)

    @given(
        st.floats(min_value=1e-9, max_value=15.0),
        st.floats(min_value=1.01, max_value=2.5),
    )
    def test_monotone_property(self, rho, factor):
        vals = BesselKernel(order=2.0, ambient_dim=1)(np.array([rho, rho * factor]))
        assert vals[0] >= vals[1] - 1e-9 * vals[0]


class TestPairTable:
    @pytest.mark.parametrize(
        "geometry, level", [("cantor-1d", 12), ("dust-2d", 4), ("non-lattice-1d", 5)]
    )
    def test_distances_are_a_palindrome_around_the_coincident_code(self, geometry, level):
        # the sign fold of the assemblies relies on both facts; the distances
        # are the unfolded recursion's, as _pair_distances mirrors its half
        ifs = build_cantor_like(*GEOMETRIES[geometry])
        codes, dist = _pair_codes(ifs, level), one_shot_distances(ifs, level)
        mid = dist.size // 2
        assert dist.size % 2 == 1 and dist[mid] == 0.0
        assert np.array_equal(dist, dist[::-1])
        assert np.all(np.diagonal(codes) == mid)
        assert np.array_equal(codes + codes.T, np.full(codes.shape, dist.size - 1))

    @pytest.mark.parametrize(
        "geometry, level, s",
        [("cantor-1d", 7, 0.45), ("dust-2d", 3, 0.75), ("non-lattice-1d", 4, 0.45)],
    )
    def test_folded_kernel_table_equals_full_evaluation(self, geometry, level, s):
        mu = quadrature(build_cantor_like(*GEOMETRIES[geometry]), level)
        n = mu.ifs.ambient_dim
        codes, dist = _pair_codes(mu.ifs, level), one_shot_distances(mu.ifs, level)
        kernel = BesselKernel(order=2.0 * s, ambient_dim=n)
        off = np.arange(dist.size) != dist.size // 2
        full = np.zeros(dist.size)
        full[off] = (2.0 * math.pi) ** (-n / 2.0) * mu.weights[0] * kernel(dist[off])
        K = dense_kernel(mu, s)
        assert_operator_is(assemble_dmu_kernel(mu, s), K)
        mask = ~np.eye(mu.n_atoms, dtype=bool)
        assert np.array_equal(K[mask], full[codes][mask])


class TestChunkedTables:
    """Distances and folded tables are built from at most
    ``fractal_measure._CHUNK`` codes at a time; every entry must be bitwise
    that of the one-shot recursion over the whole difference array."""

    # cantor_p2 takes 3^7 = 2187 codes per chunk: one short chunk up to L = 7
    # (mid = 1093), a chunk boundary below mid < 4096 at L = 8 (mid = 3280),
    # and 121 whole chunks plus a short one at L = 12
    @pytest.mark.parametrize("level", range(13))
    def test_cantor_distances_match_the_one_shot_recursion(self, cantor_ifs, level):
        assert_bitwise(_pair_distances(cantor_ifs, level), one_shot_distances(cantor_ifs, level))

    # one code per chunk, the codes of one digit per chunk, and the default
    @pytest.mark.parametrize("cap", [1, 10, 4096])
    @pytest.mark.parametrize(
        "geometry, levels",
        [("symmetric-four-maps", range(7)), ("dust-2d", range(5)), ("non-lattice-1d", range(6))],
    )
    def test_other_set_distances_match_the_one_shot_recursion(
        self, monkeypatch, geometry, levels, cap
    ):
        ifs = build_cantor_like(*GEOMETRIES[geometry])
        monkeypatch.setattr(fractal_measure, "_CHUNK", cap)
        for level in levels:
            assert_bitwise(_pair_distances(ifs, level), one_shot_distances(ifs, level))

    @pytest.mark.parametrize("level", [7, 12])
    def test_kernel_table_matches_the_one_shot_table(self, cantor_ifs, level):
        mu = quadrature(cantor_ifs, level)
        kernel, w, conv = BesselKernel(order=0.9, ambient_dim=1), mu.weight, INV_SQRT_2PI
        energy, _ = cell_pair_energy(mu, kernel)
        expect = one_shot_table(
            one_shot_distances(cantor_ifs, level),
            lambda rho: conv * w * kernel(rho),
            conv * energy / w,
        )
        assert_bitwise(assemble_dmu_kernel(mu, 0.45).table, expect)

    def test_kernel_assembly_holds_the_table_and_no_more_than_a_mebibyte(self, cantor_ifs):
        # at L = 11 the table has 3^11 entries; the old one-shot path held a
        # distance array of the same length and kernel temporaries of half
        mu = quadrature(cantor_ifs, 11)
        assemble_dmu_kernel(mu, 0.45)  # warm-up: imports and first-call caches
        tracemalloc.start()
        try:
            op = assemble_dmu_kernel(mu, 0.45)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.table.size == 3**11
        assert peak < op.table.nbytes + 2**20, f"assembly peaked at {peak} B"


def assert_bitwise(x: np.ndarray, y: np.ndarray) -> None:
    assert x.shape == y.shape and x.dtype == y.dtype
    assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


def integer_arrays(obj, seen=None):
    """Every integer array reachable from ``obj`` through dataclass fields,
    dict values, list and tuple items and array bases."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        if np.issubdtype(obj.dtype, np.integer):
            yield obj
        children = [] if obj.base is None else [obj.base]
    elif dataclasses.is_dataclass(obj):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    else:
        children = []
    for child in children:
        yield from integer_arrays(child, seen)


class TestCodeFactors:
    """Every operator is gathered tile by tile from the two code factors
    ``hi (x) D^l + lo``, and equals the gather at the level-L codes bitwise."""

    # cantor_p2 at L <= 11 is checked against the dense K, with its spectrum,
    # in test_spectral_report.py::TestKernelMirrorBlocks
    @pytest.mark.parametrize(
        "geometry, level",
        [("cantor-1d", 12)] + [("symmetric-four-maps", level) for level in range(1, 7)],
    )
    def test_kernel_blocks_are_those_of_the_level_codes(self, geometry, level):
        mu = quadrature(build_cantor_like(*GEOMETRIES[geometry]), level)
        op = assemble_dmu_kernel(mu, 0.45)
        codes = _pair_codes(mu.ifs, level)
        h = codes.shape[0] // 2
        a, bj = op.table[codes[:h, :h]], op.table[codes[:h, h:][:, ::-1]]
        del codes
        assert_gathers(op.block(1), a + bj)
        assert_gathers(op.block(-1), a - bj)
        # the reversed code factor B J reads is made once, with the operator
        flipped = op.flipped
        assert flipped.flags.c_contiguous and np.array_equal(flipped, op.lo[:, ::-1])
        op.block(1)
        assert op.flipped is flipped

    @pytest.mark.parametrize("level", [6, 7])  # 3 x 3 and 9 x 9 tiles
    def test_dense_odd_non_lattice_kernel(self, level):
        mu = quadrature(build_cantor_like(*GEOMETRIES["non-lattice-1d"]), level)
        op = assemble_dmu_kernel(mu, 0.45)
        assert type(op) is PairGather and op.r is None
        assert_gathers(op.dense(), dense_kernel(mu, 0.45))  # table[_pair_codes(ifs, L)]

    # 2 x 2 tiles of 16 at L = 5, 4 x 4 of 256 at L = 10
    @pytest.mark.parametrize(
        "name, level",
        [("separable_demo", 5), ("separable_demo", 10), ("bessel_power", 5), ("bessel_power", 10)],
        ids=["5", "10", "bessel_power-5", "bessel_power-10"],
    )
    def test_modulated_galerkin_matrix_and_tail_scale(
        self, cantor_ifs, monkeypatch, name, level
    ):
        # the summed table is gathered once, into the products r_j r_k for a
        # modulated symbol, then scaled by c w: symmetric bit for bit by
        # construction.  The one tail-scale scan reads either form, and
        # with rows of ones (an x-independent symbol, held as mirror blocks)
        # it is max|table| over the band, as every code occurs in some tile
        mu = quadrature(cantor_ifs, level)
        sym = make_symbol(name, sigma=-0.9)
        codes = _pair_codes(mu.ifs, level)
        scan, tables = fractal_operator._band_row_max, []

        def checked_scan(pairs, rows, band):
            top = scan(pairs, rows, band)
            table = pairs.table
            expect = np.abs(rows[:, None] * table[codes])[band[codes]].max(initial=0.0)
            assert np.float64(top).view(np.uint64) == expect.view(np.uint64)
            if name == "bessel_power":
                assert np.all(rows == 1.0)
                band_max = np.abs(table[band]).max()
                assert np.float64(top).view(np.uint64) == band_max.view(np.uint64)
            tables.append(table.copy())  # unscaled: the assembly scales it next
            return top

        monkeypatch.setattr(fractal_operator, "_band_row_max", checked_scan)
        with pytest.warns(CutoffTailWarning):
            op = assemble_tmu_galerkin(sym, 0.45, 2.0, mu, 300.0)
        (table,) = tables
        cw = (2.0 * math.pi) ** (-0.5) * mu.weight
        if name == "separable_demo":
            assert op.assembly["similarity"] == "diag(sqrt(a))"
            assert type(op) is PairGather
            r = np.sqrt(sym.term.spatial(mu.atoms))
            expect = (table * cw)[codes] * np.multiply.outer(r, r)
        else:
            assert op.assembly["similarity"] is None
            assert isinstance(op, MirrorBlocks) and op.r is None
            expect = (table * cw)[codes]
        assert_gathers(op.dense(), expect)  # expect is its own transpose

    @pytest.mark.parametrize("case", ["kernel", "x-independent-galerkin", "dense"])
    def test_no_operator_holds_a_quarter_square_integer_array(self, cantor_ifs, case):
        if case == "kernel":
            op = assemble_dmu_kernel(quadrature(cantor_ifs, 12), 0.45)
        elif case == "x-independent-galerkin":
            sym = make_symbol("bessel_power", sigma=-0.9)
            op = assemble_tmu_galerkin(sym, 0.45, 2.0, quadrature(cantor_ifs, 11), 1.0e5)
        else:
            mu = quadrature(build_cantor_like(*GEOMETRIES["non-lattice-1d"]), 7)
            op = assemble_dmu_kernel(mu, 0.45)
        assert isinstance(op, MirrorBlocks) == (case != "dense")
        quarter = (op.order // 2) ** 2
        held = list(integer_arrays(op))
        assert held or case == "dense"
        assert all(a.size < quarter for a in held), [a.shape for a in held]

    def test_tile_offsets_do_not_wrap_past_int32(self):
        # sixteen maps on a Sidon set of translations: all 241 differences
        # are distinct, so the level-4 codes reach 241**4 - 1 > 2**31; only
        # the two level-2 factors are built, never a table or the codes
        r = 1e-5
        t = [[(2.0**a - 1.0) * (1.0 - r) / (2.0**15 - 1.0)] for a in range(16)]
        ifs = build_cantor_like(1, 16, r, t)
        deltas, digit = _pair_digits(ifs)
        assert deltas.shape[0] == 241
        hi, lo, step = fractal_operator._code_factors(ifs, 4)
        assert hi.dtype == np.intp and hi.shape == lo.shape == (256, 256)
        assert step == 241**2
        offsets = [(a, b, hi[a, b] * step) for a, b in [(0, 255), (255, 0), (17, 200)]]
        assert max(off for _, _, off in offsets) > 2**31
        for a, b, off in offsets:
            # tile (a, b) starts at the code of its two leading digit pairs,
            # with a = (a0, a1) and b = (b0, b1) in base 16:
            # digit[a0, b0] D^3 + digit[a1, b1] D^2
            word = [(a // 16, b // 16), (a % 16, b % 16)]
            code = sum(int(digit[x, y]) * 241 ** (3 - k) for k, (x, y) in enumerate(word))
            assert int(off) == code

    def test_factor_level_split(self, cantor_ifs):
        # l is the largest level count with m^l <= _TILE, capped at L - 1 (0
        # at L = 0), so that hi keeps the first digit
        for level, split in [(3, 2), (8, 7), (9, 8), (12, 8), (1, 0), (0, 0)]:
            hi, lo, step = fractal_operator._code_factors(cantor_ifs, level)
            assert lo.shape == (2**split, 2**split) and hi.shape == (2 ** (level - split),) * 2
            assert step == 3**split


class TestCellPairEnergy:
    def test_constant_kernel_exact(self, mu7):
        w = mu7.weights[0]
        energy, info = cell_pair_energy(
            mu7, lambda rho: np.full_like(np.asarray(rho, dtype=float), 3.7)
        )
        assert energy == pytest.approx(3.7 * w * w, rel=1e-14)
        assert info["tail_branch"] == "geometric-approach"

    def test_affine_kernel_exact(self, mu7):
        # mean pair distance on the attractor solves I = I/6 + 1/3, so the
        # level-L cell value is (2/5) * 3^{-L} and the energy has a closed form
        w = mu7.weights[0]
        c1, c2 = 3.7, 1.9
        energy, _ = cell_pair_energy(mu7, lambda rho: c1 + c2 * np.asarray(rho))
        exact = w * w * (c1 + c2 * 0.4 * 3.0**-7)
        assert energy == pytest.approx(exact, rel=1e-12)

    def test_pure_power_level_ratio(self, cantor_ifs):
        t = 0.1
        e5, info = cell_pair_energy(
            quadrature(cantor_ifs, 5), lambda rho: np.asarray(rho) ** (-t)
        )
        e6, _ = cell_pair_energy(
            quadrature(cantor_ifs, 6), lambda rho: np.asarray(rho) ** (-t)
        )
        assert e5 / e6 == pytest.approx(4.0 * 3.0**-t, rel=1e-12)
        assert info["tail_branch"] == "power"
        assert info["measured_decay_exponent"] == pytest.approx(t, abs=1e-9)

    def test_smooth_kernel_depth_consistency(self, mu7):
        k2 = BesselKernel(order=2.0, ambient_dim=1)
        e4, _ = cell_pair_energy(mu7, k2, explicit_depth=4)
        e8, _ = cell_pair_energy(mu7, k2, explicit_depth=8)
        assert e4 == pytest.approx(e8, rel=1e-9)

    def test_singular_kernel_depth_consistency(self, mu7):
        k09 = BesselKernel(order=0.9, ambient_dim=1)
        e4, info = cell_pair_energy(mu7, k09, explicit_depth=4)
        e6, _ = cell_pair_energy(mu7, k09, explicit_depth=6)
        assert e4 == pytest.approx(e6, rel=2e-3)
        assert info["tail_branch"] == "power"

    def test_log_singularity_uses_affine_continuation(self, mu7):
        # order a = n has a logarithmic blowup: pair sums are affine in the
        # chain level, which the linear fallback continues exactly
        k1 = BesselKernel(order=1.0, ambient_dim=1)
        e4, info = cell_pair_energy(mu7, k1, explicit_depth=4)
        e6, _ = cell_pair_energy(mu7, k1, explicit_depth=6)
        assert info["tail_branch"] in ("linear", "geometric-approach")
        assert e4 == pytest.approx(e6, rel=1e-3)

    def test_too_strong_singularity_raises(self, mu7):
        with pytest.raises(WindowViolationError):
            cell_pair_energy(mu7, lambda rho: np.asarray(rho) ** (-0.7))

    def test_kernel_assembly_keeps_the_threshold_the_load_checks(self, mu7):
        # a config this close to n - d is refused at load; the assembly
        # still refuses it on its own, quoting the same threshold
        s = (1.0 - mu7.dimension + 0.004) / 2.0
        with pytest.raises(WindowViolationError, match=r"is not above 0\.004563"):
            assemble_dmu_kernel(mu7, s)

    def test_depth_validation(self, mu7):
        with pytest.raises(ValueError):
            cell_pair_energy(mu7, lambda rho: np.asarray(rho), explicit_depth=0)

    def test_info_keys(self, mu7):
        _, info = cell_pair_energy(mu7, BesselKernel(order=0.9, ambient_dim=1))
        assert set(info) == {
            "explicit_depth",
            "exact_chain_levels",
            "tail_branch",
            "tail_step_ratio",
            "tail_decrement_ratio",
            "measured_decay_exponent",
            "chain_share",
        }
        assert 0.0 < info["chain_share"] < 1.0
        assert info["exact_chain_levels"] >= 3


    def test_small_cells_lower_the_explicit_depth_only_as_far_as_needed(self):
        # at ratio 0.08 and level 4 the chain's probes three levels below
        # depth 4 (or 3) would fall under the anchor floor; depth 2 keeps them
        # above it, and the diagonal is then the one asked for at depth 2
        mu = quadrature(build_cantor_like(*GEOMETRIES["lopsided-four-maps"]), 4)
        kernel = BesselKernel(order=0.9, ambient_dim=1)
        op = assemble_dmu_kernel(mu, 0.45)
        energy, info = cell_pair_energy(mu, kernel)
        assert info["explicit_depth"] == 2 and op.assembly["diagonal_rule"] == info
        lowered, _ = cell_pair_energy(mu, kernel, explicit_depth=2)
        assert energy.hex() == lowered.hex() and energy > 0.0

    def test_cells_too_small_at_depth_one_fail_before_the_pair_table(self, monkeypatch):
        built = []

        def recording_table(ifs, level):
            built.append(level)
            return _pair_table(ifs, level)

        monkeypatch.setattr(fractal_operator, "_pair_table", recording_table)
        mu = quadrature(build_cantor_like(*GEOMETRIES["lopsided-four-maps"]), 6)
        with pytest.raises(ValueError, match=r"level 6 at ratio 0\.08 .* radius 2\.68\de-12"):
            cell_pair_energy(mu, BesselKernel(order=0.9, ambient_dim=1))
        assert built == [1]  # the level-1 distances only

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
    def test_bundled_configs_keep_their_diagonal(self, path):
        # the depth rule reads only the geometry, so every bundled config,
        # whatever its kernel, sums its diagonal at the full depth 4; the
        # kernel configs' diagonal entries are pinned bit for bit
        config = load_config(path)
        mu = _build_measure(config)
        _, info = cell_pair_energy(mu, BesselKernel(order=0.9, ambient_dim=1))
        assert info["explicit_depth"] == 4
        pins = {"cantor_p2": "0x1.1c197382d5929p-8", "cantor_small": "0x1.2ad95ce397faap-5"}
        if path.stem in pins:
            table = assemble_dmu_kernel(mu, config.analysis.s).table
            assert table[table.size // 2].hex() == pins[path.stem]


class TestCompactnessWindow:
    """Every caller of the window gives one verdict at its edges (n = 1, p = 2)."""

    CALLERS = {
        "theoretical_exponent": lambda mu, sp: theoretical_exponent(
            1, mu.dimension, sp / 2.0, 2.0
        ),
        "theoretical_snumber_exponent": lambda mu, sp: theoretical_snumber_exponent(
            1, mu.dimension, sp / 2.0, 2.0
        ),
        "assemble_dmu_kernel": lambda mu, sp: assemble_dmu_kernel(mu, sp / 2.0),
        "assemble_trace_operator": lambda mu, sp: assemble_trace_operator(mu, sp / 2.0),
        "assemble_tmu_galerkin": lambda mu, sp: assemble_tmu_galerkin(
            make_symbol("bessel_power", sigma=-sp), sp / 2.0, 2.0, mu, 1.0e4
        ),
    }

    @pytest.mark.parametrize(
        "edge, accepted",
        [
            ("n-d", False),
            # above n - d by enough that the coincidence chain of the
            # assemblies converges (it diverges as s*p falls to n - d)
            ("n-d+0.02", True),
            ("n", True),
            ("n(1+2^-52)", True),  # roundoff above n, as s = n/p in decimal gives
            ("n+1e-9", False),
        ],
    )
    @pytest.mark.parametrize("caller", list(CALLERS))
    def test_one_verdict_at_the_edges(self, cantor_ifs, caller, edge, accepted):
        mu = quadrature(cantor_ifs, 3)
        sp = {
            "n-d": 1.0 - mu.dimension,
            "n-d+0.02": 1.0 - mu.dimension + 0.02,
            "n": 1.0,
            "n(1+2^-52)": 1.0 + 2.0**-52,
            "n+1e-9": 1.0 + 1e-9,
        }[edge]
        call = self.CALLERS[caller]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffTailWarning)
            if accepted:
                call(mu, sp)
            else:
                with pytest.raises(WindowViolationError, match=r"\(n - d, n\]"):
                    call(mu, sp)


class TestKernelGram:
    def test_window_violations(self, mu5):
        with pytest.raises(WindowViolationError):
            assemble_dmu_kernel(mu5, 0.18)  # 2s below n - d
        with pytest.raises(WindowViolationError):
            assemble_dmu_kernel(mu5, 0.51)  # 2s above n

    def test_boundary_smoothness_allowed(self, mu5):
        op = assemble_dmu_kernel(mu5, 0.5)
        assert op.order == 32

    def test_two_atom_eigenvalues(self, cantor_ifs):
        mu1 = quadrature(cantor_ifs, 1)
        k = dense_kernel(mu1, 0.45)
        assert_operator_is(assemble_dmu_kernel(mu1, 0.45), k)
        lam = np.linalg.eigvalsh(k)
        expect = sorted([k[0, 0] - k[0, 1], k[0, 0] + k[0, 1]])
        assert lam == pytest.approx(expect, rel=1e-12)

    def test_single_atom_operator(self, cantor_ifs):
        mu0 = quadrature(cantor_ifs, 0)
        op = assemble_dmu_kernel(mu0, 0.45)
        energy, _ = cell_pair_energy(mu0, BesselKernel(order=0.9, ambient_dim=1))
        assert held_matrix(op, mu0)[0, 0] == pytest.approx(INV_SQRT_2PI * energy, rel=1e-12)

    @pytest.mark.parametrize(
        "geometry, level, s",
        [
            ((1, 2, 1.0 / 3.0, [[0.0], [2.0 / 3.0]]), 5, 0.45),
            ((2, 4, 0.25, [[0.0, 0.0], [0.0, 0.75], [0.75, 0.0], [0.75, 0.75]]), 3, 0.75),
            ((1, 3, 0.2, [[0.0], [math.sqrt(2.0) - 1.0], [0.8]]), 4, 0.45),
        ],
        ids=["cantor-1d", "dust-2d", "non-lattice-1d"],
    )
    def test_far_pair_entry_matches_kernel(self, geometry, level, s):
        # every off-diagonal entry against the closed form on the distances
        # taken directly from the atoms
        mu = quadrature(build_cantor_like(*geometry), level)
        n = mu.ifs.ambient_dim
        K = dense_kernel(mu, s)
        assert_operator_is(assemble_dmu_kernel(mu, s), K)
        conv_w = (2.0 * math.pi) ** (-n / 2.0) * mu.weights[0]
        for i, j in zip(*np.nonzero(~np.eye(mu.n_atoms, dtype=bool))):
            rho = float(np.linalg.norm(mu.atoms[i] - mu.atoms[j]))
            expect = conv_w * closed_form(2.0 * s, n, rho)
            assert K[i, j] == pytest.approx(expect, rel=1e-12, abs=0.0)
        if geometry[1] == 2:  # the Cantor set is symmetric under x -> 1 - x
            assert np.array_equal(K, K.T)
            assert np.array_equal(K, K[::-1, ::-1])

    def test_bitwise_symmetry(self, mu5):
        # K and both of its mirror blocks are their own transposes, and the
        # gathered upper triangles are theirs (assert_gathers)
        op = assemble_dmu_kernel(mu5, 0.45)
        K = dense_kernel(mu5, 0.45)
        assert_operator_is(op, K)
        assert np.array_equal(K, K.T)
        h = K.shape[0] // 2
        for sign in (1, -1):
            block = K[:h, :h] + sign * K[:h, h:][:, ::-1]
            assert np.array_equal(block, block.T)

    def test_positive_definite_without_warning(self, mu7):
        # the PSD verdict is taken from the eigensolve, not at assembly
        with warnings.catch_warnings():
            warnings.simplefilter("error", PsdViolationWarning)
            lam = eigen_spectrum(assemble_dmu_kernel(mu7, 0.45))
        assert lam.real.min() > 0.0

    def test_level_convergence_top_eigenvalues(self, cantor_ifs):
        lam9 = np.linalg.eigvalsh(dense_kernel(quadrature(cantor_ifs, 9), 0.45))[::-1][:20]
        lam10 = np.linalg.eigvalsh(dense_kernel(quadrature(cantor_ifs, 10), 0.45))[::-1][:20]
        assert np.max(np.abs(lam10 - lam9) / lam10) <= 5e-3

    def test_assembly_provenance(self, mu5):
        op = assemble_dmu_kernel(mu5, 0.45)
        a = op.assembly
        assert a["kind"] == "kernel-gram"
        assert a["smoothness_s"] == 0.45
        assert a["kernel_order"] == 0.9
        assert a["level"] == 5
        assert a["n_atoms"] == 32
        assert "sqrt(w_j w_k)" in a["convention"]
        assert a["diagonal_rule"]["tail_branch"] == "power"

    def test_mirror_operator_validation(self, cantor_ifs):
        mirror = assemble_dmu_kernel(quadrature(cantor_ifs, 2), 0.45)
        for value in (math.nan, math.inf):
            table = mirror.table.copy()
            table[0] = value  # an entry of K off the diagonal
            with pytest.raises(ValueError, match="non-finite"):
                dataclasses.replace(mirror, table=table)  # MirrorBlocks checks too
            r = np.ones(4)
            r[3] = value  # a factor of every entry in the last row and column
            with pytest.raises(ValueError, match="non-finite"):
                PairGather({}, mirror.table, mirror.hi, mirror.lo, mirror.step, r)

    def test_operator_container_validation(self, cantor_ifs):
        # an operator is exactly its record and its gather's arrays, the
        # record required, square of the gather's order, and frozen
        op = assemble_dmu_kernel(quadrature(cantor_ifs, 3), 0.45)
        with pytest.raises(TypeError):
            PairGather(op.table, op.hi, op.lo, op.step)  # no record
        assert op.order == 8 and op.assembly["kind"] == "kernel-gram"
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.assembly = {"kind": "probe"}
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.table = op.table
        # three by three tiles of order two: the order is the product
        tiled = PairGather({}, np.zeros(36), np.arange(9).reshape(3, 3), np.arange(4).reshape(2, 2), 4)
        assert tiled.order == 6
        empty = PairGather({}, np.zeros(0), np.zeros((0, 0), np.intp), np.zeros((1, 1), np.intp), 1)
        assert empty.order == 0

    @pytest.mark.parametrize(
        "geometry, level, symbol",
        [
            ("dust-2d", 3, None),
            ("non-lattice-1d", 5, None),
            ("lopsided-four-maps", 4, None),
            ("non-lattice-1d", 5, "separable_demo"),
            ("lopsided-four-maps", 4, "bessel_power"),
        ],
        ids=["kernel-dust-2d", "kernel-non-lattice", "kernel-lopsided",
             "galerkin-non-lattice-modulated", "galerkin-lopsided"],
    )
    def test_assembly_is_symmetric_bit_for_bit_with_no_check(self, geometry, level, symbol):
        # no tile pass reads an operator and the solve gathers and reduces
        # one triangle, so symmetry rests on the pair codes alone: off the
        # Cantor line, the operator at every level-L pair code (and any
        # mirror block of it) is its own transpose bit for bit, the gather
        # holds its upper triangle, and the spectrum is that of the lower
        # triangle, which the gather never writes
        mu = quadrature(build_cantor_like(*GEOMETRIES[geometry]), level)
        if symbol is None:
            op = assemble_dmu_kernel(mu, 0.75 if mu.ifs.ambient_dim == 2 else 0.45)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CutoffTailWarning)
                op = assemble_tmu_galerkin(make_symbol(symbol, sigma=-0.9), 0.45, 2.0, mu, 300.0)
        K = held_matrix(op, mu)
        assert_operator_is(op, K)  # K, and A +- B J, are their own transposes
        ref = order_by_modulus(scipy.linalg.eigvalsh(K, lower=True))
        norm = abs(ref[0])
        assert np.allclose(eigen_spectrum(op), ref, rtol=0.0, atol=1e-13 * norm)


class TestTraceOperator:
    def test_window_violations(self, mu5):
        with pytest.raises(WindowViolationError):
            assemble_trace_operator(mu5, 0.18)
        with pytest.raises(WindowViolationError):
            assemble_trace_operator(mu5, 0.55)

    def test_zero_frequency_column(self, mu5):
        A = assemble_trace_operator(mu5, 0.45, freq_cutoff=256.0, n_modes=513)
        w = mu5.weights[0]
        expect = math.sqrt(w * 1.0 / (2.0 * math.pi))  # dxi = 1 at this grid
        col = A[:, 256]
        assert col == pytest.approx(np.full(32, expect), abs=1e-14)

    def test_shape_and_growth(self, mu5):
        A1 = assemble_trace_operator(mu5, 0.45, freq_cutoff=256.0, n_modes=257)
        A2 = assemble_trace_operator(mu5, 0.45, freq_cutoff=512.0, n_modes=513)
        assert A1.shape == (32, 257)
        assert A2.shape == (32, 513)
        # spectral mass grows monotonically with the retained frequency band
        assert np.linalg.norm(A2) > np.linalg.norm(A1)

    def test_non_positive_or_non_finite_cutoff_refused(self, mu5):
        # the factor holds no record and no check of its entries, so a
        # cutoff that would fill it with NaN is refused up front
        for cutoff in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                assemble_trace_operator(mu5, 0.45, freq_cutoff=cutoff)

    def test_higher_dimension_not_implemented(self):
        ifs2 = build_cantor_like(
            2, 4, 0.25, [[0.0, 0.0], [0.0, 0.75], [0.75, 0.0], [0.75, 0.75]]
        )
        mu2 = quadrature(ifs2, 2)
        with pytest.raises(NotImplementedError):
            assemble_trace_operator(mu2, 0.75)


class TestNotAKnotSpline:
    """The profile spline against ``scipy.interpolate.CubicSpline``, bit for
    bit (checked with scipy 1.17.1): its coefficients, and its values at the
    nodes, one ulp to either side of them, at both ends, between nodes and
    beyond both ends."""

    @staticmethod
    def assert_is_cubic_spline(x, y):
        ours, oracle = fractal_operator._NotAKnotSpline(x, y), CubicSpline(x, y)
        assert_bitwise(ours.c, oracle.c)
        span = x[-1] - x[0]
        t = np.concatenate(
            [
                x,
                np.nextafter(x, -np.inf),
                np.nextafter(x, np.inf),
                (x[:-1] + x[1:]) / 2.0,
                x[0] + span * np.random.default_rng(5).uniform(0.0, 1.0, 2000),
                x[0] - span * np.array([1e-9, 0.1, 3.0]),
                x[-1] + span * np.array([1e-9, 0.1, 3.0]),
            ]
        )
        assert_bitwise(ours(t), oracle(t))

    def test_bundled_profile_nodes(self, monkeypatch):
        tabulated = []

        class Recording(fractal_operator._NotAKnotSpline):
            def __init__(self, x, y):
                tabulated.append((x, y))
                super().__init__(x, y)

        monkeypatch.setattr(fractal_operator, "_NotAKnotSpline", Recording)
        config = load_config(next(path for path in CONFIGS if path.stem == "cantor_p15"))
        sym = make_symbol(config.analysis.symbol, **config.analysis.symbol_params)
        _CutoffProfile(sym.term.sigma, config.analysis.freq_cutoff, rho_maxdist=1.01)
        ((x, y),) = tabulated
        assert x.size == fractal_operator._PROFILE_NODES
        self.assert_is_cubic_spline(x, y)

    @given(st.integers(4, 1000), st.integers(0, 2**32 - 1))
    def test_random_strictly_increasing_data(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal() + np.cumsum(rng.uniform(1e-3, 1.0, n))
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        self.assert_is_cubic_spline(x, y)


class TestCutoffProfileQuadrature:
    """The profile's quadrature reuses one buffer for every chunk of nodes."""

    @staticmethod
    def bundled_term():
        config = load_config(next(path for path in CONFIGS if path.stem == "cantor_p15"))
        sym = make_symbol(config.analysis.symbol, **config.analysis.symbol_params)
        return sym.term.sigma, config.analysis.freq_cutoff

    def test_node_values_are_the_one_shot_sums_at_the_same_chunk(self, monkeypatch):
        # each chunk's operands are recorded on their way through the profile;
        # the oracle sums each node's weighted cosines along a fresh row of
        # its own, so no value depends on the chunk it was computed in
        chunks, tabulated = [], []

        class Multiply:
            @staticmethod
            def outer(nodes, xs, out):
                chunks.append([nodes.copy(), xs])
                return np.multiply.outer(nodes, xs, out=out)

            def __call__(self, x, weights, out):
                chunks[-1].append(weights)
                return np.multiply(x, weights, out=out)

        class SpyNumpy:
            multiply = Multiply()

            def __getattr__(self, name):
                return getattr(np, name)

        class Recording(fractal_operator._NotAKnotSpline):
            def __init__(self, x, y):
                tabulated.append(y)
                super().__init__(x, y)

        monkeypatch.setattr(fractal_operator, "np", SpyNumpy())
        monkeypatch.setattr(fractal_operator, "_NotAKnotSpline", Recording)
        _CutoffProfile(*self.bundled_term(), rho_maxdist=1.01)
        monkeypatch.undo()
        (vals,) = tabulated
        n_xi = chunks[0][1].size
        rows = [nodes.size for nodes, _, _ in chunks]
        chunk = fractal_operator._PROFILE_BUFFER // n_xi
        assert len(rows) > 1 and rows[:-1] == [chunk] * (len(rows) - 1)
        assert sum(rows) == fractal_operator._PROFILE_NODES
        sums = [
            np.add.reduce(np.cos(node * xs) * wind_w)
            for nodes, xs, wind_w in chunks
            for node in nodes
        ]
        assert_bitwise(vals, np.array(sums) * math.sqrt(2.0 / math.pi))

    def test_quadrature_peaks_below_one_chunk_buffer_and_a_mebibyte(self):
        # a chunk holds at most _PROFILE_BUFFER phases; the one-shot form held
        # the outer product and its cosine at once, two arrays of 700 n_xi
        sigma, cutoff = self.bundled_term()
        _CutoffProfile(sigma, cutoff, rho_maxdist=1.01)  # warm-up: imports
        tracemalloc.start()
        try:
            _CutoffProfile(sigma, cutoff, rho_maxdist=1.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * fractal_operator._PROFILE_BUFFER + 2**20, f"profile peaked at {peak} B"

    def test_an_over_fine_quadrature_is_refused_before_any_panel_exists(
        self, mu5, monkeypatch
    ):
        # at a cutoff of 1e16 the split radius sits at the probe floor 1e-9,
        # and the panels would hold about 153 M nodes, 816 MiB per array for
        # the largest; the guard fails any linspace of more than 1 << 21
        # points before it allocates
        linspace = np.linspace

        def guard(start, stop, num=50, *args, **kwargs):
            if num > 1 << 21:
                raise AssertionError(f"a linspace of {num} points was asked for")
            return linspace(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", guard)
        sym = make_symbol("bessel_power", sigma=-0.9)
        with pytest.raises(ValueError, match="too fine a quadrature panel"):
            assemble_tmu_galerkin(sym, 0.45, 2.0, mu5, 1.0e16)


class TestGalerkinCompression:
    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
    @pytest.mark.parametrize("name", [n for n in available_symbols() if n != "identity"])
    def test_every_catalog_symbol_assembles_to_the_one_operator_form(self, path, name):
        # the premise of the one operator form: every loadable symbol, on
        # every bundled geometry with its config's s, p and sigma (-(s p)
        # where the config names none), compresses to a real symmetric matrix
        config = load_config(path)
        s, p = config.analysis.s, config.analysis.p
        sigma = config.analysis.symbol_params.get("sigma", -s * p)
        mu = _build_measure(config, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffTailWarning)
            op = assemble_tmu_galerkin(
                make_symbol(name, sigma=sigma), s, p, mu, config.analysis.freq_cutoff
            )
        K = held_matrix(op, mu)
        assert K.dtype == np.float64
        assert np.array_equal(K.view(np.uint64), K.T.view(np.uint64))
        expect = {"bessel_power": None, "separable_demo": "diag(sqrt(a))"}[name]
        assert op.assembly["similarity"] == expect
        # an x-independent symbol on these mirror-symmetric sets is held as
        # its mirror blocks; a modulated one is held dense, and since it is
        # symmetric bit for bit, a second operator holds this very array
        assert isinstance(op, MirrorBlocks) == (expect is None)
        assert (op.r is None) == (expect is None)
        assert_operator_is(op, K)

    def test_matches_kernel_gram_at_p_two(self, mu7):
        sym = make_symbol("bessel_power", sigma=-0.9)
        M = assemble_tmu_galerkin(sym, 0.45, 2.0, mu7, 1.0e6)
        lam_g = np.linalg.eigvalsh(held_matrix(M, mu7))[::-1]
        lam_n = np.linalg.eigvalsh(dense_kernel(mu7, 0.45))[::-1]
        assert np.max(np.abs(lam_g[:50] - lam_n[:50]) / lam_n[:50]) <= 0.02

    def test_cutoff_doubling_stability(self, mu7):
        sym = make_symbol("bessel_power", sigma=-0.9)
        lam1 = np.linalg.eigvalsh(
            held_matrix(assemble_tmu_galerkin(sym, 0.45, 2.0, mu7, 1.0e6), mu7)
        )[::-1][:20]
        lam2 = np.linalg.eigvalsh(
            held_matrix(assemble_tmu_galerkin(sym, 0.45, 2.0, mu7, 2.0e6), mu7)
        )[::-1][:20]
        assert np.max(np.abs(lam2 - lam1) / lam2) <= 0.02

    def test_x_independent_symbol_gives_symmetric_operator(self, mu5):
        sym = make_symbol("bessel_power", sigma=-0.9)
        M = assemble_tmu_galerkin(sym, 0.45, 2.0, mu5, 1.0e5)
        K = held_matrix(M, mu5)
        assert isinstance(M, MirrorBlocks) and K.dtype == np.float64
        assert np.array_equal(K, K.T)

    def test_spatial_modulation_is_row_scaling(self, mu5):
        # the row-scaled D S comes back in its similar form D^{1/2} S D^{1/2}
        sym = make_symbol("separable_demo", sigma=-0.9)
        M = assemble_tmu_galerkin(sym, 0.45, 2.0, mu5, 1.0e5)
        amp = 1.0 + 0.5 * np.cos(mu5.atoms[:, 0])
        K = held_matrix(M, mu5)
        sym_part = K / np.sqrt(amp[:, None] * amp[None, :])
        assert np.max(np.abs(sym_part - sym_part.T)) <= 1e-13 * np.max(np.abs(sym_part))
        # similar to a symmetric positive matrix, so the spectrum stays real
        ev = np.linalg.eigvals(K)
        assert np.max(np.abs(ev.imag)) <= 1e-10 * np.max(np.abs(ev))
        assert np.min(ev.real) > 0.0

    def test_entries_match_profile_on_direct_distances(self, cantor_ifs):
        mu = quadrature(cantor_ifs, 4)
        sym = make_symbol("separable_demo", sigma=-0.9)
        M = held_matrix(assemble_tmu_galerkin(sym, 0.45, 2.0, mu, 1.0e5), mu)
        dist = np.abs(mu.atoms[:, 0, None] - mu.atoms[None, :, 0])
        term = sym.term
        profile = _CutoffProfile(term.sigma, 1.0e5, rho_maxdist=dist.max() * 1.01)
        spatial = np.asarray(term.spatial(mu.atoms)).reshape(-1)
        off = ~np.eye(mu.n_atoms, dtype=bool)
        root = np.sqrt(spatial[:, None] * spatial[None, :])
        expect = INV_SQRT_2PI * mu.weights[0] * root * profile(dist)
        assert M[off] == pytest.approx(expect[off], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("level", [7, 9])
    def test_similar_form_keeps_the_row_scaled_spectrum(self, cantor_ifs, level):
        mu = quadrature(cantor_ifs, level)
        op = assemble_tmu_galerkin(
            make_symbol("separable_demo", sigma=-0.9), 0.45, 2.0, mu, 1.0e5
        )
        assert op.assembly["similarity"] == "diag(sqrt(a))"
        amp = 1.0 + 0.5 * np.cos(mu.atoms[:, 0])
        K = held_matrix(op, mu)
        row_scaled = amp[:, None] * (K / np.sqrt(amp[:, None] * amp[None, :]))
        expect = order_by_modulus(scipy.linalg.eigvals(row_scaled))[:200]
        got = eigen_spectrum(op)[:200]  # the Hermitian path, certificate included
        assert got == pytest.approx(expect, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "case, condition",
        [("exotic", "real spatial factor"), ("sign-changing", "strictly positive")],
        ids=["exotic", "sign-changing"],
    )
    def test_complex_nonpositive_or_differing_factors_are_refused(
        self, mu5, case, condition, monkeypatch
    ):
        base = make_symbol("bessel_power", sigma=-0.9)
        if case == "exotic":  # a complex factor; declared at the window's order
            term = SeparableTerm(lambda x: np.exp(1j * 2.0 * x[..., 0]), -0.9)
        else:  # cos(3x) < 0 on the right half of the set
            term = SeparableTerm(lambda x: np.cos(3.0 * x[..., 0]), -0.9)
        sym = Symbol(case, base.evaluator, -0.9, 0.0, term=term)
        # refused before the pair table, so before any N x N array exists
        for name in ("_pair_table", "_pair_codes", "_pair_distances", "_folded_table"):
            monkeypatch.setattr(fractal_operator, name, None)
        with pytest.raises(ValueError, match=condition):
            assemble_tmu_galerkin(sym, 0.45, 2.0, mu5, 1.0e5)

    def test_similar_form_is_certified(self, mu5, monkeypatch):
        op = assemble_tmu_galerkin(
            make_symbol("separable_demo", sigma=-0.9), 0.45, 2.0, mu5, 1.0e5
        )
        monkeypatch.setattr(spectral_report, "RESIDUAL_REL", 1e-30)
        with pytest.raises(RuntimeError, match="separable-symbol-compression"):
            eigen_spectrum(op)

    @pytest.mark.parametrize("cutoff, warns", [(300.0, True), (1.0e5, False)])
    def test_tail_warning_decision_unchanged_by_the_similarity(self, mu5, cutoff, warns):
        sym = make_symbol("separable_demo", sigma=-0.9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assemble_tmu_galerkin(sym, 0.45, 2.0, mu5, cutoff)
        tails = [w for w in caught if issubclass(w.category, CutoffTailWarning)]
        assert len(tails) == (1 if warns else 0)

    def test_tail_warning_reads_the_row_scaled_entry_scale(self, mu5):
        # a term whose factor has a wide range: the warning quotes max|c w D
        # S| over the pairs near the median distance, the row-scaled entries,
        # not those of the similar form D^{1/2} S D^{1/2} returned
        base = make_symbol("bessel_power", sigma=-0.9)

        def factor(x):
            return np.exp(-8.0 * x[..., 0])

        sym = Symbol("wide", base.evaluator, -0.9, 0.0, term=SeparableTerm(factor, -0.9))
        with pytest.warns(CutoffTailWarning) as caught:
            op = assemble_tmu_galerkin(sym, 0.45, 2.0, mu5, 300.0)
        quoted = float(str(caught[0].message).split("entry scale ")[1].split()[0])
        assert op.assembly["similarity"] == "diag(sqrt(a))"
        amp = factor(mu5.atoms)
        root = np.sqrt(amp[:, None] * amp[None, :])
        K = held_matrix(op, mu5)
        row_scaled = amp[:, None] * (K / root)  # c w D S
        codes, dist = _pair_table(mu5.ifs, mu5.level)
        pair_dist = dist[codes]
        rho_med = np.median(pair_dist[~np.eye(mu5.n_atoms, dtype=bool)])
        near = np.abs(pair_dist - rho_med) < 0.5 * rho_med
        expect = np.abs(row_scaled[near]).max()
        assert quoted == pytest.approx(expect, rel=1e-3)  # quoted to four digits
        assert quoted != pytest.approx(np.abs(K[near]).max(), rel=1e-2)

    @pytest.mark.parametrize("level", range(1, 7))
    @pytest.mark.parametrize("geometry", ["cantor-1d", "non-lattice-1d"])
    def test_tail_band_is_that_of_the_off_diagonal_median(self, monkeypatch, geometry, level):
        # the median is read off the codes below the coincident one, each
        # pair without its mirror; the band it gives is bitwise that of
        # np.median over all N (N - 1) off-diagonal pair distances
        mu = quadrature(build_cantor_like(*GEOMETRIES[geometry]), level)
        codes, dist = _pair_table(mu.ifs, level)
        rho_med = np.median(dist[codes][~np.eye(mu.n_atoms, dtype=bool)])
        scan, bands = fractal_operator._band_row_max, []

        def spy(pairs, rows, band):
            bands.append(band)
            return scan(pairs, rows, band)

        monkeypatch.setattr(fractal_operator, "_band_row_max", spy)
        sym = make_symbol("separable_demo", sigma=-0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffTailWarning)
            assemble_tmu_galerkin(sym, 0.45, 2.0, mu, 300.0)
        (band,) = bands
        assert band.dtype == bool and band.any()
        assert np.array_equal(band, np.abs(dist - rho_med) < 0.5 * rho_med)

    def test_term_linearity(self, mu5):
        # the compression is linear in the term's spatial factor: the
        # separable_demo term's is the x-independent one's times sqrt(a_j)
        # sqrt(a_k), and tripling a triples it
        base = make_symbol("bessel_power", sigma=-0.9)
        demo = make_symbol("separable_demo", sigma=-0.9).term
        tripled = SeparableTerm(lambda x: 3.0 * demo.spatial(x), -0.9)

        def compress(term):
            sym = Symbol("linear", base.evaluator, -0.9, 0.0, term=term)
            return held_matrix(assemble_tmu_galerkin(sym, 0.45, 2.0, mu5, 1.0e5), mu5)

        M0, M1, M3 = compress(base.term), compress(demo), compress(tripled)
        r = np.sqrt(demo.spatial(mu5.atoms))
        assert np.max(np.abs(M1 - M0 * np.multiply.outer(r, r))) <= 1e-12 * np.max(np.abs(M1))
        assert np.max(np.abs(M3 - 3.0 * M1)) <= 1e-12 * np.max(np.abs(M3))

    def test_window_and_order_validation(self, mu5):
        with pytest.raises(WindowViolationError):
            assemble_tmu_galerkin(
                make_symbol("bessel_power", sigma=-0.2), 0.1, 2.0, mu5, 1e4
            )
        with pytest.raises(WindowViolationError):
            assemble_tmu_galerkin(
                make_symbol("bessel_power", sigma=-1.2), 0.6, 2.0, mu5, 1e4
            )
        with pytest.raises(ValueError):
            assemble_tmu_galerkin(
                make_symbol("bessel_power", sigma=-0.8), 0.45, 2.0, mu5, 1e4
            )

    def test_boundary_order_allowed(self, mu5):
        M = assemble_tmu_galerkin(
            make_symbol("bessel_power", sigma=-1.0), 0.5, 2.0, mu5, 1e4
        )
        assert M.order == 32

    def test_non_separable_rejected(self, mu5):
        sym = Symbol(
            name="opaque",
            evaluator=lambda x, xi: np.ones(
                np.broadcast_shapes(x.shape, xi.shape)[:-1], dtype=complex
            ),
            order=-0.9,
            type_delta=0.0,
        )
        with pytest.raises(ValueError):
            assemble_tmu_galerkin(sym, 0.45, 2.0, mu5, 1e4)

    def test_higher_dimension_not_implemented(self, monkeypatch):
        # a bracket power of the window's order on the planar dust: refused
        # before any pair distance exists
        mu = quadrature(build_cantor_like(*GEOMETRIES["dust-2d"]), 2)
        monkeypatch.setattr(fractal_operator, "_pair_distances", None)
        with pytest.raises(NotImplementedError, match="ambient dimension one"):
            assemble_tmu_galerkin(make_symbol("bessel_power", sigma=-1.5), 0.75, 2.0, mu, 1e4)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_non_negative_bracket_order_is_refused_before_any_pair_table(
        self, mu5, monkeypatch, sigma
    ):
        # the profile's far field is the kernel of order -sigma, which
        # exists only for sigma < 0.  A symbol's term is at its declared
        # order, so a term with sigma >= 0 under the window's order is no
        # symbol, and one declared at sigma >= 0 fails the order check
        base = make_symbol("bessel_power", sigma=-0.9)
        with pytest.raises(ValueError, match=f"sigma = {sigma} is not the declared order -0.9"):
            Symbol("mixed", base.evaluator, -0.9, 0.0, term=SeparableTerm(None, sigma))
        sym = Symbol("non-negative", base.evaluator, sigma, 0.0, term=SeparableTerm(None, sigma))

        def spy(*args):
            raise AssertionError("the pair distances were computed")

        monkeypatch.setattr(fractal_operator, "_pair_distances", spy)
        with pytest.raises(ValueError, match=f"symbol order {sigma} must be negative"):
            assemble_tmu_galerkin(sym, 0.45, 2.0, mu5, 1.0e5)

    def test_x_independent_spectrum_bits_are_pinned(self):
        # the cantor_p2 geometry at L = 8, s = 0.45, p = 2, held as mirror
        # blocks: the float.hex of the top 10 eigenvalues of its solve
        mu = quadrature(build_cantor_like(*GEOMETRIES["cantor-1d"]), 8)
        sym = make_symbol("bessel_power", sigma=-0.9)
        op = assemble_tmu_galerkin(sym, 0.45, 2.0, mu, 1.0e6)
        assert isinstance(op, MirrorBlocks)
        assert [float(v).hex() for v in eigen_spectrum(op)[:10]] == [
            "0x1.392c54bc733a8p-1",
            "0x1.904eb17c11ea6p-2",
            "0x1.df756d3643822p-3",
            "0x1.c447d58001558p-3",
            "0x1.0ea8e59ba2a96p-3",
            "0x1.0c790aa419c95p-3",
            "0x1.fbf12dc45ebcfp-4",
            "0x1.f973b02de2bd9p-4",
            "0x1.2e34c22a60b4dp-4",
            "0x1.2dc56f658313cp-4",
        ]

    def test_x_independent_tail_warning_text_is_pinned(self, mu5):
        # the entry scale is read off the table at the codes that occur
        with pytest.warns(CutoffTailWarning) as caught:
            assemble_tmu_galerkin(make_symbol("bessel_power", sigma=-0.9), 0.45, 2.0, mu5, 300.0)
        assert [str(w.message) for w in caught] == [
            "frequency cutoff 300 leaves an estimated tail 9.375e-06 vs entry "
            "scale 1.825e-02 at typical distances; increase the cutoff"
        ]

    def test_tiny_cutoff_warns(self, mu5):
        with pytest.warns(CutoffTailWarning):
            assemble_tmu_galerkin(
                make_symbol("bessel_power", sigma=-0.9), 0.45, 2.0, mu5, 300.0
            )

    def test_fractional_p_assembly(self, mu7):
        sym = make_symbol("separable_demo", sigma=-0.675)
        M = assemble_tmu_galerkin(sym, 0.45, 1.5, mu7, 1.0e6)
        ev = np.linalg.eigvals(held_matrix(M, mu7))
        assert np.max(np.abs(ev.imag)) <= 1e-10 * np.max(np.abs(ev))
        assert np.min(ev.real) > 0.0
        term = M.assembly["terms"][0]
        assert term["splice_rel"] <= 1e-5
        assert term["bracket_order"] == -0.675
        assert M.assembly["integrability_p"] == 1.5

    def test_assembly_provenance(self, mu5):
        M = assemble_tmu_galerkin(
            make_symbol("bessel_power", sigma=-0.9), 0.45, 2.0, mu5, 1.0e5
        )
        a = M.assembly
        assert a["kind"] == "separable-symbol-compression"
        assert a["symbol_order"] == -0.9
        assert a["freq_cutoff"] == 1.0e5
        assert len(a["terms"]) == 1
        # the cutoff profile is bounded at coincidence, so its chain contracts
        assert a["terms"][0]["diagonal_rule"]["tail_branch"] == "geometric-approach"
