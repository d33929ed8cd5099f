"""Phase-space multipliers and their derivative bounds.

A symbol is a smooth function tau(x, xi) whose size and derivatives are
controlled by powers of the frequency bracket (1 + |xi|^2)^{1/2}.  This
module estimates those control constants numerically and ships a small
named catalog of symbols so that configuration files never execute user
code; ``fractal_operator.assemble_tmu_galerkin`` compresses a catalog
symbol to the fractal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

__all__ = [
    "SymbolInstabilityError",
    "SeparableTerm",
    "Symbol",
    "ProbeSpec",
    "ValidationReport",
    "validate_symbol",
    "available_symbols",
    "make_symbol",
]


class SymbolInstabilityError(ValueError):
    """A derivative probe produced non-finite values."""


Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SeparableTerm:
    """One product term a(x) * b(|xi|); spatial=None means a == 1."""

    spatial: Callable[[np.ndarray], np.ndarray] | None
    radial: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Symbol:
    """A declared-regularity phase-space multiplier.

    evaluator maps point arrays x, xi of shape (..., ambient_dim) to complex
    values of shape (...).  order is the declared growth exponent in the
    frequency bracket; type_delta in [0, 1] is the declared loss per spatial
    derivative.  separable_terms, when present, expresses the evaluator as
    sum of a_t(x) * b_t(|xi|); the Galerkin assembly requires it.
    """

    name: str
    evaluator: Evaluator
    order: float
    type_delta: float
    ambient_dim: int = 1
    max_derivative_order: int = 3
    separable_terms: tuple[SeparableTerm, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.type_delta <= 1.0:
            raise ValueError("type_delta must lie in [0, 1]")
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        if not 0 <= self.max_derivative_order <= 3:
            raise ValueError("max_derivative_order must be between 0 and 3")

    def __call__(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))


@dataclass(frozen=True)
class ProbeSpec:
    """Sampling plan for derivative estimation.

    Frequency probes cover |xi| <= freq_cutoff symmetrically: a linear band
    on [0, 1] with n_freq_low points plus n_freq geometrically spaced points
    on [1, freq_cutoff], so every dyadic octave is sampled equally (symbols
    built from dyadic shells have structure at every scale).  Spatial probes
    cover a centered interval of length x_extent.  Counts are odd so that
    doubling the density keeps the base points as a subset.
    """

    freq_cutoff: float = 40.0
    n_freq: int = 97
    x_extent: float = 64.0
    n_x: int = 25
    n_freq_low: int = 17

    def __post_init__(self) -> None:
        if self.freq_cutoff < 4.0:
            raise ValueError("freq_cutoff must be at least 4")
        if self.x_extent <= 0:
            raise ValueError("x_extent must be positive")
        if self.n_freq < 9 or self.n_freq % 2 == 0:
            raise ValueError("n_freq must be odd and at least 9")
        if self.n_x < 5 or self.n_x % 2 == 0:
            raise ValueError("n_x must be odd and at least 5")
        if self.n_freq_low < 5 or self.n_freq_low % 2 == 0:
            raise ValueError("n_freq_low must be odd and at least 5")

    def doubled(self) -> "ProbeSpec":
        return ProbeSpec(
            self.freq_cutoff,
            2 * self.n_freq - 1,
            self.x_extent,
            2 * self.n_x - 1,
            2 * self.n_freq_low - 1,
        )

    def freq_points(self) -> np.ndarray:
        low = np.linspace(0.0, 1.0, self.n_freq_low)
        geo = 2.0 ** np.linspace(0.0, math.log2(self.freq_cutoff), self.n_freq)
        pos = np.concatenate([low, geo])
        return np.unique(np.concatenate([-pos, pos]))


@dataclass(frozen=True)
class ValidationReport:
    symbol_name: str
    declared_order: float
    declared_delta: float
    max_order: int
    constants: Mapping[tuple[int, int], float]
    density_growth: Mapping[tuple[int, int], float]
    range_growth: Mapping[tuple[int, int], float]
    violations: tuple[tuple[int, int, str, float], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"symbol {self.symbol_name}: {verdict} "
            f"(order {self.declared_order}, delta {self.declared_delta})"
        ]
        for key in sorted(self.constants):
            lines.append(
                f"  c[{key[0]},{key[1]}] = {self.constants[key]:.6g}  "
                f"density x{self.density_growth[key]:.3f}  "
                f"range x{self.range_growth[key]:.3f}"
            )
        for alpha, gamma, kind, factor in self.violations:
            lines.append(f"  violation ({alpha},{gamma}): {kind} growth x{factor:.3f}")
        return "\n".join(lines)


# central difference stencils: offsets, coefficients, power of h in the divisor
_STENCILS: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
}

# higher-order stencils divide by h^order, so the base step grows with the
# order to keep rounding residue below the Richardson truncation error; the
# x steps run larger than the xi steps because the frequency bracket weight
# re-amplifies spatial-derivative noise by bracket^{delta-free order}, while
# small xi steps are what keeps frequency oscillation resolvable
_BASE_STEP_X = {0: 0.0, 1: 1e-2, 2: 5e-2, 3: 0.25}
_BASE_STEP_XI = {0: 0.0, 1: 5e-3, 2: 2e-2, 3: 5e-2}

_GROWTH_LIMIT = 1.1
_NOISE_FLOOR = 1e-8


def _stencil_eval(
    sym: Symbol,
    x_pts: np.ndarray,
    xi_pts: np.ndarray,
    alpha: int,
    gamma: int,
    scale: float,
) -> np.ndarray:
    """Estimate D_x^alpha D_xi^gamma tau on the tensor probe grid (1-D axes)."""
    r = np.abs(xi_pts)
    # spatial oscillation of rough-type symbols lives at scale 1/|xi|, so the
    # x step shrinks with frequency while the xi step grows with it
    h_x = scale * _BASE_STEP_X[alpha] / (1.0 + r) if alpha else np.zeros_like(r)
    h_xi = scale * _BASE_STEP_XI[gamma] * (1.0 + r) if gamma else np.zeros_like(r)
    off_x, c_x = _STENCILS[alpha]
    off_xi, c_xi = _STENCILS[gamma]
    # the x-difference is innermost so that x-independent symbols cancel
    # exactly instead of leaving rounding residue that h-division amplifies
    acc = np.zeros((x_pts.size, xi_pts.size), dtype=complex)
    # non-finite evaluator output is diagnosed by the caller, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        for j, cxi in zip(off_xi, c_xi):
            xi_eval = np.broadcast_to(xi_pts + j * h_xi, (x_pts.size, xi_pts.size))
            inner = np.zeros((x_pts.size, xi_pts.size), dtype=complex)
            for i, cx in zip(off_x, c_x):
                x_eval = x_pts[:, None] + i * h_x[None, :]
                inner = inner + cx * sym(x_eval[..., None], xi_eval[..., None])
            acc = acc + cxi * inner
    denom = np.ones_like(r)
    if alpha:
        denom = denom * h_x**alpha
    if gamma:
        denom = denom * h_xi**gamma
    return acc / denom[None, :]


_MAX_HALVINGS = 6
_RICHARDSON_TOL = 0.05
_NOISE_CUSHION = 32.0


def _rounding_floor(
    amp: np.ndarray, alpha: int, gamma: int, xi_pts: np.ndarray, scale: float
) -> np.ndarray:
    """Largest stencil output explainable by double-precision rounding alone.

    Each evaluator call carries relative error ~eps of the local symbol
    magnitude; the stencil sums that residue with its coefficient mass and the
    division by h^order amplifies it.  Estimates below this level measure the
    arithmetic, not the symbol.
    """
    r = np.abs(xi_pts)
    floor = _NOISE_CUSHION * float(np.finfo(float).eps) * amp
    if alpha:
        mass = sum(abs(c) for c in _STENCILS[alpha][1])
        floor = floor * mass / (scale * _BASE_STEP_X[alpha] / (1.0 + r)) ** alpha
    if gamma:
        mass = sum(abs(c) for c in _STENCILS[gamma][1])
        floor = floor * mass / (scale * _BASE_STEP_XI[gamma] * (1.0 + r)) ** gamma
    return floor


def _derivative_table(
    sym: Symbol, probe: ProbeSpec, max_order: int
) -> tuple[dict[tuple[int, int], np.ndarray], np.ndarray, dict[tuple[int, int], float]]:
    """Richardson-extrapolated derivative magnitudes on the probe grid.

    The step is halved until two consecutive extrapolants agree in the sup
    norm, so symbols oscillating faster than the initial step are resolved
    rather than silently aliased into a flat, falsely stable estimate.
    Pairs that never settle are returned with their final relative drift;
    they make the verdict FAIL because an unresolvable derivative estimate
    can never certify the declared bounds.  Pairs whose estimate sits below
    the rounding floor at every probe frequency are reported as exactly
    zero: symbols built from products that cancel analytically (a lifted
    symbol times its inverse weight, say) leave ulp-level residue there, and
    dividing that residue by stencil steps would manufacture divergence out
    of arithmetic noise.
    """
    xi_pts = probe.freq_points()
    x_pts = np.linspace(-probe.x_extent / 2.0, probe.x_extent / 2.0, probe.n_x)
    table: dict[tuple[int, int], np.ndarray] = {}
    unsettled: dict[tuple[int, int], float] = {}
    amp = np.ones(xi_pts.size)
    for alpha in range(max_order + 1):
        for gamma in range(max_order + 1):
            if alpha == 0 and gamma == 0:
                est = _stencil_eval(sym, x_pts, xi_pts, 0, 0, 1.0)
                if not np.all(np.isfinite(est)):
                    raise SymbolInstabilityError(
                        f"symbol {sym.name}: non-finite value probe"
                    )
                amp = np.maximum(np.max(np.abs(est), axis=0), 1e-300)
                table[(0, 0)] = np.abs(est)
                continue

            def below_floor(values: np.ndarray, scale: float) -> bool:
                peak = np.max(np.abs(values), axis=0)
                return bool(
                    np.all(peak <= _rounding_floor(amp, alpha, gamma, xi_pts, scale))
                )

            coarse = _stencil_eval(sym, x_pts, xi_pts, alpha, gamma, 1.0)
            fine = _stencil_eval(sym, x_pts, xi_pts, alpha, gamma, 0.5)
            est = (4.0 * fine - coarse) / 3.0
            if below_floor(est, 0.5):
                est = np.zeros_like(est)
            else:
                for level in range(2, _MAX_HALVINGS + 1):
                    coarse = fine
                    fine = _stencil_eval(sym, x_pts, xi_pts, alpha, gamma, 2.0**-level)
                    nxt = (4.0 * fine - coarse) / 3.0
                    drift = float(np.max(np.abs(nxt - est)))
                    est = nxt
                    sup = float(np.max(np.abs(est)))
                    if below_floor(est, 2.0**-level):
                        est = np.zeros_like(est)
                        break
                    if drift <= max(_RICHARDSON_TOL * sup, 1e-12):
                        break
                else:
                    unsettled[(alpha, gamma)] = drift / max(sup, 1e-300)
            if not np.all(np.isfinite(est)):
                raise SymbolInstabilityError(
                    f"symbol {sym.name}: non-finite derivative probe at "
                    f"(alpha={alpha}, gamma={gamma})"
                )
            table[(alpha, gamma)] = np.abs(est)
    return table, xi_pts, unsettled


def _normalized_max(
    table: Mapping[tuple[int, int], np.ndarray],
    xi_pts: np.ndarray,
    order: float,
    delta: float,
    freq_mask: np.ndarray | None = None,
) -> dict[tuple[int, int], float]:
    u = 1.0 + xi_pts**2
    out: dict[tuple[int, int], float] = {}
    for (alpha, gamma), mags in table.items():
        weight = u ** ((-order + gamma - delta * alpha) / 2.0)
        ratios = mags * weight[None, :]
        if freq_mask is not None:
            ratios = ratios[:, freq_mask]
        out[(alpha, gamma)] = float(np.max(ratios))
    return out


def validate_symbol(sym: Symbol, max_order: int | None = None) -> ValidationReport:
    """Check the declared derivative bounds on a finite probe grid.

    For every derivative pair (alpha, gamma) up to max_order the constant
    c[alpha, gamma] = max |D_x^alpha D_xi^gamma tau| / bracket^{order - gamma
    + delta*alpha} is estimated by central differences with a Richardson
    step.  The verdict is PASS when every constant is finite and stable: at
    most 10% growth when the probe density doubles and at most 10% growth
    when the frequency range doubles from half to full.  Growth tied to the
    range is exactly how an undeclared loss of decay shows up, since the
    constants of a true member plateau while a violator scales with the
    cutoff.
    """
    if sym.ambient_dim != 1:
        raise NotImplementedError("derivative probes are implemented for ambient_dim == 1")
    probe = ProbeSpec()
    if max_order is None:
        max_order = sym.max_derivative_order
    if not 0 <= max_order <= 3:
        raise ValueError("max_order must be between 0 and 3")

    table, xi_pts, unsettled = _derivative_table(sym, probe, max_order)
    base = _normalized_max(table, xi_pts, sym.order, sym.type_delta)
    half_mask = np.abs(xi_pts) <= probe.freq_cutoff / 2.0 + 1e-12
    half = _normalized_max(table, xi_pts, sym.order, sym.type_delta, half_mask)

    dense_table, dense_xi, dense_unsettled = _derivative_table(sym, probe.doubled(), max_order)
    dense = _normalized_max(dense_table, dense_xi, sym.order, sym.type_delta)

    density_growth: dict[tuple[int, int], float] = {}
    range_growth: dict[tuple[int, int], float] = {}
    violations: list[tuple[int, int, str, float]] = []
    for key, drift in sorted({**unsettled, **dense_unsettled}.items()):
        violations.append((key[0], key[1], "richardson", drift))
    for key in sorted(base):
        if max(base[key], dense[key]) < _NOISE_FLOOR:
            density_growth[key] = 1.0
        else:
            density_growth[key] = dense[key] / max(base[key], 1e-300)
        if max(half[key], base[key]) < _NOISE_FLOOR:
            range_growth[key] = 1.0
        else:
            range_growth[key] = base[key] / max(half[key], 1e-300)
        if density_growth[key] > _GROWTH_LIMIT:
            violations.append((key[0], key[1], "density", density_growth[key]))
        if range_growth[key] > _GROWTH_LIMIT:
            violations.append((key[0], key[1], "range", range_growth[key]))

    return ValidationReport(
        symbol_name=sym.name,
        declared_order=sym.order,
        declared_delta=sym.type_delta,
        max_order=max_order,
        constants=base,
        density_growth=density_growth,
        range_growth=range_growth,
        violations=tuple(violations),
    )


def available_symbols() -> tuple[str, ...]:
    return ("identity", "bessel_power", "separable_demo", "exotic_demo")


def _bracket_power(sigma: float) -> Callable[[np.ndarray], np.ndarray]:
    def radial(r: np.ndarray) -> np.ndarray:
        return (1.0 + np.asarray(r, dtype=float) ** 2) ** (sigma / 2.0)

    # marker consumed by kernel assembly: this radial part is exactly
    # bracket(|xi|)**sigma, so its Fourier profile has a closed form
    radial.bracket_exponent = sigma
    return radial


def _log_bump(j: int) -> Callable[[np.ndarray], np.ndarray]:
    """Gaussian window in log2-frequency centered on the j-th octave."""

    def radial(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        lr = np.full(r.shape, -100.0)
        np.log2(r, out=lr, where=r > 0)
        return np.exp(-((lr - j) ** 2))

    return radial


def _oscillation(j: int) -> Callable[[np.ndarray], np.ndarray]:
    freq = float(2**j)

    def spatial(x: np.ndarray) -> np.ndarray:
        return np.exp(1j * freq * np.asarray(x, dtype=float)[..., 0])

    return spatial


def _sum_evaluator(terms: tuple[SeparableTerm, ...]) -> Evaluator:
    def evaluator(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        shape = np.broadcast_shapes(x.shape, xi.shape)
        xb = np.broadcast_to(x, shape)
        r = np.sqrt(np.sum(np.broadcast_to(xi, shape) ** 2, axis=-1))
        acc = np.zeros(shape[:-1], dtype=complex)
        for term in terms:
            piece = np.asarray(term.radial(r), dtype=complex)
            if term.spatial is not None:
                piece = term.spatial(xb) * piece
            acc = acc + piece
        return acc

    return evaluator


# make_symbol's default for sigma, so that an explicit None still counts as given
_NO_SIGMA: Any = object()

# exotic_demo sums the dyadic octaves 2^0 .. 2^_EXOTIC_SHELLS
_EXOTIC_SHELLS = 6


def make_symbol(
    name: str,
    sigma: float | None = _NO_SIGMA,
    type_delta: float | None = None,
) -> Symbol:
    """Build a catalog symbol by name; no user-supplied code is executed.

    "bessel_power" and "separable_demo" require sigma; "identity" and
    "exotic_demo" read none, and giving them one, even None, is refused so
    that it can never pass unnoticed.
    "exotic_demo" is a sum of spatial oscillations at dyadic
    frequencies, each weighted by a log-scale Gaussian frequency window; it
    satisfies the derivative bounds only with a full unit loss per spatial
    derivative, so its natural declaration is type_delta = 1 (an artifact
    chosen for coverage, not a canonical object).  type_delta overrides the
    default declaration, which lets tests document that a wrong declaration
    is rejected.
    """
    if name not in available_symbols():
        raise ValueError(f"unknown symbol {name!r}; available: {available_symbols()}")
    reads_sigma = name in ("bessel_power", "separable_demo")
    if sigma is not _NO_SIGMA and not reads_sigma:
        raise ValueError(f"symbol {name} does not read sigma")
    if reads_sigma and (sigma is _NO_SIGMA or sigma is None):
        raise ValueError(f"{name} requires sigma")
    if name == "identity":
        terms = (SeparableTerm(None, _bracket_power(0.0)),)
        return Symbol(
            name="identity",
            evaluator=_sum_evaluator(terms),
            order=0.0,
            type_delta=0.0 if type_delta is None else type_delta,
            separable_terms=terms,
        )
    if name == "bessel_power":
        terms = (SeparableTerm(None, _bracket_power(sigma)),)
        return Symbol(
            name=f"bessel_power({sigma})",
            evaluator=_sum_evaluator(terms),
            order=sigma,
            type_delta=0.0 if type_delta is None else type_delta,
            separable_terms=terms,
        )
    if name == "separable_demo":
        def modulation(x: np.ndarray) -> np.ndarray:
            return 1.0 + 0.5 * np.cos(np.asarray(x, dtype=float)[..., 0])

        terms = (SeparableTerm(modulation, _bracket_power(sigma)),)
        return Symbol(
            name=f"separable_demo({sigma})",
            evaluator=_sum_evaluator(terms),
            order=sigma,
            type_delta=0.0 if type_delta is None else type_delta,
            separable_terms=terms,
        )
    # the one name left is "exotic_demo"
    terms = tuple(
        SeparableTerm(_oscillation(j), _log_bump(j)) for j in range(_EXOTIC_SHELLS + 1)
    )
    return Symbol(
        name="exotic_demo",
        evaluator=_sum_evaluator(terms),
        order=0.0,
        type_delta=1.0 if type_delta is None else type_delta,
        separable_terms=terms,
    )
