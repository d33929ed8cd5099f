"""Phase-space multipliers and their derivative bounds.

A symbol is a smooth function tau(x, xi) on the line whose size and
derivatives are controlled by powers of the frequency bracket (1 +
|xi|^2)^{1/2}.  This module estimates those control constants numerically
on one fixed probe grid and ships the named catalog a config can select
(``identity``, ``bessel_power``, ``separable_demo``), so that configuration
files never execute user code.  Every catalog symbol is one separable term,
a spatial factor times a power of the bracket (:class:`SeparableTerm`);
``fractal_operator.assemble_tmu_galerkin`` compresses a symbol made of such
a term to the fractal.
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
    """One product term ``a(x) bracket(xi)^sigma``, with ``bracket(xi) = (1 +
    |xi|^2)^{1/2}``; spatial=None means a == 1.  For ``sigma < 0`` the
    inverse Fourier transform of its radial part is the closed-form
    ``fractal_operator.BesselKernel`` of order ``-sigma``."""

    spatial: Callable[[np.ndarray], np.ndarray] | None
    sigma: float

    def radial(self, r: np.ndarray) -> np.ndarray:
        """``bracket(r)^sigma`` at the frequency moduli ``r``."""
        return (1.0 + np.asarray(r, dtype=float) ** 2) ** (self.sigma / 2.0)


@dataclass(frozen=True)
class Symbol:
    """A declared-regularity phase-space multiplier on the line.

    evaluator maps point arrays x, xi of shape (..., 1) to complex values of
    shape (...), and must accept x and xi of broadcast-compatible shapes:
    the derivative probes pass each frequency once, as a row of shape (1,
    n_xi, 1), against x of shape (n_x, n_xi, 1) or (n_x, 1, 1).  order is
    the declared growth exponent in the frequency bracket; type_delta in [0,
    1] (default 0) is the declared loss per spatial derivative.  term,
    when present, expresses the evaluator as one separable term ``a(x)
    bracket(xi)^sigma`` (:class:`SeparableTerm`), whose sigma must be the
    declared order; the Galerkin assembly requires it.
    """

    name: str
    evaluator: Evaluator
    order: float
    type_delta: float = 0.0
    term: SeparableTerm | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.type_delta <= 1.0:
            raise ValueError("type_delta must lie in [0, 1]")
        if self.term is not None and self.term.sigma != self.order:
            raise ValueError(
                f"separable term sigma = {self.term.sigma} is not the declared "
                f"order {self.order}"
            )

    def __call__(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))


# The probe grid.  Frequency probes cover |xi| <= _FREQ_CUTOFF symmetrically:
# a linear band on [0, 1] with _N_FREQ_LOW points plus _N_FREQ geometrically
# spaced points on [1, _FREQ_CUTOFF], so every dyadic octave is sampled
# equally.  Spatial probes cover a centered interval of length _X_EXTENT.
# Counts are odd so that doubling the density keeps the base points as a
# subset.  Derivatives are probed for 0 <= alpha, gamma <= _MAX_ORDER.
_FREQ_CUTOFF = 40.0
_N_FREQ = 97
_X_EXTENT = 64.0
_N_X = 25
_N_FREQ_LOW = 17
_MAX_ORDER = 3


def _probe_points(density: int) -> tuple[np.ndarray, np.ndarray]:
    """The x and xi probe points; density 2 refines every count n to 2n - 1."""

    def count(n: int) -> int:
        return density * (n - 1) + 1

    low = np.linspace(0.0, 1.0, count(_N_FREQ_LOW))
    geo = 2.0 ** np.linspace(0.0, math.log2(_FREQ_CUTOFF), count(_N_FREQ))
    pos = np.concatenate([low, geo])
    x_pts = np.linspace(-_X_EXTENT / 2.0, _X_EXTENT / 2.0, count(_N_X))
    return x_pts, np.unique(np.concatenate([-pos, pos]))


@dataclass(frozen=True)
class ValidationReport:
    symbol_name: str
    declared_order: float
    declared_delta: float
    constants: Mapping[tuple[int, int], float]
    density_growth: Mapping[tuple[int, int], float]
    range_growth: Mapping[tuple[int, int], float]
    violations: tuple[tuple[int, int, str, float], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def max_order(self) -> int:
        return _MAX_ORDER

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
    # x step shrinks with frequency while the xi step grows with it; with no
    # x step the x probes are one column, shape (n_x, 1, 1), for every xi
    h_x = scale * _BASE_STEP_X[alpha] / (1.0 + r) if alpha else np.zeros(1)
    h_xi = scale * _BASE_STEP_XI[gamma] * (1.0 + r) if gamma else np.zeros_like(r)
    off_x, c_x = _STENCILS[alpha]
    off_xi, c_xi = _STENCILS[gamma]
    # the x-difference is innermost so that x-independent symbols cancel
    # exactly instead of leaving rounding residue that h-division amplifies
    acc = np.zeros((x_pts.size, xi_pts.size), dtype=complex)
    # non-finite evaluator output is diagnosed by the caller, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        for j, cxi in zip(off_xi, c_xi):
            # one row of frequencies, shape (1, n_xi, 1): the evaluator
            # broadcasts it against the x probes, so each is evaluated once
            xi_eval = (xi_pts + j * h_xi)[None, :, None]
            inner = np.zeros((x_pts.size, xi_pts.size), dtype=complex)
            for i, cx in zip(off_x, c_x):
                x_eval = x_pts[:, None] + i * h_x[None, :]
                inner = inner + cx * sym(x_eval[..., None], xi_eval)
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
    sym: Symbol, density: int
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
    x_pts, xi_pts = _probe_points(density)
    table: dict[tuple[int, int], np.ndarray] = {}
    unsettled: dict[tuple[int, int], float] = {}
    amp = np.ones(xi_pts.size)
    for alpha in range(_MAX_ORDER + 1):
        for gamma in range(_MAX_ORDER + 1):
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


def validate_symbol(sym: Symbol) -> ValidationReport:
    """Check the declared derivative bounds on a finite probe grid.

    For every derivative pair (alpha, gamma) up to order 3 the constant
    c[alpha, gamma] = max |D_x^alpha D_xi^gamma tau| / bracket^{order - gamma
    + delta*alpha} is estimated by central differences with a Richardson
    step.  The verdict is PASS when every constant is finite and stable: at
    most 10% growth when the probe density doubles and at most 10% growth
    when the frequency range doubles from half to full.  Growth tied to the
    range is exactly how an undeclared loss of decay shows up, since the
    constants of a true member plateau while a violator scales with the
    cutoff.
    """
    table, xi_pts, unsettled = _derivative_table(sym, 1)
    base = _normalized_max(table, xi_pts, sym.order, sym.type_delta)
    half_mask = np.abs(xi_pts) <= _FREQ_CUTOFF / 2.0 + 1e-12
    half = _normalized_max(table, xi_pts, sym.order, sym.type_delta, half_mask)

    dense_table, dense_xi, dense_unsettled = _derivative_table(sym, 2)
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
        constants=base,
        density_growth=density_growth,
        range_growth=range_growth,
        violations=tuple(violations),
    )


def available_symbols() -> tuple[str, ...]:
    return ("identity", "bessel_power", "separable_demo")


def _modulation(x: np.ndarray) -> np.ndarray:
    return 1.0 + 0.5 * np.cos(np.asarray(x, dtype=float)[..., 0])


def _term_evaluator(term: SeparableTerm) -> Evaluator:
    def evaluator(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        # each factor on its own argument's shape; only the product broadcasts
        r = np.sqrt(np.sum(xi**2, axis=-1))
        value = np.asarray(term.radial(r), dtype=complex)
        if term.spatial is not None:
            value = term.spatial(x) * value
        return np.broadcast_to(value, np.broadcast_shapes(x.shape, xi.shape)[:-1])

    return evaluator


# make_symbol's default for sigma, so that an explicit None still counts as given
_NO_SIGMA: Any = object()


def make_symbol(name: str, sigma: float | None = _NO_SIGMA) -> Symbol:
    """Build a catalog symbol by name; no user-supplied code is executed.

    "bessel_power" (bracket(|xi|)^sigma) and "separable_demo" (the same
    times 1 + cos(x)/2) require sigma and are declared at order sigma;
    "identity" reads none, and giving it one, even None, is refused so that
    it can never pass unnoticed.  Every catalog symbol is declared at
    type_delta = 0, its true class.
    """
    if name not in available_symbols():
        raise ValueError(f"unknown symbol {name!r}; available: {available_symbols()}")
    if name == "identity":
        if sigma is not _NO_SIGMA:
            raise ValueError(f"symbol {name} does not read sigma")
        sigma = 0.0
    elif sigma is _NO_SIGMA or sigma is None:
        raise ValueError(f"{name} requires sigma")
    term = SeparableTerm(_modulation if name == "separable_demo" else None, sigma)
    return Symbol(
        name=name if name == "identity" else f"{name}({sigma})",
        evaluator=_term_evaluator(term),
        order=sigma,
        term=term,
    )
