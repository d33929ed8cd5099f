"""Acceptance gate: one test per shipping criterion, at the stated tolerance.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``-s`` or in the failure report) and asserts the same condition, so the
``pytest -v`` listing doubles as the criterion checklist.  Heavy objects
(the level-11 discretization and its spectrum) are shared module-scoped
fixtures; the wall-clock budget is measured around the actual pipeline.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from fracspectra.besov_analysis import GridFunction, build_resolution, lift
from fracspectra.experiment import load_config, run_spectrum
from fracspectra.fractal_measure import (
    FractalMeasure,
    ball_measure_ratio,
    build_cantor_like,
    quadrature,
)
from fracspectra.fractal_operator import (
    BesselKernel,
    assemble_dmu_kernel,
    assemble_tmu_galerkin,
)
from fracspectra.psido_engine import make_symbol
from fracspectra.s_numbers import (
    carl_audit,
    composition_law_audit,
    entropy_numbers_bruteforce,
)
from fracspectra.spectral_report import (
    DecayFit,
    eigen_spectrum,
    fit_decay_exponent,
    fit_upper_envelope,
    order_by_modulus,
    snumber_exponent_check,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

LEVEL = 11
SMOOTHNESS = 0.45  # 2s = 0.9 for the p = 2 kernel form

EIGEN_SLOPE = -0.84150
EIGEN_TOL = 0.08
RUNTIME_BUDGET_SECONDS = 300.0

SNUMBER_SLOPE = -0.42075
SNUMBER_TOL = 0.05
TRANSFER_REL_TOL = 0.02

ENVELOPE_BOUND = -0.68301
ENVELOPE_TOL = 0.08
GALERKIN_REL_TOL = 0.02
GALERKIN_CUTOFF = 1.0e6


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class Pipeline(NamedTuple):
    measure: FractalMeasure
    eigenvalues: np.ndarray
    fit: DecayFit
    elapsed: float


@pytest.fixture(scope="module")
def pipeline() -> Pipeline:
    """Full level-11 run, timed end to end: measure, operator, spectrum, fit."""
    start = time.monotonic()
    ifs = build_cantor_like(1, 2, 1.0 / 3.0, [[0.0], [2.0 / 3.0]])
    measure = quadrature(ifs, LEVEL)
    op = assemble_dmu_kernel(measure, SMOOTHNESS)
    values = eigen_spectrum(op)
    fit = fit_decay_exponent(values, k_lo=10, k_hi=200)
    return Pipeline(measure, values, fit, time.monotonic() - start)


def test_criterion_1_eigenvalue_decay_rate(pipeline):
    """Level-11 spectrum decays at the predicted rate, inside the time budget."""
    slope_ok = abs(pipeline.fit.slope - EIGEN_SLOPE) <= EIGEN_TOL
    time_ok = pipeline.elapsed <= RUNTIME_BUDGET_SECONDS
    _verdict(
        1,
        slope_ok and time_ok,
        f"slope {pipeline.fit.slope:.5f} vs {EIGEN_SLOPE} ± {EIGEN_TOL} "
        f"over k in [10, 200]; pipeline {pipeline.elapsed:.1f}s "
        f"(budget {RUNTIME_BUDGET_SECONDS:.0f}s)",
    )


def test_criterion_2_snumber_decay_and_transference(pipeline):
    """Approximation numbers decay at half the eigenvalue rate and square to it."""
    report = snumber_exponent_check(
        pipeline.measure,
        SMOOTHNESS,
        tolerance=SNUMBER_TOL,
        k_lo=10,
        k_hi=200,
    )
    slope_ok = abs(report.fit.slope - SNUMBER_SLOPE) <= SNUMBER_TOL

    snumbers = report.eigenvalues.real
    lam = pipeline.eigenvalues.real
    count = min(50, snumbers.size, lam.size)
    rel = np.abs(snumbers[:count] ** 2 - lam[:count]) / lam[:count]
    transfer_ok = bool(rel.max() <= TRANSFER_REL_TOL)

    _verdict(
        2,
        slope_ok and transfer_ok,
        f"a_k slope {report.fit.slope:.5f} vs {SNUMBER_SLOPE} ± {SNUMBER_TOL}; "
        f"max |a_k^2 - lambda_k|/lambda_k = {rel.max():.2e} for k <= {count} "
        f"(allowed {TRANSFER_REL_TOL})",
    )


def test_criterion_3_general_exponent_and_galerkin_agreement(pipeline):
    """p = 3/2 envelope obeys the predicted bound; p = 2 Galerkin matches Nystrom."""
    sym = make_symbol("separable_demo", sigma=-0.8)
    op = assemble_tmu_galerkin(sym, 0.8 / 1.5, 1.5, pipeline.measure, 1.0e7)
    envelope = fit_upper_envelope(eigen_spectrum(op), k_lo=10, k_hi=200)
    envelope_ok = envelope.slope <= ENVELOPE_BOUND + ENVELOPE_TOL

    flat = make_symbol("bessel_power", sigma=-2.0 * SMOOTHNESS)
    gal = assemble_tmu_galerkin(
        flat, SMOOTHNESS, 2.0, pipeline.measure, GALERKIN_CUTOFF
    )
    gal_eigs = eigen_spectrum(gal).real
    lam = pipeline.eigenvalues.real
    rel = np.abs(gal_eigs[:50] - lam[:50]) / lam[:50]
    galerkin_ok = bool(rel.max() <= GALERKIN_REL_TOL)

    _verdict(
        3,
        envelope_ok and galerkin_ok,
        f"envelope slope {envelope.slope:.5f} <= {ENVELOPE_BOUND} + {ENVELOPE_TOL}; "
        f"Galerkin vs direct-kernel max rel {rel.max():.2%} for k <= 50 "
        f"(allowed {GALERKIN_REL_TOL:.0%}) at cutoff {GALERKIN_CUTOFF:.0e}",
    )


def test_criterion_4_entropy_eigenvalue_inequalities():
    """100 random small matrices: certified entropy bounds dominate eigenvalues."""
    rng = np.random.default_rng(20260818)
    violations = 0
    worst = 0.0
    for trial in range(100):
        dim = 1 + trial % 3
        mat = rng.uniform(-1.0, 1.0, (dim, dim))
        _, upper = entropy_numbers_bruteforce(mat, k_max=4, resolution=31)
        eig = order_by_modulus(np.linalg.eigvals(mat))
        report = carl_audit(eig, upper)
        for check in report.checks:
            if check.consistency_only:
                continue
            worst = max(worst, check.worst_slack)
            if not check.passed:
                violations += 1
    _verdict(
        4,
        violations == 0,
        f"pointwise sqrt(2)-form and geometric-mean form over 100 matrices "
        f"(dims <= 3): {violations} violations, worst slack {worst:.4f}",
    )


def test_criterion_5_composition_and_duality_laws():
    """Random operator triples obey the s-number algebra; entropy laws recorded."""
    report = composition_law_audit(svd_trials=50, entropy_trials=3, dim=6, seed=7)
    names = {check.name for check in report.checks}
    required = {
        "svd_three_factor",
        "svd_index_additivity",
        "identity_equality_case",
        "entropy_multiplicativity",
        "entropy_sum_bound",
    }
    coverage_ok = required <= names
    _verdict(
        5,
        report.passed and coverage_ok,
        f"50 SVD triples (dim <= 6) plus certified entropy pairs: "
        f"verdict {'PASS' if report.passed else 'FAIL'}, "
        f"checks {sorted(names)}",
    )


def test_criterion_6_analysis_building_blocks():
    """Partition of unity, lift round trip, kernel closed form, measure regularity."""
    resolution = build_resolution(6)
    r = np.linspace(0.0, 2.0 ** (6 - 1), 4001)
    partition_err = float(resolution.partition_residual(r).max())
    partition_ok = partition_err <= 1e-12

    extent, n = 64.0, 2048
    x = -extent / 2.0 + extent / n * np.arange(n)
    f = GridFunction(np.exp(-(x**2) / (2.0 * 0.81)), extent)
    g = lift(lift(f, 0.7), -0.7)
    lift_err = float(np.abs(g.values - f.values).max())
    lift_ok = lift_err <= 1e-10

    kernel = BesselKernel(order=2.0, ambient_dim=1)
    rho = np.linspace(0.0, 10.0, 401)
    exact = math.sqrt(math.pi / 2.0) * np.exp(-rho)
    got = np.array(
        [kernel.value_at_zero if v == 0.0 else kernel(float(v)) for v in rho]
    )
    kernel_err = float(np.abs(got - exact).max())
    kernel_ok = kernel_err <= 1e-8

    ifs = build_cantor_like(1, 2, 1.0 / 3.0, [[0.0], [2.0 / 3.0]])
    mu = quadrature(ifs, LEVEL)
    rng = np.random.default_rng(20260818)
    centers = mu.atoms[rng.integers(0, mu.n_atoms, size=20)]
    radii = np.geomspace(mu.cell_diameter() * 10.0, 1.0, 5)
    ratios = [
        ball_measure_ratio(mu, c, float(rho)) for c in centers for rho in radii
    ]
    band = max(ratios) / min(ratios)
    measure_ok = min(ratios) > 0.0 and band <= 8.0

    _verdict(
        6,
        partition_ok and lift_ok and kernel_ok and measure_ok,
        f"partition residual {partition_err:.1e} (<= 1e-12); "
        f"lift round trip {lift_err:.1e} (<= 1e-10); "
        f"order-2 kernel vs closed form {kernel_err:.1e} (<= 1e-8); "
        f"ball-measure ratio band {band:.2f} (<= 8)",
    )


def test_criterion_7_bit_reproducibility(tmp_path):
    """Two runs of a bundled config produce byte-identical CSV and JSON."""
    config = load_config(CONFIG_DIR / "cantor_small.json")
    _, first = run_spectrum(config, tmp_path / "first")
    _, second = run_spectrum(config, tmp_path / "second")
    identical = {
        key: first[key].read_bytes() == second[key].read_bytes() for key in first
    }
    payload = json.loads(first["report_json"].read_text(encoding="utf-8"))
    stamped = "config_sha256" in payload and payload["config_sha256"] == config.config_hash
    _verdict(
        7,
        all(identical.values()) and stamped,
        f"byte-identical artifacts across reruns: {identical}; "
        f"outputs stamped with config hash: {stamped}",
    )
