"""Spectral laboratory for pseudodifferential operators on fractal measures.

The package discretizes convolution-type and symbol-driven operators on
self-similar measures, computes their spectra and s-numbers, fits the
observed decay laws against the predicted exponents, and audits the
entropy/eigenvalue inequalities that justify the comparisons.  The usual
entry points:

- :mod:`fracspectra.fractal_measure` — iterated function systems, atomic
  quadrature of the invariant measure, regularity diagnostics.
- :mod:`fracspectra.besov_analysis` — dyadic resolutions and the lifting
  operator on grid functions.
- :mod:`fracspectra.psido_engine` — the symbol catalog a config can name
  and the derivative-bound check on a fixed probe grid.
- :mod:`fracspectra.fractal_operator` — kernel, trace, and Galerkin
  discretizations of the operators restricted to the fractal.
- :mod:`fracspectra.s_numbers` — approximation/entropy numbers and the
  inequality audits that relate them to eigenvalues.
- :mod:`fracspectra.spectral_report` — spectra, decay-exponent fits, and
  verdict reports.
- :mod:`fracspectra.experiment` / :mod:`fracspectra.cli` — reproducible,
  artifact-writing experiment runners and the ``fracspectra`` command.
"""

from fracspectra.besov_analysis import GridFunction, build_resolution, lift
from fracspectra.experiment import (
    ExperimentConfig,
    config_from_dict,
    load_config,
    run_audits,
    run_convergence,
    run_entropy_lab,
    run_spectrum,
    run_trace_snumbers,
    run_validate_symbol,
)
from fracspectra.fractal_measure import (
    FractalMeasure,
    SimilitudeIFS,
    ball_measure_ratio,
    build_cantor_like,
    quadrature,
)
from fracspectra.fractal_operator import (
    BesselKernel,
    assemble_dmu_kernel,
    assemble_tmu_galerkin,
    assemble_trace_operator,
)
from fracspectra.psido_engine import (
    Symbol,
    available_symbols,
    make_symbol,
    validate_symbol,
)
from fracspectra.s_numbers import (
    approximation_numbers_hilbert,
    carl_audit,
    composition_law_audit,
    entropy_numbers_bruteforce,
)
from fracspectra.spectral_report import (
    SpectrumReport,
    assess_decay,
    eigen_spectrum,
    fit_decay_exponent,
    fit_upper_envelope,
    snumber_exponent_check,
    theoretical_exponent,
    theoretical_snumber_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "BesselKernel",
    "ExperimentConfig",
    "FractalMeasure",
    "GridFunction",
    "SimilitudeIFS",
    "SpectrumReport",
    "Symbol",
    "__version__",
    "approximation_numbers_hilbert",
    "assemble_dmu_kernel",
    "assemble_tmu_galerkin",
    "assemble_trace_operator",
    "assess_decay",
    "available_symbols",
    "ball_measure_ratio",
    "build_cantor_like",
    "build_resolution",
    "carl_audit",
    "composition_law_audit",
    "config_from_dict",
    "eigen_spectrum",
    "entropy_numbers_bruteforce",
    "fit_decay_exponent",
    "fit_upper_envelope",
    "lift",
    "load_config",
    "make_symbol",
    "quadrature",
    "run_audits",
    "run_convergence",
    "run_entropy_lab",
    "run_spectrum",
    "run_trace_snumbers",
    "run_validate_symbol",
    "snumber_exponent_check",
    "theoretical_exponent",
    "theoretical_snumber_exponent",
    "validate_symbol",
]
