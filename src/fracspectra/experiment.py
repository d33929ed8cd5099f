"""Config-driven experiment orchestration.

A JSON config describes one numerical experiment end to end: the fractal
quadrature, the analysis parameters (smoothness, integrability, symbol,
frequency cutoff), the fit window and tolerance, the audits to run, and a
seed for every randomized corpus.  The runners walk the pipeline build
measure -> assemble operator -> eigensolve -> fit -> audit and persist
deterministic artifacts: identical config and seed produce byte-identical
CSV and JSON files, each stamped with the artifact version, the config
hash, and the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .fractal_measure import (
    AtomBudgetError,
    FractalMeasure,
    build_cantor_like,
    quadrature,
)
from .fractal_operator import (
    _CHAIN_STEP_LIMIT,
    DiscretizedOperator,
    assemble_dmu_kernel,
    assemble_tmu_galerkin,
)
from .psido_engine import make_symbol, validate_symbol
from .s_numbers import (
    SNumberSequence,
    carl_audit,
    composition_law_audit,
    entropy_estimate_diagonal,
    entropy_ideal_quasinorm,
    entropy_numbers_bruteforce,
)
from .spectral_report import (
    InsufficientSpectrumError,
    SpectrumReport,
    _fit_window,
    assess_decay,
    eigen_spectrum,
    fit_decay_exponent,
    nonzero_part,
    order_by_modulus,
    snumber_exponent_check,
    theoretical_exponent,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ALLOWED_AUDITS",
    "ConfigError",
    "StageFailure",
    "FractalSpec",
    "AnalysisSpec",
    "FitSpec",
    "ExperimentConfig",
    "config_from_dict",
    "load_config",
    "run_spectrum",
    "run_convergence",
    "run_audits",
    "run_trace_snumbers",
    "run_entropy_lab",
    "run_validate_symbol",
]

ARTIFACT_VERSION = 1
ALLOWED_AUDITS = ("carl", "composition", "entropy-quasinorm")


class ConfigError(ValueError):
    """A configuration file is malformed or asks for an invalid experiment."""


class StageFailure(RuntimeError):
    """A pipeline stage failed; carries the stage name and the original error."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"stage '{stage}' failed: {original}")
        self.stage = stage
        self.original = original


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure(name, exc) from exc


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractalSpec:
    ambient_dim: int
    n_maps: int
    ratio: float
    translations: tuple[tuple[float, ...], ...]
    level: int


@dataclass(frozen=True)
class AnalysisSpec:
    s: float
    p: float
    symbol: str
    symbol_params: dict
    freq_cutoff: float


@dataclass(frozen=True)
class FitSpec:
    k_lo: int
    k_hi: int | None
    tolerance: float
    comparison: str
    quantile: float


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int
    fractal: FractalSpec
    analysis: AnalysisSpec
    fit: FitSpec
    audits: tuple[str, ...]
    seed: int
    out_dir: str | None = None

    def as_canonical_dict(self) -> dict:
        """The experiment identity as plain JSON data: every field of the
        config and its specs, with tuples as lists.

        The output directory is delivery plumbing, not part of the
        experiment, so it is excluded: runs of the same experiment into
        different directories hash identically and produce byte-identical
        artifacts.
        """
        out = asdict(self)
        del out["out_dir"]
        out["fractal"]["translations"] = [list(t) for t in self.fractal.translations]
        out["audits"] = list(self.audits)
        return out

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(
            self.as_canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def preamble(self) -> str:
        return (
            f"artifact_version={ARTIFACT_VERSION} "
            f"config_sha256={self.config_hash} seed={self.seed}"
        )


def _take_keys(section: str, mapping, required: tuple[str, ...], optional: dict) -> dict:
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{section}' must be a JSON object")
    unknown = sorted(set(mapping) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {unknown}")
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise ConfigError(f"missing keys in '{section}': {missing}")
    merged = dict(optional)
    merged.update(mapping)
    return merged


def _integer(section: str, key: str, value) -> int:
    """A JSON integer; floats, strings and bools are refused, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{section} {key} must be an integer, got {value!r}")
    return value


def _finite(section: str, key: str, value) -> float:
    """A finite JSON number; strings and bools are refused, not converted."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{section} {key} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{section} {key} must be finite, got {value!r}")
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse and validate a config mapping; unknown keys anywhere are errors."""
    top = _take_keys(
        "config",
        raw,
        required=("schema_version", "fractal", "analysis", "fit", "seed"),
        optional={"audits": list(ALLOWED_AUDITS), "out_dir": None},
    )
    schema_version = _integer("config", "schema_version", top["schema_version"])
    if schema_version != ARTIFACT_VERSION:
        raise ConfigError(
            f"unsupported schema_version {schema_version!r}; "
            f"this artifact reads version {ARTIFACT_VERSION}"
        )

    fr = _take_keys(
        "fractal",
        top["fractal"],
        required=("ambient_dim", "n_maps", "ratio", "translations", "level"),
        optional={},
    )
    rows = fr["translations"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ConfigError(f"fractal translations must be rows of numbers, got {rows!r}")
    translations = tuple(
        tuple(_finite("fractal", "translations", x) for x in row) for row in rows
    )
    fractal = FractalSpec(
        ambient_dim=_integer("fractal", "ambient_dim", fr["ambient_dim"]),
        n_maps=_integer("fractal", "n_maps", fr["n_maps"]),
        ratio=_finite("fractal", "ratio", fr["ratio"]),
        translations=translations,
        level=_integer("fractal", "level", fr["level"]),
    )
    if fractal.level < 0:
        raise ConfigError("fractal level must be nonnegative")

    an = _take_keys(
        "analysis",
        top["analysis"],
        required=("s", "p", "symbol"),
        optional={"symbol_params": {}, "freq_cutoff": 256.0},
    )
    if not isinstance(an["symbol_params"], dict):
        raise ConfigError("analysis symbol_params must be a JSON object")
    analysis = AnalysisSpec(
        s=_finite("analysis", "s", an["s"]),
        p=_finite("analysis", "p", an["p"]),
        symbol=str(an["symbol"]),
        symbol_params=dict(an["symbol_params"]),
        freq_cutoff=_finite("analysis", "freq_cutoff", an["freq_cutoff"]),
    )
    if analysis.freq_cutoff <= 0.0:
        raise ConfigError("analysis freq_cutoff must be positive")

    ft = _take_keys(
        "fit",
        top["fit"],
        required=("tolerance",),
        optional={"k_lo": 10, "k_hi": None, "comparison": "two-sided", "quantile": 0.95},
    )
    fit = FitSpec(
        k_lo=_integer("fit", "k_lo", ft["k_lo"]),
        k_hi=None if ft["k_hi"] is None else _integer("fit", "k_hi", ft["k_hi"]),
        tolerance=_finite("fit", "tolerance", ft["tolerance"]),
        comparison=str(ft["comparison"]),
        quantile=_finite("fit", "quantile", ft["quantile"]),
    )
    if fit.k_lo < 1:
        raise ConfigError("fit k_lo must be at least 1")
    if fit.k_hi is not None and fit.k_hi <= fit.k_lo:
        raise ConfigError("fit k_hi must exceed k_lo")
    if fit.tolerance < 0.0:
        raise ConfigError("fit tolerance must be nonnegative")
    if fit.comparison not in ("two-sided", "upper"):
        raise ConfigError("fit comparison must be 'two-sided' or 'upper'")
    if not 0.0 < fit.quantile < 1.0:
        raise ConfigError("fit quantile must lie strictly between 0 and 1")

    audits = top["audits"]
    if not isinstance(audits, list) or not all(isinstance(a, str) for a in audits):
        raise ConfigError(f"audits must be a JSON list of strings, got {audits!r}")
    bad = sorted(set(audits) - set(ALLOWED_AUDITS))
    if bad:
        raise ConfigError(f"unknown audits {bad}; allowed: {list(ALLOWED_AUDITS)}")

    out_dir = top["out_dir"]
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string or null")

    seed = _integer("config", "seed", top["seed"])
    if seed < 0:
        raise ConfigError(f"config seed must be nonnegative, got {seed!r}")

    config = ExperimentConfig(
        schema_version=schema_version,
        fractal=fractal,
        analysis=analysis,
        fit=fit,
        audits=tuple(audits),
        seed=seed,
        out_dir=out_dir,
    )
    _validate_semantics(config)
    return config


def _validate_semantics(config: ExperimentConfig) -> None:
    """Check the windows and the symbol contract at load, before any compute."""
    try:
        # the level-0 measure is one atom: it builds the IFS and carries its dimension
        dimension = _build_measure(config, level=0).dimension
        theoretical_exponent(
            config.fractal.ambient_dim, dimension, config.analysis.s, config.analysis.p
        )
        sym = make_symbol(config.analysis.symbol, **config.analysis.symbol_params)
        if config.analysis.symbol == "identity":
            if not math.isclose(config.analysis.p, 2.0, rel_tol=0.0, abs_tol=1e-12):
                raise ConfigError(
                    "the identity symbol runs the kernel study, which needs p = 2; "
                    f"got p = {config.analysis.p!r}"
                )
            # the kernel diagonal's coincidence chain steps by r**(2s - (n - d))
            margin = 2.0 * config.analysis.s - (config.fractal.ambient_dim - dimension)
            floor = math.log(_CHAIN_STEP_LIMIT) / math.log(config.fractal.ratio)
            if margin <= floor:
                raise ConfigError(
                    f"the kernel diagonal's coincidence chain does not converge: 2s - "
                    f"(n - d) = {margin:.6f} is not above log({_CHAIN_STEP_LIMIT}) / "
                    f"log(r) = {floor:.6f}"
                )
        else:
            sp = config.analysis.s * config.analysis.p
            if abs(sym.order + sp) > 1e-8:
                raise ConfigError(
                    f"symbol order {sym.order} must equal -(s*p) = {-sp} for the "
                    "compression to target the declared smoothness"
                )
    except ConfigError:
        raise
    except (ValueError, TypeError, NotImplementedError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file, which must be UTF-8 (RFC 8259)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # a ValueError: bad JSON, bad UTF-8, or an integer over Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------


def _build_measure(config: ExperimentConfig, level: int | None = None) -> FractalMeasure:
    ifs = build_cantor_like(
        config.fractal.ambient_dim,
        config.fractal.n_maps,
        config.fractal.ratio,
        [list(t) for t in config.fractal.translations],
    )
    level = config.fractal.level if level is None else level
    try:
        return quadrature(ifs, level)
    except AtomBudgetError as exc:
        raise AtomBudgetError(f"level {level}: {exc}") from exc


def _assemble(config: ExperimentConfig, measure: FractalMeasure) -> DiscretizedOperator:
    if config.analysis.symbol == "identity":
        return assemble_dmu_kernel(measure, config.analysis.s)
    sym = make_symbol(config.analysis.symbol, **config.analysis.symbol_params)
    return assemble_tmu_galerkin(
        sym,
        config.analysis.s,
        config.analysis.p,
        measure,
        config.analysis.freq_cutoff,
    )


def _solve(
    config: ExperimentConfig, level: int | None = None, stage: str | None = None
) -> tuple[FractalMeasure, DiscretizedOperator, np.ndarray]:
    """Measure -> operator -> eigensolve, the steps every spectral runner shares.

    Each step runs in its own stage (``fractal_measure``,
    ``operator_assembly``, ``eigensolve``), or all three in ``stage`` if given.
    """
    with _stage(stage or "fractal_measure"):
        measure = _build_measure(config, level)
    with _stage(stage or "operator_assembly"):
        op = _assemble(config, measure)
    with _stage(stage or "eigensolve"):
        values = eigen_spectrum(op)
    return measure, op, values


def _check_fit_window(config: ExperimentConfig, levels) -> None:
    """Raise :class:`ConfigError` naming the first of ``levels`` whose ``m^L``
    atoms, which bound the nonzero count, cannot fill the fit window, so a
    run refuses it before anything is solved; the fit's own check stays as
    the backstop for a spectrum with fewer nonzero values than atoms."""
    k_lo, k_hi = config.fit.k_lo, config.fit.k_hi
    for level in levels:
        atoms = config.fractal.n_maps**level
        try:
            _fit_window(atoms, k_lo, k_hi)
        except InsufficientSpectrumError as exc:
            raise ConfigError(
                f"level {level}: {exc} ({atoms} atoms bound the nonzero count; fit "
                f"window k_lo = {k_lo}, k_hi = {'min(0.2 N, 400)' if k_hi is None else k_hi})"
            ) from exc


def _resolve_out(config: ExperimentConfig, out_dir) -> Path:
    if out_dir is not None:
        return Path(out_dir)
    if config.out_dir is not None:
        return Path(config.out_dir)
    raise ConfigError("no output directory: set out_dir in the config or pass one")


class _ArtifactWriter:
    """Collects written paths so a failed run never leaves partial output."""

    def __init__(self, out_dir: Path, config: ExperimentConfig):
        self.out_dir = out_dir
        self.preamble = config.preamble()
        self.written: list[Path] = []

    def __enter__(self) -> "_ArtifactWriter":
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for path in self.written:
                path.unlink(missing_ok=True)

    def json(self, name: str, payload: dict) -> Path:
        path = self.out_dir / name
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        self.written.append(path)
        return path

    def text(self, name: str, content: str) -> Path:
        path = self.out_dir / name
        path.write_text(content)
        self.written.append(path)
        return path

    def csv(self, name: str, header: str, rows) -> Path:
        """The preamble as a ``#`` comment line, then ``header``, then one line
        per row.  Callers format each row, floats by ``repr`` (the shortest
        exact form), so identical values give identical bytes."""
        return self.text(name, "\n".join([f"# {self.preamble}", header, *rows]) + "\n")


def _stamp(config: ExperimentConfig) -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        "config_sha256": config.config_hash,
        "seed": config.seed,
    }


_PLOT_TEMPLATE = """#!/usr/bin/env python3
# {preamble}
# Log-log plot of the eigenvalue moduli against rank, with the fitted decay
# line and the predicted rate drawn through the fit window.
import csv
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
SLOPE = {slope!r}
INTERCEPT = {intercept!r}
THEORETICAL = {theoretical!r}
K_LO = {k_lo}
K_HI = {k_hi}

ks, mods = [], []
with open(HERE / "{csv_name}") as fh:
    rows = (line for line in fh if not line.startswith("#"))
    for row in csv.DictReader(rows):
        modulus = float(row["modulus"])
        if modulus > 0.0:
            ks.append(int(row["k"]))
            mods.append(modulus)

import matplotlib.pyplot as plt

plt.figure(figsize=(7.0, 5.0))
plt.loglog(ks, mods, ".", markersize=3, label="moduli")
window = [k for k in ks if K_LO <= k <= K_HI]
plt.loglog(
    window,
    [math.exp(INTERCEPT) * k**SLOPE for k in window],
    "-",
    label=f"fit: slope {{SLOPE:.5f}}",
)
anchor = math.exp(INTERCEPT) * K_LO**SLOPE
plt.loglog(
    window,
    [anchor * (k / K_LO) ** THEORETICAL for k in window],
    "--",
    label=f"predicted: slope {{THEORETICAL:.5f}}",
)
plt.xlabel("rank k")
plt.ylabel("modulus")
plt.legend()
plt.tight_layout()
plt.savefig(HERE / "{png_name}", dpi=150)
print("wrote", HERE / "{png_name}")
"""


def _plot_script(config: ExperimentConfig, report: SpectrumReport, csv_name: str) -> str:
    return _PLOT_TEMPLATE.format(
        preamble=config.preamble(),
        slope=report.fit.slope,
        intercept=report.fit.intercept,
        theoretical=report.theoretical,
        k_lo=report.fit.k_lo,
        k_hi=report.fit.k_hi,
        csv_name=csv_name,
        png_name=csv_name.replace(".csv", ".png"),
    )


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_spectrum(
    config: ExperimentConfig, out_dir=None
) -> tuple[SpectrumReport, dict[str, Path]]:
    """Full pipeline: measure, operator, eigensolve, decay fit, artifacts.

    Writes ``spectrum.csv``, ``report.json``, and ``plot_spectrum.py`` into
    the output directory; every file is stamped with the artifact version,
    the config hash, and the seed.  A failure in any stage is re-raised as
    :class:`StageFailure` naming the stage, and removes any files already
    written by this run.  A level whose atoms cannot fill the fit window is
    refused with :class:`ConfigError` before anything is solved.
    """
    _check_fit_window(config, [config.fractal.level])
    out = _resolve_out(config, out_dir)
    measure, op, values = _solve(config)
    with _stage("decay_fit"):
        report = assess_decay(
            values,
            theoretical=theoretical_exponent(
                config.fractal.ambient_dim, measure.dimension, config.analysis.s, config.analysis.p
            ),
            tolerance=config.fit.tolerance,
            k_lo=config.fit.k_lo,
            k_hi=config.fit.k_hi,
            comparison=config.fit.comparison,
            quantile=config.fit.quantile,
            provenance={
                "assembly": op.assembly,
                "config_sha256": config.config_hash,
                "seed": config.seed,
            },
        )
    with _stage("persist"):
        with _ArtifactWriter(out, config) as writer:
            csv_path = writer.csv(
                "spectrum.csv",
                "k,re,im,modulus",
                (
                    f"{k},{z.real!r},{z.imag!r},{abs(z)!r}"
                    for k, z in enumerate(map(complex, report.eigenvalues), start=1)
                ),
            )
            json_path = writer.json(
                "report.json",
                {**_stamp(config), "parameters": config.as_canonical_dict(),
                 "spectrum_report": report.as_dict()},
            )
            plot_path = writer.text(
                "plot_spectrum.py", _plot_script(config, report, "spectrum.csv")
            )
    return report, {
        "spectrum_csv": csv_path,
        "report_json": json_path,
        "plot_script": plot_path,
    }


def run_convergence(
    config: ExperimentConfig, levels, out_dir=None
) -> tuple[list[dict], dict[str, Path]]:
    """Repeat the spectrum pipeline across refinement levels.

    Writes ``convergence.csv`` with the per-level fitted slope, the change
    against the previous level, and the twenty largest eigenvalue moduli.
    Levels must be nonnegative, strictly ascending, and each able to fill
    the fit window with its ``m^L`` atoms, or :class:`ConfigError` names the
    first that is not before anything is solved; an atom budget overflow
    names the offending level.
    """
    levels = [int(lv) for lv in levels]
    if not levels:
        raise ConfigError("convergence needs at least one level")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"levels must be strictly ascending, got {levels}")
    if levels[0] < 0:
        raise ConfigError(f"levels must be nonnegative, got {levels}")
    _check_fit_window(config, levels)
    out = _resolve_out(config, out_dir)

    rows: list[dict] = []
    for level in levels:
        # the operator is not kept: level L - 1's table and code factors are
        # freed before level L is assembled and solved
        measure, values = _solve(config, level, stage=f"level_{level}")[::2]
        with _stage(f"level_{level}"):
            fit = fit_decay_exponent(
                values, k_lo=config.fit.k_lo, k_hi=config.fit.k_hi
            )
            mods = np.abs(values[:20])
            rows.append(
                {
                    "level": level,
                    "n_atoms": measure.n_atoms,
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "delta_slope": (
                        None if not rows else fit.slope - rows[-1]["slope"]
                    ),
                    "top_moduli": [float(v) for v in mods],
                }
            )

    with _stage("persist"):
        header = "level,n_atoms,slope,intercept,delta_slope," + ",".join(
            f"top{j:02d}" for j in range(1, 21)
        )
        lines = []
        for row in rows:
            delta = "" if row["delta_slope"] is None else repr(row["delta_slope"])
            tops = [repr(v) for v in row["top_moduli"]]
            tops += [""] * (20 - len(tops))
            lines.append(
                f"{row['level']},{row['n_atoms']},{row['slope']!r},"
                f"{row['intercept']!r},{delta}," + ",".join(tops)
            )
        with _ArtifactWriter(out, config) as writer:
            csv_path = writer.csv("convergence.csv", header, lines)
    return rows, {"convergence_csv": csv_path}


def _certified_corpus(seed: int, trials: int) -> list[tuple]:
    """Seeded small random matrices with certified entropy bounds and Carl audits.

    Trial ``t`` draws a ``(1 + t % 3)``-square matrix with entries uniform on
    [-1, 1], certifies its entropy numbers by explicit coverings and
    packings, and audits its eigenvalues against the certified uppers.
    Returns ``(dim, lower, upper, eigenvalues, carl_report)`` per trial.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    for trial in range(trials):
        dim = 1 + trial % 3
        mat = rng.uniform(-1.0, 1.0, (dim, dim))
        lower, upper = entropy_numbers_bruteforce(mat, k_max=4, resolution=31)
        eig = order_by_modulus(np.linalg.eigvals(mat))
        corpus.append((dim, lower, upper, eig, carl_audit(eig, upper)))
    return corpus


def _carl_bundle(
    config: ExperimentConfig, ordered: np.ndarray, reference: np.ndarray
) -> dict:
    """Certified small-matrix theorem tests plus a spectrum consistency record.

    Certified entropy bounds exist only for small matrices, so the theorem
    form runs on a seeded random corpus.  The spectrum under test is then
    checked against the diagonal entropy estimator built from the reference
    spectrum (the operator's own eigenvalues): on a faithful run the two
    coincide and the observed slack sits well inside the bound, while an
    eigenvalue that drifted away from the operator breaches it.  The record
    is estimator-based, hence marked consistency-only, but a breach still
    fails the bundle.
    """
    corpus_reports = [report for *_, report in _certified_corpus(config.seed, 12)]
    corpus_passed = all(rep.passed for rep in corpus_reports)
    worst = {
        name: max(
            check.worst_slack
            for rep in corpus_reports
            for check in rep.checks
            if check.name == name
        )
        for name in ("carl_pointwise", "carl_geometric_mean")
    }

    kcap = min(ordered.size, reference.size, 120)
    ref_mods = np.abs(reference[:kcap])
    estimates = [entropy_estimate_diagonal(ref_mods, k) for k in range(1, kcap + 1)]
    consistency = carl_audit(
        ordered[:kcap],
        SNumberSequence("entropy-upper", tuple(estimates)),
        consistency_only=True,
    )
    consistency_passed = all(check.passed for check in consistency.checks)
    return {
        "corpus": {
            "trials": len(corpus_reports),
            "worst_slack": worst,
            "verdict": "PASS" if corpus_passed else "FAIL",
        },
        "spectrum_consistency": consistency.as_dict(),
        "verdict": "PASS" if corpus_passed and consistency_passed else "FAIL",
    }


def _entropy_quasinorm_bundle(ordered: np.ndarray) -> dict:
    kcap = min(ordered.size, 200)
    mods = np.abs(ordered[:kcap])
    estimates = [entropy_estimate_diagonal(mods, k) for k in range(1, kcap + 1)]
    table = []
    for p, q in ((1.0, 1.0), (2.0, 2.0), (1.0, math.inf), (2.0, math.inf)):
        value = entropy_ideal_quasinorm(estimates, p, q)
        table.append(
            {"p": p, "q": "inf" if math.isinf(q) else q, "value": float(value)}
        )
    finite = all(math.isfinite(row["value"]) for row in table)
    return {
        "entries": kcap,
        "table": table,
        "verdict": "PASS" if finite else "FAIL",
    }


def run_audits(
    config: ExperimentConfig, out_dir=None, spectrum=None
) -> tuple[dict, dict[str, Path]]:
    """Run the configured audit bundle against the experiment's spectrum.

    ``spectrum`` overrides the eigenvalue sequence under test (the
    fault-injection hook) while the consistency bounds are still derived
    from the config's own operator, so an injected value that disagrees
    with the operator is flagged.  An empty spectrum passes vacuously with
    a warning.  The bundle verdict fails if any check inside any requested
    audit fails.
    """
    out = _resolve_out(config, out_dir)
    ordered = None if spectrum is None else nonzero_part(spectrum)
    bundle: dict = {**_stamp(config), "audits": {}}
    # an empty injected spectrum is vacuous without building the operator
    if ordered is None or ordered.size > 0:
        values = _solve(config)[2]
        reference = nonzero_part(values)
        if ordered is None:
            ordered = reference

    if ordered.size == 0:
        warnings.warn(
            "empty spectrum: audits pass vacuously", UserWarning, stacklevel=2
        )
        for name in config.audits:
            bundle["audits"][name] = {"verdict": "PASS", "vacuous": True}
        bundle["verdict"] = "PASS"
    else:
        with _stage("audits"):
            for name in config.audits:
                if name == "carl":
                    bundle["audits"][name] = _carl_bundle(config, ordered, reference)
                elif name == "composition":
                    report = composition_law_audit(
                        svd_trials=50, entropy_trials=3, dim=6, seed=config.seed
                    )
                    bundle["audits"][name] = report.as_dict()
                elif name == "entropy-quasinorm":
                    bundle["audits"][name] = _entropy_quasinorm_bundle(ordered)
        bundle["verdict"] = (
            "PASS"
            if all(v["verdict"] == "PASS" for v in bundle["audits"].values())
            else "FAIL"
        )

    with _stage("persist"):
        with _ArtifactWriter(out, config) as writer:
            json_path = writer.json("audits.json", bundle)
    return bundle, {"audits_json": json_path}


def run_trace_snumbers(
    config: ExperimentConfig, out_dir=None
) -> tuple[SpectrumReport, dict[str, Path]]:
    """Approximation numbers of the restriction operator, fitted and judged.

    A level whose atoms cannot fill the fit window is refused with
    :class:`ConfigError` before anything is computed."""
    if not math.isclose(config.analysis.p, 2.0, rel_tol=0.0, abs_tol=1e-12):
        raise ConfigError(
            "trace-snumbers computes exact approximation numbers, which needs "
            f"p = 2; got p = {config.analysis.p!r}"
        )
    _check_fit_window(config, [config.fractal.level])
    out = _resolve_out(config, out_dir)
    with _stage("fractal_measure"):
        measure = _build_measure(config)
    with _stage("snumber_check"):
        report = snumber_exponent_check(
            measure,
            config.analysis.s,
            tolerance=config.fit.tolerance,
            k_lo=config.fit.k_lo,
            k_hi=config.fit.k_hi,
        )
    with _stage("persist"):
        with _ArtifactWriter(out, config) as writer:
            csv_path = writer.csv(
                "snumbers.csv",
                "k,value",
                (f"{k},{float(v)!r}" for k, v in enumerate(report.eigenvalues, start=1)),
            )
            json_path = writer.json(
                "snumber_report.json",
                {**_stamp(config), "parameters": config.as_canonical_dict(),
                 "snumber_report": report.as_dict()},
            )
    return report, {"snumbers_csv": csv_path, "report_json": json_path}


def run_entropy_lab(
    config: ExperimentConfig, out_dir=None
) -> tuple[dict, dict[str, Path]]:
    """Brute-force covering demos: certified entropy bounds on a seeded corpus.

    Each trial draws a small random matrix, certifies lower and upper
    entropy bounds by explicit coverings and packings, and checks the
    eigenvalue inequalities against the certified uppers.  Any violation
    fails the lab (these are theorem tests).
    """
    out = _resolve_out(config, out_dir)
    with _stage("entropy_lab"):
        trials = [
            {
                "trial": trial,
                "dim": dim,
                "lower": [float(v) for v in lower.values],
                "upper": [float(v) for v in upper.values],
                "eigen_moduli": [float(v) for v in np.abs(eig)],
                "carl": report.as_dict(),
            }
            for trial, (dim, lower, upper, eig, report) in enumerate(
                _certified_corpus(config.seed, 6)
            )
        ]
    passed = all(t["carl"]["verdict"] == "PASS" for t in trials)
    bundle = {
        **_stamp(config),
        "trials": trials,
        "verdict": "PASS" if passed else "FAIL",
    }
    with _stage("persist"):
        with _ArtifactWriter(out, config) as writer:
            json_path = writer.json("entropy_lab.json", bundle)
    return bundle, {"entropy_lab_json": json_path}


def run_validate_symbol(
    config: ExperimentConfig, out_dir=None
) -> tuple[dict, dict[str, Path]]:
    """Probe the configured symbol's derivative bounds and persist the report."""
    out = _resolve_out(config, out_dir)
    with _stage("symbol_build"):
        sym = make_symbol(config.analysis.symbol, **config.analysis.symbol_params)
    with _stage("derivative_probe"):
        report = validate_symbol(sym)
    payload = {
        **_stamp(config),
        "symbol": report.symbol_name,
        "declared_order": report.declared_order,
        "declared_delta": report.declared_delta,
        "max_order": report.max_order,
        "constants": {
            f"{a},{g}": float(v) for (a, g), v in sorted(report.constants.items())
        },
        "density_growth": {
            f"{a},{g}": float(v) for (a, g), v in sorted(report.density_growth.items())
        },
        "range_growth": {
            f"{a},{g}": float(v) for (a, g), v in sorted(report.range_growth.items())
        },
        "violations": [
            [int(a), int(g), str(kind), float(factor)]
            for a, g, kind, factor in report.violations
        ],
        "verdict": "PASS" if report.passed else "FAIL",
        "summary": report.summary(),
    }
    with _stage("persist"):
        with _ArtifactWriter(out, config) as writer:
            json_path = writer.json("symbol_report.json", payload)
    return payload, {"symbol_report_json": json_path}
