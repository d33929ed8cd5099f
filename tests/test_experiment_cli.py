"""Tests for the experiment pipeline runners and the command-line front end.

Covers config parsing (unknown keys are errors, semantic validation at load
time), artifact writing with byte-for-byte reproducibility, stage-named
failures with partial-output cleanup, the audit bundles including fault
injection, and the CLI exit-code contract (0 pass / 1 verdict fail /
2 config error / 3 numerical error).
"""

from __future__ import annotations

import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from fracspectra import experiment
from fracspectra.cli import main
from fracspectra.experiment import (
    ARTIFACT_VERSION,
    ConfigError,
    ExperimentConfig,
    StageFailure,
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
    AtomBudgetError,
    build_cantor_like,
    quadrature,
)
from fracspectra.fractal_operator import assemble_dmu_kernel
from fracspectra.psido_engine import available_symbols
from fracspectra.spectral_report import (
    InsufficientSpectrumError,
    eigen_spectrum,
    order_by_modulus,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
# the only scipy modules a run loads: the compiled ones it calls
NATIVE_MODULES = ["scipy.linalg._fblas", "scipy.linalg._flapack", "scipy.special._special_ufuncs"]

BASE = {
    "schema_version": 1,
    "fractal": {
        "ambient_dim": 1,
        "n_maps": 2,
        "ratio": 1.0 / 3.0,
        "translations": [[0.0], [2.0 / 3.0]],
        "level": 5,
    },
    "analysis": {"s": 0.45, "p": 2.0, "symbol": "identity"},
    "fit": {"k_lo": 2, "k_hi": 30, "tolerance": 0.5},
    "audits": ["carl", "composition", "entropy-quasinorm"],
    "seed": 1234,
}


def base_dict(**top_level) -> dict:
    raw = copy.deepcopy(BASE)
    raw.update(top_level)
    return raw


def write_config(path: Path, raw: dict) -> Path:
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def base_config() -> ExperimentConfig:
    return config_from_dict(base_dict())


@pytest.fixture(scope="module")
def level7_spectrum() -> np.ndarray:
    ifs = build_cantor_like(1, 2, 1.0 / 3.0, [[0.0], [2.0 / 3.0]])
    op = assemble_dmu_kernel(quadrature(ifs, 7), 0.45)
    return eigen_spectrum(op)


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------


class TestConfigParsing:
    def test_bundled_configs_load(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert len(paths) == 3
        hashes = set()
        for path in paths:
            config = load_config(path)
            digest = config.config_hash
            assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
            hashes.add(digest)
        assert len(hashes) == 3  # distinct experiments hash differently

    @pytest.mark.parametrize(
        "stem, digest",
        [
            ("cantor_small", "37c5996089a8e6d38b301beb27b6040dcdfc9d2889c75685ef344f8b6c68e06e"),
            ("cantor_p2", "29119895eefabd12ac78156e0e15e8b376b18b08b3dd4ba66d83bc39ddc6bd10"),
            ("cantor_p15", "1cf0eeda34728a1073bd2685bfbe81eb980296367c7004290a36c04b872c6313"),
        ],
    )
    def test_bundled_config_hash_is_pinned(self, stem, digest):
        # the stamp in every artifact preamble; any drift of the canonical
        # dict (a renamed, added or dropped field, or a changed value) changes it
        assert load_config(CONFIG_DIR / f"{stem}.json").config_hash == digest

    def test_hash_is_stable_across_loads(self, tmp_path):
        path = write_config(tmp_path / "a.json", base_dict())
        assert load_config(path).config_hash == load_config(path).config_hash

    def test_hash_ignores_out_dir_but_not_seed(self):
        plain = config_from_dict(base_dict())
        moved = config_from_dict(base_dict(out_dir="/somewhere/else"))
        reseeded = config_from_dict(base_dict(seed=999))
        assert plain.config_hash == moved.config_hash
        assert plain.config_hash != reseeded.config_hash

    def test_preamble_carries_stamp(self, base_config):
        pre = base_config.preamble()
        assert pre.startswith(f"artifact_version={ARTIFACT_VERSION} ")
        assert f"config_sha256={base_config.config_hash}" in pre
        assert "seed=1234" in pre

    def test_defaults_fill_in(self):
        raw = base_dict()
        del raw["audits"]
        del raw["analysis"]
        raw["analysis"] = {"s": 0.45, "p": 2.0, "symbol": "identity"}
        config = config_from_dict(raw)
        assert config.audits == ("carl", "composition", "entropy-quasinorm")
        assert config.analysis.freq_cutoff == 256.0
        assert config.fit.comparison == "two-sided"
        assert config.fit.quantile == 0.95
        assert config.out_dir is None

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda raw: raw.update(mystery=1),
            lambda raw: raw["fractal"].update(colour="blue"),
            lambda raw: raw["analysis"].update(order=-0.9),
            lambda raw: raw["fit"].update(window=[1, 2]),
        ],
        ids=["top-level", "fractal", "analysis", "fit"],
    )
    def test_unknown_keys_are_errors(self, mutate):
        raw = base_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda raw: raw.pop("seed"),
            lambda raw: raw["fractal"].pop("level"),
            lambda raw: raw["analysis"].pop("s"),
            lambda raw: raw["fit"].pop("tolerance"),
        ],
        ids=["seed", "level", "s", "tolerance"],
    )
    def test_missing_keys_are_errors(self, mutate):
        raw = base_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match="missing"):
            config_from_dict(raw)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(base_dict(schema_version=2))

    @pytest.mark.parametrize("s", [0.6, 0.18], ids=["above", "below"])
    def test_smoothness_outside_window_fails_at_load(self, s):
        raw = base_dict()
        raw["analysis"]["s"] = s
        with pytest.raises(ConfigError, match="invalid configuration"):
            config_from_dict(raw)

    def test_identity_symbol_requires_p_two(self):
        raw = base_dict()
        raw["analysis"].update(s=0.5333333333333333, p=1.5)
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_symbol_order_must_match_analysis(self):
        raw = base_dict()
        raw["analysis"] = {
            "s": 0.5333333333333333,
            "p": 1.5,
            "symbol": "separable_demo",
            "symbol_params": {"sigma": -0.5},  # order != -s*p
        }
        with pytest.raises(ConfigError, match="order"):
            config_from_dict(raw)

    def test_unknown_symbol(self):
        raw = base_dict()
        raw["analysis"]["symbol"] = "mystery"
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_unknown_audit(self):
        with pytest.raises(ConfigError, match="audit"):
            config_from_dict(base_dict(audits=["carl", "vibes"]))

    @pytest.mark.parametrize(
        "audits", [5, None, [["carl"]], "carl"], ids=["int", "null", "nested", "string"]
    )
    def test_audits_must_be_a_list_of_strings(self, audits):
        with pytest.raises(ConfigError, match="audits must be a JSON list of strings"):
            config_from_dict(base_dict(audits=audits))

    @pytest.mark.parametrize("seed", [True, 1.5, "7"], ids=["bool", "float", "str"])
    def test_seed_must_be_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(base_dict(seed=seed))

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("fractal", "level", -1),
            ("analysis", "freq_cutoff", 0.0),
            ("fit", "k_lo", 0),
            ("fit", "k_hi", 2),  # not above k_lo
            ("fit", "tolerance", -0.1),
            ("fit", "quantile", 1.0),
            ("fit", "comparison", "sideways"),
            ("fractal", "level", 7.9),  # not truncated to 7
            ("fractal", "level", "7"),
            ("fractal", "level", True),
            ("fractal", "ambient_dim", 1.0),
            ("fractal", "n_maps", "2"),
            ("fit", "k_lo", 10.5),
            ("fit", "k_hi", 200.0),
            ("fractal", "translations", [[math.nan], [2.0 / 3.0]]),
            ("analysis", "freq_cutoff", math.nan),
            ("fit", "tolerance", math.nan),
            ("config", "seed", -3),
            ("config", "schema_version", True),  # True == 1, but not an integer key
            ("config", "schema_version", 1.0),
            # number keys take JSON numbers only: no strings, no bools
            ("analysis", "s", "0.45"),
            ("fit", "tolerance", True),
            ("fit", "quantile", "0.5"),
            ("fractal", "translations", "02"),
            ("fractal", "translations", ["0", "2"]),
            ("fractal", "translations", [["0"], [2.0 / 3.0]]),
            ("analysis", "freq_cutoff", 10**400),  # a JSON integer past the float range
        ],
    )
    def test_section_value_validation(self, section, key, value):
        raw = base_dict()
        # "config" names the top level, as in the parser's messages
        (raw if section == "config" else raw[section])[key] = value
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("name", available_symbols())
    def test_every_catalog_symbol_loads(self, name):
        # a name no config can select must not stay in the catalog
        raw = json.loads((CONFIG_DIR / "cantor_p2.json").read_text(encoding="utf-8"))
        an = raw["analysis"]
        an["symbol"] = name
        an["symbol_params"] = {} if name == "identity" else {"sigma": -an["s"] * an["p"]}
        assert config_from_dict(raw).analysis.symbol == name

    def test_translation_shape_mismatch_is_config_error(self):
        raw = base_dict()
        raw["fractal"]["translations"] = [[0.0], [2.0 / 3.0], [1.0]]
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_non_object_json_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# Spectrum runner
# ---------------------------------------------------------------------------


class TestRunSpectrum:
    def test_artifacts_and_stamps(self, base_config, tmp_path):
        report, paths = run_spectrum(base_config, tmp_path / "out")
        assert report.verdict == "PASS"
        assert set(paths) == {"spectrum_csv", "report_json", "plot_script"}
        for path in paths.values():
            assert path.exists()

        payload = json.loads(paths["report_json"].read_text(encoding="utf-8"))
        assert payload["artifact_version"] == ARTIFACT_VERSION
        assert payload["config_sha256"] == base_config.config_hash
        assert payload["seed"] == 1234
        assert payload["parameters"] == base_config.as_canonical_dict()
        assert payload["spectrum_report"]["verdict"] == "PASS"
        assert payload["spectrum_report"]["provenance"]["seed"] == 1234

        first_line = paths["spectrum_csv"].read_text(encoding="utf-8").splitlines()[0]
        assert first_line == f"# {base_config.preamble()}"

    def test_spectrum_csv_rows_round_trip(self, base_config, tmp_path):
        report, paths = run_spectrum(base_config, tmp_path / "out")
        text = paths["spectrum_csv"].read_text(encoding="utf-8")
        assert text.endswith("\n") and not text.endswith("\n\n")
        lines = text.splitlines()
        assert lines[1] == "k,re,im,modulus"
        assert len(lines) == 2 + report.count
        for rank, (line, z) in enumerate(zip(lines[2:], report.eigenvalues), start=1):
            k, re, im, modulus = line.split(",")
            # repr floats read back bit for bit
            assert int(k) == rank
            assert complex(float(re), float(im)) == z and float(modulus) == abs(z)

    def test_plot_script_is_valid_python(self, base_config, tmp_path):
        _, paths = run_spectrum(base_config, tmp_path / "out")
        src = paths["plot_script"].read_text(encoding="utf-8")
        compile(src, "plot_spectrum.py", "exec")  # syntax check only
        assert "spectrum.csv" in src
        assert "matplotlib" in src  # plotting stays out of the core imports

    def test_two_runs_are_byte_identical(self, base_config, tmp_path):
        _, first = run_spectrum(base_config, tmp_path / "a")
        _, second = run_spectrum(base_config, tmp_path / "b")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()

    def test_out_dir_argument_beats_config(self, tmp_path):
        config = config_from_dict(base_dict(out_dir=str(tmp_path / "from_config")))
        _, paths = run_spectrum(config, tmp_path / "explicit")
        assert paths["report_json"].parent == tmp_path / "explicit"
        assert not (tmp_path / "from_config").exists()

    def test_no_out_dir_anywhere_is_config_error(self, base_config):
        with pytest.raises(ConfigError, match="out"):
            run_spectrum(base_config)

    def test_too_few_nonzero_values_name_the_fit_stage(self, tmp_path, monkeypatch):
        # 32 atoms fill the window, but a spectrum of 4 nonzero values and
        # 28 zeros does not: the fit's own check is the backstop
        monkeypatch.setattr(
            experiment, "eigen_spectrum", lambda op: np.r_[4.0:0.0:-1.0, np.zeros(28)]
        )
        config = config_from_dict(base_dict())
        out = tmp_path / "out"
        with pytest.raises(StageFailure) as excinfo:
            run_spectrum(config, out)
        assert excinfo.value.stage == "decay_fit"
        assert isinstance(excinfo.value.original, InsufficientSpectrumError)
        assert not out.exists()  # failed before anything was written

    def test_separable_symbol_path(self, tmp_path):
        config = load_config(CONFIG_DIR / "cantor_p15.json")
        report, paths = run_spectrum(config, tmp_path / "out")
        assert report.verdict == "PASS"
        assert report.fit.kind == "quantile-envelope"
        assert report.comparison == "upper"
        payload = json.loads(paths["report_json"].read_text(encoding="utf-8"))
        assembly = payload["spectrum_report"]["provenance"]["assembly"]
        assert assembly["kind"] == "separable-symbol-compression"

    def test_separable_symbol_spectrum_bits_are_pinned(self, tmp_path):
        # cantor_p15 at level 8: the top ten eigenvalues and the fitted slope,
        # bit for bit as the reduction of the matrix's lower triangle gives
        # them with one BLAS thread.  OpenBLAS's one-thread and threaded
        # kernels round differently, so the run is a fresh process with the
        # thread count pinned, and the pins hold whatever the runner's default
        raw = json.loads((CONFIG_DIR / "cantor_p15.json").read_text(encoding="utf-8"))
        raw["fractal"]["level"] = 8
        probe = (
            "import json, sys; "
            "from fracspectra.experiment import config_from_dict, run_spectrum; "
            "report, _ = run_spectrum(config_from_dict(json.loads(sys.argv[1])), sys.argv[2]); "
            "print(*[float(v).hex() for v in report.eigenvalues[:10]]); "
            "print(float(report.fit.slope).hex())"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(raw), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        values, slope = done.stdout.splitlines()
        assert values.split() == [
            "0x1.f37cf1deb04c9p-1",
            "0x1.54b7e20094766p-1",
            "0x1.d42e2eb8f0253p-2",
            "0x1.a18337e4f5a17p-2",
            "0x1.2b8eab7b5837dp-2",
            "0x1.1d7818bb75951p-2",
            "0x1.0f705ed3cf692p-2",
            "0x1.f857e3a260ee7p-3",
            "0x1.771abad960d76p-3",
            "0x1.71edc2511d86fp-3",
        ]
        assert slope == "-0x1.67a29404dd667p-1"


# ---------------------------------------------------------------------------
# Convergence runner
# ---------------------------------------------------------------------------


class TestRunConvergence:
    def test_rows_and_csv(self, base_config, tmp_path):
        rows, paths = run_convergence(base_config, [5, 6, 7], tmp_path / "out")
        assert [row["level"] for row in rows] == [5, 6, 7]
        assert [row["n_atoms"] for row in rows] == [32, 64, 128]
        assert rows[0]["delta_slope"] is None
        for prev, row in zip(rows, rows[1:]):
            assert row["delta_slope"] == pytest.approx(row["slope"] - prev["slope"])
        for row in rows:
            assert len(row["top_moduli"]) == 20
            assert row["top_moduli"] == sorted(row["top_moduli"], reverse=True)

        lines = paths["convergence_csv"].read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"# {base_config.preamble()}"
        header = lines[1].split(",")
        assert header[:5] == ["level", "n_atoms", "slope", "intercept", "delta_slope"]
        assert header[5] == "top01" and header[-1] == "top20"
        assert len(lines) == 2 + len(rows)
        first_row = lines[2].split(",")
        assert first_row[0] == "5" and first_row[4] == ""  # no delta on first level

    def test_single_level(self, base_config, tmp_path):
        rows, _ = run_convergence(base_config, [5], tmp_path / "out")
        assert len(rows) == 1 and rows[0]["delta_slope"] is None

    def test_byte_identical(self, base_config, tmp_path):
        _, first = run_convergence(base_config, [5, 6], tmp_path / "a")
        _, second = run_convergence(base_config, [5, 6], tmp_path / "b")
        assert (
            first["convergence_csv"].read_bytes()
            == second["convergence_csv"].read_bytes()
        )

    @pytest.mark.parametrize(
        "levels", [[], [5, 5], [6, 5], [-1, 5]], ids=["empty", "tie", "desc", "negative"]
    )
    def test_bad_level_lists(self, base_config, tmp_path, levels):
        with pytest.raises(ConfigError):
            run_convergence(base_config, levels, tmp_path / "out")

    def test_each_level_is_assembled_after_the_last_is_released(
        self, base_config, tmp_path, monkeypatch
    ):
        # no level's operator outlives its own solve and fit, so the run
        # never holds two levels' tables and code factors at once
        refs, alive, assemble = [], [], experiment._assemble

        def spy(*args):
            alive.append([ref() is not None for ref in refs])
            op = assemble(*args)
            refs.append(weakref.ref(op))
            return op

        monkeypatch.setattr(experiment, "_assemble", spy)
        run_convergence(base_config, [5, 6, 7], tmp_path / "out")
        assert alive == [[], [False], [False, False]]

    def test_budget_overflow_names_level(self, base_config, tmp_path):
        with pytest.raises(StageFailure, match="level_25") as excinfo:
            run_convergence(base_config, [5, 25], tmp_path / "out")
        assert isinstance(excinfo.value.original, AtomBudgetError)
        assert "level 25" in str(excinfo.value.original)
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Audit runner
# ---------------------------------------------------------------------------


class TestRunAudits:
    def test_full_bundle_passes(self, base_config, tmp_path):
        bundle, paths = run_audits(base_config, tmp_path / "out")
        assert bundle["verdict"] == "PASS"
        assert set(bundle["audits"]) == {"carl", "composition", "entropy-quasinorm"}
        for entry in bundle["audits"].values():
            assert entry["verdict"] == "PASS"
        assert bundle["config_sha256"] == base_config.config_hash
        on_disk = json.loads(paths["audits_json"].read_text(encoding="utf-8"))
        assert on_disk == bundle

    def test_clean_consistency_slack_is_comfortable(self, base_config, tmp_path):
        raw = base_dict(audits=["carl"])
        config = config_from_dict(raw)
        bundle, _ = run_audits(config, tmp_path / "out")
        checks = bundle["audits"]["carl"]["spectrum_consistency"]["checks"]
        by_name = {c["check"]: c for c in checks}
        assert by_name["carl_pointwise"]["worst_slack"] <= 1.0 + 1e-9
        assert by_name["carl_geometric_mean"]["worst_slack"] <= 1.0 + 1e-9

    def test_fault_injection_is_flagged(self, level7_spectrum, tmp_path):
        raw = base_dict(audits=["carl"])
        raw["fractal"]["level"] = 7
        config = config_from_dict(raw)
        corrupt = level7_spectrum.copy()
        corrupt[4] *= 2.0  # double the fifth-largest eigenvalue
        corrupt = order_by_modulus(corrupt)

        bundle, _ = run_audits(config, tmp_path / "out", spectrum=corrupt)
        carl = bundle["audits"]["carl"]
        assert bundle["verdict"] == "FAIL"
        assert carl["verdict"] == "FAIL"
        assert carl["corpus"]["verdict"] == "PASS"  # theorem corpus is untouched
        checks = {c["check"]: c for c in carl["spectrum_consistency"]["checks"]}
        assert checks["carl_geometric_mean"]["verdict"] == "FAIL"
        assert checks["carl_geometric_mean"]["worst_slack"] > 1.0

    def test_clean_injection_passes(self, level7_spectrum, tmp_path):
        raw = base_dict(audits=["carl"])
        raw["fractal"]["level"] = 7
        config = config_from_dict(raw)
        bundle, _ = run_audits(
            config, tmp_path / "out", spectrum=level7_spectrum.copy()
        )
        assert bundle["verdict"] == "PASS"

    def test_empty_spectrum_is_vacuous_with_warning(self, base_config, tmp_path):
        with pytest.warns(UserWarning, match="vacuously"):
            bundle, paths = run_audits(
                base_config, tmp_path / "out", spectrum=np.array([])
            )
        assert bundle["verdict"] == "PASS"
        for entry in bundle["audits"].values():
            assert entry == {"verdict": "PASS", "vacuous": True}
        assert paths["audits_json"].exists()

    def test_byte_identical(self, tmp_path):
        config = config_from_dict(base_dict(audits=["entropy-quasinorm"]))
        _, first = run_audits(config, tmp_path / "a")
        _, second = run_audits(config, tmp_path / "b")
        assert first["audits_json"].read_bytes() == second["audits_json"].read_bytes()


# ---------------------------------------------------------------------------
# Remaining runners
# ---------------------------------------------------------------------------


class TestRunTraceSnumbers:
    def test_report_and_artifacts(self, base_config, tmp_path):
        report, paths = run_trace_snumbers(base_config, tmp_path / "out")
        assert report.verdict == "PASS"
        assert report.provenance["quantity"] == "approximation-numbers"

        lines = paths["snumbers_csv"].read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"# {base_config.preamble()}"
        assert lines[1] == "k,value"
        k, value = lines[2].split(",")
        assert k == "1" and float(value) > 0.0

        payload = json.loads(paths["report_json"].read_text(encoding="utf-8"))
        assert payload["config_sha256"] == base_config.config_hash
        assert payload["snumber_report"]["verdict"] == "PASS"

    def test_requires_p_two(self, tmp_path):
        config = load_config(CONFIG_DIR / "cantor_p15.json")
        with pytest.raises(ConfigError, match="p = 2"):
            run_trace_snumbers(config, tmp_path / "out")


class TestRunEntropyLab:
    def test_certified_trials_pass(self, base_config, tmp_path):
        bundle, paths = run_entropy_lab(base_config, tmp_path / "out")
        assert bundle["verdict"] == "PASS"
        assert len(bundle["trials"]) == 6
        for trial in bundle["trials"]:
            assert trial["carl"]["verdict"] == "PASS"
            uppers = trial["upper"]
            lowers = trial["lower"]
            assert all(lo <= up * (1 + 1e-9) for lo, up in zip(lowers, uppers))
        assert paths["entropy_lab_json"].exists()


class TestRunValidateSymbol:
    def test_identity_symbol_passes(self, base_config, tmp_path):
        payload, paths = run_validate_symbol(base_config, tmp_path / "out")
        assert payload["verdict"] == "PASS"
        assert payload["symbol"] == "identity"
        assert payload["violations"] == []
        assert paths["symbol_report_json"].exists()

    def test_separable_symbol_passes(self, tmp_path):
        config = load_config(CONFIG_DIR / "cantor_p15.json")
        payload, _ = run_validate_symbol(config, tmp_path / "out")
        assert payload["verdict"] == "PASS"
        assert payload["declared_order"] == pytest.approx(-0.8)
        assert payload["constants"]  # probe actually measured something


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


class TestCli:
    def test_cli_import_leaves_out_the_optional_scipy_subpackages(self, tmp_path):
        # importing the CLI and loading a config load no scipy module at all,
        # and neither does validate-symbol.  Kernels, the profile spline and
        # eigensolves load the three compiled modules they call on first use,
        # so spectrum loads those three and no scipy package: not
        # scipy.special or scipy.linalg, whose modules they are, nor
        # scipy.interpolate or scipy.optimize (the spline is one dgtsv solve
        # and the upper envelope is found without a linear-program solver),
        # nor scipy.spatial
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]),
        )
        raw = json.loads((CONFIG_DIR / "cantor_p15.json").read_text(encoding="utf-8"))
        raw["fractal"]["level"] = 6
        assert raw["fit"]["comparison"] == "upper"
        config = tmp_path / "cantor_p15.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        probe = (
            "import sys, fracspectra.cli; "
            "from fracspectra.experiment import load_config; "
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "named = ('scipy.interpolate', 'scipy.linalg', 'scipy.optimize', "
            "'scipy.spatial', 'scipy.special'); "
            "load_config(sys.argv[1]); at_load = scipy(); "
            "run = lambda cmd: fracspectra.cli.main([cmd, '--config', sys.argv[1], '--out', "
            "sys.argv[2] + '/' + cmd]); "
            "codes = [run('validate-symbol')]; after_symbol = scipy(); "
            "codes.append(run('spectrum')); "
            "print(at_load, after_symbol, codes, scipy(), [m for m in named if m in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, str(config), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"[] [] [0, 0] {NATIVE_MODULES} []"

    def test_entropy_runs_never_load_scipy_spatial(self, tmp_path):
        # the cover polish reads its boundary points off the lattice, so a
        # whole entropy-lab and audits run needs no convex hull; entropy-lab
        # loads no scipy module at all, and audits, which assembles a kernel
        # and solves it, loads the three compiled modules and no scipy package
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]),
        )
        config = str(CONFIG_DIR / "cantor_small.json")
        probe = (
            "import sys; from fracspectra.cli import main; "
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "run = lambda cmd: main([cmd, '--config', sys.argv[1], '--out', "
            "sys.argv[2] + '/' + cmd]); "
            "codes = [run('entropy-lab')]; after_entropy = scipy(); "
            "codes.append(run('audits')); "
            "named = ('scipy.interpolate', 'scipy.linalg', 'scipy.optimize', "
            "'scipy.spatial', 'scipy.special'); "
            "print(codes, after_entropy, scipy(), [m for m in named if m in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, config, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"[0, 0] [] {NATIVE_MODULES} []"

    def test_parallel_first_imports_match_serial_bytes(self, tmp_path, capsys):
        # in a fresh interpreter the pool's two workers reach the package's
        # first loads of the compiled scipy modules together; each config
        # still writes its serial bytes, and no scipy package is imported
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]),
        )
        args = ["spectrum"]
        for stem in ("cantor_p2", "cantor_p15"):
            raw = json.loads((CONFIG_DIR / f"{stem}.json").read_text(encoding="utf-8"))
            raw["fractal"]["level"] = 6
            args += ["--config", str(write_config(tmp_path / f"{stem}.json", raw))]
        parallel, serial = tmp_path / "parallel", tmp_path / "serial"
        probe = (
            "import sys; from fracspectra.cli import main; code = main(sys.argv[1:]); "
            "print([m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules]); "
            "sys.exit(code)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, *args, "--jobs", "2", "--out", str(parallel)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert main(args + ["--out", str(serial)]) == 0
        capsys.readouterr()
        files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
        assert files == sorted(
            p.relative_to(parallel) for p in parallel.rglob("*") if p.is_file()
        )
        assert {p.parts[0] for p in files} == {"cantor_p2", "cantor_p15"}
        for rel in files:
            assert (parallel / rel).read_bytes() == (serial / rel).read_bytes(), rel

    @pytest.mark.parametrize("stem, level", [("cantor_p2", 8), ("cantor_p15", 9)])
    def test_thread_modes_keep_their_bytes_and_agree_to_rounding(self, tmp_path, stem, level):
        # README's contract: a rerun in one BLAS thread mode writes the same
        # bytes; OpenBLAS's one-thread and threaded kernels round apart, so
        # across modes only the verdict line and the eigenvalues to a few ulps
        # of lambda_1 must agree.  No BLAS call reaches the assembly, so the
        # operator it holds (its upper triangle gathered and hashed, all of K
        # since K is bitwise symmetric) and its record, the diagonal rule
        # included, agree bit for bit.  L = 9 is the smallest level of
        # cantor_p15 whose diagonal rule a cutoff profile summed by a BLAS
        # product rounded apart between the modes.  Each run is a fresh process.
        raw = json.loads((CONFIG_DIR / f"{stem}.json").read_text(encoding="utf-8"))
        raw["fractal"]["level"] = level
        config = write_config(tmp_path / f"{stem}.json", raw)
        probe = (
            "import hashlib, sys; from fracspectra import experiment; "
            "from fracspectra.cli import main; ops, assemble = [], experiment._assemble; "
            "experiment._assemble = lambda *args: ops.append(assemble(*args)) or ops[-1]; "
            "code = main(sys.argv[1:]); (op,) = ops; "
            "print(hashlib.sha256(op.pairs.dense().tobytes()).hexdigest()); sys.exit(code)"
        )
        runs = []
        for threads in ("1", "1", "2", "2"):
            out = tmp_path / f"run{len(runs)}"
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]),
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
            )
            done = subprocess.run(
                [sys.executable, "-c", probe, "spectrum", "--config", str(config), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            lines = done.stdout.splitlines()
            runs.append((lines[0], lines[-1], files))
        assert runs[0] == runs[1] and runs[2] == runs[3]
        (verdict, digest, one), (threaded_verdict, threaded_digest, threaded) = runs[0], runs[2]
        assert verdict == threaded_verdict and "spectrum PASS" in verdict
        assert digest == threaded_digest
        assert one.keys() == threaded.keys()
        report = Path("report.json")
        assembly, threaded_assembly = (
            json.loads(files[report])["spectrum_report"]["provenance"]["assembly"]
            for files in (one, threaded)
        )
        assert assembly == threaded_assembly
        csv = Path("spectrum.csv")
        lam, lam_threaded = (
            np.loadtxt(io.StringIO(files[csv].decode()), delimiter=",", skiprows=2, usecols=1)
            for files in (one, threaded)
        )
        assert lam.size == 2**level
        gap = np.abs(lam - lam_threaded).max()
        assert gap <= 4.0 * np.finfo(float).eps * lam[0], gap

    def test_spectrum_pass_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", base_dict())
        out = tmp_path / "out"
        code = main(["spectrum", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "spectrum PASS" in captured.out
        assert (out / "report.json").exists()

    def test_tolerance_override_fails_verdict(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", base_dict())
        out = tmp_path / "out"
        code = main(
            [
                "spectrum",
                "--config",
                str(path),
                "--out",
                str(out),
                "--tolerance",
                "0.0001",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "spectrum FAIL" in captured.out
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["spectrum_report"]["verdict"] == "FAIL"
        assert payload["spectrum_report"]["tolerance"] == 0.0001

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_invalid_tolerance_override_exits_two_without_outputs(
        self, tmp_path, capsys, value
    ):
        # the override must pass the same checks as a config file's tolerance
        path = write_config(tmp_path / "cfg.json", base_dict())
        out = tmp_path / "out"
        code = main(
            ["spectrum", "--config", str(path), "--out", str(out), f"--tolerance={value}"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err and "fit tolerance" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "spectrum",
                "--config",
                str(tmp_path / "absent.json"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err

    @pytest.mark.parametrize(
        "content",
        [b'\xff\xfe{"a":1}', b"[" * 100000, b'{"seed": ' + b"1" * 5000 + b"}"],
        ids=["not-utf-8", "nested-too-deep", "integer-over-digit-limit"],
    )
    def test_malformed_config_file_exits_two_without_outputs(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        code = main(["spectrum", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err and "not valid JSON" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_invalid_window_exits_two_without_outputs(self, tmp_path, capsys):
        raw = base_dict()
        raw["analysis"]["s"] = 0.6  # s*p above the admissible window
        path = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "out"
        code = main(["spectrum", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audits", "entropy-lab"])
    def test_negative_seed_exits_two_without_outputs(self, tmp_path, capsys, command):
        # refused at load: the corpus generators would fail mid-run on it
        path = write_config(tmp_path / "cfg.json", base_dict(seed=-3))
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err and "seed" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "symbol, params, message",
        [
            ("identity", {"bogus": 1}, "bogus"),
            ("identity", {"type_delta": 5}, "type_delta"),
            ("identity", {"sigma": -0.9}, "does not read sigma"),
            ("identity", {"sigma": None}, "does not read sigma"),
            ("separable_demo", {"sigma": -0.9, "shell_count": 3}, "shell_count"),
        ],
    )
    def test_unread_symbol_params_exit_two_without_outputs(
        self, tmp_path, capsys, symbol, params, message
    ):
        raw = base_dict()
        raw["analysis"].update(symbol=symbol, symbol_params=params)
        path = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "out"
        code = main(["validate-symbol", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err and message in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_exit_two_without_outputs(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path / "cfg.json", base_dict())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--config", str(path), "--out", str(out), f"--jobs={jobs}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "positive integer" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("margin, code", [(0.004, 2), (0.006, 0)])
    def test_coincidence_chain_edge_of_the_window(self, tmp_path, capsys, margin, code):
        # 2s just above n - d is inside the window, but the diagonal's
        # coincidence chain stops converging once its step ratio r**(2s - (n -
        # d)) reaches 0.995; the load refuses that before anything is computed
        raw = json.loads((CONFIG_DIR / "cantor_small.json").read_text(encoding="utf-8"))
        raw["analysis"]["s"] = (1.0 - math.log(2.0) / math.log(3.0) + margin) / 2.0
        path = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert "spectrum PASS" in captured.out
            return
        assert "config error" in captured.err and "coincidence chain does not converge" in captured.err
        assert "2s - (n - d) = 0.004000 is not above log(0.995) / log(r) = 0.004563" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        # the cell-size edge: level-8 cells at ratio 0.01 send the coincidence
        # chain's first probe below its floor, found only while assembling
        raw = json.loads((CONFIG_DIR / "cantor_small.json").read_text())
        raw["fractal"].update(ratio=0.01, translations=[[0.0], [0.99]], level=8)
        path = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "out"
        code = main(["spectrum", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "numerical error" in captured.err
        assert "operator_assembly" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, spied",
        [
            (["convergence", "--levels", "6,7,8"], "eigen_spectrum"),
            (["spectrum"], "eigen_spectrum"),
            (["trace-snumbers"], "snumber_exponent_check"),
        ],
        ids=["convergence", "spectrum", "trace-snumbers"],
    )
    def test_level_below_the_fit_window_exits_two_before_solving(
        self, tmp_path, capsys, monkeypatch, command, spied
    ):
        # cantor_small fits k from 10 to min(0.2 N, 400): level 6 (N = 64)
        # leaves [10, 12], fewer than 5 ranks, so the run stops at load
        # instead of solving level 6 and failing its fit
        solves = []
        monkeypatch.setattr(experiment, spied, lambda *args, **kwargs: solves.append(args))
        raw = json.loads((CONFIG_DIR / "cantor_small.json").read_text())
        raw["fractal"]["level"] = 6
        path = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "out"
        code = main([*command, "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err and "level 6:" in captured.err
        assert "fit window [10, 12] holds fewer than 5 points" in captured.err
        assert captured.out == ""
        assert solves == [] and not out.exists()

    def test_convergence_levels(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", base_dict())
        out = tmp_path / "out"
        code = main(
            [
                "convergence",
                "--config",
                str(path),
                "--out",
                str(out),
                "--levels",
                "5,6",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "convergence PASS" in captured.out
        assert (out / "convergence.csv").exists()

    @pytest.mark.parametrize(
        "levels", ["5,4", "4,x", "-1,5"], ids=["descending", "non-int", "negative"]
    )
    def test_bad_levels_exit_two(self, tmp_path, capsys, levels):
        path = write_config(tmp_path / "cfg.json", base_dict())
        code = main(
            [
                "convergence",
                "--config",
                str(path),
                "--out",
                str(tmp_path / "out"),
                f"--levels={levels}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err
        assert not (tmp_path / "out").exists()

    def test_malformed_audits_exit_two_without_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", base_dict(audits=5))
        out = tmp_path / "out"
        code = main(["audits", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err and "audits" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_audits_subcommand(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "cfg.json", base_dict(audits=["entropy-quasinorm"])
        )
        out = tmp_path / "out"
        code = main(["audits", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "audits PASS" in captured.out
        assert "entropy-quasinorm=PASS" in captured.out
        assert (out / "audits.json").exists()

    def test_trace_snumbers_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", base_dict())
        out = tmp_path / "out"
        code = main(["trace-snumbers", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "trace-snumbers PASS" in captured.out
        assert (out / "snumbers.csv").exists()

    def test_entropy_lab_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", base_dict())
        out = tmp_path / "out"
        code = main(["entropy-lab", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "entropy-lab PASS" in captured.out
        assert (out / "entropy_lab.json").exists()

    def test_validate_symbol_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", base_dict())
        out = tmp_path / "out"
        code = main(["validate-symbol", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "validate-symbol PASS" in captured.out
        assert (out / "symbol_report.json").exists()

    def test_multi_config_parallel_uses_stem_subdirs(self, tmp_path, capsys):
        path_a = write_config(tmp_path / "alpha.json", base_dict())
        path_b = write_config(tmp_path / "beta.json", base_dict(seed=4321))
        args = ["spectrum", "--config", str(path_a), "--config", str(path_b)]
        filters = list(warnings.filters)
        out = tmp_path / "out"
        code = main(args + ["--jobs", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert warnings.filters == filters
        assert (out / "alpha" / "report.json").exists()
        assert (out / "beta" / "report.json").exists()
        assert captured.out.count("spectrum PASS") == 2

        serial = tmp_path / "serial"
        assert main(args + ["--out", str(serial)]) == 0
        capsys.readouterr()
        for stem in ("alpha", "beta"):
            for name in ("spectrum.csv", "report.json", "plot_spectrum.py"):
                parallel_bytes = (out / stem / name).read_bytes()
                assert parallel_bytes == (serial / stem / name).read_bytes()

    def test_entropy_lab_parallel_matches_serial_bytes(self, tmp_path, capsys):
        # two configs certify their corpora in two threads at once; the
        # search keeps no module state, so each gives its serial bytes
        path_a = write_config(tmp_path / "alpha.json", base_dict())
        path_b = write_config(tmp_path / "beta.json", base_dict(seed=4321))
        args = ["entropy-lab", "--config", str(path_a), "--config", str(path_b)]
        parallel, serial = tmp_path / "parallel", tmp_path / "serial"
        assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert main(args + ["--out", str(serial)]) == 0
        capsys.readouterr()
        for stem in ("alpha", "beta"):
            parallel_bytes = (parallel / stem / "entropy_lab.json").read_bytes()
            assert parallel_bytes == (serial / stem / "entropy_lab.json").read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_duplicate_stems_exit_two_without_outputs(self, tmp_path, capsys, jobs):
        # both would write to out/cfg, and the second would overwrite the first
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        path_a = write_config(tmp_path / "a" / "cfg.json", base_dict())
        path_b = write_config(tmp_path / "b" / "cfg.json", base_dict(seed=11))
        out = tmp_path / "out"
        code = main(
            ["entropy-lab", "--config", str(path_a), "--config", str(path_b),
             "--out", str(out), "--jobs", jobs]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err
        assert str(path_a) in captured.err and str(path_b) in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_window_upper_edge_roundoff_runs(self, tmp_path, capsys):
        # the loader and the kernel assembly share one window, with its
        # roundoff allowance at s*p = n
        raw = json.loads((CONFIG_DIR / "cantor_small.json").read_text(encoding="utf-8"))
        raw["analysis"]["s"] = 0.5000000000000001
        path = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "spectrum PASS" in captured.out
        assert (out / "spectrum.csv").exists()

    def test_multi_config_returns_worst_code(self, tmp_path, capsys):
        path_a = write_config(tmp_path / "alpha.json", base_dict())
        code = main(
            [
                "spectrum",
                "--config",
                str(path_a),
                "--config",
                str(tmp_path / "absent.json"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_bundled_small_config_reproduces_bytes(self, tmp_path, capsys):
        config_path = str(CONFIG_DIR / "cantor_small.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", "--config", config_path, "--out", str(out_a)]) == 0
        assert main(["spectrum", "--config", config_path, "--out", str(out_b)]) == 0
        capsys.readouterr()
        for name in ("spectrum.csv", "report.json", "plot_spectrum.py"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize(
        "command, names",
        [
            ("trace-snumbers", ("snumbers.csv", "snumber_report.json")),
            ("entropy-lab", ("entropy_lab.json",)),
            ("validate-symbol", ("symbol_report.json",)),
        ],
    )
    def test_bundled_small_config_reproduces_other_artifacts(
        self, tmp_path, capsys, command, names
    ):
        config_path = str(CONFIG_DIR / "cantor_small.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([command, "--config", config_path, "--out", str(out_a)]) == 0
        assert main([command, "--config", config_path, "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out_a.iterdir()) == sorted(names)
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
