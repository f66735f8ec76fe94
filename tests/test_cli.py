"""End-to-end command-line runs, driven in-process through main(argv)."""
import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phaserep import (
    OpticsParams,
    baseline_single_copy,
    cu_phase,
    default_design,
    effective_toffoli,
    fidelity_replicas,
    kron,
    optimal_cloner_fidelity,
    phase_gate,
    process_fidelity,
    process_matrix_from_json,
    read_datasets_csv,
    replication_experiment_channel,
    standard_phases,
    toffoli,
    twirled_mean_fidelity,
)
import phaserep
from phaserep import cli
from phaserep.cli import main

PI_HALF = repr(math.pi / 2)


def _read_csv(path):
    header, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return header, columns, rows


def _assert_report_rows_match_csv(out_dir):
    # report.json's rows are fidelities.csv's rows: the same columns with
    # the same values, and a NaN (no error bar) as null
    rows_doc = json.loads((out_dir / "report.json").read_text())["rows"]
    _, columns, rows = _read_csv(out_dir / "fidelities.csv")
    assert len(rows_doc) == len(rows) > 0
    for row, row_doc in zip(rows, rows_doc):
        assert sorted(row_doc) == sorted(columns)
        for c in columns:
            value = row_doc[c]
            if row[c] == "nan":
                assert value is None and c.endswith("_std")
            else:  # a flag is written as 0 or 1
                assert row[c] == str(int(value) if isinstance(value, bool)
                                     else value)


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -------------------------------------------------------------- replicate


def test_replicate_writes_expected_table(tmp_path):
    assert main(["replicate", "--out-dir", str(tmp_path)]) == 0
    header, columns, rows = _read_csv(tmp_path / "replicate.csv")
    assert "# artifact_version: 2" in header
    assert "# command: replicate" in header
    assert not any(h.startswith("# seed:") for h in header)  # tomo only
    assert any(h.startswith("# config_sha256: ") for h in header)
    assert columns == ["phi", "f_uu_ideal", "f_uu_noisy", "f_cu_noisy",
                       "baseline_single_copy", "baseline_measure_prepare",
                       "twirled_mean", "optimal_cloner"]
    assert len(rows) == 8
    twirl = twirled_mean_fidelity(64)
    for row, phi in zip(rows, standard_phases()):
        # 17-digit formatting round-trips doubles exactly
        assert float(row["phi"]) == phi
        assert float(row["f_uu_ideal"]) == fidelity_replicas(phi)
        assert float(row["baseline_single_copy"]) == baseline_single_copy(phi)
        assert float(row["twirled_mean"]) == twirl
        assert float(row["optimal_cloner"]) == optimal_cloner_fidelity(phi)
        channel = replication_experiment_channel(phi, OpticsParams.ideal())
        u = phase_gate(phi)
        assert float(row["f_uu_noisy"]) == \
            process_fidelity(channel, kron(u, u))
        assert float(row["f_cu_noisy"]) == \
            process_fidelity(channel, cu_phase(phi))


def test_replicate_on_a_fine_grid_follows_the_closed_forms(tmp_path):
    # 1001 phases from one optical build: on the ideal preset the noisy
    # channel is the replication circuit itself
    phases = np.linspace(-math.pi, 3.0 * math.pi, 1001).tolist()
    config = _write_config(tmp_path, {"phases": phases})
    assert main(["replicate", "--out-dir", str(tmp_path),
                 "--config", config]) == 0
    _, _, rows = _read_csv(tmp_path / "replicate.csv")
    assert [float(row["phi"]) for row in rows] == phases
    for row, phi in zip(rows, phases):
        assert abs(float(row["f_uu_noisy"])
                   - (5.0 + 3.0 * math.cos(phi)) / 8.0) <= 1e-13
        assert abs(float(row["f_cu_noisy"]) - 1.0) <= 1e-12


def test_replicate_single_phase_flag(tmp_path):
    assert main(["replicate", "--out-dir", str(tmp_path),
                 "--phases", repr(math.pi)]) == 0
    _, _, rows = _read_csv(tmp_path / "replicate.csv")
    assert len(rows) == 1
    assert float(rows[0]["f_uu_ideal"]) == pytest.approx(0.25, abs=1e-12)


def test_standard_phases_keyword_matches_default(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["replicate", "--out-dir", str(a)]) == 0
    assert main(["replicate", "--out-dir", str(b),
                 "--phases", "standard"]) == 0
    assert (a / "replicate.csv").read_bytes() == \
        (b / "replicate.csv").read_bytes()


def test_replicate_svg(tmp_path):
    assert main(["replicate", "--out-dir", str(tmp_path), "--phases",
                 "0.0,1.0", "--svg"]) == 0
    svg = (tmp_path / "replicate.svg").read_text()
    assert svg.startswith("<svg")


def test_optics_overrides_change_the_noisy_columns(tmp_path):
    ideal, noisy = tmp_path / "ideal", tmp_path / "noisy"
    cfg = _write_config(tmp_path, {"optics": {"visibility": 0.9}})
    assert main(["replicate", "--out-dir", str(ideal),
                 "--phases", PI_HALF]) == 0
    assert main(["replicate", "--out-dir", str(noisy),
                 "--phases", PI_HALF, "--config", cfg]) == 0
    _, _, rows_i = _read_csv(ideal / "replicate.csv")
    _, _, rows_n = _read_csv(noisy / "replicate.csv")
    assert float(rows_n[0]["f_cu_noisy"]) < float(rows_i[0]["f_cu_noisy"])
    assert float(rows_n[0]["f_uu_ideal"]) == float(rows_i[0]["f_uu_ideal"])


# --------------------------------------------------------------- superrep


def test_superrep_with_explicit_pairs(tmp_path):
    cfg = _write_config(tmp_path, {
        "alpha": 0.7, "n_list": [1, 4], "m_list": [2, 2],
        "phi_grid_size": 9,
    })
    assert main(["superrep", "--out-dir", str(tmp_path),
                 "--config", cfg]) == 0
    _, columns, rows = _read_csv(tmp_path / "superrep.csv")
    assert columns == ["n", "m", "alpha", "phi", "fidelity"]
    assert [int(r["n"]) for r in rows] == [1, 4]
    assert [int(r["m"]) for r in rows] == [2, 2]
    # one copy into two: worst case is a quarter at phase pi
    assert float(rows[0]["phi"]) == pytest.approx(math.pi, abs=1e-12)
    assert float(rows[0]["fidelity"]) == pytest.approx(0.25, abs=1e-12)
    # more copies than replicas: exact
    assert float(rows[1]["fidelity"]) == 1.0


def test_superrep_rejects_bad_alpha(tmp_path):
    cfg = _write_config(tmp_path, {"alpha": -1.0})
    assert main(["superrep", "--out-dir", str(tmp_path),
                 "--config", cfg]) == 1


def test_superrep_grid_beyond_memory_exits_2(tmp_path, capsys):
    # 10^15 float64 grid points need 8e15 bytes, beyond a 47-bit address
    # space, so the allocation is refused without allocating anything
    cfg = _write_config(tmp_path, {"n_list": [4],
                                   "phi_grid_size": 10 ** 15})
    out = tmp_path / "out"
    assert main(["superrep", "--out-dir", str(out), "--config", cfg]) == 2
    assert "runtime error" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------- tomo


def test_tomo_artifacts_and_reproducibility(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    argv = ["tomo", "--phases", "0.0," + PI_HALF, "--rate", "300",
            "--seed", "3", "--preset", "measured"]
    assert main(argv + ["--out-dir", str(d1)]) == 0
    assert main(argv + ["--out-dir", str(d2)]) == 0

    names = ["counts.csv", "fidelities.csv", "chi_00.json", "chi_01.json",
             "report.json"]
    for name in names:
        assert (d1 / name).is_file()
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert not list(d1.glob("*.tmp"))

    report = json.loads((d1 / "report.json").read_text())
    assert report["metadata"]["command"] == "tomo"
    assert report["metadata"]["artifact_version"] == 2
    assert report["metadata"]["seed"] == 3
    assert len(report["rows"]) == 2
    assert set(report["fit"]) == {"offset", "amplitude", "residual_rms"}
    assert 0.0 <= float(report["mean_f_cu"]) <= 1.0

    chi_doc = json.loads((d1 / "chi_00.json").read_text())
    assert chi_doc["metadata"] == report["metadata"]
    recon = process_matrix_from_json(chi_doc["reconstructed"])
    assert recon.trace == pytest.approx(1.0, abs=1e-9)
    ideal = process_matrix_from_json(chi_doc["ideal"])
    assert process_fidelity(ideal, cu_phase(0.0)) == \
        pytest.approx(1.0, abs=1e-12)

    datasets = read_datasets_csv(d1 / "counts.csv", default_design())
    assert [ds.phase for ds in datasets] == [0.0, math.pi / 2]
    assert all(ds.rate == 300.0 for ds in datasets)
    assert all(np.all(ds.counts >= 0) for ds in datasets)

    _, columns, rows = _read_csv(d1 / "fidelities.csv")
    assert columns == ["phi", "f_cu", "f_cu_std", "f_uu", "f_uu_std",
                       "iterations", "converged", "optimality_gap"]
    assert [r["converged"] for r in rows] == ["1", "1"]
    for r in rows:
        assert math.isnan(float(r["f_cu_std"]))  # no trials requested
        assert math.isfinite(float(r["optimality_gap"]))
    _assert_report_rows_match_csv(d1)


def test_tomo_artifacts_have_one_line_terminator(tmp_path):
    assert main(["tomo", "--out-dir", str(tmp_path), "--phases", "0.5",
                 "--rate", "100", "--trials", "2", "--svg"]) == 0
    paths = sorted(tmp_path.iterdir())
    assert {p.name for p in paths} >= {"counts.csv", "fidelities.csv",
                                       "report.json", "chi_00.json"}
    for path in paths:
        assert b"\r" not in path.read_bytes(), path.name


def test_tomo_error_bars_and_single_phase_fit(tmp_path):
    assert main(["tomo", "--out-dir", str(tmp_path), "--phases", "0.5",
                 "--rate", "200", "--trials", "2", "--seed", "1"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["fit"] is None  # needs two distinct phases
    assert report["trials"] == 2
    row = report["rows"][0]
    assert float(row["f_cu_std"]) >= 0.0
    _, _, rows = _read_csv(tmp_path / "fidelities.csv")
    assert math.isfinite(float(rows[0]["f_uu_std"]))
    _assert_report_rows_match_csv(tmp_path)


def test_tomo_phases_equal_after_reduction_skip_the_fit(tmp_path):
    # -1e-20 reduces to the phase 0, so the two rows share one phase
    assert main(["tomo", "--out-dir", str(tmp_path), "--phases", "0,-1e-20",
                 "--rate", "200"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["phases"] == ["0", "0"]
    assert report["fit"] is None


def test_tomo_svg_outputs(tmp_path):
    assert main(["tomo", "--out-dir", str(tmp_path), "--phases", "0.25",
                 "--rate", "100", "--seed", "2", "--svg"]) == 0
    for name in ("fidelities.svg", "chi_00.svg"):
        assert (tmp_path / name).read_text().startswith("<svg")


def test_tomo_rate_beyond_the_poisson_range_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["tomo", "--out-dir", str(out), "--phases", "0.5",
                 "--rate", "1e300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rate 1e+300 gives a Poisson mean of ")
    assert not out.exists()  # the check needs the channel, so runs late


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("doc", [
    {"floats": [0.1, -2.5, 1e-300, 5e-324, 1e22, -0.0, 1.0]},
    {"nan": [1.0, _NAN, 2.0], "inf": [_INF, 3.0], "-inf": [-_INF],
     "alone": [_NAN]},
    {"np": [np.float64(1.0) / 3.0, np.float64(-7e-9)],
     "scalar": np.float64(2.0 ** 0.5), "float": 0.5},
    {"mixed": [1, 2.5, True, False, None, 3.0], "ints": [1, -2, 10 ** 20],
     "bool": True, "none": None, "int": 7},
    {"empty_list": [], "empty_dict": {}, "nested_empty": [[], {}, [[]]]},
    {"b": {"z": {"rows": [[1.0, 2.0], [3.0, _NAN]], "n": 2}, "a": [0.25]},
     "a": [{"y": [1.5], "x": "text"}, {}]},
    {"ünïcödé": "Grüße, 世界", 'quote "q"': 'say "hi"\n\t\\ done',
     "tuple": (1.0, 2.0), "chars": ["\u2028", "é"]},
    [1.0, [2.0, 3.0], {"k": [4.0]}],
    [0.5, 0.25],
    3.5, "top-level string", None, [], {},
], ids=["finite-floats", "non-finite", "numpy-floats", "mixed-kinds",
        "empties", "nested", "strings", "top-list", "top-floats",
        "top-float", "top-string", "top-none", "top-empty-list",
        "top-empty-dict"])
def test_json_text_is_json_dumps_byte_for_byte(doc):
    assert cli._json_text(doc) == \
        json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_json_text_of_tomo_documents_is_json_dumps(tmp_path):
    assert main(["tomo", "--out-dir", str(tmp_path), "--phases", "0.5",
                 "--rate", "300", "--trials", "2"]) == 0
    for name in ("chi_00.json", "report.json"):
        text = (tmp_path / name).read_text()
        assert text == json.dumps(json.loads(text), indent=1,
                                  sort_keys=True) + "\n"


# ------------------------------------------------------------ optics-scan


def test_optics_scan_with_config(tmp_path):
    cfg = _write_config(tmp_path, {
        "parameter": "visibility", "values": [1.0, 0.9],
        "phi": math.pi / 2,
    })
    assert main(["optics-scan", "--out-dir", str(tmp_path),
                 "--config", cfg]) == 0
    _, columns, rows = _read_csv(tmp_path / "optics_scan.csv")
    assert columns == ["parameter", "value", "f_toffoli", "f_cu", "success"]
    assert rows[0]["parameter"] == "visibility"
    assert float(rows[0]["f_toffoli"]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[0]["success"]) == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert float(rows[1]["f_toffoli"]) < float(rows[0]["f_toffoli"])


def test_optics_scan_rejects_invalid_value(tmp_path):
    # every value is checked before anything is computed or written
    for values in ([1.5], [1.0, 0.9, 1.5]):
        cfg = _write_config(tmp_path, {"values": values})
        assert main(["optics-scan", "--out-dir", str(tmp_path),
                     "--config", cfg]) == 1
        assert not (tmp_path / "optics_scan.csv").exists()


def test_optics_scan_rechecks_no_preset_field(tmp_path, monkeypatch):
    # the presets are made at import; a row copies the preset's checked
    # fields and takes one value, checked once against its field
    built = []
    monkeypatch.setattr(OpticsParams, "__post_init__", built.append)
    values = np.linspace(1.0, 0.45, 12).tolist()
    cfg = _write_config(tmp_path, {"values": values})
    assert main(["optics-scan", "--out-dir", str(tmp_path),
                 "--config", cfg]) == 0
    assert built == []
    _, _, rows = _read_csv(tmp_path / "optics_scan.csv")
    assert [float(row["value"]) for row in rows] == values


# scanned parameter -> values, the ideal design value first, then the
# interior and the edges where a row carries zero-weight operators
SCAN_VALUES = {
    "visibility": [1.0, 0.95, 0.8, 0.0],
    "r_v": [2.0 / 3.0, 0.55, 0.75, 0.0, 1.0],
    "r_h": [0.0, 0.05, 0.02, 1.0],
    "phase_jitter_sigma": [0.0, 0.3, 0.65, 0.0],
}


@pytest.mark.parametrize("preset", ["ideal", "measured"])
@pytest.mark.parametrize("parameter", sorted(SCAN_VALUES))
def test_optics_scan_matches_the_per_value_builds(tmp_path, preset,
                                                  parameter):
    # the scan builds all its values in one stack; each row must be the
    # single-value build of its own operating point
    phi = 1.3
    values = SCAN_VALUES[parameter]
    cfg = _write_config(tmp_path, {"preset": preset, "parameter": parameter,
                                   "values": values, "phi": phi})
    assert main(["optics-scan", "--out-dir", str(tmp_path),
                 "--config", cfg]) == 0
    _, _, rows = _read_csv(tmp_path / "optics_scan.csv")
    assert [float(r["value"]) for r in rows] == values
    base = getattr(OpticsParams, preset)()
    for row, value in zip(rows, values):
        params = dataclasses.replace(base, **{parameter: value})
        kraus, success = effective_toffoli(params)
        want = {
            "f_toffoli": process_fidelity(kraus, toffoli()),
            "f_cu": process_fidelity(
                replication_experiment_channel(phi, params), cu_phase(phi)),
            "success": success,
        }
        for column, value_want in want.items():
            assert float(row[column]) == pytest.approx(value_want,
                                                       rel=1e-15, abs=0.0)


# -------------------------------------------------- config and exit codes


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = _write_config(tmp_path, {"bogus": 1})
    assert main(["replicate", "--out-dir", str(tmp_path),
                 "--config", cfg]) == 1


def test_missing_config_file(tmp_path, capsys):
    # a missing path or a directory: one error line that names it
    for path in (tmp_path / "absent.json", tmp_path):
        assert main(["replicate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ")
        assert err.count("\n") == 1


def test_config_file_that_is_not_utf8(tmp_path, capsys):
    # one error line that names the file, and no output directory
    path, out = tmp_path / "not-utf8.json", tmp_path / "out"
    path.write_bytes(b"\xff")
    assert main(["replicate", "--config", str(path),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {path}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_config_must_be_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert main(["replicate", "--config", str(path)]) == 1


def test_flag_validation_exits_1(tmp_path):
    out = str(tmp_path)
    assert main(["replicate", "--out-dir", out, "--phases", "abc"]) == 1
    assert main(["tomo", "--out-dir", out, "--trials", "1"]) == 1
    assert main(["tomo", "--out-dir", out, "--rate", "-5"]) == 1
    assert main(["replicate", "--bogus-flag"]) == 1
    assert main([]) == 1
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("argv, config, key", [
    (["replicate", "--phases", "nan"], None, "phases"),
    (["replicate", "--phases", "0.5,inf"], None, "phases"),
    (["tomo", "--rate", "inf"], None, "rate"),
    (["optics-scan"], {"phi": math.nan}, "phi"),
    (["replicate", "--phases", "0.5,1.0"],
     {"optics": {"phase_jitter_sigma": math.nan}}, "phase_jitter_sigma"),
    # JSON booleans are ints to Python but never numbers here
    (["replicate"], {"phases": [True]}, "phases"),
    (["tomo", "--phases", "0.5"], {"seed": True}, "seed"),
    (["tomo", "--phases", "0.5"], {"rate": True}, "rate"),
    (["replicate", "--phases", ","], None, "phases"),
    (["tomo", "--phases", "0.5"], {"trials": False}, "trials"),
    (["replicate", "--phases", "0.5"], {"optics": {"visibility": True}},
     "visibility"),
    (["replicate", "--phases", "0.5"],
     {"optics": {"phase_jitter_sigma": math.inf}}, "phase_jitter_sigma"),
    (["superrep"], {"alpha": math.inf}, "alpha"),
    (["superrep"], {"alpha": True}, "alpha"),
    (["superrep"], {"alpha": 10 ** 400}, "alpha"),
    (["superrep"], {"n_list": [True]}, "n_list"),
    (["superrep"], {"n_list": [4], "m_list": [True]}, "m_list"),
    (["optics-scan"], {"values": [True]}, "values"),
    (["optics-scan"], {"parameter": "phase_jitter_sigma",
                       "values": [math.inf]}, "values"),
    (["optics-scan"], {"phi": True}, "phi"),
    # rejected by the library call the value feeds, before it computes
    (["optics-scan"], {"parameter": "visibility", "values": [1.5]},
     "visibility"),
    (["superrep"], {"n_list": [4, 9], "m_list": [5]}, "m_list"),
    (["superrep"], {"n_list": [1], "m_list": [10 ** 12 + 1]}, "replicas"),
    (["tomo", "--phases", "0.5", "--seed", "-1"], None, "seed"),
    # the output keys and the optics overrides have a type of their own
    (["superrep"], {"out_dir": 5}, "out_dir"),
    (["superrep"], {"out_dir": ["out"]}, "out_dir"),
    (["superrep"], {"out_dir": ""}, "out_dir"),
    (["superrep"], {"svg": "false"}, "svg"),
    (["superrep"], {"svg": 0.0}, "svg"),
    (["replicate", "--phases", "0.5"], {"optics": []}, "optics"),
    (["replicate", "--phases", "0.5"], {"optics": 0}, "optics"),
    (["replicate", "--phases", "0.5"], {"optics": False}, "optics"),
], ids=["nan-phase", "inf-phase", "inf-rate", "nan-phi", "nan-jitter",
        "bool-phase", "bool-seed", "bool-rate", "empty-phases", "bool-trials",
        "bool-visibility", "inf-jitter", "inf-alpha", "bool-alpha",
        "huge-alpha", "bool-n", "bool-m", "bool-value", "inf-value", "bool-phi",
        "out-of-range-value", "unpaired-m", "huge-m", "negative-seed",
        "int-out-dir", "list-out-dir", "empty-out-dir", "string-svg", "float-svg",
        "list-optics", "zero-optics", "false-optics"])
def test_non_finite_numbers_are_rejected(tmp_path, capsys, argv, config,
                                         key):
    out = tmp_path / "out"
    if "out_dir" not in (config or {}):  # the flag would win over the file
        argv = argv + ["--out-dir", str(out)]
    if config is not None:
        argv += ["--config", _write_config(tmp_path, config)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


# the result-affecting keys each command reads, and a value of each that
# differs from its default
COMMAND_KEYS = {
    "replicate": ("phases", "preset", "optics"),
    "superrep": ("alpha", "n_list", "m_list", "phi_grid_size"),
    "tomo": ("seed", "phases", "rate", "trials", "preset", "optics"),
    "optics-scan": ("preset", "optics", "parameter", "values", "phi"),
}
CHANGED = {
    "seed": 7, "phases": [0.25], "rate": 500.0, "trials": 2,
    "preset": "measured", "optics": {"visibility": 0.9},
    "alpha": 0.7, "n_list": [4, 9], "m_list": [5, 20, 60, 120],
    "phi_grid_size": 17,
    "parameter": "r_v", "values": [0.6], "phi": 0.4,
}
FLAGS = {
    "replicate": {"--config", "--out-dir", "--svg", "--phases", "--preset"},
    "superrep": {"--config", "--out-dir", "--svg"},
    "tomo": {"--config", "--out-dir", "--svg", "--seed", "--phases",
             "--rate", "--trials", "--preset"},
    "optics-scan": {"--config", "--out-dir", "--svg", "--preset"},
}


def _digest(tmp_path, command, doc, flags=()):
    args = cli.build_parser().parse_args(
        [command, "--config", _write_config(tmp_path, doc), *flags])
    return cli._config_digest(cli.resolve_config(args))


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_config_digest_covers_exactly_the_command_keys(tmp_path, command):
    assert cli._COMMANDS[command].keys == COMMAND_KEYS[command]
    base = _digest(tmp_path, command, {})
    digests = {base}
    for key in COMMAND_KEYS[command]:
        digests.add(_digest(tmp_path, command, {key: CHANGED[key]}))
    assert len(digests) == 1 + len(COMMAND_KEYS[command])
    # where and whether to draw leave the hash alone
    assert _digest(tmp_path, command, {"out_dir": "elsewhere",
                                       "svg": True}) == base
    assert _digest(tmp_path, command, {},
                   ["--out-dir", "other", "--svg"]) == base


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_only_the_command_flags(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert shown == FLAGS[command] | {"--help"}


@pytest.mark.parametrize("argv, config, key", [
    (["replicate", "--seed", "3"], None, "seed"),
    (["superrep", "--rate", "10"], None, "rate"),
    (["optics-scan", "--phases", "0.5"], None, "phases"),
    (["replicate"], {"rate": 2000}, "rate"),
    (["superrep"], {"preset": "measured"}, "preset"),
    (["optics-scan"], {"trials": 2}, "trials"),
    (["tomo"], {"alpha": 0.5}, "alpha"),
    (["replicate"], {"register_cap": 1}, "register_cap"),
], ids=["replicate-seed-flag", "superrep-rate-flag", "scan-phases-flag",
        "replicate-rate-key", "superrep-preset-key", "scan-trials-key",
        "tomo-alpha-key", "register-cap-key"])
def test_keys_of_other_commands_are_rejected(tmp_path, capsys, argv, config,
                                             key):
    out = tmp_path / "out"
    argv = argv + ["--out-dir", str(out)]
    if config is not None:
        argv += ["--config", _write_config(tmp_path, config)]
    assert main(argv) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "from-env"))
    assert main(["replicate", "--phases", "0.0"]) == 0
    assert (tmp_path / "from-env" / "replicate.csv").is_file()


@pytest.mark.parametrize("where", ["flag", "env"])
def test_empty_out_dir_is_rejected(tmp_path, monkeypatch, capsys, where):
    # an empty path would write into the working directory
    monkeypatch.chdir(tmp_path)
    argv = ["replicate", "--phases", "0.0"]
    if where == "flag":
        argv += ["--out-dir", ""]
    else:
        monkeypatch.setenv(cli.OUT_DIR_ENV, "")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: out_dir must be ")
    assert list(tmp_path.iterdir()) == []


def test_out_dir_collision_exits_1(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    assert main(["replicate", "--out-dir", str(blocker),
                 "--phases", "0.0"]) == 1
    assert blocker.read_text() == ""


def test_out_dir_with_a_nul_is_rejected(tmp_path, monkeypatch, capsys):
    # named in one error line, not the OS's bare "embedded null byte"
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, {"out_dir": "a\u0000b"})
    assert main(["superrep", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out_dir ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_out_dir_under_a_file_is_rejected_before_the_run(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    def pipeline(*args):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(cli.tomo, "experiment_pipeline", pipeline)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["tomo", "--trials", "100",
                 "--out-dir", str(blocker / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out_dir ") and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # in-process drivers call main many times; only the first call
    # builds the parser
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    for phi in ("0.0", "0.5"):
        assert main(["replicate", "--phases", phi,
                     "--out-dir", str(tmp_path / phi)]) == 0
    assert len(built) == 1


def test_internal_failure_exits_2(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError, which alone would exit 1; a run
    # that fails before it writes leaves no directory
    for error in (RuntimeError, MemoryError, np.linalg.LinAlgError):
        def boom(config, out, meta):
            raise error("solver exploded")

        monkeypatch.setitem(cli._COMMANDS, "replicate",
                            cli._COMMANDS["replicate"]._replace(run=boom))
        out = tmp_path / error.__name__
        assert main(["replicate", "--out-dir", str(out)]) == 2, error
        assert not out.exists(), error


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "phaserep.cli", "replicate",
         "--out-dir", str(tmp_path), "--phases", "0.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "replicate.csv").is_file()


def test_config_read_from_stdin(tmp_path):
    # any readable path is a config file, a pipe included
    proc = subprocess.run(
        [sys.executable, "-m", "phaserep.cli", "replicate",
         "--out-dir", str(tmp_path), "--config", "/dev/stdin"],
        input=json.dumps({"phases": [0.25]}), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    _, _, rows = _read_csv(tmp_path / "replicate.csv")
    assert [float(row["phi"]) for row in rows] == [0.25]


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules imported by other tests do not count
    code = ("import sys, phaserep, phaserep.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_set_up_loads_no_fft():
    # numpy.fft costs about 1.2 ms of start-up; only the superrep worst-case
    # screen uses it, and loads it on its first call
    code = ("import sys, phaserep.cli; phaserep.tomo.default_design(); "
            "print('numpy.fft' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_imports_svgplot_only_for_figures():
    # a fresh interpreter; perfbench imports both before its first run
    code = ("import sys, phaserep, phaserep.cli; "
            "print('phaserep.svgplot' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert phaserep.__version__ == project["version"]
