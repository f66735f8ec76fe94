"""End-to-end command-line runs, driven in-process through main(argv)."""
import json
import math
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
    fidelity_replicas,
    kron,
    optimal_cloner_fidelity,
    phase_gate,
    process_fidelity,
    process_matrix_from_json,
    read_datasets_csv,
    replication_experiment_channel,
    standard_phases,
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


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -------------------------------------------------------------- replicate


def test_replicate_writes_expected_table(tmp_path):
    assert main(["replicate", "--out-dir", str(tmp_path)]) == 0
    header, columns, rows = _read_csv(tmp_path / "replicate.csv")
    assert "# artifact_version: 1" in header
    assert "# command: replicate" in header
    assert "# seed: 0" in header
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
                       "iterations", "converged"]
    assert [r["converged"] for r in rows] == ["1", "1"]
    for r in rows:
        assert math.isnan(float(r["f_cu_std"]))  # no trials requested


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


def test_tomo_svg_outputs(tmp_path):
    assert main(["tomo", "--out-dir", str(tmp_path), "--phases", "0.25",
                 "--rate", "100", "--seed", "2", "--svg"]) == 0
    for name in ("fidelities.svg", "chi_00.svg"):
        assert (tmp_path / name).read_text().startswith("<svg")


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
    cfg = _write_config(tmp_path, {"values": [1.5]})
    assert main(["optics-scan", "--out-dir", str(tmp_path),
                 "--config", cfg]) == 1


# -------------------------------------------------- config and exit codes


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = _write_config(tmp_path, {"bogus": 1})
    assert main(["replicate", "--out-dir", str(tmp_path),
                 "--config", cfg]) == 1


def test_missing_config_file(tmp_path):
    assert main(["replicate", "--config",
                 str(tmp_path / "absent.json")]) == 1


def test_config_must_be_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert main(["replicate", "--config", str(path)]) == 1


def test_flag_validation_exits_1(tmp_path):
    out = str(tmp_path)
    assert main(["replicate", "--out-dir", out, "--phases", "abc"]) == 1
    assert main(["tomo", "--out-dir", out, "--trials", "1"]) == 1
    assert main(["replicate", "--out-dir", out, "--rate", "-5"]) == 1
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
], ids=["nan-phase", "inf-phase", "inf-rate", "nan-phi", "nan-jitter"])
def test_non_finite_numbers_are_rejected(tmp_path, capsys, argv, config,
                                         key):
    out = tmp_path / "out"
    argv = argv + ["--out-dir", str(out)]
    if config is not None:
        argv += ["--config", _write_config(tmp_path, config)]
    assert main(argv) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_register_cap_is_applied(tmp_path):
    # a cap of 2 qubits makes the three-qubit gate network unbuildable
    cfg = _write_config(tmp_path, {"register_cap": 2})
    assert main(["replicate", "--out-dir", str(tmp_path), "--phases", "0.5",
                 "--config", cfg]) == 1


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "from-env"))
    assert main(["replicate", "--phases", "0.0"]) == 0
    assert (tmp_path / "from-env" / "replicate.csv").is_file()


def test_out_dir_collision_exits_1(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    assert main(["replicate", "--out-dir", str(blocker),
                 "--phases", "0.0"]) == 1


def test_internal_failure_exits_2(tmp_path, monkeypatch):
    def boom(config):
        raise RuntimeError("solver exploded")

    monkeypatch.setitem(cli._COMMANDS, "replicate", boom)
    assert main(["replicate", "--out-dir", str(tmp_path)]) == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "phaserep.cli", "replicate",
         "--out-dir", str(tmp_path), "--phases", "0.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "replicate.csv").is_file()


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules imported by other tests do not count
    code = ("import sys, phaserep, phaserep.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert phaserep.__version__ == project["version"]
