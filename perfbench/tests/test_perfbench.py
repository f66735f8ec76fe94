"""Tests of the benchmark's own code (not part of the Tier-1 suite).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from phaserep import cli, optics, tomo  # noqa: E402
from phaserep.optics import OpticsParams  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def design():
    return tomo.default_design()


def _dataset(design, seed=3):
    channel = optics.replication_experiment_channel(
        math.pi / 2, OpticsParams.measured())
    return tomo.simulate_counts(channel, design, 1e4, seed)


def test_gap_near_zero_at_the_ml_point(design):
    dataset = _dataset(design)
    result = tomo.mle_reconstruct(dataset, design)
    gap = checks.mle_gap(dataset.counts, result.chi.matrix, design.operators)
    assert -1e-9 < gap < 1e-3


def test_gap_positive_for_the_maximally_mixed_chi(design):
    gap = checks.mle_gap(_dataset(design).counts, np.eye(16) / 16.0,
                         design.operators)
    assert gap > 0.1


def _rewrite(path: Path, column: str, row: int, delta: float) -> None:
    """Add ``delta`` to one cell of a CLI CSV artifact."""
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines)
                  if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[header + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _cli(tmp_path: Path, command: str, config: dict | None, *flags: str
         ) -> Path:
    argv = [command, "--out-dir", str(tmp_path), *flags]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    assert cli.main(argv) == 0
    return tmp_path


def test_replicate_oracle_flags_a_perturbed_value(tmp_path):
    out = _cli(tmp_path, "replicate", None, "--phases", "0.3,1.7")
    problems, err = checks.check_replicate(out)
    assert not problems and err < 1e-12
    _rewrite(out / "replicate.csv", "f_uu_ideal", 1, 1e-6)
    problems, err = checks.check_replicate(out)
    assert len(problems) == 1 and err > checks.ORACLE_TOL


def test_optics_oracle_flags_a_perturbed_value(tmp_path):
    out = _cli(tmp_path, "optics-scan",
               {"parameter": "r_v", "values": [2.0 / 3.0, 0.6]})
    problems, _ = checks.check_optics_scan(out, 2.0 / 3.0)
    assert not problems
    _rewrite(out / "optics_scan.csv", "success", 0, 1e-6)
    problems, _ = checks.check_optics_scan(out, 2.0 / 3.0)
    assert problems == [problems[0]] and "success" in problems[0]
    assert checks.check_optics_scan(out, 0.5)[0]  # design point missing


def test_superrep_oracle_flags_a_perturbed_value(tmp_path):
    out = _cli(tmp_path, "superrep", {"alpha": 0.5, "n_list": [4, 16]})
    problems, err = checks.check_superrep(out, 0.5)
    assert not problems and err < 1e-12
    _rewrite(out / "superrep.csv", "fidelity", 1, 1e-7)
    problems, _ = checks.check_superrep(out, 0.5)
    assert len(problems) == 1


def test_tomo_check_flags_an_unconverged_reconstruction(tmp_path, design):
    out = _cli(tmp_path, "tomo", None, "--preset", "measured",
               "--phases", "1.0", "--rate", "1000", "--seed", "4")
    problems, gap = checks.check_tomo(out, design)
    assert not problems and gap < checks.GAP_TOL
    doc = json.loads((out / "chi_00.json").read_text())
    doc["reconstructed"]["real"] = (np.eye(16) / 16.0).tolist()
    doc["reconstructed"]["imag"] = np.zeros((16, 16)).tolist()
    (out / "chi_00.json").write_text(json.dumps(doc))
    problems, gap = checks.check_tomo(out, design)
    assert problems and gap > checks.GAP_TOL


def test_same_bytes_reports_a_changed_artifact(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "x.csv").write_text("1\n")
    assert checks.same_bytes(a, b, ["x.csv"]) == []
    (b / "x.csv").write_text("2\n")
    assert checks.same_bytes(a, b, ["x.csv", "missing"]) == [
        "x.csv", "missing"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)


def test_generated_inputs_cover_the_checked_points():
    for seed in range(20):
        scans = [op.config for op in workloads.build("optics-scan", seed)
                 if op.command == "optics-scan"]
        for config in scans:
            ideal = workloads.SCAN_RANGES[config["parameter"]][0]
            assert ideal in config["values"]
        for op in workloads.build("superrep-sweep", seed):
            n_list = op.config["n_list"]
            assert len(set(n_list)) == len(n_list)
            assert math.floor(max(n_list) ** 1.5) <= 2000


def test_tracer_patches_every_namespace_and_computes_self_time(tmp_path):
    original = optics.effective_toffoli
    tracer = Tracer()
    tracer.install({"cli.main": None, "optics.effective_toffoli": None,
                    "optics.sector_operators": None})
    try:
        assert cli.effective_toffoli is not original
        _cli(tmp_path, "optics-scan", {"values": [1.0]})
    finally:
        tracer.uninstall()
    assert cli.effective_toffoli is original
    assert optics.effective_toffoli is original
    names = [span[0] for span in tracer.spans]
    # one direct call from cli, one through replication_experiment_channel
    assert names.count("optics.effective_toffoli") == 2
    summary = tracer.summary()
    main = tracer.spans[0]
    children = sum(s[2] - s[1] for s in tracer.spans if s[3] == 0)
    assert main[0] == "cli.main" and main[3] == -1
    assert summary["cli.main"]["self_s"] == pytest.approx(
        main[2] - main[1] - children)
    for span in tracer.spans[1:]:
        assert span[3] >= 0


def test_every_trace_target_is_patched_and_restored():
    tracer = Tracer()
    tracer.install(run.TRACE_TARGETS)
    try:
        patched = {getattr(holder, attr).__wrapped__
                   for holder, attr, _ in tracer._patches}
        assert len(patched) == len(run.TRACE_TARGETS)
    finally:
        tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(tomo.TomographyDesign.probabilities, "__wrapped__")


def test_speed_factor_scales_to_the_nominal_burst_time():
    reference = run.SpeedReference()
    reference.measure(0.0)
    assert len(reference.samples) == 1
    reference.samples[:] = [0.5 * run.REF_NOMINAL_S, run.REF_NOMINAL_S,
                            4.0 * run.REF_NOMINAL_S]
    assert reference.factor() == 1.0


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    setup = [{"import_s": 1.0, "default_design_s": 0.1}]
    metrics = run.layer_metrics(Tracer(), 1, setup, 1, 0.0, 0.0, 0.0)
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
