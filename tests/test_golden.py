"""CLI artifacts pinned against checked-in golden values.

Each run below executes one ``phaserep`` command in-process and compares
every artifact it writes with ``tests/golden/<run>.json``.  The metadata
header is left out except ``artifact_version``, so a format change shows
while the command name, seed and config hash do not; the ``# phase_values:``
and ``# rates:`` lines of ``counts.csv`` are data and stay in.  Strings and
integers compare exactly.  Floats of the closed-form commands compare to a
relative tolerance of 1e-13; ``tomo`` artifacts compare exactly.
``counts.csv`` (10k rows) and the ``chi_NN.json`` matrices are stored as
the sha256 of their kept content, and every ``.svg`` figure as the sha256
of its bytes.

After a deliberate change of values, regenerate with

    PYTHONPATH=src python3 tests/test_golden.py

It rewrites only the golden files that are missing or whose run fails
its comparison.  Record in CHANGES.md which values moved, by how much,
and why.
"""
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from phaserep.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CLOSED_FORM_RTOL = 1e-13

# run name -> (argv without --out-dir, config file or None, float rtol)
RUNS = {
    "replicate-measured": (["replicate", "--preset", "measured", "--svg"],
                           None, CLOSED_FORM_RTOL),
    "replicate-measured-phases": (
        ["replicate", "--preset", "measured", "--phases", "7.0,-1.5,0.3"],
        None, CLOSED_FORM_RTOL),
    "superrep": (["superrep", "--svg"], None, CLOSED_FORM_RTOL),
    # N up to 158 (M = 1986) on a grid of several kernel blocks
    "superrep-wide": (["superrep"],
                      {"n_list": [16, 61, 158], "phi_grid_size": 1000},
                      CLOSED_FORM_RTOL),
    "optics-scan": (["optics-scan", "--svg"], None, CLOSED_FORM_RTOL),
    "optics-scan-jitter": (
        ["optics-scan"],
        {"preset": "measured", "parameter": "phase_jitter_sigma",
         "values": [0.0, 0.3, 0.65]},
        CLOSED_FORM_RTOL),
    "tomo-measured-jitter": (
        ["tomo", "--preset", "measured", "--rate", "2000", "--seed", "5",
         "--trials", "3", "--svg"],
        {"optics": {"phase_jitter_sigma": 0.65}},
        0.0),
    # a single OpticsParams with zero-weight sectors: the distinguishable
    # ones at visibility 1, the interfering one at visibility 0
    "tomo-ideal-jitter": (
        ["tomo", "--preset", "ideal", "--rate", "2000", "--seed", "5",
         "--trials", "3"],
        {"optics": {"phase_jitter_sigma": 0.65}},
        0.0),
    "replicate-visibility-0": (
        ["replicate"], {"preset": "measured", "optics": {"visibility": 0.0}},
        CLOSED_FORM_RTOL),
}

_HASHED = ("counts.csv", "chi_")
_KEPT_HEADERS = ("# artifact_version:", "# phase_values:", "# rates:")


def _kept(path: Path):
    """The compared content of one artifact: CSV lines without the
    metadata header, or the JSON document with its metadata reduced to
    the artifact version."""
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        doc["metadata"] = {
            "artifact_version": doc["metadata"]["artifact_version"]}
        return doc
    return [line for line in text.splitlines()
            if not line.startswith("#") or line.startswith(_KEPT_HEADERS)]


def _record(path: Path) -> dict:
    if path.suffix == ".svg":
        return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    kept = _kept(path)
    if path.name.startswith(_HASHED):
        canonical = json.dumps(kept, sort_keys=True)
        return {"sha256": hashlib.sha256(canonical.encode()).hexdigest()}
    return {"json": kept} if path.suffix == ".json" else {"lines": kept}


def _run(name: str, out_dir: Path) -> dict:
    argv, config, _ = RUNS[name]
    argv = argv + ["--out-dir", str(out_dir / "out")]
    if config is not None:
        path = out_dir / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 0
    return {p.name: _record(p) for p in sorted((out_dir / "out").iterdir())}


def _cells_match(golden: str, got: str, rtol: float) -> bool:
    if golden == got:
        return True
    try:
        a, b = float(golden), float(got)
    except ValueError:
        return False
    integers = all(s.lstrip("-").isdigit() for s in (golden, got))
    return rtol > 0.0 and not integers and math.isclose(a, b, rel_tol=rtol)


def _line_mismatches(golden: list, got: list, rtol: float) -> list[str]:
    if len(golden) != len(got):
        return [f"{len(got)} lines, golden has {len(golden)}"]
    bad = []
    for k, (g, x) in enumerate(zip(golden, got)):
        gc, xc = g.split(","), x.split(",")
        if len(gc) != len(xc) or not all(
                _cells_match(a, b, rtol) for a, b in zip(gc, xc)):
            bad.append(f"line {k}: {x!r}, golden {g!r}")
    return bad


def _mismatches(name: str, golden: dict, got: dict) -> list[str]:
    """What differs between a run's records and its golden file, each
    artifact compared as the module docstring says."""
    if sorted(got) != sorted(golden):
        return [f"artifacts {sorted(got)}, golden has {sorted(golden)}"]
    rtol = RUNS[name][2]
    bad = []
    for artifact, expected in golden.items():
        record = got[artifact]
        if "lines" in expected:
            lines = _line_mismatches(expected["lines"], record["lines"], rtol)
            bad += [f"{artifact} {line}" for line in lines[:5]]
        elif record != expected:
            # hashes and the tomo JSON documents compare exactly
            bad.append(f"{artifact} differs")
    return bad


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_artifacts_match_golden(tmp_path, name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    bad = _mismatches(name, golden, _run(name, tmp_path))
    assert not bad, "\n".join(bad)


def _regenerate() -> None:
    """Rewrite the golden file of every run that fails its comparison or
    has none; a file whose run still matches keeps its bytes."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(RUNS):
        path = GOLDEN_DIR / f"{name}.json"
        with tempfile.TemporaryDirectory() as tmp:
            records = _run(name, Path(tmp))
        if path.exists() and not _mismatches(
                name, json.loads(path.read_text()), records):
            print(f"kept {path}")
            continue
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
