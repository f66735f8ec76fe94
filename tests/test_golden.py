"""CLI artifacts pinned against checked-in golden values.

Each run below executes one ``phaserep`` command in-process and compares
every artifact it writes with ``tests/golden/<run>.json``.  The metadata
header is left out except ``artifact_version``, so a format change shows
while the command name, seed and config hash do not; the ``# phase_values:``
and ``# rates:`` lines of ``counts.csv`` are data and stay in.  Strings and
integers compare exactly.  Floats of the closed-form commands compare to a
relative tolerance of 1e-13; ``tomo`` artifacts compare exactly.
``counts.csv`` (10k rows) and the ``chi_NN.json`` matrices are stored as
the sha256 of their kept content.

After a deliberate change of values, regenerate with

    PYTHONPATH=src python3 tests/test_golden.py

and record in CHANGES.md which values moved, by how much, and why.
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
    "replicate-measured": (["replicate", "--preset", "measured"], None,
                           CLOSED_FORM_RTOL),
    "replicate-measured-phases": (
        ["replicate", "--preset", "measured", "--phases", "7.0,-1.5,0.3"],
        None, CLOSED_FORM_RTOL),
    "superrep": (["superrep"], None, CLOSED_FORM_RTOL),
    "optics-scan": (["optics-scan"], None, CLOSED_FORM_RTOL),
    "optics-scan-jitter": (
        ["optics-scan"],
        {"preset": "measured", "parameter": "phase_jitter_sigma",
         "values": [0.0, 0.3, 0.65]},
        CLOSED_FORM_RTOL),
    "tomo-measured-jitter": (
        ["tomo", "--preset", "measured", "--rate", "2000", "--seed", "5",
         "--trials", "3"],
        {"optics": {"phase_jitter_sigma": 0.65}},
        0.0),
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_artifacts_match_golden(tmp_path, name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = _run(name, tmp_path)
    assert sorted(got) == sorted(golden)
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
    assert not bad, "\n".join(bad)


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            records = _run(name, Path(tmp))
        (GOLDEN_DIR / f"{name}.json").write_text(
            json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_DIR / name}.json")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
