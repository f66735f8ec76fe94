import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phaserep

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_public_names_resolve():
    missing = [name for name in phaserep.__all__
               if not hasattr(phaserep, name)]
    assert missing == []
    assert len(set(phaserep.__all__)) == len(phaserep.__all__)


def _trace_targets() -> list[str]:
    # the keys of perfbench/run.py's TRACE_TARGETS, read without importing
    # the benchmark harness
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["TRACE_TARGETS"]):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/run.py defines no TRACE_TARGETS")


def test_benchmark_trace_targets_resolve():
    # the benchmark's --trace mode patches each "module.attr[.attr]" name
    # under phaserep; a rename in src/ must fail here, not in the harness
    targets = _trace_targets()
    assert "qmat.kron" in targets
    for target in targets:
        module, *path = target.split(".")
        owner = importlib.import_module(f"phaserep.{module}")
        for attr in path:
            owner = getattr(owner, attr, None)
            assert owner is not None, f"{target} does not resolve"
        assert callable(owner), f"{target} is not callable"


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_with_defaults(demo, tmp_path):
    # a fresh interpreter per demo, run outside the repository so nothing
    # it might write lands in the tree
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
