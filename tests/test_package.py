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
