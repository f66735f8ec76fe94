import ast
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import phaserep
from phaserep import (
    OpticsParams,
    choi_from_kraus,
    cli,
    default_design,
    replication_experiment_channel,
    simulate_counts,
)

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_public_names_resolve():
    missing = [name for name in phaserep.__all__
               if not hasattr(phaserep, name)]
    assert missing == []
    assert len(set(phaserep.__all__)) == len(phaserep.__all__)


def test_public_names_are_their_modules_objects():
    # each package name is the object its defining module holds, and
    # that module is a package attribute too; an unknown name is an
    # AttributeError
    assert len(phaserep.__all__) == 46
    for name in phaserep.__all__:
        value = getattr(phaserep, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value, name
        package, module_name = value.__module__.split(".")
        assert package == "phaserep", name
        assert getattr(phaserep, module_name) is module, name
    with pytest.raises(AttributeError, match="no_such_name"):
        phaserep.no_such_name


def test_import_loads_no_submodule():
    # a fresh interpreter: the package loads a module when one of its
    # names is first read, and no sooner
    code = ("import sys, phaserep; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('phaserep.')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_public_names_have_their_own_docstrings():
    # dataclass writes its signature as the docstring of a class that
    # has none, so that does not count as one
    undocumented = [
        name for name in phaserep.__all__
        if not (getattr(phaserep, name).__doc__ or "").strip()
        or getattr(phaserep, name).__doc__.startswith(name + "(")]
    assert undocumented == []


# the public names that nothing in src/, demos/ or perfbench/ uses, each
# with the reason it stays public
_UNCALLED_PUBLIC_NAMES = {
    "process_matrix_from_json": "reads the chi_NN.json files of tomo",
    "read_datasets_csv": "reads the counts.csv file of tomo",
    # the package calls these through their kernels, whose values it
    # checked or made itself
    "optimal_cloner": "the Kraus pair behind optimal_cloner_fidelity",
    "worst_case_fidelity": "one size of asymptotic_sweep",
    # named only in a string, which the AST walk does not read
    "sector_operators": "perfbench traces optics.sector_operators by name",
}


def _referenced_names() -> set[str]:
    # every name read as a variable or an attribute in the package
    # modules, the demos and the benchmark; a def or class line defines
    # its name without reading it, and __init__.py only re-exports
    paths = [p for p in (ROOT / "src" / "phaserep").glob("*.py")
             if p.name != "__init__.py"]
    paths += list((ROOT / "demos").glob("*.py"))
    paths += list((ROOT / "perfbench").rglob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_definitions() -> set[str]:
    # the names in __all__, and every public function and class defined
    # at the top level of a package module, exported or not
    names = set(phaserep.__all__)
    for path in (ROOT / "src" / "phaserep").glob("*.py"):
        names.update(
            node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))
    return names


def test_public_names_have_a_caller():
    used = _referenced_names()
    uncalled = sorted(n for n in _public_definitions() if n not in used)
    assert uncalled == sorted(_UNCALLED_PUBLIC_NAMES)


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


def _perfbench_workloads():
    # perfbench/workloads.py imports only the standard library; load it by
    # path so the benchmark package need not be importable
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_ops_are_valid_cli_calls(tmp_path):
    # every op's flags and config must pass the parser and the config
    # checks; the ops themselves are not run
    workloads = _perfbench_workloads()
    config_path = tmp_path / "config.json"
    checked = 0
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 0):
            if op.config is not None:
                config_path.write_text(json.dumps(op.config))
            argv = op.argv(tmp_path / "out", config_path)
            cli.resolve_config(cli.build_parser().parse_args(argv))
            checked += 1
    assert checked > 0
    assert not (tmp_path / "out").exists()


def test_benchmark_checks_read_only_existing_design_attributes():
    # perfbench/checks.py reads the tomography design by attribute; a
    # removed attribute must fail here, not as failed benchmark ops
    tree = ast.parse((ROOT / "perfbench" / "checks.py").read_text())
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id == "design"}
    assert "operators" in attrs
    design = default_design()
    assert [a for a in sorted(attrs) if not hasattr(design, a)] == []


def test_benchmark_dataset_accepts_the_kraus_channel():
    # perfbench's tests simulate counts straight from the experiment
    # channel; the Kraus array must give the counts of its process matrix
    design = default_design()
    channel = replication_experiment_channel(math.pi / 2,
                                             OpticsParams.measured())
    counts = simulate_counts(channel, design, 1e4, 3).counts
    assert counts.shape == (design.size,) and counts.sum() > 0
    via_chi = simulate_counts(choi_from_kraus(channel), design, 1e4, 3)
    assert np.array_equal(counts, via_chi.counts)


def test_demos_are_found():
    assert len(DEMOS) == 4


def _run_demo(demo: Path, cwd: Path, *args: str):
    # a fresh interpreter per demo, run outside the repository so nothing
    # it might write lands in the tree
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # -W error: a numpy RuntimeWarning in a demo fails it, as in the tests
    proc = subprocess.run([sys.executable, "-W", "error", str(demo), *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_with_defaults(demo, tmp_path):
    _run_demo(demo, tmp_path)


def test_scaling_demo_writes_its_figure(tmp_path):
    figure = tmp_path / "f.svg"
    _run_demo(ROOT / "demos" / "superreplication_scaling.py", tmp_path,
              "--svg", str(figure))
    root = ET.parse(figure).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
