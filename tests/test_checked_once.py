"""Each value from the user passes its input rule once when the CLI
resolves its config; a command's run then checks only what its library
calls receive.

Every rule function (the rules of ``phaserep.qmat``, the optics field,
scan and params rules, the design's channel rule and the records'
``__post_init__``) is wrapped, in every ``phaserep`` namespace that
binds it, by a recorder of its outermost calls: a rule that calls
another rule is one call.  Each command then runs in-process on user
values that occur nowhere else.  The calls made while the config is
resolved must be exactly one per user value, in the order the config
is resolved.  After that, ``replicate`` and ``optics-scan`` call the
kernels, and the one rule that runs is the params rule, once per public
``effective_toffoli`` call, on the command's params stack.  ``tomo``
and ``superrep`` hand the resolved values to the public
``experiment_pipeline`` and ``asymptotic_sweep``, whose spans
perfbench's traced runs record: their rules check each value once
more, and the records they make check their fields.
"""
import json
import sys
from numbers import Real

import pytest

from phaserep import choi, cli, optics, qmat, superrep, tomo

RULES = {
    qmat: ("_integer", "_seed", "_trials", "_real", "_check_width",
           "_numbers", "_phase_list", "_reals", "_sizes", "_operator",
           "_record", "_records", "normalize_phase"),
    optics: ("_field", "_field_values", "_columns"),
    tomo: ("_two_qubit",),
}
RECORDS = (optics.OpticsParams, superrep.ReplicationSpec,
           tomo.TomographyDataset, choi.ProcessMatrix)
# the rules whose checked value is not their first argument
VALUE_ARG = {"_field": 1, "_field_values": 1}

# command -> (argv, config file, the outermost rule calls while the
# config is resolved and then while the command runs, as (rule, value));
# a value the package built (a params stack, a grid, a record) is None
CASES = {
    "replicate": (
        ["--svg"],
        {"phases": [0.125, 7.5], "preset": "measured",
         "optics": {"visibility": 0.875, "r_h": 0.03125}},
        [("_real", 0.125), ("_real", 7.5), ("_field", 0.03125),
         ("_field", 0.875)],
        [("_columns", None)]),
    "superrep": (
        [],
        {"alpha": 0.625, "n_list": [5, 7], "m_list": [11, 29],
         "phi_grid_size": 17},
        [("_real", 0.625), ("_sizes", [5, 7]), ("_sizes", [11, 29]),
         ("_integer", 17)],
        [("_real", 0.625), ("_sizes", [5, 7]), ("_sizes", [11, 29]),
         ("_phase_list", None),
         ("ReplicationSpec", None), ("ReplicationSpec", None)]),
    "tomo": (
        ["--seed", "3", "--phases", "0.375", "--rate", "250",
         "--trials", "2", "--preset", "ideal"],
        {"optics": {"phase_jitter_sigma": 0.5}},
        [("_seed", 3), ("_real", 0.375), ("_real", 250.0), ("_trials", 2),
         ("_field", 0.5)],
        # the dataset, then the estimate and the ideal chi of the one
        # phase (the resamples' chi stay arrays), the written datasets
        # and their design, and the written chi
        [("_record", None), ("_trials", 2), ("_real", 250.0), ("_seed", 3),
         ("_phase_list", (0.375,)), ("_columns", None),
         ("TomographyDataset", None)] + [("ProcessMatrix", None)] * 2
        + [("_records", None), ("_record", None), ("_record", None),
           ("_record", None)]),
    "optics-scan": (
        [],
        {"preset": "measured", "optics": {"r_v": 0.6875},
         "parameter": "r_h", "values": [0.0, 0.0125, 0.025],
         "phi": 1.375},
        [("_field", 0.6875), ("_field_values", [0.0, 0.0125, 0.025]),
         ("_real", 1.375)],
        [("_columns", None), ("_columns", None)]),
}


def _user_value(value):
    # numbers and lists of numbers as they are; anything else was built
    # by the package
    if isinstance(value, (list, tuple)) \
            and all(isinstance(v, Real) for v in value):
        return value
    return value if isinstance(value, Real) else None


@pytest.fixture
def rule_calls(monkeypatch):
    calls, depth = [], [0]

    def counted(name, rule):
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                calls.append((name, args[VALUE_ARG.get(name, 0)]))
            depth[0] += 1
            try:
                return rule(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    modules = [m for key, m in sys.modules.items()
               if key == "phaserep" or key.startswith("phaserep.")]
    for owner, names in RULES.items():
        for name in names:
            rule = getattr(owner, name)
            wrapper = counted(name, rule)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is rule:
                        monkeypatch.setattr(module, attr, wrapper)
    for record in RECORDS:
        monkeypatch.setattr(record, "__post_init__", counted(
            record.__name__, record.__post_init__))
    return calls


@pytest.mark.parametrize("command", sorted(CASES))
def test_the_config_checks_each_user_value_once(command, rule_calls,
                                                tmp_path, monkeypatch):
    argv, config, resolving, running = CASES[command]
    resolved = []
    resolve_config = cli.resolve_config

    def marked(args):
        config = resolve_config(args)
        resolved.append(len(rule_calls))
        return config

    monkeypatch.setattr(cli, "resolve_config", marked)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, *argv, "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert any((tmp_path / "out").iterdir())
    seen = [(rule, _user_value(value)) for rule, value in rule_calls]
    assert seen[:resolved[0]] == resolving
    assert seen[resolved[0]:] == running


@pytest.mark.parametrize("trials", ["0", "5"])
def test_a_tomo_run_makes_two_process_matrices_a_phase(trials, rule_calls,
                                                       tmp_path):
    # each phase's estimate and ideal chi; the solver and the bootstrap
    # keep their chi as arrays, whatever the number of resamples
    assert cli.main(["tomo", "--phases", "0.375,1.25,2.5", "--rate", "250",
                     "--trials", trials, "--preset", "ideal",
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert [rule for rule, _ in rule_calls].count("ProcessMatrix") == 2 * 3


def test_a_library_call_checks_each_argument_once(rule_calls):
    # the public entry point applies its rules, and its kernel calls
    # the kernels of the others
    from phaserep import fidelity_replicas, optimal_cloner_fidelity
    fidelity_replicas([0.25, 0.5])
    optimal_cloner_fidelity(0.75)
    assert rule_calls == [("normalize_phase", [0.25, 0.5]),
                          ("normalize_phase", 0.75)]
