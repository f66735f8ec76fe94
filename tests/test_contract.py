"""One table over every public name and the edge values of its inputs.

Each row puts an edge value into one checked argument of a public name.
The value either raises ``ValueError`` from the input rule of its kind
(see ``phaserep.qmat`` and the README's "Inputs" section) or gives the
documented result, which the row checks.  Nothing may print to stderr.
A name in ``phaserep.__all__`` without a row, or without a stated reason
for having none, fails ``test_every_public_name_has_a_row``.
"""
import dataclasses
import json
import math
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import phaserep
from phaserep import (
    OpticsParams,
    ProcessMatrix,
    ReplicationSpec,
    TomographyDataset,
    asymptotic_sweep,
    baseline_single_copy,
    choi_from_kraus,
    cu_phase,
    default_design,
    experiment_pipeline,
    fidelity_replicas,
    fit_cosine,
    monte_carlo_errors,
    normalize_phase,
    optimal_cloner,
    optimal_cloner_fidelity,
    phase_gate,
    process_matrix_from_json,
    process_matrix_to_json,
    read_datasets_csv,
    replicate_measured_form,
    replicated_map,
    replication_experiment_channel,
    replication_fidelity,
    simulate_counts,
    twirled_mean_fidelity,
    worst_case_fidelity,
    write_datasets_csv,
)

# none of these may make the code allocate or loop at its size: a size
# the integer rule rejects is rejected before anything is built
EDGES = {
    "bool": True, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "-1": -1, "0": 0, "1e300": 1e300, "2^70": 2 ** 70, "2.5": 2.5,
    "1.0": 1.0,
}
# the edge values that are phases: every finite real number
PHASES = ("-1", "0", "1e300", "2^70", "2.5", "1.0")


class Row(NamedTuple):
    call: Callable  # the public name with the edge value in one argument
    accepts: tuple[str, ...] = ()  # the edge values that give a result
    check: Callable | None = None  # (result, value): the documented result


def _same(a, b) -> None:
    if dataclasses.is_dataclass(a):
        assert a == b
    else:
        assert type(a) is type(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _phase_row(call: Callable) -> Row:
    """A phase argument: the result at any finite phase is, bit for bit,
    the result at that phase reduced to [0, 2*pi)."""
    return Row(call, PHASES, lambda result, x: _same(
        result, call(normalize_phase(float(x)))))


def _field_row(name: str, accepts: tuple[str, ...]) -> Row:
    """An ``OpticsParams`` field, stored as the float of its value."""
    def call(x):
        fields = {"r_v": 0.5, "r_h": 0.0, "visibility": 1.0, name: x}
        return OpticsParams(**fields)

    def check(params, x):
        assert type(getattr(params, name)) is float
        assert getattr(params, name) == float(x)

    return Row(call, accepts, check)


_SPEC = ReplicationSpec(2, 4)
_IDEAL = OpticsParams.ideal()
_KRAUS = cu_phase(0.3)[None]
_DATASET = TomographyDataset(0.3, np.full(default_design().size, 2.0), 10.0)
_TARGETS = {"cu": cu_phase(0.3)}


def _counts(rate=10.0, seed=1):
    return simulate_counts(_KRAUS, default_design(), rate, seed)


def _check_counts(ds, x):
    assert ds.rate == float(x) and np.all(ds.counts == np.round(ds.counts))


def _pipeline(phase=0.5, rate=10.0, trials=0, seed=1):
    return experiment_pipeline(_IDEAL, [phase], rate, trials, seed)


def _bootstrap(trials=2, seed=1):
    return monte_carlo_errors(_DATASET, default_design(), trials, _TARGETS,
                              seed)


def _read_rate(rate):
    # a counts file whose "# rates:" header holds the edge value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        write_datasets_csv(path, [_DATASET], default_design())
        text = path.read_text().replace("# rates: [10.0]",
                                        "# rates: " + json.dumps([rate]))
        path.write_text(text)
        return read_datasets_csv(path, default_design())


def _sweep_check(rows, x):
    # M = floor(4^(2 - alpha)), at least 1; the row reports alpha as a
    # float
    assert type(rows[0].alpha) is float and rows[0].alpha == float(x)
    assert rows[0].replicas == max(1, math.floor(4 ** (2.0 - float(x))))


def _no_error_bars(report, x):
    assert report.trials == 0 and math.isnan(report.rows[0].f_cu_std)


def _modulo_check(result, x):
    # Python's float modulo, with the 2*pi it rounds to for a tiny
    # negative phase read as 0
    want = float(x) % (2.0 * math.pi)
    assert type(result) is float
    assert result == (0.0 if want == 2.0 * math.pi else want)


_CHI_DOC = process_matrix_to_json(choi_from_kraus([np.eye(2)]))

ROWS = {
    # the phase rule
    "normalize_phase": Row(normalize_phase, PHASES, _modulo_check),
    "phase_gate": _phase_row(phase_gate),
    "cu_phase": _phase_row(cu_phase),
    "fidelity_replicas": _phase_row(fidelity_replicas),
    "baseline_single_copy": _phase_row(baseline_single_copy),
    "optimal_cloner": _phase_row(optimal_cloner),
    "optimal_cloner_fidelity": _phase_row(optimal_cloner_fidelity),
    "replicate_measured_form": _phase_row(replicate_measured_form),
    "replicated_map": _phase_row(lambda x: replicated_map(_SPEC, x)),
    "replication_fidelity": _phase_row(
        lambda x: replication_fidelity(_SPEC, x)),
    "replication_experiment_channel": _phase_row(
        lambda x: replication_experiment_channel(x, OpticsParams.measured())),
    "fit_cosine": _phase_row(
        lambda x: fit_cosine([0.0, 1.0, x], [0.5, 0.6, 0.7])),
    "twirled_mean_fidelity[phi]": _phase_row(
        lambda x: twirled_mean_fidelity(8, x)),
    # a grid point is reported as the caller gave it, not wrapped
    "worst_case_fidelity": Row(
        lambda x: worst_case_fidelity(_SPEC, [x]), PHASES,
        lambda result, x: _same(
            result, (float(x), replication_fidelity(_SPEC, x)))),
    "experiment_pipeline[phases]": Row(
        lambda x: _pipeline(phase=x), PHASES,
        lambda report, x: _same(report.phases,
                                (normalize_phase(float(x)),))),
    # the real-number rule
    "OpticsParams[r_v]": _field_row("r_v", ("0", "1.0")),
    "OpticsParams[r_h]": _field_row("r_h", ("0", "1.0")),
    "OpticsParams[visibility]": _field_row("visibility", ("0", "1.0")),
    "OpticsParams[phase_jitter_sigma]": _field_row(
        "phase_jitter_sigma", ("0", "1e300", "2^70", "2.5", "1.0")),
    "TomographyDataset[phase]": Row(
        lambda x: TomographyDataset(x, np.ones(3), 10.0), PHASES,
        lambda ds, x: _same(ds.phase, float(x))),
    "TomographyDataset[rate]": Row(
        lambda x: TomographyDataset(0.0, np.ones(3), x),
        ("1e300", "2^70", "2.5", "1.0"),
        lambda ds, x: _same(ds.rate, float(x))),
    "read_datasets_csv": Row(
        _read_rate, ("1e300", "2^70", "2.5", "1.0"),
        lambda datasets, x: _same(datasets[0].rate, float(x))),
    # a rate beyond numpy's Poisson range raises ValueError too
    "simulate_counts[rate]": Row(lambda x: _counts(rate=x), ("2.5", "1.0"),
                                 _check_counts),
    "experiment_pipeline[rate]": Row(
        lambda x: _pipeline(rate=x), ("2.5", "1.0"),
        lambda report, x: _same(report.rate, float(x))),
    "asymptotic_sweep[alpha]": Row(
        lambda x: asymptotic_sweep(x, [4]), ("1e300", "2^70", "2.5", "1.0"),
        _sweep_check),
    # the integer rule
    "ReplicationSpec[copies]": Row(lambda x: ReplicationSpec(x, 4)),
    "ReplicationSpec[replicas]": Row(lambda x: ReplicationSpec(2, x)),
    "asymptotic_sweep[n_list]": Row(lambda x: asymptotic_sweep(0.5, [x])),
    "asymptotic_sweep[m_list]": Row(
        lambda x: asymptotic_sweep(0.5, [4], m_list=[x])),
    "twirled_mean_fidelity[grid_size]": Row(twirled_mean_fidelity),
    "ProcessMatrix": Row(lambda x: ProcessMatrix(np.eye(4) / 4.0, x)),
    "process_matrix_from_json": Row(
        lambda x: process_matrix_from_json(dict(_CHI_DOC, qubits=x))),
    # the trials rule
    "monte_carlo_errors[trials]": Row(lambda x: _bootstrap(trials=x)),
    "experiment_pipeline[trials]": Row(
        lambda x: _pipeline(trials=x), ("0",), _no_error_bars),
    # the seed rule: an integer seed draws what its SeedSequence draws
    "simulate_counts[seed]": Row(
        lambda x: _counts(seed=x), ("0", "2^70"),
        lambda ds, x: _same(ds.counts, _counts(
            seed=np.random.SeedSequence(x)).counts)),
    "monte_carlo_errors[seed]": Row(
        lambda x: _bootstrap(seed=x), ("0", "2^70"),
        lambda stats, x: _same(stats["cu"], _bootstrap(
            seed=np.random.SeedSequence(x))["cu"])),
    "experiment_pipeline[seed]": Row(
        lambda x: _pipeline(seed=x), ("0", "2^70"),
        lambda report, x: _same(report.seed, x)),
}

# the public names with no argument of a checked kind, and why
NO_CHECKED_ARGUMENT = {
    **dict.fromkeys(
        ["FidelityStats", "FitResult", "MleResult", "PhaseReport",
         "PipelineReport", "SweepRow"],
        "a result record, filled by the function that returns it"),
    **dict.fromkeys(
        ["TomographyDesign", "baseline_measure_prepare", "controlled_z",
         "default_design", "standard_phases", "toffoli"],
        "takes no argument"),
    **dict.fromkeys(
        ["ancilla_imprint", "build_V", "phase_profile"],
        "takes a ReplicationSpec, checked when it is made"),
    "effective_toffoli": "takes OpticsParams, checked when they are made",
    **dict.fromkeys(
        ["mle_reconstruct", "process_matrix_to_json", "write_datasets_csv"],
        "takes records (TomographyDataset, ProcessMatrix) checked when "
        "they are made"),
    **dict.fromkeys(
        ["choi_from_kraus", "kron", "process_fidelity"],
        "takes gate or Kraus arrays, checked by their shapes"),
}


def test_every_public_name_has_a_row():
    with_rows = {key.split("[")[0] for key in ROWS}
    assert with_rows.isdisjoint(NO_CHECKED_ARGUMENT)
    assert sorted(with_rows | set(NO_CHECKED_ARGUMENT)) \
        == sorted(phaserep.__all__)
    for row in ROWS.values():
        assert set(row.accepts) <= set(EDGES)
        assert (row.check is None) == (not row.accepts)


@pytest.mark.parametrize("key, edge", [
    (key, edge) for key in ROWS for edge in EDGES])
def test_edge_value(key, edge, capfd):
    row, value = ROWS[key], EDGES[edge]
    if edge in row.accepts:
        row.check(row.call(value), value)
    else:
        with pytest.raises(ValueError):
            row.call(value)
    assert capfd.readouterr().err == ""
