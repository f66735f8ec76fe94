"""One table over every public name and the edge values of its inputs.

Each row puts an edge value into one checked argument of a public name:
a scalar edge (``EDGES``, table ``ROWS``) or, for an argument that takes
an array, a list or a record, an array edge (``ARRAY_EDGES``, table
``ARRAY_ROWS``).  The value either raises ``ValueError`` from the input
rule of its kind (see ``phaserep.qmat`` and the README's "Inputs"
section) or gives the documented result, which the row checks.  Nothing
may print to stderr.  A name in ``phaserep.__all__`` without a row, or
without a stated reason for having none, fails
``test_every_public_name_has_a_row``.  Every phase argument has a row in
both tables, the array row accepting exactly the shapes the argument
takes; ``test_every_phase_argument_has_an_array_row`` checks the pairs.
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
    ancilla_imprint,
    asymptotic_sweep,
    baseline_single_copy,
    build_V,
    choi_from_kraus,
    cu_phase,
    default_design,
    effective_toffoli,
    experiment_pipeline,
    fidelity_replicas,
    fit_cosine,
    kron,
    mle_reconstruct,
    monte_carlo_errors,
    normalize_phase,
    optimal_cloner,
    optimal_cloner_fidelity,
    phase_gate,
    phase_profile,
    process_fidelity,
    process_matrix_from_json,
    process_matrix_to_json,
    read_datasets_csv,
    replicate_measured_form,
    replicated_map,
    replication_experiment_channel,
    replication_fidelity,
    simulate_counts,
    standard_phases,
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
# the edge values of an array argument; "2-d" stands where a 1-D list is
# due, "scalar" where a list is
ARRAY_EDGES = {
    "bool-array": np.array([True, False]), "string": "0.5", "none": None,
    "nan-entry": [[1.0, 0.0], [0.0, math.nan]],
    "inf-entry": [[1.0, 0.0], [0.0, math.inf]],
    "0-d": np.array(0.5), "empty": np.array([]), "scalar": 0.5,
    "2-d": [[0.5, 0.6]], "3x3": np.eye(3), "2x1": [[1.0], [0.0]],
    "bool-and-string": [True, "2"], "int-list": [0, 1],
    "4-entry": [0.1, 0.2, 0.3, 0.4],
}
# the array edges a phase argument accepts, by the shape it takes
ANY_SHAPE = ("0-d", "empty", "scalar", "2-d", "3x3", "2x1", "int-list",
             "4-entry")
ONE_PHASE = ("0-d", "scalar")
ONE_OR_LIST = ("0-d", "scalar", "int-list", "4-entry")
PHASE_LIST = ("int-list", "4-entry")


class Row(NamedTuple):
    call: Callable  # the public name with the edge value in one argument
    accepts: tuple[str, ...] = ()  # the edge values that give a result
    check: Callable | None = None  # (result, value): the documented result
    # a phase argument's shape, as the array edges it accepts
    shape: tuple[str, ...] | None = None


def _same(a, b) -> None:
    if dataclasses.is_dataclass(a):
        assert a == b
    else:
        assert type(a) is type(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _phase_row(call: Callable, shape: tuple[str, ...],
               check: Callable | None = None) -> Row:
    """A phase argument of the given shape: by default, the result at
    any finite phase is, bit for bit, the result at that phase reduced
    to [0, 2*pi)."""
    return Row(call, PHASES, check or (lambda result, x: _same(
        result, call(normalize_phase(float(x))))), shape)


def _shape_row(call: Callable, shape: tuple[str, ...],
               check: Callable | None = None) -> Row:
    """The array twin of a phase argument: it accepts the array edges of
    its shape.  By default one phase gives the float call's result, and
    an array the float calls' results stacked in its shape, bit for
    bit."""
    def each_phase(result, x):
        phases = np.asarray(x, dtype=np.float64)
        if phases.ndim == 0:
            return _same(result, call(float(phases)))
        one = np.asarray(call(0.0))
        want = np.array([call(float(p)) for p in phases.flat],
                        dtype=one.dtype).reshape(phases.shape + one.shape)
        assert type(result) is np.ndarray and result.dtype == want.dtype
        assert result.shape == want.shape
        assert result.tobytes() == want.tobytes()

    return Row(call, shape, check or each_phase, shape)


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
# the 1->2 map has 4 entries, as the 4-point twirl has points, so a
# 4-entry phase array broadcasts against either unless it is refused
_ONE_TO_TWO = ReplicationSpec(1, 2)
_IDEAL = OpticsParams.ideal()
_KRAUS = cu_phase(0.3)[None]
_DATASET = TomographyDataset(0.3, np.full(default_design().size, 2.0), 10.0)
_TARGETS = {"cu": cu_phase(0.3)}
_NO_FILE = Path(tempfile.gettempdir(), "phaserep-no-such-dir", "counts.csv")


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


def _write_counts(datasets):
    with tempfile.TemporaryDirectory() as tmp:
        write_datasets_csv(Path(tmp) / "counts.csv", datasets,
                           default_design())


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
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _kron_row(a=None, b=None, accepts=()) -> Row:
    """``kron`` with the edge value as the factor not given; the result
    equals ``np.kron`` bit for bit, dtype included."""
    def factors(x):
        return (x, b) if a is None else (a, x)

    def check(result, x):
        want = np.kron(*map(np.asarray, factors(x)))
        assert result.dtype == want.dtype and np.array_equal(result, want)

    return Row(lambda x: kron(*factors(x)), accepts, check if accepts
               else None)


def _dataset(phase):
    return TomographyDataset(phase, np.ones(3), 10.0)


def _channel(phi):
    return replication_experiment_channel(phi, OpticsParams.measured())


def _fit(phases):
    # as many fidelities as phases
    return fit_cosine(phases, np.linspace(0.5, 0.8, np.size(phases)))


def _dataset_phase(ds, x):
    # the phase is stored as its float, not reduced
    _same(ds.phase, float(x))


def _pipeline_phases(report, x):
    _same(report.phases, standard_phases() if x is None else tuple(
        normalize_phase(float(p)) for p in np.ravel(x)))


ROWS = {
    # the phase rule, in the shape each argument takes
    "normalize_phase": _phase_row(normalize_phase, ANY_SHAPE, _modulo_check),
    "phase_gate": _phase_row(phase_gate, ANY_SHAPE),
    "cu_phase": _phase_row(cu_phase, ANY_SHAPE),
    "fidelity_replicas": _phase_row(fidelity_replicas, ANY_SHAPE),
    "baseline_single_copy": _phase_row(baseline_single_copy, ANY_SHAPE),
    "optimal_cloner": _phase_row(optimal_cloner, ANY_SHAPE),
    "optimal_cloner_fidelity": _phase_row(optimal_cloner_fidelity,
                                          ANY_SHAPE),
    "replicate_measured_form": _phase_row(replicate_measured_form,
                                          ONE_PHASE),
    "replicated_map": _phase_row(lambda x: replicated_map(_ONE_TO_TWO, x),
                                 ONE_PHASE),
    "replication_fidelity": _phase_row(
        lambda x: replication_fidelity(_SPEC, x), ONE_PHASE),
    "twirled_mean_fidelity[phi]": _phase_row(
        lambda x: twirled_mean_fidelity(4, x), ONE_PHASE),
    "TomographyDataset[phase]": _phase_row(_dataset, ONE_PHASE,
                                           _dataset_phase),
    "replication_experiment_channel": _phase_row(_channel, ONE_OR_LIST),
    # a phase as one entry of a phase list
    "fit_cosine": _phase_row(
        lambda x: fit_cosine([0.0, 1.0, x], [0.5, 0.6, 0.7]), PHASE_LIST),
    "experiment_pipeline[phases]": _phase_row(
        lambda x: _pipeline(phase=x), PHASE_LIST,
        lambda report, x: _pipeline_phases(report, [x])),
    # the real-number rule
    "OpticsParams[r_v]": _field_row("r_v", ("0", "1.0")),
    "OpticsParams[r_h]": _field_row("r_h", ("0", "1.0")),
    "OpticsParams[visibility]": _field_row("visibility", ("0", "1.0")),
    "OpticsParams[phase_jitter_sigma]": _field_row(
        "phase_jitter_sigma", ("0", "1e300", "2^70", "2.5", "1.0")),
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
    # the phase grid np.linspace(0, pi, G), given by its size G >= 2
    "worst_case_fidelity": Row(lambda x: worst_case_fidelity(_SPEC, x)),
    "asymptotic_sweep[phi_grid_size]": Row(
        lambda x: asymptotic_sweep(0.5, [4], x)),
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

ARRAY_ROWS = {
    # the phase rule: each phase argument's array twin
    "normalize_phase": _shape_row(normalize_phase, ANY_SHAPE),
    "phase_gate": _shape_row(phase_gate, ANY_SHAPE),
    "cu_phase": _shape_row(cu_phase, ANY_SHAPE),
    "fidelity_replicas": _shape_row(fidelity_replicas, ANY_SHAPE),
    "baseline_single_copy": _shape_row(baseline_single_copy, ANY_SHAPE),
    "optimal_cloner": _shape_row(optimal_cloner, ANY_SHAPE),
    "optimal_cloner_fidelity": _shape_row(optimal_cloner_fidelity,
                                          ANY_SHAPE),
    "replicate_measured_form": _shape_row(replicate_measured_form,
                                          ONE_PHASE),
    "replicated_map": _shape_row(lambda x: replicated_map(_ONE_TO_TWO, x),
                                 ONE_PHASE),
    "replication_fidelity": _shape_row(
        lambda x: replication_fidelity(_SPEC, x), ONE_PHASE),
    "twirled_mean_fidelity[phi]": _shape_row(
        lambda x: twirled_mean_fidelity(4, x), ONE_PHASE),
    "TomographyDataset[phase]": _shape_row(_dataset, ONE_PHASE,
                                           _dataset_phase),
    "replication_experiment_channel": _shape_row(_channel, ONE_OR_LIST),
    "fit_cosine": _shape_row(_fit, PHASE_LIST, lambda fit, x: _same(
        fit, _fit([normalize_phase(float(p)) for p in x]))),
    # None gives the documented default
    "experiment_pipeline[phases]": Row(
        lambda x: experiment_pipeline(_IDEAL, x, 10.0),
        ("none",) + PHASE_LIST, _pipeline_phases, PHASE_LIST),
    # the operator-array rule
    "kron[a]": _kron_row(b=_X, accepts=("2-d", "2x1")),
    "kron[b]": _kron_row(a=[1, 0], accepts=("int-list", "4-entry")),
    "process_fidelity[channel]": Row(lambda x: process_fidelity(x, _X)),
    "process_fidelity[u]": Row(
        lambda x: process_fidelity(np.eye(2)[None], x)),
    "choi_from_kraus": Row(choi_from_kraus),
    "simulate_counts[channel]": Row(
        lambda x: simulate_counts(x, default_design(), 10.0, 1)),
    # the params rule
    "effective_toffoli": Row(effective_toffoli),
    "replication_experiment_channel[params]": Row(
        lambda x: replication_experiment_channel(0.3, x)),
    "experiment_pipeline[params]": Row(
        lambda x: experiment_pipeline(x, [0.5], 10.0)),
    # the real-vector rule: a dataset may hold no counts
    "TomographyDataset[counts]": Row(
        lambda x: TomographyDataset(0.0, x, 10.0),
        ("empty", "int-list", "4-entry"),
        lambda ds, x: _same(ds.counts, np.array(x, dtype=np.float64))),
    "fit_cosine[fidelities]": Row(
        lambda x: fit_cosine([0.0, 1.0], x), ("int-list",),
        lambda fit, x: _same(fit, fit_cosine([0.0, 1.0], [0.0, 1.0]))),
    # the size-list rule: no sizes, no rows
    "asymptotic_sweep[n_list]": Row(
        lambda x: asymptotic_sweep(0.5, x), ("empty",),
        lambda rows, x: _same(rows, [])),
    "asymptotic_sweep[m_list]": Row(
        lambda x: asymptotic_sweep(0.5, [4], m_list=x), ("none",),
        lambda rows, x: _same(rows[0], asymptotic_sweep(0.5, [4])[0])),
    # the integer rule: the phase grid is its size, so no list, array or
    # None stands for it
    "worst_case_fidelity[phi_grid]": Row(
        lambda x: worst_case_fidelity(_SPEC, x)),
    # the record rule: one record, or for datasets a list of them
    "mle_reconstruct": Row(lambda x: mle_reconstruct(x, default_design())),
    "monte_carlo_errors[dataset]": Row(
        lambda x: monte_carlo_errors(x, default_design(), 2, _TARGETS, 1)),
    "write_datasets_csv": Row(_write_counts),
    "simulate_counts[design]": Row(
        lambda x: simulate_counts(_KRAUS, x, 10.0, 1)),
    "mle_reconstruct[design]": Row(lambda x: mle_reconstruct(_DATASET, x)),
    "monte_carlo_errors[design]": Row(
        lambda x: monte_carlo_errors(_DATASET, x, 2, _TARGETS, 1)),
    # the design is checked before the file is opened, so a path in a
    # missing directory still gives ValueError
    "write_datasets_csv[design]": Row(
        lambda x: write_datasets_csv(_NO_FILE, [_DATASET], x)),
    "read_datasets_csv[design]": Row(
        lambda x: read_datasets_csv(_NO_FILE, x)),
    "process_matrix_to_json": Row(process_matrix_to_json),
    "build_V": Row(build_V),
    "ancilla_imprint": Row(ancilla_imprint),
    "phase_profile": Row(phase_profile),
    "replicated_map[spec]": Row(lambda x: replicated_map(x, 0.3)),
    "replication_fidelity[spec]": Row(lambda x: replication_fidelity(x, 0.3)),
    "worst_case_fidelity[spec]": Row(worst_case_fidelity),
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
}


def test_every_public_name_has_a_row():
    with_rows = {key.split("[")[0] for key in ROWS | ARRAY_ROWS}
    assert with_rows.isdisjoint(NO_CHECKED_ARGUMENT)
    assert sorted(with_rows | set(NO_CHECKED_ARGUMENT)) \
        == sorted(phaserep.__all__)
    for rows, edges in ((ROWS, EDGES), (ARRAY_ROWS, ARRAY_EDGES)):
        for row in rows.values():
            assert set(row.accepts) <= set(edges)
            assert (row.check is None) == (not row.accepts)


def test_every_phase_argument_has_an_array_row():
    # a phase argument's scalar row and its array twin state one shape,
    # and the twin accepts exactly its array edges (and None where that
    # gives a documented default), so no phase argument skips the check
    # of its shape
    phase_rows = {key: row.shape for key, row in ROWS.items() if row.shape}
    assert phase_rows == {key: row.shape for key, row in ARRAY_ROWS.items()
                          if row.shape}
    for key, shape in phase_rows.items():
        assert set(ARRAY_ROWS[key].accepts) - {"none"} == set(shape), key


def _run(row: Row, edge: str, value, capfd) -> None:
    if edge in row.accepts:
        row.check(row.call(value), value)
    else:
        with pytest.raises(ValueError):
            row.call(value)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("key, edge", [
    (key, edge) for key in ROWS for edge in EDGES])
def test_edge_value(key, edge, capfd):
    _run(ROWS[key], edge, EDGES[edge], capfd)


@pytest.mark.parametrize("key, edge", [
    (key, edge) for key in ARRAY_ROWS for edge in ARRAY_EDGES])
def test_array_edge_value(key, edge, capfd):
    _run(ARRAY_ROWS[key], edge, ARRAY_EDGES[edge], capfd)
