"""Tomography design, likelihood ascent, error bars, and the pipeline."""
import copy
import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import expected_counts

from phaserep import (
    FitResult,
    OpticsParams,
    ProcessMatrix,
    TomographyDataset,
    baseline_single_copy,
    choi_from_kraus,
    cu_phase,
    default_design,
    experiment_pipeline,
    fidelity_replicas,
    fit_cosine,
    kron,
    mle_reconstruct,
    monte_carlo_errors,
    phase_gate,
    process_fidelity,
    read_datasets_csv,
    replication_experiment_channel,
    simulate_counts,
    standard_phases,
    write_datasets_csv,
)
from phaserep import choi, tomo
from phaserep.choi import choi_vector
from phaserep.qmat import PROJECTOR_KETS
from phaserep.tomo import (
    MEASUREMENT_BASES,
    SINGLE_QUBIT_STATES,
    _mle_batch,
    _row_layout,
)


def _design_parts():
    """The default design's input kets and settings, built from the
    single-qubit Pauli eigenstates."""
    singles = [PROJECTOR_KETS[s] for s in SINGLE_QUBIT_STATES]
    kets = [np.kron(a, b) for a in singles for b in singles]
    outcomes = {"x": "+-", "y": ("+i", "-i"), "z": "01"}
    settings = []
    for b0 in MEASUREMENT_BASES:
        for b1 in MEASUREMENT_BASES:
            pairs = [np.kron(PROJECTOR_KETS[o0], PROJECTOR_KETS[o1])
                     for o0 in outcomes[b0] for o1 in outcomes[b1]]
            settings.append([np.outer(k, k.conj()) for k in pairs])
    return kets, settings


def _dense_matrix(design):
    """The rows x 256 coefficient matrix with p_j = A_j . vec(chi), built
    from the design's operators as the reference for its factored maps:
    A_j = vec(O_j^T)."""
    return design.operators.transpose(0, 2, 1).reshape(design.size, 256)


def _uhlmann(a: np.ndarray, b: np.ndarray) -> float:
    wa, va = np.linalg.eigh(a)
    sqrt_a = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.conj().T
    w = np.linalg.eigvalsh(sqrt_a @ b @ sqrt_a)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


# ---------------------------------------------------------------- design


def test_default_design_dimensions():
    design = default_design()
    assert design.n_inputs == len(SINGLE_QUBIT_STATES) ** 2 == 36
    assert design.n_settings == len(MEASUREMENT_BASES) ** 2 == 9
    assert design.size == 36 * 9 * 4 == 1296
    assert design.operators.shape == (1296, 16, 16)
    assert _dense_matrix(design).shape == (1296, 256)


def test_default_design_is_identifiable_and_uniform():
    # what the RrhoR solver relies on, read off the dense stack: the O_j
    # span all 256 dimensions, and they sum to 324 * I (the 6 single-qubit
    # kets' projectors sum to 3*I, squared over the pair and times
    # d * n_settings: 4 * 9 * 9 = 324)
    design = default_design()
    assert np.linalg.matrix_rank(_dense_matrix(design)) == 256
    total = design.operators.sum(axis=0)
    assert np.max(np.abs(total - 324.0 * np.eye(16))) <= 1e-12


def _sub_design_rows(design, inputs, outcomes):
    """The dense rows (row j = i * n_outcomes + k) of the design cut down
    to the given input and outcome indices."""
    n_outcomes = design.outcome_factor.shape[1]
    return np.array([i * n_outcomes + k for i in inputs for k in outcomes])


def test_rank_from_factors_matches_the_dense_matrix():
    # every O_j is a Kronecker product, so the rank of the stack is the
    # product of the factors' ranks: the full, one-input-dropped and
    # single-setting (rank-deficient) cuts, against an SVD of the dense
    # matrix
    design = default_design()
    dense = _dense_matrix(design)
    n_in, n_out = design.input_factor.shape[0], design.outcome_factor.shape[1]
    cuts = [(range(n_in), range(n_out)), (range(1, n_in), range(n_out)),
            (range(n_in), range(4))]
    ranks = []
    for inputs, outcomes in cuts:
        rank = (np.linalg.matrix_rank(design.input_factor[list(inputs)])
                * np.linalg.matrix_rank(design.outcome_factor[:, list(outcomes)]))
        rows = _sub_design_rows(design, inputs, outcomes)
        assert rank == np.linalg.matrix_rank(dense[rows])
        ranks.append(rank)
    assert ranks == [256, 256, 64]


@pytest.mark.parametrize("drop_input", [False, True])
def test_operator_sum_from_factors_matches_the_dense_sum(drop_input):
    # sum_j O_j = (sum_i rho_i^T) (x) (sum_k d Pi_k); it is a multiple of
    # the identity only for the full set of inputs
    design = default_design()
    n_in, n_out = design.input_factor.shape[0], design.outcome_factor.shape[1]
    inputs = range(n_in - 1) if drop_input else range(n_in)
    total = design.operators[_sub_design_rows(design, inputs,
                                              range(n_out))].sum(axis=0)
    from_factors = np.kron(
        design.input_factor[list(inputs)].sum(axis=0).reshape(4, 4),
        design.outcome_factor.sum(axis=1).reshape(4, 4))
    assert np.max(np.abs(from_factors - total)) <= 1e-12
    scale = float(np.trace(total).real) / 16.0
    assert scale == pytest.approx(324.0 * len(inputs) / n_in, rel=1e-14)
    spread = np.max(np.abs(total - scale * np.eye(16)))
    assert bool(spread <= 1e-8 * scale) == (not drop_input)


def test_input_states_span_the_operator_space():
    kets, _ = _design_parts()
    gram = np.array([np.outer(k, k.conj()).reshape(-1) for k in kets])
    assert np.linalg.matrix_rank(gram) == 16
    assert np.linalg.matrix_rank(default_design().input_factor) == 16


def test_design_stores_only_its_factors():
    # the dense operator stack is built on access, not kept; the largest
    # array kept is the (32 x 36) real operand of traces' second stage
    sizes = [v.size for v in vars(default_design()).values()
             if isinstance(v, np.ndarray)]
    assert sizes and max(sizes) <= 32 * 36


def test_operators_are_the_kronecker_stack():
    kets, settings = _design_parts()
    reference = np.array([np.kron(np.outer(k, k.conj()).T, 4.0 * proj)
                          for k in kets for setting in settings
                          for proj in setting])
    assert np.array_equal(default_design().operators, reference)


def test_row_index_layout():
    design = default_design()
    assert design.row_index(0, 0, 0) == 0
    assert design.row_index(0, 0, 3) == 3
    assert design.row_index(0, 1, 0) == 4
    assert design.row_index(1, 0, 0) == 36
    assert design.row_index(35, 8, 3) == design.size - 1


def test_row_index_is_the_position_in_the_row_layout():
    design = default_design()
    layout = _row_layout(2, design)
    assert layout.shape == (2 * design.size, 4)
    assert np.array_equal(layout[:, 0], np.repeat([0, 1], design.size))
    rows = [design.row_index(i, s, o) for _, i, s, o in layout.tolist()]
    assert rows == list(range(design.size)) * 2


# --------------------------------------------------------- probabilities


def test_probabilities_sum_to_one_for_unitary_channel():
    design = default_design()
    chi = choi_from_kraus([cu_phase(0.7)])
    p = design.probabilities(chi).reshape(36, 9, 4)
    assert np.all(p >= 0.0)
    assert np.max(np.abs(p.sum(axis=2) - 1.0)) < 1e-12


def test_probability_deficit_matches_postselection_loss():
    # summed over the (uniform) input set, every setting sees the same
    # total: n_inputs times the channel trace
    design = default_design()
    channel = choi_from_kraus(
        replication_experiment_channel(1.1, OpticsParams.measured()))
    p = design.probabilities(channel).reshape(36, 9, 4)
    per_setting = p.sum(axis=(0, 2))
    assert np.max(np.abs(per_setting - 36.0 * channel.trace)) < 1e-10


def test_factored_kernels_match_the_dense_matrix(rng):
    design = default_design()
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    chi = g + g.conj().T
    weights = rng.exponential(size=design.size)
    weights[rng.random(design.size) < 0.5] = 0.0

    dense = _dense_matrix(design)
    p_dense = (dense @ chi.reshape(-1)).real
    p = design.traces(chi)
    assert p.shape == (design.size,)
    assert np.max(np.abs(p - p_dense)) <= 1e-13 * np.max(np.abs(p_dense))

    r_dense = (weights @ dense).reshape(16, 16).T
    r = design.weighted_sum(weights)
    assert np.max(np.abs(r - r_dense)) <= 1e-13 * np.max(np.abs(r_dense))

    # a leading batch axis stacks independent inputs; each result is the
    # one its input gets alone
    p_batch = design.traces(np.stack([2.0 * chi, chi]))
    r_batch = design.weighted_sum(np.stack([2.0 * weights, weights]))
    assert p_batch.shape == (2, design.size) and r_batch.shape == (2, 16, 16)
    assert np.array_equal(p_batch[1], p)
    assert np.array_equal(r_batch[1], r)


@pytest.mark.parametrize("params", [
    OpticsParams.ideal(), OpticsParams.measured(),
    dataclasses.replace(OpticsParams.measured(), phase_jitter_sigma=0.65),
], ids=["ideal", "measured", "measured-sigma-0.65"])
def test_probabilities_match_the_dense_reference(params):
    # through the factored traces, rounding residue of an exact zero
    # snapped to 0.0: exact zeros where the dense reference is <= 1e-12,
    # and rounding-level agreement everywhere else
    design = default_design()
    dense = _dense_matrix(design)
    for phi in standard_phases():
        channel = choi_from_kraus(replication_experiment_channel(phi, params))
        reference = (dense @ channel.matrix.reshape(-1)).real
        p = design.probabilities(channel)
        assert np.max(np.abs(p - reference)) <= 1e-15
        assert np.all(p[reference <= 1e-12] == 0.0)
        assert np.all(p[reference > 1e-12] > 0.0)


def test_probabilities_keep_the_leading_axes_of_a_kraus_array():
    # each row is bit for bit the probabilities of its process matrix
    design = default_design()
    channels = replication_experiment_channel(
        np.array([0.0, 0.4, 1.1, 2.9, 4.0, 6.0]),
        OpticsParams.measured(phase_jitter_sigma=0.65)).reshape(2, 3, 6, 4, 4)
    p = design.probabilities(channels)
    assert p.shape == (2, 3, design.size)
    for index in np.ndindex(2, 3):
        alone = design.probabilities(choi_from_kraus(channels[index]))
        assert p[index].tobytes() == alone.tobytes()


def test_probabilities_reject_single_qubit_channels():
    design = default_design()
    chi = choi_from_kraus([phase_gate(0.3)])
    with pytest.raises(ValueError, match="two-qubit"):
        design.probabilities(chi)


def test_probabilities_reject_a_wide_kraus_array_before_building_chi():
    # the chi of this 10-qubit operator would take 16 TiB
    with pytest.raises(ValueError, match="two-qubit"):
        default_design().probabilities(np.zeros((1, 1024, 1024)))


@pytest.mark.parametrize("channels", [
    lambda phases: cu_phase(phases)[:, None],
    lambda phases: replication_experiment_channel(
        phases, dataclasses.replace(OpticsParams.ideal(),
                                    phase_jitter_sigma=0.65)),
    lambda phases: replication_experiment_channel(
        phases, dataclasses.replace(OpticsParams.measured(), visibility=0.0)),
], ids=["one-operator", "ideal-sigma-0.65", "measured-visibility-0"])
def test_probabilities_equal_the_traces_of_each_process_matrix(channels):
    # byte for byte, rows with zero-weight sectors included
    design = default_design()
    kraus = channels(np.array(standard_phases()))
    p = design.probabilities(kraus)
    for row, k in zip(p, kraus):
        alone = design.traces(choi_from_kraus(k).matrix)
        assert row.tobytes() == np.where(alone > 1e-12, alone, 0.0).tobytes()


# ---------------------------------------------------------------- counts


def test_dataset_validation():
    n = default_design().size
    with pytest.raises(ValueError, match=">= 0"):
        TomographyDataset(0.0, -np.ones(n), 10.0)
    with pytest.raises(ValueError, match="finite"):
        TomographyDataset(0.0, np.full(n, np.nan), 10.0)
    with pytest.raises(ValueError, match="1-D"):
        TomographyDataset(0.0, np.zeros((2, n)), 10.0)
    ds = TomographyDataset(0.5, np.ones(n), 10.0)
    assert ds.total == pytest.approx(float(n))
    with pytest.raises(ValueError):
        ds.counts[0] = 3.0  # frozen


@pytest.mark.parametrize("phase, rate, field", [
    (math.inf, -1, "phase"),
    (math.nan, 1.0, "phase"),
    (True, 1.0, "phase"),
    ("0.5", 1.0, "phase"),
    (0.0, math.inf, "rate"),
    (0.0, math.nan, "rate"),
    (0.0, -3, "rate"),
    (0.0, 0.0, "rate"),
    (0.0, True, "rate"),
    (0.0, "x", "rate"),
    ([0.3, 0.4], 1.0, "phase"),
    (np.array([[0.3]]), 1.0, "phase"),
])
def test_dataset_rejects_a_bad_phase_or_rate(phase, rate, field):
    # the phase rule names the bad entry or the shape, the rate's
    # real-number rule its bounds
    message = {"phase": "^phase ([^ ]+ is not (finite|a real number)$"
                        "|must be one phase, got shape)",
               "rate": "^rate must be a finite"}[field]
    with pytest.raises(ValueError, match=message):
        TomographyDataset(phase, np.ones(3), rate)


def test_expected_counts_are_rate_times_probabilities():
    design = default_design()
    chi = choi_from_kraus([cu_phase(1.3)])
    ds = expected_counts(chi, design, 500.0, phase=1.3)
    assert ds.phase == 1.3
    assert ds.rate == 500.0
    np.testing.assert_allclose(ds.counts, 500.0 * design.probabilities(chi))
    # rejected up front: no RuntimeWarning (inf * 0) on the way
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^rate must be a finite"):
            expected_counts(chi, design, rate)


def test_simulated_counts_are_seed_deterministic():
    design = default_design()
    chi = choi_from_kraus([cu_phase(0.9)])
    a = simulate_counts(chi, design, 200.0, 7)
    b = simulate_counts(chi, design, 200.0, 7)
    c = simulate_counts(chi, design, 200.0, 8)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert np.all(a.counts == np.round(a.counts))
    # rejected up front, not by numpy's Poisson sampler
    for rate in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^rate must be a finite"):
            simulate_counts(chi, design, rate, 7)


def test_simulated_counts_reject_a_mean_beyond_numpy_poisson():
    design = default_design()
    chi = choi_from_kraus([cu_phase(0.9)])
    largest = float(design.probabilities(chi).max())
    with pytest.raises(ValueError, match="^" + re.escape(
            f"rate 1e+300 gives a Poisson mean of {1e300 * largest!r}")):
        simulate_counts(chi, design, 1e300, 7)
    # the bound is numpy's own: just below it numpy draws, just above it
    # the check speaks first
    limit = tomo._POISSON_MEAN_MAX
    simulate_counts(chi, design, 0.9999 * limit / largest, 7)
    with pytest.raises(ValueError, match="Poisson mean"):
        simulate_counts(chi, design, 1.0001 * limit / largest, 7)


# ------------------------------------------------------------------- MLE


def test_dataset_size_must_match_design():
    design = default_design()
    with pytest.raises(ValueError, match="size"):
        mle_reconstruct(TomographyDataset(0.0, np.ones(10), 5.0), design)


def test_mle_recovers_noiseless_controlled_phase():
    design = default_design()
    target = cu_phase(math.pi / 2)
    ds = expected_counts(choi_from_kraus([target]), design, 1e4)
    result = mle_reconstruct(ds, design)
    assert result.converged
    assert process_fidelity(result.chi, target) > 0.9999
    chi = result.chi.matrix
    assert abs(np.trace(chi).real - 1.0) < 1e-10
    assert np.max(np.abs(chi - chi.conj().T)) < 1e-10
    assert np.linalg.eigvalsh(chi).min() > -1e-8


def test_mle_recovers_sampled_channel():
    design = default_design()
    target = cu_phase(math.pi / 2)
    ds = simulate_counts(choi_from_kraus([target]), design, 1e4, 42)
    result = mle_reconstruct(ds, design)
    assert result.converged
    assert process_fidelity(result.chi, target) > 0.999


def test_mle_loglikelihood_is_monotone():
    design = default_design()
    channel = replication_experiment_channel(0.8, OpticsParams.measured())
    ds = simulate_counts(channel, design, 2e3, 5)
    result = mle_reconstruct(ds, design)
    trace = result.ll_trace
    assert trace[-1] == result.log_likelihood
    gains = np.diff(trace)
    assert np.all(gains >= -1e-9 * (1.0 + np.abs(trace[:-1])))


def test_reconstruction_improves_with_rate():
    design = default_design()
    channel = choi_from_kraus(replication_experiment_channel(
        math.pi / 2, OpticsParams.measured()))
    truth = channel.matrix / channel.trace
    fids = []
    for k, rate in enumerate((1e3, 1e4, 1e5)):
        ds = simulate_counts(channel, design, rate, 11 + 100 * k)
        result = mle_reconstruct(ds, design)
        fids.append(_uhlmann(result.chi.matrix, truth))
    assert fids[0] < fids[1] < fids[2]


def test_zero_counts_return_the_flat_process():
    design = default_design()
    ds = TomographyDataset(0.0, np.zeros(design.size), 1.0)
    result = mle_reconstruct(ds, design)
    assert result.converged
    assert result.iterations == 0
    np.testing.assert_allclose(result.chi.matrix, np.eye(16) / 16.0)


def test_sparse_counts_still_reconstruct():
    design = default_design()
    channel = replication_experiment_channel(0.8, OpticsParams.measured())
    ds = simulate_counts(channel, design, 2.0, 0)
    assert 0.0 < ds.total < 100.0
    result = mle_reconstruct(ds, design)
    assert result.converged
    chi = result.chi.matrix
    assert abs(np.trace(chi).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(chi).min() > -1e-8


def _five_row_counts(design, seed):
    # counts on five rows only: the plain step lowers the likelihood and
    # the dilution fallback is taken
    rng = np.random.default_rng(seed)
    counts = np.zeros(design.size)
    counts[rng.choice(design.size, 5, replace=False)] = rng.integers(
        1, 1000, 5)
    return counts


def _dense_rrhor(dataset, design, max_iterations=5000, gain_tolerance=1e-10):
    """Reference plain RrhoR ascent with matvecs on the dense design
    matrix: (chi, converged, iterations, log-likelihood)."""
    counts = dataset.counts
    total = max(dataset.total, 1.0)
    active = counts > 0.0
    a_active = _dense_matrix(design)[active]
    n_active = counts[active]

    def probs(mat):
        return np.clip((a_active @ mat.reshape(-1)).real, 1e-300, None)

    def loglik(mat):
        return math.fsum((n_active * np.log(probs(mat))).tolist())

    chi = np.eye(16, dtype=np.complex128) / 16.0
    ll = loglik(chi)
    for iterations in range(1, max_iterations + 1):
        r = ((n_active / probs(chi)) @ a_active).reshape(16, 16).T
        r = 0.5 * (r + r.conj().T)
        step = r @ chi @ r
        step = 0.5 * (step + step.conj().T)
        step = step / np.trace(step).real
        ll_new = loglik(step)
        if ll_new < ll - 1e-9 * (1.0 + abs(ll)):
            eps = 1.0
            while eps > 1e-8:
                mixed = (np.eye(16) + eps * r / total) / (1.0 + eps)
                cand = mixed @ chi @ mixed.conj().T
                cand = 0.5 * (cand + cand.conj().T)
                cand = cand / np.trace(cand).real
                ll_cand = loglik(cand)
                if ll_cand >= ll - 1e-12 * (1.0 + abs(ll)):
                    step, ll_new = cand, ll_cand
                    break
                eps *= 0.5
            else:
                raise RuntimeError("dilution failed")
        gain = ll_new - ll
        chi, ll = step, ll_new
        if gain / total < gain_tolerance:
            return chi, True, iterations, ll
    return chi, False, max_iterations, ll


def _dense_cycles(dataset, design):
    """Reference of the solver's cycle with matvecs on the dense design
    matrix, on the square-root factor A of chi = A A^dagger: two RrhoR
    steps with the dilution fallback, the extrapolation, and one step
    from there kept only where it gains on the second.  Runs at most
    ``tomo.MAX_ITERATIONS`` cycles; returns (chi, converged, cycles,
    dilutions)."""
    counts = dataset.counts
    total = max(dataset.total, 1.0)
    active = counts > 0.0
    a_active = _dense_matrix(design)[active]
    n_active = counts[active]

    def probs(a):
        chi = a @ a.conj().T
        return np.clip((a_active @ chi.reshape(-1)).real, 1e-300, None)

    def loglik(a):
        return math.fsum((n_active * np.log(probs(a))).tolist())

    def weights(a):
        r = ((n_active / probs(a)) @ a_active).reshape(16, 16).T
        return 0.5 * (r + r.conj().T)

    def unit(a):
        return a / np.linalg.norm(a)

    def ascent(a, ll):
        r = weights(a)
        step = unit(r @ a)
        ll_new = loglik(step)
        if ll_new >= ll - 1e-9 * (1.0 + abs(ll)):
            return step, ll_new, 0
        eps = 1.0
        while eps > 1e-8:
            cand = unit((np.eye(16) + eps * r / total) @ a)
            ll_cand = loglik(cand)
            if ll_cand >= ll - 1e-12 * (1.0 + abs(ll)):
                return cand, ll_cand, 1
            eps *= 0.5
        raise RuntimeError("dilution failed")

    a = np.eye(16, dtype=np.complex128) / 4.0
    ll, dilutions = loglik(a), 0
    for cycles in range(1, tomo.MAX_ITERATIONS + 1):
        a1, ll1, d1 = ascent(a, ll)
        a2, ll2, d2 = ascent(a1, ll1)
        dilutions += d1 + d2
        r, v = a1 - a, a2 - 2.0 * a1 + a
        norm_v = np.linalg.norm(v)
        alpha = min(-np.linalg.norm(r) / norm_v, -1.0) if norm_v else -1.0
        ax = unit(a - 2.0 * alpha * r + alpha ** 2 * v)
        a3 = unit(weights(ax) @ ax)
        ll3 = loglik(a3)
        a_new, ll_new = (a3, ll3) if ll3 >= ll2 else (a2, ll2)
        gain = ll_new - ll
        a, ll = a_new, ll_new
        if gain / total < tomo.GAIN_TOLERANCE:
            return a @ a.conj().T, True, cycles, dilutions
    return a @ a.conj().T, False, tomo.MAX_ITERATIONS, dilutions


_DENSE_CASES = pytest.mark.parametrize(
    "rate,seed", [(1e3, 3), (1e4, 4), (1e5, 5), (20.0, 6), (None, 2)])


def _dense_case(design, rate, seed):
    """A dataset of the dense-reference tests: sampled counts at ``rate``,
    or, for rate None, counts on five rows only."""
    if rate is None:
        # the plain step lowers the likelihood: the dilution fallback
        ds = TomographyDataset(0.0, _five_row_counts(design, seed), 1.0)
    else:
        channel = replication_experiment_channel(0.8,
                                                 OpticsParams.measured())
        ds = simulate_counts(channel, design, rate, seed)
    if rate is None or rate < 100.0:
        # mostly empty rows: zero weights in the factored R
        assert np.mean(ds.counts == 0.0) > 0.5
    return ds


@_DENSE_CASES
def test_mle_matches_the_dense_reference(rate, seed, monkeypatch):
    # 30 cycles: the extrapolation amplifies rounding, so the factored and
    # dense chi drift apart over a full solve (up to about 4e-14 at cycle
    # 30, 5e-13 at 50 and 2e-8 at the end of a solve on these datasets)
    # and no fixed bound holds there
    monkeypatch.setattr(tomo, "MAX_ITERATIONS", 30)
    design = default_design()
    ds = _dense_case(design, rate, seed)
    chi, converged, cycles, dilutions = _dense_cycles(ds, design)
    result = mle_reconstruct(ds, design)
    assert result.iterations == cycles
    assert result.converged == converged
    assert result.dilutions == dilutions
    assert np.max(np.abs(result.chi.matrix - chi)) <= 1e-12
    if rate is None:
        assert dilutions >= 1


@_DENSE_CASES
def test_mle_ends_no_lower_than_plain_rrhor(rate, seed):
    design = default_design()
    ds = _dense_case(design, rate, seed)
    _, plain_converged, plain_iterations, plain_ll = _dense_rrhor(ds, design)
    result = mle_reconstruct(ds, design)
    if rate is None:
        # neither solver gets near the optimum of five counted rows, and
        # either may stop lower: a diagnostic, not a gate
        print(f"five rows, seed {seed}: log-likelihood "
              f"{result.log_likelihood - plain_ll:+.2e} over plain RrhoR, "
              f"{result.iterations} cycles against {plain_iterations} "
              f"iterations, gap {result.optimality_gap:.2e}")
        return
    assert result.converged and plain_converged
    assert result.log_likelihood >= plain_ll


def test_mle_respects_iteration_cap(monkeypatch):
    design = default_design()
    target = cu_phase(math.pi / 2)
    ds = expected_counts(choi_from_kraus([target]), design, 1e4)
    monkeypatch.setattr(tomo, "MAX_ITERATIONS", 3)
    result = mle_reconstruct(ds, design)
    assert not result.converged
    assert result.iterations == 3


def test_batched_solve_matches_single_solves(monkeypatch):
    design = default_design()
    channel = replication_experiment_channel(0.8, OpticsParams.measured())
    counts = [simulate_counts(channel, design, rate, seed).counts
              for rate, seed in ((1e3, 3), (1e4, 4), (1e5, 5))]
    counts += [_five_row_counts(design, 2), np.zeros(design.size)]
    capped = simulate_counts(channel, design, 1e4, 6).counts

    singles = [mle_reconstruct(TomographyDataset(0.0, c, 1.0), design)
               for c in counts]
    # the batch's arrays, one (chi, converged, dilutions, gap, ll_trace)
    # tuple a trial
    batch = list(zip(*_mle_batch(np.array(counts), design)))
    # the capped solve runs inside a mixed batch
    monkeypatch.setattr(tomo, "MAX_ITERATIONS", 3)
    singles.append(mle_reconstruct(TomographyDataset(0.0, capped, 1.0),
                                   design))
    batch.append(list(zip(*_mle_batch(
        np.array([counts[1], capped, counts[3]]), design)))[1])

    for alone, (chi, converged, dilutions, gap, trace) in zip(singles,
                                                              batch):
        assert np.array_equal(alone.chi.matrix, chi)
        assert alone.iterations == len(trace) - 1
        assert alone.converged == converged
        assert np.array_equal(alone.ll_trace, trace)
        assert alone.dilutions == dilutions
        assert alone.optimality_gap == gap
        # the count and the final value are read off the trace
        assert alone.iterations == len(alone.ll_trace) - 1
        assert alone.log_likelihood == alone.ll_trace[-1]
    assert [r.converged for r in singles] == [True] * 5 + [False]
    assert singles[3].dilutions >= 1
    assert singles[4].iterations == 0 and singles[4].optimality_gap == 0.0
    assert np.array_equal(singles[4].chi.matrix, np.eye(16) / 16.0)
    assert singles[5].iterations == 3


def test_a_short_batch_holds_no_history_sized_by_the_cap(monkeypatch):
    # 400 single-count trials converge after 2 iterations; a likelihood
    # history sized by the iteration cap would hold
    # (MAX_ITERATIONS + 1) x 400 doubles, 16 MB, on top of the working set
    design = default_design()
    trials = 400
    counts = np.zeros((trials, design.size))
    counts[np.arange(trials), 3 * np.arange(trials)] = 1.0
    _mle_batch(counts[:2], design)

    def traced_solve():
        tracemalloc.start()
        try:
            solved = _mle_batch(counts, design)
            return solved, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    history_bytes = 8 * (tomo.MAX_ITERATIONS + 1) * trials
    (_, converged, _, _, traces), peak = traced_solve()
    # the same solve with a cap it never reaches sets the working set
    monkeypatch.setattr(tomo, "MAX_ITERATIONS", 2)
    (_, _, _, _, capped), capped_peak = traced_solve()
    assert peak - capped_peak < history_bytes / 10
    assert converged.all()
    assert len(traces) == len(capped) == trials
    for trace, same in zip(traces, capped):
        # 2 iterations after the seed value
        assert len(trace) == 3
        assert not trace.flags.writeable
        assert np.array_equal(trace, same)


def test_optimality_gap_matches_the_dense_formula():
    design = default_design()
    channel = replication_experiment_channel(0.8, OpticsParams.measured())
    ds = simulate_counts(channel, design, 1e4, 4)
    result = mle_reconstruct(ds, design)
    assert result.converged and result.dilutions == 0
    assert 0.0 <= result.optimality_gap <= 1e-3

    active = ds.counts > 0.0
    ops = design.operators[active]
    n = ds.counts[active]
    p = np.einsum("ab,jba->j", result.chi.matrix, ops).real
    r = np.einsum("j,jab->ab", n / p, ops)
    r = 0.5 * (r + r.conj().T)
    gap = np.linalg.eigvalsh(r)[-1] / n.sum() - 1.0
    assert abs(result.optimality_gap - gap) <= 1e-10


# ------------------------------------------------------------ error bars


def test_monte_carlo_needs_at_least_two_trials():
    design = default_design()
    ds = expected_counts(choi_from_kraus([cu_phase(0.4)]), design, 100.0)
    for trials in (1, 2.5, 2.0, True):
        with pytest.raises(ValueError, match="at least 2"):
            monte_carlo_errors(ds, design, trials, {"cu": cu_phase(0.4)},
                               seed=0)


def test_monte_carlo_accepts_numpy_integer_trials():
    design = default_design()
    ds = expected_counts(choi_from_kraus([cu_phase(0.4)]), design, 100.0)
    targets = {"cu": cu_phase(0.4)}
    assert (monte_carlo_errors(ds, design, np.int64(2), targets, seed=0)
            == monte_carlo_errors(ds, design, 2, targets, seed=0))


def test_monte_carlo_is_seed_deterministic():
    design = default_design()
    phi = 0.8
    channel = replication_experiment_channel(phi, OpticsParams.measured())
    ds = simulate_counts(channel, design, 500.0, 1)
    targets = {"cu": cu_phase(phi), "uu": kron(phase_gate(phi),
                                               phase_gate(phi))}
    a = monte_carlo_errors(ds, design, 3, targets, seed=9)
    b = monte_carlo_errors(ds, design, 3, targets, seed=9)
    assert set(a) == {"cu", "uu"}
    for name in a:
        assert a[name].mean == b[name].mean
        assert a[name].std == b[name].std
        assert 0.0 <= a[name].mean <= 1.0
        assert a[name].std >= 0.0


def test_bootstrap_of_sparse_counts_has_empty_resamples():
    design = default_design()
    counts = np.zeros(design.size)
    counts[[5, 400]] = 1.0
    ds = TomographyDataset(0.3, counts, 1.0)
    targets = {"cu": cu_phase(0.3)}
    # each resample is empty with probability e^-2, two of these 16 are
    trials, seed = 16, 4
    # the resamples monte_carlo_errors draws: one spawned stream each
    resampled = np.array([
        np.random.default_rng(s).poisson(counts)
        for s in np.random.SeedSequence(seed).spawn(trials)], dtype=float)
    empty = resampled.sum(axis=1) == 0.0
    assert 0 < empty.sum() < trials

    chi, converged, _, _, traces = _mle_batch(resampled, design)
    assert converged.all()
    for k in np.flatnonzero(empty):
        assert len(traces[k]) == 1
        assert np.array_equal(chi[k], np.eye(16) / 16.0)
    stats = monte_carlo_errors(ds, design, trials, targets, seed)
    fids = [process_fidelity(ProcessMatrix(c, 2), targets["cu"])
            for c in chi]
    assert stats["cu"].mean == float(np.mean(fids))
    assert stats["cu"].std == float(np.std(fids, ddof=1))
    assert math.isfinite(stats["cu"].mean) and math.isfinite(stats["cu"].std)


# ------------------------------------------------------------------- fit


def test_fit_cosine_recovers_exact_coefficients():
    phases = standard_phases()
    values = [0.625 + 0.375 * math.cos(p) for p in phases]
    fit = fit_cosine(phases, values)
    assert fit.offset == pytest.approx(0.625, abs=1e-12)
    assert fit.amplitude == pytest.approx(0.375, abs=1e-12)
    assert fit.residual_rms < 1e-12


def test_fit_offset_is_the_period_average_on_the_standard_grid():
    # the grid covers [0, 7pi/8] only, so plain means are biased upward;
    # the fit offset recovers the full-period averages 1/2 and 5/8
    phases = standard_phases()
    for curve, period_average, grid_mean in (
            (baseline_single_copy, 1.0 / 2.0, 9.0 / 16.0),
            (fidelity_replicas, 5.0 / 8.0, 43.0 / 64.0)):
        values = [curve(p) for p in phases]
        assert np.mean(values) == pytest.approx(grid_mean, abs=1e-12)
        assert fit_cosine(phases, values).offset == pytest.approx(
            period_average, abs=1e-12)


def test_fit_cosine_on_constant_data_has_zero_amplitude():
    fit = fit_cosine([0.0, 1.0, 2.0], [0.7, 0.7, 0.7])
    assert isinstance(fit, FitResult)
    assert fit.offset == pytest.approx(0.7, abs=1e-12)
    assert fit.amplitude == pytest.approx(0.0, abs=1e-12)


def test_fit_cosine_input_validation():
    with pytest.raises(ValueError, match="of length 2"):
        fit_cosine([0.0, 1.0], [0.5])
    with pytest.raises(ValueError, match="distinct"):
        fit_cosine([0.4, 0.4, 0.4], [0.5, 0.5, 0.5])


@pytest.mark.parametrize("second, fits", [
    (0.5 + 1e-13, False), (0.5 + 2.0 * math.pi, False), (0.5 + 1e-11, False),
    (2.0 * math.pi - 0.5, False), (0.5 + 1e-6, True),
], ids=["1e-13-apart", "a-period-apart", "1e-11-apart", "mirrored",
        "1e-6-apart"])
def test_fit_and_pipeline_share_the_distinct_phase_rule(second, fits):
    # a design [1, cos phi] whose condition number exceeds 1e8 does not
    # identify the fit: equal phases after wrapping, equal cosines
    # (mirrored about pi) and cosines 5e-12 apart (1e-11 rad at 0.5).
    # fit_cosine refuses it, and the pipeline reports no fit
    phases = [0.5, second]
    report = experiment_pipeline(OpticsParams.ideal(), phases=phases,
                                 rate=10.0, seed=1)
    assert (report.fit is not None) is fits
    if fits:
        assert isinstance(fit_cosine(phases, [0.5, 0.6]), FitResult)
    else:
        with pytest.raises(ValueError, match="distinct"):
            fit_cosine(phases, [0.5, 0.6])


@pytest.mark.parametrize("phases, values", [
    ([0.0, math.inf, 2.0], [0.5, 0.6, 0.7]),
    ([0.0, math.nan, 2.0], [0.5, 0.6, 0.7]),
    ([0.0, 1.0, 2.0], [0.5, math.inf, 0.7]),
    ([0.0, 1.0, 2.0], [0.5, math.nan, 0.7]),
])
def test_fit_cosine_rejects_non_finite_inputs(phases, values, capfd):
    # before lstsq, whose LAPACK call would print to stderr on inf
    with pytest.raises(ValueError, match="finite"):
        fit_cosine(phases, values)
    assert capfd.readouterr().err == ""


# -------------------------------------------------------------- pipeline


def test_standard_phases_are_eighths_of_pi():
    phases = standard_phases()
    assert len(phases) == 8
    np.testing.assert_allclose(phases,
                               [k * math.pi / 8.0 for k in range(8)])


def test_pipeline_is_deterministic():
    kwargs = dict(phases=[0.0, math.pi / 2], rate=300.0, seed=7)
    a = experiment_pipeline(OpticsParams.measured(), **kwargs)
    b = experiment_pipeline(OpticsParams.measured(), **kwargs)
    assert a.phases == b.phases
    for x, y in zip(a.rows, b.rows):
        assert np.array_equal(x.dataset.counts, y.dataset.counts)
        assert x.f_cu == y.f_cu
        assert x.f_uu == y.f_uu
    assert a.fit.offset == b.fit.offset
    assert a.fit.amplitude == b.fit.amplitude


def test_pipeline_rows_carry_reference_processes():
    report = experiment_pipeline(OpticsParams.measured(),
                                 phases=[0.0, math.pi / 2], rate=300.0,
                                 seed=7)
    assert report.rate == 300.0 and report.trials == 0 and report.seed == 7
    for row in report.rows:
        ideal = choi_from_kraus([cu_phase(row.phi)])
        assert np.max(np.abs(row.chi_ideal.matrix - ideal.matrix)) < 1e-12
        assert math.isnan(row.f_cu_std) and math.isnan(row.f_uu_std)
        assert row.converged


def test_pipeline_single_phase_skips_the_fit():
    report = experiment_pipeline(OpticsParams.ideal(),
                                 phases=[math.pi / 2], rate=5e4, seed=3)
    assert report.fit is None
    assert report.rows[0].f_cu > 0.999


def test_pipeline_adds_error_bars_when_asked():
    report = experiment_pipeline(OpticsParams.measured(),
                                 phases=[0.0, math.pi / 4], rate=300.0,
                                 seed=2, trials=2)
    for row in report.rows:
        assert math.isfinite(row.f_cu_std) and row.f_cu_std >= 0.0
        assert math.isfinite(row.f_uu_std) and row.f_uu_std >= 0.0


@pytest.mark.parametrize("trials", [1, -3, 2.5, 2.0, False, 2 ** 70])
def test_pipeline_rejects_trials_other_than_0_or_at_least_2(trials):
    with pytest.raises(ValueError, match="trials"):
        experiment_pipeline(OpticsParams.ideal(), phases=[0.5], rate=10.0,
                            trials=trials)


def _forbid_the_optical_build(monkeypatch):
    def build(*args):
        raise AssertionError("the optical build ran")

    monkeypatch.setattr(tomo, "_experiment_channel", build)


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_pipeline_rejects_a_non_finite_phase(phi, monkeypatch):
    # a ValueError naming the phase, raised before the optical build,
    # not the RuntimeWarning of a modulo on inf (the test settings turn
    # warnings into errors)
    _forbid_the_optical_build(monkeypatch)
    with pytest.raises(ValueError, match=f"^phases {phi!r} is not finite"):
        experiment_pipeline(OpticsParams.measured(), phases=[0.5, phi],
                            rate=10.0)


def test_pipeline_rejects_an_empty_phase_list(monkeypatch):
    _forbid_the_optical_build(monkeypatch)
    with pytest.raises(ValueError, match="non-empty 1-D list"):
        experiment_pipeline(OpticsParams.measured(), phases=[], rate=10.0)


@pytest.mark.parametrize("seed", [True, -1, 2.5, math.nan, math.inf, 1e300,
                                  "3", None])
def test_a_seed_is_a_non_negative_integer(seed, monkeypatch):
    # checked before anything is built: neither taken as 1 (a bool) nor
    # left to a TypeError inside SeedSequence
    _forbid_the_optical_build(monkeypatch)
    with pytest.raises(ValueError, match="seed"):
        experiment_pipeline(OpticsParams.measured(), phases=[0.5],
                            rate=10.0, seed=seed)
    design = default_design()
    monkeypatch.setattr(design, "_probabilities", None)
    with pytest.raises(ValueError, match="seed"):
        simulate_counts(cu_phase(0.3)[None], design, 10.0, seed)


def test_a_seed_sequence_is_a_pipeline_seed():
    # the run's streams spawn from it; the report keeps its entropy
    report = experiment_pipeline(OpticsParams.ideal(), phases=[0.5],
                                 rate=10.0, seed=np.int64(7))
    again = experiment_pipeline(OpticsParams.ideal(), phases=[0.5],
                                rate=10.0, seed=np.random.SeedSequence(7))
    assert type(report.seed) is int and report.seed == again.seed == 7
    assert np.array_equal(report.rows[0].dataset.counts,
                          again.rows[0].dataset.counts)


def test_pipeline_matches_per_phase_solves_and_bootstraps():
    params = OpticsParams.measured()
    phases = [0.0, math.pi / 4, math.pi / 2]
    design = default_design()
    # at the sparse rate a phase's batch mixes empty resamples (converged
    # after 0 iterations) with live ones, and another phase's is all empty
    for rate, seed in ((1e3, 11), (0.02, 2)):
        report = experiment_pipeline(params, phases=phases, rate=rate,
                                     trials=3, seed=seed)
        streams = np.random.SeedSequence(seed).spawn(len(phases))
        empty = 0
        for phi, stream, row in zip(phases, streams, report.rows):
            count_stream, mc_stream = stream.spawn(2)
            ds = simulate_counts(replication_experiment_channel(phi, params),
                                 design, rate, count_stream, phase=phi)
            # drawn from a copy, so that mc_stream spawns them again below
            empty += np.sum(tomo._resample(
                ds.counts, 3, copy.deepcopy(mc_stream)).sum(axis=1) == 0)
            result = mle_reconstruct(ds, design)
            u = phase_gate(phi)
            targets = {"cu": cu_phase(phi), "uu": kron(u, u)}
            stats = monte_carlo_errors(ds, design, 3, targets, mc_stream)
            assert np.array_equal(row.dataset.counts, ds.counts)
            assert np.array_equal(row.chi.matrix, result.chi.matrix)
            assert row.iterations == result.iterations
            assert row.converged == result.converged
            assert row.optimality_gap == result.optimality_gap
            assert row.f_cu == process_fidelity(result.chi, targets["cu"])
            assert row.f_uu == process_fidelity(result.chi, targets["uu"])
            assert row.f_cu_std == stats["cu"].std
            assert row.f_uu_std == stats["uu"].std
        if rate < 1.0:
            assert 0 < empty < 3 * len(phases)


def test_pipeline_counts_equal_simulate_counts_phase_by_phase():
    # the probabilities of all phases come from one traces call; each
    # phase's row and counts are those of its Kraus array on its own
    params = OpticsParams.measured()
    phases = standard_phases()
    design = default_design()
    report = experiment_pipeline(params, rate=1e4, seed=21)
    channels = replication_experiment_channel(np.array(phases), params)
    stacked = design.probabilities(channels)
    streams = np.random.SeedSequence(21).spawn(len(phases))
    for k, (phi, channel, stream, row) in enumerate(
            zip(phases, channels, streams, report.rows)):
        alone = design.probabilities(channel)
        assert stacked[k].tobytes() == alone.tobytes()
        ds = simulate_counts(channel, design, 1e4, stream.spawn(2)[0],
                             phase=phi)
        assert row.dataset.counts.tobytes() == ds.counts.tobytes()
        assert (row.dataset.phase, row.dataset.rate) == (ds.phase, ds.rate)


def _one_chi_fidelity(chi, u):
    """The fidelity of one chi as it was computed per record, on 1-D
    vectors, as the reference of the stacked kernel."""
    v = choi_vector(u)
    f = np.real(v.conj() @ chi @ v) / float(np.trace(chi).real)
    return float(np.minimum(np.maximum(f, 0.0), 1.0))


def test_stacked_chi_fidelity_equals_process_fidelity_per_record():
    # the golden tomo settings: measured preset with jitter 0.65, rate
    # 2000, seed 5, 3 bootstrap trials
    seed, trials = 5, 3
    design = default_design()
    report = experiment_pipeline(
        OpticsParams.measured(phase_jitter_sigma=0.65), rate=2000.0,
        trials=trials, seed=seed)
    phases = np.array(report.phases)
    chi = np.array([row.chi.matrix for row in report.rows])
    u = phase_gate(phases)
    # a per-phase gate stack over the phases' estimates
    for gates in (cu_phase(phases), kron(u, u)):
        want = [process_fidelity(ProcessMatrix(c, 2), g)
                for c, g in zip(chi, gates)]
        assert want == [_one_chi_fidelity(c, g) for c, g in zip(chi, gates)]
        assert choi._chi_fidelity(chi, gates).tobytes() \
            == np.array(want).tobytes()
    # one gate over each phase's bootstrap stack, drawn as the pipeline
    # draws it: row 0 the estimate, rows 1..3 the resamples
    streams = np.random.SeedSequence(seed).spawn(len(phases))
    for phi, stream, row in zip(phases, streams, report.rows):
        counts = row.dataset.counts
        stack = _mle_batch(np.concatenate([counts[None], tomo._resample(
            counts, trials, stream.spawn(2)[1])]), design)[0]
        assert np.array_equal(stack[0], row.chi.matrix)
        gate = phase_gate(phi)
        for target, f, std in ((cu_phase(phi), row.f_cu, row.f_cu_std),
                               (kron(gate, gate), row.f_uu, row.f_uu_std)):
            want = [process_fidelity(ProcessMatrix(c, 2), target)
                    for c in stack]
            assert want == [_one_chi_fidelity(c, target) for c in stack]
            got = choi._chi_fidelity(stack, target)
            assert got.tobytes() == np.array(want).tobytes()
            assert f == want[0]
            assert std == float(np.std(want[1:], ddof=1))


# ------------------------------------------------------------------- csv


def test_counts_csv_round_trip(tmp_path):
    design = default_design()
    chi = choi_from_kraus([cu_phase(0.6)])
    noisy = simulate_counts(chi, design, 150.0, 3, phase=0.6)
    exact = expected_counts(chi, design, 150.0, phase=1.2)  # float counts
    path = tmp_path / "counts.csv"
    write_datasets_csv(path, [noisy, exact], design,
                       header_lines=["# run: round-trip check"])
    text = path.read_text()
    assert text.startswith("# run: round-trip check\n")
    back = read_datasets_csv(path, design)
    assert len(back) == 2
    for original, loaded in zip([noisy, exact], back):
        assert loaded.phase == original.phase
        assert loaded.rate == original.rate
        assert np.array_equal(loaded.counts, original.counts)


def _per_row_counts_csv(datasets, design, header_lines=()):
    """The counts file as the per-row f-string writer made it, the
    reference for ``write_datasets_csv``."""
    counts = [c for ds in datasets for c in ds.counts.tolist()]
    lines = [line.rstrip("\n") + "\n" for line in header_lines] + [
        "# phase_values: " + json.dumps([d.phase for d in datasets]) + "\n",
        "# rates: " + json.dumps([d.rate for d in datasets]) + "\n",
        "phase_id,input_id,setting_id,outcome_id,count\n",
    ] + [f"{p},{i},{s},{o},{int(c) if c == int(c) else repr(c)}\n"
         for (p, i, s, o), c in zip(
             _row_layout(len(datasets), design).tolist(), counts)]
    return "".join(lines)


@pytest.mark.parametrize("n_phases", [1, 3])
@pytest.mark.parametrize("special", [
    None, 0.0, -0.0, 1.0, 2.0 ** 53, 2.0 ** 53 + 2, 1e19, 1e300, 37.25])
def test_counts_csv_matches_the_per_row_writer(tmp_path, n_phases, special):
    design = default_design()
    rng = np.random.default_rng(n_phases)
    datasets = []
    for k in range(n_phases):
        counts = rng.poisson(40.0, design.size).astype(np.float64)
        if special is not None and k == n_phases - 1:
            counts[rng.choice(design.size, 7, replace=False)] = special
        datasets.append(TomographyDataset(0.3 * k, counts, 40.0 + k))
    header = ["# run: oracle", "# seed: 5\n"]
    path = tmp_path / "counts.csv"
    write_datasets_csv(path, datasets, design, header_lines=header)
    expected = _per_row_counts_csv(datasets, design, header)
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("size", [1301, 1291])
def test_writer_rejects_a_dataset_of_the_wrong_size(tmp_path, size):
    design = default_design()
    datasets = [TomographyDataset(0.0, np.ones(design.size), 1.0),
                TomographyDataset(0.5, np.ones(size), 1.0)]
    path = tmp_path / "counts.csv"
    with pytest.raises(ValueError, match=f"phase id 1 has {size} counts, "
                                         f"the design {design.size} rows"):
        write_datasets_csv(path, datasets, design)
    assert not path.exists()


def _corrupted_counts_csv(tmp_path, edit):
    """Write a two-phase counts file, pass its lines through ``edit``,
    and return the edited file's path."""
    design = default_design()
    chi = choi_from_kraus([cu_phase(0.6)])
    datasets = [simulate_counts(chi, design, 150.0, 3, phase=0.6),
                expected_counts(chi, design, 150.0, phase=1.2)]
    path = tmp_path / "counts.csv"
    write_datasets_csv(path, datasets, design)
    lines = edit(path.read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")
    return path


def _header(header):
    """An edit that puts ``header`` in place of the line it replaces."""
    key = header.split(":")[0] + ":"
    return lambda lines: [header if ln.startswith(key) else ln
                          for ln in lines]


def _count_at_line_11(text):
    """An edit that puts ``text`` in place of line 11's count."""
    return lambda lines: lines[:10] + [
        lines[10].rsplit(",", 1)[0] + "," + text] + lines[11:]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1], "design rows"),
    (lambda lines: lines + [lines[-1].rsplit(",", 1)[0] + ",99"],
     "design rows"),
    (lambda lines: lines[:-2] + [lines[-1], lines[-2]], "design rows"),
    (lambda lines: [ln for ln in lines if not ln.startswith("# ")],
     "header"),
    (lambda lines: [ln for ln in lines if not ln.startswith("# rates:")],
     "header"),
    (lambda lines: [ln.replace("[0.6, 1.2]", "[0.6]") for ln in lines],
     "header"),
    # a header entry that breaks its field's rule is named by the
    # header's line: the phases' is line 1, the rates' line 2
    (_header('# rates: ["x", 150.0]'),
     "^counts file line 2: rate must be a finite number > 0, not 'x'$"),
    (_header("# rates: [-3, 150.0]"),
     "^counts file line 2: rate must be a finite number > 0, not -3$"),
    (_header("# rates: [0, 150.0]"),
     "^counts file line 2: rate must be a finite number > 0, not 0$"),
    (_header("# rates: [true, 150.0]"),
     "^counts file line 2: rate must be a finite number > 0, not True$"),
    (_header("# rates: [Infinity, 150.0]"),
     "^counts file line 2: rate must be a finite number > 0, not inf$"),
    (_header("# phase_values: [NaN, 1.2]"),
     "^counts file line 1: phase nan is not finite$"),
    (_header('# phase_values: ["0.6", 1.2]'),
     "^counts file line 1: phase '0.6' is not a real number$"),
    (_header("# phase_values: [false, 1.2]"),
     "^counts file line 1: phase False is not a real number$"),
    (_header("# phase_values: [[0.3, 0.4], 1.2]"),
     r"^counts file line 1: phase must be one phase, got shape \(2,\)$"),
    (_header("# phase_values: 3"), "header"),
    (_header("# rates: 150.0"), "header"),
    # a row of the wrong width is named by its 1-based line number: the
    # 11th, or the blank line after both phases' rows and the 3 headers
    (lambda lines: lines[:10] + [lines[10] + ",7"] + lines[11:],
     "^counts file line 11: a data row needs 5 comma-separated cells, "
     "got 6$"),
    (lambda lines: lines[:10] + [lines[10].rsplit(",", 1)[0]] + lines[11:],
     "^counts file line 11: a data row needs 5 comma-separated cells, "
     "got 4$"),
    (lambda lines: lines + [""],
     f"^counts file line {2 * default_design().size + 4}: a data row "
     "needs 5 comma-separated cells, got 1$"),
    # a header that is not JSON, a count that is not a number and a
    # second header are named by their line too, not by a position in
    # the JSON text or by numpy's conversion
    (_header("# rates: [50.0"),
     r"^counts file line 2: the '# rates:' header is not JSON \("),
    (lambda lines: lines[:10] + ["0,1,2,3,0x10"] + lines[11:],
     "^counts file line 11: a data row needs 5 numbers, "
     "got '0,1,2,3,0x10'$"),
    (lambda lines: lines[:10] + ["0,1,2,3,"] + lines[11:],
     "^counts file line 11: a data row needs 5 numbers, got '0,1,2,3,'$"),
    (lambda lines: lines[:2] + ["# rates: [70.0, 70.0]"] + lines[2:],
     "^counts file line 3: a second '# rates:' header$"),
    # a count the dataset's rule refuses is named by its line too
    (_count_at_line_11("nan"),
     "^counts file line 11: counts entry nan is not finite$"),
    (_count_at_line_11("inf"),
     "^counts file line 11: counts entry inf is not finite$"),
    (_count_at_line_11("-1"),
     "^counts file line 11: counts entry must be a finite number >= 0, "
     "not -1.0$"),
], ids=["truncated", "duplicated", "reordered", "header-less",
        "rates-missing", "phase-count-short", "rate-string", "rate-negative",
        "rate-zero", "rate-boolean", "rate-infinite", "phase-nan",
        "phase-string", "phase-boolean", "phase-nested",
        "phase-values-scalar", "rates-scalar", "extra-cell", "missing-cell",
        "trailing-blank-line", "bad-header-json", "non-numeric-count",
        "empty-count", "repeated-header", "nan-count", "inf-count",
        "negative-count"])
def test_corrupt_counts_csv_is_rejected(tmp_path, edit, message):
    path = _corrupted_counts_csv(tmp_path, edit)
    with pytest.raises(ValueError, match=message):
        read_datasets_csv(path, default_design())


# ---------------------------------------------------------- design rule


_DESIGN_CALLS = {
    "simulate_counts": lambda design, path: simulate_counts(
        cu_phase(0.3)[None], design, 10.0, 1),
    "mle_reconstruct": lambda design, path: mle_reconstruct(
        TomographyDataset(0.3, np.ones(1296), 10.0), design),
    "monte_carlo_errors": lambda design, path: monte_carlo_errors(
        TomographyDataset(0.3, np.ones(1296), 10.0), design, 2,
        {"cu": cu_phase(0.3)}, 1),
    "write_datasets_csv": lambda design, path: write_datasets_csv(
        path, [TomographyDataset(0.3, np.ones(1296), 10.0)], design),
    "read_datasets_csv": lambda design, path: read_datasets_csv(
        path, design),
}


@pytest.mark.parametrize("value", [None, True, "default_design"],
                         ids=["none", "bool", "string"])
@pytest.mark.parametrize("name", sorted(_DESIGN_CALLS))
def test_design_follows_the_record_rule(name, value, tmp_path, monkeypatch):
    # the rule runs before any work: no probabilities, no solve, no
    # resamples, and no file is read or written
    def unreachable(*args, **kwargs):
        raise AssertionError("work began before the design was checked")

    for helper in ("_draw_counts", "_mle_batch", "_resample"):
        monkeypatch.setattr(tomo, helper, unreachable)
    path = tmp_path / "counts.csv"
    with pytest.raises(ValueError,
                       match="design must be one TomographyDesign"):
        _DESIGN_CALLS[name](value, path)
    assert not path.exists()
