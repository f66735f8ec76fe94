"""Tomography design, likelihood ascent, error bars, and the pipeline."""
import dataclasses
import math

import numpy as np
import pytest

from phaserep import (
    FitResult,
    MleOptions,
    OpticsParams,
    TomographyDataset,
    baseline_single_copy,
    choi_from_kraus,
    cu_phase,
    default_design,
    expected_counts,
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
from phaserep.qmat import PROJECTOR_KETS
from phaserep.tomo import (
    MEASUREMENT_BASES,
    SINGLE_QUBIT_STATES,
    TomographyDesign,
    _mle_batch,
)


def _copy_design_parts(design):
    return list(design.input_kets), [[p for p in s] for s in design.settings]


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
    design = default_design()
    assert design.rank == 256
    assert design.identifiable
    assert design.uniform
    # sum of the 6 single-qubit kets' projectors is 3*I, squared over the
    # pair and times d * n_settings: 4 * 9 * 9 = 324
    assert design.operator_sum_scale == pytest.approx(324.0, abs=1e-9)


def test_rank_from_factors_matches_the_dense_matrix():
    # the full, one-input-dropped and single-setting (rank-deficient)
    # designs, against an SVD of the dense matrix
    kets, settings = _copy_design_parts(default_design())
    designs = [default_design(), TomographyDesign(kets[1:], settings),
               TomographyDesign(kets, settings[:1])]
    for design in designs:
        assert design.rank == np.linalg.matrix_rank(_dense_matrix(design))
    assert [d.rank for d in designs] == [256, 256, 64]
    assert not designs[2].identifiable


def test_input_states_span_the_operator_space():
    design = default_design()
    gram = np.array([np.outer(k, k.conj()).reshape(-1)
                     for k in design.input_kets])
    assert np.linalg.matrix_rank(gram) == 16


def test_row_index_layout():
    design = default_design()
    assert design.row_index(0, 0, 0) == 0
    assert design.row_index(0, 0, 3) == 3
    assert design.row_index(0, 1, 0) == 4
    assert design.row_index(1, 0, 0) == 36
    assert design.row_index(35, 8, 3) == design.size - 1


def test_design_rejects_bad_inputs():
    design = default_design()
    kets, settings = _copy_design_parts(design)
    with pytest.raises(ValueError, match="normalized"):
        TomographyDesign([2.0 * kets[0]] + kets[1:], settings)
    broken = [list(s) for s in settings]
    broken[0] = broken[0][:3]
    with pytest.raises(ValueError, match="sum to identity"):
        TomographyDesign(kets, broken)


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
    channel = replication_experiment_channel(1.1, OpticsParams.measured())
    p = design.probabilities(channel).reshape(36, 9, 4)
    per_setting = p.sum(axis=(0, 2))
    assert np.max(np.abs(per_setting - 36.0 * channel.trace)) < 1e-10


@pytest.mark.parametrize("drop_input", [False, True])
def test_factored_kernels_match_the_dense_matrix(rng, drop_input):
    # the one-input-dropped design is not square (35 inputs x 36
    # outcomes), so a slip in the row order cannot cancel out
    design = default_design()
    if drop_input:
        kets, settings = _copy_design_parts(design)
        design = TomographyDesign(kets[:-1], settings)
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
        channel = replication_experiment_channel(phi, params)
        reference = (dense @ channel.matrix.reshape(-1)).real
        p = design.probabilities(channel)
        assert np.max(np.abs(p - reference)) <= 1e-15
        assert np.all(p[reference <= 1e-12] == 0.0)
        assert np.all(p[reference > 1e-12] > 0.0)


def test_probabilities_reject_single_qubit_channels():
    design = default_design()
    chi = choi_from_kraus([phase_gate(0.3)])
    with pytest.raises(ValueError, match="two-qubit"):
        design.probabilities(chi)


# ---------------------------------------------------------------- counts


def test_dataset_validation():
    n = default_design().size
    with pytest.raises(ValueError, match="non-negative"):
        TomographyDataset(0.0, -np.ones(n), 10.0)
    with pytest.raises(ValueError, match="finite"):
        TomographyDataset(0.0, np.full(n, np.nan), 10.0)
    with pytest.raises(ValueError, match="flat"):
        TomographyDataset(0.0, np.zeros((2, n)), 10.0)
    ds = TomographyDataset(0.5, np.ones(n), 10.0)
    assert ds.total == pytest.approx(float(n))
    with pytest.raises(ValueError):
        ds.counts[0] = 3.0  # frozen


def test_expected_counts_are_rate_times_probabilities():
    design = default_design()
    chi = choi_from_kraus([cu_phase(1.3)])
    ds = expected_counts(chi, design, 500.0, phase=1.3)
    assert ds.phase == 1.3
    assert ds.rate == 500.0
    np.testing.assert_allclose(ds.counts, 500.0 * design.probabilities(chi))
    with pytest.raises(ValueError, match="rate"):
        expected_counts(chi, design, 0.0)


def test_simulated_counts_are_seed_deterministic():
    design = default_design()
    chi = choi_from_kraus([cu_phase(0.9)])
    a = simulate_counts(chi, design, 200.0, 7)
    b = simulate_counts(chi, design, 200.0, 7)
    c = simulate_counts(chi, design, 200.0, 8)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert np.all(a.counts == np.round(a.counts))
    with pytest.raises(ValueError, match="rate"):
        simulate_counts(chi, design, -1.0, 7)


# ------------------------------------------------------------------- MLE


def test_unidentifiable_design_is_rejected():
    base = default_design()
    _, settings = _copy_design_parts(base)
    computational = [np.kron(PROJECTOR_KETS[a], PROJECTOR_KETS[b])
                     for a in "01" for b in "01"]
    design = TomographyDesign(computational, settings)
    assert design.uniform and not design.identifiable
    ds = expected_counts(choi_from_kraus([cu_phase(0.4)]), design, 100.0)
    with pytest.raises(ValueError, match="unidentifiable"):
        mle_reconstruct(ds, design)


def test_nonuniform_design_is_rejected():
    base = default_design()
    kets, settings = _copy_design_parts(base)
    design = TomographyDesign(kets[:-1], settings)  # drop one input
    assert design.identifiable and not design.uniform
    ds = expected_counts(choi_from_kraus([cu_phase(0.4)]), design, 100.0)
    with pytest.raises(ValueError, match="RrhoR"):
        mle_reconstruct(ds, design)


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
    channel = replication_experiment_channel(math.pi / 2,
                                             OpticsParams.measured())
    truth = channel.normalized().matrix
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


def _dense_rrhor(dataset, design, max_iterations=5000, gain_tolerance=1e-10):
    """Reference RrhoR ascent with matvecs on the dense design matrix."""
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
            return chi, True, iterations
    return chi, False, max_iterations


@pytest.mark.parametrize("rate,seed", [(1e3, 3), (1e4, 4), (1e5, 5),
                                       (20.0, 6), (None, 2)])
def test_mle_matches_the_dense_reference(rate, seed):
    design = default_design()
    if rate is None:
        # counts on five rows only: the plain step lowers the
        # likelihood and the dilution fallback is taken
        rng = np.random.default_rng(seed)
        counts = np.zeros(design.size)
        counts[rng.choice(design.size, 5, replace=False)] = rng.integers(
            1, 1000, 5)
        ds = TomographyDataset(0.0, counts, 1.0)
    else:
        channel = replication_experiment_channel(0.8,
                                                 OpticsParams.measured())
        ds = simulate_counts(channel, design, rate, seed)
    if rate is None or rate < 100.0:
        # mostly empty rows: zero weights in the factored R
        assert np.mean(ds.counts == 0.0) > 0.5
    chi, converged, iterations = _dense_rrhor(ds, design)
    result = mle_reconstruct(ds, design)
    assert result.iterations == iterations
    assert result.converged == converged
    assert np.max(np.abs(result.chi.matrix - chi)) <= 1e-12


def test_mle_respects_iteration_cap():
    design = default_design()
    target = cu_phase(math.pi / 2)
    ds = expected_counts(choi_from_kraus([target]), design, 1e4)
    result = mle_reconstruct(ds, design, MleOptions(max_iterations=3))
    assert not result.converged
    assert result.iterations == 3


def _five_row_counts(design, seed):
    # counts on five rows only: the plain step lowers the likelihood and
    # the dilution fallback is taken
    rng = np.random.default_rng(seed)
    counts = np.zeros(design.size)
    counts[rng.choice(design.size, 5, replace=False)] = rng.integers(
        1, 1000, 5)
    return counts


def test_batched_solve_matches_single_solves():
    design = default_design()
    channel = replication_experiment_channel(0.8, OpticsParams.measured())
    counts = [simulate_counts(channel, design, rate, seed).counts
              for rate, seed in ((1e3, 3), (1e4, 4), (1e5, 5))]
    counts += [_five_row_counts(design, 2), np.zeros(design.size)]
    capped = simulate_counts(channel, design, 1e4, 6).counts
    options = MleOptions(max_iterations=3)

    singles = [mle_reconstruct(TomographyDataset(0.0, c, 1.0), design)
               for c in counts]
    singles.append(mle_reconstruct(TomographyDataset(0.0, capped, 1.0),
                                   design, options))
    batch = _mle_batch(np.array(counts), design, MleOptions())
    # the capped solve runs with its own options, inside a mixed batch
    batch.append(_mle_batch(np.array([counts[1], capped, counts[3]]),
                            design, options)[1])

    for alone, stacked in zip(singles, batch):
        assert np.array_equal(alone.chi.matrix, stacked.chi.matrix)
        assert alone.iterations == stacked.iterations
        assert alone.converged == stacked.converged
        assert np.array_equal(alone.ll_trace, stacked.ll_trace)
        assert alone.dilutions == stacked.dilutions
        assert alone.optimality_gap == stacked.optimality_gap
    assert [r.converged for r in singles] == [True] * 5 + [False]
    assert singles[3].dilutions >= 1
    assert singles[4].iterations == 0 and singles[4].optimality_gap == 0.0
    assert np.array_equal(singles[4].chi.matrix, np.eye(16) / 16.0)
    assert singles[5].iterations == 3


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
    with pytest.raises(ValueError, match="at least 2"):
        monte_carlo_errors(ds, design, 1, {"cu": cu_phase(0.4)}, seed=0)


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

    results = _mle_batch(resampled, design, MleOptions())
    for result, is_empty in zip(results, empty):
        assert result.converged
        if is_empty:
            assert result.iterations == 0
            assert np.array_equal(result.chi.matrix, np.eye(16) / 16.0)
    stats = monte_carlo_errors(ds, design, trials, targets, seed)
    fids = [process_fidelity(r.chi, targets["cu"]) for r in results]
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
    with pytest.raises(ValueError, match="pair up"):
        fit_cosine([0.0, 1.0], [0.5])
    with pytest.raises(ValueError, match="distinct"):
        fit_cosine([0.4, 0.4, 0.4], [0.5, 0.5, 0.5])


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


def test_pipeline_matches_per_phase_solves_and_bootstraps():
    params = OpticsParams.measured()
    phases = [0.0, math.pi / 4, math.pi / 2]
    design = default_design()
    report = experiment_pipeline(params, phases=phases, rate=1e3, trials=3,
                                 seed=11)
    streams = np.random.SeedSequence(11).spawn(len(phases))
    for phi, stream, row in zip(phases, streams, report.rows):
        count_stream, mc_stream = stream.spawn(2)
        ds = simulate_counts(replication_experiment_channel(phi, params),
                             design, 1e3, count_stream, phase=phi)
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
], ids=["truncated", "duplicated", "reordered", "header-less",
        "rates-missing", "phase-count-short"])
def test_corrupt_counts_csv_is_rejected(tmp_path, edit, message):
    path = _corrupted_counts_csv(tmp_path, edit)
    with pytest.raises(ValueError, match=message):
        read_datasets_csv(path, default_design())
