"""Simulated process tomography with maximum-likelihood reconstruction.

The experiment design prepares product Pauli eigenstates, measures in
product Pauli bases, and records Poissonian coincidence counts.  The
reconstruction maximizes the Poisson likelihood over positive
semidefinite process matrices with an RrhoR fixed-point ascent.  Counts
are kept as floats so that the exact expected-count (infinite-statistics)
limit runs through the same code path.

One solver advances any number of independent reconstructions as a
stack: a single dataset is a batch of one, and a bootstrap is one batch.
A pipeline run solves each phase's dataset in one batch with that
phase's bootstrap resamples, or, without a bootstrap, the datasets of
all its phases as one batch.  Each reconstruction's result is
bit-identical whatever else is in its batch.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .choi import ProcessMatrix, _choi_matrices, choi_from_kraus, \
    process_fidelity
from .gates import cu_phase, phase_gate
from .optics import OpticsParams, replication_experiment_channel
from .qmat import PROJECTOR_KETS, _operator, _phase_list, _real, _reals, \
    _seed, _trials, kron, normalize_phase

SINGLE_QUBIT_STATES = ("0", "1", "+", "-", "+i", "-i")
MEASUREMENT_BASES = ("x", "y", "z")
_BASIS_OUTCOMES = {"x": ("+", "-"), "y": ("+i", "-i"), "z": ("0", "1")}


class TomographyDesign:
    """The product-Pauli design: 36 inputs x 9 bases, kept as two factors.

    The inputs are the 36 products of single-qubit Pauli eigenstates and
    the settings the 9 products of Pauli bases, four projectors each.
    Probabilities are linear in the process matrix: p_j = Tr[chi O_j]
    with O_j = d * (rho_i^T (x) Pi_k), row j = i * n_outcomes + k for
    input i and outcome k (outcomes run over settings, then the four
    projectors of each setting).  Every O_j is a Kronecker product, so
    the design stores ``input_factor`` (36 x 16, the flattened
    rho_i^T) and ``outcome_factor`` (16 x 36, the flattened d * Pi_k).

    The RrhoR solver needs two properties of this design.  The 1296 O_j
    have rank 256 (16 for each factor): they span the two-qubit process
    matrices, so the probabilities determine chi.  They sum to 324 * I:
    the rho_i^T sum to 9 * I (each qubit's six projectors sum to 3 * I)
    and the d * Pi_k to 9 * 4 * I (each setting's projectors sum to I).

    ``traces`` and ``weighted_sum`` evaluate the two linear maps through
    the factors.  Since p_j and the weights are real, each runs one of
    its two stages as a real GEMM on a float64 view: about 78k real
    multiply-adds a matrix, against 120k with both stages complex and
    1.3M for a product with the dense (rows x 256) coefficient matrix.
    """

    n_inputs = len(SINGLE_QUBIT_STATES) ** 2
    n_settings = len(MEASUREMENT_BASES) ** 2
    size = n_inputs * n_settings * 4

    def __init__(self):
        singles = [PROJECTOR_KETS[s] for s in SINGLE_QUBIT_STATES]
        kets = np.array([np.kron(a, b) for a in singles for b in singles])
        outcomes = np.array([
            np.kron(PROJECTOR_KETS[o0], PROJECTOR_KETS[o1])
            for b0 in MEASUREMENT_BASES for b1 in MEASUREMENT_BASES
            for o0 in _BASIS_OUTCOMES[b0] for o1 in _BASIS_OUTCOMES[b1]])
        # rho_i^T[a, c] = ket[c] * conj(ket[a])
        rho_t = kets[:, None, :] * kets.conj()[:, :, None]
        # Pi_k[b, d] = ket[b] * conj(ket[d]); d = 4 is a power of two, so
        # scaling Pi_k instead of the Kronecker product gives
        # bit-identical operators
        projs = 4.0 * (outcomes[:, :, None] * outcomes.conj()[:, None, :])
        self.input_factor = rho_t.reshape(-1, 16)
        self.outcome_factor = projs.reshape(-1, 16).T
        # Re(x y) = Re x Re y - Im x Im y: traces' second stage is one real
        # GEMM on Re and -Im of the outcome factor, C-contiguous (faster)
        self._real_outcome = np.ascontiguousarray(
            self.outcome_factor.T.conj().view(np.float64).T)

    @property
    def operators(self) -> np.ndarray:
        """The dense (rows x 16 x 16) stack of the O_j, built on each
        access as a reference; the solver uses only the factors."""
        # O_j[(a b), (c d)] = rho_i^T[a, c] * d Pi_k[b, d]
        rho_t = self.input_factor.reshape(-1, 1, 4, 1, 4, 1)
        projs = self.outcome_factor.T.reshape(1, -1, 1, 4, 1, 4)
        return (rho_t * projs).reshape(-1, 16, 16)

    def row_index(self, input_id: int, setting_id: int, outcome_id: int
                  ) -> int:
        return (input_id * self.n_settings + setting_id) * 4 + outcome_id

    def traces(self, chi: np.ndarray) -> np.ndarray:
        """Re Tr[chi O_j] for every row, for Hermitian chi of shape
        (..., 16, 16); the leading axes index independent matrices.

        Equals the dense sum over Tr[chi O_j] up to rounding, and each
        matrix's row is bit-identical whatever else is stacked with it.
        Returns a fresh array.
        """
        lead = chi.shape[:-2]
        # Tr[chi O_j] = sum chi[a b, c d] rho_i^T[c, a] d Pi_k[d, b]:
        # regroup chi as (c a),(d b) and contract with the two factors
        g = chi.reshape(-1, 4, 4, 4, 4).transpose(0, 3, 1, 4, 2).reshape(
            -1, 16, 16)
        x = (self.input_factor @ g).view(np.float64)
        return (x @ self._real_outcome).reshape(lead + (self.size,))

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_j w_j O_j for real weights of shape (..., rows) in row
        order; the leading axes index independent weight vectors.

        Equals the dense sum over w_j O_j up to rounding.
        """
        lead = weights.shape[:-1]
        w = weights.reshape(-1, self.n_inputs, 4 * self.n_settings)
        # the weights are real: w^T times the input factor is one real
        # GEMM on its float64 view, read back as complex
        y = (w.swapaxes(-1, -2) @ self.input_factor.view(np.float64)
             ).view(np.complex128)
        g = y.swapaxes(-1, -2) @ self.outcome_factor.T
        g = g.reshape(-1, 4, 4, 4, 4).transpose(0, 1, 3, 2, 4)
        return g.reshape(lead + (16, 16))

    def probabilities(
        self, channel: ProcessMatrix | np.ndarray
    ) -> np.ndarray:
        """Outcome probabilities under the channel, in row order.

        Sub-normalized (postselected) channels yield probabilities that
        do not sum to 1 per setting; that deficit is physical loss.
        Values <= 1e-12 are returned as 0.0: on this design the
        rounding residue of an exact zero stays below 1e-18, and the
        physical probabilities of the presets are above 1e-7.

        A Kraus array of shape (..., n, 4, 4), such as one channel per
        phase, yields probabilities of shape (..., rows) from one
        ``traces`` call on the stack of their chi, each the matrix of
        its own ``choi_from_kraus``.  A channel on any other number of
        qubits raises ``ValueError`` before anything is built.
        """
        chi = isinstance(channel, ProcessMatrix)
        kraus = None if chi else _operator(channel, "channel", 3)
        if (channel.dim if chi else kraus.shape[-1]) != 4:
            raise ValueError("design covers two-qubit channels only")
        p = self.traces(channel.matrix if chi else _choi_matrices(kraus))
        return np.where(p > 1e-12, p, 0.0)


@functools.cache
def default_design() -> TomographyDesign:
    """The product-Pauli design (shared instance)."""
    return TomographyDesign()


@dataclass(frozen=True)
class TomographyDataset:
    """Counts for one phase setting, aligned with the design's row order.

    Counts are non-negative and usually integers; the expected-count
    (noise-free) variant stores real-valued means instead.
    """

    phase: float
    counts: np.ndarray
    rate: float

    def __post_init__(self):
        c = _reals(self.counts, "counts", 0.0)
        # phase and rate may come from the headers of a counts file
        object.__setattr__(self, "phase", _real(self.phase, "phase"))
        object.__setattr__(self, "rate",
                           _real(self.rate, "rate", positive=True))
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> float:
        return float(self.counts.sum())


def simulate_counts(
    channel: ProcessMatrix | np.ndarray,
    design: TomographyDesign,
    rate: float,
    seed,
    phase: float = 0.0,
) -> TomographyDataset:
    """Draw Poisson counts with mean rate * p for every design row.

    A rate that puts a mean above the largest numpy can draw from
    (about 9.2e18) raises ``ValueError``.
    """
    rate, seed = _real(rate, "rate", positive=True), _seed(seed)
    return _draw_counts(design.probabilities(channel), rate, seed, phase)


# numpy's Generator.poisson rejects a mean above this (its POISSON_LAM_MAX)
_POISSON_MEAN_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


def _draw_counts(p: np.ndarray, rate: float, seed, phase: float
                 ) -> TomographyDataset:
    """Poisson counts with mean rate * p, from the stream ``seed``."""
    lam = rate * p
    largest = float(lam.max())
    if largest > _POISSON_MEAN_MAX:
        raise ValueError(
            f"rate {rate!r} gives a Poisson mean of {largest!r}, above "
            f"the largest numpy can draw from ({_POISSON_MEAN_MAX!r})")
    counts = np.random.default_rng(seed).poisson(lam).astype(np.float64)
    return TomographyDataset(phase, counts, rate)


MAX_ITERATIONS = 5000
# stop when the log-likelihood gain per observed count drops below this
GAIN_TOLERANCE = 1e-10


@dataclass(frozen=True)
class MleResult:
    """One reconstruction and its deterministic diagnostics.

    ``dilutions`` counts the iterations that took the dilution fallback.
    ``optimality_gap`` is lambda_max(R) / N_total - 1 at the returned
    chi: it is >= 0 for any unit-trace chi (Tr[R chi] = N_total) and 0
    exactly at the maximum; an empty dataset, whose likelihood is flat,
    reports 0.
    """

    chi: ProcessMatrix
    converged: bool
    iterations: int
    log_likelihood: float
    ll_trace: np.ndarray
    dilutions: int
    optimality_gap: float


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """Replace each matrix of ``m`` by its Hermitian part, in place."""
    m += _dagger(m)
    m *= 0.5
    return m


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """Replace each matrix of ``m`` by its Hermitian part scaled to unit
    trace, in place."""
    _hermitian_part(m)
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return m


def _mle_batch(counts: np.ndarray, design: TomographyDesign
               ) -> list[MleResult]:
    """RrhoR ascent for every row of ``counts`` (trials x design rows).

    The trials still running advance together as (trials, 16, 16)
    stacks.  Every step acts on each matrix or count row on its own, so
    a trial's result is bit-identical to a solve of that row alone.  A
    trial leaves the stack when it meets the stopping test and writes
    back only its chi; its iteration count and final log-likelihood are
    read off its ``ll_trace``.

    Each iteration works on fresh stacks in place and records the live
    trials' log-likelihoods as one array; the ``ll_trace`` arrays are cut
    from one buffer at the end, so a batch holds no history beyond the
    iterations it ran.
    """
    if counts.shape[1] != design.size:
        raise ValueError("dataset does not match the design size")
    def probs(chi: np.ndarray) -> np.ndarray:
        p = design.traces(chi)
        return np.maximum(p, 1e-300, out=p)

    def log_likelihood(n: np.ndarray, p: np.ndarray) -> np.ndarray:
        # Poisson likelihood with the global scale profiled out; only the
        # shape term sum n_j ln p_j depends on chi once sum_j O_j ~
        # identity.  Empty rows add an exact 0 since p >= 1e-300.
        terms = np.log(p)
        terms *= n
        return terms.sum(axis=1)

    n_trials = counts.shape[0]
    n_total = counts.sum(axis=1)
    chi_out = np.empty((n_trials, 16, 16), dtype=np.complex128)
    chi_out[:] = np.eye(16) / 16.0
    dilutions = np.zeros(n_trials, dtype=int)
    # a trial without counts has a flat likelihood: it keeps the seed
    # and counts as converged after 0 iterations
    converged = n_total == 0.0

    live = np.flatnonzero(~converged)
    n = counts[live]
    total = np.maximum(n_total[live], 1.0)
    chi = chi_out[live]
    p = probs(chi)
    ll = log_likelihood(n, p)
    # (live trials, their log-likelihoods) at the seed and after each
    # iteration
    history = [(live, ll)]

    for _ in range(MAX_ITERATIONS):
        if live.size == 0:
            break
        # R = sum_j (n_j / p_j) O_j; rows without counts have weight 0
        r = _hermitian_part(design.weighted_sum(n / p))
        step = _unit_trace(r @ chi @ r)
        p_new = probs(step)
        ll_new = log_likelihood(n, p_new)
        fell = ll_new < ll - 1e-9 * (1.0 + np.abs(ll))
        if fell.any():
            pending = np.flatnonzero(fell)
            dilutions[live[pending]] += 1
            # dilution fallback: shrink toward the identity direction
            eps = 1.0
            while pending.size:
                if eps <= 1e-8:
                    raise RuntimeError(
                        "likelihood decreased and dilution could not "
                        "restore monotonicity"
                    )
                mixed = (np.eye(16) + eps * r[pending]
                         / total[pending, None, None]) / (1.0 + eps)
                cand = _unit_trace(mixed @ chi[pending] @ _dagger(mixed))
                p_cand = probs(cand)
                ll_cand = log_likelihood(n[pending], p_cand)
                ll_old = ll[pending]
                ok = ll_cand >= ll_old - 1e-12 * (1.0 + np.abs(ll_old))
                taken = pending[ok]
                step[taken], p_new[taken], ll_new[taken] = (
                    cand[ok], p_cand[ok], ll_cand[ok])
                pending = pending[~ok]
                eps *= 0.5
        gain = ll_new - ll
        chi, ll, p = step, ll_new, p_new
        history.append((live, ll))
        done = gain / total < GAIN_TOLERANCE
        if done.any():
            converged[live[done]] = True
            chi_out[live[done]] = chi[done]
            keep = ~done
            live, n, total, chi, ll, p = (
                live[keep], n[keep], total[keep], chi[keep], ll[keep],
                p[keep])
    chi_out[live] = chi

    # one stacked eigvalsh of R at every returned chi; a row of traces
    # does not depend on the stack, so p is the loop's last, bit for bit
    gaps = np.zeros(n_trials)
    solved = np.flatnonzero(n_total > 0.0)
    if solved.size:
        r = design.weighted_sum(counts[solved] / probs(chi_out[solved]))
        lam = np.linalg.eigvalsh(_hermitian_part(r))[:, -1]
        gaps[solved] = lam / n_total[solved] - 1.0

    # trial k's trace is its seed value and one value per iteration it
    # ran, from starts[k] on; an empty trial's is [0.0].  Each recorded
    # value belongs to trial among[i] at history entry step[i]
    among = np.concatenate([trials for trials, _ in history])
    step = np.repeat(np.arange(len(history)),
                     [trials.size for trials, _ in history])
    lengths = np.maximum(np.bincount(among, minlength=n_trials), 1)
    starts = np.cumsum(lengths) - lengths
    flat = np.zeros(int(lengths.sum()))
    flat[starts[among] + step] = np.concatenate([v for _, v in history])
    flat.setflags(write=False)
    ll_traces = np.split(flat, starts[1:])

    return [
        MleResult(ProcessMatrix(chi_out[k], 2), bool(converged[k]),
                  len(trace) - 1, float(trace[-1]), trace,
                  int(dilutions[k]), float(gaps[k]))
        for k, trace in enumerate(ll_traces)
    ]


def mle_reconstruct(
    dataset: TomographyDataset,
    design: TomographyDesign,
) -> MleResult:
    """Maximum-likelihood process matrix via RrhoR fixed-point ascent.

    Iterates chi -> R chi R / Tr[...] with R = sum_j (n_j / p_j) O_j,
    which preserves positivity; a diluted step (I + eps R) replaces any
    iteration where the plain step would lower the likelihood, so the
    log-likelihood trace is non-decreasing throughout.  The result is
    normalized to unit trace (the conditional channel's shape; the
    postselection scale is profiled out of the likelihood).

    Probabilities and R go through the design's Kronecker factors
    (``TomographyDesign.traces`` and ``weighted_sum``), not the dense
    design matrix, and the probabilities computed to test the accepted
    step (plain or diluted) are reused for the next iteration's R.

    This is a batch of one of the solver that ``monte_carlo_errors`` and
    ``experiment_pipeline`` run on many count vectors at once; the
    result is bit-identical to the one the same counts get there.
    """
    return _mle_batch(dataset.counts[None, :], design)[0]


@dataclass(frozen=True)
class FidelityStats:
    """One target's bootstrap fidelities: mean and std (ddof = 1)."""

    mean: float
    std: float


def _resample(counts: np.ndarray, trials: int, seed) -> np.ndarray:
    """Poisson resamples of ``counts`` (trials x rows), each trial drawn
    from its own stream spawned from ``seed``."""
    return np.array([np.random.default_rng(stream).poisson(counts)
                     for stream in seed.spawn(trials)], dtype=np.float64)


def _fidelity_stats(results: Sequence[MleResult],
                    targets: Mapping[str, np.ndarray]
                    ) -> dict[str, FidelityStats]:
    """Mean and sample standard deviation of each target's process
    fidelity over the reconstructions."""
    values = {
        name: [process_fidelity(result.chi, target) for result in results]
        for name, target in targets.items()
    }
    return {
        name: FidelityStats(float(np.mean(v)), float(np.std(v, ddof=1)))
        for name, v in values.items()
    }


def monte_carlo_errors(
    dataset: TomographyDataset,
    design: TomographyDesign,
    trials: int,
    targets: Mapping[str, np.ndarray],
    seed,
) -> dict[str, FidelityStats]:
    """Poissonian bootstrap of the reconstruction's fidelity error bars.

    Each trial resamples every count around the observed value from its
    own spawned stream; all trials are then reconstructed as one batch
    (each with the result it would get alone) and evaluated by process
    fidelity with each target.  Returns per-target mean and sample
    standard deviation.  ``experiment_pipeline`` resamples and evaluates
    with the same helpers, in a batch that also holds the phase's main
    reconstruction, with equal results.
    """
    trials, seed = _trials(trials), _seed(seed)
    results = _mle_batch(_resample(dataset.counts, trials, seed), design)
    return _fidelity_stats(results, targets)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of fidelity-vs-phase to offset + amplitude*cos."""

    offset: float
    amplitude: float
    residual_rms: float


def fit_cosine(
    phases: Sequence[float], fidelities: Sequence[float]
) -> FitResult:
    """Least-squares fit of F(phi) = offset + amplitude * cos(phi) to a
    phase list (reduced to [0, 2*pi)) and a real vector of as many
    fidelities.  Phases equal after rounding to 12 decimals (1e-12 rad)
    count once; a broken rule or < 2 distinct phases raise ValueError."""
    phases = normalize_phase(_phase_list(phases, "phases"))
    values = _reals(fidelities, "fidelities", size=phases.size)
    if np.unique(np.round(phases, 12)).size < 2:
        raise ValueError("need at least 2 distinct phases to fit")
    design = np.column_stack([np.ones_like(phases), np.cos(phases)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    residuals = values - design @ coef
    rms = float(np.sqrt(np.mean(residuals ** 2)))
    return FitResult(float(coef[0]), float(coef[1]), rms)


@dataclass(frozen=True)
class PhaseReport:
    """One pipeline phase: its chi and ideal chi, counts, fidelities with
    the controlled-phase gate (f_cu) and two gate copies (f_uu), their
    bootstrap stds (NaN without one) and the MLE diagnostics."""

    phi: float
    chi: ProcessMatrix
    chi_ideal: ProcessMatrix
    dataset: TomographyDataset
    f_cu: float
    f_uu: float
    f_cu_std: float
    f_uu_std: float
    iterations: int
    converged: bool
    optimality_gap: float


@dataclass(frozen=True)
class PipelineReport:
    """A pipeline run: its phases, one ``PhaseReport`` each, the cosine
    fit of f_uu, and the run's rate, bootstrap trials and seed."""

    phases: tuple[float, ...]
    rows: tuple[PhaseReport, ...]
    fit: FitResult | None  # None when fewer than 2 distinct phases were run
    rate: float
    trials: int
    seed: int  # the root entropy of the run's streams


def standard_phases() -> tuple[float, ...]:
    """The eight standard phase settings k*pi/8, k = 0..7."""
    return tuple(k * math.pi / 8.0 for k in range(8))


def experiment_pipeline(
    params: OpticsParams,
    phases: Sequence[float] | None = None,
    rate: float = 1e4,
    trials: int = 0,
    seed: int = 0,
) -> PipelineReport:
    """Full simulated run: channel -> counts -> MLE -> fidelities -> fit.

    ``trials`` >= 2 adds Monte Carlo error bars; with 0 the std columns
    are NaN.  Every argument is checked before anything is built.
    All randomness derives from ``seed`` through per-phase spawned
    streams, so reruns are bit-identical.  The channels of all phases
    come from one optical build and their count probabilities from one
    ``traces`` call, and every phase's counts are drawn first.  With a
    bootstrap, each phase's main reconstruction is solved in one batch
    with its own resamples; without one, the main reconstructions of
    all phases form one batch.
    No result depends on what else is in its batch, so each row equals
    ``mle_reconstruct`` and ``monte_carlo_errors`` on its phase alone.
    A bootstrap keeps one batch a phase to bound memory: one batch over
    all 8 phases and resamples (measured preset) raised the traced peak
    from about 0.6 to 3 MB at 3 trials, 3 to 18 MB at 25 and 10 to 70 MB
    at 100, and the CLI's max RSS at 25 trials from 41 to 55-57 MB, to
    save about 0.1-0.2 s at 3 trials.
    """
    if not isinstance(params, OpticsParams):
        raise ValueError(f"params must be one OpticsParams, not {params!r}")
    trials = _trials(trials, optional=True)
    rate = _real(rate, "rate", positive=True)
    root = _seed(seed)
    phases = tuple(normalize_phase(_phase_list(
        standard_phases() if phases is None else phases, "phases")).tolist())
    design = default_design()
    streams = [s.spawn(2) for s in root.spawn(len(phases))]
    channels = replication_experiment_channel(np.array(phases), params)
    # each phase's counts equal simulate_counts on its own Kraus array
    datasets = [
        _draw_counts(p, rate, count_stream, phi)
        for phi, p, (count_stream, _) in zip(
            phases, design.probabilities(channels), streams)
    ]
    if trials >= 2:
        # one batch a phase, solved as the loop reaches it, so no more
        # than trials + 1 solves are held at once
        solved = (
            _mle_batch(np.concatenate([d.counts[None], _resample(
                d.counts, trials, mc_stream)]), design)
            for d, (_, mc_stream) in zip(datasets, streams))
    else:
        solved = ([result] for result in _mle_batch(
            np.array([d.counts for d in datasets]).reshape(-1, design.size),
            design))
    rows = []
    for phi, dataset, (result, *boot) in zip(phases, datasets, solved):
        u = phase_gate(phi)
        targets = {"cu": cu_phase(phi), "uu": kron(u, u)}
        f_cu = process_fidelity(result.chi, targets["cu"])
        f_uu = process_fidelity(result.chi, targets["uu"])
        f_cu_std = f_uu_std = float("nan")
        if boot:
            stats = _fidelity_stats(boot, targets)
            f_cu_std = stats["cu"].std
            f_uu_std = stats["uu"].std
        chi_ideal = choi_from_kraus([targets["cu"]])
        rows.append(PhaseReport(phi, result.chi, chi_ideal, dataset, f_cu,
                                f_uu, f_cu_std, f_uu_std, result.iterations,
                                result.converged, result.optimality_gap))
    fit = None
    if np.unique(np.round(phases, 12)).size >= 2:
        fit = fit_cosine(phases, [r.f_uu for r in rows])
    return PipelineReport(phases, tuple(rows), fit, rate, trials,
                          root.entropy)


def _row_layout(n_phases: int, design: TomographyDesign) -> np.ndarray:
    """(phase, input, setting, outcome) of every counts-file row, in the
    row-major order in which ``row_index`` numbers a phase's rows."""
    return np.indices((n_phases, design.n_inputs, design.n_settings, 4)
                      ).reshape(4, -1).T


def write_datasets_csv(path, datasets: Sequence[TomographyDataset],
                       design: TomographyDesign,
                       header_lines: Sequence[str] = ()) -> None:
    """Record-per-row CSV of one or more phase datasets, each of which
    must hold one count per design row.

    A count is written as an integer when it is integral and as its
    float ``repr`` otherwise.  When every count is integral and below
    2^53 in magnitude, all of them go through one int64 conversion;
    otherwise each count is tested on its own, which also writes an
    integral count of 2^53 or more with all its digits.
    """
    for phase_id, ds in enumerate(datasets):
        if ds.counts.size != design.size:
            raise ValueError(
                f"dataset of phase id {phase_id} has {ds.counts.size} "
                f"counts, the design {design.size} rows")
    counts = np.array([ds.counts for ds in datasets], dtype=np.float64)
    if np.all(counts == np.trunc(counts)) and np.all(np.abs(counts) < 2**53):
        texts = counts.astype(np.int64).tolist()
    else:
        texts = [[int(c) if c == int(c) else repr(c) for c in row]
                 for row in counts.tolist()]
    # the input_id,setting_id,outcome_id cells of one phase's rows
    cells = [f"{i},{s},{o}," for _, i, s, o in _row_layout(1, design).tolist()]
    lines = [line.rstrip("\n") + "\n" for line in header_lines] + [
        "# phase_values: " + json.dumps([d.phase for d in datasets]) + "\n",
        "# rates: " + json.dumps([d.rate for d in datasets]) + "\n",
        "phase_id,input_id,setting_id,outcome_id,count\n",
    ] + [f"{p},{cell}{text}\n"
         for p, row in enumerate(texts) for cell, text in zip(cells, row)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def read_datasets_csv(path, design: TomographyDesign
                      ) -> list[TomographyDataset]:
    """Inverse of ``write_datasets_csv``.

    The file must hold both the ``# phase_values:`` and ``# rates:``
    headers, as lists with one entry per phase, and under the column
    names, for phase ids 0..P-1 in turn, every design row exactly once in
    design order (``row_index``).  A missing, repeated or misplaced row,
    or a missing or malformed header, raises ``ValueError``.
    """
    headers = {}
    lines = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith(("# phase_values:", "# rates:")):
                key, value = line[2:].split(":", 1)
                headers[key] = json.loads(value)
            elif not line.startswith("#"):
                lines.append(line)
    if set(headers) != {"phase_values", "rates"} \
            or not all(isinstance(v, list) for v in headers.values()) \
            or len(headers["phase_values"]) != len(headers["rates"]):
        raise ValueError("counts file needs '# phase_values:' and "
                         "'# rates:' headers, lists with one entry per "
                         "phase")
    phases, rates = headers["phase_values"], headers["rates"]
    # the first line left is the column names
    data = np.array([line.split(",") for line in lines[1:]],
                    dtype=np.float64).reshape(-1, 5)
    index = _row_layout(len(phases), design)
    if data.shape[0] != index.shape[0] \
            or not np.array_equal(data[:, :4], index):
        raise ValueError(
            f"counts rows must list phase ids 0..{len(phases) - 1}, each "
            f"with its {design.size} design rows once and in order")
    counts = data[:, 4].reshape(len(phases), design.size)
    return [TomographyDataset(phi, c, rate)
            for phi, c, rate in zip(phases, counts, rates)]
