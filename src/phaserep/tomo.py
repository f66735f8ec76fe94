"""Simulated process tomography with maximum-likelihood reconstruction.

The experiment design prepares product Pauli eigenstates, measures in
product Pauli bases, and records Poissonian coincidence counts.  The
reconstruction maximizes the Poisson likelihood over positive
semidefinite process matrices with an RrhoR fixed-point ascent.  Counts
are kept as floats so that the exact expected-count (infinite-statistics)
limit runs through the same code path.

One solver advances any number of independent reconstructions as a
stack: a single dataset is a batch of one, and the bootstrap trials and
the phases of a pipeline run are each solved as one batch.  Each
reconstruction's result is bit-identical whatever else is in its batch.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .choi import ProcessMatrix, choi_from_kraus, process_fidelity
from .gates import cu_phase, phase_gate
from .optics import OpticsParams, replication_experiment_channel
from .qmat import PROJECTOR_KETS, kron, normalize_phase

SINGLE_QUBIT_STATES = ("0", "1", "+", "-", "+i", "-i")
MEASUREMENT_BASES = ("x", "y", "z")
_BASIS_OUTCOMES = {"x": ("+", "-"), "y": ("+i", "-i"), "z": ("0", "1")}


class TomographyDesign:
    """Input states, measurement settings, and their derived operators.

    Probabilities are linear in the process matrix: p_j = Tr[chi O_j]
    with O_j = d * (rho_i^T (x) Pi_k), row j = i * n_outcomes + k for
    input i and outcome k (outcomes run over settings, then the four
    projectors of each setting).  The stacked operators (rows x 16 x
    16), their rank (identifiability), and whether they sum to a
    multiple of the identity (required by the plain RrhoR update) are
    computed once at construction.

    Because every O_j is a Kronecker product, the design also keeps its
    two factors: ``input_factor`` (n_inputs x 16, the flattened rho_i^T)
    and ``outcome_factor`` (16 x n_outcomes, the flattened d * Pi_k).
    ``traces`` and ``weighted_sum`` evaluate the two linear maps through
    these factors, at about a tenth of the multiply-adds of a product
    with the dense (rows x 256) coefficient matrix.
    """

    def __init__(
        self,
        input_kets: Sequence[np.ndarray],
        setting_projectors: Sequence[Sequence[np.ndarray]],
    ):
        self.input_kets = [np.asarray(k, dtype=np.complex128)
                           for k in input_kets]
        self.settings = [
            [np.asarray(p, dtype=np.complex128) for p in setting]
            for setting in setting_projectors
        ]
        for ket in self.input_kets:
            if ket.shape != (4,) or abs(np.linalg.norm(ket) - 1.0) > 1e-10:
                raise ValueError("input states must be normalized 4-vectors")
        for setting in self.settings:
            total = sum(setting)
            if np.max(np.abs(total - np.eye(4))) > 1e-10:
                raise ValueError("setting projectors must sum to identity")

        rho_t = np.array([np.outer(ket, ket.conj()).T
                          for ket in self.input_kets])
        # d = 4 is a power of two, so scaling Pi_k instead of the
        # Kronecker product gives bit-identical operators
        projs = 4.0 * np.array([proj for setting in self.settings
                                for proj in setting])
        self.input_factor = rho_t.reshape(-1, 16)
        self.outcome_factor = projs.reshape(-1, 16).T
        n_in, n_out = len(rho_t), len(projs)
        # O_j[(a b), (c d)] = rho_i^T[a, c] * d Pi_k[b, d]
        self.operators = (
            rho_t[:, None, :, None, :, None] * projs[None, :, None, :, None, :]
        ).reshape(n_in * n_out, 16, 16)
        # the dense coefficient matrix p_j = vec(O_j^T) . vec(chi) is the
        # Kronecker product of the two factors up to a fixed column
        # permutation, and rank(A (x) B) = rank A * rank B
        self.rank = int(np.linalg.matrix_rank(self.input_factor)
                        * np.linalg.matrix_rank(self.outcome_factor))
        total = self.operators.sum(axis=0)
        scale = float(np.trace(total).real) / 16.0
        self.uniform = bool(np.max(np.abs(total - scale * np.eye(16)))
                            <= 1e-8 * scale)
        self.operator_sum_scale = scale

    @property
    def n_inputs(self) -> int:
        return len(self.input_kets)

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def size(self) -> int:
        return self.operators.shape[0]

    @property
    def identifiable(self) -> bool:
        return self.rank == 256

    def row_index(self, input_id: int, setting_id: int, outcome_id: int
                  ) -> int:
        return (input_id * self.n_settings + setting_id) * 4 + outcome_id

    def traces(self, chi: np.ndarray) -> np.ndarray:
        """Re Tr[chi O_j] for every row, for Hermitian chi of shape
        (..., 16, 16); the leading axes index independent matrices.

        Equals the dense sum over Tr[chi O_j] up to rounding, and each
        matrix's row is bit-identical whatever else is stacked with it.
        """
        lead = chi.shape[:-2]
        # Tr[chi O_j] = sum chi[a b, c d] rho_i^T[c, a] d Pi_k[d, b]:
        # regroup chi as (c a),(d b) and contract with the two factors
        g = chi.reshape(-1, 4, 4, 4, 4).transpose(0, 3, 1, 4, 2).reshape(
            -1, 16, 16)
        p = (self.input_factor @ g @ self.outcome_factor).real
        return p.reshape(lead + (self.size,))

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_j w_j O_j for real weights of shape (..., rows) in row
        order; the leading axes index independent weight vectors.

        Equals the dense sum over w_j O_j up to rounding.
        """
        lead = weights.shape[:-1]
        w = weights.reshape(-1, self.input_factor.shape[0],
                            self.outcome_factor.shape[1])
        g = self.input_factor.T @ w @ self.outcome_factor.T
        g = g.reshape(-1, 4, 4, 4, 4).transpose(0, 1, 3, 2, 4)
        return g.reshape(lead + (16, 16))

    def probabilities(self, channel: ProcessMatrix) -> np.ndarray:
        """Outcome probabilities under the channel, in row order.

        Sub-normalized (postselected) channels yield probabilities that
        do not sum to 1 per setting; that deficit is physical loss.
        Values <= 1e-12 are returned as 0.0: on the standard design the
        rounding residue of an exact zero stays below 1e-18, and the
        physical probabilities of the presets are above 1e-7.
        """
        if channel.qubits != 2:
            raise ValueError("design covers two-qubit channels only")
        p = self.traces(channel.matrix)
        return np.where(p > 1e-12, p, 0.0)


_default_design: TomographyDesign | None = None


def default_design() -> TomographyDesign:
    """36 product-Pauli inputs x 9 product-Pauli bases (shared instance)."""
    global _default_design
    if _default_design is None:
        singles = [PROJECTOR_KETS[s] for s in SINGLE_QUBIT_STATES]
        inputs = [np.kron(a, b) for a in singles for b in singles]
        settings = []
        for b0 in MEASUREMENT_BASES:
            for b1 in MEASUREMENT_BASES:
                projs = []
                for o0 in _BASIS_OUTCOMES[b0]:
                    for o1 in _BASIS_OUTCOMES[b1]:
                        ket = np.kron(PROJECTOR_KETS[o0], PROJECTOR_KETS[o1])
                        projs.append(np.outer(ket, ket.conj()))
                settings.append(projs)
        _default_design = TomographyDesign(inputs, settings)
    return _default_design


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
        c = np.array(self.counts, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError("counts must be a flat record array")
        if not np.all(np.isfinite(c)) or np.any(c < 0.0):
            raise ValueError("counts must be finite and non-negative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "phase", float(self.phase))

    @property
    def total(self) -> float:
        return float(self.counts.sum())


def expected_counts(
    channel: ProcessMatrix,
    design: TomographyDesign,
    rate: float,
    phase: float = 0.0,
) -> TomographyDataset:
    """Noise-free dataset: exact Poisson means, no sampling; a row the
    channel cannot reach gets exactly 0 (see ``probabilities``)."""
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    return TomographyDataset(phase, rate * design.probabilities(channel),
                             rate)


def simulate_counts(
    channel: ProcessMatrix,
    design: TomographyDesign,
    rate: float,
    seed,
    phase: float = 0.0,
) -> TomographyDataset:
    """Draw Poisson counts with mean rate * p for every design row."""
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    rng = np.random.default_rng(seed)
    lam = rate * design.probabilities(channel)
    counts = rng.poisson(lam).astype(np.float64)
    return TomographyDataset(phase, counts, rate)


@dataclass(frozen=True)
class MleOptions:
    max_iterations: int = 5000
    # stop when the log-likelihood gain per observed count drops below this
    gain_tolerance: float = 1e-10


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


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of each matrix, scaled to unit trace."""
    m = 0.5 * (m + _dagger(m))
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def _mle_batch(counts: np.ndarray, design: TomographyDesign,
               options: MleOptions) -> list[MleResult]:
    """RrhoR ascent for every row of ``counts`` (trials x design rows).

    The trials still running advance together as (trials, 16, 16)
    stacks.  Every step acts on each matrix or count row on its own, so
    a trial's result is bit-identical to a solve of that row alone.  A
    trial leaves the stack when it meets the stopping test.
    """
    if not design.identifiable:
        raise ValueError(
            "unidentifiable model: the design does not span the space of "
            "two-qubit process matrices (rank "
            f"{design.rank} < 256)"
        )
    if not design.uniform:
        raise ValueError(
            "the RrhoR update requires the design operators to sum to a "
            "multiple of the identity"
        )
    if counts.shape[1] != design.size:
        raise ValueError("dataset does not match the design size")

    def probs(chi: np.ndarray) -> np.ndarray:
        return np.maximum(design.traces(chi), 1e-300)

    def log_likelihood(n: np.ndarray, p: np.ndarray) -> np.ndarray:
        # Poisson likelihood with the global scale profiled out; only the
        # shape term sum n_j ln p_j depends on chi once sum_j O_j ~
        # identity.  Empty rows add an exact 0 since p >= 1e-300.
        return np.sum(n * np.log(p), axis=1)

    n_trials = counts.shape[0]
    n_total = counts.sum(axis=1)
    chi_out = np.empty((n_trials, 16, 16), dtype=np.complex128)
    chi_out[:] = np.eye(16) / 16.0
    p_out = np.ones_like(counts)
    ll_out = np.zeros(n_trials)
    iterations = np.zeros(n_trials, dtype=int)
    dilutions = np.zeros(n_trials, dtype=int)
    # a trial without counts has a flat likelihood: it keeps the seed
    # and counts as converged after 0 iterations
    converged = n_total == 0.0
    ll_traces = [[0.0] for _ in range(n_trials)]

    live = np.flatnonzero(~converged)
    n = counts[live]
    total = np.maximum(n_total[live], 1.0)
    chi = chi_out[live]
    p = probs(chi)
    ll = log_likelihood(n, p)
    for k, v in zip(live.tolist(), ll.tolist()):
        ll_traces[k][0] = v

    def retire(leaving: np.ndarray) -> None:
        gone = live[leaving]
        chi_out[gone], p_out[gone], ll_out[gone] = (
            chi[leaving], p[leaving], ll[leaving])

    for it in range(1, options.max_iterations + 1):
        if live.size == 0:
            break
        # R = sum_j (n_j / p_j) O_j; rows without counts have weight 0
        r = design.weighted_sum(n / p)
        r = 0.5 * (r + _dagger(r))
        step = _unit_trace(r @ chi @ r)
        p_new = probs(step)
        ll_new = log_likelihood(n, p_new)
        pending = np.flatnonzero(ll_new < ll - 1e-9 * (1.0 + np.abs(ll)))
        dilutions[live[pending]] += 1
        # dilution fallback: shrink toward the identity direction
        eps = 1.0
        while pending.size:
            if eps <= 1e-8:
                raise RuntimeError(
                    "likelihood decreased and dilution could not restore "
                    "monotonicity"
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
        for k, v in zip(live.tolist(), ll.tolist()):
            ll_traces[k].append(v)
        iterations[live] = it
        done = gain / total < options.gain_tolerance
        if done.any():
            converged[live[done]] = True
            retire(done)
            keep = ~done
            live, n, total, chi, ll, p = (
                live[keep], n[keep], total[keep], chi[keep], ll[keep],
                p[keep])
    retire(np.ones(live.size, dtype=bool))

    # one stacked eigvalsh of R at every returned chi
    gaps = np.zeros(n_trials)
    solved = np.flatnonzero(n_total > 0.0)
    if solved.size:
        r = design.weighted_sum(counts[solved] / p_out[solved])
        lam = np.linalg.eigvalsh(0.5 * (r + _dagger(r)))[:, -1]
        gaps[solved] = lam / n_total[solved] - 1.0

    results = []
    for k in range(n_trials):
        ll_trace = np.array(ll_traces[k])
        ll_trace.setflags(write=False)
        results.append(MleResult(
            ProcessMatrix(chi_out[k], 2), bool(converged[k]),
            int(iterations[k]), float(ll_out[k]), ll_trace,
            int(dilutions[k]), float(gaps[k]),
        ))
    return results


def mle_reconstruct(
    dataset: TomographyDataset,
    design: TomographyDesign,
    options: MleOptions | None = None,
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
    return _mle_batch(dataset.counts[None, :], design,
                      options or MleOptions())[0]


@dataclass(frozen=True)
class FidelityStats:
    mean: float
    std: float


def monte_carlo_errors(
    dataset: TomographyDataset,
    design: TomographyDesign,
    trials: int,
    targets: Mapping[str, np.ndarray],
    seed,
    options: MleOptions | None = None,
) -> dict[str, FidelityStats]:
    """Poissonian bootstrap of the reconstruction's fidelity error bars.

    Each trial resamples every count around the observed value from its
    own spawned stream; all trials are then reconstructed as one batch
    (each with the result it would get alone) and evaluated by process
    fidelity with each target.  Returns per-target mean and sample
    standard deviation.
    """
    if trials < 2:
        raise ValueError("need at least 2 Monte Carlo trials")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    resampled = np.array(
        [np.random.default_rng(stream).poisson(dataset.counts)
         for stream in seed.spawn(trials)], dtype=np.float64)
    results = _mle_batch(resampled, design, options or MleOptions())
    values = {
        name: [process_fidelity(result.chi, target) for result in results]
        for name, target in targets.items()
    }
    return {
        name: FidelityStats(float(np.mean(v)), float(np.std(v, ddof=1)))
        for name, v in values.items()
    }


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of fidelity-vs-phase to offset + amplitude*cos."""

    offset: float
    amplitude: float
    residual_rms: float


def fit_cosine(
    phases: Sequence[float], fidelities: Sequence[float]
) -> FitResult:
    phases = np.asarray([normalize_phase(p) for p in phases],
                        dtype=np.float64)
    values = np.asarray(fidelities, dtype=np.float64)
    if phases.shape != values.shape:
        raise ValueError("phases and fidelities must pair up")
    if np.unique(np.round(phases, 12)).size < 2:
        raise ValueError("need at least 2 distinct phases to fit")
    design = np.column_stack([np.ones_like(phases), np.cos(phases)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    residuals = values - design @ coef
    rms = float(np.sqrt(np.mean(residuals ** 2)))
    return FitResult(float(coef[0]), float(coef[1]), rms)


@dataclass(frozen=True)
class PhaseReport:
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
    phases: tuple[float, ...]
    rows: tuple[PhaseReport, ...]
    fit: FitResult | None  # None when fewer than 2 distinct phases were run
    rate: float
    trials: int
    seed: int


def standard_phases() -> tuple[float, ...]:
    """The eight standard phase settings k*pi/8, k = 0..7."""
    return tuple(k * math.pi / 8.0 for k in range(8))


def experiment_pipeline(
    params: OpticsParams,
    phases: Sequence[float] | None = None,
    rate: float = 1e4,
    trials: int = 0,
    seed: int = 0,
    design: TomographyDesign | None = None,
    options: MleOptions | None = None,
) -> PipelineReport:
    """Full simulated run: channel -> counts -> MLE -> fidelities -> fit.

    ``trials`` >= 2 adds Monte Carlo error bars (otherwise the std
    columns are NaN).  All randomness derives from ``seed`` through
    per-phase spawned streams, so reruns are bit-identical.  Every
    phase's counts are drawn first and the main reconstructions are then
    solved as one batch, and each phase's bootstrap trials as another;
    no result depends on what else is in its batch.
    """
    phases = tuple(normalize_phase(p) for p in (
        standard_phases() if phases is None else phases))
    design = design or default_design()
    options = options or MleOptions()
    streams = [s.spawn(2) for s in
               np.random.SeedSequence(seed).spawn(len(phases))]
    datasets = [
        simulate_counts(replication_experiment_channel(phi, params), design,
                        rate, count_stream, phase=phi)
        for phi, (count_stream, _) in zip(phases, streams)
    ]
    results = _mle_batch(
        np.array([d.counts for d in datasets]).reshape(-1, design.size),
        design, options)
    rows = []
    for phi, dataset, result, (_, mc_stream) in zip(phases, datasets,
                                                    results, streams):
        u = phase_gate(phi)
        targets = {"cu": cu_phase(phi), "uu": kron(u, u)}
        f_cu = process_fidelity(result.chi, targets["cu"])
        f_uu = process_fidelity(result.chi, targets["uu"])
        f_cu_std = f_uu_std = float("nan")
        if trials >= 2:
            stats = monte_carlo_errors(dataset, design, trials, targets,
                                       mc_stream, options)
            f_cu_std = stats["cu"].std
            f_uu_std = stats["uu"].std
        chi_ideal = choi_from_kraus([targets["cu"]])
        rows.append(PhaseReport(phi, result.chi, chi_ideal, dataset, f_cu,
                                f_uu, f_cu_std, f_uu_std, result.iterations,
                                result.converged, result.optimality_gap))
    fit = None
    if np.unique(np.round(phases, 12)).size >= 2:
        fit = fit_cosine(phases, [r.f_uu for r in rows])
    return PipelineReport(phases, tuple(rows), fit, float(rate),
                          int(trials), int(seed))


def write_datasets_csv(path, datasets: Sequence[TomographyDataset],
                       design: TomographyDesign,
                       header_lines: Sequence[str] = ()) -> None:
    """Record-per-row CSV of one or more phase datasets."""
    phases = [d.phase for d in datasets]
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line.rstrip("\n") + "\n")
        fh.write("# phase_values: " + json.dumps(phases) + "\n")
        fh.write("# rates: " + json.dumps([d.rate for d in datasets]) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["phase_id", "input_id", "setting_id", "outcome_id", "count"])
        for phase_id, ds in enumerate(datasets):
            for i in range(design.n_inputs):
                for s in range(design.n_settings):
                    for o in range(4):
                        c = float(ds.counts[design.row_index(i, s, o)])
                        text = repr(int(c)) if c == int(c) else repr(c)
                        writer.writerow([phase_id, i, s, o, text])


def read_datasets_csv(path, design: TomographyDesign
                      ) -> list[TomographyDataset]:
    """Inverse of ``write_datasets_csv``.

    The file must hold both the ``# phase_values:`` and ``# rates:``
    headers with one entry per phase, and under the column names, for
    phase ids 0..P-1 in turn, every design row exactly once in design
    order (``row_index``).  A missing, repeated or misplaced row, or a
    missing header, raises ``ValueError``.
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
            or len(headers["phase_values"]) != len(headers["rates"]):
        raise ValueError("counts file needs '# phase_values:' and "
                         "'# rates:' headers with one entry per phase")
    phases, rates = headers["phase_values"], headers["rates"]
    # the first line left is the column names
    data = np.array([line.split(",") for line in lines[1:]],
                    dtype=np.float64).reshape(-1, 5)
    # (phase, input, setting, outcome) in row-major order, the order in
    # which row_index numbers a phase block's rows 0..size-1
    index = np.indices((len(phases), design.n_inputs, design.n_settings, 4)
                       ).reshape(4, -1).T
    if data.shape[0] != index.shape[0] \
            or not np.array_equal(data[:, :4], index):
        raise ValueError(
            f"counts rows must list phase ids 0..{len(phases) - 1}, each "
            f"with its {design.size} design rows once and in order")
    counts = data[:, 4].reshape(len(phases), design.size)
    return [TomographyDataset(phi, c, rate)
            for phi, c, rate in zip(phases, counts, rates)]
