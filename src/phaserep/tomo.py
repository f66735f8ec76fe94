"""Simulated process tomography with maximum-likelihood reconstruction.

The experiment design prepares product Pauli eigenstates, measures in
product Pauli bases, and records Poissonian coincidence counts.  The
reconstruction maximizes the Poisson likelihood over positive
semidefinite process matrices with an RrhoR fixed-point ascent.  Counts
are kept as floats so that the exact expected-count (infinite-statistics)
limit runs through the same code path.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .choi import ProcessMatrix, choi_from_kraus, process_fidelity
from .gates import as_radians, cu_phase, phase_gate
from .optics import OpticsParams, replication_experiment_channel
from .qmat import PROJECTOR_KETS, Operator, kron

SINGLE_QUBIT_STATES = ("0", "1", "+", "-", "+i", "-i")
MEASUREMENT_BASES = ("x", "y", "z")
_BASIS_OUTCOMES = {"x": ("+", "-"), "y": ("+i", "-i"), "z": ("0", "1")}


class TomographyDesign:
    """Input states, measurement settings, and their derived operators.

    Probabilities are linear in the process matrix: p_j = Tr[chi O_j]
    with O_j = d * (rho_i^T (x) Pi_k), row j = i * n_outcomes + k for
    input i and outcome k (outcomes run over settings, then the four
    projectors of each setting).  The stacked (rows x 256) coefficient
    matrix, its rank (identifiability), and whether the O_j sum to a
    multiple of the identity (required by the plain RrhoR update) are
    computed once at construction.

    Because every O_j is a Kronecker product, the design also keeps its
    two factors: ``input_factor`` (n_inputs x 16, the flattened rho_i^T)
    and ``outcome_factor`` (16 x n_outcomes, the flattened d * Pi_k).
    ``traces`` and ``weighted_sum`` evaluate the two linear maps the
    reconstruction needs through these factors, at about a tenth of the
    multiply-adds of a product with the dense ``matrix``.
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
        # p_j = A_j . vec(chi) with A_j = vec(O_j^T)
        self.matrix = self.operators.transpose(0, 2, 1).reshape(
            n_in * n_out, 256)
        # matrix is the Kronecker product of the two factors up to a
        # fixed column permutation, and rank(A (x) B) = rank A * rank B
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
        """Re Tr[chi O_j] for every row, for a 16 x 16 Hermitian chi.

        Equals ``(matrix @ chi.reshape(-1)).real`` up to rounding.
        """
        # Tr[chi O_j] = sum chi[a b, c d] rho_i^T[c, a] d Pi_k[d, b]:
        # regroup chi as (c a),(d b) and contract with the two factors
        g = chi.reshape(4, 4, 4, 4).transpose(2, 0, 3, 1).reshape(16, 16)
        return (self.input_factor @ g @ self.outcome_factor).real.reshape(-1)

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_j w_j O_j for real weights given in row order.

        Equals ``(weights @ matrix).reshape(16, 16).T`` up to rounding.
        """
        w = weights.reshape(self.input_factor.shape[0], -1)
        g = self.input_factor.T @ w @ self.outcome_factor.T
        return g.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)

    def probabilities(self, channel: ProcessMatrix) -> np.ndarray:
        """Outcome probabilities under the channel, in row order.

        Sub-normalized (postselected) channels yield probabilities that
        do not sum to 1 per setting; that deficit is physical loss.
        """
        if channel.qubits != 2:
            raise ValueError("design covers two-qubit channels only")
        p = (self.matrix @ channel.matrix.reshape(-1)).real
        if channel.normalization == "trace_d":
            p = p / 4.0
        return np.clip(p, 0.0, None)


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
    """Noise-free dataset: exact Poisson means, no sampling."""
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
    chi: ProcessMatrix
    converged: bool
    iterations: int
    log_likelihood: float
    ll_trace: np.ndarray


def _log_likelihood(counts: np.ndarray, probs: np.ndarray) -> float:
    # Poisson likelihood with the global scale profiled out; only the
    # shape term sum n_j ln p_j depends on chi once sum_j O_j ~ identity.
    active = counts > 0.0
    p = probs[active]
    if np.any(p <= 0.0):
        return -math.inf
    return math.fsum((counts[active] * np.log(p)).tolist())


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
    """
    options = options or MleOptions()
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
    counts = dataset.counts
    if counts.shape[0] != design.size:
        raise ValueError("dataset does not match the design size")

    chi = np.eye(16, dtype=np.complex128) / 16.0
    total = max(dataset.total, 1.0)
    active = counts > 0.0
    n_active = counts[active]
    # rows without counts keep weight 0 and so drop out of R
    weights = np.zeros(design.size)

    def r_operator(probs_active: np.ndarray) -> np.ndarray:
        weights[active] = n_active / probs_active
        r = design.weighted_sum(weights)
        return 0.5 * (r + r.conj().T)

    def probs(mat: np.ndarray) -> np.ndarray:
        return np.clip(design.traces(mat)[active], 1e-300, None)

    if n_active.size == 0:
        # no information at all: the flat likelihood keeps the seed state
        return MleResult(ProcessMatrix(chi, 2, "trace_one"), True, 0, 0.0,
                         np.zeros(1))

    ll = _log_likelihood(counts, design.probabilities(
        ProcessMatrix(chi, 2, "trace_one")))
    trace = [ll]
    converged = False
    iterations = 0
    p = probs(chi)
    for iterations in range(1, options.max_iterations + 1):
        r = r_operator(p)
        step = r @ chi @ r
        step = 0.5 * (step + step.conj().T)
        step = step / np.trace(step).real
        p_new = probs(step)
        ll_new = math.fsum((n_active * np.log(p_new)).tolist())
        if ll_new < ll - 1e-9 * (1.0 + abs(ll)):
            # dilution fallback: shrink toward the identity direction
            eps = 1.0
            while eps > 1e-8:
                mixed = (np.eye(16) + eps * r / total) / (1.0 + eps)
                cand = mixed @ chi @ mixed.conj().T
                cand = 0.5 * (cand + cand.conj().T)
                cand = cand / np.trace(cand).real
                p_cand = probs(cand)
                ll_cand = math.fsum((n_active * np.log(p_cand)).tolist())
                if ll_cand >= ll - 1e-12 * (1.0 + abs(ll)):
                    step, ll_new, p_new = cand, ll_cand, p_cand
                    break
                eps *= 0.5
            else:
                raise RuntimeError(
                    "likelihood decreased and dilution could not restore "
                    "monotonicity"
                )
        gain = ll_new - ll
        chi, ll, p = step, ll_new, p_new
        trace.append(ll)
        if gain / total < options.gain_tolerance:
            converged = True
            break

    ll_trace = np.array(trace)
    ll_trace.setflags(write=False)
    return MleResult(
        ProcessMatrix(chi, 2, "trace_one"), converged, iterations, ll,
        ll_trace,
    )


@dataclass(frozen=True)
class FidelityStats:
    mean: float
    std: float


def monte_carlo_errors(
    dataset: TomographyDataset,
    design: TomographyDesign,
    trials: int,
    targets: Mapping[str, Operator],
    seed,
    options: MleOptions | None = None,
) -> dict[str, FidelityStats]:
    """Poissonian bootstrap of the reconstruction's fidelity error bars.

    Each trial resamples every count around the observed value, reruns
    the reconstruction, and evaluates the process fidelity with each
    target; returns per-target mean and sample standard deviation.
    """
    if trials < 2:
        raise ValueError("need at least 2 Monte Carlo trials")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    streams = seed.spawn(trials)
    values: dict[str, list[float]] = {name: [] for name in targets}
    for stream in streams:
        rng = np.random.default_rng(stream)
        resampled = TomographyDataset(
            dataset.phase, rng.poisson(dataset.counts).astype(np.float64),
            dataset.rate,
        )
        result = mle_reconstruct(resampled, design, options)
        for name, target in targets.items():
            values[name].append(process_fidelity(result.chi, target))
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
    phases = np.asarray([as_radians(p) for p in phases], dtype=np.float64)
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
    per-phase spawned streams, so reruns are bit-identical.
    """
    phases = tuple(as_radians(p) for p in (
        standard_phases() if phases is None else phases))
    design = design or default_design()
    root = np.random.SeedSequence(seed)
    rows = []
    for phi, stream in zip(phases, root.spawn(len(phases))):
        count_stream, mc_stream = stream.spawn(2)
        channel = replication_experiment_channel(phi, params)
        dataset = simulate_counts(channel, design, rate, count_stream,
                                  phase=phi)
        result = mle_reconstruct(dataset, design, options)
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
                                result.converged))
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
        writer = csv.writer(fh)
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
    phases: list[float] = []
    rates: list[float] = []
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# phase_values:"):
                phases = json.loads(line.split(":", 1)[1])
            elif line.startswith("# rates:"):
                rates = json.loads(line.split(":", 1)[1])
            elif line.startswith("#"):
                continue
            else:
                rows.append(line)
    datasets = []
    reader = csv.DictReader(rows)
    counts_by_phase: dict[int, np.ndarray] = {}
    for rec in reader:
        pid = int(rec["phase_id"])
        if pid not in counts_by_phase:
            counts_by_phase[pid] = np.zeros(design.size)
        j = design.row_index(int(rec["input_id"]), int(rec["setting_id"]),
                             int(rec["outcome_id"]))
        counts_by_phase[pid][j] = float(rec["count"])
    for pid in sorted(counts_by_phase):
        datasets.append(TomographyDataset(
            phases[pid] if pid < len(phases) else float(pid),
            counts_by_phase[pid],
            rates[pid] if pid < len(rates) else float("nan"),
        ))
    return datasets
