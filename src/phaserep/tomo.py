"""Simulated process tomography with maximum-likelihood reconstruction.

The experiment design prepares product Pauli eigenstates, measures in
product Pauli bases, and records Poissonian coincidence counts.  The
reconstruction maximizes the Poisson likelihood over positive
semidefinite process matrices with an RrhoR fixed-point ascent on a
square-root factor of chi, accelerated by squared extrapolation
(SQUAREM): each cycle takes two RrhoR steps, extrapolates along them and
steps once more, and its iterations count cycles.  Counts are kept as
floats so that the exact expected-count (infinite-statistics) limit
runs through the same code path.

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

from .choi import ProcessMatrix, _chi_fidelity, _choi, _choi_matrices, \
    _gate
from .gates import _cu_phase, _phase_gate, standard_phases
from .optics import OpticsParams, _experiment_channel
from .qmat import PROJECTOR_KETS, _kron, _operator, _phase_list, _real, \
    _reals, _record, _records, _seed, _trials, _wrap

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
        return self._probabilities(_two_qubit(channel))

    def _probabilities(self, channel: ProcessMatrix | np.ndarray
                       ) -> np.ndarray:
        """The kernel of ``probabilities``: a checked two-qubit channel."""
        p = self.traces(channel.matrix if isinstance(channel, ProcessMatrix)
                        else _choi_matrices(channel))
        return np.where(p > 1e-12, p, 0.0)


def _two_qubit(channel: ProcessMatrix | np.ndarray
               ) -> ProcessMatrix | np.ndarray:
    """The design's channel rule: a ``ProcessMatrix`` or a Kraus array
    (the operator-array rule), on two qubits."""
    chi = isinstance(channel, ProcessMatrix)
    if not chi:
        channel = _operator(channel, "channel", 3)
    if (channel.dim if chi else channel.shape[-1]) != 4:
        raise ValueError("design covers two-qubit channels only")
    return channel


@functools.cache
def default_design() -> TomographyDesign:
    """The product-Pauli design (shared instance)."""
    return TomographyDesign()


@dataclass(frozen=True)
class TomographyDataset:
    """Counts for one phase setting, aligned with the design's row order.

    Counts are non-negative and usually integers; the expected-count
    (noise-free) variant stores real-valued means instead.  ``phase`` is
    one phase, stored as a float and not reduced to [0, 2*pi).
    """

    phase: float
    counts: np.ndarray
    rate: float

    def __post_init__(self):
        c = _reals(self.counts, "counts", 0.0)
        object.__setattr__(self, "phase",
                           _phase_list(self.phase, "phase", (0,)))
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
    design = _record(design, "design", TomographyDesign)
    rate, seed = _real(rate, "rate", positive=True), _seed(seed)
    # the dataset record checks the phase
    return _draw_counts(design._probabilities(_two_qubit(channel)), rate,
                        seed, phase)


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
# stop when the log-likelihood gain per observed count over one cycle
# drops below this
GAIN_TOLERANCE = 1e-10


@dataclass(frozen=True)
class MleResult:
    """One reconstruction and its deterministic diagnostics.

    ``iterations`` counts the solver's cycles (three RrhoR steps each,
    see ``_mle_batch``) and ``ll_trace`` holds the seed's
    log-likelihood and one value per cycle.  ``dilutions`` counts the
    plain steps that took the dilution fallback.  ``optimality_gap`` is
    lambda_max(R) / N_total - 1 at the returned chi: it is >= 0 for any
    unit-trace chi (Tr[R chi] = N_total) and 0 exactly at the maximum;
    an empty dataset, whose likelihood is flat, reports 0.
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


def _frobenius(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of the stack ``a``."""
    x = a.reshape(len(a), -1).view(np.float64)
    return np.sqrt((x * x).sum(axis=1))


def _unit_norm(a: np.ndarray) -> np.ndarray:
    """Scale each matrix of ``a`` to unit Frobenius norm, in place."""
    a /= _frobenius(a)[:, None, None]
    return a


def _mle_batch(counts: np.ndarray, design: TomographyDesign) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Accelerated RrhoR ascent for every row of ``counts`` (trials x
    design rows).

    The solver works on a square-root factor A of each chi = A A^dagger,
    of unit Frobenius norm, from A = I / 4.  An RrhoR step maps A to
    R A / ||R A||_F, which is chi -> R chi R / Tr[R chi R].  A cycle
    (SQUAREM: Varadhan & Roland, Scand. J. Stat. 35, 335, 2008) takes
    two such steps, A1 and A2, each with the dilution fallback; with
    r = A1 - A and v = A2 - 2 A1 + A it extrapolates to
    A - 2 alpha r + alpha^2 v, alpha = min(-||r|| / ||v||, -1) (A2
    itself at alpha = -1), rescaled to unit norm, and takes one plain
    step from there.  That step is kept where its log-likelihood is at
    least A2's, and A2 otherwise, so every chi stays PSD and the
    likelihood never falls over a cycle.  A trial stops when its gain
    per count over a cycle drops below ``GAIN_TOLERANCE``, or after
    ``MAX_ITERATIONS`` cycles.

    Returns arrays over the trials: the (trials, 16, 16) chi stack,
    ``converged``, ``dilutions``, the optimality gaps, and the list of
    read-only ``ll_trace`` arrays, one entry longer than the cycle
    count.  It makes no record; callers make those they return.

    The trials still running advance together as stacks, each with its
    own alpha.  Every step acts on each matrix or count row on its own,
    so a trial's result is bit-identical to a solve of that row alone.
    A trial leaves the stack when it meets the stopping test and writes
    back only its chi.  Each cycle works on fresh stacks and records the
    live trials' log-likelihoods as one array; the ``ll_trace`` arrays
    are cut from one buffer at the end, so a batch holds no history
    beyond the cycles it ran.
    """
    if counts.shape[1] != design.size:
        raise ValueError("dataset does not match the design size")
    def chi_of(a: np.ndarray) -> np.ndarray:
        return _hermitian_part(a @ _dagger(a))

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

    def rrhor(a: np.ndarray, p: np.ndarray):
        """A plain RrhoR step of the live trials: R and the new factors."""
        # R = sum_j (n_j / p_j) O_j; rows without counts have weight 0
        r = _hermitian_part(design.weighted_sum(n / p))
        return r, _unit_norm(r @ a)

    def ascent(a, p, ll):
        """One RrhoR step of every live trial, with the dilution fallback
        where the plain step lowers the likelihood."""
        r, step = rrhor(a, p)
        p_new = probs(chi_of(step))
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
                mixed = np.eye(16) + eps * r[pending] / total[
                    pending, None, None]
                cand = _unit_norm(mixed @ a[pending])
                p_cand = probs(chi_of(cand))
                ll_cand = log_likelihood(n[pending], p_cand)
                ll_old = ll[pending]
                ok = ll_cand >= ll_old - 1e-12 * (1.0 + np.abs(ll_old))
                taken = pending[ok]
                step[taken], p_new[taken], ll_new[taken] = (
                    cand[ok], p_cand[ok], ll_cand[ok])
                pending = pending[~ok]
                eps *= 0.5
        return step, p_new, ll_new

    n_trials = counts.shape[0]
    n_total = counts.sum(axis=1)
    chi_out = np.empty((n_trials, 16, 16), dtype=np.complex128)
    chi_out[:] = np.eye(16) / 16.0
    dilutions = np.zeros(n_trials, dtype=int)
    # a trial without counts has a flat likelihood: it keeps the seed
    # and counts as converged after 0 cycles
    converged = n_total == 0.0

    live = np.flatnonzero(~converged)
    n = counts[live]
    total = np.maximum(n_total[live], 1.0)
    a = np.empty((live.size, 16, 16), dtype=np.complex128)
    a[:] = np.eye(16) / 4.0
    p = probs(chi_of(a))
    ll = log_likelihood(n, p)
    # (live trials, their log-likelihoods) at the seed and after each
    # cycle
    history = [(live, ll)]

    for _ in range(MAX_ITERATIONS):
        if live.size == 0:
            break
        a1, p1, ll1 = ascent(a, p, ll)
        a2, p2, ll2 = ascent(a1, p1, ll1)
        r = a1 - a
        v = a2 - a1 - r
        norm_r, norm_v = _frobenius(r), _frobenius(v)
        # alpha = -1 where v vanishes (a fixed point to rounding)
        alpha = np.minimum(-norm_r / np.where(norm_v > 0.0, norm_v, np.inf),
                           -1.0)[:, None, None]
        ax = _unit_norm(a - 2.0 * alpha * r + alpha * alpha * v)
        _, a3 = rrhor(ax, probs(chi_of(ax)))
        p3 = probs(chi_of(a3))
        ll3 = log_likelihood(n, p3)
        # the safeguard: the extrapolated step only where it gains on A2
        kept = ll3 >= ll2
        a_new = np.where(kept[:, None, None], a3, a2)
        p_new = np.where(kept[:, None], p3, p2)
        ll_new = np.where(kept, ll3, ll2)
        gain = ll_new - ll
        a, ll, p = a_new, ll_new, p_new
        history.append((live, ll))
        done = gain / total < GAIN_TOLERANCE
        if done.any():
            converged[live[done]] = True
            chi_out[live[done]] = chi_of(a[done])
            keep = ~done
            live, n, total, a, ll, p = (
                live[keep], n[keep], total[keep], a[keep], ll[keep],
                p[keep])
    chi_out[live] = chi_of(a)

    # one stacked eigvalsh of R at every returned chi; a row of traces
    # does not depend on the stack, so p is the loop's last, bit for bit
    gaps = np.zeros(n_trials)
    solved = np.flatnonzero(n_total > 0.0)
    if solved.size:
        r = design.weighted_sum(counts[solved] / probs(chi_out[solved]))
        lam = np.linalg.eigvalsh(_hermitian_part(r))[:, -1]
        gaps[solved] = lam / n_total[solved] - 1.0

    # trial k's trace is its seed value and one value per cycle it
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
    return chi_out, converged, dilutions, gaps, np.split(flat, starts[1:])


def mle_reconstruct(
    dataset: TomographyDataset,
    design: TomographyDesign,
) -> MleResult:
    """Maximum-likelihood process matrix via accelerated RrhoR ascent.

    An RrhoR step maps chi -> R chi R / Tr[...] with
    R = sum_j (n_j / p_j) O_j, which preserves positivity; the solver
    takes it on a factor A of chi = A A^dagger, as A -> R A / ||R A||_F.
    Each cycle takes two such steps, extrapolates A along them and steps
    once more (SQUAREM; see ``_mle_batch``), keeping the extrapolated
    step only where it gains on the second plain one.  A diluted step
    (I + eps R) replaces any plain step that would lower the likelihood,
    so the log-likelihood trace, one value per cycle, is non-decreasing
    throughout, and ``iterations`` counts cycles.  The result has unit
    trace (the conditional channel's shape; the postselection scale is
    profiled out of the likelihood).

    Probabilities and R go through the design's Kronecker factors
    (``TomographyDesign.traces`` and ``weighted_sum``), not the dense
    design matrix, and the probabilities computed to test a step are
    reused for the next step's R.

    This is a batch of one of the solver that ``monte_carlo_errors`` and
    ``experiment_pipeline`` run on many count vectors at once; the
    result is bit-identical to the one the same counts get there.
    """
    dataset = _record(dataset, "dataset", TomographyDataset)
    design = _record(design, "design", TomographyDesign)
    chi, converged, dilutions, gaps, (trace,) = _mle_batch(
        dataset.counts[None, :], design)
    return MleResult(ProcessMatrix(chi[0], 2), bool(converged[0]),
                     len(trace) - 1, float(trace[-1]), trace,
                     int(dilutions[0]), float(gaps[0]))


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
    dataset = _record(dataset, "dataset", TomographyDataset)
    design = _record(design, "design", TomographyDesign)
    trials, seed = _trials(trials), _seed(seed)
    targets = {name: _gate(u, 4) for name, u in targets.items()}
    chi = _mle_batch(_resample(dataset.counts, trials, seed), design)[0]
    fids = {name: _chi_fidelity(chi, u) for name, u in targets.items()}
    return {name: FidelityStats(float(np.mean(f)), float(np.std(f, ddof=1)))
            for name, f in fids.items()}


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
    fidelities.  A broken rule raises ValueError, and so do phases that
    do not identify the fit: those whose design [1, cos phi] has a
    condition number above ``_FIT_CONDITION_MAX`` (1e8), such as one
    phase, phases mirrored about pi (equal cosines) or phases whose
    cosines differ by less than about 4e-8."""
    phases = _wrap(_phase_list(phases, "phases"))
    values = _reals(fidelities, "fidelities", size=phases.size)
    fit = _fit_cosine(phases, values)
    if fit is None:
        raise ValueError("need phases with distinct cosines to fit: the "
                         "design [1, cos phi] has a condition number "
                         "above 1e8")
    return fit


# Rounding moves the fit's coefficients by about
# (kappa + kappa^2 tan(theta)) u relative, for the condition number
# kappa of the design [1, cos phi], u = 2^-53 and theta the angle
# between the fidelities and their fit.  The bound 1e8 ~ u^(-1/2) keeps
# that below about 1e-8 + tan(theta), so rounding adds no more than the
# misfit itself.  Phases mirrored about pi, whose cosines differ only by
# rounding, reach kappa ~ 1/u, where the coefficients are rounding noise.
_FIT_CONDITION_MAX = 1e8


def _fit_cosine(phases: np.ndarray, values: np.ndarray) -> FitResult | None:
    """The fit of ``fit_cosine``; None where its design's condition
    number exceeds ``_FIT_CONDITION_MAX``, or for one phase."""
    design = np.column_stack([np.ones_like(phases), np.cos(phases)])
    coef, _, _, sv = np.linalg.lstsq(design, values, rcond=None)
    if sv.size < 2 or sv[0] > _FIT_CONDITION_MAX * sv[1]:
        return None
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
    fit: FitResult | None  # None where the phases do not identify a fit
    rate: float
    trials: int
    seed: int  # the root entropy of the run's streams


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
    params = _record(params, "params", OpticsParams)
    trials = _trials(trials, optional=True)
    rate = _real(rate, "rate", positive=True)
    root = _seed(seed)
    phases = tuple(_wrap(_phase_list(
        standard_phases() if phases is None else phases, "phases")).tolist())
    design = default_design()
    streams = [s.spawn(2) for s in root.spawn(len(phases))]
    channels = _experiment_channel(np.array(phases), params)
    # each phase's counts equal simulate_counts on its own Kraus array
    datasets = [
        _draw_counts(p, rate, count_stream, phi)
        for phi, p, (count_stream, _) in zip(
            phases, design._probabilities(channels), streams)
    ]
    if trials >= 2:
        # one batch a phase, solved as the loop reaches it, so no more
        # than trials + 1 solves are held at once: row 0 is the phase's
        # estimate, rows 1..T its resamples
        solved = (
            _mle_batch(np.concatenate([d.counts[None], _resample(
                d.counts, trials, mc_stream)]), design)
            for d, (_, mc_stream) in zip(datasets, streams))
    else:
        # all phases' estimates as one batch, cut into one row a phase
        batch = _mle_batch(np.array([d.counts for d in datasets]), design)
        solved = ([a[k:k + 1] for a in batch] for k in range(len(phases)))
    rows = []
    for phi, dataset, (chi, converged, _, gaps, ll_traces) in zip(
            phases, datasets, solved):
        u, cu = _phase_gate(phi), _cu_phase(phi)
        # each target's fidelities over the batch in one call
        f_cu, f_uu = _chi_fidelity(chi, cu), _chi_fidelity(chi, _kron(u, u))
        f_cu_std, f_uu_std = (float(np.std(f[1:], ddof=1)) if trials >= 2
                              else math.nan for f in (f_cu, f_uu))
        rows.append(PhaseReport(
            phi, ProcessMatrix(chi[0], 2), _choi(cu[None]), dataset,
            float(f_cu[0]), float(f_uu[0]), f_cu_std, f_uu_std,
            len(ll_traces[0]) - 1, bool(converged[0]), float(gaps[0])))
    fit = _fit_cosine(np.array(phases), np.array([r.f_uu for r in rows]))
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
    datasets = _records(datasets, "datasets", TomographyDataset)
    design = _record(design, "design", TomographyDesign)
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
    a row that is not 5 comma-separated numbers (a blank line or an empty
    cell among them), or a missing, repeated or malformed header, raises
    ``ValueError``; such a row, a count that is not finite or is
    negative, a repeated header, a header that is not JSON and a header
    entry that breaks its dataset field's rule (the phase rule, one
    phase; the rate's real-number rule) are named by their 1-based line
    number.
    """
    design = _record(design, "design", TomographyDesign)
    headers = {}  # key -> (1-based line number, the header's value)
    lines = []  # (1-based line number, text) of the lines not comments
    with open(path, newline="") as fh:
        for number, line in enumerate(fh, 1):
            if line.startswith(("# phase_values:", "# rates:")):
                key, value = line[2:].split(":", 1)
                if key in headers:
                    raise ValueError(f"counts file line {number}: a second "
                                     f"'# {key}:' header")
                try:
                    headers[key] = number, json.loads(value)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"counts file line {number}: the '# {key}:' header "
                        f"is not JSON ({exc.msg})") from None
            elif not line.startswith("#"):
                lines.append((number, line))
    if set(headers) != {"phase_values", "rates"} \
            or not all(isinstance(v, list) for _, v in headers.values()) \
            or len(headers["phase_values"][1]) != len(headers["rates"][1]):
        raise ValueError("counts file needs '# phase_values:' and "
                         "'# rates:' headers, lists with one entry per "
                         "phase")
    # each entry passes the rule of the field it fills at its header's
    # line, before the records check it again
    rules = {"phase_values": lambda x: _phase_list(x, "phase", (0,)),
             "rates": lambda x: _real(x, "rate", positive=True)}
    for key, (number, values) in headers.items():
        try:
            for x in values:
                rules[key](x)
        except ValueError as exc:
            raise ValueError(f"counts file line {number}: {exc}") from None
    phases, rates = headers["phase_values"][1], headers["rates"][1]
    # the first line left is the column names
    rows = []
    for number, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 5:
            raise ValueError(f"counts file line {number}: a data row needs "
                             f"5 comma-separated cells, got {len(cells)}")
        try:
            rows.append(list(map(float, cells)))
        except ValueError:
            raise ValueError(f"counts file line {number}: a data row needs "
                             f"5 numbers, got {line.strip()!r}") from None
    data = np.array(rows, dtype=np.float64).reshape(-1, 5)
    # a count that breaks the dataset's counts rule (finite, >= 0) is
    # named by its line, before the record checks them all again
    counts = data[:, 4]
    for k in np.flatnonzero(~(np.isfinite(counts) & (counts >= 0.0)))[:1]:
        try:
            _reals(counts[k:k + 1], "counts", 0.0)
        except ValueError as exc:
            raise ValueError(
                f"counts file line {lines[1 + k][0]}: {exc}") from None
    index = _row_layout(len(phases), design)
    if data.shape[0] != index.shape[0] \
            or not np.array_equal(data[:, :4], index):
        raise ValueError(
            f"counts rows must list phase ids 0..{len(phases) - 1}, each "
            f"with its {design.size} design rows once and in order")
    return [TomographyDataset(phi, c, rate) for phi, c, rate in zip(
        phases, counts.reshape(len(phases), design.size), rates)]
