"""N-to-M phase-gate superreplication via Hamming-weight imprinting.

A permutation unitary V copies the Hamming weight w of the M-qubit
register (clipped to the window [m_min, m_max)) into an N-qubit ancilla,
the available gate copies act on the ancilla, and V is applied again.
On the ancilla-|0> sector this realizes the diagonal map with phase
multiple f(w): 0 below the window, w - m_min inside, N above.  V is
kept as its index permutation and every map as its diagonal, so nothing
here builds a 2^(M+N)-wide matrix.

Fidelity with the ideal M-fold gate is a binomial sum over weights
C(M, w) / 2^M.  Only the tails outside the window enter the infidelity
1 - F, and the tail above mirrors the one below, so only the weights
below the window are built, from exact integer binomials correctly
rounded to doubles, until they underflow.  1 - F is computed without
cancellation for a whole phase grid at once, in fixed-size blocks:
about 4 sqrt(L) sines and one small matrix product per phase for L
tail weights.  It is accurate to a few ulps of itself, also where F
rounds to 1, and no state vectors are ever built on that path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import _check_width, _integer, _phases, _real, \
    normalize_phase


@dataclass(frozen=True)
class ReplicationSpec:
    """Protocol size: ``copies`` gate uses produce ``replicas`` outputs."""

    copies: int
    replicas: int

    def __post_init__(self):
        for name in ("copies", "replicas"):
            object.__setattr__(self, name, _integer(getattr(self, name),
                                                    name, 1))

    # Window thresholds, recomputed on demand; chosen symmetrically
    # about replicas/2 so the binomial bulk sits inside the window.
    @property
    def m_min(self) -> int:
        return (self.replicas - self.copies + 1) // 2

    @property
    def m_max(self) -> int:
        return (self.replicas + self.copies + 1) // 2


def phase_profile(spec: ReplicationSpec) -> np.ndarray:
    """f(w) = 0 / (w - m_min) / copies below/inside/above the window.

    Returned as an int64 array indexed by the Hamming weight w.
    """
    weights = np.arange(spec.replicas + 1, dtype=np.int64)
    return np.clip(weights - spec.m_min, 0, spec.copies)


def ancilla_imprint(spec: ReplicationSpec) -> np.ndarray:
    """Ancilla bit pattern k(w) = 2^N - 2^(N - f(w)) for every weight w.

    The |k| = f(w) set bits are a unary prefix at the most significant
    ancilla positions; any placement gives the same replicated map, this
    one makes V deterministic.  The patterns are int64, so an ancilla
    wider than 62 qubits raises ``OverflowError``.
    """
    n = spec.copies
    return (1 << n) - (1 << (n - phase_profile(spec)))


def _weight_table(bits: int) -> np.ndarray:
    w = np.zeros(1, dtype=np.int64)
    for _ in range(bits):
        w = np.concatenate([w, w + 1])
    return w


def build_V(spec: ReplicationSpec) -> np.ndarray:
    """Imprinting unitary V on replicas + copies qubits, as a permutation.

    Returns the int64 array p with V|c> = |p[c]>.  V acts as
    |m>|n> -> |m>|n xor k(|m|)>, an involution; the system register
    occupies the most significant qubits, the ancilla the least, so
    p[c] = c xor k(|c >> copies|).
    """
    n, m = spec.copies, spec.replicas
    _check_width(m + n)
    k = ancilla_imprint(spec)[_weight_table(m)]
    return np.arange(1 << (m + n), dtype=np.int64) ^ np.repeat(k, 1 << n)


def replicated_map(spec: ReplicationSpec, phi: float) -> np.ndarray:
    """Diagonal e^{i f(|m|) phi} of the map induced on the replicas."""
    phi = normalize_phase(phi)
    m = spec.replicas
    _check_width(m)
    return np.exp(1j * phi * phase_profile(spec)[_weight_table(m)])


def _tail_weights(spec: ReplicationSpec) -> tuple[np.ndarray, int]:
    """Weights below the window, nearest first, and the parity shift.

    Entry j is C(M, w) / 2^M at w = m_min - 1 - j, with phase exponent
    k = f(w) - w + m_min = j + 1; by C(M, w) = C(M, M - w) the weight at
    k = -(j + 1), above the window, is entry j + shift.  The exact
    binomials step outward by C(M, w - 1) = C(M, w) w / (M - w + 1), each
    quotient by 2^M is correctly rounded, and the tail stops before the
    first weight that rounds to 0 (the weights fall away from M / 2).
    """
    m, w = spec.replicas, spec.m_min - 1
    scale = 1 << m
    binomial = math.comb(m, w) if w >= 0 else 0
    tail = []
    while weight := binomial / scale:
        tail.append(weight)
        binomial = binomial * w // (m - w + 1)
        w -= 1
    return np.array(tail), (m - spec.copies) % 2


# Phases evaluated together; every temporary of the kernel holds at most
# _BLOCK x sqrt(M) doubles, whatever the grid size.
_BLOCK = 256


def _one_minus_phasor(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2 sin^2(theta/2), sin theta), so 1 - e^{i theta} = first - i second.

    Neither part cancels for small theta, unlike 1 - cos theta.
    """
    half = np.sin(0.5 * theta)
    return 2.0 * half * half, np.sin(theta)


def _infidelities(terms: tuple[np.ndarray, int], phases: np.ndarray
                  ) -> np.ndarray:
    """1 - F at every phase of a finite 1-D grid, free of cancellation.

    With the weights summing to 1, S = sum_w c_w e^{i k_w phi} = 1 - D,
    where D = sum over the tails of c_w (1 - e^{i k_w phi}); window terms
    have k = 0 and drop out exactly, and 1 - F = 2 Re D - |D|^2.  The
    tails of ``_tail_weights`` fill two rows indexed by |k|, k > 0 and
    k < 0 (the second enters D conjugated), and |k| = q b + r with
    b = ceil(sqrt(L + 1)) over the L tail weights.  Then
    1 - e^{i(qb + r)phi} = (1 - B_q) + B_q (1 - C_r) with
    B_q = e^{i qb phi} and C_r = e^{i r phi}, so each phase costs about
    4 sqrt(L) sines and one real (2q x b) @ (b x 2) product.  Splitting
    at k = 0 keeps the rounding of each term's angle proportional to its
    own |k|.  An empty tail gives 1 - F = 0.  The product is made once
    per phase, so a phase's value does not depend on the grid around it.
    """
    tail, shift = terms
    span = tail.size + 1
    b = math.isqrt(span - 1) + 1
    q = -(-span // b)
    folded = np.zeros((2, q * b))
    folded[0, 1:span] = tail
    folded[1, 1:span - shift] = tail[shift:]
    rows = folded.reshape(2 * q, b)
    row_sums = folded.reshape(2, q, b).sum(axis=2)
    r = np.arange(b, dtype=np.float64)
    qb = b * np.arange(q, dtype=np.float64)
    phases = np.remainder(phases, 2.0 * math.pi)
    out = np.empty(phases.size)
    for start in range(0, phases.size, _BLOCK):
        phi = phases[start:start + _BLOCK, None]
        # P_q = sum_r h_qr (1 - C_r) = px - i py, per side
        p = np.matmul(rows, np.stack(_one_minus_phasor(phi * r), axis=-1))
        px = p[..., 0].reshape(-1, 2, q)
        py = p[..., 1].reshape(-1, 2, q)
        # 1 - B_q = u - i v; D_side = sum_q (1 - B_q) H_q + B_q P_q
        u, v = (part[:, None, :] for part in _one_minus_phasor(phi * qb))
        re = (row_sums * u + (1.0 - u) * px + v * py).sum(axis=2)
        im = (v * px - (1.0 - u) * py - row_sums * v).sum(axis=2)
        d_re = re[:, 0] + re[:, 1]
        d_im = im[:, 0] - im[:, 1]
        out[start:start + _BLOCK] = 2.0 * d_re - (d_re * d_re + d_im * d_im)
    return out


def _phase_grid(phases) -> np.ndarray:
    """The caller's phases as a float array, checked by the phase rule
    but not wrapped, so a grid point is reported as it was given."""
    grid = _phases(phases)
    if grid.ndim != 1:
        raise ValueError("phi grid must be one-dimensional")
    if grid.size == 0:
        raise ValueError("phi grid must not be empty")
    return grid


def replication_fidelity(spec: ReplicationSpec, phi: float) -> float:
    """Gate fidelity of the replicated map with the M-fold ideal gate.

    Equals |sum_w C(M,w) 2^{-M} e^{i (f(w)-w) phi}|^2, computed as 1 minus
    the cancellation-free infidelity of ``_infidelities`` on a grid of
    this one phase, so it equals ``worst_case_fidelity``'s value at the
    same phase.  Only the tail weights below the window are built; the
    infidelity is accurate to a few ulps of itself.  When the window
    covers every weight (copies >= replicas) the fidelity is exactly 1.
    """
    grid = _phase_grid([phi])
    return 1.0 - float(_infidelities(_tail_weights(spec), grid)[0])


def default_phi_grid() -> np.ndarray:
    # F(phi) = F(2*pi - phi), so [0, pi] covers the full range.
    return np.linspace(0.0, math.pi, 513)


def worst_case_fidelity(
    spec: ReplicationSpec, phi_grid: Sequence[float] | None = None
) -> tuple[float, float]:
    """(phi, fidelity) at the grid point of largest infidelity.

    The tail weights are built once per call and the whole grid goes
    through one kernel in blocks of phases, so memory does not grow with
    the grid; each value equals ``replication_fidelity`` at that phase.
    The grid is a non-empty 1-D array of phases.
    """
    grid = default_phi_grid() if phi_grid is None else _phase_grid(phi_grid)
    infidelity = _infidelities(_tail_weights(spec), grid)
    i = int(np.argmax(infidelity))
    return float(grid[i]), 1.0 - float(infidelity[i])


@dataclass(frozen=True)
class SweepRow:
    copies: int
    replicas: int
    alpha: float
    worst_phi: float
    worst_fidelity: float


def effective_alpha(copies: int, replicas: int) -> float:
    """alpha with replicas = copies^(2-alpha); nan for a single copy."""
    if copies == 1:
        return float("nan")
    return 2.0 - math.log(replicas) / math.log(copies)


def asymptotic_sweep(
    alpha: float,
    n_list: Sequence[int],
    phi_grid: Sequence[float] | None = None,
    m_list: Sequence[int] | None = None,
) -> list[SweepRow]:
    """Worst-case fidelity per protocol size with M = floor(N^(2-alpha)).

    Passing ``m_list`` overrides the power law with explicit replica
    counts (paired with ``n_list``); the reported alpha is then the
    effective exponent of each pair.
    """
    alpha = _real(alpha, "alpha", positive=True)
    if m_list is not None and len(m_list) != len(n_list):
        raise ValueError("m_list must pair up with n_list")
    rows = []
    for i, n in enumerate(n_list):
        # N is checked before the power law raises it to 2 - alpha
        n = _integer(n, "copies", 1)
        m = max(1, math.floor(n ** (2.0 - alpha))) if m_list is None \
            else m_list[i]
        spec = ReplicationSpec(copies=n, replicas=m)
        a = alpha if m_list is None else effective_alpha(n, spec.replicas)
        phi, fid = worst_case_fidelity(spec, phi_grid)
        rows.append(SweepRow(spec.copies, spec.replicas, a, phi, fid))
    return rows
