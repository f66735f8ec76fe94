"""N-to-M phase-gate superreplication via Hamming-weight imprinting.

A permutation unitary V copies the Hamming weight w of the M-qubit
register (clipped to the window [m_min, m_max)) into an N-qubit ancilla,
the available gate copies act on the ancilla, and V is applied again.
On the ancilla-|0> sector this realizes the diagonal map with phase
multiple f(w): 0 below the window, w - m_min inside, N above.  V is
kept as its index permutation and every map as its diagonal, so nothing
here builds a 2^(M+N)-wide matrix.

Fidelity with the ideal M-fold gate is a binomial sum over weights.  The
weights C(M, w) / 2^M are built once per protocol size from exact
integer binomials, each correctly rounded to a double, and every phase
then costs two dot products; the result is accurate to about 1e-16 for
wide registers (M ~ 1000 and beyond), and no state vectors are ever
built on that path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import _check_width, normalize_phase


@dataclass(frozen=True)
class ReplicationSpec:
    """Protocol size: ``copies`` gate uses produce ``replicas`` outputs."""

    copies: int
    replicas: int

    def __post_init__(self):
        if self.copies < 1 or self.replicas < 1:
            raise ValueError("copies and replicas must be positive")

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


def _fidelity_terms(spec: ReplicationSpec
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Weights c_w = C(M, w) / 2^M and phase offsets g_w = f(w) - w.

    The binomials are exact integers and each quotient by 2^M is
    correctly rounded, so a weight carries at most one rounding; weights
    below the smallest subnormal are exact zeros.  When the window
    covers every weight, g is constant and the sum is a single unit
    phasor, returned as the one term (1, 0).
    """
    m = spec.replicas
    offsets = phase_profile(spec) - np.arange(m + 1)
    if offsets.min() == offsets.max():
        return np.ones(1), np.zeros(1, dtype=np.int64)
    scale = 1 << m
    binomial, weights = 1, []
    for w in range(m + 1):
        weights.append(binomial / scale)
        binomial = binomial * (m - w) // (w + 1)
    return np.array(weights), offsets


def _fidelity(weights: np.ndarray, offsets: np.ndarray, phi: float
              ) -> float:
    """|sum_w c_w e^{i g_w phi}|^2 from two dot products."""
    angles = offsets * phi
    re = float(weights @ np.cos(angles))
    im = float(weights @ np.sin(angles))
    return re * re + im * im


def replication_fidelity(spec: ReplicationSpec, phi: float) -> float:
    """Gate fidelity of the replicated map with the M-fold ideal gate.

    Equals |sum_w C(M,w) 2^{-M} e^{i (f(w)-w) phi}|^2.  The weights are
    exact integer binomials correctly rounded to doubles and the sum is
    two dot products, accurate to about 1e-16.  When the window covers
    every weight (copies >= replicas) the sum telescopes to exactly 1.
    """
    weights, offsets = _fidelity_terms(spec)
    return _fidelity(weights, offsets, normalize_phase(phi))


def default_phi_grid() -> np.ndarray:
    # F(phi) = F(2*pi - phi), so [0, pi] covers the full range.
    return np.linspace(0.0, math.pi, 513)


def worst_case_fidelity(
    spec: ReplicationSpec, phi_grid: Sequence[float] | None = None
) -> tuple[float, float]:
    """(phi, fidelity) at the grid point of lowest fidelity.

    The weights are built once per call; each grid point then costs the
    same two dot products as ``replication_fidelity``.
    """
    grid = default_phi_grid() if phi_grid is None else np.asarray(
        phi_grid, dtype=np.float64
    )
    if grid.size == 0:
        raise ValueError("phi grid must not be empty")
    weights, offsets = _fidelity_terms(spec)
    values = [_fidelity(weights, offsets, normalize_phase(p)) for p in grid]
    i = int(np.argmin(values))
    return float(grid[i]), values[i]


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
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if m_list is not None and len(m_list) != len(n_list):
        raise ValueError("m_list must pair up with n_list")
    rows = []
    for i, n in enumerate(n_list):
        if m_list is None:
            m = max(1, math.floor(n ** (2.0 - alpha)))
            a = alpha
        else:
            m = int(m_list[i])
            a = effective_alpha(n, m)
        spec = ReplicationSpec(copies=int(n), replicas=m)
        phi, fid = worst_case_fidelity(spec, phi_grid)
        rows.append(SweepRow(int(n), m, a, phi, fid))
    return rows
