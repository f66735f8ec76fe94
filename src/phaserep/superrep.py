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
below the window are kept, until they underflow.  They come from one
floating-point cumulative product of binomial ratios, outward from the
mode M / 2 and about 19.3 sqrt(M) long, each within a stated relative
bound of C(M, w) / 2^M; no big integer is built, and ``ReplicationSpec``
refuses an M above 10^12, past that bound.  1 - F is computed
without cancellation for a whole phase grid at once, in fixed-size
blocks: about 4 sqrt(L) sines and one small matrix product per phase for
L tail weights.  Its error is bounded relative to the tail mass (see
``replication_fidelity``), also where F rounds to 1, and no state
vectors are ever built on that path.

The worst case over a phase grid is found by screen and verify.  On the
grid np.linspace(0, pi, G) the tail sum at every phase is one real FFT.
Its estimate of 1 - F comes with an error bound Delta that covers the
FFT, the grid's rounding, the kernel's own error and a floor for tails
of subnormal mass.  Only the phases whose estimate lies within 2 Delta
of the largest go to the kernel, so the reported phase and fidelity are
the kernel's worst over the whole grid.  On any other grid, below 3 or
above ``_SCREEN_MAX`` phases, or for an empty tail, the kernel evaluates
every phase.  numpy.fft is loaded by the first screen, not on import.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import _check_width, _integer, _phase_list, _real, _record, \
    _sizes, normalize_phase


# The largest replica count: ``_tail_weights`` states its error bound up
# to M = 10^12 (its ratios stay quotients of exact integers below 2^53),
# and holds arrays of about 19.3 sqrt(M) doubles, 155 MB each there.
_REPLICAS_MAX = 10 ** 12


@dataclass(frozen=True)
class ReplicationSpec:
    """Protocol size: ``copies`` gate uses produce ``replicas`` outputs.

    Both are positive integers, and ``replicas`` is at most 10^12, the
    largest M whose fidelity carries a stated error bound; a larger one
    raises ``ValueError`` before anything is allocated.
    """

    copies: int
    replicas: int

    def __post_init__(self):
        for name in ("copies", "replicas"):
            object.__setattr__(self, name, _integer(getattr(self, name),
                                                    name, 1))
        if self.replicas > _REPLICAS_MAX:
            raise ValueError(f"replicas {self.replicas} exceeds the limit "
                             "10^12 of the superreplication weights")

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
    return _phase_profile(_record(spec, "spec", ReplicationSpec))


def _phase_profile(spec: ReplicationSpec) -> np.ndarray:
    weights = np.arange(spec.replicas + 1, dtype=np.int64)
    return np.clip(weights - spec.m_min, 0, spec.copies)


def ancilla_imprint(spec: ReplicationSpec) -> np.ndarray:
    """Ancilla bit pattern k(w) = 2^N - 2^(N - f(w)) for every weight w.

    The |k| = f(w) set bits are a unary prefix at the most significant
    ancilla positions; any placement gives the same replicated map, this
    one makes V deterministic.  The patterns are int64, so an ancilla
    wider than 62 qubits raises ``OverflowError``.
    """
    return _ancilla_imprint(_record(spec, "spec", ReplicationSpec))


def _ancilla_imprint(spec: ReplicationSpec) -> np.ndarray:
    n = spec.copies
    return (1 << n) - (1 << (n - _phase_profile(spec)))


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
    spec = _record(spec, "spec", ReplicationSpec)
    _check_width(spec.replicas + spec.copies)
    return _build_V(spec)


def _build_V(spec: ReplicationSpec) -> np.ndarray:
    n, m = spec.copies, spec.replicas
    k = _ancilla_imprint(spec)[_weight_table(m)]
    return np.arange(1 << (m + n), dtype=np.int64) ^ np.repeat(k, 1 << n)


def replicated_map(spec: ReplicationSpec, phi: float) -> np.ndarray:
    """Diagonal e^{i f(|m|) phi} of the map induced on the replicas."""
    spec, phi = _record(spec, "spec", ReplicationSpec), normalize_phase(phi)
    m = spec.replicas
    _check_width(m)
    return np.exp(1j * phi * _phase_profile(spec)[_weight_table(m)])


# C(M, w) / 2^M <= exp(-2 d^2 / M) at distance d = |w - M/2| (Hoeffding),
# which is at most 2^-1076, and so rounds to 0, from d = _UNDERFLOW sqrt(M)
_UNDERFLOW = math.sqrt(1076 * math.log(2) / 2)


def _tail_weights(spec: ReplicationSpec) -> tuple[np.ndarray, int]:
    """Weights below the window, nearest first, and the parity shift.

    Entry j is C(M, w) / 2^M at w = m_min - 1 - j, with phase exponent
    k = f(w) - w + m_min = j + 1; by C(M, w) = C(M, M - w) the weight at
    k = -(j + 1), above the window, is entry j + shift.  The tail stops
    before the first weight that rounds to 0 (the weights fall away from
    M / 2).

    One cumulative product, started at 2^600 at the mode h = floor(M/2),
    steps outward by C(M, w - 1) = C(M, w) w / (M - w + 1), each ratio
    the rounded quotient of two exact integers (for M < 2^53), and stops
    at the distance _UNDERFLOW sqrt(M) + 2 from h, past which every
    weight rounds to 0.  Every partial product whose weight does not
    round to 0 is at least 2^-475, a normal double.  The normaliser sums
    the products over both mirrored halves, and each weight is one
    division by it, so a subnormal weight is rounded once.

    Error bound, for u = 2^-53: the product at w = h - i carries 2i
    roundings, and so does its mirror.  Their mean under the binomial
    weights, which the normaliser carries, is at most 2 E|w - M/2| <=
    sqrt(M).  Its sum adds at most log2(terms) + 25 more (numpy's
    pairwise sum: blocks of up to 128 on 8 accumulators), adding the
    mode's term one and the division one.  So each weight is within

        (2 (h - w) + sqrt(M) + log2(terms) + 32) u

    relative of C(M, w) / 2^M, which leaves a few u for the second
    order up to M = 10^12 (the spec's limit), plus at most 2^-1075
    below 2^-1022.  Only a weight within that bound of 2^-1075 can land
    on the other side of the cut; the exact tie C(1075, 0) / 2^1075 =
    2^-1075, which rounds to 0, comes out as 2^-1074.  Each array holds
    at most _UNDERFLOW sqrt(M) + 3 doubles (_UNDERFLOW = 19.3), whatever
    the window.
    """
    m, top = spec.replicas, spec.m_min - 1
    mode = m // 2
    low = max(0, mode - math.floor(_UNDERFLOW * math.sqrt(m)) - 2)
    w = np.arange(mode, low, -1, dtype=np.float64)
    # entry i is 2^600 C(M, mode - i) / C(M, mode)
    scaled = np.concatenate(([2.0 ** 600], w / (m + 1.0 - w)))
    np.cumprod(scaled, out=scaled)
    # both halves: the mode once for even M (h = M - h), twice for odd
    total = (1 + m % 2) * scaled[0] + 2.0 * scaled[1:].sum()
    tail = scaled[mode - top:] / total  # empty when top < low
    return tail[:np.count_nonzero(tail)], (m - spec.copies) % 2


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


def replication_fidelity(spec: ReplicationSpec, phi: float) -> float:
    """Gate fidelity of the replicated map with the M-fold ideal gate.

    Equals |sum_w C(M,w) 2^{-M} e^{i (f(w)-w) phi}|^2, computed as 1 minus
    the cancellation-free infidelity of ``_infidelities`` on a grid of
    this one phase, so it equals ``worst_case_fidelity``'s value at the
    same phase.  Only the tail weights below the window are kept, each
    within the relative bound eps_w of ``_tail_weights``.  For tail mass
    tau over both tails, L weights and u = 2^-53, 1 - F is then within

        4 eps tau (1 + 2 tau) + (38 L + 64 sqrt(L) + 128) u tau

    of its exact value, eps the mean of eps_w under the tail weights: the
    weights move D (``_infidelities``) by at most 2 eps tau, and
    1 - F = 2 Re D - |D|^2 by at most 2 (1 + |D|) <= 2 (1 + 2 tau) times
    that, to first order; the kernel's own rounding is the second term
    (see ``_estimate``).  When the window covers every weight
    (copies >= replicas) the fidelity is exactly 1.
    """
    spec = _record(spec, "spec", ReplicationSpec)
    grid = np.atleast_1d(_phase_list(phi, "phi", (0,)))
    return 1.0 - float(_infidelities(_tail_weights(spec), grid)[0])


def default_phi_grid() -> np.ndarray:
    # F(phi) = F(2*pi - phi), so [0, pi] covers the full range.
    return np.linspace(0.0, math.pi, 513)


def worst_case_fidelity(
    spec: ReplicationSpec, phi_grid: Sequence[float] | None = None
) -> tuple[float, float]:
    """(phi, fidelity) at the first grid point of largest infidelity.

    The tail weights are built once per call.  On the grid
    np.linspace(0, pi, G) with 3 <= G <= ``_SCREEN_MAX`` (the default
    grid is one) a real FFT estimates the infidelity at every phase to
    within a stated bound Delta (see ``_estimate``), and the kernel
    evaluates only the phases within 2 Delta of the largest estimate.
    On any other grid, or when the window holds every weight, the kernel
    evaluates every phase, in blocks.  Either way (phi, fidelity) is the
    kernel's worst over the whole grid, and the fidelity equals
    ``replication_fidelity`` at phi.  Memory does not grow with the
    grid: the screen's temporaries stay under about 2 MB, and the
    kernel's hold at most ``_BLOCK`` x sqrt(M) doubles at any grid size.
    The grid is a non-empty 1-D array of phases.
    """
    spec = _record(spec, "spec", ReplicationSpec)
    return _worst_case_fidelity(spec, default_phi_grid() if phi_grid is None
                                else _phase_list(phi_grid, "phi_grid"))


def _worst_case_fidelity(spec: ReplicationSpec, grid: np.ndarray
                         ) -> tuple[float, float]:
    terms = _tail_weights(spec)
    candidates = _screen(terms, grid)
    infidelity = _infidelities(terms, grid[candidates])
    i = int(np.argmax(infidelity))
    return float(grid[candidates[i]]), 1.0 - float(infidelity[i])


# Largest grid the screen takes; above it every phase goes to the kernel.
# The screen's temporaries hold about eight times this many doubles.
_SCREEN_MAX = 2 ** 15 + 1


def _screen(terms: tuple[np.ndarray, int], grid: np.ndarray) -> np.ndarray:
    """Indices of ``grid`` that can hold the largest ``_infidelities``.

    They are the phases whose ``_estimate`` lies within 2 Delta of the
    largest estimate.  With every estimate within Delta of the kernel's
    value, the largest kernel value, and every value that ties with it,
    lies at a returned index, in grid order.  Every index is returned
    when the screen does not apply: a grid that is not exactly
    np.linspace(0, pi, G), G < 3, G above ``_SCREEN_MAX`` or an empty
    tail.
    """
    size = grid.size
    if not (3 <= size <= _SCREEN_MAX and terms[0].size
            and np.array_equal(grid, np.linspace(0.0, math.pi, size))):
        return np.arange(size)
    estimate, delta = _estimate(terms, size)
    return np.flatnonzero(estimate >= estimate.max() - 2.0 * delta)


def _estimate(terms: tuple[np.ndarray, int], size: int
              ) -> tuple[np.ndarray, float]:
    """1 - F at every phase of np.linspace(0, pi, G), G = size >= 3, and a
    bound Delta on its distance from ``_infidelities`` there.

    Phase m is m pi / (G - 1) = 2 pi m / P with P = 2 (G - 1), so
    D = tau - sum_k a_k e^{i k phi} at all G phases is one real FFT of
    length P, whose G outputs np.fft.rfft returns.  a_k is tail entry
    |k| - 1 for k > 0 and entry |k| - 1 + shift for k < 0, folded mod P,
    and tau = ||a||_1 <= 1 is their sum.  The FFT's sign conjugates D,
    which leaves 2 Re D - |D|^2 unchanged.  For L tail weights and
    u = 2^-53 the bound is

        Delta = (256 Q log2 Q + 128 L) u tau + (Q^2 + L) 2^-1068,

    with Q = 4 P.  Its parts:
    - FFT.  A pass of radix p adds at most (p + 3) u times the mass of
      the inputs that feed one output, and those inputs partition the
      folded vector.  For a large prime factor of P, numpy's pocketfft
      runs Bluestein's algorithm: two FFTs of a padded length n2 < Q
      (radices up to 11) around a convolution that sums n2 such errors
      with weights at most 1.  Either way D is off by at most
      2 Q (14 log2 Q + 4) u tau.  Folding and tau, each a sum of at
      most 2 L weights in some order, add at most 4 L u tau, and
      2 Re D - |D|^2 multiplies an error in D by at most 7, since
      |D| <= 2 tau <= 2.
    - Grid.  linspace's points lie within 2 pi u + |pi - fl(pi)| < 8 u
      of m pi / (G - 1), and |d(1 - F)/d phi| <= 2 (1 + |D|) sum |k a_k|
      <= 6 L tau, so the points add 48 L u tau.
    - Kernel.  Its angles k phi are off by at most 2 pi u |k|, which
      adds under 38 L u tau; its sums, of at most 2 sqrt(L) + 2 terms
      each, add under 64 (sqrt(L) + 2) u tau.
    - Floor.  Every rounding errs by at most u |value| + 2^-1075; the
      first part is counted above.  One output of an FFT of length n
      depends on at most 8 n roundings, one of Bluestein's on at most
      9 n2^2, one kernel value on at most 8 L, and 2 Re D - |D|^2 scales
      those by 7, so the second part adds at most (Q^2 + L) 2^-1068.
      It bounds the error of a tail whose mass is subnormal, where
      u tau underflows.
    The parts sum to less than Delta.  The temporaries hold about eight
    doubles per phase, at most about 2 MB under ``_SCREEN_MAX``.
    """
    tail, shift = terms
    period = 2 * (size - 1)
    k = np.arange(1, tail.size + 1)
    weights = np.concatenate([tail, tail[shift:]])
    folded = np.bincount(np.concatenate([k, -k[:tail.size - shift]]) % period,
                         weights=weights, minlength=period)
    mass = weights.sum()
    spectrum = np.fft.rfft(folded)
    re = mass - spectrum.real
    estimate = 2.0 * re - (re * re + spectrum.imag * spectrum.imag)
    q = 4 * period
    delta = (256 * q * math.log2(q) + 128 * tail.size) * mass * 2.0 ** -53 \
        + (q * q + tail.size) * 2.0 ** -1068
    return estimate, float(delta)


@dataclass(frozen=True)
class SweepRow:
    """One ``asymptotic_sweep`` size, with its worst phase and fidelity."""

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
    effective exponent of each pair.  Each size's worst case is
    ``worst_case_fidelity``'s on ``phi_grid`` (``default_phi_grid()`` when
    omitted): on that uniform grid, and on np.linspace(0, pi, G) for
    3 <= G <= ``_SCREEN_MAX``, one FFT screens the phases and the kernel
    evaluates only the candidates; on any other grid it evaluates every
    phase.  Every size passes the ``ReplicationSpec`` rules, M <= 10^12
    among them, before any is computed.
    """
    alpha = _real(alpha, "alpha", positive=True)
    n_list = _sizes(n_list, "copies")  # before the power law uses N
    m_list = None if m_list is None else _sizes(m_list, "replicas")
    if m_list is not None and len(m_list) != len(n_list):
        raise ValueError("m_list must pair up with n_list")
    grid = default_phi_grid() if phi_grid is None \
        else _phase_list(phi_grid, "phi_grid")
    power_law = m_list is None
    if power_law:
        m_list = [max(1, math.floor(n ** (2.0 - alpha))) for n in n_list]
    # every M, a power-law one too, passes the spec's rules before any
    # size is computed
    specs = [ReplicationSpec(n, m) for n, m in zip(n_list, m_list)]
    rows = []
    for spec in specs:
        n, m = spec.copies, spec.replicas
        a = alpha if power_law else effective_alpha(n, m)
        phi, fid = _worst_case_fidelity(spec, grid)
        rows.append(SweepRow(n, m, a, phi, fid))
    return rows
