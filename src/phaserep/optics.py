"""Linear-optical model of the three-qubit gate behind the replication.

Encoding: the signal photon carries two qubits — spatial path (upper
``u`` = |0>, lower ``l`` = |1>) and polarization (``H`` = |0>, ``V`` =
|1>) — and the idler photon's polarization is the target qubit.  Only
the lower signal path overlaps the idler on a partially polarizing beam
splitter (PPBS, reflectances R_H and R_V); the upper path traverses an
identical splitter against vacuum (the ``x`` modes), so single-photon
attenuation is path independent.  Ideal balancing attenuators of
amplitude sqrt(1/3) act on the horizontal modes, and ideal polarization
Hadamards sandwich the idler, turning the postselected
controlled-controlled-Z into a Toffoli.

The network is linear, so one single-photon transfer matrix over the
modes uH uV lH lV iH iV xH xV describes it:
T = Had_i · Atten · PPBS · Had_i, with T[out, in].  A coincidence
keeps one photon in the signal modes (first four) and one in the idler
modes (iH, iV).  For distinguishable photons the two ways to get there
are separate classes: both transmit, with map T[sig, sig] ⊗ T[idl, idl],
or both reflect, so the signal photon leaves in the idler arm and the
idler photon in the signal arm.  For indistinguishable photons the
amplitude of output modes (m, n) from input modes (s, i) is the 2×2
permanent T[m, s] T[n, i] + T[n, s] T[m, i], the coherent sum of the
two classes (Scheel, quant-ph/0406127).

At the design point (R_V = 2/3, R_H = 0, full interference) the
coincidence-basis map is exactly Toffoli/3: success probability 1/9 for
every input.  Partial photon distinguishability is a two-sector
mixture: weight V of the interfering (bosonic) map and 1-V of the
distinguishable sector, whose transmit-transmit and reflect-reflect
classes contribute incoherently.

The replication experiment's phase enters only as a phase gate on the
idler, so ``replication_experiment_channel`` builds the network once
and evaluates a whole phase array from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import normalize_phase

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_SQRT_THIRD = 1.0 / math.sqrt(3.0)

# Mode slices of the transfer matrix: signal (uH uV lH lV) and idler
# (iH iV); xH xV complete the upper path's splitter.
_SIG = slice(0, 4)
_IDL = slice(4, 6)

# Balancing attenuators on the horizontal modes uH, lH, iH (fixed at the
# ideal design value; they are alignment elements, not noise parameters).
_ATTENUATION = np.diag([_SQRT_THIRD, 1.0, _SQRT_THIRD, 1.0,
                        _SQRT_THIRD, 1.0, 1.0, 1.0])

_IDLER_HADAMARD = np.eye(8)
_IDLER_HADAMARD[_IDL, _IDL] = [[_SQRT_HALF, _SQRT_HALF],
                               [_SQRT_HALF, -_SQRT_HALF]]


@dataclass(frozen=True)
class OpticsParams:
    """PPBS reflectances, interference visibility, and phase jitter."""

    r_v: float
    r_h: float
    visibility: float
    phase_jitter_sigma: float = 0.0

    def __post_init__(self):
        for name in ("r_v", "r_h", "visibility"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        # written so that NaN fails too
        if not self.phase_jitter_sigma >= 0.0:
            raise ValueError("phase_jitter_sigma must be non-negative, "
                             f"got {self.phase_jitter_sigma}")

    @classmethod
    def ideal(cls) -> "OpticsParams":
        return cls(r_v=2.0 / 3.0, r_h=0.0, visibility=1.0,
                   phase_jitter_sigma=0.0)

    @classmethod
    def measured(cls, phase_jitter_sigma: float = 0.0) -> "OpticsParams":
        return cls(r_v=0.660, r_h=0.017, visibility=0.958,
                   phase_jitter_sigma=phase_jitter_sigma)


def ppbs_matrix(params: OpticsParams) -> np.ndarray:
    """Unitary 8x8 single-photon matrix of the PPBS, indexed [out, in].

    Each polarization couples l with i and u with x: transmission
    sqrt(1 - R), reflection i sqrt(R).
    """
    ppbs = np.zeros((8, 8), dtype=np.complex128)
    for pol, refl in ((0, params.r_h), (1, params.r_v)):
        t = math.sqrt(1.0 - refl)
        r = 1j * math.sqrt(refl)
        for a, b in ((2 + pol, 4 + pol), (pol, 6 + pol)):
            ppbs[a, a] = ppbs[b, b] = t
            ppbs[a, b] = ppbs[b, a] = r
    return ppbs


def transfer_matrix(params: OpticsParams) -> np.ndarray:
    """Single-photon transfer matrix T of the whole network, [out, in]."""
    return (_IDLER_HADAMARD @ _ATTENUATION @ ppbs_matrix(params)
            @ _IDLER_HADAMARD)


def sector_operators(
    params: OpticsParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unweighted coincidence maps of the gate network, by sector.

    Returns (interfering, transmit-transmit, reflect-reflect) 8x8
    matrices on the qubit basis |s p q> (signal mode 2s+p, idler
    polarization q).  The interfering map is the 2x2 permanent, i.e. the
    coherent sum of the two distinguishable-sector classes.
    """
    t = transfer_matrix(params)
    # rows (m, n): signal output mode m, idler output mode n; columns
    # (s, i): signal and idler input modes.  Transmit-transmit is
    # T[m, s] T[n, i] = T[sig, sig] (x) T[idl, idl]; in reflect-reflect
    # the signal photon exits in idler mode n and the idler photon in
    # signal mode m.
    k_tt = np.einsum("ms,ni->mnsi", t[_SIG, _SIG],
                     t[_IDL, _IDL]).reshape(8, 8)
    k_rr = np.einsum("ns,mi->mnsi", t[_IDL, _SIG],
                     t[_SIG, _IDL]).reshape(8, 8)
    return k_tt + k_rr, k_tt, k_rr


def effective_toffoli(
    params: OpticsParams,
) -> tuple[list[np.ndarray], float]:
    """Coincidence-basis three-qubit channel of the optical network.

    Returns the weighted Kraus operators of the sector mixture together
    with the success probability for the maximally mixed input.  With
    ideal parameters the channel is rank one and equals Toffoli/3.
    """
    m_int, k_tt, k_rr = sector_operators(params)
    v = params.visibility
    kraus = []
    if v > 0.0:
        kraus.append(math.sqrt(v) * m_int)
    if v < 1.0:
        w = math.sqrt(1.0 - v)
        kraus.append(w * k_tt)
        kraus.append(w * k_rr)
    gram = sum(k.conj().T @ k for k in kraus)
    success = float(np.trace(gram).real) / 8.0
    return kraus, success


def dephase_spatial(
    kraus: Sequence[np.ndarray] | np.ndarray, sigma: float
) -> Sequence[np.ndarray] | np.ndarray:
    """Gaussian phase jitter on the spatial qubit (qubit 0), analytically.

    A random phase e^{i theta} with theta ~ Normal(0, sigma^2) on the
    |1> path damps spatial coherences by lambda = e^{-sigma^2/2};
    equivalently a phase-flip channel with flip weight (1-lambda)/2.
    Takes Kraus operators on axis -3 (a list, or an array with leading
    axes such as one per phase) and returns them as an array, twice as
    many along that axis; at sigma = 0 the input itself is returned.
    """
    if not sigma >= 0.0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return kraus
    kraus = np.asarray(kraus)
    lam = math.exp(-0.5 * sigma * sigma)
    p_keep = 0.5 * (1.0 + lam)
    # Z on the most significant qubit negates the lower half of the rows
    half = kraus.shape[-2] // 2
    flipped = np.concatenate((kraus[..., :half, :], -kraus[..., half:, :]),
                             axis=-2)
    return np.concatenate((math.sqrt(p_keep) * kraus,
                           math.sqrt(1.0 - p_keep) * flipped), axis=-3)


def replication_experiment_channel(
    phi: float | Sequence[float] | np.ndarray, params: OpticsParams
) -> list[np.ndarray] | np.ndarray:
    """Two-qubit channel of the simulated replication experiment.

    Composes the optical Toffoli of ``params`` with an ideal phase gate
    on the idler, projects the idler onto |+>, and applies the
    configured spatial dephasing.  Every operator is
    K(phi) = A + e^{i phi} B, A and B the idler's |0> and |1> output legs
    (with the idler entering in |0>) times 1/sqrt(2), so one optical
    build serves a whole phase array.  A float ``phi`` gives a
    sub-normalized Kraus list of 4x4 operators; a 1-D array of P phases
    gives a (P, n, 4, 4) array whose rows are, bit for bit, the lists of
    the phases on their own.  ``process_fidelity`` reads either
    directly; wrap a list in ``choi_from_kraus`` where the process
    matrix itself is needed.
    """
    phases = normalize_phase(phi)
    if np.ndim(phases) > 1:
        raise ValueError("phi must be a float or a 1-D sequence of phases")
    kraus3, _ = effective_toffoli(params)
    phase = np.exp(1j * np.atleast_1d(phases))[:, None, None, None]
    # [operator, signal out, idler out, signal in] at idler input |0>
    legs = np.asarray(kraus3).reshape(-1, 4, 2, 4, 2)[..., 0]
    kraus = (legs[:, :, 0, :] + legs[:, :, 1, :] * phase) * _SQRT_HALF
    kraus = dephase_spatial(kraus, params.phase_jitter_sigma)
    return list(kraus[0]) if np.ndim(phases) == 0 else kraus
