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

Every builder also takes a sequence of P ``OpticsParams`` (a params
stack) and returns its results with the stack on a leading axis, so a
scan over one imperfection is one build; a single ``OpticsParams`` is
the stack of one, and its result is row 0 of the stacked result.  Kraus
operators come as one array, the operators on axis -3, and their count
is fixed: ``effective_toffoli`` gives the interfering and both
distinguishable operators, the sector of weight 0 at visibility 1 or 0
as exactly-zero operators; likewise a row at sigma = 0 in a stack with
some sigma > 0 carries zero dephasing flips.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import _phase_list, _real, normalize_phase

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
    """PPBS reflectances, interference visibility, and phase jitter.

    Every field is a real number, stored as a ``float``: the reflectances
    and the visibility in [0, 1], the jitter sigma >= 0.
    """

    r_v: float
    r_h: float
    visibility: float
    phase_jitter_sigma: float = 0.0

    def __post_init__(self):
        for name, high in (("r_v", 1.0), ("r_h", 1.0), ("visibility", 1.0),
                           ("phase_jitter_sigma", math.inf)):
            object.__setattr__(self, name,
                               _real(getattr(self, name), name, 0.0, high))

    @classmethod
    def ideal(cls) -> "OpticsParams":
        return cls(r_v=2.0 / 3.0, r_h=0.0, visibility=1.0,
                   phase_jitter_sigma=0.0)

    @classmethod
    def measured(cls, phase_jitter_sigma: float = 0.0) -> "OpticsParams":
        return cls(r_v=0.660, r_h=0.017, visibility=0.958,
                   phase_jitter_sigma=phase_jitter_sigma)


Params = OpticsParams | Sequence[OpticsParams]


def _column(params: Params, name: str) -> np.ndarray:
    """One field of every row of ``params`` as a float array of shape
    (P,); the params rule: one ``OpticsParams`` or a sequence of them."""
    rows = [params] if isinstance(params, OpticsParams) else params
    if not (isinstance(rows, (list, tuple)) and rows
            and all(isinstance(p, OpticsParams) for p in rows)):
        raise ValueError("params must be an OpticsParams or a sequence "
                         f"of at least one, not {params!r}")
    return np.array([getattr(p, name) for p in rows], dtype=np.float64)


def ppbs_matrix(params: Params) -> np.ndarray:
    """Unitary 8x8 single-photon matrix of the PPBS, indexed [out, in].

    Each polarization couples l with i and u with x: transmission
    sqrt(1 - R), reflection i sqrt(R).  A params stack gives (P, 8, 8).
    """
    r_h = _column(params, "r_h")
    ppbs = np.zeros((len(r_h), 8, 8), dtype=np.complex128)
    for pol, refl in ((0, r_h), (1, _column(params, "r_v"))):
        t = np.sqrt(1.0 - refl)
        r = 1j * np.sqrt(refl)
        for a, b in ((2 + pol, 4 + pol), (pol, 6 + pol)):
            ppbs[:, a, a] = ppbs[:, b, b] = t
            ppbs[:, a, b] = ppbs[:, b, a] = r
    # a single OpticsParams gets its one row without the stack axis
    return ppbs[0] if isinstance(params, OpticsParams) else ppbs


def transfer_matrix(params: Params) -> np.ndarray:
    """Single-photon transfer matrix T of the whole network, [out, in];
    (P, 8, 8) for a params stack."""
    return (_IDLER_HADAMARD @ _ATTENUATION @ ppbs_matrix(params)
            @ _IDLER_HADAMARD)


def sector_operators(
    params: Params,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unweighted coincidence maps of the gate network, by sector.

    Returns (interfering, transmit-transmit, reflect-reflect) 8x8
    matrices on the qubit basis |s p q> (signal mode 2s+p, idler
    polarization q), each (P, 8, 8) for a params stack.  The interfering
    map is the 2x2 permanent, i.e. the coherent sum of the two
    distinguishable-sector classes.
    """
    t = transfer_matrix(params)
    # rows (m, n): signal output mode m, idler output mode n; columns
    # (s, i): signal and idler input modes.  Transmit-transmit is
    # T[m, s] T[n, i] = T[sig, sig] (x) T[idl, idl]; in reflect-reflect
    # the signal photon exits in idler mode n and the idler photon in
    # signal mode m.
    lead = t.shape[:-2]
    k_tt = np.einsum("...ms,...ni->...mnsi", t[..., _SIG, _SIG],
                     t[..., _IDL, _IDL]).reshape(*lead, 8, 8)
    k_rr = np.einsum("...ns,...mi->...mnsi", t[..., _IDL, _SIG],
                     t[..., _SIG, _IDL]).reshape(*lead, 8, 8)
    return k_tt + k_rr, k_tt, k_rr


def effective_toffoli(
    params: Params,
) -> tuple[np.ndarray, float] | tuple[np.ndarray, np.ndarray]:
    """Coincidence-basis three-qubit channel of the optical network.

    Returns the weighted Kraus operators of the sector mixture as a
    (3, 8, 8) array (interfering, transmit-transmit, reflect-reflect;
    an operator is exactly zero where its sector's weight is 0) together
    with the success probability for the maximally mixed input, a float.
    With ideal parameters only the interfering operator is nonzero, and
    it equals Toffoli/3.  A params stack gives a (P, 3, 8, 8) array and
    the P success probabilities.
    """
    m_int, k_tt, k_rr = (np.reshape(k, (-1, 8, 8))
                         for k in sector_operators(params))
    v = _column(params, "visibility")[:, None, None]
    w = np.sqrt(1.0 - v)
    kraus = np.stack((np.sqrt(v) * m_int, w * k_tt, w * k_rr), axis=1)
    gram = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=1)
    success = np.trace(gram, axis1=-2, axis2=-1).real / 8.0
    if isinstance(params, OpticsParams):
        return kraus[0], float(success[0])
    return kraus, success


def dephase_spatial(
    kraus: Sequence[np.ndarray] | np.ndarray, sigma: float | np.ndarray
) -> Sequence[np.ndarray] | np.ndarray:
    """Gaussian phase jitter on the spatial qubit (qubit 0), analytically.

    A random phase e^{i theta} with theta ~ Normal(0, sigma^2) on the
    |1> path damps spatial coherences by lambda = e^{-sigma^2/2};
    equivalently a phase-flip channel with flip weight (1-lambda)/2.
    Takes a Kraus array, the operators on axis -3 (with leading axes
    such as one per phase), and returns the operators as an array, twice
    as many along that axis; at sigma = 0 the input itself is returned.
    ``sigma`` may also be a 1-D array of one sigma per entry of axis 0
    of a (P, n, d, d) array; a row at sigma = 0 then keeps its
    operators as they are and gets n zero flips.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if not (sigma >= 0.0).all():
        raise ValueError("sigma must be non-negative")
    if not sigma.any():
        return kraus
    kraus = np.asarray(kraus)
    # one factor per row, broadcast over the operator axes
    shape = sigma.shape + (1, 1, 1)
    # math.exp, not np.exp, whose vectorized rounding differs in the
    # last bit for some arguments
    lam = np.array([math.exp(-0.5 * s * s) for s in sigma.flat])
    p_keep = (0.5 * (1.0 + lam)).reshape(shape)
    # Z on the most significant qubit negates the lower half of the rows
    half = kraus.shape[-2] // 2
    flipped = np.concatenate((kraus[..., :half, :], -kraus[..., half:, :]),
                             axis=-2)
    # a row at sigma = 0 keeps its bits: a product with 1.0 can flip the
    # sign of a zero
    kept = np.where((sigma > 0.0).reshape(shape), np.sqrt(p_keep) * kraus,
                    kraus)
    return np.concatenate((kept, np.sqrt(1.0 - p_keep) * flipped), axis=-3)


def replication_experiment_channel(
    phi: float | Sequence[float] | np.ndarray, params: Params
) -> np.ndarray:
    """Two-qubit channel of the simulated replication experiment.

    Composes the optical Toffoli of ``params`` with an ideal phase gate
    on the idler, projects the idler onto |+>, and applies the
    configured spatial dephasing.  Every operator is
    K(phi) = A + e^{i phi} B, A and B the idler's |0> and |1> output legs
    (with the idler entering in |0>) times 1/sqrt(2), so one optical
    build serves a whole phase array.  A float ``phi`` gives the
    sub-normalized Kraus operators as an (n, 4, 4) array, n = 3, or 6
    when sigma > 0; a 1-D array of P phases gives a (P, n, 4, 4) array
    whose rows are, bit for bit, the arrays of the phases on their own.
    A params stack with a float ``phi`` gives the (P, n, 4, 4) array of
    its rows, n = 6 for all of them if any sigma > 0; a stack with a
    phase array raises ``ValueError``.
    """
    stacked = not isinstance(params, OpticsParams)
    phases = normalize_phase(_phase_list(phi, "phi",
                                         (0,) if stacked else (0, 1)))
    kraus3, _ = effective_toffoli(params)
    phase = np.exp(1j * np.atleast_1d(phases))[:, None, None, None]
    # [..., operator, signal out, idler out, signal in] at idler input |0>
    legs = kraus3.reshape(*kraus3.shape[:-2], 4, 2, 4, 2)[..., 0]
    kraus = (legs[..., 0, :] + legs[..., 1, :] * phase) * _SQRT_HALF
    kraus = dephase_spatial(kraus, _column(params, "phase_jitter_sigma"))
    return kraus[0] if np.ndim(phases) == 0 and not stacked else kraus
