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
as exactly-zero operators; ``replication_experiment_channel`` gives
six, whose three dephasing flips are exactly zero at sigma = 0.

Each builder has one path.  ``sector_operators`` and
``effective_toffoli`` apply the params rule (``_columns``) once and pass
its field columns to the stacked kernels ``_ppbs``, ``_transfer`` and
``_sectors``; ``replication_experiment_channel`` builds through the
public ``effective_toffoli``, the only params rule it runs, and then
dephases in its private step ``_dephase``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import _phase_list, _real, _reals, _wrap

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


# each field's upper bound; every field is >= 0
_HIGH = {"r_v": 1.0, "r_h": 1.0, "visibility": 1.0,
         "phase_jitter_sigma": math.inf}


def _field(name: str, value) -> float:
    """The rule of the ``OpticsParams`` field ``name``: the real-number
    rule within the field's bounds."""
    return _real(value, name, 0.0, _HIGH[name])


def _field_values(name: str, values) -> list[float]:
    """The rule of a scan over the field ``name``: the real-vector rule on
    ``values``, then the field's bounds on every entry at once, so each
    value passes one rule; the first entry out of bounds raises the
    field rule's own error."""
    x = _reals(values, "values")
    for bad in x[(x < 0.0) | (x > _HIGH[name])][:1]:
        _field(name, float(bad))  # raises
    return x.tolist()


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
        for name in _HIGH:
            object.__setattr__(self, name, _field(name, getattr(self, name)))

    def _replaced(self, **fields: float) -> "OpticsParams":
        """This record with ``fields`` set to floats that passed their
        field rules; unlike ``dataclasses.replace``, the fields it keeps
        are not checked again (a scan row checks only its own value)."""
        row = object.__new__(OpticsParams)
        vars(row).update(vars(self), **fields)  # past the frozen setattr
        return row

    @classmethod
    def ideal(cls) -> "OpticsParams":
        return cls(r_v=2.0 / 3.0, r_h=0.0, visibility=1.0,
                   phase_jitter_sigma=0.0)

    @classmethod
    def measured(cls, phase_jitter_sigma: float = 0.0) -> "OpticsParams":
        return cls(r_v=0.660, r_h=0.017, visibility=0.958,
                   phase_jitter_sigma=phase_jitter_sigma)


Params = OpticsParams | Sequence[OpticsParams]


def _columns(params: Params) -> np.ndarray:
    """The params rule: one ``OpticsParams`` or a non-empty list or tuple
    of them.  Returns the stack's fields as a (4, P) float array, one
    row per field in field order (r_v, r_h, visibility, sigma)."""
    rows = [params] if isinstance(params, OpticsParams) else params
    if not (isinstance(rows, (list, tuple)) and rows
            and all(isinstance(p, OpticsParams) for p in rows)):
        raise ValueError("params must be an OpticsParams or a sequence "
                         f"of at least one, not {params!r}")
    return np.array([[p.r_v, p.r_h, p.visibility, p.phase_jitter_sigma]
                     for p in rows], dtype=np.float64).T


def _ppbs(columns: np.ndarray) -> np.ndarray:
    """Unitary (P, 8, 8) single-photon matrices of the PPBS, [out, in]:
    each polarization couples l with i and u with x, transmission
    sqrt(1 - R), reflection i sqrt(R)."""
    r_v, r_h = columns[:2]
    ppbs = np.zeros((len(r_h), 8, 8), dtype=np.complex128)
    for pol, refl in ((0, r_h), (1, r_v)):
        t = np.sqrt(1.0 - refl)
        r = 1j * np.sqrt(refl)
        for a, b in ((2 + pol, 4 + pol), (pol, 6 + pol)):
            ppbs[:, a, a] = ppbs[:, b, b] = t
            ppbs[:, a, b] = ppbs[:, b, a] = r
    return ppbs


def _transfer(columns: np.ndarray) -> np.ndarray:
    """Single-photon transfer matrices T of the whole network, (P, 8, 8),
    [out, in]."""
    return _IDLER_HADAMARD @ _ATTENUATION @ _ppbs(columns) @ _IDLER_HADAMARD


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
    sectors = _sectors(_columns(params))
    if isinstance(params, OpticsParams):
        return tuple(k[0] for k in sectors)
    return sectors


def _sectors(columns: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t = _transfer(columns)
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
    columns = _columns(params)
    m_int, k_tt, k_rr = _sectors(columns)
    v = columns[2][:, None, None]
    w = np.sqrt(1.0 - v)
    kraus = np.stack((np.sqrt(v) * m_int, w * k_tt, w * k_rr), axis=1)
    gram = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=1)
    success = np.trace(gram, axis1=-2, axis2=-1).real / 8.0
    if isinstance(params, OpticsParams):
        return kraus[0], float(success[0])
    return kraus, success


def _dephase(kraus: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Gaussian phase jitter on the spatial qubit (qubit 0), analytically.

    A random phase e^{i theta} with theta ~ Normal(0, sigma^2) on the
    |1> path damps spatial coherences by lambda = e^{-sigma^2/2};
    equivalently a phase-flip channel with flip weight (1-lambda)/2.
    ``kraus`` is an (R, n, d, d) Kraus stack and ``sigma`` the column
    of jitter sigmas, >= 0 by the ``OpticsParams`` rule: one per row, or
    one for all R rows.  Returns the (R, 2n, d, d) stack of each row's
    operators and then their flips; a row at sigma = 0 keeps its
    operators as they are, and its flips are zero.
    """
    # math.exp, not np.exp, whose vectorized rounding differs in the
    # last bit for some arguments; one factor per row, broadcast over the
    # operator axes
    lam = np.array([math.exp(-0.5 * s * s) for s in sigma])
    p_keep = 0.5 * (1.0 + lam[:, None, None, None])
    # Z on the most significant qubit negates the lower half of the rows
    half = kraus.shape[-2] // 2
    flipped = np.concatenate((kraus[..., :half, :], -kraus[..., half:, :]),
                             axis=-2)
    # a row at sigma = 0 keeps its bits: a product with 1.0 can flip the
    # sign of a zero
    kept = np.where(sigma[:, None, None, None] > 0.0,
                    np.sqrt(p_keep) * kraus, kraus)
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
    six sub-normalized Kraus operators as a (6, 4, 4) array, the last
    three the dephasing flips (zero at sigma = 0); a 1-D array of P
    phases gives a (P, 6, 4, 4) array whose rows are, bit for bit, the
    arrays of the phases on their own.  A params stack with a float
    ``phi`` gives the (P, 6, 4, 4) array of its rows; a stack with a
    phase array raises ``ValueError``.
    """
    stacked = not isinstance(params, OpticsParams)
    return _experiment_channel(
        _wrap(_phase_list(phi, "phi", (0,) if stacked else (0, 1))), params)


def _experiment_channel(phases: float | np.ndarray, params: Params
                        ) -> np.ndarray:
    """The kernel of ``replication_experiment_channel``: phases reduced
    to [0, 2*pi).  A single ``OpticsParams`` is the stack of one, built
    through the public ``effective_toffoli``, so a tracer sees each
    optical build, and its params rule is the only one that ``params``
    passes here; one phase with it gives the stack's row 0."""
    rows = [params] if isinstance(params, OpticsParams) else params
    kraus3, _ = effective_toffoli(rows)
    phase = np.exp(1j * np.atleast_1d(phases))[:, None, None, None]
    # [P, operator, signal out, idler out, signal in] at idler input |0>
    legs = kraus3.reshape(*kraus3.shape[:-2], 4, 2, 4, 2)[..., 0]
    kraus = (legs[..., 0, :] + legs[..., 1, :] * phase) * _SQRT_HALF
    kraus = _dephase(kraus, np.array([p.phase_jitter_sigma for p in rows]))
    return kraus[0] if np.ndim(phases) == 0 and rows is not params else kraus
