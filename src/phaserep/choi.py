"""Choi representations of quantum channels and the derived fidelities.

Convention: the first register of a Choi state/matrix is the reference
(identity) side, the second carries the channel.  With the normalized
maximally entangled state |Phi> = 2^{-n/2} sum_m |m>|m>, a trace-preserving
channel has Tr(chi) = 1; postselected (trace-nonincreasing) maps yield
sub-normalized matrices and are first-class citizens here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import _integer, _numbers, _operator, _record

# the one trace convention, recorded in serialized process matrices
_NORMALIZATION = "trace_one"


def choi_vector(u: np.ndarray) -> np.ndarray:
    """(I ⊗ U)|Phi> as a flat length-4^n vector; no unitarity check.
    A stack of gates (..., d, d) gives the stack of their vectors."""
    d = u.shape[-1]
    # component at index m*d + a is U[a, m] / sqrt(d)
    return u.swapaxes(-1, -2).reshape(u.shape[:-2] + (d * d,)) / np.sqrt(d)


def _choi_matrices(kraus: np.ndarray) -> np.ndarray:
    """The chi of each Kraus array in a checked (..., n, d, d) stack, as
    one (..., d², d²) array from one broadcast per operator.  The outer
    products are summed in operator order starting from zeros, as a
    plain ``.sum`` would not: a one-operator array's -0 entries come out
    +0, and each chi is the same whatever is stacked with it."""
    v = choi_vector(np.asarray(kraus, dtype=np.complex128))
    chi = np.zeros(v.shape[:-2] + v.shape[-1:] * 2, dtype=np.complex128)
    for k in range(v.shape[-2]):
        chi += v[..., k, :, None] * v[..., k, None, :].conj()
    return chi


@dataclass(frozen=True)
class ProcessMatrix:
    """Choi matrix of an n-qubit channel.

    A trace-preserving channel has unit trace; sub-normalized
    postselected maps have smaller trace.
    """

    matrix: np.ndarray
    qubits: int

    def __post_init__(self):
        object.__setattr__(self, "qubits", _integer(self.qubits, "qubits"))
        # NaN would pass the tolerance tests below; the rule rejects it
        m = np.array(_operator(self.matrix, "process matrix", 2,
                               stacked=False), dtype=np.complex128)
        # side == 4 ** qubits, tested without forming the power, which
        # a huge qubits read from a file would make enormous
        if m.shape[0].bit_length() != 2 * self.qubits + 1:
            raise ValueError(
                f"process matrix for {self.qubits} qubits must be "
                f"4^{self.qubits} x 4^{self.qubits}, got shape {m.shape}"
            )
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("process matrix must be Hermitian")
        # PSD up to 1e-8 * scale
        low = float(np.min(np.linalg.eigvalsh(m)))
        if low < -1e-8 * max(1.0, float(np.trace(m).real)):
            raise ValueError(f"process matrix has eigenvalue {low} < 0")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension of the channel (2^qubits)."""
        return 2 ** self.qubits

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def choi_from_kraus(operators: Sequence[np.ndarray]) -> ProcessMatrix:
    """chi = sum_k (I ⊗ K_k)|Phi><Phi|(I ⊗ K_k)†, unnormalized trace.

    The trace equals sum_k Tr[K_k† K_k] / 2^n, i.e. 1 for a
    trace-preserving set and less for postselected maps.
    """
    return _choi(_operator(operators, "operators", 3, stacked=False))


def _choi(kraus: np.ndarray) -> ProcessMatrix:
    """The kernel of ``choi_from_kraus``: the process matrix of one checked
    (n, d, d) Kraus array.  Finite entries can still overflow to inf in
    the sum, so the record checks the matrix it is given."""
    return ProcessMatrix(_choi_matrices(kraus),
                         kraus.shape[-1].bit_length() - 1)


def process_fidelity(
    channel: ProcessMatrix | Sequence[np.ndarray] | np.ndarray,
    u: np.ndarray,
) -> float | np.ndarray:
    """F = <Phi_U| chi |Phi_U> / Tr[chi]; invariant under chi rescaling.

    ``channel`` is a process matrix (e.g. a reconstructed one) or a
    Kraus array (n, d, d), read directly, without building chi:
    F = sum_k |Tr[U† K_k]|² / (d · sum_k ||K_k||_F²), the same number,
    since <Phi_U| chi |Phi_U> = sum_k |Tr[U† K_k]|² / d² and
    Tr[chi] = sum_k ||K_k||_F² / d.  Sub-normalized operators are fine;
    no operator, all-zero or non-finite ones, or operators whose shape
    is not U's raise ``ValueError``.

    The Kraus form also takes one channel per phase: an array of shape
    (P, n, d, d), with ``u`` one gate or a (P, d, d) stack, and returns
    the P fidelities as an array.  One channel is the same formula and
    returns a float, so each entry of the array equals the float of its
    own row.
    """
    if isinstance(channel, ProcessMatrix):
        return float(_chi_fidelity(channel.matrix, _gate(u, channel.dim)))
    channel = _operator(channel, "channel", 3)
    u = _gate(u, channel.shape[-1], stacked=True)
    return _process_fidelity(channel, u)


def _gate(u, d: int, stacked: bool = False) -> np.ndarray:
    """The target rule of a fidelity: a gate (or, where ``stacked``, a
    stack of gates) on the channel's ``d``-dimensional space."""
    u = _operator(u, "u", 2, stacked=stacked)
    if u.shape[-1] != d:
        raise ValueError("process_fidelity requires matching qubit counts")
    return u


def _process_fidelity(kraus: np.ndarray, u: np.ndarray
                      ) -> float | np.ndarray:
    """The kernel of ``process_fidelity`` on a Kraus array (stack) and a
    gate (stack) of its width, all checked or made by the package."""
    d = kraus.shape[-1]
    overlap = (u.conj()[..., None, :, :] * kraus).sum(axis=(-2, -1))
    f = _normalized((overlap.real ** 2 + overlap.imag ** 2).sum(axis=-1),
                    d * (kraus.real ** 2 + kraus.imag ** 2).sum(
                        axis=(-3, -2, -1)))
    return float(f) if f.ndim == 0 else f


def _chi_fidelity(chi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """<Phi_U| chi |Phi_U> / Tr chi over a chi stack (..., d², d²), with
    one gate or a gate stack that broadcasts against it; each entry is
    the ``process_fidelity`` of its chi's ``ProcessMatrix``, bit for bit.
    A trace that is not positive (zero or NaN) raises ``ValueError``."""
    v = choi_vector(u)
    f = np.real(v.conj()[..., None, :] @ chi @ v[..., :, None])[..., 0, 0]
    return _normalized(f, np.trace(chi, axis1=-2, axis2=-1).real)


def _normalized(f: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """The overlaps ``f`` over their channels' traces, clipped to [0, 1]."""
    if not np.all(trace > 0.0):
        raise ValueError("channel trace must be positive")
    # Clip float noise; chi is PSD so f is in [0, 1] mathematically.
    return np.minimum(np.maximum(f / trace, 0.0), 1.0)


def process_matrix_to_json(chi: ProcessMatrix) -> dict:
    """JSON-safe dict with real/imag parts and the convention metadata."""
    chi = _record(chi, "chi", ProcessMatrix)
    return {
        "qubits": chi.qubits,
        "normalization": _NORMALIZATION,
        "convention": "first register is the reference (identity) side",
        "real": chi.matrix.real.tolist(),
        "imag": chi.matrix.imag.tolist(),
    }


def process_matrix_from_json(doc: dict) -> ProcessMatrix:
    """Inverse of ``process_matrix_to_json``.

    Only the unit-trace convention is understood.  A document that is not
    an object, is tagged with any other normalization, lacks a field, or
    holds entries that do not form one valid process matrix raises
    ``ValueError``.
    """
    if not isinstance(doc, dict):
        raise ValueError("process-matrix document must be a JSON object")
    if doc.get("normalization") != _NORMALIZATION:
        raise ValueError(
            f"unsupported process-matrix normalization "
            f"{doc.get('normalization')!r}; expected {_NORMALIZATION!r}")
    missing = sorted({"qubits", "real", "imag"} - doc.keys())
    if missing:
        raise ValueError(f"process-matrix document lacks {missing}")
    real, imag = (_numbers(doc[part], f"process-matrix {part} part")
                  for part in ("real", "imag"))
    if real.shape != imag.shape:
        raise ValueError("process-matrix real and imag parts differ in "
                         "shape")
    return ProcessMatrix(real + 1j * imag, doc["qubits"])
