"""Choi representations of quantum channels and the derived fidelities.

Convention: the first register of a Choi state/matrix is the reference
(identity) side, the second carries the channel.  With the normalized
maximally entangled state |Phi> = 2^{-n/2} sum_m |m>|m>, a trace-preserving
channel has Tr(chi) = 1; postselected (trace-nonincreasing) maps yield
sub-normalized matrices and are first-class citizens here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import _integer

# the one trace convention, recorded in serialized process matrices
_NORMALIZATION = "trace_one"


def choi_vector(u: np.ndarray) -> np.ndarray:
    """(I ⊗ U)|Phi> as a flat length-4^n vector; no unitarity check."""
    d = u.shape[0]
    if u.shape != (d, d):
        raise ValueError("choi_vector requires a square matrix")
    # component at index m*d + a is U[a, m] / sqrt(d)
    return u.T.reshape(-1) / np.sqrt(d)


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
        m = np.array(self.matrix, dtype=np.complex128)
        # side == 4 ** qubits, tested without forming the power, which
        # a huge qubits read from a file would make enormous
        side = m.shape[0] if m.ndim == 2 else 0
        if m.shape != (side, side) or side & (side - 1) \
                or side.bit_length() != 2 * self.qubits + 1:
            raise ValueError(
                f"process matrix for {self.qubits} qubits must be "
                f"4^{self.qubits} x 4^{self.qubits}, got shape {m.shape}"
            )
        # NaN passes the tolerance tests below, so reject it first
        if not np.all(np.isfinite(m)):
            raise ValueError("process matrix entries must be finite")
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
    mats = [np.asarray(op, dtype=np.complex128) for op in operators]
    if not mats:
        raise ValueError("need at least one Kraus operator")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise ValueError("Kraus operators must share one dimension")
    n = int(round(np.log2(d)))
    if 2 ** n != d:
        raise ValueError("Kraus dimension must be a power of 2")
    chi = np.zeros((d * d, d * d), dtype=np.complex128)
    for m in mats:
        v = choi_vector(m)
        chi += np.outer(v, v.conj())
    return ProcessMatrix(chi, n)


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
        if u.shape != (channel.dim, channel.dim):
            raise ValueError(
                "process_fidelity requires matching qubit counts")
        tr = channel.trace
        if tr <= 0.0:
            raise ValueError("process matrix trace must be positive")
        v = choi_vector(u)
        f = float(np.real(v.conj() @ channel.matrix @ v)) / tr
    else:
        if len(channel) == 0:
            raise ValueError("need at least one Kraus operator")
        try:
            mats = np.asarray(channel, dtype=np.complex128)
        except ValueError:  # operators of different shapes
            mats = None
        d = u.shape[-1]
        if mats is None or mats.ndim < 3 or u.ndim < 2 \
                or mats.shape[-2:] != (d, d) or u.shape[-2] != d:
            raise ValueError(
                "process_fidelity requires matching qubit counts")
        weight = (mats.real ** 2 + mats.imag ** 2).sum(axis=(-3, -2, -1))
        # written so that NaN fails too
        if not ((0.0 < weight) & (weight < math.inf)).all():
            raise ValueError("Kraus operators must be finite and not "
                             "all zero")
        overlap = (u.conj()[..., None, :, :] * mats).sum(axis=(-2, -1))
        f = (overlap.real ** 2 + overlap.imag ** 2).sum(axis=-1) \
            / (d * weight)
    # Clip float noise; chi is PSD so f is in [0, 1] mathematically.
    f = np.minimum(np.maximum(f, 0.0), 1.0)
    return float(f) if f.ndim == 0 else f


def process_matrix_to_json(chi: ProcessMatrix) -> dict:
    """JSON-safe dict with real/imag parts and the convention metadata."""
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
    try:
        real = np.array(doc["real"], dtype=np.float64)
        imag = np.array(doc["imag"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError("process-matrix entries must be arrays of "
                         "numbers") from None
    if real.shape != imag.shape:
        raise ValueError("process-matrix real and imag parts differ in "
                         "shape")
    return ProcessMatrix(real + 1j * imag, doc["qubits"])
