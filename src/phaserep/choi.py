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
        m = np.array(self.matrix, dtype=np.complex128)
        d2 = 4 ** self.qubits
        if m.shape != (d2, d2):
            raise ValueError(
                f"process matrix for {self.qubits} qubits must be "
                f"{d2}x{d2}"
            )
        # NaN passes the tolerance tests below, so reject it first
        if not np.all(np.isfinite(m)):
            raise ValueError("process matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("process matrix must be Hermitian")
        # PSD up to 1e-8 * scale: one Cholesky factorization of the
        # shifted matrix; the eigenvalues only word the rejection
        tol = 1e-8 * max(1.0, float(np.trace(m).real))
        try:
            np.linalg.cholesky(m + tol * np.eye(d2))
        except np.linalg.LinAlgError:
            low = float(np.min(np.linalg.eigvalsh(m)))
            if low < -tol:
                raise ValueError(
                    f"process matrix has eigenvalue {low} < 0") from None
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension of the channel (2^qubits)."""
        return 2 ** self.qubits

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalized(self) -> "ProcessMatrix":
        """Rescale to unit trace."""
        tr = self.trace
        if tr <= 0.0:
            raise ValueError("cannot normalize a process matrix with "
                             "non-positive trace")
        return ProcessMatrix(self.matrix / tr, self.qubits)


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
        v = m.T.reshape(-1) / np.sqrt(d)
        chi += np.outer(v, v.conj())
    return ProcessMatrix(chi, n)


def gate_fidelity(u1: np.ndarray, u2: np.ndarray) -> float:
    """|Tr[U2† U1]|² / 2^{2n} — overlap of the two Choi states.

    Both operators are expected to be unitary (not re-verified here, to
    keep wide-register sweeps cheap); their shapes must match.
    """
    if u1.shape != u2.shape:
        raise ValueError("gate_fidelity requires equal dimensions")
    tr = np.trace(u2.conj().T @ u1)
    return float(abs(tr) ** 2) / (u1.shape[0] ** 2)


def process_fidelity(chi: ProcessMatrix, u: np.ndarray) -> float:
    """F = <Phi_U| chi |Phi_U> / Tr[chi]; invariant under chi rescaling."""
    if u.shape != (chi.dim, chi.dim):
        raise ValueError("process_fidelity requires matching qubit counts")
    tr = chi.trace
    if tr <= 0.0:
        raise ValueError("process matrix trace must be positive")
    v = choi_vector(u)
    f = float(np.real(v.conj() @ chi.matrix @ v)) / tr
    # Clip float noise; chi is PSD so f is in [0, 1] mathematically.
    return min(max(f, 0.0), 1.0)


def apply_channel(chi: ProcessMatrix, rho: np.ndarray) -> np.ndarray:
    """Act with the channel on a density matrix.

    Returns the bare output density matrix, possibly sub-normalized when
    the channel is trace-nonincreasing (its trace is then the success
    probability of the postselected map).
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (chi.dim, chi.dim):
        raise ValueError("state and channel dimensions differ")
    d = chi.dim
    chi4 = chi.matrix.reshape(d, d, d, d)
    return np.einsum("mn,manb->ab", rho, chi4) * d


def process_matrix_to_json(
    chi: ProcessMatrix, metadata: dict | None = None
) -> dict:
    """JSON-safe dict with real/imag parts and the convention metadata."""
    doc = {
        "qubits": chi.qubits,
        "normalization": _NORMALIZATION,
        "convention": "first register is the reference (identity) side",
        "real": chi.matrix.real.tolist(),
        "imag": chi.matrix.imag.tolist(),
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def process_matrix_from_json(doc: dict) -> ProcessMatrix:
    """Inverse of ``process_matrix_to_json``.

    Only the unit-trace convention is understood; a document tagged with
    any other normalization raises ``ValueError``.
    """
    if doc.get("normalization") != _NORMALIZATION:
        raise ValueError(
            f"unsupported process-matrix normalization "
            f"{doc.get('normalization')!r}; expected {_NORMALIZATION!r}")
    m = np.array(doc["real"], dtype=np.float64) + 1j * np.array(
        doc["imag"], dtype=np.float64
    )
    return ProcessMatrix(m, int(doc["qubits"]))
