"""Dense complex linear algebra for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a computational basis index, so the
  basis label ``|q0 q1 ... q(n-1)>`` reads left to right like the integer's
  binary expansion.
* All matrices and vectors are complex128 ndarrays.  Gates and Kraus
  operators are plain arrays, whose qubit count is read from their
  shape; a ``QuantumState`` is frozen after construction.  Every
  operation returns fresh objects.
* Register sizes are capped (default 24 qubits) to bound memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_register_cap = 24


def register_cap() -> int:
    """Current maximum register width in qubits."""
    return _register_cap


def set_register_cap(n: int) -> None:
    """Set the register width cap (memory guard, not a physics limit)."""
    global _register_cap
    if int(n) < 1:
        raise ValueError("register cap must be at least 1 qubit")
    _register_cap = int(n)


def _check_width(qubits: int) -> None:
    if qubits < 1:
        raise ValueError("register must hold at least 1 qubit")
    if qubits > _register_cap:
        raise ValueError(
            f"register of {qubits} qubits exceeds the configured cap "
            f"of {_register_cap}"
        )


def normalize_phase(phi: float) -> float:
    """Reduce a phase angle in radians to [0, 2*pi)."""
    return float(phi) % (2.0 * math.pi)


@dataclass(frozen=True)
class QuantumState:
    """Pure state of a qubit register; ``data`` is a unit vector.

    Mixedness enters the package only as Kraus operators, turned into a
    process matrix by ``choi.choi_from_kraus``.
    """

    data: np.ndarray
    qubits: int

    def __post_init__(self):
        _check_width(self.qubits)
        arr = np.array(self.data, dtype=np.complex128)
        if arr.shape != (2 ** self.qubits,):
            raise ValueError("pure state must be a vector of length 2**n")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"pure state norm {norm} is not 1")
        # Snap tiny drift so long pipelines stay normalised.
        arr = arr / norm
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return 2 ** self.qubits

    @classmethod
    def pure(cls, vector: np.ndarray) -> "QuantumState":
        vector = np.asarray(vector)
        n = int(round(math.log2(vector.shape[0])))
        return cls(vector, n)

    @classmethod
    def basis(cls, qubits: int, index: int) -> "QuantumState":
        vec = np.zeros(2 ** qubits, dtype=np.complex128)
        vec[index] = 1.0
        return cls(vec, qubits)

    def density(self) -> np.ndarray:
        """The projector |psi><psi|."""
        return np.outer(self.data, self.data.conj())


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two gates; ``a`` supplies the more significant
    qubits.  The product's width is checked against the cap first."""
    _check_width(int(round(math.log2(a.shape[0] * b.shape[0]))))
    return np.kron(a, b)


def kron_state(a: QuantumState, b: QuantumState) -> QuantumState:
    return QuantumState.pure(np.kron(a.data, b.data))


_S = 1.0 / math.sqrt(2.0)
PROJECTOR_KETS = {
    "0": np.array([1.0, 0.0], dtype=np.complex128),
    "1": np.array([0.0, 1.0], dtype=np.complex128),
    "+": np.array([_S, _S], dtype=np.complex128),
    "-": np.array([_S, -_S], dtype=np.complex128),
    "+i": np.array([_S, _S * 1j], dtype=np.complex128),
    "-i": np.array([_S, -_S * 1j], dtype=np.complex128),
}


def project_and_renormalize(
    state: QuantumState, qubit: int, projector: str
) -> tuple[QuantumState, float]:
    """Project one qubit onto a Pauli eigenstate and renormalise.

    Returns the post-measurement state on the full register (the measured
    qubit is collapsed onto the projector ket) together with the outcome
    probability.  A zero-probability outcome raises ``ValueError``.
    """
    if projector not in PROJECTOR_KETS:
        raise ValueError(f"unknown projector label {projector!r}")
    n = state.qubits
    if not 0 <= qubit < n:
        raise ValueError("qubit index out of range")
    ket = PROJECTOR_KETS[projector]
    psi = state.data.reshape([2] * n)
    amp = np.tensordot(ket.conj(), psi, axes=([0], [qubit]))
    p = float(np.vdot(amp, amp).real)
    if p < 1e-14:
        raise ValueError("impossible outcome: projection probability is 0")
    collapsed = np.moveaxis(np.multiply.outer(ket, amp), 0, qubit)
    return QuantumState.pure(collapsed.reshape(-1) / math.sqrt(p)), p
