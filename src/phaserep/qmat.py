"""Dense complex linear algebra for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a computational basis index, so the
  basis label ``|q0 q1 ... q(n-1)>`` reads left to right like the integer's
  binary expansion.
* All matrices and vectors are complex128 ndarrays.  Wrapped values are
  frozen after construction; every operation returns fresh objects.
* Register sizes are capped (default 24 qubits) to bound memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Centralised numerical tolerances.  Functions that take an ``atol`` argument
# default to these values.
UNITARY_ATOL = 1e-10
NORM_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-10

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
class Operator:
    """A linear operator on a register of ``qubits`` qubits."""

    matrix: np.ndarray
    qubits: int

    def __post_init__(self):
        _check_width(self.qubits)
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if m.shape[0] != 2 ** self.qubits:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match "
                f"{self.qubits} qubits"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, qubits: int) -> "Operator":
        return cls(np.eye(2 ** qubits), qubits)

    def adjoint(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.qubits)

    def is_unitary(self, atol: float = UNITARY_ATOL) -> bool:
        d = self.dim
        return bool(
            np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(d)))
            <= atol
        )

    def __matmul__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        if other.qubits != self.qubits:
            raise ValueError("operator widths differ")
        return Operator(self.matrix @ other.matrix, self.qubits)

    def apply(self, state: "QuantumState") -> "QuantumState":
        if state.qubits != self.qubits:
            raise ValueError("operator and state widths differ")
        if state.kind == "pure":
            return QuantumState.pure(self.matrix @ state.data)
        rho = self.matrix @ state.data @ self.matrix.conj().T
        return QuantumState.mixed(rho)

    def equals_up_to_global_phase(
        self, other: "Operator", atol: float = UNITARY_ATOL
    ) -> bool:
        """Phase-insensitive equality, usable for any nonzero operators."""
        if other.qubits != self.qubits:
            return False
        overlap = np.trace(self.matrix.conj().T @ other.matrix)
        if abs(overlap) < atol:
            # No aligning phase exists unless both operators vanish.
            return bool(
                np.max(np.abs(self.matrix)) <= atol
                and np.max(np.abs(other.matrix)) <= atol
            )
        phase = overlap / abs(overlap)
        return bool(np.max(np.abs(self.matrix * phase - other.matrix)) <= atol)


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector or density matrix on a qubit register.

    ``kind`` is ``"pure"`` (``data`` is a unit vector) or ``"mixed"``
    (``data`` is a unit-trace positive semidefinite matrix).
    """

    kind: str
    data: np.ndarray
    qubits: int

    def __post_init__(self):
        _check_width(self.qubits)
        d = 2 ** self.qubits
        arr = np.array(self.data, dtype=np.complex128)
        if self.kind == "pure":
            if arr.shape != (d,):
                raise ValueError("pure state must be a vector of length 2**n")
            norm = np.linalg.norm(arr)
            if abs(norm - 1.0) > 1e-9:
                raise ValueError(f"pure state norm {norm} is not 1")
            # Snap tiny drift so long pipelines stay normalised.
            arr = arr / norm
        elif self.kind == "mixed":
            if arr.shape != (d, d):
                raise ValueError("mixed state must be a 2**n square matrix")
            if np.max(np.abs(arr - arr.conj().T)) > 1e-9:
                raise ValueError("density matrix must be Hermitian")
            tr = np.trace(arr).real
            if abs(tr - 1.0) > 1e-9:
                raise ValueError(f"density matrix trace {tr} is not 1")
            arr = arr / tr
            low = float(np.min(np.linalg.eigvalsh(arr)))
            if low < PSD_EIG_FLOOR:
                raise ValueError(f"density matrix has eigenvalue {low} < 0")
        else:
            raise ValueError("state kind must be 'pure' or 'mixed'")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return 2 ** self.qubits

    @classmethod
    def pure(cls, vector: np.ndarray) -> "QuantumState":
        vector = np.asarray(vector)
        n = int(round(math.log2(vector.shape[0])))
        return cls("pure", vector, n)

    @classmethod
    def mixed(cls, rho: np.ndarray) -> "QuantumState":
        rho = np.asarray(rho)
        n = int(round(math.log2(rho.shape[0])))
        return cls("mixed", rho, n)

    @classmethod
    def basis(cls, qubits: int, index: int) -> "QuantumState":
        vec = np.zeros(2 ** qubits, dtype=np.complex128)
        vec[index] = 1.0
        return cls("pure", vec, qubits)

    def density(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; ``a`` supplies the more significant qubits."""
    return Operator(np.kron(a.matrix, b.matrix), a.qubits + b.qubits)


def kron_state(a: QuantumState, b: QuantumState) -> QuantumState:
    if a.kind == "pure" and b.kind == "pure":
        return QuantumState.pure(np.kron(a.data, b.data))
    return QuantumState.mixed(np.kron(a.density(), b.density()))


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def partial_trace(state: QuantumState, keep: Iterable[int]) -> QuantumState:
    """Reduced density matrix over the kept qubits (ascending order)."""
    keep_list = sorted(set(int(q) for q in keep))
    n = state.qubits
    if not keep_list:
        raise ValueError("keep set must not be empty")
    if keep_list[0] < 0 or keep_list[-1] >= n:
        raise ValueError("kept qubit index out of range")
    if 2 * n > len(_LETTERS):
        raise ValueError("register too wide for partial trace")
    keep_set = set(keep_list)
    rho = state.density().reshape([2] * (2 * n))
    row = [_LETTERS[i] for i in range(n)]
    col = [_LETTERS[i] if i not in keep_set else _LETTERS[n + i]
           for i in range(n)]
    out = [_LETTERS[i] for i in keep_list] + [_LETTERS[n + i]
                                              for i in keep_list]
    reduced = np.einsum("".join(row + col) + "->" + "".join(out), rho)
    k = len(keep_list)
    return QuantumState.mixed(reduced.reshape(2 ** k, 2 ** k))


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
    if state.kind == "pure":
        psi = state.data.reshape([2] * n)
        amp = np.tensordot(ket.conj(), psi, axes=([0], [qubit]))
        p = float(np.vdot(amp, amp).real)
        if p < 1e-14:
            raise ValueError("impossible outcome: projection probability is 0")
        collapsed = np.moveaxis(np.multiply.outer(ket, amp), 0, qubit)
        return QuantumState.pure(collapsed.reshape(-1) / math.sqrt(p)), p
    proj = np.outer(ket, ket.conj())
    full = np.kron(
        np.kron(np.eye(2 ** qubit), proj), np.eye(2 ** (n - qubit - 1))
    )
    rho = full @ state.density() @ full
    p = float(np.trace(rho).real)
    if p < 1e-14:
        raise ValueError("impossible outcome: projection probability is 0")
    return QuantumState.mixed(rho / p), p
