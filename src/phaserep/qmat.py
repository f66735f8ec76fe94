"""Dense complex linear algebra for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a computational basis index, so the
  basis label ``|q0 q1 ... q(n-1)>`` reads left to right like the integer's
  binary expansion.
* All matrices and vectors are complex128 ndarrays.  Gates and Kraus
  operators are plain arrays, whose qubit count is read from their
  shape; mixtures enter only as Kraus lists.  The 1->2 replication
  circuits are the ``ReplicationSpec(1, 2)`` case of ``superrep``, read
  off its permutation, so no state vector is ever pushed through a
  circuit.
* Registers wider than ``REGISTER_CAP`` qubits are refused before
  anything is allocated (a memory guard, not a physics limit).
"""
from __future__ import annotations

import math

import numpy as np

REGISTER_CAP = 24


def _check_width(qubits: int) -> None:
    if qubits < 1:
        raise ValueError("register must hold at least 1 qubit")
    if qubits > REGISTER_CAP:
        raise ValueError(
            f"register of {qubits} qubits exceeds the cap of {REGISTER_CAP}"
        )


def normalize_phase(phi: float) -> float:
    """Reduce a phase angle in radians to [0, 2*pi)."""
    return float(phi) % (2.0 * math.pi)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two gates; ``a`` supplies the more significant
    qubits.  The product's width is checked against the cap first."""
    _check_width(int(round(math.log2(a.shape[0] * b.shape[0]))))
    return np.kron(a, b)


_S = 1.0 / math.sqrt(2.0)
PROJECTOR_KETS = {
    "0": np.array([1.0, 0.0], dtype=np.complex128),
    "1": np.array([0.0, 1.0], dtype=np.complex128),
    "+": np.array([_S, _S], dtype=np.complex128),
    "-": np.array([_S, -_S], dtype=np.complex128),
    "+i": np.array([_S, _S * 1j], dtype=np.complex128),
    "-i": np.array([_S, -_S * 1j], dtype=np.complex128),
}
