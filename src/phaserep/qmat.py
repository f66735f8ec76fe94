"""Dense complex linear algebra for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a computational basis index, so the
  basis label ``|q0 q1 ... q(n-1)>`` reads left to right like the integer's
  binary expansion.
* All matrices and vectors are complex128 ndarrays.  Gates and Kraus
  operators are plain arrays, whose qubit count is read from their
  shape; a mixture is a Kraus array of shape (n, d, d), the operators
  on axis -3.  A phase sweep stacks them along leading axes: P gates as
  (P, d, d), P Kraus arrays as (P, n, d, d).  The 1->2 replication
  circuits are the ``ReplicationSpec(1, 2)`` case of ``superrep``, read
  off its permutation, so no state vector is ever pushed through a
  circuit.
* Registers wider than ``REGISTER_CAP`` qubits are refused before
  anything is allocated (a memory guard, not a physics limit).
"""
from __future__ import annotations

import math
from numbers import Integral

import numpy as np

REGISTER_CAP = 24


def _integer(value) -> bool:
    """True for Python and numpy integers, False for bool and the rest."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_width(qubits: int) -> None:
    if qubits < 1:
        raise ValueError("register must hold at least 1 qubit")
    if qubits > REGISTER_CAP:
        raise ValueError(
            f"register of {qubits} qubits exceeds the cap of {REGISTER_CAP}"
        )


def normalize_phase(phi: float | np.ndarray) -> float | np.ndarray:
    """Reduce a phase angle in radians to [0, 2*pi).

    A float gives a float and an array of phases an array, from one
    computation whose entries equal Python's float modulo bit for bit.
    A non-finite phase gives NaN, silently, as that modulo does.
    """
    with np.errstate(invalid="ignore"):
        r = np.remainder(np.asarray(phi, dtype=np.float64), 2.0 * math.pi)
    # phi in [-4.4e-16, 0) rounds up to 2*pi itself
    r = np.where(r == 2.0 * math.pi, 0.0, r)
    return float(r) if r.ndim == 0 else r


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two gates (or two kets); ``a`` supplies the more
    significant qubits.  The product's width is checked against the cap
    first.

    Gates may carry leading axes (a stack of gates, one per phase), which
    broadcast against each other; kets are 1-D.  One broadcast multiply:
    every entry is the same single product a[i, j] * b[k, l] that
    ``np.kron`` forms, so each matrix of the result is bit-identical to
    it, without its generic-rank overhead.
    """
    ket = a.ndim == b.ndim == 1
    if ket:
        a, b = a[:, None], b[:, None]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    _check_width(int(round(math.log2(rows))))
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(
        batch + (rows, cols))
    return out.reshape(-1) if ket else out


_S = 1.0 / math.sqrt(2.0)
PROJECTOR_KETS = {
    "0": np.array([1.0, 0.0], dtype=np.complex128),
    "1": np.array([0.0, 1.0], dtype=np.complex128),
    "+": np.array([_S, _S], dtype=np.complex128),
    "-": np.array([_S, -_S], dtype=np.complex128),
    "+i": np.array([_S, _S * 1j], dtype=np.complex128),
    "-i": np.array([_S, -_S * 1j], dtype=np.complex128),
}
