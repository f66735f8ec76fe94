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
from numbers import Integral, Real

import numpy as np

REGISTER_CAP = 24

# The input rules, one per kind of argument (README, "Inputs"): each
# returns the value as the code uses it or raises ValueError naming it.

# every size becomes an array length or an index
_SIZE_MAX = 2 ** 63 - 1


def _integer(value, name: str, low: int = 0, high: float = _SIZE_MAX) -> int:
    """The integer rule: an ``Integral`` that is not a bool, in
    [low, high], returned as an int.  ``high`` is the size limit unless
    the caller lifts it."""
    if not (isinstance(value, Integral) and not isinstance(value, bool)
            and value >= low):
        kind = "a positive integer" if low == 1 \
            else f"an integer of at least {low}"
        raise ValueError(f"{name} must be {kind}, not {value!r}")
    if value > high:
        raise ValueError(f"{name} {value} exceeds the size limit 2^63 - 1")
    return int(value)


def _seed(value) -> np.random.SeedSequence:
    """The seed rule: a ``SeedSequence`` as it is, or one made from a
    non-negative integer (not a bool) of any size."""
    if isinstance(value, np.random.SeedSequence):
        return value
    return np.random.SeedSequence(_integer(value, "seed", 0, math.inf))


def _trials(value, optional: bool = False) -> int:
    """The trials rule: a bootstrap's trial count, an integer of at least
    2, or 0 (no error bars) where the bootstrap is ``optional``."""
    trials = _integer(value, "trials", 0 if optional else 2)
    if trials == 1:
        raise ValueError("trials must be 0 (no error bars) or at least 2, "
                         "not 1")
    return trials


def _real(value, name: str, low: float = -math.inf, high: float = math.inf,
          positive: bool = False) -> float:
    """The real-number rule: a ``Real`` that is not a bool, finite, in
    [low, high] and, where ``positive`` is set, > 0, returned as a
    float."""
    try:
        x = float(value) if isinstance(value, Real) \
            and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not (math.isfinite(x) and low <= x <= high
            and (x > 0.0 or not positive)):
        bounds = (" > 0" if positive else f" in [{low:g}, {high:g}]"
                  if high < math.inf else f" >= {low:g}"
                  if low > -math.inf else "")
        raise ValueError(f"{name} must be a finite number{bounds}, "
                         f"not {value!r}")
    return x


def _check_width(qubits: int) -> None:
    if qubits < 1:
        raise ValueError("register must hold at least 1 qubit")
    if qubits > REGISTER_CAP:
        raise ValueError(
            f"register of {qubits} qubits exceeds the cap of {REGISTER_CAP}"
        )


def _phases(phi) -> np.ndarray:
    """The phase rule (see ``normalize_phase``): ``phi`` as a float64
    array of its shape."""
    values = phi
    if not (phi.dtype.kind in "iuf" if isinstance(phi, np.ndarray)
            else isinstance(phi, Real) and not isinstance(phi, bool)):
        # number by number: np.asarray reads a bool among floats as 1.0
        # and a string of digits as its number
        values = np.asarray(phi, dtype=object)
        if not all(isinstance(p, Real) and not isinstance(p, bool)
                   for p in values.flat):
            raise ValueError(f"phase {phi!r} is not a real number")
    try:
        values = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"phase {phi!r} is not finite") from None
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(values[~finite][0])
        raise ValueError(f"phase {bad!r} is not finite")
    return values


def normalize_phase(phi: float | np.ndarray) -> float | np.ndarray:
    """Reduce a phase angle in radians to [0, 2*pi); the phase rule.

    ``phi`` is a real number, or an array or nested sequence of them.  A
    bool, a string, a complex value or any other object raises
    ``ValueError`` ("phase True is not a real number"), and so does a
    phase that is not finite ("phase nan is not finite").  A scalar
    gives a float and an array an array, from one computation whose
    entries equal Python's float modulo bit for bit, except that a phase
    in [-4.4e-16, 0) gives 0, not the 2*pi that the modulo rounds to.
    """
    r = np.remainder(_phases(phi), 2.0 * math.pi)
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
