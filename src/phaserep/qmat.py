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
* Every value is checked once, where it enters: a public function
  applies the input rules below to its arguments, then calls one
  private kernel (``kron`` calls ``_kron``).  Calls inside the package,
  whose values were checked or made there, go straight to the kernels.
  A record checks its fields when it is made; only an optics scan row
  (``OpticsParams._replaced``) copies fields that passed their rules.
"""
from __future__ import annotations

import math
from numbers import Integral, Number, Real

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


def _numbers(value, name: str, number=Real, dtype=np.float64) -> np.ndarray:
    """The entries of every array rule, as an ndarray of ``dtype`` (None:
    numpy's): numbers (Real, or Number for complex), not bools, finite."""
    kinds = "iufc" if number is Number else "iuf"
    if not (isinstance(value, np.ndarray) and value.dtype.kind in kinds):
        # number by number: np.asarray reads a bool among floats as 1.0
        # and a string of digits as its number
        bad = [x for x in np.asarray(value, dtype=object).flat
               if not isinstance(x, number) or isinstance(x, bool)]
        if bad:
            kind = "number" if number is Number else "real number"
            raise ValueError(f"{name} {bad[0]!r} is not a {kind}")
    try:  # an int past the float range overflows, past int64 is an object
        array = np.asarray(value, dtype=dtype)
        finite = np.isfinite(array)
    except (OverflowError, TypeError):
        raise ValueError(f"{name} {value!r} is not finite") from None
    if not finite.all():
        raise ValueError(f"{name} {array[~finite][0].item()!r} is not finite")
    return array


def _phase_list(phi, name: str, ndims=(1,)) -> np.ndarray:
    """The phase-list rule: the phase rule, as one phase (ndim 0) or a
    non-empty 1-D list (ndim 1), as ``ndims`` allows; not wrapped."""
    values = _numbers(phi, "phase")
    if values.ndim not in ndims or not values.size:
        forms = " or ".join(("one phase", "a non-empty 1-D list of phases")
                            [n] for n in ndims)
        raise ValueError(f"{name} must be {forms}, got shape {values.shape}")
    return values


def _reals(values, name: str, low=-math.inf, size=None) -> np.ndarray:
    """The real-vector rule: the real-number rule (>= ``low``) on each
    entry of a 1-D list, of ``size`` entries where given; a new array."""
    x = np.array(_numbers(values, f"{name} entry"))
    for below in x[x < low][:1]:
        _real(float(below), f"{name} entry", low)  # raises
    if x.ndim != 1 or size not in (None, x.size):
        length = f" of length {size}" if size else ""
        raise ValueError(f"{name} must be 1-D{length}, got shape {x.shape}")
    return x


def _sizes(values, name: str) -> list[int]:
    """The size-list rule: the integer rule (>= 1) on each entry."""
    entries = np.asarray(values, dtype=object)
    if entries.ndim != 1:
        raise ValueError(f"{name} must be a 1-D list, not {values!r}")
    return [_integer(n, name, 1) for n in entries]


def _operator(value, name: str, ndim: int, stacked: bool = True,
              square: bool = True) -> np.ndarray:
    """The operator-array rule: a ket (``ndim`` 1), gate (2) or Kraus array
    (3) by ``_numbers``, after any stack axes where ``stacked``; each side
    2^k long, and where ``square`` the two equal, in the width guard."""
    ops = _numbers(value, f"{name} entry", Number, None)
    shape = ops.shape
    if not (ops.ndim == ndim or stacked and ops.ndim > ndim) \
            or 0 in shape[-ndim:] \
            or any(n & (n - 1) for n in shape[-min(ndim, 2):]) \
            or square and shape[-1] != shape[-2]:
        kind = ("ket", "gate" if square else "matrix", "Kraus array")
        raise ValueError(f"{name} of shape {shape} is not a {kind[ndim - 1]}"
                         " with sides of 2^k entries")
    if square:
        _check_width(shape[-1].bit_length() - 1)
    return ops


def _record(value, name: str, kind: type):
    """The record rule: one ``kind`` instance (a ``ReplicationSpec``,
    ``TomographyDataset``, ``TomographyDesign``, ``ProcessMatrix`` or
    ``OpticsParams``), whose fields were checked when it was made."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be one {kind.__name__}, not {value!r}")
    return value


def _records(values, name: str, kind: type) -> list:
    """The record rule on each entry of a list or tuple, which may be
    empty."""
    if not (isinstance(values, (list, tuple))
            and all(isinstance(v, kind) for v in values)):
        raise ValueError(f"{name} must be a list of {kind.__name__}, "
                         f"not {values!r}")
    return list(values)


def _wrap(phases: np.ndarray) -> float | np.ndarray:
    """The phase kernel: checked phases reduced to [0, 2*pi), a float for
    a 0-d array and an array otherwise (see ``normalize_phase``)."""
    r = np.remainder(phases, 2.0 * math.pi)
    # phi in [-4.4e-16, 0) rounds up to 2*pi itself
    r = np.where(r == 2.0 * math.pi, 0.0, r)
    return float(r) if r.ndim == 0 else r


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
    return _wrap(_numbers(phi, "phase"))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two gates (or two kets); ``a`` supplies the more
    significant qubits.  Both follow the operator-array rule, each side
    2^k long, and the product's width is checked against the cap first.

    Gates may carry leading axes (a stack of gates, one per phase), which
    broadcast against each other; kets are 1-D.  One broadcast multiply:
    every entry is the same single product a[i, j] * b[k, l] that
    ``np.kron`` forms, so each matrix of the result is bit-identical to
    it, without its generic-rank overhead.
    """
    ket = np.ndim(a) == np.ndim(b) == 1
    a, b = (_operator(x, name, 1 if ket else 2, square=False)
            for x, name in ((a, "a"), (b, "b")))
    rows = a.shape[-1 if ket else -2] * b.shape[-1 if ket else -2]
    _check_width(rows.bit_length() - 1)
    return _kron(a, b)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The kernel of ``kron``: two kets, or two gates or stacks of gates,
    each an ndarray whose width the caller has bounded."""
    ket = a.ndim == 1
    if ket:
        a, b = a[:, None], b[:, None]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
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
