import math

import numpy as np
import pytest

from phaserep.qmat import REGISTER_CAP, _check_width, kron, normalize_phase

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def test_kron_matches_hand_expansion():
    # X (x) Z written out by hand, qubit 0 most significant
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=np.complex128,
    )
    got = kron(X, Z)
    assert got.shape == (4, 4)
    assert np.array_equal(got, expected)


def test_qubit_zero_is_most_significant():
    one = np.array([0.0, 1.0], dtype=np.complex128)
    zero = np.array([1.0, 0.0], dtype=np.complex128)
    state = kron(one, zero)
    # |10> must sit at index 2, not 1
    expected = np.zeros(4, dtype=np.complex128)
    expected[2] = 1.0
    assert np.array_equal(state, expected)


_R = np.array([[0.3, -1.7], [2.5, 0.1]])
_C = np.array([[0.6 - 0.2j, 1.1j], [-0.4, 0.9 + 1e-17j]])


@pytest.mark.parametrize("a, b", [
    (np.array([0.6, 0.8]), np.array([-1.0, 0.25, 3.0, 1e-300])),
    (X[0] * (0.5 + 0.5j), np.array([1.0 / 3.0, -2.0 + 1e-9j])),
    (_R, _R),
    (_C, np.kron(_C, _R)),
    (np.kron(_R, _C), _C),
    (_R, _C),
    (_R[:, :1], _R[:, 1:]),
    (_C[:, 1:], np.kron(_C, _C)[:, :1]),
], ids=["1d-real", "1d-complex", "square-real", "square-complex-wide-b",
        "square-complex-wide-a", "square-mixed", "column-real",
        "column-complex"])
def test_kron_is_bitwise_np_kron(a, b):
    got, want = kron(a, b), np.kron(a, b)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_normalize_phase_wraps_into_period():
    assert normalize_phase(2.0 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert normalize_phase(-np.pi / 2) == pytest.approx(3 * np.pi / 2)
    assert normalize_phase(4 * np.pi + 1.0) == pytest.approx(1.0)
    assert normalize_phase(1.25) == 1.25
    # 2*pi + phi rounds to 2*pi itself here, which is the phase 0
    for phi in (-1e-20, -4e-16):
        assert normalize_phase(phi) == 0.0
    assert 0.0 < normalize_phase(-5e-16) < 2 * np.pi


def test_normalize_phase_of_an_array_matches_the_float_form():
    phases = [0.0, -1e-20, -4e-16, -5e-16, -1.5, 7.0, 2.0 * np.pi, 1e300,
              -1e300, 4.0 * np.pi + 1.0]
    got = normalize_phase(np.array(phases))
    assert got.shape == (len(phases),)
    for phi, r in zip(phases, got):
        # the float form, and Python's own float modulo as its oracle
        want = normalize_phase(phi)
        assert type(want) is float
        oracle = phi % (2.0 * math.pi)
        oracle = 0.0 if oracle == 2.0 * math.pi else oracle
        assert np.float64(want).tobytes() == np.float64(oracle).tobytes()
        assert np.float64(want).tobytes() == r.tobytes()


def test_normalize_phase_rejects_a_non_finite_phase():
    # a ValueError naming the phase, not the NaN of Python's float modulo
    # (and no "invalid value" RuntimeWarning, which the test settings turn
    # into an error)
    phases = [math.inf, -math.inf, math.nan]
    for phi in phases:
        with pytest.raises(ValueError, match=f"^phase {phi!r} is not finite"):
            normalize_phase(phi)
        with pytest.raises(ValueError, match=f"^phase {phi!r} is not finite"):
            normalize_phase(np.array([0.5, phi, 1.0]))


def test_kron_broadcasts_over_leading_axes():
    stack = np.array([_C, _R, X])
    for a, b in ((stack, _C), (_R, stack), (stack, stack[::-1])):
        got = kron(a, b)
        assert got.shape == (3, 4, 4)
        for k in range(3):
            a_k = a[k] if a.ndim == 3 else a
            b_k = b[k] if b.ndim == 3 else b
            assert np.array_equal(got[k], np.kron(a_k, b_k))


def test_register_cap_guard():
    # the product's width is refused before np.kron allocates it: a
    # (2^13 x 1) by (2^12 x 1) product would hold REGISTER_CAP + 1 qubits
    assert REGISTER_CAP == 24
    with pytest.raises(ValueError, match="cap"):
        kron(np.zeros((2 ** 13, 1)), np.zeros((2 ** 12, 1)))
    assert kron(np.eye(4), np.eye(4)).shape == (16, 16)
    _check_width(REGISTER_CAP)
    with pytest.raises(ValueError, match="cap"):
        _check_width(REGISTER_CAP + 1)
