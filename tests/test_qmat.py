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


def test_normalize_phase_wraps_into_period():
    assert normalize_phase(2.0 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert normalize_phase(-np.pi / 2) == pytest.approx(3 * np.pi / 2)
    assert normalize_phase(4 * np.pi + 1.0) == pytest.approx(1.0)
    assert normalize_phase(1.25) == 1.25


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
