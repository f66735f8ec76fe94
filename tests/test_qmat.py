import numpy as np
import pytest

from phaserep.qmat import (
    Operator,
    QuantumState,
    kron,
    kron_state,
    normalize_phase,
    partial_trace,
    project_and_renormalize,
    register_cap,
    set_register_cap,
)

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
    got = kron(Operator(X, 1), Operator(Z, 1))
    assert got.qubits == 2
    assert np.array_equal(got.matrix, expected)


def test_qubit_zero_is_most_significant():
    one = np.array([0.0, 1.0], dtype=np.complex128)
    zero = np.array([1.0, 0.0], dtype=np.complex128)
    state = kron_state(QuantumState.pure(one), QuantumState.pure(zero))
    # |10> must sit at index 2, not 1
    expected = np.zeros(4, dtype=np.complex128)
    expected[2] = 1.0
    assert np.array_equal(state.data, expected)


def test_normalize_phase_wraps_into_period():
    assert normalize_phase(2.0 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert normalize_phase(-np.pi / 2) == pytest.approx(3 * np.pi / 2)
    assert normalize_phase(4 * np.pi + 1.0) == pytest.approx(1.0)
    assert normalize_phase(1.25) == 1.25


def test_operator_validation():
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)), 1)
    with pytest.raises(ValueError):
        Operator(np.eye(4), 1)  # size/qubits mismatch


def test_operator_unitarity_flag():
    assert Operator(X, 1).is_unitary()
    assert not Operator(2.0 * X, 1).is_unitary()


def test_adjoint_inverts_unitary():
    u = Operator(np.array([[1.0, 0.0], [0.0, np.exp(0.3j)]]), 1)
    prod = u.adjoint() @ u
    assert np.max(np.abs(prod.matrix - np.eye(2))) < 1e-14


def test_equals_up_to_global_phase():
    u = Operator(X, 1)
    assert u.equals_up_to_global_phase(Operator(np.exp(0.7j) * X, 1))
    assert not u.equals_up_to_global_phase(Operator(Z, 1))


def test_pure_state_norm_checked():
    with pytest.raises(ValueError):
        QuantumState.pure(np.array([1.0, 1.0]))
    # tiny drift is tolerated and renormalized
    v = np.array([1.0, 0.0]) * (1.0 + 1e-12)
    state = QuantumState.pure(v)
    assert abs(np.linalg.norm(state.data) - 1.0) < 1e-13


def test_mixed_state_validation():
    with pytest.raises(ValueError):
        QuantumState.mixed(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not herm
    with pytest.raises(ValueError):
        QuantumState.mixed(np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValueError):
        QuantumState.mixed(np.diag([0.6, 0.6]))  # trace != 1


def test_density_of_pure_state():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rho = QuantumState.pure(plus).density()
    assert np.max(np.abs(rho - 0.5 * np.ones((2, 2)))) < 1e-14


def test_partial_trace_bell_state_is_maximally_mixed():
    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    state = QuantumState.pure(bell)
    for keep in ([0], [1]):
        red = partial_trace(state, keep)
        assert np.max(np.abs(red.data - 0.5 * np.eye(2))) < 1e-14


def test_partial_trace_keeps_requested_qubit():
    one = QuantumState.pure(np.array([0.0, 1.0], dtype=np.complex128))
    zero = QuantumState.pure(np.array([1.0, 0.0], dtype=np.complex128))
    state = kron_state(one, zero)  # |10>
    rho0 = partial_trace(state, [0])
    rho1 = partial_trace(state, [1])
    assert np.max(np.abs(rho0.data - np.diag([0.0, 1.0]))) < 1e-14
    assert np.max(np.abs(rho1.data - np.diag([1.0, 0.0]))) < 1e-14


def test_partial_trace_requires_kept_qubit():
    state = QuantumState.basis(2, 0)
    with pytest.raises(ValueError):
        partial_trace(state, [])


def test_projection_probabilities_sum_to_one(rng):
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = QuantumState.pure(v / np.linalg.norm(v))
    for pair in (("0", "1"), ("+", "-"), ("+i", "-i")):
        for qubit in range(3):
            total = 0.0
            for outcome in pair:
                _, prob = project_and_renormalize(state, qubit, outcome)
                total += prob
            assert total == pytest.approx(1.0, abs=1e-12)


def test_projection_collapses_plus_state():
    plus = QuantumState.pure(np.array([1.0, 1.0]) / np.sqrt(2.0))
    collapsed, prob = project_and_renormalize(plus, 0, "0")
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(collapsed.data - np.array([1.0, 0.0]))) < 1e-12


def test_projection_impossible_outcome():
    zero = QuantumState.basis(1, 0)
    with pytest.raises(ValueError, match="impossible outcome"):
        project_and_renormalize(zero, 0, "1")


def test_projection_on_mixed_state():
    rho = QuantumState.mixed(np.diag([0.25, 0.75]))
    collapsed, prob = project_and_renormalize(rho, 0, "1")
    assert prob == pytest.approx(0.75, abs=1e-12)
    assert np.max(np.abs(collapsed.data - np.diag([0.0, 1.0]))) < 1e-12


def test_register_cap_guard():
    set_register_cap(4)
    assert register_cap() == 4
    with pytest.raises(ValueError, match="cap"):
        Operator(np.eye(32), 5)
    with pytest.raises(ValueError):
        set_register_cap(0)


def test_kron_state_of_density_matrices():
    a = QuantumState.mixed(np.diag([0.5, 0.5]))
    b = QuantumState.basis(1, 1)
    joint = kron_state(a, b)
    assert joint.qubits == 2
    assert np.max(np.abs(joint.data - np.diag([0.0, 0.5, 0.0, 0.5]))) \
        < 1e-14
