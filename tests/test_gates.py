import cmath
import math

import numpy as np
import pytest

from phaserep.choi import choi_from_kraus, gate_fidelity, process_fidelity
from phaserep.gates import (
    baseline_measure_prepare,
    baseline_single_copy,
    controlled_z,
    cu_phase,
    fidelity_replicas,
    measure_prepare_integrand,
    optimal_cloner,
    optimal_cloner_fidelity,
    phase_gate,
    replicate_measured_form,
    toffoli,
    twirled_mean_fidelity,
)
from phaserep.qmat import kron
from phaserep.superrep import ReplicationSpec, replicated_map

EIGHT_PHASES = [k * math.pi / 8.0 for k in range(8)]


def _equal_up_to_global_phase(a, b, atol=1e-10):
    """Phase-insensitive equality, usable for any nonzero operators."""
    if a.shape != b.shape:
        return False
    overlap = np.trace(a.conj().T @ b)
    if abs(overlap) < atol:
        # No aligning phase exists unless both operators vanish.
        return bool(np.max(np.abs(a)) <= atol and np.max(np.abs(b)) <= atol)
    phase = overlap / abs(overlap)
    return bool(np.max(np.abs(a * phase - b)) <= atol)


def _random_two_qubit_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def _literal_circuit(phi):
    """W = (I_4 (x) U) Toffoli from plain np.kron; reshaped to
    (4, 2, 4, 2) it is indexed [signal', ancilla', signal, ancilla]."""
    return np.kron(np.eye(4), phase_gate(phi)) @ toffoli()


def test_phase_gate_matrix():
    phi = 0.7
    expected = np.diag([1.0, cmath.exp(1j * phi)])
    assert np.max(np.abs(phase_gate(phi) - expected)) < 1e-15


def test_cu_phase_matrix():
    phi = 2.3
    expected = np.diag([1.0, 1.0, 1.0, cmath.exp(1j * phi)])
    assert np.max(np.abs(cu_phase(phi) - expected)) < 1e-15


def test_controlled_z_is_pi_controlled_phase():
    assert np.array_equal(controlled_z(), np.diag([1, 1, 1, -1.0]))


def test_toffoli_is_permutation_flipping_target():
    t = toffoli()
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.array_equal(t, expected)


def test_two_copy_fidelity_closed_form():
    for phi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        expected = (5.0 + 3.0 * math.cos(phi)) / 8.0
        assert abs(fidelity_replicas(phi) - expected) < 1e-10


def test_unitary_form_is_the_replicated_map():
    # Toffoli, U on the ancilla, Toffoli: the ancilla |0> returns to |0>
    # and the signal sees the N = 1, M = 2 replicated map
    for phi in (0.0, 1.1, 2.5, 4.0):
        s4 = (toffoli() @ _literal_circuit(phi)).reshape(4, 2, 4, 2)
        assert np.max(np.abs(s4[:, 1, :, 0])) == 0.0
        assert np.max(np.abs(s4[:, 0, :, 0] - cu_phase(phi))) < 1e-15
        replicated = np.diag(replicated_map(ReplicationSpec(1, 2), phi))
        assert np.max(np.abs(replicated - cu_phase(phi))) < 1e-15


def test_replicate_measured_form_branches():
    for phi in (0.0, 0.9, 2.2, math.pi, 5.5):
        plus, minus = replicate_measured_form(phi)
        w4 = _literal_circuit(phi).reshape(4, 2, 4, 2)
        literal_plus = (w4[:, 0, :, 0] + w4[:, 1, :, 0]) / math.sqrt(2.0)
        literal_minus = (w4[:, 0, :, 0] - w4[:, 1, :, 0]) / math.sqrt(2.0)
        assert np.max(np.abs(plus - literal_plus)) < 1e-15
        assert np.max(np.abs(minus - literal_minus)) < 1e-15
        wrong_sign = np.diag([1, 1, 1, -cmath.exp(1j * phi)])
        assert np.max(np.abs(math.sqrt(2.0) * plus - cu_phase(phi))) < 1e-15
        assert np.max(np.abs(math.sqrt(2.0) * minus - wrong_sign)) < 1e-15
        assert not _equal_up_to_global_phase(minus, plus)


def test_measured_form_feedforward_corrects_minus_branch():
    for phi in (0.4, 2.2, 3.9):
        plus, minus = replicate_measured_form(phi)
        assert np.max(np.abs(controlled_z() @ minus - plus)) < 1e-15
        chi = choi_from_kraus([plus, controlled_z() @ minus])
        assert chi.trace == pytest.approx(1.0, abs=1e-14)
        assert process_fidelity(chi, cu_phase(phi)) \
            == pytest.approx(1.0, abs=1e-14)


def test_branch_probabilities_are_input_independent(rng):
    for phi in (0.4, 1.7):
        for k in replicate_measured_form(phi):
            assert np.max(np.abs(k.conj().T @ k - np.eye(4) / 2)) < 1e-15
            for _ in range(4):
                psi = _random_two_qubit_state(rng)
                assert np.linalg.norm(k @ psi) ** 2 \
                    == pytest.approx(0.5, abs=1e-14)


def test_twirled_mean_is_five_eighths_for_any_phase():
    values = [twirled_mean_fidelity(64, phi) for phi in EIGHT_PHASES]
    assert np.max(np.abs(np.array(values) - 0.625)) < 1e-9
    assert np.var(values) < 1e-10


def test_twirled_mean_needs_a_grid():
    with pytest.raises(ValueError):
        twirled_mean_fidelity(1)


def test_single_copy_baseline():
    assert baseline_single_copy(0.0) == pytest.approx(1.0, abs=1e-12)
    assert baseline_single_copy(math.pi / 2) == pytest.approx(0.5, abs=1e-12)
    assert baseline_single_copy(math.pi) == pytest.approx(0.0, abs=1e-12)
    mean = np.mean([
        baseline_single_copy(p)
        for p in np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
    ])
    assert mean == pytest.approx(0.5, abs=1e-9)


def test_measure_prepare_integrand_peak():
    # estimate delta = 0: prior (1+cos 0)/(2 pi) times fidelity cos^4(0)
    assert measure_prepare_integrand(0.0) == pytest.approx(1.0 / math.pi)
    assert measure_prepare_integrand(math.pi) == pytest.approx(0.0, abs=1e-12)


def test_measure_prepare_baseline_value():
    assert baseline_measure_prepare() == pytest.approx(0.625, abs=1e-9)


def test_cloner_channel_is_trace_preserving():
    for phi in (0.0, 0.8, math.pi):
        kraus = optimal_cloner(phi)
        assert len(kraus) == 2
        total = sum(k.conj().T @ k for k in kraus)
        assert np.max(np.abs(total - np.eye(4))) < 1e-12


def test_cloner_fidelity_is_phase_independent_constant():
    expected = (3.0 + 2.0 * math.sqrt(2.0)) / 8.0
    for phi in np.linspace(0.0, 2 * math.pi, 9):
        assert abs(optimal_cloner_fidelity(phi) - expected) < 1e-12


def test_cloner_matches_measurement_variant():
    # Independent construction: same network without the final CNOT pair,
    # ancilla read out in the +/- basis, Z(x)Z feed-forward on the minus
    # branch.  Both routes must give the same channel.
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    ch = np.eye(8, dtype=np.complex128)
    ch[4:, 4:] = np.kron(np.eye(2), had)  # H on ancilla when q0 = 1
    ch2 = np.eye(8, dtype=np.complex128)
    for block in (2, 6):  # q1 = 1 blocks
        ch2[block:block + 2, block:block + 2] = had
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    for phi in (0.3, 1.7, 4.0):
        w = (
            np.kron(np.eye(4), np.diag([1.0, cmath.exp(1j * phi)]))
            @ toffoli() @ ch2 @ ch
        )
        arr = w.reshape(4, 2, 4, 2)
        m_plus = (arr[:, 0, :, 0] + arr[:, 1, :, 0]) / math.sqrt(2.0)
        m_minus = (arr[:, 0, :, 0] - arr[:, 1, :, 0]) / math.sqrt(2.0)
        chi_meas = choi_from_kraus([m_plus, zz @ m_minus])
        chi_gate = choi_from_kraus(optimal_cloner(phi))
        assert np.max(np.abs(chi_meas.matrix - chi_gate.matrix)) < 1e-12


def test_cloner_beats_single_copy_average_but_not_ideal():
    avg = np.mean([
        optimal_cloner_fidelity(p)
        for p in np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    ])
    assert 0.625 < avg < 1.0


def test_gate_fidelity_of_replicas_uses_choi_overlap():
    phi = 1.3
    u = phase_gate(phi)
    direct = gate_fidelity(cu_phase(phi), kron(u, u))
    assert direct == pytest.approx(fidelity_replicas(phi), abs=1e-13)


def test_cloner_choi_is_valid_process_matrix():
    chi = choi_from_kraus(optimal_cloner(1.0))
    assert chi.trace == pytest.approx(1.0, abs=1e-12)
    assert process_fidelity(chi, cu_phase(1.0)) < 1.0
