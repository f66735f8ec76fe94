import cmath
import math

import numpy as np
import pytest

from phaserep.choi import choi_from_kraus, process_fidelity
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
from phaserep.qmat import normalize_phase
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
    for size in (1, 2.5, 2.0, math.inf, True):
        with pytest.raises(ValueError, match="integer of at least 2"):
            twirled_mean_fidelity(size)
    assert twirled_mean_fidelity(np.int64(64), 0.3) \
        == twirled_mean_fidelity(64, 0.3)


def test_twirled_mean_is_the_mean_of_scalar_calls():
    thetas = 2.0 * math.pi * np.arange(64) / 64
    for phi in (0.0, 1.3, -2.0):
        want = float(np.mean([fidelity_replicas(normalize_phase(phi) + t)
                              for t in thetas]))
        assert twirled_mean_fidelity(64, phi) == want


@pytest.mark.parametrize("fn", [
    phase_gate, cu_phase, optimal_cloner, fidelity_replicas,
    baseline_single_copy, optimal_cloner_fidelity,
], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("phases", [
    [0.7], [0.0, -1e-20, -1.5, 7.0, 2.0 * math.pi, 1e300, math.pi],
], ids=["one-phase", "grid"])
def test_phase_arrays_give_the_scalar_results_row_by_row(fn, phases):
    got = fn(np.array(phases))
    assert isinstance(got, np.ndarray) and len(got) == len(phases)
    for phi, row in zip(phases, got):
        want = fn(phi)
        if isinstance(want, float):
            assert row == want
        else:
            assert np.asarray(want).tobytes() == row.tobytes()


def test_a_float_phase_keeps_the_scalar_types():
    assert phase_gate(0.4).shape == (2, 2)
    assert cu_phase(0.4).shape == (4, 4)
    assert optimal_cloner(0.4).shape == (2, 4, 4)
    for fn in (fidelity_replicas, baseline_single_copy,
               optimal_cloner_fidelity):
        assert type(fn(0.4)) is float


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


def _literal_cloner(phi):
    """The cloner circuit from plain np.kron on (q0, q1, ancilla): CH from
    q0 and from q1 onto the ancilla, Toffoli, the phase on the ancilla,
    CNOT from q0 and from q1; branch b is W[:, b, :, 0]."""
    i2, i4 = np.eye(2), np.eye(4)
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def from_q0(g):
        return np.kron(p0, i4) + np.kron(p1, np.kron(i2, g))

    def from_q1(g):
        return np.kron(i2, np.kron(p0, i2) + np.kron(p1, g))

    tof = np.eye(8) + np.kron(np.kron(p1, p1), x - i2)
    phase = np.kron(i4, np.diag([1.0, cmath.exp(1j * phi)]))
    w = np.eye(8)
    for gate in (from_q0(had), from_q1(had), tof, phase, from_q0(x),
                 from_q1(x)):
        w = gate @ w
    w4 = w.reshape(4, 2, 4, 2)
    return [w4[:, b, :, 0] for b in (0, 1)]


def test_cloner_is_the_literal_circuit():
    for phi in (0.0, 0.8, math.pi, 5.5, -1.2, 9.0):
        for got, want in zip(optimal_cloner(phi), _literal_cloner(phi)):
            assert np.max(np.abs(got - want)) <= 1e-15


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


def test_cloner_choi_is_valid_process_matrix():
    chi = choi_from_kraus(optimal_cloner(1.0))
    assert chi.trace == pytest.approx(1.0, abs=1e-12)
    assert process_fidelity(chi, cu_phase(1.0)) < 1.0
