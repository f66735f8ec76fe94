"""Phase gates, the 1->2 replication circuits, baselines, and the cloner.

A phase gate diag(1, e^{i*phi}) can be replicated onto two qubits with a
single ancilla: Toffoli, phase gate on the ancilla, Toffoli (unitary form),
or Toffoli, phase gate, ancilla measurement in the |+/-> basis with a
conditional controlled-Z correction (measured form).  Both realize the
two-qubit gate diag(1, 1, 1, e^{i*phi}).

Fidelities between constructions are Choi gate fidelities (see ``choi``);
the closed forms quoted in the docstrings serve as test oracles only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choi import choi_from_kraus, gate_fidelity, process_fidelity
from .qmat import (
    PROJECTOR_KETS,
    Operator,
    QuantumState,
    kron,
    kron_state,
    normalize_phase,
    project_and_renormalize,
)


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]])
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def phase_gate(phi: float) -> Operator:
    """diag(1, e^{i*phi}) on one qubit."""
    phi = normalize_phase(phi)
    return Operator(np.diag([1.0, np.exp(1j * phi)]), 1)


def cu_phase(phi: float) -> Operator:
    """Controlled phase gate diag(1, 1, 1, e^{i*phi}) on two qubits."""
    phi = normalize_phase(phi)
    return Operator(np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]), 2)


def controlled_z() -> Operator:
    """diag(1, 1, 1, -1); the measured-form feed-forward correction."""
    # written out rather than cu_phase(pi) so the -1 entry is exact
    return Operator(np.diag([1.0, 1.0, 1.0, -1.0]), 2)


def toffoli() -> Operator:
    """Three-qubit gate flipping qubit 2 iff qubits 0 and 1 are |1>."""
    m = np.eye(8)
    m[6, 6] = m[7, 7] = 0.0
    m[6, 7] = m[7, 6] = 1.0
    return Operator(m, 3)


def _ancilla_gate(single: np.ndarray, control: int) -> np.ndarray:
    # 3-qubit gate applying ``single`` to qubit 2 iff ``control`` is |1>
    if control == 0:
        return np.kron(_P0, np.eye(4)) + np.kron(_P1, np.kron(np.eye(2),
                                                              single))
    return np.kron(np.eye(2),
                   np.kron(_P0, np.eye(2)) + np.kron(_P1, single))


def _signal_from_collapsed(vec: np.ndarray, ket: np.ndarray) -> np.ndarray:
    # vec = signal (x) ket on (2+1) qubits; recover the signal vector
    return vec.reshape(4, 2) @ ket.conj()


def replicate_unitary_form(phi: float, psi_in: QuantumState) -> QuantumState:
    """Unitary-form replication: Toffoli, phase on ancilla, Toffoli.

    Simulates the full 3-qubit circuit with the ancilla in |0>, verifies
    that the ancilla disentangles back to |0>, and returns the two-qubit
    signal state, which equals cu_phase(phi) applied to the input.
    """
    phi = normalize_phase(phi)
    if psi_in.qubits != 2:
        raise ValueError("input must be a pure 2-qubit state")
    t = toffoli()
    u_anc = kron(Operator.identity(2), phase_gate(phi))
    state = kron_state(psi_in, QuantumState.basis(1, 0))
    state = t.apply(u_anc.apply(t.apply(state)))
    # columns: ancilla |0> and |1> components of the signal
    split = state.data.reshape(4, 2)
    if np.vdot(split[:, 1], split[:, 1]).real > 1e-10:
        raise RuntimeError("ancilla failed to disentangle to |0>")
    return QuantumState.pure(split[:, 0])


@dataclass(frozen=True)
class ReplicationOutcome:
    """One ancilla-measurement branch of the measured-form circuit.

    ``effective_operator`` is the unitary the branch enacts on the signal
    qubits (the 1/sqrt(2) branch amplitude is reported separately as
    ``branch_probability``); ``state`` is the simulated post-measurement
    signal state with any requested feed-forward already applied.
    """

    branch: str
    effective_operator: Operator
    branch_probability: float
    state: QuantumState


def replicate_measured_form(
    phi: float,
    psi_in: QuantumState,
    apply_feedforward: bool = False,
) -> tuple[ReplicationOutcome, ReplicationOutcome]:
    """Measured-form replication: Toffoli, phase on ancilla, |+/-> readout.

    Returns the (plus, minus) branches.  The plus branch enacts
    cu_phase(phi); the minus branch enacts diag(1,1,1,-e^{i*phi}) and is
    corrected to cu_phase(phi) by a controlled-Z when
    ``apply_feedforward`` is set.  Each branch fires with probability 1/2
    regardless of the input state.
    """
    phi = normalize_phase(phi)
    if psi_in.qubits != 2:
        raise ValueError("input must be a pure 2-qubit state")
    t = toffoli()
    u_anc = kron(Operator.identity(2), phase_gate(phi))
    state = u_anc.apply(t.apply(kron_state(psi_in, QuantumState.basis(1, 0))))

    cz = controlled_z()
    outcomes = []
    for branch, label in (("plus", "+"), ("minus", "-")):
        collapsed, prob = project_and_renormalize(state, 2, label)
        signal = _signal_from_collapsed(collapsed.data, PROJECTOR_KETS[label])
        signal = signal / np.linalg.norm(signal)
        effective = cu_phase(phi)
        if branch == "minus":
            effective = Operator(
                np.diag([1.0, 1.0, 1.0, -np.exp(1j * phi)]), 2
            )
            if apply_feedforward:
                signal = cz.matrix @ signal
                effective = cz @ effective
        expected = effective.matrix @ psi_in.data
        if abs(abs(np.vdot(expected, signal)) - 1.0) > 1e-10:
            raise RuntimeError("branch state disagrees with its operator")
        outcomes.append(
            ReplicationOutcome(branch, effective, prob,
                               QuantumState.pure(signal))
        )
    return outcomes[0], outcomes[1]


def fidelity_replicas(phi: float) -> float:
    """Gate fidelity of cu_phase(phi) with two ideal copies of the gate.

    Closed form (test oracle): (5 + 3 cos phi) / 8.
    """
    phi = normalize_phase(phi)
    u = phase_gate(phi)
    return gate_fidelity(cu_phase(phi), kron(u, u))


def twirled_mean_fidelity(grid_size: int, phi: float = 0.0) -> float:
    """Replica fidelity averaged over a uniform random-phase twirl.

    The twirl angle theta runs over a uniform grid of ``grid_size`` points
    on [0, 2*pi); the cosine term of the replica fidelity cancels exactly
    on any such grid, leaving the phase-independent mean 5/8.
    """
    if grid_size < 2:
        raise ValueError("twirl grid needs at least 2 points")
    phi = normalize_phase(phi)
    thetas = 2.0 * math.pi * np.arange(grid_size) / grid_size
    return float(np.mean([fidelity_replicas(phi + t) for t in thetas]))


def baseline_single_copy(phi: float) -> float:
    """Fidelity of applying the gate to one qubit only; cos^2(phi/2)."""
    phi = normalize_phase(phi)
    u = phase_gate(phi)
    return gate_fidelity(kron(u, Operator.identity(1)), kron(u, u))


def measure_prepare_integrand(delta: float) -> float:
    """Estimate-error density (1+cos d)/(2 pi) times fidelity cos^4(d/2)."""
    return (1.0 + math.cos(delta)) / (2.0 * math.pi) * math.cos(
        delta / 2.0) ** 4


def baseline_measure_prepare() -> float:
    """Mean fidelity of the measure-and-prepare strategy.

    Estimate the phase from a single probe (error density
    (1+cos d)/(2 pi)), then apply the estimated gate to both outputs;
    integrating the two-copy fidelity cos^4(d/2) over the error gives 5/8.

    The integrand equals (1 + cos d)^3 / (8 pi), a trigonometric
    polynomial of degree 3, so the periodic trapezoid rule on 8 nodes
    (exact up to degree 7) integrates it exactly.
    """
    nodes = 8
    step = 2.0 * math.pi / nodes
    return step * sum(measure_prepare_integrand(k * step)
                      for k in range(nodes))


# the cloner circuit's phase-independent gates, built once
_CLONER_BEFORE_PHASE = (_ancilla_gate(_H, control=0),
                        _ancilla_gate(_H, control=1), toffoli().matrix)
_CLONER_AFTER_PHASE = (_ancilla_gate(_X, control=0),
                       _ancilla_gate(_X, control=1))


def optimal_cloner(phi: float) -> list[Operator]:
    """Effective two-qubit maps of the optimal 1->2 phase-gate cloner.

    Circuit: controlled-Hadamard from each signal qubit onto a |0>
    ancilla, Toffoli, the phase gate on the ancilla, then a CNOT from
    each signal qubit onto the ancilla, which is finally discarded.  The
    returned Kraus pair (one element per ancilla branch) forms a
    trace-preserving channel whose fidelity with two ideal gate copies is
    (3 + 2*sqrt(2))/8 at every phi.

    The control/target orientation (everything targets the ancilla) is
    the one whose phase-averaged fidelity attains (3 + 2*sqrt(2))/8;
    other orientations fall short and are rejected by the tests.
    """
    phi = normalize_phase(phi)
    circuit = [*_CLONER_BEFORE_PHASE,
               np.kron(np.eye(4), phase_gate(phi).matrix),
               *_CLONER_AFTER_PHASE]
    w = np.eye(8, dtype=np.complex128)
    for gate in circuit:
        w = gate @ w
    w4 = w.reshape(4, 2, 4, 2)
    return [Operator(w4[:, b, :, 0], 2) for b in (0, 1)]


def optimal_cloner_fidelity(phi: float) -> float:
    """Process fidelity of the cloner channel with phase_gate(phi)^{x2}."""
    phi = normalize_phase(phi)
    chi = choi_from_kraus(optimal_cloner(phi))
    u = phase_gate(phi)
    return process_fidelity(chi, kron(u, u))
