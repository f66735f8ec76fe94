"""Phase gates, the 1->2 replication circuits, baselines, and the cloner.

A phase gate diag(1, e^{i*phi}) can be replicated onto two qubits with a
single ancilla; both circuits are the ``ReplicationSpec(1, 2)`` case of
``superrep``, whose imprinting unitary V is the Toffoli.  The unitary
form (Toffoli, phase gate on the ancilla, Toffoli) is
``replicated_map(ReplicationSpec(1, 2), phi)``, the diagonal
(1, 1, 1, e^{i*phi}).  The measured form (Toffoli, phase gate, ancilla
measurement in the |+/-> basis) is the Kraus pair of
``replicate_measured_form``; a controlled-Z on the minus branch makes
both branches realize that same two-qubit gate.

Fidelities between constructions are Choi gate fidelities (see ``choi``);
the closed forms quoted in the docstrings serve as test oracles only.
"""
from __future__ import annotations

import math

import numpy as np

from .choi import choi_from_kraus, gate_fidelity, process_fidelity
from .qmat import kron, normalize_phase
from .superrep import ReplicationSpec, build_V


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]])
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def phase_gate(phi: float) -> np.ndarray:
    """diag(1, e^{i*phi}) on one qubit."""
    phi = normalize_phase(phi)
    return np.diag([1.0, np.exp(1j * phi)])


def cu_phase(phi: float) -> np.ndarray:
    """Controlled phase gate diag(1, 1, 1, e^{i*phi}) on two qubits."""
    phi = normalize_phase(phi)
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])


def controlled_z() -> np.ndarray:
    """diag(1, 1, 1, -1); the measured-form feed-forward correction."""
    # written out rather than cu_phase(pi) so the -1 entry is exact
    return np.diag(np.array([1.0, 1.0, 1.0, -1.0], dtype=np.complex128))


def toffoli() -> np.ndarray:
    """Three-qubit gate flipping qubit 2 iff qubits 0 and 1 are |1>."""
    m = np.eye(8, dtype=np.complex128)
    m[6, 6] = m[7, 7] = 0.0
    m[6, 7] = m[7, 6] = 1.0
    return m


def _ancilla_gate(single: np.ndarray, control: int) -> np.ndarray:
    # 3-qubit gate applying ``single`` to qubit 2 iff ``control`` is |1>
    if control == 0:
        return np.kron(_P0, np.eye(4)) + np.kron(_P1, np.kron(np.eye(2),
                                                              single))
    return np.kron(np.eye(2),
                   np.kron(_P0, np.eye(2)) + np.kron(_P1, single))


def replicate_measured_form(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair of the measured-form circuit, the ReplicationSpec(1, 2)
    case of superreplication.

    Returns the (plus, minus) branches <+/-|_a (I (x) U) V |0>_a, read off
    the permutation of V = ``build_V(ReplicationSpec(1, 2))``, the Toffoli:
    V|m>|0> = |m>|k(m)> imprints k(m) = 1 on |11> only, and the branch
    amplitude of |m> is (+/-e^{i*phi})^{k(m)} / sqrt(2).  So plus is
    cu_phase(phi)/sqrt(2) and minus is diag(1, 1, 1, -e^{i*phi})/sqrt(2);
    ``controlled_z() @ minus`` equals plus.  Each branch satisfies
    K^dagger K = I/2, so it fires with probability 1/2 whatever the input.
    """
    phi = normalize_phase(phi)
    imprint = build_V(ReplicationSpec(1, 2))[0::2] & 1
    phase = np.exp(1j * phi)
    return tuple(np.diag(np.where(imprint, sign * phase, 1.0))
                 / math.sqrt(2.0) for sign in (1.0, -1.0))


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
    return gate_fidelity(kron(u, np.eye(2)), kron(u, u))


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
                        _ancilla_gate(_H, control=1), toffoli())
_CLONER_AFTER_PHASE = (_ancilla_gate(_X, control=0),
                       _ancilla_gate(_X, control=1))


def optimal_cloner(phi: float) -> list[np.ndarray]:
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
               np.kron(np.eye(4), phase_gate(phi)),
               *_CLONER_AFTER_PHASE]
    w = np.eye(8, dtype=np.complex128)
    for gate in circuit:
        w = gate @ w
    w4 = w.reshape(4, 2, 4, 2)
    return [w4[:, b, :, 0] for b in (0, 1)]


def optimal_cloner_fidelity(phi: float) -> float:
    """Process fidelity of the cloner channel with phase_gate(phi)^{x2}."""
    phi = normalize_phase(phi)
    chi = choi_from_kraus(optimal_cloner(phi))
    u = phase_gate(phi)
    return process_fidelity(chi, kron(u, u))
