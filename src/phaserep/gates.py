"""Phase gates, the 1->2 replication circuits, baselines, and the cloner.

A phase gate diag(1, e^{i*phi}) can be replicated onto two qubits with a
single ancilla; both circuits are the ``ReplicationSpec(1, 2)`` case of
``superrep``, whose imprinting unitary V is the Toffoli.  The unitary
form (Toffoli, phase gate on the ancilla, Toffoli) is
``replicated_map(ReplicationSpec(1, 2), phi)``, the diagonal
(1, 1, 1, e^{i*phi}).  The measured form (Toffoli, phase gate, ancilla
measurement in the |+/-> basis) is the Kraus pair of
``replicate_measured_form``, a (2, 4, 4) Kraus array like the cloner's;
a controlled-Z on the minus branch makes both branches realize that
same two-qubit gate.

Fidelities between constructions are process fidelities (see ``choi``);
the closed forms quoted in the docstrings serve as test oracles only.
The phase gates, the cloner and the fidelity functions take a float
phase or a 1-D array of P phases; an array gives a stack of P gates (or
P fidelities) from one broadcast, each row equal to the float call.
Each applies the phase rule (``normalize_phase``) and calls its kernel,
the same name with a leading underscore, which takes phases already
reduced to [0, 2*pi); calls inside the package go to the kernels.
"""
from __future__ import annotations

import math

import numpy as np

from .choi import _process_fidelity
from .qmat import _integer, _kron, _wrap, normalize_phase
from .superrep import ReplicationSpec, _build_V


def _diagonal(*entries) -> np.ndarray:
    """diag(entries), one matrix per phase where an entry is an array."""
    out = np.zeros(np.broadcast(*entries).shape + (len(entries),) * 2,
                   dtype=np.complex128)
    for k, entry in enumerate(entries):
        out[..., k, k] = entry
    return out


def phase_gate(phi: float | np.ndarray) -> np.ndarray:
    """diag(1, e^{i*phi}) on one qubit; a (P, 2, 2) stack for P phases."""
    return _phase_gate(normalize_phase(phi))


def _phase_gate(phases: float | np.ndarray) -> np.ndarray:
    return _diagonal(1.0, np.exp(1j * phases))


def cu_phase(phi: float | np.ndarray) -> np.ndarray:
    """Controlled phase gate diag(1, 1, 1, e^{i*phi}) on two qubits; a
    (P, 4, 4) stack for P phases."""
    return _cu_phase(normalize_phase(phi))


def _cu_phase(phases: float | np.ndarray) -> np.ndarray:
    return _diagonal(1.0, 1.0, 1.0, np.exp(1j * phases))


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


# the 1->2 protocol, whose V is the Toffoli
_ONE_TO_TWO = ReplicationSpec(1, 2)


def replicate_measured_form(phi: float) -> np.ndarray:
    """Kraus pair of the measured-form circuit, the ReplicationSpec(1, 2)
    case of superreplication.

    Returns the (plus, minus) branches <+/-|_a (I (x) U) V |0>_a as one
    (2, 4, 4) Kraus array, like ``optimal_cloner``; they are read off
    the permutation of V = ``build_V(ReplicationSpec(1, 2))``, the Toffoli:
    V|m>|0> = |m>|k(m)> imprints k(m) = 1 on |11> only, and the branch
    amplitude of |m> is (+/-e^{i*phi})^{k(m)} / sqrt(2).  So plus is
    cu_phase(phi)/sqrt(2) and minus is diag(1, 1, 1, -e^{i*phi})/sqrt(2);
    ``controlled_z() @ minus`` equals plus.  Each branch satisfies
    K^dagger K = I/2, so it fires with probability 1/2 whatever the input.
    """
    phi = normalize_phase(phi)
    imprint = _build_V(_ONE_TO_TWO)[0::2] & 1
    phase = np.exp(1j * phi)
    return np.array([np.diag(np.where(imprint, sign * phase, 1.0))
                     for sign in (1.0, -1.0)]) / math.sqrt(2.0)


def fidelity_replicas(phi: float | np.ndarray) -> float | np.ndarray:
    """Gate fidelity of cu_phase(phi) with two ideal copies of the gate;
    an array of P fidelities for P phases.

    Closed form (test oracle): (5 + 3 cos phi) / 8.
    """
    return _fidelity_replicas(normalize_phase(phi))


def _fidelity_replicas(phases: float | np.ndarray) -> float | np.ndarray:
    u = _phase_gate(phases)
    return _process_fidelity(_cu_phase(phases)[..., None, :, :], _kron(u, u))


def twirled_mean_fidelity(grid_size: int, phi: float = 0.0) -> float:
    """Replica fidelity averaged over a uniform random-phase twirl.

    The twirl angle theta runs over a uniform grid of ``grid_size`` points
    on [0, 2*pi); the cosine term of the replica fidelity cancels exactly
    on any such grid, leaving the phase-independent mean 5/8.
    """
    return _twirled_mean_fidelity(_integer(grid_size, "grid_size", 2),
                                  normalize_phase(phi))


def _twirled_mean_fidelity(grid_size: int, phi: float) -> float:
    thetas = 2.0 * math.pi * np.arange(grid_size) / grid_size
    return float(np.mean(_fidelity_replicas(_wrap(phi + thetas))))


def baseline_single_copy(phi: float | np.ndarray) -> float | np.ndarray:
    """Fidelity of applying the gate to one qubit only; cos^2(phi/2).
    An array of P fidelities for P phases."""
    return _baseline_single_copy(normalize_phase(phi))


def _baseline_single_copy(phases: float | np.ndarray) -> float | np.ndarray:
    u = _phase_gate(phases)
    return _process_fidelity(_kron(u, np.eye(2))[..., None, :, :],
                             _kron(u, u))


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


def optimal_cloner(phi: float | np.ndarray) -> np.ndarray:
    """Kraus pair of the optimal 1->2 phase-gate cloner.

    Circuit: controlled-Hadamard from each signal qubit onto a |0>
    ancilla, Toffoli, the phase gate on the ancilla, then a CNOT from
    each signal qubit onto the ancilla, which is finally discarded.
    Every gate is controlled by the signal qubits, so the ancilla's two
    branches are diagonal: K_0 = diag(1, e^{i*phi}/sqrt(2),
    e^{i*phi}/sqrt(2), 0) and K_1 = diag(0, 1/sqrt(2), 1/sqrt(2),
    e^{i*phi}).  The channel is trace preserving, and its fidelity with
    two ideal gate copies is (3 + 2*sqrt(2))/8 at every phi.

    The control/target orientation (everything targets the ancilla) is
    the one whose phase-averaged fidelity attains (3 + 2*sqrt(2))/8;
    other orientations fall short and are rejected by the tests.

    The pair comes as one (2, 4, 4) array, the Kraus operators on axis
    -3, and for P phases as a (P, 2, 4, 4) array.
    """
    return _optimal_cloner(normalize_phase(phi))


def _optimal_cloner(phases: float | np.ndarray) -> np.ndarray:
    phase = np.exp(1j * phases)
    s = 1.0 / math.sqrt(2.0)
    return np.stack([_diagonal(1.0, s * phase, s * phase, 0.0),
                     _diagonal(0.0, s, s, phase)], axis=-3)


def optimal_cloner_fidelity(phi: float | np.ndarray) -> float | np.ndarray:
    """Process fidelity of the cloner channel with phase_gate(phi)^{x2};
    an array of P fidelities for P phases."""
    return _optimal_cloner_fidelity(normalize_phase(phi))


def _optimal_cloner_fidelity(phases: float | np.ndarray
                             ) -> float | np.ndarray:
    u = _phase_gate(phases)
    return _process_fidelity(_optimal_cloner(phases), _kron(u, u))
