import cmath
import json
import math

import numpy as np
import pytest

from phaserep.choi import (
    ProcessMatrix,
    _chi_fidelity,
    _choi_matrices,
    choi_from_kraus,
    choi_vector,
    process_fidelity,
    process_matrix_from_json,
    process_matrix_to_json,
)
from phaserep.gates import cu_phase, phase_gate, toffoli
from phaserep.optics import (
    OpticsParams,
    effective_toffoli,
    replication_experiment_channel,
)
from phaserep.qmat import kron

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
S = 1.0 / np.sqrt(2.0)


def test_choi_vector_of_identity_is_bell_state():
    vec = choi_vector(np.eye(2))
    assert np.max(np.abs(vec - np.array([S, 0.0, 0.0, S]))) < 1e-14


def test_choi_vector_of_x_gate():
    vec = choi_vector(X)
    assert np.max(np.abs(vec - np.array([0.0, S, S, 0.0]))) < 1e-14


def test_choi_matrices_equal_the_loop_of_outer_products(rng):
    # the reference: each operator's vector alone, one np.outer each,
    # summed in operator order from zeros; byte for byte
    kraus = rng.normal(size=(2, 3, 3, 4, 4)) \
        + 1j * rng.normal(size=(2, 3, 3, 4, 4))
    vectors, chis = choi_vector(kraus), _choi_matrices(kraus)
    assert vectors.shape == (2, 3, 3, 16) and chis.shape == (2, 3, 16, 16)
    for index in np.ndindex(2, 3):
        reference = np.zeros((16, 16), dtype=np.complex128)
        for k, operator in enumerate(kraus[index]):
            v = choi_vector(operator)
            assert v.tobytes() == vectors[index][k].tobytes()
            reference += np.outer(v, v.conj())
        assert chis[index].tobytes() == reference.tobytes()
        assert choi_from_kraus(kraus[index]).matrix.tobytes() \
            == reference.tobytes()


def test_process_matrix_validation():
    bad = np.zeros((4, 4), dtype=np.complex128)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        ProcessMatrix(bad, 1)  # not Hermitian
    with pytest.raises(ValueError):
        ProcessMatrix(np.diag([0.5, 0.6, -0.1, 0.0]), 1)  # not PSD


def test_choi_from_kraus_unitary_is_rank_one():
    chi = choi_from_kraus([X])
    assert chi.trace == pytest.approx(1.0, abs=1e-12)
    eigs = np.sort(np.linalg.eigvalsh(chi.matrix))
    assert np.max(np.abs(eigs - np.array([0.0, 0.0, 0.0, 1.0]))) < 1e-12
    # K = I/2 models a 1/4-probability postselection
    chi = choi_from_kraus([0.5 * np.eye(2)])
    assert chi.trace == pytest.approx(0.25, abs=1e-14)


def test_choi_from_kraus_bit_flip_mixture():
    # channel rho -> (1-p) rho + p X rho X
    p = 0.3
    chi = choi_from_kraus([
        np.sqrt(1.0 - p) * np.eye(2),
        np.sqrt(p) * X,
    ])
    assert chi.trace == pytest.approx(1.0, abs=1e-12)
    assert process_fidelity(chi, np.eye(2)) \
        == pytest.approx(1.0 - p, abs=1e-12)
    assert process_fidelity(chi, X) == pytest.approx(p, abs=1e-12)


def test_gate_fidelity_against_closed_forms():
    ident = np.eye(2)
    assert process_fidelity([ident], X) == pytest.approx(0.0, abs=1e-14)
    assert process_fidelity([X], X) == pytest.approx(1.0, abs=1e-14)
    for theta in (0.2, 1.1, 2.9):
        rz = np.diag([1.0, cmath.exp(1j * theta)])
        # |tr diag(1, e^{i t})|^2 / 4 = cos^2(t/2)
        assert process_fidelity([rz], ident) \
            == pytest.approx(np.cos(theta / 2.0) ** 2, abs=1e-12)


def test_process_fidelity_of_exact_channel():
    chi = choi_from_kraus([X])
    assert process_fidelity(chi, X) == pytest.approx(1.0, abs=1e-12)
    assert process_fidelity([X], X) == pytest.approx(1.0, abs=1e-12)


def test_process_fidelity_requires_matching_width():
    chi = choi_from_kraus([X])
    for wrong in (np.eye(4), np.eye(2)[:, :1], np.ones(2)):
        with pytest.raises(ValueError, match="qubit counts|is not a gate"):
            process_fidelity(chi, wrong)
        with pytest.raises(ValueError, match="qubit counts|is not a gate"):
            process_fidelity([X], wrong)
    # a Kraus list whose operators differ in width from each other
    with pytest.raises(ValueError, match="not a number"):
        process_fidelity([X, np.eye(4)], X)


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d))
                        + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _fidelity_via_chi(kraus, u):
    chi = choi_from_kraus(kraus)
    v = choi_vector(u)
    return float(np.real(v.conj() @ chi.matrix @ v)) / chi.trace


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_kraus_fidelity_matches_the_choi_formula(rng, qubits):
    # random lists of 1-6 operators, made trace preserving and then scaled
    # down to sub-normalized; targets are a random unitary and the unitary
    # closest to the first operator, where F is large
    d = 2 ** qubits
    for n_ops in range(1, 7):
        ops = rng.normal(size=(n_ops, d, d)) \
            + 1j * rng.normal(size=(n_ops, d, d))
        gram = np.einsum("kba,kbc->ac", ops.conj(), ops)
        w, v = np.linalg.eigh(gram)
        ops = ops @ (v / np.sqrt(w)) @ v.conj().T
        left, _, right = np.linalg.svd(ops[0])
        for scale in (1.0, 0.3, 1e-3):
            kraus = list(scale * ops)
            for u in (_random_unitary(rng, d), left @ right):
                assert abs(process_fidelity(kraus, u)
                           - _fidelity_via_chi(kraus, u)) <= 1e-15


@pytest.mark.parametrize("params", [
    OpticsParams.ideal(), OpticsParams.measured(),
    OpticsParams.measured(phase_jitter_sigma=0.65),
], ids=["ideal", "measured", "measured-sigma-0.65"])
def test_kraus_fidelity_matches_on_the_experiment_channels(params):
    kraus, _ = effective_toffoli(params)
    assert abs(process_fidelity(kraus, toffoli())
               - _fidelity_via_chi(kraus, toffoli())) <= 1e-15
    for phi in np.linspace(0.0, 2.0 * math.pi, 9)[:-1]:
        channel = replication_experiment_channel(phi, params)
        u = phase_gate(phi)
        for target in (cu_phase(phi), kron(u, u)):
            assert abs(process_fidelity(channel, target)
                       - _fidelity_via_chi(channel, target)) <= 1e-15


@pytest.mark.parametrize("phases", [1, 5])
def test_kraus_fidelity_per_phase_rows_equal_scalar_calls(rng, phases):
    # a (P, n, d, d) stack against one target and against a stack of P
    # targets: each entry is the float of that row's Kraus list
    d = 4
    stack = rng.normal(size=(phases, 3, d, d)) \
        + 1j * rng.normal(size=(phases, 3, d, d))
    targets = np.array([_random_unitary(rng, d) for _ in range(phases)])
    for u in (targets[0], targets):
        got = process_fidelity(stack, u)
        assert isinstance(got, np.ndarray) and got.shape == (phases,)
        for p in range(phases):
            want = process_fidelity(list(stack[p]), u if u.ndim == 2
                                    else u[p])
            assert type(want) is float and got[p] == want
    with pytest.raises(ValueError, match="qubit counts"):
        process_fidelity(stack, np.eye(2))


def test_choi_from_kraus_validates_shapes():
    with pytest.raises(ValueError, match="not a Kraus array"):
        choi_from_kraus([])
    with pytest.raises(ValueError, match="not a Kraus array"):
        choi_from_kraus([np.zeros((2, 4))])
    with pytest.raises(ValueError, match="not a number"):
        choi_from_kraus([X, np.eye(4)])
    with pytest.raises(ValueError, match=r"sides of 2\^k"):
        choi_from_kraus([np.eye(3)])


def test_choi_from_kraus_rejects_a_sum_that_overflows():
    # finite operators whose outer products overflow: the record rejects
    # the inf it would hold
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="not finite"):
        choi_from_kraus(np.full((1, 2, 2), 1e200))


def test_stacked_chi_fidelity_rejects_a_nan_or_zero_trace_chi():
    chi = choi_from_kraus([cu_phase(0.3)]).matrix
    for bad in (np.full((16, 16), math.nan), np.zeros((16, 16))):
        with pytest.raises(ValueError, match="trace must be positive"):
            _chi_fidelity(np.array([chi, bad, chi]), cu_phase(0.3))


def test_process_fidelity_rejects_zero_trace():
    chi = choi_from_kraus([X])
    zero = ProcessMatrix(0.0 * chi.matrix, 1)
    with pytest.raises(ValueError):
        process_fidelity(zero, X)
    with pytest.raises(ValueError, match="not a Kraus array"):
        process_fidelity([], X)
    with pytest.raises(ValueError, match="trace must be positive"):
        process_fidelity([np.zeros((2, 2)), np.zeros((2, 2))], X)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            process_fidelity([X, np.full((2, 2), bad)], X)


def test_json_rejects_other_normalizations():
    doc = process_matrix_to_json(choi_from_kraus([X]))
    for tag in ("trace_d", None):
        with pytest.raises(ValueError, match="normalization"):
            process_matrix_from_json(dict(doc, normalization=tag))
    del doc["normalization"]
    with pytest.raises(ValueError, match="normalization"):
        process_matrix_from_json(doc)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [doc], "JSON object"),
    (lambda doc: {k: v for k, v in doc.items() if k != "real"}, "lacks"),
    (lambda doc: dict(doc, qubits=1.9), "qubits must be an integer"),
    (lambda doc: dict(doc, qubits="1"), "qubits must be an integer"),
    (lambda doc: dict(doc, qubits=True), "qubits must be an integer"),
    (lambda doc: dict(doc, qubits=8_000_000), "got shape"),
    (lambda doc: dict(doc, qubits=2), "got shape"),
    (lambda doc: dict(doc, real="x"), "real part 'x' is not a real number"),
    (lambda doc: dict(doc, real=[[0.0], [0.0, 1.0]]), "real part"),
    (lambda doc: dict(doc, imag=0.0), "differ in shape"),
], ids=["list", "real-missing", "qubits-fraction", "qubits-string",
        "qubits-boolean", "qubits-huge", "qubits-wrong", "real-string",
        "real-ragged", "imag-scalar"])
def test_malformed_json_is_rejected(edit, message):
    doc = edit(process_matrix_to_json(choi_from_kraus([X])))
    with pytest.raises(ValueError, match=message):
        process_matrix_from_json(doc)


def test_json_round_trip():
    chi = choi_from_kraus([X, 0.2 * np.eye(2)])
    doc = process_matrix_to_json(chi)
    back = process_matrix_from_json(doc)
    assert np.array_equal(back.matrix, chi.matrix)
    assert back.qubits == chi.qubits
    assert doc["normalization"] == "trace_one"


def test_json_with_nan_is_rejected():
    doc = json.loads(json.dumps(process_matrix_to_json(
        ProcessMatrix(np.eye(4) / 4.0, 1))))
    doc["real"][0][0] = math.nan
    text = json.dumps(doc)
    assert "NaN" in text
    with pytest.raises(ValueError, match="finite"):
        process_matrix_from_json(json.loads(text))


def test_infinite_entries_are_rejected():
    m = np.eye(4) / 4.0
    m[0, 0] = math.inf
    with pytest.raises(ValueError, match="finite"):
        ProcessMatrix(m, 1)


def test_psd_floor_tolerates_numerical_negatives():
    base = np.diag([0.5, 0.5, 0.0, -1e-10]).astype(np.complex128)
    ProcessMatrix(base, 1)  # within floor: accepted
    with pytest.raises(ValueError):
        ProcessMatrix(np.diag([0.5, 0.5, 0.0, -1e-6]), 1)
