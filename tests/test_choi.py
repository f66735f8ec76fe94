import cmath
import json
import math

import numpy as np
import pytest

from phaserep.choi import (
    ProcessMatrix,
    apply_channel,
    choi_from_kraus,
    choi_vector,
    gate_fidelity,
    process_fidelity,
    process_matrix_from_json,
    process_matrix_to_json,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
S = 1.0 / np.sqrt(2.0)


def test_choi_vector_of_identity_is_bell_state():
    vec = choi_vector(np.eye(2))
    assert np.max(np.abs(vec - np.array([S, 0.0, 0.0, S]))) < 1e-14


def test_choi_vector_of_x_gate():
    vec = choi_vector(X)
    assert np.max(np.abs(vec - np.array([0.0, S, S, 0.0]))) < 1e-14


def test_choi_vector_requires_square_matrix():
    with pytest.raises(ValueError, match="square"):
        choi_vector(np.zeros((2, 4)))


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
    assert gate_fidelity(ident, X) == pytest.approx(0.0, abs=1e-14)
    assert gate_fidelity(X, X) == pytest.approx(1.0, abs=1e-14)
    for theta in (0.2, 1.1, 2.9):
        rz = np.diag([1.0, cmath.exp(1j * theta)])
        # |tr diag(1, e^{i t})|^2 / 4 = cos^2(t/2)
        assert gate_fidelity(rz, ident) \
            == pytest.approx(np.cos(theta / 2.0) ** 2, abs=1e-12)


def test_gate_fidelity_requires_matching_width():
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(2), np.eye(4))


def test_process_fidelity_of_exact_channel():
    chi = choi_from_kraus([X])
    assert process_fidelity(chi, X) == pytest.approx(1.0, abs=1e-12)


def test_process_fidelity_requires_matching_width():
    chi = choi_from_kraus([X])
    for wrong in (np.eye(4), np.eye(2)[:, :1], np.ones(2)):
        with pytest.raises(ValueError, match="qubit counts"):
            process_fidelity(chi, wrong)


def test_choi_from_kraus_validates_shapes():
    with pytest.raises(ValueError, match="at least one"):
        choi_from_kraus([])
    with pytest.raises(ValueError, match="share one dimension"):
        choi_from_kraus([np.zeros((2, 4))])
    with pytest.raises(ValueError, match="share one dimension"):
        choi_from_kraus([X, np.eye(4)])
    with pytest.raises(ValueError, match="power of 2"):
        choi_from_kraus([np.eye(3)])


def test_process_fidelity_rejects_zero_trace():
    chi = choi_from_kraus([X])
    zero = ProcessMatrix(0.0 * chi.matrix, 1)
    with pytest.raises(ValueError):
        process_fidelity(zero, X)


def test_apply_channel_reproduces_unitary_conjugation(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    u = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=np.complex128,
    )
    chi = choi_from_kraus([u])
    out = apply_channel(chi, rho)
    expected = u @ rho @ u.conj().T
    assert np.max(np.abs(out - expected)) < 1e-12


def test_apply_channel_scales_with_postselected_kraus():
    # K = I/2 models a 1/4-probability postselection
    chi = choi_from_kraus([0.5 * np.eye(2)])
    rho = np.diag([1.0, 0.0]).astype(np.complex128)
    out = apply_channel(chi, rho)
    assert np.max(np.abs(out - 0.25 * rho)) < 1e-14


def test_json_rejects_other_normalizations():
    doc = process_matrix_to_json(choi_from_kraus([X]))
    for tag in ("trace_d", None):
        with pytest.raises(ValueError, match="normalization"):
            process_matrix_from_json(dict(doc, normalization=tag))
    del doc["normalization"]
    with pytest.raises(ValueError, match="normalization"):
        process_matrix_from_json(doc)


def test_normalized_rescales_trace():
    chi = choi_from_kraus([0.5 * np.eye(2)])
    assert chi.trace == pytest.approx(0.25, abs=1e-14)
    assert chi.normalized().trace == pytest.approx(1.0, abs=1e-14)


def test_json_round_trip():
    chi = choi_from_kraus([X, 0.2 * np.eye(2)])
    doc = process_matrix_to_json(chi, metadata={"label": "test"})
    back = process_matrix_from_json(doc)
    assert np.array_equal(back.matrix, chi.matrix)
    assert back.qubits == chi.qubits
    assert doc["normalization"] == "trace_one"
    assert doc["metadata"]["label"] == "test"


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
