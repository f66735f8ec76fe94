import dataclasses
import math

import numpy as np
import pytest
from conftest import reference_channel

from phaserep.choi import choi_from_kraus, process_fidelity
from phaserep.gates import cu_phase, toffoli
from phaserep.optics import (
    OpticsParams,
    dephase_spatial,
    effective_toffoli,
    ppbs_matrix,
    replication_experiment_channel,
    sector_operators,
    transfer_matrix,
)
from phaserep.tomo import default_design


def test_params_validated():
    with pytest.raises(ValueError):
        OpticsParams(r_v=1.5, r_h=0.0, visibility=1.0)
    with pytest.raises(ValueError):
        OpticsParams(r_v=0.5, r_h=-0.1, visibility=1.0)
    with pytest.raises(ValueError):
        OpticsParams(r_v=0.5, r_h=0.0, visibility=1.2)
    with pytest.raises(ValueError):
        OpticsParams(r_v=0.5, r_h=0.0, visibility=1.0,
                     phase_jitter_sigma=-0.5)
    # a NaN sigma must not pass as "no jitter"
    with pytest.raises(ValueError, match="phase_jitter_sigma"):
        OpticsParams.measured(phase_jitter_sigma=math.nan)


@pytest.mark.parametrize("value", [True, False, "0.5", None, 0.5j,
                                   math.nan])
def test_params_reject_bool_non_real_and_nan(value):
    for name in ("r_v", "r_h", "visibility", "phase_jitter_sigma"):
        fields = {"r_v": 0.5, "r_h": 0.0, "visibility": 1.0, name: value}
        with pytest.raises(ValueError, match=name):
            OpticsParams(**fields)


def test_params_store_numpy_and_int_values_as_float():
    params = OpticsParams(r_v=np.float64(0.5), r_h=np.float32(0.25),
                          visibility=1, phase_jitter_sigma=np.int64(2))
    assert params == OpticsParams(r_v=0.5, r_h=0.25, visibility=1.0,
                                  phase_jitter_sigma=2.0)
    for name in ("r_v", "r_h", "visibility", "phase_jitter_sigma"):
        assert type(getattr(params, name)) is float
    # an int beyond the float range is no finite jitter: the real-number
    # rule rejects it, as it rejects an infinite float
    for sigma in (10 ** 400, math.inf):
        with pytest.raises(ValueError, match="phase_jitter_sigma"):
            OpticsParams(0.5, 0.0, 1.0, sigma)


def test_preset_values():
    ideal = OpticsParams.ideal()
    assert (ideal.r_v, ideal.r_h, ideal.visibility,
            ideal.phase_jitter_sigma) == (2.0 / 3.0, 0.0, 1.0, 0.0)
    measured = OpticsParams.measured()
    assert (measured.r_v, measured.r_h, measured.visibility) \
        == (0.660, 0.017, 0.958)


# mode indices of the transfer matrix (uH uV lH lV iH iV xH xV)
L_V, I_H, I_V = 3, 4, 5


def _perm2(u, rows, cols):
    (m, n), (a, b) = rows, cols
    return u[m, a] * u[n, b] + u[n, a] * u[m, b]


def _fock_reference(params):
    """Coincidence maps from the two-photon Fock state, built explicitly.

    The network's elements are composed here, not taken from the module;
    T (x) T acts on the ordered photon pair (signal, idler), and the
    bosonic sector is symmetrized before and after by hand.
    """
    h = 1.0 / math.sqrt(2.0)
    a = 1.0 / math.sqrt(3.0)
    had = np.eye(8)
    had[I_H:I_V + 1, I_H:I_V + 1] = [[h, h], [h, -h]]
    att = np.diag([a, 1.0, a, 1.0, a, 1.0, 1.0, 1.0])
    t = had @ att @ ppbs_matrix(params) @ had
    pair_map = np.kron(t, t)
    m_int, k_tt, k_rr = (np.zeros((8, 8), dtype=complex) for _ in range(3))
    for col in range(8):
        sig, idl = col >> 1, 4 + (col & 1)
        ordered = np.zeros(64)
        ordered[8 * sig + idl] = 1.0
        symmetric = np.zeros(64)
        symmetric[8 * sig + idl] = symmetric[8 * idl + sig] = h
        dist = (pair_map @ ordered).reshape(8, 8)
        bos = (pair_map @ symmetric).reshape(8, 8)
        for m in range(4):
            for n in (I_H, I_V):
                row = 2 * m + n - I_H
                k_tt[row, col] = dist[m, n]
                k_rr[row, col] = dist[n, m]
                m_int[row, col] = h * (bos[m, n] + bos[n, m])
    return m_int, k_tt, k_rr


def _random_params(seed):
    r_v, r_h, vis = np.random.default_rng(seed).uniform(size=3)
    return OpticsParams(r_v=r_v, r_h=r_h, visibility=vis)


def test_single_photon_splitting_amplitudes():
    params = OpticsParams.ideal()
    t = math.sqrt(1.0 - params.r_v)
    r = math.sqrt(params.r_v)
    ppbs = ppbs_matrix(params)
    assert ppbs[L_V, L_V] == pytest.approx(t, abs=1e-15)
    assert ppbs[I_V, L_V] == pytest.approx(1j * r, abs=1e-15)
    assert np.linalg.norm(ppbs[:, L_V]) == pytest.approx(1.0, abs=1e-15)
    # in T the idler Hadamard splits the reflected amplitude over iH, iV;
    # lV carries no attenuator
    big_t = transfer_matrix(params)
    assert big_t[L_V, L_V] == pytest.approx(t, abs=1e-15)
    assert big_t[I_H, L_V] == pytest.approx(1j * r / math.sqrt(2.0),
                                            abs=1e-15)
    assert big_t[I_V, L_V] == pytest.approx(-1j * r / math.sqrt(2.0),
                                            abs=1e-15)


def test_two_photon_interference_amplitude():
    # both photons V in opposite ports of the R_V = 2/3 splitter: the
    # coincidence amplitude is the permanent t^2 + (i r)^2 = -1/3
    ppbs = ppbs_matrix(OpticsParams.ideal())
    amp = _perm2(ppbs, (I_V, L_V), (I_V, L_V))
    assert amp == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_transform_preserves_norm_in_both_sectors():
    # distinguishable sector: U (x) U is unitary exactly when U is
    pairs = [(a, b) for a in range(8) for b in range(a, 8)]
    for params in (OpticsParams.measured(), _random_params(1)):
        u = ppbs_matrix(params)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-15
        # bosonic sector: permanents over the normalized symmetric basis
        sym = np.array([
            [_perm2(u, (m, n), (a, b))
             / math.sqrt((1 + (a == b)) * (1 + (m == n)))
             for (a, b) in pairs]
            for (m, n) in pairs])
        assert np.max(np.abs(sym.conj().T @ sym - np.eye(len(pairs)))) \
            <= 1e-15


@pytest.mark.parametrize(
    "params",
    [OpticsParams.ideal(), OpticsParams.measured()]
    + [_random_params(seed) for seed in range(24)])
def test_sector_operators_match_fock_reference(params):
    for got, want in zip(sector_operators(params), _fock_reference(params)):
        assert np.max(np.abs(got - want)) <= 1e-15


def test_lossless_splitter_edge_has_no_exchange():
    # R_V = R_H = 0: the PPBS is the identity, so only the attenuators and
    # the idler Hadamards remain
    params = OpticsParams(r_v=0.0, r_h=0.0, visibility=1.0)
    m_int, k_tt, k_rr = sector_operators(params)
    assert np.all(k_rr == 0.0)
    a = 1.0 / math.sqrt(3.0)
    idler = np.array([[a + 1.0, a - 1.0], [a - 1.0, a + 1.0]]) / 2.0
    want = np.kron(np.diag([a, 1.0, a, 1.0]), idler)
    assert np.max(np.abs(k_tt - want)) <= 1e-15
    assert np.max(np.abs(m_int - want)) <= 1e-15


def test_full_reflection_edge_has_no_transmission():
    params = OpticsParams(r_v=1.0, r_h=1.0, visibility=1.0)
    m_int, k_tt, k_rr = sector_operators(params)
    assert np.all(k_tt == 0.0)
    assert np.array_equal(m_int, k_rr)


def test_zero_visibility_keeps_two_kraus_operators():
    # no interference: the interfering sector is exactly zero, and both
    # distinguishable ones remain
    kraus, _ = effective_toffoli(
        dataclasses.replace(OpticsParams.measured(), visibility=0.0))
    assert kraus.shape == (3, 8, 8)
    assert np.all(kraus[0] == 0.0)
    assert kraus[1].any() and kraus[2].any()


@pytest.mark.parametrize("params", [
    OpticsParams(r_v=0.0, r_h=0.0, visibility=1.0),
    OpticsParams(r_v=1.0, r_h=1.0, visibility=1.0),
    OpticsParams(r_v=0.0, r_h=0.0, visibility=0.0),
    OpticsParams(r_v=1.0, r_h=1.0, visibility=0.0),
    dataclasses.replace(OpticsParams.measured(), visibility=0.0),
])
def test_edge_success_is_a_probability(params):
    _, success = effective_toffoli(params)
    assert math.isfinite(success)
    assert 0.0 <= success <= 1.0


def test_interfering_operator_splits_into_transmit_and_swap():
    for params in (OpticsParams.ideal(), OpticsParams.measured()):
        m_int, k_tt, k_rr = sector_operators(params)
        assert np.max(np.abs(m_int - (k_tt + k_rr))) < 1e-12
        # the reflect-reflect exchange only occurs in the lower signal path
        assert np.max(np.abs(k_rr[:4])) == 0.0
        assert np.max(np.abs(k_rr[:, :4])) == 0.0


@pytest.mark.parametrize(
    "params", [OpticsParams.ideal(), OpticsParams.measured()])
def test_distinguishable_swap_exchanges_polarizations(params):
    # The all-reflect branch swaps the two polarizations.  The coincidence
    # map includes the basis rotation on the idler arm, so undo it before
    # checking the swap structure |1, p, q> -> |1, q, p|.
    _, _, k_rr = sector_operators(params)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    raw = np.kron(np.eye(4), had) @ k_rr @ np.kron(np.eye(4), had)
    assert np.max(np.abs(raw[:4, :])) < 1e-14
    assert np.max(np.abs(raw[:, :4])) < 1e-14
    for p in range(2):
        for q in range(2):
            col = 4 + 2 * p + q
            nonzero = np.nonzero(np.abs(raw[:, col]) > 1e-14)[0]
            assert list(nonzero) in ([], [4 + 2 * q + p])


def test_ideal_point_is_exact_scaled_toffoli():
    kraus, success = effective_toffoli(OpticsParams.ideal())
    # full interference: both distinguishable sectors are exactly zero
    assert kraus.shape == (3, 8, 8)
    assert np.all(kraus[1:] == 0.0)
    assert np.max(np.abs(kraus[0] - toffoli() / 3.0)) < 1e-12
    assert type(success) is float
    assert success == pytest.approx(1.0 / 9.0, abs=1e-12)
    chi = choi_from_kraus(kraus)
    assert process_fidelity(chi, toffoli()) == pytest.approx(1.0, abs=1e-12)


def test_ideal_success_is_input_independent():
    kraus, _ = effective_toffoli(OpticsParams.ideal())
    for basis in range(8):
        vec = np.zeros(8)
        vec[basis] = 1.0
        prob = sum(np.linalg.norm(k @ vec) ** 2 for k in kraus)
        assert prob == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_imperfect_params_add_kraus_branches():
    kraus, success = effective_toffoli(OpticsParams.measured())
    assert len(kraus) == 3
    assert 0.0 < success < 1.0


def test_replication_channel_ideal_is_exact():
    for phi in (0.0, math.pi / 2, 2.1):
        channel = replication_experiment_channel(phi, OpticsParams.ideal())
        assert process_fidelity(channel, cu_phase(phi)) \
            == pytest.approx(1.0, abs=1e-12)


GRID_PHASES = [0.0, -1e-20, -1.5, 7.0, 2.0 * math.pi, 1e300]


def _assert_is_reference_channel(channel, phi, params):
    # the oracle leaves out the dephasing flips at sigma = 0, which the
    # builder keeps as zeros
    want = np.array(reference_channel(phi, params))
    assert channel.shape == (6, 4, 4)
    assert channel[:len(want)].tobytes() == want.tobytes()
    assert np.all(channel[len(want):] == 0.0)


@pytest.mark.parametrize("sigma", [0.0, 0.65])
def test_phase_grid_rows_equal_the_per_phase_build(sigma):
    # one optical build for the whole grid gives, row by row, the bits of
    # the channel built one phase at a time
    params = OpticsParams.measured(phase_jitter_sigma=sigma)
    grid = replication_experiment_channel(np.array(GRID_PHASES), params)
    assert grid.shape == (len(GRID_PHASES), 6, 4, 4)
    for phi, row in zip(GRID_PHASES, grid):
        _assert_is_reference_channel(row, phi, params)
        single = replication_experiment_channel(phi, params)
        assert single.tobytes() == row.tobytes()


@pytest.mark.parametrize("sigma", [0.0, 0.65])
def test_experiment_channel_has_six_operators(sigma):
    # three operators and their three flips, whatever sigma; at sigma = 0
    # the zero flips change no fidelity or probability by a bit
    params = OpticsParams.measured(phase_jitter_sigma=sigma)
    phases = np.array(GRID_PHASES)
    channel = replication_experiment_channel(phases, params)
    assert channel.shape == (len(GRID_PHASES), 6, 4, 4)
    assert replication_experiment_channel(1.1, params).shape == (6, 4, 4)
    stack = [params, OpticsParams.measured()]
    assert replication_experiment_channel(1.1, stack).shape == (2, 6, 4, 4)
    if sigma == 0.0:
        kept, u = channel[:, :3], cu_phase(phases)
        assert process_fidelity(channel, u).tobytes() \
            == process_fidelity(kept, u).tobytes()
        design = default_design()
        assert design.probabilities(channel).tobytes() \
            == design.probabilities(kept).tobytes()


def test_phase_grid_wants_a_1d_sequence():
    with pytest.raises(ValueError, match="1-D"):
        replication_experiment_channel([[0.3]], OpticsParams.ideal())


def test_projection_halves_the_success_weight():
    # exact at the ideal point, where the two measurement branches are
    # perfectly balanced; imperfections skew the split slightly.  The
    # unprojected channel (both idler outcomes) is the test's oracle.
    phi = 1.2
    projected = choi_from_kraus(replication_experiment_channel(
        phi, OpticsParams.ideal()))
    full = choi_from_kraus(reference_channel(
        phi, OpticsParams.ideal(), project=False))
    assert projected.trace == pytest.approx(full.trace / 2.0, abs=1e-12)

    measured = choi_from_kraus(replication_experiment_channel(
        phi, OpticsParams.measured()))
    measured_full = choi_from_kraus(reference_channel(
        phi, OpticsParams.measured(), project=False))
    ratio = measured.trace / measured_full.trace
    assert 0.4 < ratio < 0.6


def test_single_parameter_degradations_are_monotone():
    # from the ideal point, every imperfection can only reduce fidelity
    phi = math.pi / 2
    grids = {
        "r_v": [2.0 / 3.0, 0.62, 0.57, 0.52, 0.47],
        "r_h": [0.0, 0.05, 0.10, 0.15, 0.20],
        "visibility": [1.0, 0.95, 0.90, 0.85, 0.80],
        "phase_jitter_sigma": [0.0, 0.25, 0.5, 0.75, 1.0],
    }
    for name, values in grids.items():
        fidelities = []
        for value in values:
            params = dataclasses.replace(OpticsParams.ideal(),
                                         **{name: value})
            channel = replication_experiment_channel(phi, params)
            fidelities.append(process_fidelity(channel, cu_phase(phi)))
        assert fidelities[0] == pytest.approx(1.0, abs=1e-9)
        diffs = np.diff(fidelities)
        assert np.all(diffs <= 1e-12), (name, fidelities)


def test_raising_reflectivity_above_ideal_also_degrades():
    phi = math.pi / 2
    fidelities = []
    for r_v in (2.0 / 3.0, 0.72, 0.77, 0.82, 0.87):
        params = dataclasses.replace(OpticsParams.ideal(), r_v=r_v)
        channel = replication_experiment_channel(phi, params)
        fidelities.append(process_fidelity(channel, cu_phase(phi)))
    assert np.all(np.diff(fidelities) <= 1e-12)


def test_dephasing_scales_spatial_coherence():
    phi = 0.8
    sigma = 0.6
    kraus = [cu_phase(phi)]
    chi = choi_from_kraus(kraus)
    dephased = choi_from_kraus(dephase_spatial(kraus, sigma))
    # the |0x><1y| blocks of the chi matrix shrink by exp(-sigma^2/2)
    factor = math.exp(-sigma * sigma / 2.0)
    got = dephased.matrix
    want = chi.matrix.copy()
    for row in range(16):
        for col in range(16):
            if ((row >> 1) ^ (col >> 1)) & 4:
                want[row, col] *= factor
    assert np.max(np.abs(got - want)) < 1e-12


def test_dephasing_flip_equals_the_spatial_z_product():
    # the row sign flip gives the values of Z (x) I times each operator,
    # up to the sign of exact zeros, which array_equal does not see
    kraus = replication_experiment_channel(0.8, OpticsParams.measured())
    sigma = 0.65
    p_keep = 0.5 * (1.0 + math.exp(-0.5 * sigma * sigma))
    z = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    flipped = dephase_spatial(kraus, sigma)[len(kraus):]
    assert len(flipped) == len(kraus)
    for m, got in zip(kraus, flipped):
        assert np.array_equal(got, math.sqrt(1.0 - p_keep) * (z @ m))


def test_dephasing_identity_at_zero_sigma():
    # the operators keep their bits, and their flips are zero
    kraus = [cu_phase(0.3)]
    got = dephase_spatial(kraus, 0.0)
    assert got.shape == (2, 4, 4)
    assert got[0].tobytes() == kraus[0].tobytes()
    assert np.all(got[1] == 0.0)


def test_measured_point_regression_values():
    # regression pins for this model at the measured preset (not external
    # reference values): Toffoli fidelity and postselected success weight
    kraus, success = effective_toffoli(OpticsParams.measured())
    chi = choi_from_kraus(kraus)
    assert process_fidelity(chi, toffoli()) \
        == pytest.approx(0.9550751858956439, abs=1e-9)
    assert success == pytest.approx(0.1126452100555554, abs=1e-9)


def test_channel_weights_interpolate_visibility():
    # visibility-weighted mixture: F at V sits between the V=0 and V=1
    phi = math.pi / 2
    f = {}
    for vis in (0.0, 0.5, 1.0):
        params = dataclasses.replace(OpticsParams.ideal(), visibility=vis)
        channel = replication_experiment_channel(phi, params)
        f[vis] = process_fidelity(channel, cu_phase(phi))
    assert f[0.0] < f[0.5] < f[1.0]


# a params stack over the edges of every field: visibility 0, 0.9 and 1,
# the reflectances at 0 and 1, and jitter both off and on in one stack
STACK = [OpticsParams(r_v=r_v, r_h=r_h, visibility=vis,
                      phase_jitter_sigma=sigma)
         for r_v in (0.0, 2.0 / 3.0, 1.0) for r_h in (0.0, 0.017, 1.0)
         for vis in (0.0, 0.9, 1.0) for sigma in (0.0, 0.65)]


def test_stacked_builders_equal_the_single_builds():
    ppbs, t = ppbs_matrix(STACK), transfer_matrix(STACK)
    sectors = sector_operators(STACK)
    assert ppbs.shape == t.shape == (len(STACK), 8, 8)
    for i, params in enumerate(STACK):
        assert ppbs[i].tobytes() == ppbs_matrix(params).tobytes()
        assert t[i].tobytes() == transfer_matrix(params).tobytes()
        for got, want in zip(sectors, sector_operators(params)):
            assert got[i].tobytes() == want.tobytes()


def test_stacked_toffoli_rows_equal_the_single_builds():
    kraus, success = effective_toffoli(STACK)
    assert kraus.shape == (len(STACK), 3, 8, 8)
    assert success.shape == (len(STACK),)
    for row, p_row, params in zip(kraus, success, STACK):
        single, p_single = effective_toffoli(params)
        assert row.tobytes() == single.tobytes()
        assert type(p_single) is float and p_row == p_single
        # a sector of weight 0 is an exactly-zero operator
        if params.visibility == 0.0:
            assert np.all(row[0] == 0.0)
        if params.visibility == 1.0:
            assert np.all(row[1:] == 0.0)


def test_stacked_channel_rows_equal_the_single_builds():
    phi = 1.1
    channel = replication_experiment_channel(phi, STACK)
    # every row has the flips, zero where sigma = 0
    assert channel.shape == (len(STACK), 6, 4, 4)
    for row, params in zip(channel, STACK):
        single = replication_experiment_channel(phi, params)
        assert row.tobytes() == single.tobytes()
        _assert_is_reference_channel(single, phi, params)
    unjittered = [p for p in STACK if p.phase_jitter_sigma == 0.0]
    assert replication_experiment_channel(phi, unjittered).tobytes() \
        == channel[[p.phase_jitter_sigma == 0.0 for p in STACK]].tobytes()


def test_stack_with_a_phase_array_or_no_rows_is_rejected():
    with pytest.raises(ValueError, match="must be one phase,"):
        replication_experiment_channel(np.array([0.1, 0.2]), STACK)
    for build in (ppbs_matrix, transfer_matrix, sector_operators,
                  effective_toffoli):
        with pytest.raises(ValueError, match="at least one"):
            build([])
    with pytest.raises(ValueError, match="at least one"):
        replication_experiment_channel(0.3, [])


def test_dephasing_takes_one_sigma_per_row():
    # the three operators before dephasing, at two phases
    kraus = replication_experiment_channel(
        np.array([0.3, 0.8]), OpticsParams.measured())[:, :3]
    got = dephase_spatial(kraus, np.array([0.0, 0.65]))
    assert got.shape == (2, 6, 4, 4)
    assert got[0, :3].tobytes() == kraus[0].tobytes()
    assert np.all(got[0, 3:] == 0.0)
    assert got[1].tobytes() == dephase_spatial(kraus[1], 0.65).tobytes()
    unjittered = dephase_spatial(kraus, np.zeros(2))
    assert unjittered[:, :3].tobytes() == kraus.tobytes()
    assert np.all(unjittered[:, 3:] == 0.0)
