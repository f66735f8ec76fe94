import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from phaserep.choi import process_fidelity
from phaserep.gates import phase_gate, toffoli
from phaserep.qmat import REGISTER_CAP, normalize_phase
from phaserep.superrep import (
    _BLOCK,
    ReplicationSpec,
    _infidelities,
    _tail_weights,
    _weight_table,
    ancilla_imprint,
    asymptotic_sweep,
    build_V,
    default_phi_grid,
    effective_alpha,
    phase_profile,
    replicated_map,
    replication_fidelity,
    worst_case_fidelity,
)


def _all_specs(max_total: int):
    for n in range(1, max_total):
        for m in range(1, max_total - n + 1):
            yield ReplicationSpec(copies=n, replicas=m)


def test_spec_validation():
    with pytest.raises(ValueError):
        ReplicationSpec(copies=0, replicas=2)
    with pytest.raises(ValueError):
        ReplicationSpec(copies=2, replicas=0)
    # a bool or a float is not a protocol size, even where it equals one
    for copies, replicas in ((True, 4), (2, True), (2.0, 4), (2, 4.0)):
        with pytest.raises(ValueError, match="integer"):
            ReplicationSpec(copies, replicas)
    spec = ReplicationSpec(np.int64(2), np.int32(4))
    assert spec == ReplicationSpec(2, 4)
    assert type(spec.copies) is int and type(spec.replicas) is int


def test_window_bounds_hand_table():
    # (N, M) -> (m_min, m_max) evaluated by hand from the ceiling forms
    table = {
        (1, 2): (1, 2),
        (2, 4): (1, 3),
        (3, 9): (3, 6),
        (4, 2): (-1, 3),
        (2, 2): (0, 2),
    }
    for (n, m), (lo, hi) in table.items():
        spec = ReplicationSpec(copies=n, replicas=m)
        assert (spec.m_min, spec.m_max) == (lo, hi)
        assert spec.m_max - spec.m_min == n


def _dense_v(perm):
    """Dense 0/1 matrix V with V[perm[c], c] = 1, scattered from perm."""
    mat = np.zeros((perm.size, perm.size))
    mat[perm, np.arange(perm.size)] = 1.0
    return mat


def sandwich_diagonal(spec: ReplicationSpec, phi: float) -> np.ndarray:
    """Diagonal of V (I ⊗ U(phi)^{⊗copies}) V on the full register.

    V conjugates the ancilla-diagonal phase e^{i phi |n|}, so the result
    is again diagonal with entry e^{i phi |n xor k(m)|} at |m>|n>; this
    is computed by gathering through the permutation of V, independently
    of the phase-profile shortcut, as the oracle of the replicated-map
    tests.  Its ancilla-|0> sector, the entries at m << copies, is the
    replicated map.
    """
    phi = normalize_phase(phi)
    n = spec.copies
    perm = build_V(spec)
    return np.exp(1j * phi * _weight_table(n)[perm & ((1 << n) - 1)])


def test_phase_profile_piecewise_window():
    profile = phase_profile(ReplicationSpec(copies=2, replicas=4))
    assert profile.dtype == np.int64
    assert profile.tolist() == [0, 0, 1, 2, 2]


def test_phase_profile_is_monotone_clamped():
    for spec in _all_specs(9):
        values = phase_profile(spec)
        assert values.shape == (spec.replicas + 1,)
        assert 0 <= values[0] <= spec.copies
        assert values[-1] == min(spec.copies, spec.replicas - spec.m_min)
        assert set(np.diff(values).tolist()) <= {0, 1}


def test_ancilla_imprint_is_unary_prefix():
    spec = ReplicationSpec(copies=3, replicas=4)
    # f(w) leading ancilla bits set: f=(0,0,1,2,3) for the (3,4) window
    assert ancilla_imprint(spec).tolist() == [0, 0, 4, 6, 7]


def test_build_v_for_one_to_two_is_toffoli():
    perm = build_V(ReplicationSpec(copies=1, replicas=2))
    assert perm.tolist() == [0, 1, 2, 3, 4, 5, 7, 6]
    assert np.array_equal(_dense_v(perm), toffoli())


def test_build_v_is_permutation_and_involution():
    for spec in _all_specs(10):
        perm = build_V(spec)
        identity = np.arange(1 << (spec.copies + spec.replicas))
        assert perm.dtype == np.int64
        assert np.array_equal(np.sort(perm), identity)
        assert np.array_equal(perm[perm], identity)


def test_build_v_case_table_on_cleared_ancilla():
    # V|m>|0> = |m>|k(|m|)> with the imprint's weight equal to f(|m|)
    for spec in _all_specs(10):
        n = spec.copies
        perm = build_V(spec)
        imprint = ancilla_imprint(spec)
        profile = phase_profile(spec)
        for m in range(1 << spec.replicas):
            k = int(imprint[m.bit_count()])
            assert k.bit_count() == profile[m.bit_count()]
            assert perm[m << n] == (m << n) | k


def test_build_v_xor_extension_off_cleared_sector():
    spec = ReplicationSpec(copies=2, replicas=3)
    perm = build_V(spec)
    imprint = ancilla_imprint(spec)
    for m in range(8):
        k = int(imprint[m.bit_count()])
        for anc in range(4):
            assert perm[(m << 2) | anc] == (m << 2) | (anc ^ k)


def test_wide_specs_hit_the_register_cap_before_allocating():
    # 2^50 entries could never be allocated; the cap must refuse first,
    # and at its boundary: V needs replicas + copies qubits, the
    # replicated map only the replicas
    wide = ReplicationSpec(copies=20, replicas=30)
    edge = ReplicationSpec(copies=1, replicas=REGISTER_CAP)
    past = ReplicationSpec(copies=1, replicas=REGISTER_CAP + 1)
    for spec in (wide, edge):
        with pytest.raises(ValueError, match="cap"):
            build_V(spec)
        with pytest.raises(ValueError, match="cap"):
            sandwich_diagonal(spec, 0.3)
    for spec in (wide, past):
        with pytest.raises(ValueError, match="cap"):
            replicated_map(spec, 0.3)


def test_sandwich_matches_literal_dense_product():
    # independent oracle: build V (I (x) U^N) V by explicit matmuls
    rng = np.random.default_rng(7)
    for spec in _all_specs(9):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        v = _dense_v(build_V(spec))
        u_n = np.array([[1.0]])
        for _ in range(spec.copies):
            u_n = np.kron(u_n, phase_gate(phi))
        dense = v @ np.kron(np.eye(1 << spec.replicas), u_n) @ v
        diag = sandwich_diagonal(spec, phi)
        assert np.max(np.abs(dense - np.diag(diag))) < 1e-12


def test_sandwich_restriction_equals_replicated_map():
    rng = np.random.default_rng(11)
    for spec in _all_specs(12):
        # full-register indices |m>|0> of the ancilla-|0> sector
        sector = np.arange(1 << spec.replicas) << spec.copies
        for phi in rng.uniform(0.0, 2.0 * math.pi, size=4):
            got = sandwich_diagonal(spec, float(phi))[sector]
            want = replicated_map(spec, float(phi))
            assert np.max(np.abs(got - want)) < 1e-12


def test_replicated_map_is_diagonal_phase_imprint():
    spec = ReplicationSpec(copies=2, replicas=4)
    phi = 0.9
    diag = replicated_map(spec, phi)
    profile = phase_profile(spec)
    assert diag.shape == (16,)
    for m in range(16):
        expected = np.exp(1j * phi * profile[m.bit_count()])
        assert abs(diag[m] - expected) < 1e-14


def _mp_fidelity(spec, phi):
    """The fidelity's binomial sum in 50-digit arithmetic."""
    profile = phase_profile(spec)
    m = spec.replicas
    with mpmath.workdps(50):
        acc = mpmath.mpc(0)
        for w in range(m + 1):
            acc += (
                mpmath.binomial(m, w)
                * mpmath.expjpi(mpmath.mpf(phi) * (int(profile[w]) - w)
                                / mpmath.pi)
            )
        return float(abs(acc / mpmath.mpf(2) ** m) ** 2)


def test_fidelity_against_high_precision_sum():
    # (1, 2), (2, 5) and (61, 476) have odd M - N: the tail above the
    # window is the one below shifted by one
    for n, m in ((1, 2), (2, 4), (2, 5), (3, 9), (4, 6), (10, 100),
                 (61, 476), (100, 1000), (158, 1986)):
        spec = ReplicationSpec(copies=n, replicas=m)
        for phi in (0.3, 0.9, 2.2):
            expected = _mp_fidelity(spec, phi)
            assert abs(replication_fidelity(spec, phi) - expected) < 1e-13


def test_very_wide_register_weights_and_worst_case():
    m = 8000
    binomial = [1]  # C(M, w) for every w, upward from w = 0
    for w in range(m):
        binomial.append(binomial[-1] * (m - w) // (w + 1))
    for spec in (ReplicationSpec(399, m), ReplicationSpec(400, m)):
        tail, shift = _tail_weights(spec)
        assert shift == (m - spec.copies) % 2
        # entry j is the weight at w = m_min - 1 - j, correctly rounded
        top = spec.m_min - 1
        for j, weight in enumerate(tail.tolist()):
            assert weight == binomial[top - j] / (1 << m)
        # C(M, w) / 2^M rounds to 0 exactly when it is at most half the
        # smallest subnormal, 2^-1074: so past the tail, not inside it
        assert (binomial[top - tail.size] << 1075) <= (1 << m)
        assert (binomial[top - tail.size + 1] << 1075) > (1 << m)
        # the window's weights, both tails and nothing else sum to 1
        window = [binomial[w] / (1 << m)
                  for w in range(spec.m_min, spec.m_max + 1)]
        assert math.fsum([*window, *tail, *tail[shift:]]) == 1.0
    spec = ReplicationSpec(400, m)
    phi, fid = worst_case_fidelity(spec)
    assert abs(fid - _mp_fidelity(spec, phi)) < 1e-13
    assert fid == replication_fidelity(spec, phi)


def test_fidelity_closed_form_matches_dense_trace():
    rng = np.random.default_rng(3)
    for spec in _all_specs(11):
        if spec.replicas > 8:
            continue
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        target = np.array([[1.0]])
        for _ in range(spec.replicas):
            target = np.kron(target, phase_gate(phi))
        dense = process_fidelity([np.diag(replicated_map(spec, phi))],
                                 target)
        assert abs(replication_fidelity(spec, phi) - dense) < 1e-10


def test_fidelity_is_one_when_copies_cover_replicas():
    for n, m in ((2, 2), (3, 2), (5, 4), (9, 3)):
        spec = ReplicationSpec(copies=n, replicas=m)
        for phi in (0.1, 1.4, 3.0):
            assert replication_fidelity(spec, phi) == 1.0


def test_fidelity_phase_symmetry():
    spec = ReplicationSpec(copies=2, replicas=5)
    for phi in (0.4, 1.9):
        f = replication_fidelity(spec, phi)
        assert replication_fidelity(spec, -phi) == pytest.approx(f, abs=1e-13)
        assert replication_fidelity(spec, 2 * math.pi - phi) \
            == pytest.approx(f, abs=1e-13)


def test_one_to_two_worst_case_is_quarter():
    phi, fid = worst_case_fidelity(ReplicationSpec(copies=1, replicas=2))
    assert phi == pytest.approx(math.pi, abs=1e-12)
    assert fid == pytest.approx(0.25, abs=1e-12)


def test_worst_case_scans_the_given_grid():
    # a phase's value must not depend on the grid size or on its position
    # in the kernel's blocks: every grid value equals the one-phase value
    rng = np.random.default_rng(5)
    sizes = (1, 7, 513, 2 * _BLOCK + 3)
    for n, m in ((1, 2), (2, 4), (2, 2), (10, 100), (158, 1986)):
        spec = ReplicationSpec(copies=n, replicas=m)
        terms = _tail_weights(spec)
        for size in sizes:
            grid = (np.linspace(0.0, math.pi, size) if size < 100
                    else rng.uniform(-1.0, 7.0, size))
            phi, fid = worst_case_fidelity(spec, grid)
            values = 1.0 - _infidelities(terms, grid)
            singles = [1.0 - float(_infidelities(terms, grid[j:j + 1])[0])
                       for j in range(size)]
            assert values.tolist() == singles
            # replication_fidelity is that one-phase path; it rebuilds the
            # weights per call, so at M = 1986 it is checked on a stride
            stride = 1 if m < 1000 else 61
            assert all(replication_fidelity(spec, grid[j]) == singles[j]
                       for j in range(0, size, stride))
            assert fid == min(singles)
            assert phi == grid[int(np.argmin(singles))]


def test_non_finite_phases_and_non_1d_grids_are_rejected():
    for spec in (ReplicationSpec(2, 4), ReplicationSpec(2, 2)):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                replication_fidelity(spec, bad)
            with pytest.raises(ValueError, match="finite"):
                worst_case_fidelity(spec, [bad, 1.0])
        for grid in (np.zeros((2, 3)), 0.5):
            with pytest.raises(ValueError, match="one-dimensional"):
                worst_case_fidelity(spec, grid)
        with pytest.raises(ValueError, match="empty"):
            worst_case_fidelity(spec, [])


def test_infidelity_against_high_precision_tail_sum():
    # at M = 8000 the infidelity is 1.5e-5, where 1 - |S|^2 keeps only
    # 11 digits; the tail sum D keeps them all
    spec = ReplicationSpec(copies=400, replicas=8000)
    phi = math.pi
    m = spec.replicas
    exponents = phase_profile(spec) - np.arange(m + 1) + spec.m_min
    with mpmath.workdps(40):
        angle = mpmath.mpf(phi)
        tail, binomial = mpmath.mpc(0), 1
        for w in range(m + 1):
            k = int(exponents[w])
            if k:
                tail += binomial * (1 - mpmath.expj(angle * k))
            binomial = binomial * (m - w) // (w + 1)
        tail /= mpmath.mpf(2) ** m
        expected = 2 * tail.real - abs(tail) ** 2
    got = _infidelities(_tail_weights(spec), np.array([phi]))[0]
    assert abs(got - expected) < 1e-13 * expected


def test_worst_case_memory_does_not_grow_with_the_grid():
    # unblocked, each (grid x sqrt(M)) temporary would take about 7 MB
    spec = ReplicationSpec(copies=158, replicas=1986)
    grid = np.linspace(0.0, math.pi, 20000)
    tracemalloc.start()
    try:
        worst_case_fidelity(spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_default_grid_covers_half_period():
    grid = default_phi_grid()
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(math.pi)


def test_effective_alpha_inverts_power_law():
    assert effective_alpha(4, 8) == pytest.approx(0.5, abs=1e-12)
    assert effective_alpha(9, 27) == pytest.approx(0.5, abs=1e-12)
    assert math.isnan(effective_alpha(1, 2))


def test_sweep_monotone_and_validated():
    rows = asymptotic_sweep(0.5, [4, 9, 16])
    assert [r.replicas for r in rows] == [8, 27, 64]
    fidelities = [r.worst_fidelity for r in rows]
    assert fidelities == sorted(fidelities)
    with pytest.raises(ValueError):
        asymptotic_sweep(0.0, [4])
    with pytest.raises(ValueError):
        asymptotic_sweep(0.5, [4, 9], m_list=[8])


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, -0.5, True,
                                   "0.5"])
def test_sweep_rejects_an_alpha_that_is_not_finite_and_positive(alpha):
    with pytest.raises(ValueError, match="alpha"):
        asymptotic_sweep(alpha, [4])


@pytest.mark.parametrize("n_list, m_list, name", [
    ([True], None, "copies"),
    ([4.0], None, "copies"),
    ([4], [True], "replicas"),
    ([4], [0], "positive"),
    ([4], [2.0], "replicas"),
    # checked before the power law: not the TypeError of a negative int's
    # complex power, nor the OverflowError of a huge float or of 1 << M
    ([-4], None, "copies"),
    ([-1], None, "copies"),
    ([math.inf], None, "copies"),
    ([1e300], None, "copies"),
    ([2 ** 70], None, "copies"),
])
def test_sweep_passes_sizes_to_the_spec_unconverted(n_list, m_list, name):
    with pytest.raises(ValueError, match=name):
        asymptotic_sweep(0.5, n_list, m_list=m_list)


def test_sweep_with_explicit_replica_counts():
    rows = asymptotic_sweep(0.5, [3, 4], m_list=[2, 16])
    assert rows[0].worst_fidelity == 1.0  # N >= M window covers everything
    assert rows[1].replicas == 16
    assert rows[1].alpha == pytest.approx(2.0 - math.log(16) / math.log(4))
