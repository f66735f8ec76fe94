import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from phaserep import superrep
from phaserep.choi import process_fidelity
from phaserep.gates import phase_gate, toffoli
from phaserep.qmat import REGISTER_CAP, normalize_phase
from phaserep.superrep import (
    _BLOCK,
    _SCREEN_MAX,
    ReplicationSpec,
    _estimate,
    _infidelities,
    _tail_weights,
    _weight_table,
    ancilla_imprint,
    asymptotic_sweep,
    build_V,
    phase_profile,
    replicated_map,
    replication_fidelity,
    worst_case_fidelity,
)


@pytest.fixture
def kernel_sizes(monkeypatch):
    """The number of phases of each ``_infidelities`` call that
    ``worst_case_fidelity`` makes."""
    sizes = []
    kernel = superrep._infidelities

    def counted(terms, phases):
        sizes.append(phases.size)
        return kernel(terms, phases)

    monkeypatch.setattr(superrep, "_infidelities", counted)
    return sizes


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


def _assert_weight(got, exact, m, w):
    """A tail weight within ``_tail_weights``' stated bound of the exact
    C(M, w) / 2^M, an mpf: (2 (h - w) + sqrt(M) + log2(terms) + 32) u
    relative, with at most M + 1 terms, and half a subnormal unit more."""
    bound = (2 * (m // 2 - w) + math.sqrt(m) + math.log2(m + 1) + 32) \
        * 2.0 ** -53
    assert abs(got - exact) <= bound * exact + mpmath.mpf(2) ** -1075


def test_very_wide_register_weights_and_worst_case():
    # odd M (8001), odd M - N, N >= M (no tail), windows whose first tail
    # weight already rounds to 0 (7000 and 7999 copies at M = 8000), and
    # m_min - 1 = 0 with the subnormal weight 2^-1060 (1059 copies)
    with mpmath.workdps(40):
        for m, copies in ((8000, (399, 400, 7000, 7999, 8001, 9000)),
                          (8001, (400, 401)), (1060, (1059,))):
            binomial = [1]  # C(M, w) for every w, upward from w = 0
            for w in range(m):
                binomial.append(binomial[-1] * (m - w) // (w + 1))
            scale = mpmath.mpf(2) ** m
            for n in copies:
                spec = ReplicationSpec(n, m)
                tail, shift = _tail_weights(spec)
                assert shift == (m - n) % 2
                # entry j is the weight at w = m_min - 1 - j
                top = spec.m_min - 1
                for j, weight in enumerate(tail.tolist()):
                    _assert_weight(weight, binomial[top - j] / scale, m,
                                   top - j)
                # C(M, w) / 2^M rounds to 0 exactly when it is at most half
                # the smallest subnormal, 2^-1074: so past the tail, not
                # inside it
                cut = top - tail.size
                past = binomial[cut] if cut >= 0 else 0
                assert (past << 1075) <= (1 << m)
                if tail.size:
                    assert (binomial[cut + 1] << 1075) > (1 << m)
                # the window's weights, both tails and nothing else sum to 1
                window = [binomial[w] / (1 << m) for w in
                          range(max(spec.m_min, 0), min(spec.m_max, m) + 1)]
                assert math.fsum([*window, *tail, *tail[shift:]]) == 1.0
        # math.comb at the first and last entries and the cut, and mpmath's
        # binomials along the tail and at the cut up to M = 10^7
        for n, m in ((1000, 31622), (3000, 164316), (10_000, 4_000_000),
                     (15_811, 10_000_000)):
            spec = ReplicationSpec(n, m)
            tail, shift = _tail_weights(spec)
            assert shift == (m - n) % 2
            top = spec.m_min - 1
            cut = top - tail.size
            scale = mpmath.mpf(2) ** m
            if m < 10 ** 6:
                past = math.comb(m, cut)
                last = past * (m - cut) // (cut + 1)
                assert (past << 1075) <= (1 << m) < (last << 1075)
                exact = {top: math.comb(m, top) / scale, cut + 1: last / scale}
            else:
                def weight(w):
                    return mpmath.binomial(m, w) / scale
                assert weight(cut) <= mpmath.mpf(2) ** -1075 < weight(cut + 1)
                exact = {top - j: weight(top - j)
                         for j in (0, tail.size // 2, tail.size - 1)}
            for w, value in exact.items():
                _assert_weight(float(tail[top - w]), value, m, w)
    spec = ReplicationSpec(400, 8000)
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
    # in the kernel's blocks: every grid value equals the one-phase value,
    # on any phases; the worst case is the kernel's worst on the uniform
    # grid of the given size
    rng = np.random.default_rng(5)
    sizes = (1, 7, 513, 2 * _BLOCK + 3)
    for n, m in ((1, 2), (2, 4), (2, 2), (10, 100), (158, 1986)):
        spec = ReplicationSpec(copies=n, replicas=m)
        terms = _tail_weights(spec)
        for size in sizes:
            grid = (np.linspace(0.0, math.pi, size) if size < 100
                    else rng.uniform(-1.0, 7.0, size))
            values = 1.0 - _infidelities(terms, grid)
            singles = [1.0 - float(_infidelities(terms, grid[j:j + 1])[0])
                       for j in range(size)]
            assert values.tolist() == singles
            # replication_fidelity is that one-phase path; it rebuilds the
            # weights per call, so at M = 1986 it is checked on a stride
            stride = 1 if m < 1000 else 61
            assert all(replication_fidelity(spec, grid[j]) == singles[j]
                       for j in range(0, size, stride))
        for size in (2, 7, 513, 2 * _BLOCK + 3):
            grid = np.linspace(0.0, math.pi, size)
            kernel = _infidelities(terms, grid)
            i = int(np.argmax(kernel))
            assert worst_case_fidelity(spec, size) \
                == (grid[i], 1.0 - kernel[i])


def _screen_specs():
    # M = N and N + 1 give empty tails or tails on one side only, 2N and
    # 3N + 1 both parity shifts; at G = 17 (P = 32) most tails fold, up to
    # L = 720 at M = 1986.  2^-1041 and 2 x 2^-1072 are subnormal masses.
    for n in (*range(1, 41), 61, 77, 158, 400):
        for m in sorted({n, n + 1, 2 * n, math.floor(n ** 1.5), 3 * n + 1}):
            yield ReplicationSpec(n, m)
    yield ReplicationSpec(1040, 1041)
    yield ReplicationSpec(1070, 1072)


def test_screen_changes_no_worst_case(kernel_sizes):
    # G = 1020 runs P = 2038 = 2 x 1019, a Bluestein length; G = 2 runs
    # P = 2, and the empty tails give estimates of exactly 0.  The first
    # assertion holds for a full-grid scan too; the test fails on a tree
    # without the screen only because it calls _estimate and counts the
    # phases the kernel evaluates.
    single = 0
    for spec in _screen_specs():
        terms = _tail_weights(spec)
        for size in (2, 3, 17, 513, 1000, 1020):
            grid = np.linspace(0.0, math.pi, size)
            kernel = _infidelities(terms, grid)
            i = int(np.argmax(kernel))
            kernel_sizes.clear()
            assert worst_case_fidelity(spec, size) \
                == (grid[i], 1.0 - kernel[i])
            estimate, delta = _estimate(terms, size)
            assert np.abs(estimate - kernel).max() <= delta / 8
            if size == 513 and 16 <= spec.copies <= 158 and terms[0].size:
                assert kernel_sizes == [1]
                single += 1
    assert single == 112


def test_non_finite_phases_and_non_1d_grids_are_rejected():
    # a grid is named by its size: a phase list, an array or a size
    # below 2 is not one
    for spec in (ReplicationSpec(2, 4), ReplicationSpec(2, 2)):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                replication_fidelity(spec, bad)
        for grid in (np.zeros((2, 3)), [0.5, 1.0], [], 0.5, 2.0, 1, 0,
                     True, None, np.array(513)):
            with pytest.raises(ValueError, match="phi_grid_size"):
                worst_case_fidelity(spec, grid)
            with pytest.raises(ValueError, match="phi_grid_size"):
                asymptotic_sweep(0.5, [2], grid)


def _mp_tail_infidelity(spec, phi):
    """2 Re D - |D|^2 in 40-digit arithmetic, D summed over both tails.

    The window's terms have k = 0 and drop out.  Each tail starts from
    mpmath.binomial at the window's edge and steps outward by the
    binomial's ratio.  Every term has Re(1 - e^{ik phi}) >= 0, so the
    first, at k = 1 and C(M, m_min - 1) / 2^M, the largest weight, makes
    |D| >= c (1 - cos phi).  Weights fall away from the window, and the
    sum stops at the first under 1e-25 c (1 - cos phi): the at most M
    left out add under 2e-18 |D| for M <= 10^7.
    """
    m = spec.replicas
    if spec.m_min < 1:
        return 0  # the window holds every weight
    with mpmath.workdps(40):
        angle = mpmath.mpf(phi)
        scale = mpmath.mpf(2) ** m
        floor = 1e-25 * mpmath.binomial(m, spec.m_min - 1) / scale \
            * (1 - mpmath.cos(angle))
        tail = mpmath.mpc(0)
        # k = f(w) - w + m_min: f = 0 below the window, N above it
        for w, step in ((spec.m_min - 1, -1), (spec.m_max + 1, 1)):
            k = (spec.m_min if step < 0 else spec.m_max) - w
            phasor, turn = mpmath.expj(angle * k), mpmath.expj(-angle * step)
            weight = mpmath.binomial(m, w) / scale
            while 0 <= w <= m and weight >= floor:
                tail += weight * (1 - phasor)
                phasor *= turn  # e^{i k phi} as k steps by -step
                weight *= mpmath.mpf(w) / (m - w + 1) if step < 0 \
                    else mpmath.mpf(m - w) / (w + 1)
                w += step
        return 2 * tail.real - abs(tail) ** 2


def test_infidelity_against_high_precision_tail_sum():
    # 1 - F is 1.5e-5, 2.7e-13 and 1.1e-6 at these sizes, where 1 - |S|^2
    # keeps only 11, 3 and 10 digits; the tail sum D keeps them all, so
    # the bound is on 1 - F itself
    for n, m in ((400, 8000), (3000, 164316), (10_000, 4_000_000)):
        spec = ReplicationSpec(n, m)
        expected = _mp_tail_infidelity(spec, math.pi)
        got = _infidelities(_tail_weights(spec), np.array([math.pi]))[0]
        assert abs(got - expected) < 1e-13 * expected


def test_worst_case_memory_does_not_grow_with_the_grid(kernel_sizes):
    # unblocked, each (grid x sqrt(M)) temporary would take about 7 MB.
    # The 20000-point grid goes through the screen, the larger one through
    # the blocked kernel alone; about 0.5 s in all.
    spec = ReplicationSpec(copies=158, replicas=1986)
    for size, screened in ((20000, True), (_SCREEN_MAX + 1, False)):
        kernel_sizes.clear()
        tracemalloc.start()
        try:
            worst_case_fidelity(spec, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (kernel_sizes[0] < size) == screened
        assert peak < 4e6


def test_worst_case_memory_grows_with_the_tail_not_with_m():
    # M = 10^8 with N = 5 sqrt(M), where 1 - F is about 1e-6: the window's
    # lower half and the tail hold N / 2 + L = 191793 weights, while the
    # M / 2 binomial ratios from the mode down to 0 would take 400 MB.
    # The tail build keeps three arrays of its Hoeffding span (under 1 %
    # past N / 2 + L) and the tail; the screen about eight of the tail's
    # length: so at most 10 doubles a weight.
    spec = ReplicationSpec(copies=50_000, replicas=100_000_000)
    weights = spec.copies / 2 + _tail_weights(spec)[0].size
    tracemalloc.start()
    try:
        worst_case_fidelity(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * weights


def test_default_grid_covers_half_period():
    # the default grid runs from 0, the first of the ties where the
    # window holds every weight, to pi, the worst phase of 1 -> 2
    assert worst_case_fidelity(ReplicationSpec(2, 2)) == (0.0, 1.0)
    assert worst_case_fidelity(ReplicationSpec(1, 2))[0] == math.pi
    assert worst_case_fidelity(ReplicationSpec(10, 100)) \
        == worst_case_fidelity(ReplicationSpec(10, 100), 513)


def test_effective_alpha_inverts_power_law():
    rows = asymptotic_sweep(0.25, [4, 9, 1], m_list=[8, 27, 2])
    assert rows[0].alpha == pytest.approx(0.5, abs=1e-12)
    assert rows[1].alpha == pytest.approx(0.5, abs=1e-12)
    assert math.isnan(rows[2].alpha)


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
    # a power-law M = 2^75 fails the spec's size rule before any size is
    # computed
    ([2 ** 50], None, "replicas"),
])
def test_sweep_passes_sizes_to_the_spec_unconverted(n_list, m_list, name):
    with pytest.raises(ValueError, match=name):
        asymptotic_sweep(0.5, n_list, m_list=m_list)


@pytest.mark.parametrize("replicas", [10 ** 12 + 1, 2 ** 62])
def test_replica_counts_past_the_weights_bound_are_refused(replicas):
    # the tail weights carry their error bound up to M = 10^12; past it
    # the spec's replicas rule raises before anything is allocated (a
    # power law with alpha = 1 gives M = N)
    calls = [
        lambda: replication_fidelity(ReplicationSpec(10, replicas), 0.3),
        lambda: worst_case_fidelity(ReplicationSpec(10, replicas)),
        lambda: asymptotic_sweep(0.5, [4, 10], m_list=[16, replicas]),
        lambda: asymptotic_sweep(1.0, [4, replicas]),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"replicas .* 10\^12"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
    assert ReplicationSpec(10, 10 ** 12).replicas == 10 ** 12


def test_sweep_with_explicit_replica_counts():
    rows = asymptotic_sweep(0.5, [3, 4], m_list=[2, 16])
    assert rows[0].worst_fidelity == 1.0  # N >= M window covers everything
    assert rows[1].replicas == 16
    assert rows[1].alpha == pytest.approx(2.0 - math.log(16) / math.log(4))
