"""Acceptance suite: twelve numbered end-to-end checks.

Each check emits one ``[criterion NN] PASS/FAIL`` line, echoed in a
terminal-summary block after the run so the verdicts survive pytest's
capture, and then asserts — a failing criterion is visible both in the
line and in the test outcome. Stated runtime budgets are part of the
checks.
"""
import math
import time
from functools import reduce

import conftest
import numpy as np
from conftest import expected_counts

from phaserep import (
    OpticsParams,
    baseline_measure_prepare,
    baseline_single_copy,
    choi_from_kraus,
    cu_phase,
    default_design,
    effective_toffoli,
    experiment_pipeline,
    fit_cosine,
    kron,
    mle_reconstruct,
    monte_carlo_errors,
    optimal_cloner_fidelity,
    phase_gate,
    process_fidelity,
    replication_experiment_channel,
    simulate_counts,
    standard_phases,
    toffoli,
    twirled_mean_fidelity,
)
from phaserep.superrep import (
    ReplicationSpec,
    asymptotic_sweep,
    build_V,
    replicated_map,
    replication_fidelity,
)


def _finish(num: int, problems: list, elapsed: float, budget: float | None,
            summary: str) -> None:
    if budget is not None and elapsed > budget:
        problems.append(
            f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget")
    status = "PASS" if not problems else "FAIL"
    detail = summary if not problems else "; ".join(str(p) for p in problems)
    line = f"[criterion {num:02d}] {status} ({elapsed:.1f}s) {detail}"
    conftest.acceptance_lines.append(line)
    print(line, flush=True)
    assert not problems, detail


def test_criterion_01_two_copy_fidelity_formula():
    start = time.perf_counter()
    problems = []
    worst = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        u = phase_gate(phi)
        value = process_fidelity([cu_phase(phi)], kron(u, u))
        worst = max(worst, abs(value - (5.0 + 3.0 * math.cos(phi)) / 8.0))
    if worst > 1e-10:
        problems.append(f"max deviation {worst:.3e} > 1e-10")
    _finish(1, problems, time.perf_counter() - start, 1.0,
            f"controlled-gate vs two-copy fidelity exact on 64 phases "
            f"(max dev {worst:.1e})")


def test_criterion_02_twirled_mean():
    start = time.perf_counter()
    problems = []
    values = [twirled_mean_fidelity(64, phi=p) for p in standard_phases()]
    worst = max(abs(v - 0.625) for v in values)
    spread = float(np.var(values))
    if worst > 1e-9:
        problems.append(f"twirled mean off 5/8 by {worst:.3e} > 1e-9")
    if spread >= 1e-10:
        problems.append(f"variance across phases {spread:.3e} >= 1e-10")
    _finish(2, problems, time.perf_counter() - start, 1.0,
            f"twirled mean 5/8 and phase-independent (var {spread:.1e})")


def test_criterion_03_baselines():
    start = time.perf_counter()
    problems = []
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    single = float(np.mean([baseline_single_copy(p) for p in grid]))
    prepare = baseline_measure_prepare()
    if abs(single - 0.5) > 1e-9:
        problems.append(f"single-copy mean {single!r} != 1/2 within 1e-9")
    if abs(prepare - 0.625) > 1e-6:
        problems.append(f"measure-prepare {prepare!r} != 5/8 within 1e-6")
    _finish(3, problems, time.perf_counter() - start, 1.0,
            f"single-copy mean {single:.10f}, measure-prepare "
            f"{prepare:.10f}")


def test_criterion_04_optimal_cloner_average():
    start = time.perf_counter()
    problems = []
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    average = float(np.mean([optimal_cloner_fidelity(p) for p in grid]))
    expected = (3.0 + 2.0 * math.sqrt(2.0)) / 8.0
    if abs(average - expected) > 1e-6:
        problems.append(
            f"phase-averaged cloner fidelity {average!r} != "
            f"{expected!r} within 1e-6")
    _finish(4, problems, time.perf_counter() - start, 5.0,
            f"cloner average {average:.9f} matches (3+2*sqrt(2))/8")


def _popcount(values: np.ndarray) -> np.ndarray:
    return np.array([int(v).bit_count() for v in values], dtype=np.int64)


def test_criterion_05_imprinting_unitary():
    start = time.perf_counter()
    problems = []
    # V is stored as its permutation p, V|c> = |p[c]>; scatter the 1->2
    # case into a dense matrix to compare with the Toffoli entry by entry
    perm = build_V(ReplicationSpec(1, 2))
    dense = np.zeros((8, 8))
    dense[perm, np.arange(8)] = 1.0
    if not np.array_equal(dense, toffoli()):
        problems.append("one-into-two imprinting unitary is not the Toffoli")
    for total in range(2, 11):
        for copies in range(1, total):
            replicas = total - copies
            perm = build_V(ReplicationSpec(copies, replicas))
            identity = np.arange(1 << total)
            if not np.array_equal(np.sort(perm), identity):
                problems.append(
                    f"V is no permutation for {copies}->{replicas}")
                continue
            if not np.array_equal(perm[perm], identity):
                problems.append(f"V^2 != I for {copies}->{replicas}")
                continue
            # case table, recomputed from the window thresholds
            m_min = (replicas - copies + 1) // 2
            m_max = (replicas + copies + 1) // 2
            m = np.arange(1 << replicas)
            w = _popcount(m)
            f = np.where(w < m_min, 0,
                         np.where(w < m_max, w - m_min, copies))
            k = (1 << copies) - (1 << (copies - f))
            bad = np.flatnonzero(perm[m << copies] != (m << copies) | k)
            if bad.size:
                problems.append(
                    f"case table broken at {copies}->{replicas}, "
                    f"basis {bad[0]}")
    _finish(5, problems, time.perf_counter() - start, 30.0,
            "exact Toffoli at 1->2; permutation, involution and case "
            "table hold through 10 qubits")


def test_criterion_06_sandwich_equivalence(rng):
    start = time.perf_counter()
    problems = []
    phis = rng.uniform(0.0, 2.0 * math.pi, 16)
    worst_map = 0.0
    worst_fid = 0.0
    for total in range(2, 13):
        for copies in range(1, total):
            replicas = total - copies
            spec = ReplicationSpec(copies, replicas)
            perm = build_V(spec)
            sector = np.arange(1 << replicas) << copies
            # V D V with D = I (x) U^{(x)copies} diagonal and V|c> = |p[c]>
            # has one entry per column c: D[p[c]] in row p[p[c]].  On the
            # ancilla-|0> sector the block is diagonal iff p[p[c]] = c.
            if not np.array_equal(perm[perm[sector]], sector):
                problems.append(
                    f"sandwich leaves the ancilla-|0> sector at "
                    f"{copies}->{replicas}")
                continue
            # D's phase at p[c] is phi per set ancilla bit of p[c]
            anc = _popcount(perm[sector] & ((1 << copies) - 1))
            for phi in phis:
                block = np.exp(1j * phi * anc)
                dev = float(np.max(np.abs(
                    block - replicated_map(spec, phi))))
                worst_map = max(worst_map, dev)
                if dev > 1e-12:
                    problems.append(
                        f"sandwich deviates by {dev:.3e} at "
                        f"{copies}->{replicas}")
                    break
                if replicas <= 10:
                    target = reduce(
                        np.kron, [np.diag(phase_gate(phi))] * replicas)
                    f_block = abs(np.vdot(target, block)) ** 2 \
                        / 4.0 ** replicas
                    err = abs(f_block
                              - replication_fidelity(spec, phi))
                    worst_fid = max(worst_fid, err)
                    if err > 1e-10:
                        problems.append(
                            f"closed-form fidelity off by {err:.3e} at "
                            f"{copies}->{replicas}")
                        break
    _finish(6, problems, time.perf_counter() - start, 120.0,
            f"sandwich through V's permutation matches the diagonal map "
            f"(max dev {worst_map:.1e}) and the closed form (max dev "
            f"{worst_fid:.1e})")


def test_criterion_07_worst_case_infidelity_shrinks():
    start = time.perf_counter()
    problems = []
    rows = asymptotic_sweep(0.5, [4, 9, 16, 25])
    infidelities = [1.0 - r.worst_fidelity for r in rows]
    if not all(a > b for a, b in zip(infidelities, infidelities[1:])):
        problems.append(
            f"worst-case infidelity not strictly decreasing: "
            f"{infidelities}")
    _finish(7, problems, time.perf_counter() - start, 10.0,
            "worst-case infidelity strictly decreasing: "
            + ", ".join(f"{x:.4f}" for x in infidelities))


def test_criterion_08_optical_design_point():
    start = time.perf_counter()
    problems = []
    kraus, _ = effective_toffoli(OpticsParams.ideal())
    f_gate = process_fidelity(choi_from_kraus(kraus), toffoli())
    if abs(f_gate - 1.0) > 1e-9:
        problems.append(f"gate fidelity {f_gate!r} not 1 within 1e-9")
    for phi in standard_phases():
        projected = choi_from_kraus(replication_experiment_channel(
            phi, OpticsParams.ideal()))
        # both idler outcomes kept, built by the test's own oracle
        full = choi_from_kraus(conftest.reference_channel(
            phi, OpticsParams.ideal(), project=False))
        f_cu = process_fidelity(projected, cu_phase(phi))
        if abs(f_cu - 1.0) > 1e-9:
            problems.append(
                f"channel fidelity {f_cu!r} not 1 at phase {phi:.3f}")
        if abs(projected.trace - full.trace / 2.0) > 1e-12:
            problems.append(
                f"projection does not halve the success weight at "
                f"phase {phi:.3f}")
    _finish(8, problems, time.perf_counter() - start, 10.0,
            f"design point exact: gate fidelity {f_gate:.12f}, "
            "projection halves the success weight")


# Spatial phase jitter of the real setup, on top of the three calibrated
# values of OpticsParams.measured(); the README's Tests section and
# jitter_dial() in demos/optical_toffoli.py give sigma ~ 0.65.  That value
# was found by matching the simulated means to the experimental region,
# not by an independent calibration of the setup.
MEASURED_JITTER_SIGMA = 0.65


def _exact_means(params: OpticsParams) -> tuple[float, float]:
    """Noise-free F_CU mean and F_UU period average on the standard grid."""
    phases = standard_phases()
    f_cu, f_uu = [], []
    for phi in phases:
        channel = replication_experiment_channel(phi, params)
        u = phase_gate(phi)
        f_cu.append(process_fidelity(channel, cu_phase(phi)))
        f_uu.append(process_fidelity(channel, kron(u, u)))
    return float(np.mean(f_cu)), fit_cosine(phases, f_uu).offset


def test_criterion_09_measured_preset_bands():
    # The F_UU band runs from the single-copy baseline 1/2 to the ideal
    # replica 5/8, both averages over a full phase period.  The standard
    # grid k*pi/8, k = 0..7, covers only [0, 7pi/8], where the plain means
    # of those two curves are 9/16 and 43/64; both are a constant plus
    # one cosine, so the offset of the cosine fit is their period average,
    # exactly 1/2 and 5/8.  That holds only for these two ideal curves:
    # for the measured preset the F_UU curve also carries a second
    # harmonic, and the fit's offset sits about 3e-4 below its period
    # average (ROADMAP item 8), far inside the band.
    start = time.perf_counter()
    problems = []
    report = experiment_pipeline(
        OpticsParams.measured(phase_jitter_sigma=MEASURED_JITTER_SIGMA),
        rate=2000.0, seed=5)
    mean_cu = float(np.mean([r.f_cu for r in report.rows]))
    average_uu = report.fit.offset
    amplitude = report.fit.amplitude
    if not 0.80 <= mean_cu <= 0.95:
        problems.append(
            f"mean F_CU {mean_cu:.5f} outside [0.80, 0.95]")
    if not 0.50 <= average_uu <= 0.625:
        problems.append(
            f"F_UU period average {average_uu:.5f} outside [0.50, 0.625]")
    if not amplitude > 0.0:
        problems.append(f"cosine amplitude {amplitude!r} not positive")
    # the gap left by the calibrated values alone, without the jitter
    calibrated_cu, calibrated_uu = _exact_means(OpticsParams.measured())
    _finish(9, problems, time.perf_counter() - start, 120.0,
            f"sigma {MEASURED_JITTER_SIGMA}: mean F_CU {mean_cu:.5f}, "
            f"F_UU period average {average_uu:.5f}, amplitude "
            f"{amplitude:.5f}; calibrated only (sigma 0, exact): "
            f"F_CU {calibrated_cu:.4f}, F_UU {calibrated_uu:.4f}")


def test_criterion_10_tomography_closed_loop():
    start = time.perf_counter()
    problems = []
    design = default_design()
    noiseless = {}
    for phi in standard_phases():
        target = cu_phase(phi)
        ds = expected_counts(choi_from_kraus([target]), design, 1e4,
                             phase=phi)
        result = mle_reconstruct(ds, design)
        gains = np.diff(result.ll_trace)
        floor = -1e-9 * (1.0 + np.abs(result.ll_trace[:-1]))
        if not np.all(gains >= floor):
            problems.append(
                f"log-likelihood decreased at phase {phi:.3f}")
        noiseless[phi] = process_fidelity(result.chi, target)
    f_exact = noiseless[math.pi / 2]
    if f_exact < 0.9999:
        problems.append(
            f"noiseless reconstruction fidelity {f_exact!r} < 0.9999")
    target = cu_phase(math.pi / 2)
    sampled = simulate_counts(choi_from_kraus([target]), design, 1e4, 42,
                              phase=math.pi / 2)
    result = mle_reconstruct(sampled, design)
    gains = np.diff(result.ll_trace)
    floor = -1e-9 * (1.0 + np.abs(result.ll_trace[:-1]))
    if not np.all(gains >= floor):
        problems.append("log-likelihood decreased on sampled counts")
    f_sampled = process_fidelity(result.chi, target)
    if f_sampled < 0.999:
        problems.append(
            f"sampled reconstruction fidelity {f_sampled!r} < 0.999")
    _finish(10, problems, time.perf_counter() - start, 300.0,
            f"noiseless fidelity {f_exact:.8f}, sampled {f_sampled:.6f}, "
            "likelihood monotone at all 8 phases")


def test_criterion_11_error_bar_scale():
    start = time.perf_counter()
    problems = []
    design = default_design()
    phi = math.pi / 2
    channel = replication_experiment_channel(phi, OpticsParams.measured())
    u = phase_gate(phi)
    targets = {"cu": cu_phase(phi), "uu": kron(u, u)}
    stds = {}
    for k, rate in enumerate((1e3, 1e4, 1e5)):
        ds = simulate_counts(channel, design, rate, 13 + k)
        stats = monte_carlo_errors(ds, design, 100, targets, seed=17 + k)
        stds[rate] = {name: stats[name].std for name in targets}
    lo, hi = 0.0013 / 5.0, 0.0013 * 5.0
    for name in targets:
        value = stds[1e4][name]
        if not lo <= value <= hi:
            problems.append(
                f"std of F_{name.upper()} at rate 1e4 is {value:.5f}, "
                f"outside [{lo:.5f}, {hi:.5f}]")
        ordered = [stds[r][name] for r in (1e3, 1e4, 1e5)]
        if not (ordered[0] > ordered[1] > ordered[2]):
            problems.append(
                f"std of F_{name.upper()} not decreasing across rates: "
                f"{ordered}")
    _finish(11, problems, time.perf_counter() - start, 900.0,
            "stds at rate 1e4: "
            + ", ".join(f"{n} {stds[1e4][n]:.5f}" for n in sorted(targets))
            + "; decreasing across rates 1e3..1e5")


def test_criterion_12_cosine_fit_recovery():
    start = time.perf_counter()
    problems = []
    phases = standard_phases()
    values = [(5.0 + 3.0 * math.cos(p)) / 8.0 for p in phases]
    fit = fit_cosine(phases, values)
    if abs(fit.offset - 0.625) > 1e-12:
        problems.append(f"offset {fit.offset!r} != 0.625 within 1e-12")
    if abs(fit.amplitude - 0.375) > 1e-12:
        problems.append(f"amplitude {fit.amplitude!r} != 0.375 within 1e-12")
    _finish(12, problems, time.perf_counter() - start, None,
            f"fit recovered ({fit.offset:.12f}, {fit.amplitude:.12f})")
