"""Output checks on CLI artifacts, computed independently of the CLI.

Every check returns a list of problems (empty when the artifacts pass)
together with the accuracy figure it measured:

* tomography: the maximum-likelihood optimality gap
  lambda_max(R) / N_total - 1 with R = sum_j (n_j / p_j) O_j, rebuilt
  from ``counts.csv`` and ``chi_NN.json``; it is 0 at the ML point;
* replicate, optics-scan, superrep: the largest absolute deviation from
  the analytic references (5 + 3 cos phi)/8, 5/8, Toffoli fidelity 1
  with success 1/9 at the design point, and an mpmath binomial sum.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import mpmath
import numpy as np

# deviation from an analytic reference that fails an op
ORACLE_TOL = 1e-9
# optimality gap that fails a reconstruction; converged solves at the
# seed commit reach about 1.5e-4
GAP_TOL = 5e-3


def read_csv(path: Path) -> list[dict[str, str]]:
    """Rows of a CLI CSV artifact, metadata comment lines skipped."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_counts(path: Path, design) -> list[np.ndarray]:
    """Per-phase count vectors from ``counts.csv``, in design row order."""
    counts: dict[int, np.ndarray] = {}
    for rec in read_csv(path):
        phase = int(rec["phase_id"])
        row = design.row_index(int(rec["input_id"]),
                               int(rec["setting_id"]),
                               int(rec["outcome_id"]))
        counts.setdefault(phase, np.zeros(design.size))[row] = float(
            rec["count"])
    return [counts[k] for k in sorted(counts)]


def read_chi(path: Path) -> np.ndarray:
    doc = json.loads(Path(path).read_text())["reconstructed"]
    return np.array(doc["real"]) + 1j * np.array(doc["imag"])


def mle_gap(counts: np.ndarray, chi: np.ndarray,
            operators: np.ndarray) -> float:
    """lambda_max(R) / N_total - 1 for a unit-trace process matrix.

    ``operators`` are the design's O_j (rows x 16 x 16) with
    p_j = Tr[chi O_j]; rows without counts do not enter R.
    """
    active = counts > 0.0
    ops = operators[active]
    n = counts[active]
    p = np.einsum("ab,jba->j", chi, ops).real
    r = np.einsum("j,jab->ab", n / p, ops)
    r = 0.5 * (r + r.conj().T)
    return float(np.linalg.eigvalsh(r)[-1] / n.sum() - 1.0)


def check_tomo(out_dir: Path, design) -> tuple[list[str], float]:
    problems = []
    for rec in read_csv(out_dir / "fidelities.csv"):
        for key in ("f_cu", "f_uu"):
            if not math.isfinite(float(rec[key])):
                problems.append(f"{key} not finite at phi={rec['phi']}")
        if rec["converged"] != "1":
            problems.append(f"MLE not converged at phi={rec['phi']}")
    gaps = [mle_gap(counts, read_chi(out_dir / f"chi_{k:02d}.json"),
                    design.operators)
            for k, counts in enumerate(read_counts(out_dir / "counts.csv",
                                                   design))]
    gap = max(gaps)
    if not gap <= GAP_TOL:
        problems.append(f"MLE optimality gap {gap:.3g} above {GAP_TOL}")
    return problems, gap


def _oracle(problems: list[str], what: str, value: float,
            reference: float) -> float:
    err = abs(value - reference)
    if not err <= ORACLE_TOL:
        problems.append(f"{what}: {value!r} vs reference {reference!r}")
    return err


def check_replicate(out_dir: Path) -> tuple[list[str], float]:
    problems, errs = [], [0.0]
    for rec in read_csv(out_dir / "replicate.csv"):
        phi = float(rec["phi"])
        errs.append(_oracle(problems, f"f_uu_ideal at phi={phi}",
                            float(rec["f_uu_ideal"]),
                            (5.0 + 3.0 * math.cos(phi)) / 8.0))
        errs.append(_oracle(problems, "baseline_measure_prepare",
                            float(rec["baseline_measure_prepare"]), 5 / 8))
    return problems, max(errs)


def check_optics_scan(out_dir: Path, ideal: float
                      ) -> tuple[list[str], float]:
    problems, errs = [], []
    for rec in read_csv(out_dir / "optics_scan.csv"):
        if float(rec["value"]) != ideal:
            continue
        errs.append(_oracle(problems, "f_toffoli at the design point",
                            float(rec["f_toffoli"]), 1.0))
        errs.append(_oracle(problems, "f_cu at the design point",
                            float(rec["f_cu"]), 1.0))
        errs.append(_oracle(problems, "success at the design point",
                            float(rec["success"]), 1.0 / 9.0))
    if not errs:
        problems.append("design point missing from optics_scan.csv")
    return problems, max(errs, default=0.0)


def binomial_fidelity(copies: int, replicas: int, phi: float) -> float:
    """|sum_w C(M,w) 2^-M e^{i (f(w) - w) phi}|^2 in 40-digit arithmetic.

    f(w) is 0 below the window [m_min, m_max), w - m_min inside it and
    N above, with the window centred on M/2.
    """
    m_min = (replicas - copies + 1) // 2
    m_max = (replicas + copies + 1) // 2
    with mpmath.workdps(40):
        phi_mp = mpmath.mpf(phi)
        weight = mpmath.mpf(2) ** -replicas
        acc = mpmath.mpc(0)
        for w in range(replicas + 1):
            f = 0 if w < m_min else (w - m_min if w < m_max else copies)
            acc += weight * mpmath.expj(phi_mp * (f - w))
            weight = weight * (replicas - w) / (w + 1)
        return float(abs(acc) ** 2)


def check_superrep(out_dir: Path, alpha: float
                   ) -> tuple[list[str], float]:
    problems, errs = [], []
    for rec in read_csv(out_dir / "superrep.csv"):
        n, m = int(rec["n"]), int(rec["m"])
        if m != max(1, math.floor(n ** (2.0 - alpha))):
            problems.append(f"M={m} does not follow N^(2-alpha) at N={n}")
        errs.append(_oracle(problems, f"fidelity at N={n}, M={m}",
                            float(rec["fidelity"]),
                            binomial_fidelity(n, m, float(rec["phi"]))))
    if not errs:
        problems.append("superrep.csv has no rows")
    return problems, max(errs, default=0.0)


def same_bytes(dir_a: Path, dir_b: Path, names) -> list[str]:
    """Artifacts whose bytes differ (or are missing) between two runs."""
    return [name for name in names
            if not (dir_a / name).is_file() or not (dir_b / name).is_file()
            or (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]
