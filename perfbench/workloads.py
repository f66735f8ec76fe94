"""Seeded operation batches, one per workload.

An op is one ``phaserep`` CLI invocation.  A workload is a fixed batch
of ops that depends only on the workload name and the seed, so the same
seed always yields the same CLI inputs.  The batch sizes are set so that
one pass takes roughly 1 to 19 s on 2 cores at the seed commit; the
reasons for each workload are in ``perfbench/README.md``.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

TOMO_ARTIFACTS = ("counts.csv", "fidelities.csv", "report.json")

# scanned optics parameter -> (ideal design value, low, high)
SCAN_RANGES = {
    "visibility": (1.0, 0.8, 1.0),
    "r_v": (2.0 / 3.0, 0.55, 0.75),
    "r_h": (0.0, 0.0, 0.05),
    "phase_jitter_sigma": (0.0, 0.0, 0.3),
}

SUPERREP_ALPHA = 0.5
# N range of the superrep sweep; M = floor(N^1.5) reaches 1986 at N = 158
SUPERREP_N_RANGE = (16, 158)
SUPERREP_STRATA = 3


@dataclass(frozen=True)
class Op:
    """One CLI call: subcommand, flags, optional JSON config, artifacts."""

    command: str
    args: tuple[str, ...]
    config: dict | None
    artifacts: tuple[str, ...]

    def argv(self, out_dir, config_path) -> list[str]:
        argv = [self.command, *self.args, "--out-dir", str(out_dir)]
        if self.config is not None:
            argv += ["--config", str(config_path)]
        return argv


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _tomo(phases: str, rate: str, trials: int, seed: int,
          n_phases: int) -> Op:
    args = ("--preset", "measured", "--phases", phases, "--rate", rate,
            "--trials", str(trials), "--seed", str(seed))
    chis = tuple(f"chi_{k:02d}.json" for k in range(n_phases))
    return Op("tomo", args, None, TOMO_ARTIFACTS + chis)


def tomo_bootstrap(rng: random.Random) -> list[Op]:
    # bootstrap error bars at one phase: 11 MLE solves per op
    return [_tomo(repr(math.pi / 2.0), "10000", 10, _seed(rng), 1)
            for _ in range(6)]


def tomo_sweep(rng: random.Random) -> list[Op]:
    # one solve per phase; sparse data gives the widest iteration spread,
    # so the dense rate carries more of the batch
    rates = ("1000", "1000", "100000", "100000", "100000", "100000")
    return [_tomo("standard", rate, 0, _seed(rng), 8) for rate in rates]


def optics_scan(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(2):
        for parameter, (ideal, low, high) in SCAN_RANGES.items():
            values = [ideal] + [rng.uniform(low, high) for _ in range(11)]
            config = {"preset": "ideal", "parameter": parameter,
                      "values": values, "phi": rng.uniform(0.0, math.pi)}
            ops.append(Op("optics-scan", (), config, ("optics_scan.csv",)))
    for _ in range(2):
        phases = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(48))
        args = ("--preset", "measured", "--phases",
                ",".join(repr(p) for p in phases))
        ops.append(Op("replicate", args, None, ("replicate.csv",)))
    return ops


def superrep_n_lists(rng: random.Random) -> tuple[list[int], list[int]]:
    """Two N lists, one draw per stratum each, mirrored within the stratum.

    Run time grows with sum(M); mirroring the second draw (u -> 1 - u)
    keeps that sum nearly independent of the seed.
    """
    low, high = SUPERREP_N_RANGE
    width = (high - low) / SUPERREP_STRATA
    first, second = [], []
    for k in range(SUPERREP_STRATA):
        u = rng.random()
        first.append(round(low + (k + u) * width))
        second.append(round(low + (k + 1.0 - u) * width))
    return first, second


def superrep_sweep(rng: random.Random) -> list[Op]:
    return [Op("superrep", (), {"alpha": SUPERREP_ALPHA, "n_list": n_list},
               ("superrep.csv",))
            for n_list in superrep_n_lists(rng)]


WORKLOADS = {
    "tomo-bootstrap": tomo_bootstrap,
    "tomo-sweep": tomo_sweep,
    "optics-scan": optics_scan,
    "superrep-sweep": superrep_sweep,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's op batch for ``seed`` (same seed, same ops)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
