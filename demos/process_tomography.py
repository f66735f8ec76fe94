"""Simulated process tomography of the replication experiment.

Prepares the 36 product inputs, measures the 9 product bases, draws
Poisson counts from the noisy optical channel, reconstructs the process
matrix by likelihood ascent, and fits the two-copy fidelity curve.

Run:  python3 demos/process_tomography.py [--rate 2000] [--trials 25]
"""
import argparse
import math

import numpy as np

from phaserep import (
    OpticsParams,
    cu_phase,
    default_design,
    experiment_pipeline,
    kron,
    mle_reconstruct,
    monte_carlo_errors,
    phase_gate,
    process_fidelity,
    replication_experiment_channel,
    simulate_counts,
)


def design_summary() -> None:
    design = default_design()
    print("experiment design:")
    print(f"  inputs x settings x outcomes = {design.n_inputs} x "
          f"{design.n_settings} x 4 = {design.size} count records")
    rank = np.linalg.matrix_rank(design.operators.reshape(design.size, -1))
    print(f"  coefficient matrix rank {rank} (256: identifiable)")


def single_phase(rate: float, trials: int, seed: int) -> None:
    phi = math.pi / 2
    design = default_design()
    channel = replication_experiment_channel(phi, OpticsParams.measured())
    dataset = simulate_counts(channel, design, rate, seed, phase=phi)
    result = mle_reconstruct(dataset, design)
    u = phase_gate(phi)
    targets = {"cu": cu_phase(phi), "uu": kron(u, u)}
    print(f"\nsingle phase pi/2 at rate {rate:g} "
          f"({dataset.total:.0f} total counts):")
    print(f"  converged after {result.iterations} iterations, "
          f"final log-likelihood {result.log_likelihood:.1f}")
    for name, target in targets.items():
        print(f"  F_{name.upper()} = "
              f"{process_fidelity(result.chi, target):.5f}")
    if trials >= 2:
        stats = monte_carlo_errors(dataset, design, trials, targets,
                                   seed=seed + 1)
        for name in targets:
            print(f"  bootstrap ({trials} trials): F_{name.upper()} = "
                  f"{stats[name].mean:.5f} +- {stats[name].std:.5f}")


def full_sweep(rate: float, seed: int) -> None:
    report = experiment_pipeline(OpticsParams.measured(), rate=rate,
                                 seed=seed)
    print(f"\nall 8 phases at rate {rate:g}:")
    print("  phase     F_CU      F_UU")
    for row in report.rows:
        print(f"  {row.phi:6.4f}   {row.f_cu:.5f}   {row.f_uu:.5f}")
    fit = report.fit
    print(f"  cosine fit of F_UU: offset {fit.offset:.4f}, "
          f"amplitude {fit.amplitude:.4f} "
          f"(exact channel would give 0.625 + 0.375 cos phi)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="expected counts per input/setting pair")
    parser.add_argument("--trials", type=int, default=25,
                        help="bootstrap trials for error bars (0 = skip)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    design_summary()
    single_phase(args.rate, args.trials, args.seed)
    full_sweep(args.rate, args.seed)


if __name__ == "__main__":
    main()
