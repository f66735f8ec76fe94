"""Walk through phase-gate replication on two copies.

Shows the exact two-copy fidelity curve, how it compares against the
single-copy and measure-and-prepare baselines and the optimal cloner,
and what the measurement-based variant of the circuit does branch by
branch.

Run:  python3 demos/replication_basics.py [--phi 1.0472]
"""
import argparse
import math

import numpy as np

from phaserep import (
    ReplicationSpec,
    baseline_measure_prepare,
    baseline_single_copy,
    controlled_z,
    cu_phase,
    fidelity_replicas,
    optimal_cloner_fidelity,
    replicate_measured_form,
    replicated_map,
    standard_phases,
    twirled_mean_fidelity,
)


def fidelity_table() -> None:
    print("phase      two-copy   single     cloner")
    for phi in standard_phases():
        print(f"{phi:8.4f}   {fidelity_replicas(phi):.6f}   "
              f"{baseline_single_copy(phi):.6f}   "
              f"{optimal_cloner_fidelity(phi):.6f}")
    print()
    print(f"twirled mean (64-point grid): {twirled_mean_fidelity(64):.9f}")
    print(f"measure-and-prepare mean:     {baseline_measure_prepare():.9f}")
    print("the two-copy curve beats the single-copy estimate at every "
          "phase (margin (1-cos phi)/8); its worst case is 1/4 at pi")


def branch_walkthrough(phi: float) -> None:
    # a generic product input: |+> on each copy slot
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    psi = np.kron(plus, plus)
    reference = cu_phase(phi) @ psi

    # the 1->2 circuits are the N = 1, M = 2 case of superreplication
    unitary = replicated_map(ReplicationSpec(1, 2), phi) * psi
    overlap = abs(np.vdot(reference, unitary)) ** 2
    print(f"\nunitary form at phi = {phi:.4f}: "
          f"overlap with the controlled gate output = {overlap:.12f}")

    branches = dict(zip(("plus", "minus"), replicate_measured_form(phi)))
    print("measured form, no feed-forward:")
    for name, kraus in branches.items():
        probability = np.linalg.norm(kraus @ psi) ** 2
        print(f"  branch {name:>5}: probability {probability:.6f}")

    corrections = {"plus": np.eye(4), "minus": controlled_z()}
    for name, kraus in branches.items():
        out = corrections[name] @ kraus @ psi
        match = abs(np.vdot(reference, out / np.linalg.norm(out))) ** 2
        print(f"  with feed-forward, branch {name:>5} matches "
              f"the unitary form: overlap {match:.12f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phi", type=float, default=math.pi / 3,
                        help="phase used in the branch walkthrough")
    args = parser.parse_args()
    fidelity_table()
    branch_walkthrough(args.phi)


if __name__ == "__main__":
    main()
