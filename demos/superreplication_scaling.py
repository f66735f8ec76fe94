"""How N catalyst copies drive M nearly perfect replicas.

Builds the imprinting permutation for small sizes, spells out the weight
window and phase profile that make the construction work, and sweeps
the closed-form worst-case fidelity along M = N^(2-alpha) to show the
infidelity collapsing as N grows.

Run:  python3 demos/superreplication_scaling.py [--alpha 0.5] [--svg out.svg]
"""
import argparse

import numpy as np

from phaserep import (
    ReplicationSpec,
    ancilla_imprint,
    asymptotic_sweep,
    build_V,
    phase_profile,
    replication_fidelity,
    toffoli,
)
from phaserep.svgplot import Series, line_plot


def small_cases() -> None:
    print("windows and phase profiles:")
    for copies, replicas in ((1, 2), (2, 4), (3, 9)):
        spec = ReplicationSpec(copies, replicas)
        imprints = [format(k, f"0{copies}b")
                    for k in ancilla_imprint(spec).tolist()]
        print(f"  {copies} -> {replicas}: window "
              f"[{spec.m_min}, {spec.m_max}), "
              f"f = {phase_profile(spec).tolist()}, "
              f"ancilla patterns {imprints}")

    # V is a permutation: compare it with the Toffoli's column -> row map
    perm = build_V(ReplicationSpec(1, 2))
    same = np.array_equal(perm, np.argmax(toffoli(), axis=0))
    print(f"\nimprinting unitary for 1 -> 2 equals the Toffoli: {same}")


def scaling_table(alpha: float, n_list: list) -> list:
    rows = asymptotic_sweep(alpha, n_list)
    print(f"\nworst-case fidelity along M = N^(2 - {alpha:g}):")
    print("    N      M    worst phase   worst fidelity   infidelity")
    for row in rows:
        print(f"  {row.copies:3d}  {row.replicas:5d}   "
              f"{row.worst_phi:11.6f}   {row.worst_fidelity:.12f}   "
              f"{1.0 - row.worst_fidelity:.3e}")
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="replication exponent, M = N^(2-alpha)")
    parser.add_argument("--n", type=int, nargs="+",
                        default=[4, 9, 16, 25, 36, 49],
                        help="catalyst copy counts to sweep")
    parser.add_argument("--svg", help="optional output figure path")
    args = parser.parse_args()

    small_cases()
    rows = scaling_table(args.alpha, args.n)

    # a single perfect-replication sanity point: when copies >= replicas
    # the closed form telescopes to exactly 1
    print(f"\n4 -> 2 (more copies than replicas) at phase pi: "
          f"{replication_fidelity(ReplicationSpec(4, 2), np.pi):.1f}")

    if args.svg:
        svg = line_plot(
            [Series("worst-case infidelity", [r.copies for r in rows],
                    [1.0 - r.worst_fidelity for r in rows])],
            title=f"superreplication, alpha = {args.alpha:g}",
            xlabel="catalyst copies N", ylabel="1 - fidelity",
        )
        with open(args.svg, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}")


if __name__ == "__main__":
    main()
