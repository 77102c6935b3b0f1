#!/usr/bin/env python3
"""Sweep the two-qubit depolarizing rate and watch fidelity metrics degrade.

Runs the controlled-swap preparation (phase-0 success rate) and the
pair-space overlap experiment (zero-outcome rate) over a grid of p2 values
with trajectory noise attached to the transpiled native gates.  The p2 = 0
row is the noise-free baseline: it runs with no noise model, not with the
single-qubit and readout rates alone.
"""

from __future__ import annotations

import argparse

from qmcmc.experiments import ExperimentSpec, run
from qmcmc.noise import NoiseModel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument(
        "--p2-grid", type=float, nargs="+", default=[0.0, 5e-4, 1.5e-3, 5e-3]
    )
    parser.add_argument("--p1", type=float, default=2e-5)
    parser.add_argument("--p-meas", type=float, default=1e-3)
    args = parser.parse_args()

    print(f"{'p2':>10} {'cswap phase-0 rate':>20} {'overlap estimate':>18}")
    for p2 in args.p2_grid:
        noise = NoiseModel(p1=args.p1, p2=p2, p_meas=args.p_meas) if p2 > 0 else None
        cswap = run(
            ExperimentSpec("cswap-state-prep", shots=args.shots, seed=args.seed, noise=noise)
        )
        overlap = run(
            ExperimentSpec("dual-overlap", shots=args.shots, seed=args.seed, noise=noise)
        )
        print(
            f"{p2:>10.1e} {cswap.derived['phase0_count'] / args.shots:>20.4f} "
            f"{overlap.derived['overlap_estimate']:>18.4f}"
        )


if __name__ == "__main__":
    main()
