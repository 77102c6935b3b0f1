#!/usr/bin/env python3
"""Run every measurement experiment at its reference shot count and compare.

Writes one report JSON per experiment into --outdir and prints a summary
table with total-variation distances against the ideal counts and against
each device dataset that ships with the package.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from qmcmc.errors import SchemaError
from qmcmc.experiments import ExperimentSpec, compare, run
from qmcmc.references import load_references


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("reports"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    header = f"{'experiment':22} {'successes':>9} {'tvd(expected)':>13}  device tvds"
    print(header)
    print("-" * len(header))
    # The reference data lists every measurement experiment with its shot count.
    for name, reference in load_references()["experiments"].items():
        spec = ExperimentSpec(name, shots=reference["shots"], seed=args.seed)
        report = run(spec)
        (args.outdir / f"{spec.name}.json").write_text(report.to_json())
        expected_tvd = compare(report, "expected")["tvd"]
        device_cells = []
        for device in reference.get("devices", {}):
            try:
                device_cells.append(f"{device}={compare(report, device)['tvd']:.3f}")
            except SchemaError:
                continue
        successes = "-" if report.success_count is None else str(report.success_count)
        print(
            f"{spec.name:22} {successes:>9} {expected_tvd:>13.4f}  "
            + " ".join(device_cells)
        )
    print(f"\nreports written to {args.outdir}/")


if __name__ == "__main__":
    main()
