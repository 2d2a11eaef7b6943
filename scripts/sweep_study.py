"""Desk-scale sweep: five mixed closed loops, T = 2^8 .. 2^14.

Loops alternate state order (2..4), memory (p = 4 or 8) and reduction
budget (phi = 0.05 or 0.2).  Writes one results directory per variant
plus a merged report, and prints any bound violations.  Exits 2 on a
violation, otherwise with ``redar``'s exit code for the first failed
seed's error.
"""

import argparse
import dataclasses
from pathlib import Path

from redar import ExperimentConfig, run_experiment, write_outputs, write_report
from redar.cli import exit_code
from redar.experiments import find_violations

BASE = ExperimentConfig(
    n_u=1,
    n_y=1,
    t_sweep=tuple(2**k for k in range(8, 15)),
    test_length=10_000,
    rho_grid=32,
)


def variant(i: int, output_dir: Path) -> ExperimentConfig:
    return dataclasses.replace(
        BASE,
        n_x=2 + (i % 3),
        p=4 if i % 2 == 0 else 8,
        phi=0.05 if i < 3 else 0.2,
        seeds=(i,),
        output_dir=str(output_dir / f"variant{i}"),
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--variants", type=int, default=5)
    ap.add_argument("--output-dir", type=Path, default=Path("results/sweep"))
    args = ap.parse_args()

    all_rows = []
    seed_errors = []
    for i in range(args.variants):
        config = variant(i, args.output_dir)
        print(f"variant {i}: n_x={config.n_x} p={config.p} phi={config.phi}")
        result = run_experiment(config, log=print)
        write_outputs(result)
        all_rows.extend(result.rows)
        seed_errors.extend(result.errors)
    merged = args.output_dir / "report.csv"
    write_report(merged, all_rows)
    print(f"wrote merged report to {merged}")

    violations = find_violations(all_rows)
    for row in violations:
        print(
            f"bound violated: seed {row.seed} t {row.t} "
            f"mse {row.mse_fit!r} > bound {row.expected_bound!r}"
        )
    errors = [row for row in all_rows if row.status != "ok"]
    print(f"{len(all_rows)} cells, {len(errors)} errors, {len(violations)} violations")
    if violations:
        return 2
    if seed_errors:
        print(f"{len(seed_errors)} seed(s) failed, first: {seed_errors[0]}")
        return exit_code(seed_errors[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
