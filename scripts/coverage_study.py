"""Coverage of the high-probability model-error bound.

Fixes one randomly generated closed loop, repeats the identification
pipeline over independent training runs at a single sample size, and
compares the measured H-infinity distance to the population-optimal lag
predictor against the 1 - theta bound.  Writes the per-trial errors and
prints the empirical coverage, which should be at least 1 - theta.
"""

import argparse
from pathlib import Path

import numpy as np

from redar import (
    Dataset,
    Dims,
    bound_inputs,
    finite_horizon_predictor,
    fit_redar,
    hinf_norm,
    model_error_bound,
    parallel_difference,
    random_closed_loop,
    simulate,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--system-seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--t", type=int, default=4096)
    ap.add_argument("--p", type=int, default=4)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--phi", type=float, default=0.05)
    ap.add_argument("--theta", type=float, default=0.1)
    ap.add_argument("--out", type=Path, default=Path("results/coverage.csv"))
    args = ap.parse_args()

    cl = random_closed_loop(
        Dims(2, 1, 1), 0.7, seed=np.random.SeedSequence([args.system_seed, 0])
    )
    inputs = bound_inputs(cl, args.p, args.alpha, args.phi, n_rho=16)
    bound = model_error_bound(inputs, args.theta, float(args.t))
    print(f"loop xi = {cl.xi!r}, noise gain = {inputs.j_norm!r}")
    print(f"model-error bound at T = {args.t}, theta = {args.theta}: {bound!r}")

    _, h_opt = finite_horizon_predictor(cl, args.p)
    lines = ["trial,hinf_error,covered"]
    hits = 0
    for trial in range(args.trials):
        traj = simulate(cl, args.t + args.p, seed=np.random.SeedSequence([trial, 1]))
        ds = Dataset.from_signals(traj.u, traj.y, p=args.p)
        fit = fit_redar(ds, args.alpha, args.phi)
        err = hinf_norm(parallel_difference(fit.reduced.ss, h_opt.ss))
        covered = err <= bound
        hits += covered
        lines.append(f"{trial},{err!r},{'yes' if covered else 'no'}")
    coverage = hits / args.trials
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n")
    print(f"coverage: {hits}/{args.trials} = {coverage:.1%} (target >= {1 - args.theta:.0%})")
    print(f"wrote {args.out}")
    return 0 if coverage >= 1 - args.theta else 1


if __name__ == "__main__":
    raise SystemExit(main())
