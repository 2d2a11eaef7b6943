"""Command line interface.

Subcommands: ``generate`` samples closed loops, one model file per seed,
optionally with trajectory CSVs; ``fit`` runs the identification
pipeline on a dataset CSV or on data simulated from a stored loop;
``bound`` evaluates the error bounds for a stored loop; ``experiment``
runs the full sweep driver.

Exit codes: 0 success, 2 a claimed bound was violated by data, 3 random
generation failed, 4 input files or flag values do not follow the
documented schema (including command line usage errors).  A sweep whose
seeds fail still writes the other seeds' outputs and exits with the
code of the first failed seed's error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bounds import bound_cells, bound_inputs, format_ledger, select_ledger
from .errors import GenerationFailed, RedarError, SchemaError
from .experiments import (
    ExperimentConfig,
    config_from_mapping,
    render_cell,
    run_experiment,
    write_outputs,
)
from .linalg import spectral_radius
from .realization import fit_redar, predict_with_model, prediction_mse
from .serialize import (
    load_config,
    load_dataset_csv,
    load_model,
    save_dataset_csv,
    save_model,
)
from .systems import ClosedLoop, Dims, random_closed_loop, simulate
from .varx import Dataset

__all__ = ["main", "exit_code"]

BOUND_COLUMNS = (
    "t",
    "bound_valid",
    "expected_bound",
    "expected_bound_alt",
    "hinf_bound",
    "delta",
    "small_deviation_branch",
)


class _Parser(argparse.ArgumentParser):
    # usage mistakes are schema errors; keep exit code 2 for bound violations
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SchemaError(f"bad {flag} list {text!r}") from None
    if not values:
        raise SchemaError(f"{flag} must list at least one value")
    return values


def _cmd_generate(args) -> int:
    dims = Dims(args.n_x, args.n_u, args.n_y)
    if args.data and args.samples < 2:
        raise SchemaError("--samples must be at least 2")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seed in _parse_ints(args.seeds, "--seeds"):
        cl = random_closed_loop(
            dims,
            args.spectral_target,
            seed=np.random.SeedSequence([seed, 0]),
            noise_floor=args.noise_floor,
        )
        path = out_dir / f"{args.prefix}_seed{seed}.txt"
        save_model(path, cl)
        print(f"wrote closed loop to {path}")
        print(f"seed {seed}: closed-loop spectral radius = {spectral_radius(cl.a)!r}")
        print(f"seed {seed}: joint noise floor xi = {cl.xi!r}")
        if args.data:
            traj = simulate(
                cl, args.samples, burn_in=args.burn_in, seed=np.random.SeedSequence([seed, 1])
            )
            data_path = out_dir / f"{args.prefix}_data_seed{seed}.csv"
            save_dataset_csv(data_path, Dataset.from_signals(traj.u, traj.y, p=1))
            print(f"wrote {args.samples} samples to {data_path}")
    return 0


def _cmd_fit(args) -> int:
    if (args.data is None) == (args.loop is None):
        raise SchemaError("pass exactly one of --data and --loop")
    test = None
    if args.data is not None:
        ds = load_dataset_csv(args.data, args.p)
    else:
        model = load_model(args.loop)
        if not isinstance(model, ClosedLoop):
            raise SchemaError(f"{args.loop} does not hold a closed-loop model")
        if args.train_t < 2:
            raise SchemaError("--train-t must be at least 2")
        train = simulate(
            model,
            args.train_t + args.p,
            burn_in=args.burn_in,
            seed=np.random.SeedSequence([args.seed, 1]),
        )
        ds = Dataset.from_signals(train.u, train.y, p=args.p)
        test = simulate(
            model,
            args.test_t,
            burn_in=args.burn_in,
            seed=np.random.SeedSequence([args.seed, 2]),
        )
    fit = fit_redar(ds, args.alpha, args.phi)
    save_model(args.out, fit.model)
    yhat = predict_with_model(fit.model, ds.u, ds.y)
    mse = prediction_mse(ds.y, yhat, discard=args.p)
    print(f"wrote identified model to {args.out}")
    print(f"samples used for regression = {ds.t_count}")
    print(f"full predictor order = {fit.full.order}")
    print(f"reduced order = {fit.reduced.order}")
    print(f"certified reduction error = {fit.certified_error!r}")
    print(f"training mse = {mse!r}")
    if test is not None:
        test_mse = prediction_mse(
            test.y, predict_with_model(fit.model, test.u, test.y), discard=args.p
        )
        print(f"test mse = {test_mse!r}")
    return 0


def _cmd_bound(args) -> int:
    model = load_model(args.loop)
    if not isinstance(model, ClosedLoop):
        raise SchemaError(f"{args.loop} does not hold a closed-loop model")
    ts = sorted(set(_parse_ints(args.t, "--t")))
    # ExperimentConfig holds the range checks; bound runs no hold-out, so
    # test_length only has to clear p
    checked = dict(t_sweep=",".join(map(str, ts)), test_length=ts[-1] + 1)
    for name in ("p", "alpha", "phi", "theta", "hinf_grid", "envelope_grid", "rho_grid"):
        checked[name] = getattr(args, name)
    config_from_mapping(checked)
    inputs = bound_inputs(
        model,
        args.p,
        args.alpha,
        args.phi,
        n_rho=args.rho_grid,
        envelope_grid=args.envelope_grid,
        hinf_grid=args.hinf_grid,
    )
    target = args.t0_target if args.t0_target is not None else float(max(ts))
    ledger = select_ledger(inputs, target)
    lines = [",".join(BOUND_COLUMNS)]
    for t in ts:
        cells = bound_cells(inputs, ledger, args.theta, t)
        detail = cells.model_error
        lines.append(
            ",".join(
                [
                    str(t),
                    "yes" if cells.valid else "no",
                    render_cell(cells.expected) if cells.valid else "invalid",
                    render_cell(cells.expected_alt) if cells.valid else "invalid",
                    render_cell(detail.value),
                    render_cell(detail.delta),
                    "yes" if detail.small_deviation_branch else "no",
                ]
            )
        )
    table = "\n".join(lines) + "\n"
    if args.out is not None:
        Path(args.out).write_text(table)
        print(f"wrote bound table to {args.out}")
    else:
        print(table, end="")
    dump = format_ledger(ledger)
    if args.ledger is not None:
        Path(args.ledger).write_text(dump)
        print(f"wrote constant ledger to {args.ledger}")
    else:
        print(dump, end="")
    print(f"t0 = {ledger.t0!r}, k = {ledger.k!r}")
    return 0


def _cmd_experiment(args) -> int:
    mapping: dict[str, str] = {}
    if args.config is not None:
        mapping.update(load_config(args.config))
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            mapping[f.name] = value
    config = config_from_mapping(mapping)
    log = None if args.quiet else print
    result = run_experiment(config, log=log)
    out = write_outputs(result)
    print(f"wrote report to {out / 'report.csv'}")
    if result.violations:
        for row in result.violations:
            print(
                f"bound violated: seed {row.seed} t {row.t} "
                f"mse {row.mse_fit!r} > bound {row.expected_bound!r}",
                file=sys.stderr,
            )
        return 2
    if result.errors:
        error = result.errors[0]
        print(f"redar: {len(result.errors)} seed(s) failed, first: {error}", file=sys.stderr)
        return exit_code(error)
    return 0


def exit_code(exc: Exception) -> int:
    """The exit code for an error: 3 generation, 4 schema or file, else 1."""
    if isinstance(exc, GenerationFailed):
        return 3
    if isinstance(exc, (SchemaError, OSError)):
        return 4
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="redar", description=__doc__.split("\n\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample random closed loops, one file per seed")
    gen.add_argument("--seeds", default="0", help="comma-separated seed list")
    gen.add_argument("--n-x", type=int, default=3)
    gen.add_argument("--n-u", type=int, default=2)
    gen.add_argument("--n-y", type=int, default=2)
    gen.add_argument("--spectral-target", type=float, default=0.7)
    gen.add_argument("--noise-floor", type=float, default=0.05)
    gen.add_argument("--out-dir", required=True, help="directory for the model files")
    gen.add_argument("--prefix", default="loop", help="model file name prefix")
    gen.add_argument("--data", action="store_true", help="also write a trajectory CSV per seed")
    gen.add_argument("--samples", type=int, default=4096, help="trajectory length for --data")
    gen.add_argument("--burn-in", type=int, default=None)
    gen.set_defaults(func=_cmd_generate)

    fit = sub.add_parser("fit", help="identify a model from data")
    fit.add_argument("--data", default=None, help="dataset CSV with u/y channel headers")
    fit.add_argument("--loop", default=None, help="closed-loop model file to simulate instead")
    fit.add_argument("--train-t", type=int, default=4096, help="training samples for --loop")
    fit.add_argument("--test-t", type=int, default=10_000, help="test samples for --loop")
    fit.add_argument("--seed", type=int, default=0, help="simulation seed for --loop")
    fit.add_argument("--burn-in", type=int, default=None)
    fit.add_argument("--p", type=int, default=4)
    fit.add_argument("--alpha", type=float, default=1.0)
    fit.add_argument("--phi", type=float, default=0.05)
    fit.add_argument("--out", required=True, help="identified model file to write")
    fit.set_defaults(func=_cmd_fit)

    bound = sub.add_parser("bound", help="evaluate error bounds for a stored loop")
    bound.add_argument("--loop", required=True, help="closed-loop model file")
    bound.add_argument("--p", type=int, default=4)
    bound.add_argument("--alpha", type=float, default=1.0)
    bound.add_argument("--phi", type=float, default=0.05)
    bound.add_argument("--theta", type=float, default=0.1)
    bound.add_argument("--t", required=True, help="comma-separated sample sizes")
    bound.add_argument("--t0-target", type=float, default=None)
    bound.add_argument("--hinf-grid", type=int, default=4096)
    bound.add_argument("--envelope-grid", type=int, default=2048)
    bound.add_argument("--rho-grid", type=int, default=64)
    bound.add_argument("--out", default=None, help="bound table CSV (default: stdout)")
    bound.add_argument("--ledger", default=None, help="constant ledger file (default: stdout)")
    bound.set_defaults(func=_cmd_bound)

    exp = sub.add_parser("experiment", help="run the sweep driver")
    exp.add_argument("--config", default=None, help="flat key = value configuration file")
    exp.add_argument("--quiet", action="store_true")
    for f in fields(ExperimentConfig):
        exp.add_argument(f"--{f.name.replace('_', '-')}", default=None, help=f"override {f.name}")
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RedarError, OSError) as exc:
        code = exit_code(exc)
        print(f"redar: {'generation failed: ' if code == 3 else ''}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
