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

from .bounds import bound_cells, bound_inputs, format_ledger, least_ledger
from .errors import GenerationFailed, RedarError, SchemaError
from .experiments import (
    ExperimentConfig,
    config_from_mapping,
    parse_field,
    render_bound,
    render_cell,
    run_experiment,
    seed_loop,
    write_outputs,
)
from .kalman import LoopAnalysis
from .linalg import spectral_radius
from .realization import fit_redar, predict_with_model, prediction_mse
from .serialize import (
    _csv_text,
    load_config,
    load_dataset_csv,
    load_model,
    save_dataset_csv,
    save_model,
)
from .systems import ClosedLoop, simulate, simulate_many
from .varx import Dataset

__all__ = ["main", "exit_code"]

BOUND_COLUMNS = (
    "t",
    "bound_valid",
    "expected_bound",
    "expected_bound_alt",
    "k",
    "hinf_bound",
    "delta",
    "small_deviation_branch",
)


class _Parser(argparse.ArgumentParser):
    # usage mistakes are schema errors; keep exit code 2 for bound violations
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


_DEPRECATED_GRID = "deprecated: checked (at least 8) but changes no value or cost"
# what a config flag's help says before its default, where the name is not enough
_HELP = {
    "hinf_grid": _DEPRECATED_GRID,
    "envelope_grid": _DEPRECATED_GRID,
    "burn_in": "steps simulated and dropped first; none means ceil(10 / (1 - rho(A)))",
}
# generate samples seed 0 alone unless --seeds says otherwise
_GENERATE_BASE = {"seeds": "0"}


def _add_config_flags(parser, names, **base: str) -> None:
    """Add a ``--field-name`` flag per named ExperimentConfig field; it
    defaults to None (not given) and its help shows the command's default."""
    for name in names:
        value = base.get(name, getattr(ExperimentConfig, name))
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        shown = render_cell(value) or "none"
        about = f"{_HELP[name]}; " if name in _HELP else ""
        parser.add_argument(_flag(name), help=f"{about}default {shown}")


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _given(args) -> dict[str, str]:
    """The config flags on the command line, by field name."""
    values = ((f.name, getattr(args, f.name, None)) for f in fields(ExperimentConfig))
    return {name: text for name, text in values if text is not None}


def _named_by_flag(exc: SchemaError, args) -> SchemaError:
    """``exc`` with the setting it starts with renamed to the flag that set
    it: ``--field-name``, or the flag in ``args.flags`` that the command
    reads that setting from."""
    flags = {**getattr(args, "flags", {}), **{name: _flag(name) for name in _given(args)}}
    name, _, rest = str(exc).partition(" ")
    return SchemaError(f"{flags[name]} {rest}") if name in flags else exc


def _config(args, base: dict[str, str]) -> ExperimentConfig:
    """The command's settings: ``base``, then the given flags, range-checked."""
    return config_from_mapping({**base, **_given(args)})


def _cmd_generate(args) -> int:
    config = _config(args, _GENERATE_BASE)
    if args.data and args.samples < 2:
        raise SchemaError("--samples must be at least 2")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seed in config.seeds:
        cl = seed_loop(config, seed)
        path = out_dir / f"{args.prefix}_seed{seed}.txt"
        save_model(path, cl)
        print(f"wrote closed loop to {path}")
        print(f"seed {seed}: closed-loop spectral radius = {spectral_radius(cl.a)!r}")
        print(f"seed {seed}: joint noise floor xi = {cl.xi!r}")
        if args.data:
            traj = simulate(
                cl, args.samples, burn_in=config.burn_in, seed=np.random.SeedSequence([seed, 1])
            )
            data_path = out_dir / f"{args.prefix}_data_seed{seed}.csv"
            save_dataset_csv(data_path, Dataset(traj.z, 1, cl.n_u, cl.n_y))
            print(f"wrote {args.samples} samples to {data_path}")
    return 0


def _cmd_fit(args) -> int:
    if (args.data is None) == (args.loop is None):
        raise SchemaError("pass exactly one of --data and --loop")
    if args.data is not None:
        # data mode simulates nothing: both lengths sit at the floor that p sets
        p = parse_field("p", args.p) if args.p is not None else ExperimentConfig.p
        train_t, test_t = p, p + 1
    else:
        if args.seed < 0:
            raise SchemaError(f"--seed must be nonnegative, got {args.seed}")
        train_t, test_t = args.train_t, args.test_t
    # the training and test lengths play t_sweep (at least p) and test_length (above p)
    config = _config(args, {"t_sweep": str(train_t), "test_length": str(test_t)})
    p = config.p
    test = None
    if args.data is not None:
        ds = load_dataset_csv(args.data, p)
    else:
        model = load_model(args.loop)
        if not isinstance(model, ClosedLoop):
            raise SchemaError(f"{args.loop} does not hold a closed-loop model")
        train, test = simulate_many(
            model,
            [
                (t, np.random.SeedSequence([args.seed, k]))
                for t, k in ((args.train_t + p, 1), (args.test_t, 2))
            ],
            burn_in=config.burn_in,
        )
        ds = Dataset(train.z, p, model.n_u, model.n_y)
    fit = fit_redar(ds, config.alpha, config.phi)
    save_model(args.out, fit.model)
    yhat = predict_with_model(fit.model, ds.u, ds.y)
    mse = prediction_mse(ds.y, yhat, discard=p)
    print(f"wrote identified model to {args.out}")
    print(f"samples used for regression = {ds.t_count}")
    print(f"full predictor order = {fit.full.order}")
    print(f"reduced order = {fit.reduced.order}")
    print(f"certified reduction error = {fit.certified_error!r}")
    print(f"training mse = {mse!r}")
    if test is not None:
        test_mse = prediction_mse(test.y, predict_with_model(fit.model, test.u, test.y), discard=p)
        print(f"test mse = {test_mse!r}")
    return 0


def _cmd_bound(args) -> int:
    ts = sorted(set(parse_field("t_sweep", args.t)))
    # bound runs no hold-out, so test_length only has to clear p
    config = _config(
        args, {"t_sweep": ",".join(map(str, ts)), "test_length": str(max(ts, default=0) + 1)}
    )
    model = load_model(args.loop)
    if not isinstance(model, ClosedLoop):
        raise SchemaError(f"{args.loop} does not hold a closed-loop model")
    analysis = LoopAnalysis(model)
    inputs = bound_inputs(analysis, config.p, config.alpha, config.phi, n_rho=config.rho_grid)
    ledger = least_ledger(inputs)
    rows = []
    for t in ts:
        cells = bound_cells(inputs, config.theta, t)
        detail = cells.model_error
        rows.append(
            [
                str(t),
                render_cell(cells.valid),
                render_bound(cells.expected, cells.valid),
                render_bound(cells.expected_alt, cells.valid),
                render_cell(cells.k),
                render_cell(detail.value),
                render_cell(detail.delta),
                render_cell(detail.small_deviation_branch),
            ]
        )
    table = _csv_text(BOUND_COLUMNS, rows)
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
    print(f"t0 = {ledger.t0!r}")
    return 0


def _cmd_experiment(args) -> int:
    config = _config(args, load_config(args.config) if args.config is not None else {})
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
    names = ("seeds", "n_x", "n_u", "n_y", "spectral_target", "noise_floor", "burn_in")
    _add_config_flags(gen, names, **_GENERATE_BASE)
    gen.add_argument("--out-dir", required=True, help="directory for the model files")
    gen.add_argument("--prefix", default="loop", help="model file name prefix")
    gen.add_argument("--data", action="store_true", help="also write a trajectory CSV per seed")
    gen.add_argument("--samples", type=int, default=4096, help="trajectory length for --data")
    gen.set_defaults(func=_cmd_generate)

    fit = sub.add_parser("fit", help="identify a model from data")
    fit.add_argument("--data", default=None, help="dataset CSV with u/y channel headers")
    fit.add_argument("--loop", default=None, help="closed-loop model file to simulate instead")
    fit.add_argument("--train-t", type=int, default=4096, help="training samples for --loop")
    fit.add_argument("--test-t", type=int, default=10_000, help="test samples for --loop")
    fit.add_argument("--seed", type=int, default=0, help="simulation seed for --loop")
    _add_config_flags(fit, ("p", "alpha", "phi", "burn_in"))
    fit.add_argument("--out", required=True, help="identified model file to write")
    fit.set_defaults(func=_cmd_fit, flags={"t_sweep": "--train-t", "test_length": "--test-t"})

    bound = sub.add_parser("bound", help="evaluate error bounds for a stored loop")
    bound.add_argument("--loop", required=True, help="closed-loop model file")
    _add_config_flags(
        bound, ("p", "alpha", "phi", "theta", "hinf_grid", "envelope_grid", "rho_grid")
    )
    bound.add_argument("--t", required=True, help="comma-separated sample sizes")
    bound.add_argument("--out", default=None, help="bound table CSV (default: stdout)")
    bound.add_argument("--ledger", default=None, help="constant ledger file (default: stdout)")
    bound.set_defaults(func=_cmd_bound, flags={"t_sweep": "--t"})

    exp = sub.add_parser("experiment", help="run the sweep driver")
    exp.add_argument(
        "--config", default=None, help="flat key = value file; its entries replace the defaults"
    )
    exp.add_argument("--quiet", action="store_true")
    _add_config_flags(exp, [f.name for f in fields(ExperimentConfig)])
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RedarError, OSError) as exc:
        if isinstance(exc, SchemaError):
            exc = _named_by_flag(exc, args)
        code = exit_code(exc)
        print(f"redar: {'generation failed: ' if code == 3 else ''}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
