"""End-to-end identification experiments.

One experiment sweeps sample sizes over a set of randomly generated
closed loops.  Per seed it builds the loop, computes the exact
lag-p predictor and the bound constants once, simulates a shared test
trajectory and one maximal training trajectory, then fits the full
pipeline (ridge regression, delay-line realization, balanced reduction,
innovation-form extraction) on every prefix in the sweep.  Rows record
empirical errors next to the computable bounds; rows below the bound
validity threshold are marked invalid rather than dropped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bounds import ConstantLedger, bound_cells, bound_inputs, format_ledger, least_ledger
from .errors import RedarError, SchemaError
from .kalman import finite_horizon_predictor
from .linalg import hinf_norm, parallel_difference
from .realization import fit_redar, observer_form, prediction_mse, run_predictor
from .serialize import _csv_text
from .systems import ClosedLoop, Dims, random_closed_loop, simulate_many
from .varx import Dataset

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "SeedOutcome",
    "ExperimentResult",
    "REPORT_COLUMNS",
    "seed_loop",
    "run_seed",
    "run_experiment",
    "write_report",
    "write_outputs",
    "render_cell",
    "render_bound",
    "parse_field",
]

_DEFAULT_SWEEP = (256, 512, 1024, 2048, 4096, 8192, 16384)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one experiment, and the one definition of every run
    setting: each field maps to a CLI flag of the same name, on every
    subcommand that takes it, parsed by `parse_field` and checked here.

    ``hinf_grid`` and ``envelope_grid`` are deprecated: still range-checked
    so that saved configurations load, they change no value or cost.
    """

    n_x: int = 3
    n_u: int = 2
    n_y: int = 2
    spectral_target: float = 0.7
    noise_floor: float = 0.05
    p: int = 4
    alpha: float = 1.0
    phi: float = 0.05
    theta: float = 0.1
    t_sweep: tuple[int, ...] = _DEFAULT_SWEEP
    test_length: int = 10_000
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    burn_in: int | None = None
    output_dir: str = "results"
    hinf_grid: int = 4096
    envelope_grid: int = 2048
    rho_grid: int = 64

    def __post_init__(self):
        # every message starts with the name of the field it is about
        Dims(self.n_x, self.n_u, self.n_y)
        if not 0.0 < self.spectral_target < 1.0:
            raise ValueError(f"spectral_target must lie in (0, 1), got {self.spectral_target}")
        if not self.noise_floor > 0:
            raise ValueError(f"noise_floor must be positive, got {self.noise_floor}")
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not self.phi >= 0:
            raise ValueError(f"phi must be nonnegative, got {self.phi}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not self.t_sweep:
            raise ValueError("t_sweep must be nonempty")
        if min(self.t_sweep) < self.p:
            raise ValueError(f"t_sweep must be at least p = {self.p}, got {min(self.t_sweep)}")
        if list(self.t_sweep) != sorted(set(self.t_sweep)):
            raise ValueError("t_sweep must be strictly increasing")
        if max(self.t_sweep) > sys.float_info.max:
            raise ValueError(f"t_sweep entries must be at most {sys.float_info.max!r}")
        if self.test_length <= self.p:
            raise ValueError(f"test_length must exceed p = {self.p}, got {self.test_length}")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError("seeds must be nonempty and nonnegative")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {','.join(map(str, self.seeds))}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        for name in ("hinf_grid", "envelope_grid", "rho_grid"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be at least 8")
        if not self.output_dir:
            raise ValueError("output_dir must be nonempty")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# field annotation (a string, from the __future__ import) -> value parser
# and what it reads
_ANNOTATION_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
    "tuple[int, ...]": (_parse_int_tuple, "comma-separated integers"),
    "int | None": (lambda s: None if s in ("", "none") else int(s), "an integer or none"),
}
_FIELD_PARSERS = {f.name: _ANNOTATION_PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_field(name: str, text: str):
    """Parse the text form of one ``ExperimentConfig`` field's value."""
    if name not in _FIELD_PARSERS:
        raise SchemaError(f"unknown configuration key {name!r}")
    parser, kind = _FIELD_PARSERS[name]
    try:
        return parser(text)
    except ValueError:
        raise SchemaError(f"{name} takes {kind}, got {text!r}") from None


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """The default config with string key/value overrides (config file entries)."""
    updates = {key: parse_field(key, value) for key, value in mapping.items()}
    try:
        return ExperimentConfig(**updates)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


@dataclass(frozen=True)
class ReportRow:
    """One (seed, sample size) cell of the experiment report."""

    seed: int
    t: int
    status: str = "ok"
    mse_fit: float | None = None
    mse_oracle: float | None = None
    expected_bound: float | None = None
    expected_bound_alt: float | None = None
    bound_valid: bool = False
    hinf_actual: float | None = None
    hinf_bound: float | None = None
    reduced_order: int | None = None
    certified_error: float | None = None
    t0: float | None = None
    k: float | None = None
    ledger_ref: str = ""


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


@dataclass(frozen=True)
class SeedOutcome:
    """Per-seed artifacts: the seed's constant ledger and its report rows.

    A seed whose set-up failed keeps only ``error`` and one error row per
    sample size; its ledger is None.
    """

    seed: int
    ledger: ConstantLedger | None
    rows: tuple[ReportRow, ...]
    error: Exception | None = None


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    outcomes: tuple[SeedOutcome, ...]
    violations: tuple[ReportRow, ...]

    @property
    def rows(self) -> tuple[ReportRow, ...]:
        return tuple(row for outcome in self.outcomes for row in outcome.rows)

    @property
    def errors(self) -> tuple[Exception, ...]:
        """Errors of the seeds whose set-up failed, in seed order."""
        return tuple(o.error for o in self.outcomes if o.error is not None)


def _error_row(seed: int, t: int, exc: Exception) -> ReportRow:
    # the report is plain comma-separated text: keep the message on one
    # line and free of commas
    message = " ".join(str(exc).split()).replace(",", ";")
    return ReportRow(seed=seed, t=t, status=f"error: {message}")


def seed_loop(config: ExperimentConfig, seed: int) -> ClosedLoop:
    """The closed loop of a seed: drawn from its spawn stream 0."""
    return random_closed_loop(
        Dims(config.n_x, config.n_u, config.n_y),
        config.spectral_target,
        seed=np.random.SeedSequence([seed, 0]),
        noise_floor=config.noise_floor,
    )


def run_seed(config: ExperimentConfig, seed: int, log=None) -> SeedOutcome:
    """Run the full sweep for one seed.

    System, training and test randomness come from independent spawn
    streams 0, 1 and 2 of the seed, so changing the sweep or test length
    never changes the sampled system.  ``mse_oracle`` and the H-infinity
    gap ``hinf_actual`` are taken against the p n_y-state observer form
    of the lag-p Kalman predictor G_opt, built once per seed.
    """
    say = log if log is not None else lambda *_: None
    train_seed, test_seed = (np.random.SeedSequence([seed, k]) for k in (1, 2))
    cl = seed_loop(config, seed)
    say(f"seed {seed}: loop with {cl.n_states} states, xi = {cl.xi:.4g}")
    inputs = bound_inputs(cl, config.p, config.alpha, config.phi, n_rho=config.rho_grid)
    ledger = least_ledger(inputs)
    say(f"seed {seed}: t0 = {ledger.t0:.4g}, k = {ledger.k:.4g}")
    h_opt = observer_form(finite_horizon_predictor(cl, config.p)[1])
    test, train = simulate_many(
        cl,
        [(config.test_length, test_seed), (max(config.t_sweep) + config.p, train_seed)],
        burn_in=config.burn_in,
    )
    test_z = test.z
    mse_oracle = prediction_mse(test.y, run_predictor(h_opt, test_z), discard=config.p)
    train_z = train.z

    rows = []
    for t in config.t_sweep:
        try:
            ds = Dataset(z=train_z[: t + config.p], p=config.p, n_u=cl.n_u, n_y=cl.n_y)
            fit = fit_redar(ds, config.alpha, config.phi)
            yhat = run_predictor(fit.reduced.ss, test_z)
            mse_fit = prediction_mse(test.y, yhat, discard=config.p)
            hinf_actual = hinf_norm(parallel_difference(fit.reduced.ss, h_opt))
            cells = bound_cells(ledger, config.theta, t)
            row = ReportRow(
                seed=seed,
                t=t,
                mse_fit=mse_fit,
                mse_oracle=mse_oracle,
                expected_bound=cells.expected,
                expected_bound_alt=cells.expected_alt,
                bound_valid=cells.valid,
                hinf_actual=hinf_actual,
                hinf_bound=cells.model_error.value,
                reduced_order=fit.reduced.order,
                certified_error=fit.certified_error,
                t0=ledger.t0,
                k=cells.k,
                ledger_ref=f"ledger_seed{seed}.txt",
            )
        except (RedarError, np.linalg.LinAlgError) as exc:
            row = _error_row(seed, t, exc)
        say(f"seed {seed} t {t}: {row.status}")
        rows.append(row)
    return SeedOutcome(seed=seed, ledger=ledger, rows=tuple(rows))


def find_violations(rows) -> tuple[ReportRow, ...]:
    """Rows whose empirical error exceeds a bound claimed valid."""
    return tuple(
        row
        for row in rows
        if row.status == "ok" and row.bound_valid and row.mse_fit > row.expected_bound
    )


def _run_seed_or_fail(config: ExperimentConfig, seed: int, log) -> SeedOutcome:
    try:
        return run_seed(config, seed, log)
    except (RedarError, np.linalg.LinAlgError) as exc:
        if log is not None:
            log(f"seed {seed}: error: {exc}")
        rows = tuple(_error_row(seed, t, exc) for t in config.t_sweep)
        return SeedOutcome(seed, None, rows, error=exc)


def run_experiment(config: ExperimentConfig, log=None) -> ExperimentResult:
    """Run every seed; a seed whose set-up raises is recorded as failed
    and the remaining seeds still run."""
    outcomes = tuple(_run_seed_or_fail(config, seed, log) for seed in config.seeds)
    rows = [row for outcome in outcomes for row in outcome.rows]
    return ExperimentResult(config=config, outcomes=outcomes, violations=find_violations(rows))


def render_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def render_bound(value, valid: bool, status: str = "ok") -> str:
    """Text of an expected-error bound cell: ``invalid`` below the validity
    threshold t0; an error row keeps its empty cell."""
    return "invalid" if status == "ok" and not valid else render_cell(value)


def _report_cell(row: ReportRow, column: str) -> str:
    if column in ("expected_bound", "expected_bound_alt"):
        return render_bound(getattr(row, column), row.bound_valid, row.status)
    return render_cell(getattr(row, column))


def write_report(path, rows) -> None:
    """Report CSV with one row per (seed, sample size), stable column order.

    Bound cells of rows below the validity threshold read ``invalid``.
    """
    cells = ([_report_cell(row, col) for col in REPORT_COLUMNS] for row in rows)
    Path(path).write_text(_csv_text(REPORT_COLUMNS, cells))


def write_outputs(result: ExperimentResult) -> Path:
    """Write report.csv, per-seed ledgers and per-seed plot data to the
    config's ``output_dir``.

    Plot data is two two-column files per seed: sample size against the
    expected-error bound and against the empirical test error.  Seeds
    whose set-up failed get report rows only.
    """
    out = Path(result.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(out / "report.csv", result.rows)
    for outcome in result.outcomes:
        if outcome.error is not None:
            continue
        (out / f"ledger_seed{outcome.seed}.txt").write_text(format_ledger(outcome.ledger))
        for name, column in (("bound", "expected_bound"), ("mse", "mse_fit")):
            pairs = ((str(row.t), _report_cell(row, column)) for row in outcome.rows)
            (out / f"{name}_seed{outcome.seed}.csv").write_text(_csv_text(("t", name), pairs))
    return out
