import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import redar.bounds
import redar.linalg
import redar.systems
from redar import (
    ExperimentConfig,
    ReportRow,
    SchemaError,
    build_ledger,
    expected_error_bound,
    least_ledger,
    run_experiment,
    run_seed,
    write_outputs,
    write_report,
)
from redar.experiments import (
    REPORT_COLUMNS,
    config_from_mapping,
    find_violations,
    render_bound,
    render_cell,
)

from .support import count_calls

TINY = ExperimentConfig(
    n_x=2,
    n_u=1,
    n_y=1,
    p=2,
    t_sweep=(64, 128),
    test_length=512,
    seeds=(0,),
    hinf_grid=64,
    envelope_grid=64,
    rho_grid=8,
)


@pytest.fixture(scope="module")
def medium_result():
    config = dataclasses.replace(
        TINY,
        t_sweep=(256, 1024, 4096),
        test_length=2**14,
        seeds=tuple(range(20)),
        hinf_grid=128,
        envelope_grid=128,
    )
    return run_experiment(config)


class TestConfig:
    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert config.t_sweep[0] >= config.p

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_x": 0},
            {"spectral_target": 1.0},
            {"noise_floor": 0.0},
            {"p": 0},
            {"alpha": 0.0},
            {"phi": -0.1},
            {"theta": 1.0},
            {"t_sweep": ()},
            {"t_sweep": (512, 256)},
            {"t_sweep": (256, 256)},
            {"p": 8, "t_sweep": (4, 256)},
            {"test_length": 4, "p": 4},
            {"seeds": ()},
            {"burn_in": -1},
            {"hinf_grid": 4},
            {"alpha": math.inf},
            {"t_sweep": (256, 10**400)},
            {"seeds": (0, 0)},
            {"seeds": (3, 1, 3)},
            {"alpha": math.nan},
            {"phi": math.nan},
            {"noise_floor": math.nan},
            {"spectral_target": math.nan},
            {"theta": math.nan},
            {"seeds": (0, -1)},
            {"output_dir": ""},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ValueError):
            dataclasses.replace(ExperimentConfig(), **overrides)

    def test_mapping_overrides(self):
        config = config_from_mapping(
            {"p": "8", "t_sweep": "16,32", "seeds": "0,3", "burn_in": "none", "alpha": "2.5"}
        )
        assert config.p == 8
        assert config.t_sweep == (16, 32)
        assert config.seeds == (0, 3)
        assert config.burn_in is None
        assert config.alpha == 2.5

    @pytest.mark.parametrize(
        "field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name
    )
    def test_every_field_round_trips_from_its_default(self, field):
        default = field.default
        text = ",".join(map(str, default)) if isinstance(default, tuple) else render_cell(default)
        parsed = getattr(config_from_mapping({field.name: text}), field.name)
        assert parsed == default
        assert type(parsed) is type(default)

    def test_mapping_rejects_unknown_key(self):
        with pytest.raises(SchemaError):
            config_from_mapping({"nx": "3"})

    def test_mapping_rejects_bad_value(self):
        with pytest.raises(SchemaError):
            config_from_mapping({"p": "four"})

    def test_mapping_rejects_invalid_combination(self):
        with pytest.raises(SchemaError):
            config_from_mapping({"p": "0"})


class TestRunSeed:
    def test_deterministic(self):
        first = run_seed(TINY, 0)
        second = run_seed(TINY, 0)
        assert first.rows == second.rows
        assert first.rows[0].mse_oracle == second.rows[0].mse_oracle
        assert first.ledger.k == second.ledger.k

    def test_sweep_change_keeps_system_and_test_data(self):
        # randomness is split per purpose, so changing the sweep must not
        # move the sampled loop or the shared test trajectory
        full = run_seed(TINY, 0)
        short = run_seed(dataclasses.replace(TINY, t_sweep=(128,)), 0)
        assert short.ledger.inputs == full.ledger.inputs
        assert short.rows[0].mse_oracle == full.rows[0].mse_oracle
        a, b = full.rows[1], short.rows[0]
        assert (a.t, a.mse_fit, a.hinf_actual, a.reduced_order) == (
            b.t,
            b.mse_fit,
            b.hinf_actual,
            b.reduced_order,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_observer_form_gap_equals_the_delay_line_gap(self, seed, monkeypatch):
        config = ExperimentConfig(t_sweep=(256, 1024), test_length=500, rho_grid=8)
        observer = run_seed(config, seed)
        monkeypatch.setattr("redar.experiments.observer_form", lambda h_full: h_full.ss)
        delay_line = run_seed(config, seed)
        for got, want in zip(observer.rows, delay_line.rows, strict=True):
            assert got.status == want.status == "ok"
            assert got.hinf_actual == pytest.approx(want.hinf_actual, rel=1e-9, abs=0)
            assert got.mse_oracle == pytest.approx(want.mse_oracle, rel=1e-12, abs=0)

    def test_each_valid_row_uses_its_own_ledger(self):
        # seed 0 at p = 1 has t0* = 1.4e5: the first row is invalid and
        # reports the least ledger's k, the second is bounded with the
        # ledger built at its own sample size
        config = dataclasses.replace(TINY, p=1, t_sweep=(2**16, 2**18))
        outcome = run_seed(config, 0)
        least = outcome.ledger
        assert least == least_ledger(least.inputs)
        invalid, valid = outcome.rows
        assert not invalid.bound_valid and invalid.k == least.k
        own = build_ledger(least.inputs, 2.0**18)
        assert valid.bound_valid and valid.k == own.k < least.k
        assert valid.expected_bound == expected_error_bound(least.inputs, own, 2.0**18)
        assert invalid.t0 == valid.t0 == least.t0

    def test_one_stationary_solve_and_one_ledger_per_seed(self, monkeypatch):
        # bound inputs and the oracle predictor share the loop's noise map
        # and its Lyapunov solve; the other 14 solves are the Gramians of
        # the 7 fits.  The least ledger is built once.
        maps = count_calls(monkeypatch, redar.systems.noise_to_signal)
        solves = count_calls(monkeypatch, redar.linalg._lyapunov)
        ledgers = count_calls(monkeypatch, redar.bounds.build_ledger)
        outcome = run_seed(ExperimentConfig(), 0)
        assert all(row.status == "ok" for row in outcome.rows)
        assert (len(maps), len(solves), len(ledgers)) == (1, 15, 1)

    def test_rows_cover_sweep_in_order(self):
        outcome = run_seed(TINY, 1)
        assert tuple(row.t for row in outcome.rows) == TINY.t_sweep
        assert all(row.seed == 1 for row in outcome.rows)
        assert all(row.ledger_ref == "ledger_seed1.txt" for row in outcome.rows)

    def test_log_callback_receives_progress(self):
        messages = []
        run_seed(TINY, 0, log=messages.append)
        assert any("seed 0" in m for m in messages)
        assert any("t0" in m for m in messages)


class TestFindViolations:
    def test_filters_on_status_validity_and_value(self):
        good = ReportRow(seed=0, t=64, mse_fit=1.0, expected_bound=2.0, bound_valid=True)
        bad = ReportRow(seed=0, t=128, mse_fit=3.0, expected_bound=2.0, bound_valid=True)
        below_threshold = ReportRow(seed=0, t=32, mse_fit=3.0, bound_valid=False)
        errored = ReportRow(seed=0, t=16, status="error: boom", bound_valid=True)
        assert find_violations([good, bad, below_threshold, errored]) == (bad,)


class TestReportRendering:
    def test_render_cell(self):
        assert render_cell(None) == ""
        assert render_cell(True) == "yes"
        assert render_cell(False) == "no"
        assert render_cell(math.inf) == "inf"
        assert render_cell(0.1) == "0.1"
        assert render_cell(7) == "7"

    @pytest.mark.parametrize(
        "valid, status, want",
        [(True, "ok", "2.0"), (False, "ok", "invalid"), (False, "error: boom", "2.0")],
    )
    def test_render_bound(self, valid, status, want):
        assert render_bound(2.0, valid, status) == want

    def test_write_report_marks_invalid_cells(self, tmp_path):
        rows = [
            ReportRow(seed=0, t=64, mse_fit=1.0, bound_valid=False),
            ReportRow(seed=0, t=128, status="error: boom"),
            ReportRow(
                seed=0, t=256, mse_fit=1.0, expected_bound=2.0,
                expected_bound_alt=3.0, bound_valid=True,
            ),
        ]
        path = tmp_path / "report.csv"
        write_report(path, rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(REPORT_COLUMNS)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        documented = re.search(r"stable column\s+order: `([^`]+)`", readme).group(1)
        assert lines[0] == "".join(documented.split())
        cells = [line.split(",") for line in lines[1:]]
        col = {name: i for i, name in enumerate(REPORT_COLUMNS)}
        assert cells[0][col["expected_bound"]] == "invalid"
        assert cells[0][col["expected_bound_alt"]] == "invalid"
        assert cells[1][col["expected_bound"]] == ""
        assert cells[1][col["status"]] == "error: boom"
        assert cells[2][col["expected_bound"]] == "2.0"
        assert cells[2][col["bound_valid"]] == "yes"

    def test_write_outputs_reproducible(self, tmp_path):
        config = dataclasses.replace(TINY, output_dir=str(tmp_path / "run"))
        out = write_outputs(run_experiment(config))
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "bound_seed0.csv",
            "ledger_seed0.txt",
            "mse_seed0.csv",
            "report.csv",
        ]
        snapshot = {p.name: p.read_text() for p in out.iterdir()}
        write_outputs(run_experiment(config))
        assert {p.name: p.read_text() for p in out.iterdir()} == snapshot

    def test_curve_files_mirror_rows(self, tmp_path):
        result = run_experiment(dataclasses.replace(TINY, output_dir=str(tmp_path / "run")))
        out = write_outputs(result)
        rows = result.outcomes[0].rows
        mse_lines = (out / "mse_seed0.csv").read_text().strip().split("\n")
        assert mse_lines[0] == "t,mse"
        assert mse_lines[1:] == [f"{r.t},{render_cell(r.mse_fit)}" for r in rows]
        bound_lines = (out / "bound_seed0.csv").read_text().strip().split("\n")
        assert bound_lines[0] == "t,bound"
        for row, line in zip(rows, bound_lines[1:]):
            want = render_cell(row.expected_bound) if row.bound_valid else "invalid"
            assert line == f"{row.t},{want}"
        ledger_text = (out / "ledger_seed0.txt").read_text()
        assert ledger_text.startswith("constant ledger")


class TestSweepStatistics:
    def test_all_cells_fit(self, medium_result):
        assert all(row.status == "ok" for row in medium_result.rows)
        assert medium_result.violations == ()

    def test_median_error_decreases_along_sweep(self, medium_result):
        sweep = medium_result.config.t_sweep
        by_t = {
            t: [o.rows[i].mse_fit for o in medium_result.outcomes]
            for i, t in enumerate(sweep)
        }
        medians = [float(np.median(by_t[t])) for t in sweep]
        assert all(b < a for a, b in zip(medians, medians[1:]))

    def test_oracle_beats_fits_cell_by_cell(self, medium_result):
        # paired on a shared test trajectory, so the oracle's edge is far
        # above the Monte Carlo noise at these sample sizes
        for outcome in medium_result.outcomes:
            for row in outcome.rows:
                if row.t <= 1024:
                    assert row.mse_oracle <= row.mse_fit

    def test_errors_sit_above_innovation_floor(self, medium_result):
        for outcome in medium_result.outcomes:
            floor = outcome.ledger.inputs.e_power_sq
            for row in outcome.rows:
                assert row.mse_oracle >= 0.95 * floor
                assert row.mse_fit >= 0.9 * floor
