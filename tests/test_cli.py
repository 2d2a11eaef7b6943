import numpy as np
import pytest

import redar.experiments
import redar.kalman
from redar import (
    REPORT_COLUMNS,
    ClosedLoop,
    Dataset,
    Dims,
    GenerationFailed,
    IdentifiedModel,
    MomentSet,
    Unstable,
    fit_redar,
    load_dataset_csv,
    load_model,
    random_closed_loop,
    save_dataset_csv,
    save_model,
    simulate,
)
from redar.cli import BOUND_COLUMNS, main
from redar.serialize import dumps_model

TINY_EXPERIMENT = [
    "--n-x", "2", "--n-u", "1", "--n-y", "1", "--p", "2",
    "--t-sweep", "64,128", "--test-length", "256", "--seeds", "0",
    "--hinf-grid", "64", "--envelope-grid", "64", "--rho-grid", "8",
    "--t0-candidates", "4", "--quiet",
]


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def loop_file(tmp_path, siso_loop):
    path = tmp_path / "loop.txt"
    save_model(path, siso_loop)
    return path


@pytest.fixture()
def mild_file(tmp_path, mild_loop):
    path = tmp_path / "mild.txt"
    save_model(path, mild_loop)
    return path


class TestGenerate:
    def test_writes_one_model_per_seed(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--seeds", "0,3", "--n-x", "2", "--n-u", "1", "--n-y", "1",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        for seed in (0, 3):
            path = tmp_path / f"loop_seed{seed}.txt"
            assert isinstance(load_model(path), ClosedLoop)
            assert f"seed {seed}: closed-loop spectral radius = " in out
            assert f"seed {seed}: joint noise floor xi = " in out

    def test_matches_library_sampling(self, tmp_path):
        run_cli(
            "generate", "--seeds", "5", "--n-x", "2", "--n-u", "1", "--n-y", "1",
            "--spectral-target", "0.6", "--out-dir", str(tmp_path), "--prefix", "sys",
        )
        cl = random_closed_loop(
            Dims(2, 1, 1), 0.6, seed=np.random.SeedSequence([5, 0]), noise_floor=0.05
        )
        assert (tmp_path / "sys_seed5.txt").read_text() == dumps_model(cl)

    def test_reruns_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            run_cli(
                "generate", "--seeds", "1", "--n-x", "2", "--n-u", "1", "--n-y", "1",
                "--out-dir", str(tmp_path / sub),
            )
        assert (tmp_path / "a" / "loop_seed1.txt").read_text() == (
            tmp_path / "b" / "loop_seed1.txt"
        ).read_text()

    def test_data_flag_writes_trajectory(self, tmp_path):
        code = run_cli(
            "generate", "--seeds", "0", "--n-x", "2", "--n-u", "1", "--n-y", "1",
            "--out-dir", str(tmp_path), "--data", "--samples", "200",
        )
        assert code == 0
        ds = load_dataset_csv(tmp_path / "loop_data_seed0.csv", p=1)
        assert ds.z.shape == (200, 2)

    def test_generation_failure_exit_code(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--seeds", "0", "--n-x", "2", "--n-u", "1", "--n-y", "1",
            "--noise-floor", "1e9", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "generation failed" in capsys.readouterr().err

    def test_bad_seed_list(self, tmp_path):
        assert run_cli("generate", "--seeds", "x", "--out-dir", str(tmp_path)) == 4
        assert run_cli("generate", "--seeds", ",", "--out-dir", str(tmp_path)) == 4


class TestFit:
    def test_csv_mode_matches_library(self, tmp_path, siso_loop):
        traj = simulate(siso_loop, 300, seed=np.random.SeedSequence([11, 1]))
        data = tmp_path / "data.csv"
        save_dataset_csv(data, Dataset.from_signals(traj.u, traj.y, p=2))
        out = tmp_path / "model.txt"
        code = run_cli(
            "fit", "--data", str(data), "--p", "2", "--alpha", "1.0",
            "--phi", "0.05", "--out", str(out),
        )
        assert code == 0
        fit = fit_redar(load_dataset_csv(data, p=2), 1.0, 0.05)
        assert out.read_text() == dumps_model(fit.model)
        assert isinstance(load_model(out), IdentifiedModel)

    def test_csv_mode_reports_training_error(self, tmp_path, siso_loop, capsys):
        traj = simulate(siso_loop, 300, seed=np.random.SeedSequence([11, 1]))
        data = tmp_path / "data.csv"
        save_dataset_csv(data, Dataset.from_signals(traj.u, traj.y, p=2))
        run_cli("fit", "--data", str(data), "--p", "2", "--out", str(tmp_path / "m.txt"))
        out = capsys.readouterr().out
        assert "training mse = " in out
        assert "reduced order = " in out
        assert "test mse" not in out

    def test_loop_mode_follows_split_protocol(self, tmp_path, loop_file, siso_loop, capsys):
        out = tmp_path / "model.txt"
        code = run_cli(
            "fit", "--loop", str(loop_file), "--train-t", "256", "--test-t", "512",
            "--seed", "7", "--p", "2", "--out", str(out),
        )
        assert code == 0
        assert "test mse = " in capsys.readouterr().out
        train = simulate(siso_loop, 256 + 2, seed=np.random.SeedSequence([7, 1]))
        fit = fit_redar(Dataset.from_signals(train.u, train.y, p=2), 1.0, 0.05)
        assert out.read_text() == dumps_model(fit.model)

    def test_loop_mode_deterministic(self, tmp_path, loop_file):
        outs = []
        for name in ("m1.txt", "m2.txt"):
            path = tmp_path / name
            run_cli(
                "fit", "--loop", str(loop_file), "--train-t", "128", "--test-t", "64",
                "--p", "2", "--out", str(path),
            )
            outs.append(path.read_text())
        assert outs[0] == outs[1]

    def test_requires_exactly_one_source(self, tmp_path, loop_file):
        out = str(tmp_path / "m.txt")
        assert run_cli("fit", "--out", out) == 4
        assert run_cli(
            "fit", "--data", "x.csv", "--loop", str(loop_file), "--out", out
        ) == 4

    def test_loop_file_must_hold_a_loop(self, tmp_path, capsys):
        model_file = tmp_path / "ident.txt"
        save_model(
            model_file,
            IdentifiedModel(a=[[0.5]], b=[[1.0]], c=[[1.0]], k=[[0.1]], d=[[0.0]]),
        )
        code = run_cli("fit", "--loop", str(model_file), "--out", str(tmp_path / "m.txt"))
        assert code == 4
        assert "closed-loop" in capsys.readouterr().err

    def test_corrupted_loop_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("redar-model 1\ntype innovation\nmatrix a 1 1\noops\n")
        code = run_cli("fit", "--loop", str(bad), "--out", str(tmp_path / "m.txt"))
        assert code == 4
        assert "line 4" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path):
        code = run_cli(
            "fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.txt")
        )
        assert code == 4


class TestBound:
    def test_table_and_ledger_files(self, tmp_path, mild_file, capsys):
        table = tmp_path / "table.csv"
        ledger = tmp_path / "ledger.txt"
        code = run_cli(
            "bound", "--loop", str(mild_file), "--p", "2", "--alpha", "50",
            "--t", "64,32768", "--rho-grid", "8", "--envelope-grid", "64",
            "--hinf-grid", "64", "--out", str(table), "--ledger", str(ledger),
        )
        assert code == 0
        lines = table.read_text().strip().split("\n")
        assert lines[0] == ",".join(BOUND_COLUMNS)
        first = dict(zip(BOUND_COLUMNS, lines[1].split(",")))
        last = dict(zip(BOUND_COLUMNS, lines[2].split(",")))
        assert first["t"] == "64" and first["bound_valid"] == "no"
        assert first["expected_bound"] == "invalid"
        assert float(first["hinf_bound"]) > 0.0  # model-error bound needs no threshold
        assert last["bound_valid"] == "yes"
        assert float(last["expected_bound"]) > 0.0
        assert last["small_deviation_branch"] in ("yes", "no")
        assert ledger.read_text().startswith("constant ledger")
        assert "t0 = " in capsys.readouterr().out

    def test_prints_to_stdout_without_out_flags(self, mild_file, capsys):
        code = run_cli(
            "bound", "--loop", str(mild_file), "--p", "2", "--alpha", "50",
            "--t", "32768", "--rho-grid", "8", "--envelope-grid", "64",
            "--hinf-grid", "64",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert ",".join(BOUND_COLUMNS) in out
        assert "constant ledger" in out

    def test_deterministic_table(self, tmp_path, mild_file):
        texts = []
        for name in ("t1.csv", "t2.csv"):
            path = tmp_path / name
            run_cli(
                "bound", "--loop", str(mild_file), "--p", "2", "--alpha", "50",
                "--t", "512,32768", "--rho-grid", "8", "--envelope-grid", "64",
                "--hinf-grid", "64", "--out", str(path), "--ledger", str(tmp_path / "l.txt"),
            )
            texts.append(path.read_text())
        assert texts[0] == texts[1]

    def test_sample_sizes_below_memory(self, mild_file):
        assert run_cli("bound", "--loop", str(mild_file), "--p", "4", "--t", "2") == 4

    def test_empty_sample_list(self, mild_file):
        assert run_cli("bound", "--loop", str(mild_file), "--t", ",") == 4

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--hinf-grid", "0"),
            ("--envelope-grid", "0"),
            ("--rho-grid", "0"),
            ("--theta", "2"),
            ("--p", "0"),
            ("--alpha", "-1"),
            ("--t", "64,x"),
        ],
    )
    def test_out_of_range_flag_is_a_schema_error(self, mild_file, flag, value):
        args = {"--t": "64", "--rho-grid": "8", "--envelope-grid": "64", "--hinf-grid": "64"}
        args[flag] = value
        flat = [tok for item in args.items() for tok in item]
        assert run_cli("bound", "--loop", str(mild_file), *flat) == 4

    def test_wrong_model_type(self, tmp_path):
        path = tmp_path / "ident.txt"
        save_model(path, IdentifiedModel(a=[[0.5]], b=[[1.0]], c=[[1.0]], k=[[0.1]], d=[[0.0]]))
        assert run_cli("bound", "--loop", str(path), "--t", "64") == 4


class TestExperiment:
    def test_tiny_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = run_cli("experiment", *TINY_EXPERIMENT, "--output-dir", str(out_dir))
        assert code == 0
        assert "report" in capsys.readouterr().out
        report = (out_dir / "report.csv").read_text().strip().split("\n")
        assert len(report) == 3  # header plus one row per sweep point
        assert (out_dir / "ledger_seed0.txt").exists()
        assert (out_dir / "bound_seed0.csv").exists()
        assert (out_dir / "mse_seed0.csv").exists()

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "n_x = 2\nn_u = 1\nn_y = 1\np = 2\nt_sweep = 64\ntest_length = 256\n"
            "seeds = 0\nhinf_grid = 64\nenvelope_grid = 64\nrho_grid = 8\n"
            f"t0_candidates = 4\noutput_dir = {tmp_path / 'from_config'}\n"
        )
        flag_dir = tmp_path / "from_flag"
        code = run_cli(
            "experiment", "--config", str(config), "--quiet",
            "--t-sweep", "64,128", "--output-dir", str(flag_dir),
        )
        assert code == 0
        assert not (tmp_path / "from_config").exists()
        report = (flag_dir / "report.csv").read_text().strip().split("\n")
        assert len(report) == 3

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("bogus = 1\n")
        assert run_cli("experiment", "--config", str(config), "--quiet") == 4
        assert "bogus" in capsys.readouterr().err

    def test_bad_flag_value(self):
        assert run_cli("experiment", "--quiet", "--p", "four") == 4

    def test_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        from redar import BoundInputs, build_ledger
        from redar.experiments import (
            ExperimentResult,
            ReportRow,
            SeedOutcome,
            config_from_mapping,
            find_violations,
        )

        inputs = BoundInputs(1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1, 1, 1, 1.0, 0.0)
        row = ReportRow(
            seed=0, t=64, mse_fit=3.0, expected_bound=2.0, bound_valid=True,
            ledger_ref="ledger_seed0.txt",
        )
        outcome = SeedOutcome(
            seed=0, inputs=inputs, ledger=build_ledger(inputs, 10.0),
            mse_oracle=1.0, rows=(row,),
        )

        def fake_run(config, log=None):
            return ExperimentResult(
                config=config, outcomes=(outcome,), violations=find_violations([row])
            )

        monkeypatch.setattr("redar.cli.run_experiment", fake_run)
        code = run_cli("experiment", "--quiet", "--output-dir", str(tmp_path / "v"))
        assert code == 2
        assert "bound violated" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "error, code", [(GenerationFailed("no loop"), 3), (np.linalg.LinAlgError("singular"), 1)]
    )
    def test_failed_seed_keeps_the_others(self, tmp_path, monkeypatch, capsys, error, code):
        real = redar.experiments.random_closed_loop

        def flaky(dims, target, seed, **kwargs):
            if seed.entropy[0] == 1:
                raise error
            return real(dims, target, seed=seed, **kwargs)

        monkeypatch.setattr("redar.experiments.random_closed_loop", flaky)
        out_dir = tmp_path / "results"
        argv = [*TINY_EXPERIMENT, "--seeds", "0,1", "--output-dir", str(out_dir)]
        assert run_cli("experiment", *argv) == code
        assert str(error) in capsys.readouterr().err
        lines = (out_dir / "report.csv").read_text().strip().split("\n")[1:]
        assert [tuple(line.split(",")[:3]) for line in lines] == [
            ("0", "64", "ok"),
            ("0", "128", "ok"),
            ("1", "64", f"error: {error}"),
            ("1", "128", f"error: {error}"),
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "bound_seed0.csv",
            "ledger_seed0.txt",
            "mse_seed0.csv",
            "report.csv",
        ]

    @pytest.mark.parametrize("cause, code", [("retries", 3), ("indefinite", 1)])
    def test_error_rows_stay_one_csv_line(self, tmp_path, monkeypatch, capsys, cause, code):
        # running out of retries names the seed's SeedSequence, whose text
        # spans lines; the oracle's lag covariance message holds a comma
        if cause == "retries":

            def never(*args):
                raise Unstable("closed loop not stable")

            monkeypatch.setattr("redar.systems.random_innovation_model", never)
        else:
            real = redar.kalman.exact_moments

            def indefinite(cl, p):
                m = real(cl, p)
                return MomentSet(r=m.r, q=-m.q, n=m.n, p=p)

            monkeypatch.setattr("redar.kalman.exact_moments", indefinite)
        out_dir = tmp_path / "results"
        argv = [*TINY_EXPERIMENT, "--seeds", "0,1", "--output-dir", str(out_dir)]
        assert run_cli("experiment", *argv) == code
        lines = (out_dir / "report.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(REPORT_COLUMNS)
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:2] for row in rows] == [["0", "64"], ["0", "128"], ["1", "64"], ["1", "128"]]
        for row in rows:
            assert len(row) == len(REPORT_COLUMNS)
            assert row[2].startswith("error: ")


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("bogus")
        assert exc.value.code == 4

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate")
        assert exc.value.code == 4

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 4
