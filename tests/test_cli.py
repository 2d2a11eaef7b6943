import argparse
import contextlib
import dataclasses
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redar.experiments
import redar.kalman
from redar import (
    REPORT_COLUMNS,
    ClosedLoop,
    CovarianceFloorWarning,
    Dataset,
    Dims,
    GenerationFailed,
    IdentifiedModel,
    MomentSet,
    Unstable,
    bound_cells,
    bound_inputs,
    fit_redar,
    least_ledger,
    load_dataset_csv,
    load_model,
    random_closed_loop,
    save_dataset_csv,
    save_model,
    simulate,
)
from redar.cli import BOUND_COLUMNS, build_parser, main
from redar.experiments import ExperimentConfig, parse_field
from redar.serialize import dumps_model

TINY_EXPERIMENT = [
    "--n-x", "2", "--n-u", "1", "--n-y", "1", "--p", "2",
    "--t-sweep", "64,128", "--test-length", "256", "--seeds", "0",
    "--hinf-grid", "64", "--envelope-grid", "64", "--rho-grid", "8", "--quiet",
]


def run_cli(*argv) -> int:
    return main(list(argv))


def run_in_process(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``main(argv)``, with every warning
    but CovarianceFloorWarning (which run_seed raises by design) raised as
    an error; a usage error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", CovarianceFloorWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, err):
    """Exit 0 with a clean stderr, or exit 1 to 4 with one error line:
    a redar: line, or argparse's usage and error lines."""
    assert code in range(5)
    lines = err.splitlines()
    if code == 0:
        assert err == ""
    else:
        assert [line.startswith("redar") for line in lines] == [False] * (len(lines) - 1) + [True]
        assert lines[-1].startswith("redar: ") or (code == 4 and lines[0].startswith("usage: "))


def sizes(low, high):
    return st.integers(low, high).map(str)


def size_lists(low, high, max_size):
    """Up to ``max_size`` distinct sizes, comma-separated in increasing order."""
    return st.lists(st.integers(low, high), min_size=1, max_size=max_size, unique=True).map(
        lambda values: ",".join(map(str, sorted(values)))
    )


# each flag's valid and invalid values (capped so that a run takes well
# under a second); the valid ones may still clash, as train_t < p does
LOOP_SETTINGS = {
    "p": (sizes(1, 8), st.sampled_from(["0", "-1", "x", "1.5", "nan"])),
    "alpha": (
        st.floats(1e-3, 1e3) | st.floats(1e-300, 1e300),
        st.sampled_from([math.nan, math.inf, 0.0, -1.0, "x"]),
    ),
    "phi": (
        st.floats(0.0, 10.0) | st.sampled_from([0.0, 1e-12, 1e300]),
        st.sampled_from([math.nan, math.inf, -1.0]),
    ),
    "burn-in": (sizes(0, 10**4) | st.just("none"), st.sampled_from(["-1", "x", "1.5"])),
}
SIZE_FAULTS = st.sampled_from(["", "x", "1.5", "nan", "-3", "0"])


@st.composite
def flag_values(draw, flags):
    """``--flag=value`` arguments: each flag absent or valid, and half the
    time one flag set to one of its invalid values."""
    values = {flag: draw(st.none() | valid) for flag, (valid, _) in flags.items()}
    broken = draw(st.none() | st.sampled_from(sorted(flags)))
    if broken is not None:
        values[broken] = draw(flags[broken][1])
    return [f"--{flag}={value}" for flag, value in values.items() if value is not None]


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

    def test_generation_failure_is_one_stderr_line(self, tmp_path, capsys):
        # the loop's seed is a SeedSequence, named by entropy and spawn key
        code = run_cli("generate", "--seeds", "1", "--noise-floor", "1e100",
                       "--out-dir", str(tmp_path))
        assert code == 3
        assert capsys.readouterr().err == (
            "redar: generation failed: no admissible system after 100 attempts "
            "(seed entropy [1, 0], spawn key ())\n"
        )

    def test_bad_seed_list(self, tmp_path):
        assert run_cli("generate", "--seeds", "x", "--out-dir", str(tmp_path)) == 4
        assert run_cli("generate", "--seeds", ",", "--out-dir", str(tmp_path)) == 4

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(-2, 10**6).map(str) | st.sampled_from(["", "x", "1.5", str(2**70)]),
            min_size=1,
            max_size=2,
        ).map(",".join),
        dims=st.tuples(*[st.none() | st.integers(0, 4)] * 3),
        spectral_target=st.none()
        | st.floats(0.0, 1.0)
        | st.sampled_from([math.nan, math.inf, -0.5, 1.5]),
        noise_floor=st.none()
        | st.floats(1e-6, 10.0)
        | st.sampled_from([math.nan, math.inf, 1e100, 0.0, -1.0]),
        burn_in=st.none() | st.integers(-10, 10**4),
    )
    def test_flag_values_end_with_an_exit_code(
        self, seeds, dims, spectral_target, noise_floor, burn_in
    ):
        # in process: no traceback, no warning, and at most one redar: line
        names = ("n-x", "n-u", "n-y", "spectral-target", "noise-floor", "burn-in")
        values = (*dims, spectral_target, noise_floor, burn_in)
        argv = [f"--seeds={seeds}"]
        argv += [f"--{name}={value!r}" for name, value in zip(names, values) if value is not None]
        with tempfile.TemporaryDirectory() as tmp:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(["generate", *argv, f"--out-dir={tmp}"])
        assert code in (0, 3, 4)
        if code == 0:
            assert err.getvalue() == "" and "wrote closed loop to " in out.getvalue()
        else:
            assert err.getvalue().startswith("redar: ") and err.getvalue().count("\n") == 1


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

    def test_data_mode_ignores_the_split_lengths(self, tmp_path, siso_loop, capsys):
        # --train-t and --test-t only size the simulated split of --loop
        traj = simulate(siso_loop, 300, seed=np.random.SeedSequence([11, 1]))
        data = tmp_path / "data.csv"
        save_dataset_csv(data, Dataset.from_signals(traj.u, traj.y, p=2))
        out = tmp_path / "m.txt"
        argv = ["fit", "--data", str(data), "--p", "2", "--out", str(out)]
        assert run_cli(*argv, "--train-t", "1", "--test-t", "1") == 0
        fit = fit_redar(load_dataset_csv(data, 2), 1.0, 0.05)
        assert out.read_text() == dumps_model(fit.model)
        assert run_cli(*argv, "--p", "400") == 1
        err = capsys.readouterr().err
        assert err.startswith("redar: ") and "--train-t" not in err

    def test_singular_normal_equations_exit_with_one_line(self, tmp_path, capsys):
        # u2 repeats u1 up to 1e-9, so Q_T + (alpha / T) I is singular at alpha = 1e-14
        rng = np.random.default_rng(0)
        u1 = rng.standard_normal(2000)
        u = np.column_stack([u1, u1 + 1e-9 * rng.standard_normal(2000)])
        data = tmp_path / "data.csv"
        save_dataset_csv(data, Dataset.from_signals(u, rng.standard_normal((2000, 2)), p=1))
        out = tmp_path / "m.txt"
        assert run_cli("fit", "--data", str(data), "--alpha", "1e-14", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("redar: Q + ridge I is not positive definite (lambda_min(")
        assert err.count("\n") == 1 and "ridge = 5.010020e-18" in err
        assert not out.exists()

    def test_overflowing_moments_exit_with_one_line(self, tmp_path, capsys):
        # every entry is finite, but the lag products overflow double precision
        rng = np.random.default_rng(0)
        data = tmp_path / "data.csv"
        save_dataset_csv(data, Dataset(z=rng.standard_normal((200, 2)) * 1e160, p=1, n_u=1, n_y=1))
        out = tmp_path / "m.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("fit", "--data", str(data), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("redar: the moments Q + ridge I and N are not finite")
        assert err.count("\n") == 1 and "overflow" in err
        assert not out.exists()

    @settings(max_examples=30, deadline=None)
    @given(
        flag_values(
            {
                **LOOP_SETTINGS,
                "train-t": (sizes(1, 2048), SIZE_FAULTS),
                "test-t": (sizes(1, 2048), SIZE_FAULTS),
                "seed": (sizes(0, 2**64), st.sampled_from(["-1", "x", "1.5"])),
            }
        )
    )
    # phi = 0 keeps roundoff-level states that leave the reduced predictor unstable
    @example(argv=["--alpha=0.5", "--phi=0.0", "--seed=1"])
    def test_flag_values_end_with_an_exit_code(self, seed0_file, argv):
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "m.txt"
            code, out, err = run_in_process(
                ["fit", f"--loop={seed0_file}", *argv, f"--out={model}"]
            )
            assert_one_error_line(code, err)
            assert (code == 0) == model.exists()
        assert code != 0 or "test mse = " in out

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

    def test_each_row_shows_the_k_of_its_cell(self, mild_file, capsys):
        # below t0* a row shows the least ledger's k, above it its own
        assert run_cli("bound", "--loop", str(mild_file), "--p", "2", "--alpha", "50",
                       "--t", "4096,65536") == 0
        lines = capsys.readouterr().out.split("\n")
        start = lines.index(",".join(BOUND_COLUMNS)) + 1
        rows = [dict(zip(BOUND_COLUMNS, line.split(","))) for line in lines[start : start + 2]]
        config = ExperimentConfig()
        inputs = bound_inputs(load_model(mild_file), 2, 50.0, config.phi, n_rho=config.rho_grid)
        least = least_ledger(inputs)
        assert rows[0]["t"] == "4096" and rows[0]["bound_valid"] == "no"
        assert rows[0]["k"] == repr(least.k)
        assert rows[1]["t"] == "65536" and rows[1]["bound_valid"] == "yes"
        assert rows[1]["k"] == repr(bound_cells(inputs, config.theta, 65536).k) != rows[0]["k"]
        assert lines[-2] == f"t0 = {least.t0!r}"

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


@pytest.fixture(scope="module")
def seed0_file(tmp_path_factory):
    # the loop that `redar generate --seeds 0` writes
    path = tmp_path_factory.mktemp("loops") / "loop_seed0.txt"
    save_model(path, redar.experiments.seed_loop(ExperimentConfig(), 0))
    return path


def run_bound(loop, argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``redar bound`` on ``loop`` at
    --rho-grid 8, in process, with every warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bound", f"--loop={loop}", "--rho-grid=8", *argv])
    return code, out.getvalue(), err.getvalue()


def assert_ends_cleanly(code, out, err):
    """Exit 0 with a table of finite or infinite cells, or exit 1 to 4
    with one redar: line and no traceback."""
    assert code in range(5)
    if code == 0:
        assert err == ""
        lines = out.split("\n")
        start = lines.index(",".join(BOUND_COLUMNS)) + 1
        end = lines.index("constant ledger")
        for line in lines[start:end]:
            cells = dict(zip(BOUND_COLUMNS, line.split(",")))
            for name in ("expected_bound", "expected_bound_alt", "hinf_bound", "delta"):
                if cells[name] != "invalid":
                    assert not math.isnan(float(cells[name])), line
    else:
        assert err.startswith("redar: ") and err.count("\n") == 1


class TestBoundEdges:
    # huge sample sizes: T^2.5 and (2 J^2 T / alpha)^2 leave the float
    # range in the ledger, and a T past it cannot become a float
    @pytest.mark.parametrize(
        "argv, code",
        [
            ([f"--t=4,{10**130}"], 0),
            ([f"--t=4,{10**300}"], 0),
            ([f"--t=4,{10**400}"], 4),
        ],
    )
    def test_huge_sample_sizes(self, seed0_file, argv, code):
        result = run_bound(seed0_file, argv)
        assert result[0] == code
        assert_ends_cleanly(*result)

    # alpha so far from unit scale that a ledger constant, or the least
    # threshold, leaves the floating-point range
    @pytest.mark.parametrize("alpha", ["1e-200", "1e-80", "1e155", "1e200"])
    @pytest.mark.parametrize("t", ["64", f"64,{10**300}"])
    def test_alpha_out_of_float_range_exits_1(self, seed0_file, alpha, t):
        code, out, err = run_bound(seed0_file, [f"--t={t}", f"--alpha={alpha}"])
        assert code == 1 and out == ""
        assert err.startswith("redar: ledger constants leave the floating-point range")
        assert err.count("\n") == 1

    @settings(max_examples=200)
    @given(
        t=st.lists(
            st.integers(0, 10**6).map(str)
            | st.integers(0, 10**400).map(str)
            | st.sampled_from(["", " ", "x", "1.5", "-3", "1e3", "nan"]),
            min_size=1,
            max_size=3,
        ).map(",".join),
        p=st.integers(1, 8),
        alpha=st.none()
        | st.floats(1e-3, 1e3)
        | st.floats(1e-300, 1e300)
        | st.sampled_from([math.nan, math.inf, 0.0, -1.0]),
        phi=st.none() | st.floats(0.0, 10.0) | st.sampled_from([math.nan, math.inf, -1.0, 1e300]),
        theta=st.none() | st.floats(0.01, 0.99) | st.sampled_from([math.nan, 0.0, 1.0, 1.5]),
    )
    @example(t=f"4,{10**130}", p=4, alpha=None, phi=None, theta=None)
    @example(t=f"4,{10**400}", p=4, alpha=None, phi=None, theta=None)
    @example(t="64", p=4, alpha=1e200, phi=None, theta=None)
    @example(t="64", p=4, alpha=1e-200, phi=None, theta=None)
    def test_flag_values_end_with_an_exit_code(self, seed0_file, t, p, alpha, phi, theta):
        argv = [f"--t={t}", f"--p={p}"]
        flags = {"alpha": alpha, "phi": phi, "theta": theta}
        argv += [f"--{flag}={value!r}" for flag, value in flags.items() if value is not None]
        assert_ends_cleanly(*run_bound(seed0_file, argv))

    def test_t0_target_is_an_unknown_flag(self, seed0_file, capsys):
        # every cell uses its own ledger: no target steers the choice
        with pytest.raises(SystemExit) as exc:
            run_cli("bound", "--loop", str(seed0_file), "--t", "64", "--t0-target", "1e6")
        assert exc.value.code == 4
        err = capsys.readouterr().err.splitlines()
        assert [line.startswith("usage: ") for line in err] == [True, False]
        assert err[1].endswith("unrecognized arguments: --t0-target 1e6")


class TestExperiment:
    def test_empty_output_dir_exits_4_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # an empty directory name would otherwise mean the working directory
        monkeypatch.chdir(tmp_path)
        assert run_cli("experiment", *TINY_EXPERIMENT, "--output-dir", "") == 4
        assert capsys.readouterr().err == "redar: --output-dir must be nonempty\n"
        assert not any(tmp_path.iterdir())

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

    @settings(max_examples=30, deadline=None)
    @given(
        flag_values(
            {
                **LOOP_SETTINGS,
                "seeds": (size_lists(0, 10**6, 2), st.sampled_from(["", "x", "-1", "1,1"])),
                **{
                    dim: (sizes(1, 4), st.sampled_from(["0", "x"]))
                    for dim in ("n-x", "n-u", "n-y")
                },
                "spectral-target": (
                    st.floats(0.01, 0.99), st.sampled_from([math.nan, math.inf, 0.0, 1.0])
                ),
                "noise-floor": (
                    st.floats(1e-6, 0.1) | st.just(1e100), st.sampled_from([math.nan, 0.0, -1.0])
                ),
                "t-sweep": (
                    size_lists(1, 2048, 3), st.sampled_from(["", "x", "64,32", "0", "1.5"])
                ),
                "test-length": (sizes(1, 2048), SIZE_FAULTS),
                "theta": (st.floats(0.01, 0.99), st.sampled_from([math.nan, 0.0, 1.0, 1.5])),
                "rho-grid": (sizes(8, 64), st.sampled_from(["7", "-1", "x"])),
            }
        )
    )
    @example(argv=["--phi=0.0", "--seeds=0", "--t-sweep=256,2048", "--test-length=2048"])
    def test_flag_values_end_with_an_exit_code(self, argv):
        # the defaults (five seeds, a sweep up to 16,384, 10,000 test
        # samples) would take seconds a case
        given = {arg.split("=")[0] for arg in argv}
        defaults = ["--t-sweep=64,256", "--test-length=512", "--seeds=0"]
        argv = argv + [arg for arg in defaults if arg.split("=")[0] not in given]
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "results"
            code, _, err = run_in_process(
                ["experiment", *argv, f"--output-dir={out_dir}", "--quiet"]
            )
            assert_one_error_line(code, err)
            assert (code == 4) != (out_dir / "report.csv").exists()

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "n_x = 2\nn_u = 1\nn_y = 1\np = 2\nt_sweep = 64\ntest_length = 256\n"
            "seeds = 0\nhinf_grid = 64\nenvelope_grid = 64\nrho_grid = 8\n"
            f"output_dir = {tmp_path / 'from_config'}\n"
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

    # t0_candidates was a setting once; each cell's sample size is now its candidate
    @pytest.mark.parametrize("key", ["bogus", "t0_candidates"])
    def test_unknown_config_key(self, tmp_path, capsys, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = 1\n")
        assert run_cli("experiment", "--config", str(config), "--quiet") == 4
        assert capsys.readouterr().err == f"redar: unknown configuration key {key!r}\n"

    def test_bad_flag_value(self):
        assert run_cli("experiment", "--quiet", "--p", "four") == 4

    def test_failed_generation_is_one_stderr_line(self, tmp_path, capsys):
        code = run_cli("experiment", *TINY_EXPERIMENT, "--noise-floor", "1e200",
                       "--output-dir", str(tmp_path / "results"))
        assert code == 3
        assert capsys.readouterr().err == (
            "redar: 1 seed(s) failed, first: no admissible system after 100 attempts "
            "(seed entropy [0, 0], spawn key ())\n"
        )

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
        outcome = SeedOutcome(seed=0, ledger=build_ledger(inputs, 10.0), rows=(row,))

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
                return MomentSet(r=m.r, q=-m.q, n=m.n)

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


# (command, flag, value): every setting is range-checked before any file
# is read or written
BAD_SETTINGS = [
    ("generate", "--n-x", "0"),
    ("generate", "--spectral-target", "1.5"),
    ("generate", "--burn-in", "-2"),
    ("generate", "--noise-floor", "-1"),
    ("generate", "--noise-floor", "nan"),
    ("generate", "--seeds", "-1"),
    ("generate", "--seeds", "0,0"),
    ("fit", "--phi", "-1"),
    ("fit", "--phi", "nan"),
    ("fit", "--alpha", "0"),
    ("fit", "--p", "0"),
    ("fit", "--train-t", "3"),
    ("fit", "--test-t", "2"),
    ("fit", "--burn-in", "-1"),
    ("fit", "--seed", "-1"),
    ("fit --data", "--p", "0"),
    ("fit --data", "--alpha", "0"),
    ("bound", "--phi", "nan"),
    ("bound", "--alpha", "inf"),
    ("bound", "--t", f"4,{10**400}"),
    ("experiment", "--phi", "nan"),
    ("experiment", "--alpha", "nan"),
    ("experiment", "--seeds", "-1"),
    ("experiment", "--seeds", "0,0"),
]


def settings_argv(tmp_path, loop_file, siso_loop, command) -> list[str]:
    """A run of ``command`` that writes to tmp_path/out (and
    tmp_path/ledger.txt), for a flag and value to be appended."""
    out, ledger, data = tmp_path / "out", tmp_path / "ledger.txt", tmp_path / "data.csv"
    traj = simulate(siso_loop, 300, seed=np.random.SeedSequence([11, 1]))
    save_dataset_csv(data, Dataset.from_signals(traj.u, traj.y, p=1))
    split = ["--train-t", "64", "--test-t", "64", "--out", str(out)]
    return {
        "generate": ["generate", "--data", "--samples", "64", "--out-dir", str(out)],
        "fit": ["fit", "--loop", str(loop_file), *split],
        "fit --data": ["fit", "--data", str(data), *split],
        "bound": [
            "bound", "--loop", str(loop_file), "--t", "64", "--rho-grid", "8",
            "--out", str(out), "--ledger", str(ledger),
        ],
        "experiment": ["experiment", *TINY_EXPERIMENT, "--output-dir", str(out)],
    }[command]


class TestSettings:
    @pytest.mark.parametrize("command, flag, value", BAD_SETTINGS)
    def test_bad_setting_exits_4_and_writes_nothing(
        self, tmp_path, loop_file, siso_loop, capsys, command, flag, value
    ):
        argv = settings_argv(tmp_path, loop_file, siso_loop, command)
        assert run_cli(*argv, flag, value) == 4
        err = capsys.readouterr().err
        assert err.startswith("redar: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "ledger.txt").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("fit", "--train-t", "3"),
            ("fit", "--test-t", "4"),
            ("fit", "--seed", "-1"),
            ("fit --data", "--p", "0"),
            ("bound", "--t", "2"),
            ("bound", "--t", "64,x"),
            ("bound", "--t", ","),
            ("bound", "--t", f"4,{10**400}"),
            ("generate", "--n-y", "0"),
            ("experiment", "--alpha", "nan"),
            ("experiment", "--seeds", "0,0"),
            ("generate", "--seeds", "0,0"),
        ],
    )
    def test_message_names_the_flag(
        self, tmp_path, loop_file, siso_loop, capsys, command, flag, value
    ):
        argv = settings_argv(tmp_path, loop_file, siso_loop, command)
        assert run_cli(*argv, flag, value) == 4
        assert capsys.readouterr().err.startswith(f"redar: {flag} ")

    def test_burn_in_help_says_what_none_means(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command in ("generate", "fit", "experiment"):
            action = next(a for a in sub.choices[command]._actions if a.dest == "burn_in")
            assert "none means ceil(10 / (1 - rho(A)))" in action.help

    def test_config_flags_come_from_experiment_config(self):
        # a flag named after an ExperimentConfig field is parsed and checked
        # there: it must be a plain string flag that defaults to None, with
        # its help naming the value the command uses when it is absent
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        commands = set()
        for command, parser in sub.choices.items():
            for action in parser._actions:
                if action.dest not in names:
                    continue
                commands.add(command)
                assert action.default is None and action.type is None, (command, action.dest)
                shown = parse_field(action.dest, action.help.rsplit("default ", 1)[1])
                base = (0,) if (command, action.dest) == ("generate", "seeds") else None
                assert shown == (base or getattr(ExperimentConfig, action.dest))
        assert commands == {"generate", "fit", "bound", "experiment"}


class TestInputFiles:
    # (case, line the message must name): each file breaks a model's own
    # check, which is a schema error at a line of the file
    @pytest.mark.parametrize(
        "case, line", [("loop nan", 4), ("loop psi", 4), ("loop short b", 4), ("data nan", 5)]
    )
    def test_file_failing_a_model_check_exits_4_with_its_line(
        self, tmp_path, dynamic_loop, capsys, case, line
    ):
        lines = dumps_model(dynamic_loop).split("\n")
        assert lines[3] == "type innovation" and lines[8] == "matrix b 3 2"
        assert lines[19] == "matrix psi 2 2"
        if case == "loop nan":
            lines[5] = "nan " + lines[5].split(" ", 1)[1]
        elif case == "loop psi":
            lines[20:22] = ["1.0 0.0", "0.0 -1.0"]
        elif case == "loop short b":
            lines[8] = "matrix b 2 2"
            del lines[11]
        else:
            row = "0.1,0.2,0.3,0.4"
            lines = ["u1,u2,y1,y2", row, "", "", "nan,0.2,0.3,0.4"] + [row] * 10
        path = tmp_path / "input"
        path.write_text("\n".join(lines))
        source = "--data" if case == "data nan" else "--loop"
        assert run_cli("fit", source, str(path), "--out", str(tmp_path / "m.txt")) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"redar: line {line}: ") and err.count("\n") == 1

    # well formed, but a loop matrix derived from the plant and controller
    # overflows: in A (and B_e, C_z), or in C_z alone while A stays stable
    @pytest.mark.parametrize(
        "entries, name",
        [
            ({"b": 1e200, "d1f": 1e200}, "A"),
            ({"b": 0.0, "b1f": 0.0, "c": 1e200, "d1f": 1e200}, "C_z"),
        ],
    )
    def test_loop_file_whose_loop_overflows_exits_4(self, seed0_file, tmp_path, entries, name):
        lines = seed0_file.read_text().split("\n")
        for i, line in enumerate(lines):
            words = line.split()
            if words[:1] == ["matrix"] and words[1] in entries:
                rows, cols = int(words[2]), int(words[3])
                lines[i + 1 : i + 1 + rows] = [" ".join([repr(entries[words[1]])] * cols)] * rows
        path = tmp_path / "loop.txt"
        path.write_text("\n".join(lines))
        code, _, err = run_in_process(["fit", f"--loop={path}", f"--out={tmp_path / 'm.txt'}"])
        assert code == 4
        assert err == f"redar: line 2: closed-loop model: {name} contains non-finite entries\n"

    def test_unstable_loop_file_exits_1_at_assembly(self, tmp_path, mild_loop, capsys):
        # well formed, but the loop's spectral radius is within the
        # stability margin of 1
        lines = dumps_model(mild_loop).split("\n")
        assert lines[4:6] == ["matrix a 1 1", "0.3"]
        lines[5] = "0.9999999995"
        path = tmp_path / "loop.txt"
        path.write_text("\n".join(lines))
        assert run_cli("bound", "--loop", str(path), "--t", "64") == 1
        assert capsys.readouterr().err == "redar: closed-loop spectral radius is 0.9999999995\n"


@st.composite
def malformed_csv(draw):
    """(p, CSV text): random channels at scales 1e-300..1e300, maybe constant
    or collinear, maybe shorter than p + 1 rows, with up to two rows
    broken by a NaN or infinite token or a wrong column count."""
    n_u, n_y, p = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 4))
    n_z = n_u + n_y
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([0, -300, -160, -30, 30, 150, 155, 160, 300]))
    short = draw(st.sampled_from([False, False, False, True]))
    length = draw(st.integers(0, p) if short else st.integers(p + 1, 60))
    z = rng.standard_normal((length, n_z)) * scale
    channels = draw(st.sampled_from(["random", "constant", "collinear"]))
    if channels == "constant":
        z[:, draw(st.integers(0, n_z - 1))] = scale
    elif channels == "collinear":
        z[:, -1] = -0.5 * z[:, 0]
    rows = [[repr(float(v)) for v in row] for row in z]
    for _ in range(draw(st.integers(0, 2)) if len(rows) else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(["nan", "inf", "-inf", "extra column", "missing column"]))
        if fault == "extra column":
            row.append("0.0")
        elif fault == "missing column":
            row.pop()
        else:
            row[draw(st.integers(0, n_z - 1))] = fault
    header = [f"u{i + 1}" for i in range(n_u)] + [f"y{i + 1}" for i in range(n_y)]
    return p, "\n".join(",".join(row) for row in [header, *rows]) + "\n"


class TestMalformedData:
    @settings(max_examples=100)
    @given(malformed_csv())
    def test_fit_data_ends_with_an_exit_code(self, case):
        # in process: no traceback, no warning, and at most one redar: line
        p, text = case
        with tempfile.TemporaryDirectory() as tmp:
            data, out = Path(tmp) / "data.csv", Path(tmp) / "m.txt"
            data.write_text(text)
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(["fit", "--data", str(data), "--p", str(p), "--out", str(out)])
            assert code in range(5)
            err = stderr.getvalue()
            if code == 0:
                assert err == "" and out.exists()
            else:
                assert err.startswith("redar: ") and err.count("\n") == 1
                assert not out.exists()


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
