"""The study scripts import cleanly against the current public names."""

import importlib.util
from pathlib import Path

import pytest

from redar import GenerationFailed

SCRIPTS = sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


def load_script(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_and_has_main(path):
    assert callable(load_script(path).main)


def test_sweep_study_exits_nonzero_on_failed_seed(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise GenerationFailed("no loop")

    monkeypatch.setattr("redar.experiments.random_closed_loop", never)
    out_dir = tmp_path / "sweep"
    argv = ["sweep_study.py", "--variants", "1", "--output-dir", str(out_dir)]
    monkeypatch.setattr("sys.argv", argv)
    study = load_script(next(p for p in SCRIPTS if p.name == "sweep_study.py"))
    assert study.main() == 3
    assert (out_dir / "report.csv").exists()


class TestOutputContractCompare:
    REPORT = "seed,t,mse_fit,hinf_actual\n0,256,0.5,0.125\n0,1024,0.25,0.0625\n"

    @staticmethod
    def write(root, files):
        for name, text in files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return root

    def run(self, a, b, capsys, monkeypatch, *rtol):
        contract = load_script(next(p for p in SCRIPTS if p.name == "output_contract.py"))
        argv = ["output_contract.py", "--compare", str(a), str(b), *rtol]
        monkeypatch.setattr("sys.argv", argv)
        code = contract.main()
        return code, capsys.readouterr().out

    def dirs(self, tmp_path, changes):
        base = {
            "experiment/report.csv": self.REPORT,
            "01-fit.stdout": "reduced order 5, test mse 0.123456789\n",
            "01-fit.exit": "0\n",
        }
        a = self.write(tmp_path / "a", base)
        b = self.write(tmp_path / "b", {**base, **changes})
        return a, b

    def test_identical_directories_pass(self, tmp_path, capsys, monkeypatch):
        a, b = self.dirs(tmp_path, {})
        code, out = self.run(a, b, capsys, monkeypatch)
        assert code == 0
        assert "0 differ" in out

    def test_csv_cell_within_and_beyond_the_tolerance(self, tmp_path, capsys, monkeypatch):
        moved = self.REPORT.replace("0.0625", repr(0.0625 * (1 + 1e-12)))
        a, b = self.dirs(tmp_path, {"experiment/report.csv": moved})
        code, out = self.run(a, b, capsys, monkeypatch)
        assert code == 1
        assert "report.csv: line 3, column hinf_actual" in out
        assert "relative gap 1e-12" in out
        code, out = self.run(a, b, capsys, monkeypatch, "--rtol", "1e-9")
        assert code == 0
        assert "1 numbers differ within it (largest relative gap 1e-12)" in out

    def test_drift_within_the_tolerance_is_summarised_per_file(
        self, tmp_path, capsys, monkeypatch
    ):
        report = self.REPORT.replace("0.125", repr(0.125 * (1 + 1e-12)))
        report = report.replace("0.0625", repr(0.0625 * (1 - 3e-12)))
        fit = "reduced order 5, test mse 0.1235\n"
        a, b = self.dirs(tmp_path, {"experiment/report.csv": report, "01-fit.stdout": fit})
        code, out = self.run(a, b, capsys, monkeypatch, "--rtol", "1e-9")
        assert code == 1
        # one line for the file that moved within the tolerance, none for
        # the file with a number beyond it
        lines = [line for line in out.splitlines() if "moved within" in line]
        assert lines == [
            "experiment/report.csv: 2 numbers moved within rtol 1e-09, "
            "largest relative gap 3e-12 at line 3, column hinf_actual"
        ]
        assert "01-fit.stdout: line 1, number 2" in out
        assert "2 numbers differ within it (largest relative gap 3e-12)" in out

    def test_number_in_text_beyond_the_tolerance(self, tmp_path, capsys, monkeypatch):
        a, b = self.dirs(tmp_path, {"01-fit.stdout": "reduced order 5, test mse 0.1235\n"})
        code, out = self.run(a, b, capsys, monkeypatch, "--rtol", "1e-9")
        assert code == 1
        assert "01-fit.stdout: line 1, number 2: '0.123456789' vs '0.1235'" in out

    @pytest.mark.parametrize(
        "changes",
        [
            {"01-fit.stdout": "reduced order 5; test mse 0.123456789\n"},
            {"01-fit.stdout": "reduced order 5, test mse 0.123456789"},
            {"experiment/report.csv": REPORT.replace("0.125", "invalid")},
            {"experiment/report.csv": REPORT + "1,256,0.5,0.125\n"},
            {"extra.txt": "\n"},
        ],
        ids=["text", "trailing-newline", "csv-text-cell", "csv-row-count", "extra-file"],
    )
    def test_any_other_difference_fails(self, tmp_path, capsys, monkeypatch, changes):
        a, b = self.dirs(tmp_path, changes)
        code, out = self.run(a, b, capsys, monkeypatch, "--rtol", "1")
        assert code == 1
        assert "1 differ beyond rtol" in out
