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
