"""Record what the standard redar commands print, return and write.

    python scripts/output_contract.py OUT_DIR

Runs a fixed list of ``redar`` commands (generate, experiment, bound and
fit, on seeds 0 and 3, and one fit at lag order 16) against the ``src``
tree of the checkout this script sits in, one after another, with
OUT_DIR as the working directory, so every file a command writes lands
in OUT_DIR.  Command ``NN-name`` also leaves ``NN-name.cmd`` (its
arguments), ``NN-name.stdout``, ``NN-name.exit`` (its exit code) and
``NN-name.stderr``, in which the path of that ``src`` tree reads
``<src>``.

To check that a change keeps every output, run the script from each of
two checkouts into its own directory and compare them with ``diff -r``.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def commands() -> list[tuple[str, list[str]]]:
    """(name, redar arguments) in run order; later commands read the
    loops and datasets that ``generate`` writes."""
    out = [
        ("generate", ["generate", "--seeds", "0,3", "--data", "--samples", "3000",
                      "--out-dir", "loops"]),
        ("experiment-small", ["experiment", "--seeds", "0,1,2", "--t-sweep", "256,1024,4096",
                              "--test-length", "2000", "--rho-grid", "16",
                              "--envelope-grid", "256", "--hinf-grid", "512",
                              "--output-dir", "experiment-small"]),
        ("experiment", ["experiment", "--seeds", "0,1", "--output-dir", "experiment"]),
    ]
    for seed in (0, 3):
        loop = f"loops/loop_seed{seed}.txt"
        out += [
            (f"bound-files-seed{seed}", ["bound", "--loop", loop, "--t", "256,4096,1048576",
                                         "--out", f"bound_seed{seed}.csv",
                                         "--ledger", f"ledger_seed{seed}.txt"]),
            (f"bound-stdout-seed{seed}", ["bound", "--loop", loop, "--t", "4096,256,65536,256"]),
            (f"fit-data-seed{seed}", ["fit", "--data", f"loops/loop_data_seed{seed}.csv",
                                      "--out", f"fit_data_seed{seed}.txt"]),
        ]
    return out + [
        ("fit-loop", ["fit", "--loop", "loops/loop_seed3.txt", "--out", "fit_loop.txt"]),
        ("fit-loop-p6", ["fit", "--loop", "loops/loop_seed3.txt", "--p", "6", "--phi", "0.1",
                         "--out", "fit_loop_p6.txt"]),
        ("fit-data-p16", ["fit", "--data", "loops/loop_data_seed0.csv", "--p", "16",
                          "--phi", "0.01", "--out", "fit_data_p16.txt"]),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out_dir", type=Path, help="empty or new directory for the outputs")
    out = ap.parse_args().out_dir
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        ap.error(f"{out} is not empty")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for i, (name, argv) in enumerate(commands()):
        stem = out / f"{i:02d}-{name}"
        run = subprocess.run(
            [sys.executable, "-m", "redar", *argv], cwd=out, env=env, capture_output=True, text=True
        )
        stem.with_suffix(".cmd").write_text(" ".join(argv) + "\n")
        stem.with_suffix(".stdout").write_text(run.stdout)
        stem.with_suffix(".stderr").write_text(run.stderr.replace(str(SRC), "<src>"))
        stem.with_suffix(".exit").write_text(f"{run.returncode}\n")
        print(f"{stem.name}: exit {run.returncode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
