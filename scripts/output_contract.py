"""Record what the standard redar commands print, return and write.

    python scripts/output_contract.py OUT_DIR
    python scripts/output_contract.py --compare DIR_A DIR_B [--rtol R]

Runs a fixed list of ``redar`` commands (generate, experiment, bound and
fit, on seeds 0 and 3, one bound whose cells are all valid, one fit
at lag order 16 and one generate that fails) against the ``src`` tree
of the checkout this script sits in, one after another, with OUT_DIR as
the working directory, so every file a command writes lands in OUT_DIR.
Command ``NN-name`` also leaves ``NN-name.cmd`` (its arguments),
``NN-name.stdout``, ``NN-name.exit`` (its exit code) and
``NN-name.stderr``, in which the path of that ``src`` tree reads
``<src>``.

To check that a change keeps every output, run the script from each of
two checkouts into its own directory and compare the two with
``--compare``.  It exits 0 when both hold the same files and every
number that differs (a CSV cell, or a number in any other text) agrees
within relative tolerance R, whose default 0 asks for byte-identical
files.  Otherwise it lists each missing file, each text difference and
each number beyond R, with its place and relative gap, and exits 1.
Each file whose differing numbers all lie within R gets one line: how
many numbers moved, the largest relative gap and where it is.
"""

import argparse
import os
import re
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
        # seed 0's t0* is 2.6e11: every cell is valid and uses its own ledger
        ("bound-valid-cells", ["bound", "--loop", "loops/loop_seed0.txt", "--t",
                               "1000000000000,10000000000000000,100000000000000000000"]),
        ("fit-loop", ["fit", "--loop", "loops/loop_seed3.txt", "--out", "fit_loop.txt"]),
        ("fit-loop-p6", ["fit", "--loop", "loops/loop_seed3.txt", "--p", "6", "--phi", "0.1",
                         "--out", "fit_loop_p6.txt"]),
        ("fit-data-p16", ["fit", "--data", "loops/loop_data_seed0.csv", "--p", "16",
                          "--phi", "0.01", "--out", "fit_data_p16.txt"]),
        # no loop clears the noise floor: exit 3 and one stderr line
        ("generate-fail", ["generate", "--seeds", "1", "--noise-floor", "1e100",
                           "--out-dir", "loops-fail"]),
    ]


# a decimal number, optionally signed, with an optional exponent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def relative_gap(a: str, b: str) -> float:
    x, y = float(a), float(b)
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def compare_lines(name: str, lines_a: list[str], lines_b: list[str]):
    """(place, text_a, text_b, gap) for each difference between two files.

    CSV files are compared cell by cell, other text number by number
    around text that must match; gap is the relative gap of two numbers,
    or None where text differs.
    """
    if len(lines_a) != len(lines_b):
        yield "line count", str(len(lines_a)), str(len(lines_b)), None
        return
    header = lines_a[0].split(",") if name.endswith(".csv") and lines_a else None
    for i, (a, b) in enumerate(zip(lines_a, lines_b), start=1):
        if a == b:
            continue
        if header is not None:
            xs, ys = a.split(","), b.split(",")
            same_text = len(xs) == len(ys)
            places = [f"line {i}, column {header[k] if k < len(header) else k + 1}"
                      for k in range(len(xs))]
        else:
            xs, ys = NUMBER.findall(a), NUMBER.findall(b)
            same_text = NUMBER.sub("#", a) == NUMBER.sub("#", b)
            places = [f"line {i}, number {k}" for k in range(1, len(xs) + 1)]
        if not same_text:
            yield f"line {i}", a, b, None
            continue
        for place, x, y in zip(places, xs, ys):
            if x != y:
                numeric = NUMBER.fullmatch(x) and NUMBER.fullmatch(y)
                yield place, x, y, relative_gap(x, y) if numeric else None


def compare(dir_a: Path, dir_b: Path, rtol: float) -> int:
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    failed, within, worst = set(), 0, 0.0
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {dir_a if rel in files_a else dir_b}")
        failed.add(rel)
    for rel in sorted(files_a & files_b):
        raw_a, raw_b = (d.joinpath(rel).read_bytes() for d in (dir_a, dir_b))
        if raw_a == raw_b:
            continue
        lines_a, lines_b = raw_a.decode().splitlines(), raw_b.decode().splitlines()
        moved, largest = 0, (0.0, "")
        for place, x, y, gap in compare_lines(rel.name, lines_a, lines_b):
            if rtol > 0 and gap is not None and gap <= rtol:
                moved += 1
                if gap > largest[0]:
                    largest = (gap, place)
                continue
            failed.add(rel)
            what = "text differs" if gap is None else f"relative gap {gap:.3g}"
            print(f"{rel}: {place}: {x!r} vs {y!r}: {what}")
        if lines_a == lines_b:
            print(f"{rel}: line endings differ")
            failed.add(rel)
        if moved and rel not in failed:
            print(f"{rel}: {moved} numbers moved within rtol {rtol:g}, "
                  f"largest relative gap {largest[0]:.3g} at {largest[1]}")
        within, worst = within + moved, max(worst, largest[0])
    print(
        f"{len(files_a | files_b)} files, {len(failed)} differ beyond rtol {rtol:g}; "
        f"{within} numbers differ within it (largest relative gap {worst:.3g})"
    )
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out_dir", type=Path, nargs="?", help="empty or new directory for the outputs")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                    help="compare two recorded directories instead of recording one")
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="relative tolerance for numbers under --compare (default 0: identical)")
    args = ap.parse_args()
    if args.compare:
        if args.out_dir is not None or not args.rtol >= 0:
            ap.error("--compare takes two directories and a nonnegative --rtol, no OUT_DIR")
        return compare(*args.compare, args.rtol)
    if args.out_dir is None:
        ap.error("give OUT_DIR, or --compare DIR_A DIR_B")
    out = args.out_dir
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
