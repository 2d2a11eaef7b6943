"""redar benchmark: one workload, one caller, closed loop.

    python3 perfbench/run.py --workload {sweep,bound,order_select} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One caller issues the next op only when the previous
one has returned.  Every op's output is checked outside the timed
region.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report and an ``env`` block.

``--trace 0`` measures the end-to-end metrics; op time is gated in
yardsticks timed beside the ops (see ``yardstick.py``).  ``--trace 1`` runs every
op twice, untraced and with timing wrappers on every public function of
the layers, in alternating order, and reports the per-layer metrics and
the tracing overhead.  Each per-layer value covers one traced set-up
plus one pass over the workload's cycle of ops.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: with two threads on a
# two-core machine, repeated identical runs differ by up to 1.8x.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

# glibc raises its mmap threshold each time a large array is freed, so how
# much heap a run keeps depends on the order of its allocations: the same
# order_select ops peaked at 175 MB in some runs and 195 MB in others.  A
# fixed threshold (glibc's initial 128 KiB) makes the peak repeat.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 128 * 1024


def pin_mmap_threshold() -> str:
    """Fix glibc's mmap threshold; say what was done, for the env line."""
    name = ctypes.util.find_library("c")
    try:
        libc = ctypes.CDLL(name)
        done = name is not None and libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
    except (OSError, AttributeError):
        done = False
    return f"{MMAP_THRESHOLD_BYTES} B" if done else "default (mallopt unavailable)"


MMAP_THRESHOLD = pin_mmap_threshold()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Op time between two timings of the yardstick; ops longer than this get
# a yardstick on each side of their own.
YARDSTICK_EVERY_S = 0.2
# The highest percentile reported as the tail has this many ops beyond it.
TAIL_BEYOND = 10

# Per-layer metrics: (metric name, traced function, field of its totals, unit).
LAYER_METRICS = (
    ("bounds.optimize_envelope.self_s", "bounds.optimize_envelope", "self_s", "s"),
    ("bounds.gain_envelope.self_s", "bounds.gain_envelope", "self_s", "s"),
    ("bounds.gain_envelope.calls", "bounds.gain_envelope", "calls", "count"),
    ("linalg.frequency_response.points", "linalg.frequency_response", "work", "count"),
    ("linalg.hinf_norm.self_s", "linalg.hinf_norm", "self_s", "s"),
    ("linalg.hinf_norm.calls", "linalg.hinf_norm", "calls", "count"),
    ("linalg.peak_gain.self_s", "linalg.peak_gain", "self_s", "s"),
    ("linalg.hankel_singular_values.self_s", "linalg.hankel_singular_values", "self_s", "s"),
    ("realization.run_predictor.self_s", "realization.run_predictor", "self_s", "s"),
    ("realization.run_predictor.samples", "realization.run_predictor", "work", "count"),
    ("systems.simulate.self_s", "systems.simulate", "self_s", "s"),
    ("systems.simulate.samples", "systems.simulate", "work", "count"),
    ("varx.fit_varx.self_s", "varx.fit_varx", "self_s", "s"),
    ("varx.build_regressors.self_s", "varx.build_regressors", "self_s", "s"),
    ("varx.regressor_bytes", "varx.build_regressors", "work", "B"),
    ("linalg.balanced_truncate.self_s", "linalg.balanced_truncate", "self_s", "s"),
    ("realization.fit_redar.self_s", "realization.fit_redar", "self_s", "s"),
    ("linalg.solve_discrete_lyapunov.self_s", "linalg.solve_discrete_lyapunov", "self_s", "s"),
    ("linalg.solve_discrete_lyapunov.calls", "linalg.solve_discrete_lyapunov", "calls", "count"),
    ("systems.signal_powers.self_s", "systems.signal_powers", "self_s", "s"),
    ("kalman.finite_horizon_predictor.self_s", "kalman.finite_horizon_predictor", "self_s", "s"),
    ("bounds.select_ledger.self_s", "bounds.select_ledger", "self_s", "s"),
    ("experiments.run_seed.self_s", "experiments.run_seed", "self_s", "s"),
    ("serialize.save_dataset_csv.self_s", "serialize.save_dataset_csv", "self_s", "s"),
    ("serialize.load_dataset_csv.self_s", "serialize.load_dataset_csv", "self_s", "s"),
)


def import_redar() -> float:
    """Import the package from the checkout's ``src``; return seconds taken."""
    if not (SRC / "redar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'redar'}; run from a redar source checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import redar  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(redar.__file__).resolve().parent != (SRC / "redar").resolve():
        sys.exit(f"perfbench: imported redar from {redar.__file__}, not from {SRC}")
    return elapsed


def environment() -> dict:
    """Versions, BLAS, cores and load: where the numbers were measured."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "redar").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "malloc_mmap_threshold": MMAP_THRESHOLD,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": read_loadavg(),
    }


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


class Runner:
    """Issues ops, times them, checks them and counts failures."""

    def __init__(self, workload, seed: int, workdir: Path):
        from redar.errors import RedarError

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.redar_error = RedarError
        self.attempted = 0
        self.failed = 0
        self.max_drift: float | None = None
        self.failures: list[str] = []
        self.by_spec: dict[str, list[float]] = {}

    def setup(self) -> float:
        """Build the inputs and run one untimed warm-up op; return seconds."""
        start = time.perf_counter()
        self.workload.setup(self.seed, self.workdir)
        self.workload.run(self.workload.warmup_spec())
        return time.perf_counter() - start

    def op(self, index: int, tracer=None) -> float | None:
        """Issue op ``index`` of the cycle; its wall time, or None if it failed."""
        spec = self.workload.cycle[index % len(self.workload.cycle)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.run(spec)
            else:
                with tracer.op(index):
                    out = self.workload.run(spec)
        except self.redar_error as exc:
            self.fail(f"op {index}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        failures, moved = self.workload.verify(spec, out)
        if moved is not None:
            self.max_drift = moved if self.max_drift is None else max(self.max_drift, moved)
        if failures:
            self.fail(f"op {index}: " + "; ".join(failures[:3]))
            return None
        self.by_spec.setdefault(self.workload.key(spec), []).append(elapsed)
        return elapsed

    def per_spec_medians(self) -> dict[str, float]:
        return {k: round(statistics.median(v), 4) for k, v in self.by_spec.items()}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def loop(self, seconds: float, yardstick) -> tuple[list[float], dict[str, list[float]], list[float]]:
        """Issue whole passes over the cycle, at least one, and stop at the
        pass end nearest to ``seconds`` of op time.  Whole passes give
        every op of the cycle the same number of repeats.

        The yardstick is timed before the first op and after every
        ``YARDSTICK_EVERY_S`` of op time.  Returns the op times, each op's
        times over the mean of the two yardsticks around them keyed by op,
        and the yardstick times."""
        times: list[float] = []
        ratios: dict[str, list[float]] = {}
        yards = [yardstick.time()]
        group: list[tuple[str, float]] = []
        busy, index, passes, timed_before_pass = 0.0, 0, 0, 0
        cycle = self.workload.cycle
        while True:
            key = self.workload.key(cycle[index % len(cycle)])
            elapsed = self.op(index)
            index += 1
            if elapsed is not None:
                times.append(elapsed)
                group.append((key, elapsed))
                busy += elapsed
            if group and (
                sum(t for _, t in group) >= YARDSTICK_EVERY_S or index % len(cycle) == 0
            ):
                yards.append(yardstick.time())
                reference = 0.5 * (yards[-2] + yards[-1])
                for k, t in group:
                    ratios.setdefault(k, []).append(t / reference)
                group = []
            if index % len(cycle) == 0:
                passes += 1
                # A pass whose ops all failed adds no op time; stop there.
                if len(times) == timed_before_pass or busy + 0.5 * busy / passes >= seconds:
                    break
                timed_before_pass = len(times)
        return times, ratios, yards


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times: list[float]) -> tuple[float, float] | None:
    """(q, value): the highest percentile q with TAIL_BEYOND ops beyond
    it, and the op time there; None when the run has too few ops."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def end_to_end(runner: Runner, seconds: float, import_s: float, report: list[str]) -> dict:
    from yardstick import Yardstick

    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    report.append(
        f"setup: import {import_s:.4f} s, set-ups {[round(s, 4) for s in setups]} s, "
        f"peak RSS after set-up {peak_rss_mb():.1f} MB"
    )
    yardstick = Yardstick(runner.workload.YARDSTICK)
    yardstick.time()
    times, ratios, yards = runner.loop(seconds, yardstick)
    metrics = {"setup_s": (import_s + statistics.median(setups), "s")}
    if times:
        # Gated: op time in yardsticks (see yardstick.py), the median of
        # each op's repeats, then the geometric mean over the ops of the
        # cycle.  Every op counts, where a median over all ops would sit in
        # one cluster of a cycle whose ops differ in size.  The op time in
        # seconds and the throughput carry the host's load and are
        # reported beside it.
        per_op = {k: statistics.median(v) for k, v in ratios.items()}
        metrics["op_gmean_rel"] = (statistics.geometric_mean(per_op.values()), "ratio")
        report.append(
            "op time in yardsticks per op of the cycle: "
            f"{ {k: round(v, 3) for k, v in per_op.items()} }"
        )
        report.append(f"op_p50_s: {statistics.median(times)!r} s over {len(times)} ops")
        report.append(f"ops_per_s: {len(times) / sum(times)!r} 1/s")
        report.append(
            f"yardstick ({', '.join(runner.workload.YARDSTICK)}): median "
            f"{statistics.median(yards):.6f} s, fastest {min(yards):.6f} s, "
            f"slowest {max(yards):.6f} s over {len(yards)} timings"
        )
        tail_value = tail(times)
        if tail_value is None:
            report.append(f"op_tail_s: not reported, {len(times)} ops <= {TAIL_BEYOND}")
        else:
            report.append(
                f"op_tail_s: p{tail_value[0]:.1f} = {tail_value[1]:.6f} s over {len(times)} ops"
            )
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    report.append(f"ops timed: {len(times)}, timed wall {sum(times):.3f} s")
    report.append(f"op_p50_s per op of the cycle: {runner.per_spec_medians()}")
    return metrics


def per_layer(runner: Runner, seconds: float, report: list[str], trace_path: Path) -> dict:
    from bench_trace import Tracer

    tracer = Tracer()
    with tracer.installed(), tracer.op(-1):
        runner.workload.setup(runner.seed, runner.workdir)
    runner.workload.run(runner.workload.cycle[0])
    # Each op runs twice, untraced and traced, in alternating order, so
    # that the overhead compares like with like on a machine whose speed
    # drifts.  Whole passes over the cycle only.
    cycle = len(runner.workload.cycle)
    ratios: list[float] = []
    traced: list[float] = []
    busy, index, timed_before_pass = 0.0, 0, 0
    while index == 0 or busy < seconds or index % cycle:
        times = {}
        for with_trace in (index % 2 == 1, index % 2 == 0):
            if with_trace:
                with tracer.installed():
                    times[with_trace] = runner.op(index, tracer)
            else:
                times[with_trace] = runner.op(index)
        index += 1
        if None not in times.values():
            ratios.append(times[True] / times[False])
            traced.append(times[True])
            busy += times[True] + times[False]
        if index % cycle == 0:
            # A pass whose ops all failed adds no op time; stop there.
            if len(ratios) == timed_before_pass:
                break
            timed_before_pass = len(ratios)
    tracer.write(trace_path)
    cycles = index // cycle
    setup_totals = tracer.totals([-1])
    first_cycle = tracer.totals(range(cycle))
    all_cycles = tracer.totals(range(cycles * cycle))
    metrics = {}
    for metric, fn, field, unit in LAYER_METRICS:
        if field in ("calls", "work"):
            value = sum(t.get(fn, {}).get(field, 0) for t in (setup_totals, first_cycle))
        else:
            per_cycle = all_cycles.get(fn, {}).get(field, 0.0) / cycles
            value = setup_totals.get(fn, {}).get(field, 0.0) + per_cycle
        metrics[metric] = (value, unit)
    overhead = 100.0 * (statistics.median(ratios) - 1.0) if ratios else float("nan")
    metrics["trace.overhead_pct"] = (overhead, "%")
    op_total = sum(traced[: cycles * cycle]) / cycles
    report.append(
        f"traced: {cycles} cycle(s) of {cycle} ops, {op_total:.4f} s per cycle, "
        f"overhead {overhead:+.2f}% (median over {len(ratios)} ops of traced / untraced "
        f"time of the same op); spans in {trace_path}"
    )
    report.append("share of op time per cycle, inclusive | self (all traced functions):")
    ranked = sorted(all_cycles.items(), key=lambda kv: -kv[1]["incl_s"])
    for fn, row in ranked[:20] if op_total > 0 else ():
        report.append(
            f"  {fn:40s} {100 * row['incl_s'] / cycles / op_total:6.2f}% | "
            f"{100 * row['self_s'] / cycles / op_total:6.2f}%  calls/cycle "
            f"{row['calls'] // cycles}"
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: small ops, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    import_s = import_redar()
    env = environment()
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    # The suite silences the same warning: the lag covariance floor is a
    # documented property of the loops, not a fault of a run.
    from redar import CovarianceFloorWarning

    warnings.simplefilter("ignore", CovarianceFloorWarning)
    workload = WORKLOADS[args.workload](args.size)

    WORKDIR.mkdir(exist_ok=True)
    report = [f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}"]
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        runner = Runner(workload, args.seed, Path(tmp))
        if args.trace:
            trace_path = WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl"
            metrics = per_layer(runner, args.seconds, report, trace_path)
        else:
            metrics = end_to_end(runner, args.seconds, import_s, report)
    env["loadavg_end"] = read_loadavg()

    report.append(f"cycle: {[workload.key(s) for s in workload.cycle]}")
    ratio = runner.failed / runner.attempted if runner.attempted else float("nan")
    report.append(
        f"ops_failed_ratio: {ratio:.6g} ({runner.failed} failed of {runner.attempted} attempted)"
    )
    for message in runner.failures[:10]:
        report.append(f"  FAILED {message}")
    if runner.max_drift is not None:
        report.append(
            f"bound-side drift from reference (informational): max relative {runner.max_drift:.3e}"
        )
    for name, (value, unit) in metrics.items():
        report.append(f"{name} = {value!r} {unit}")
    print("\n".join(report))
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
