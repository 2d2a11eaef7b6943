"""The benchmark's three workloads and the checks on their outputs.

Each workload draws a fixed list of ops (its cycle) from the run seed at
set-up; the runner then issues the ops in turn, one at a time.  Inputs
come from fixed pools of loop seeds so that every op has a pinned
reference in ``reference.json``, generated from the code by
``make_reference.py``.

* ``sweep``: ``run_seed(ExperimentConfig(), s)``, the ``redar
  experiment`` path, for 4 loop seeds drawn from a pool of 16.
* ``bound``: the ``redar bound`` path (bound inputs, ledger, both bounds
  at T = 2^8 .. 2^20) for 4 loops of each of three sizes, drawn from
  pools of 8, the sizes taking turns.
* ``order_select``: ridge fits on one loop's 2^17 training samples,
  read back from CSV, at 3 lag orders times 3 reduction budgets, each
  scored on a 4096-sample hold-out.

Checks run outside the timed region.  Data-path values must match the
reference to ``RTOL``; bound-side values are checked by invariants only,
and their drift from the reference is reported without failing the op.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from redar import bounds, experiments, kalman, linalg, realization, serialize, systems, varx

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Data-path values against the reference.  Looser than the 1e-6
# tolerance of hinf_norm, so that two correct H-infinity kernels agree.
RTOL = 1e-5
# Two evaluations of one quantity by different code paths in one run.
CROSS_RTOL = 1e-7
# Slack for invariants that hold exactly in exact arithmetic.
ROUNDOFF = 1e-9

SPECTRAL_TARGET = 0.7
NOISE_FLOOR = 0.05
ALPHA = 1.0


def pick(seed: int, pool, count: int) -> list:
    """``count`` distinct pool entries, fixed by ``seed``."""
    order = np.random.default_rng(seed).permutation(len(pool))[:count]
    return [pool[i] for i in order]


def loop_for(dims, loop_seed: int):
    """The closed loop ``run_seed`` samples for a seed, at any size."""
    return systems.random_closed_loop(
        dims,
        SPECTRAL_TARGET,
        seed=np.random.SeedSequence([loop_seed, 0]),
        noise_floor=NOISE_FLOOR,
    )


def dense_peak(sys, n_points: int, radius: float = 1.0) -> float:
    """Largest singular value of ``sys`` over ``n_points`` evenly spaced
    points of the circle |z| = radius: a lower bound on its peak there.
    Evaluated in chunks so that the check's memory stays below the op's."""
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    peak = 0.0
    for chunk in np.array_split(theta, max(1, n_points // 1024)):
        h = linalg.frequency_response(sys, radius * np.exp(1j * chunk))
        peak = max(peak, float(np.linalg.svd(h, compute_uv=False)[:, 0].max()))
    return peak


def mismatches(got, want, where: str = "", rtol: float = RTOL) -> list[str]:
    """Differences between a record and its reference.

    Floats compare to ``rtol`` relative; lists of numbers compare as
    arrays with an absolute slack of ``rtol`` times their largest entry;
    integers, booleans and None compare exactly.
    """
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}", rtol)]
    if isinstance(want, list) and want and isinstance(want[0], dict):
        if len(got) != len(want):
            return [f"{where}: {len(got)} entries != {len(want)}"]
        return [
            m
            for i, (g, w) in enumerate(zip(got, want))
            for m in mismatches(g, w, f"{where}[{i}]", rtol)
        ]
    if isinstance(want, (list, np.ndarray)):
        # None (a bound cell below its validity threshold) reads as NaN
        # and must sit at the same place in both.
        g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if g.shape != w.shape:
            return [f"{where}: shape {g.shape} != {w.shape}"]
        finite = np.abs(w[np.isfinite(w)])
        scale = float(finite.max()) if finite.size else 0.0
        if not np.allclose(g, w, rtol=rtol, atol=rtol * scale, equal_nan=True):
            return [f"{where}: max abs difference {float(np.max(np.abs(g - w))):.3e}"]
        return []
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=rtol, abs_tol=0.0):
            return []
        return [f"{where}: {got!r} != reference {want!r}"]
    if got != want or type(got) is not type(want):
        return [f"{where}: {got!r} != reference {want!r}"]
    return []


def drift(got, want) -> float:
    """Largest relative difference between matching floats of two records."""
    if isinstance(want, dict):
        return max((drift(got.get(k), v) for k, v in want.items()), default=0.0)
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return max((drift(g, w) for g, w in zip(got, want)), default=0.0)
    if isinstance(want, float) and isinstance(got, float):
        if got == want:
            return 0.0
        return abs(got - want) / max(abs(got), abs(want))
    return 0.0 if got == want else math.inf


class Workload:
    """One workload: ``setup`` fixes the cycle of ops, ``run`` issues one,
    ``record`` reduces its output to the values pinned in the reference
    and ``check`` returns (failures, bound-side drift or None)."""

    name = ""
    SIZES: dict[str, dict] = {}
    # The yardstick parts timed beside this workload's ops; perfbench/README.md
    # gives the traces and runs they were chosen from.
    YARDSTICK = ("python", "linalg")

    def __init__(self, size: str = "full", reference: dict | None = None):
        self.size = size
        self.params = self.SIZES[size]
        if reference is None:
            reference = json.loads(REFERENCE_PATH.read_text())
        self.reference = reference.get(self.name, {}).get(size, {})
        self.cycle: list = []
        self.verified: dict[str, dict] = {}

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self, spec):
        raise NotImplementedError

    def record(self, spec, out) -> dict:
        raise NotImplementedError

    def check(self, spec, out) -> tuple[list[str], float | None]:
        raise NotImplementedError

    def key(self, spec) -> str:
        return str(spec)

    def warmup_spec(self):
        """The op run untimed at the end of each set-up."""
        return self.cycle[0]

    def verify(self, spec, out) -> tuple[list[str], float | None]:
        """``check`` on the first output of each op; a repeat must give
        that output again, which is cheaper to compare than to re-check."""
        key = self.key(spec)
        if key in self.verified:
            return mismatches(self.record(spec, out), self.verified[key], key, CROSS_RTOL), None
        failures, moved = self.check(spec, out)
        if not failures:
            self.verified[key] = self.record(spec, out)
        return failures, moved

    def against_reference(self, spec, out) -> list[str]:
        want = self.reference.get(self.key(spec))
        if want is None:
            return [f"no reference for {self.name}/{self.size}/{self.key(spec)}"]
        return mismatches(self.record(spec, out), want, self.key(spec))


class Sweep(Workload):
    """``run_seed`` with the default experiment configuration."""

    name = "sweep"
    SIZES = {
        "full": {"config": {}, "pool": tuple(range(16)), "per_run": 4},
        "tiny": {
            "config": {
                "t_sweep": (64, 128),
                "test_length": 400,
                "rho_grid": 8,
                "envelope_grid": 64,
                "hinf_grid": 64,
            },
            "pool": (0,),
            "per_run": 1,
        },
    }

    def __init__(self, size="full", reference=None):
        super().__init__(size, reference)
        self.config = experiments.ExperimentConfig(**self.params["config"])

    def setup(self, seed, workdir):
        self.prepare(pick(seed, self.params["pool"], self.params["per_run"]))

    def prepare(self, loop_seeds):
        self.cycle = list(loop_seeds)

    def warmup_spec(self):
        # The same loop on every seed, so that set-up time does not move
        # with the seed's first loop, whose op costs 1.8 to 2.5 s.
        return self.params["pool"][0]

    def run(self, loop_seed):
        return experiments.run_seed(self.config, loop_seed)

    def record(self, loop_seed, out):
        return {
            "rows": [
                {
                    "t": row.t,
                    "mse_fit": row.mse_fit,
                    "mse_oracle": row.mse_oracle,
                    "hinf_actual": row.hinf_actual,
                    "reduced_order": row.reduced_order,
                    "certified_error": row.certified_error,
                }
                for row in out.rows
            ]
        }

    def check(self, loop_seed, out):
        failures = []
        for row in out.rows:
            if row.status != "ok":
                failures.append(f"seed {loop_seed} t {row.t}: {row.status}")
            elif not row.certified_error <= self.config.phi:
                failures.append(
                    f"seed {loop_seed} t {row.t}: certified error "
                    f"{row.certified_error!r} exceeds phi {self.config.phi!r}"
                )
        if not failures:
            failures = self.against_reference(loop_seed, out)
        return failures, None


class Bound(Workload):
    """Bound inputs, ledger and both bounds for a stored loop."""

    name = "bound"
    P, PHI, THETA = 4, 0.05, 0.1
    SIZES = {
        "full": {
            "dims": ((2, 1, 1), (3, 2, 2), (6, 2, 2)),
            "pool": tuple(range(8)),
            "per_dims": 4,
            "grids": {"n_rho": 64, "envelope_grid": 2048, "hinf_grid": 4096},
            "log2_t": tuple(range(8, 21)),
            "dense": 16384,
        },
        "tiny": {
            "dims": ((2, 1, 1),),
            "pool": (0,),
            "per_dims": 1,
            "grids": {"n_rho": 8, "envelope_grid": 64, "hinf_grid": 64},
            "log2_t": (8, 12),
            "dense": 512,
        },
    }

    def setup(self, seed, workdir):
        streams = np.random.SeedSequence(seed).generate_state(len(self.params["dims"]))
        per_dims = [
            [(dims, s) for s in pick(int(stream), self.params["pool"], self.params["per_dims"])]
            for dims, stream in zip(self.params["dims"], streams)
        ]
        self.prepare([key for turn in zip(*per_dims) for key in turn])

    def prepare(self, keys):
        self.cycle = [(dims, s, loop_for(systems.Dims(*dims), s)) for dims, s in keys]

    def key(self, spec):
        dims, loop_seed, _ = spec
        return f"{'x'.join(map(str, dims))}/{loop_seed}"

    def warmup_spec(self):
        # The same loop on every seed: the seed's first loop costs 0.24 or
        # 0.5 s, which split set-up time into two modes across seeds.
        dims, loop_seed = self.params["dims"][0], self.params["pool"][0]
        return dims, loop_seed, loop_for(systems.Dims(*dims), loop_seed)

    def run(self, spec):
        cl = spec[2]
        inputs = bounds.bound_inputs(cl, self.P, ALPHA, self.PHI, **self.params["grids"])
        ledger = bounds.select_ledger(inputs, 2.0 ** max(self.params["log2_t"]))
        cells = []
        for log2_t in self.params["log2_t"]:
            t = 2.0**log2_t
            detail = bounds.model_error_detail(inputs, self.THETA, t)
            if t >= ledger.t0:
                expected = bounds.expected_error_bound(inputs, ledger, t)
                alt = bounds.expected_error_bound(inputs, ledger, t, squared_tail=True)
            else:
                expected = alt = None
            cells.append((t, detail.value, expected, alt))
        return inputs, ledger, cells

    def record(self, spec, out):
        inputs, ledger, cells = out
        return {
            "level": inputs.level,
            "rho": inputs.rho,
            "z_power": inputs.z_power,
            "e_power_sq": inputs.e_power_sq,
            "j_norm": inputs.j_norm,
            "xi": inputs.xi,
            "t0": ledger.t0,
            "k": ledger.k,
            "hinf_bound": [c[1] for c in cells],
            "expected": [c[2] for c in cells],
            "expected_alt": [c[3] for c in cells],
        }

    def check(self, spec, out):
        cl = spec[2]
        inputs, ledger, cells = out
        dense = self.params["dense"]
        failures = []
        h_star = kalman.steady_state_predictor(cl.plant)
        sr = linalg.spectral_radius(h_star.a)
        if not sr < inputs.rho < 1.0:
            failures.append(f"rho {inputs.rho!r} outside (spectral radius {sr!r}, 1)")
        else:
            level_floor = dense_peak(h_star, dense, inputs.rho)
            if inputs.level < level_floor * (1.0 - ROUNDOFF):
                failures.append(f"level {inputs.level!r} below dense-grid peak {level_floor!r}")
        j = systems.noise_to_signal(cl)
        j_floor = dense_peak(j, dense)
        j_ceiling = float(np.linalg.svd(j.d, compute_uv=False)[0]) + 2.0 * float(
            np.sum(linalg.hankel_singular_values(j))
        )
        if not j_floor * (1.0 - ROUNDOFF) <= inputs.j_norm <= j_ceiling * (1.0 + ROUNDOFF):
            failures.append(
                f"j_norm {inputs.j_norm!r} outside [dense-grid peak {j_floor!r}, "
                f"D + 2 Hankel sum {j_ceiling!r}]"
            )
        floor = bounds.hard_floor(inputs.p, inputs.alpha, inputs.xi)
        if not ledger.t0 >= floor:
            failures.append(f"t0 {ledger.t0!r} below the hard floor {floor!r}")
        least = inputs.e_power_sq + 2.0 * inputs.phi * inputs.z_power**2
        for t, _, expected, alt in cells:
            for value in (expected, alt):
                if value is not None and not value >= least * (1.0 - ROUNDOFF):
                    failures.append(f"expected bound {value!r} at T {t} below {least!r}")
        want = self.reference.get(self.key(spec))
        moved = drift(self.record(spec, out), want) if want is not None else None
        return failures, moved


class OrderSelect(Workload):
    """Ridge fits at several (p, phi) on one CSV-loaded dataset."""

    name = "order_select"
    # Its fits stream a regressor matrix of up to 67 MB through memory and a
    # BLAS Gram product.  The python part slows in spells that these ops do
    # not feel, so it is left out.
    YARDSTICK = ("linalg", "memory", "gram")
    SIZES = {
        "full": {
            "pool": tuple(range(8)),
            "n_train": 2**17,
            "n_hold": 4096,
            "p": (4, 8, 16),
            "phi": (0.01, 0.05, 0.2),
        },
        "tiny": {"pool": (0,), "n_train": 2**11, "n_hold": 256, "p": (2,), "phi": (0.05,)},
    }
    DIMS = (3, 2, 2)

    def setup(self, seed, workdir):
        pool = self.params["pool"]
        self.prepare(pool[seed % len(pool)], workdir)

    def prepare(self, loop_seed, workdir):
        n_train, n_hold = self.params["n_train"], self.params["n_hold"]
        cl = loop_for(systems.Dims(*self.DIMS), loop_seed)
        traj = systems.simulate(cl, n_train + n_hold, seed=np.random.SeedSequence([loop_seed, 1]))
        path = Path(workdir) / f"order_select_{loop_seed}.csv"
        serialize.save_dataset_csv(path, varx.Dataset.from_signals(traj.u, traj.y, p=1))
        data = serialize.load_dataset_csv(path, p=1)
        path.unlink()
        self.loop_seed = loop_seed
        self.n_u, self.n_y = data.n_u, data.n_y
        self.train = data.z[:n_train]
        self.hold = data.z[n_train:]
        self.cycle = [(p, phi) for phi in self.params["phi"] for p in self.params["p"]]

    def key(self, spec):
        return f"{self.loop_seed}/{spec[0]}/{spec[1]!r}"

    def run(self, spec):
        p, phi = spec
        fit = realization.fit_redar(varx.Dataset(self.train, p, self.n_u, self.n_y), ALPHA, phi)
        u, y = self.hold[:, : self.n_u], self.hold[:, self.n_u :]
        yhat = realization.predict_with_model(fit.model, u, y)
        return fit, yhat, realization.prediction_mse(y, yhat, discard=p)

    def record(self, spec, out):
        fit, _, mse = out
        return {
            "g": fit.varx.g.tolist(),
            "certified_error": fit.certified_error,
            "reduced_order": fit.reduced.order,
            "holdout_mse": mse,
        }

    def check(self, spec, out):
        p, phi = spec
        fit, yhat, _ = out
        failures = []
        if not fit.certified_error <= phi:
            failures.append(f"certified error {fit.certified_error!r} exceeds phi {phi!r}")
        full_direct, _ = varx.predict_varx(fit.varx, varx.Dataset(self.hold, p, self.n_u, self.n_y))
        full_loop = realization.run_predictor(fit.full.ss, self.hold)[p:]
        reduced_loop = realization.run_predictor(fit.reduced.ss, self.hold)
        for label, got, want in (
            ("predict_varx vs full predictor", full_direct, full_loop),
            ("predict_with_model vs reduced predictor", yhat, reduced_loop),
        ):
            failures += mismatches(got, want, label, CROSS_RTOL)
        if not failures:
            failures = self.against_reference(spec, out)
        return failures, None


WORKLOADS = {w.name: w for w in (Sweep, Bound, OrderSelect)}
