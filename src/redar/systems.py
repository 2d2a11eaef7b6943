"""Plant, controller and closed-loop containers plus simulation.

The plant is a linear stochastic system in innovation form,

    x[t+1] = A x[t] + B u[t] + K e[t],      y[t] = C x[t] + e[t],

driven by a dynamic output-feedback controller with an exogenous
excitation channel,

    s[t+1] = AF s[t] + B1F y[t] + B2F v[t],
    u[t]   = CF s[t] + D1F y[t] + D2F v[t],

where e ~ N(0, Psi) and v ~ N(0, I) are independent white sequences.
The plant is strictly proper in u, so the loop is well posed: y[t] is
computed from (x[t], e[t]) first and u[t] follows.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateNoise,
    DimensionMismatch,
    GenerationFailed,
    NotStabilizable,
    NotStable,
    Unstable,
)
from .linalg import (
    StateSpace,
    _as_matrix,
    _require_stable,
    kalman_gain,
    solve_discrete_riccati,
    spectral_radius,
)

__all__ = [
    "InnovationModel",
    "Controller",
    "ClosedLoop",
    "Trajectory",
    "Dims",
    "noise_to_signal",
    "simulate",
    "simulate_many",
    "random_innovation_model",
    "random_closed_loop",
]


@dataclass(frozen=True, eq=False)
class InnovationModel:
    """Innovation-form plant (A, B, C, K, Psi); strictly proper in u."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    k: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        a = _as_matrix(self.a, name="A", square=True)
        n_x = a.shape[0]
        b = _as_matrix(self.b, rows=n_x, name="B")
        c = _as_matrix(self.c, cols=n_x, name="C")
        n_y = c.shape[0]
        k = _as_matrix(self.k, n_x, n_y, "K")
        psi = _as_matrix(self.psi, n_y, n_y, "Psi")
        if not np.allclose(psi, psi.T, atol=1e-12):
            raise ValueError("Psi must be symmetric")
        if np.linalg.eigvalsh(0.5 * (psi + psi.T)).min() <= 0.0:
            raise ValueError("Psi must be positive definite")
        for name, m in dict(a=a, b=b, c=c, k=k, psi=psi).items():
            object.__setattr__(self, name, m)

    @property
    def n_x(self) -> int:
        return self.a.shape[0]

    @property
    def n_u(self) -> int:
        return self.b.shape[1]

    @property
    def n_y(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class Controller:
    """Output-feedback controller with excitation input v."""

    af: np.ndarray
    b1f: np.ndarray
    b2f: np.ndarray
    cf: np.ndarray
    d1f: np.ndarray
    d2f: np.ndarray

    def __post_init__(self):
        af = _as_matrix(self.af, name="AF", square=True)
        n_s = af.shape[0]
        b1f = _as_matrix(self.b1f, rows=n_s, name="B1F")
        b2f = _as_matrix(self.b2f, rows=n_s, name="B2F")
        cf = _as_matrix(self.cf, cols=n_s, name="CF")
        n_y, n_u = b1f.shape[1], cf.shape[0]
        d1f = _as_matrix(self.d1f, n_u, n_y, "D1F")
        d2f = _as_matrix(self.d2f, n_u, b2f.shape[1], "D2F")
        for name, m in dict(af=af, b1f=b1f, b2f=b2f, cf=cf, d1f=d1f, d2f=d2f).items():
            object.__setattr__(self, name, m)

    @property
    def n_s(self) -> int:
        return self.af.shape[0]

    @property
    def n_u(self) -> int:
        return self.cf.shape[0]

    @property
    def n_y(self) -> int:
        return self.b1f.shape[1]

    @property
    def n_v(self) -> int:
        return self.d2f.shape[1]


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Loop of a plant and its controller over the joint state (x, s),
    with z = (u, y).

    The loop matrices and ``xi``, the smallest eigenvalue of ``gamma``, are
    derived from the two parts, once, and cannot be set.  Raises DimensionMismatch when the controller does not
    fit the plant, ValueError naming the first derived matrix that is not
    finite, Unstable when the loop spectral radius reaches
    1 - STABILITY_MARGIN and DegenerateNoise when blockdiag(Psi, D2F D2F^T)
    is numerically singular (``xi`` at most 1e-12).
    """

    plant: InnovationModel
    controller: Controller
    a: np.ndarray = field(init=False, repr=False)
    b_e: np.ndarray = field(init=False, repr=False)
    b_v: np.ndarray = field(init=False, repr=False)
    c_z: np.ndarray = field(init=False, repr=False)
    d_e: np.ndarray = field(init=False, repr=False)
    d_v: np.ndarray = field(init=False, repr=False)
    xi: float = field(init=False, repr=False)

    def __post_init__(self):
        plant, ctrl = self.plant, self.controller
        if ctrl.n_u != plant.n_u or ctrl.n_y != plant.n_y:
            raise DimensionMismatch(
                f"controller is ({ctrl.n_u} by {ctrl.n_y}), "
                f"plant needs ({plant.n_u} by {plant.n_y})"
            )
        b_p, c_p, d1f, n_y = plant.b, plant.c, ctrl.d1f, plant.n_y
        # overflow shows as a non-finite matrix, named below
        with np.errstate(over="ignore", invalid="ignore"):
            derived = {
                "A": np.block(
                    [[plant.a + b_p @ d1f @ c_p, b_p @ ctrl.cf], [ctrl.b1f @ c_p, ctrl.af]]
                ),
                "B_e": np.vstack([b_p @ d1f + plant.k, ctrl.b1f]),
                "B_v": np.vstack([b_p @ ctrl.d2f, ctrl.b2f]),
                "C_z": np.block([[d1f @ c_p, ctrl.cf], [c_p, np.zeros((n_y, ctrl.n_s))]]),
                "D_e": np.vstack([d1f, np.eye(n_y)]),
                "D_v": np.vstack([ctrl.d2f, np.zeros((n_y, ctrl.n_v))]),
            }
        for name, m in derived.items():
            object.__setattr__(self, name.lower(), _as_matrix(m, name=name))
        _require_stable(self.a, Unstable, "closed-loop spectral radius is {:.12g}")
        object.__setattr__(self, "xi", float(np.linalg.eigvalsh(self.gamma).min()))
        if not self.xi > 1e-12:
            raise DegenerateNoise(f"joint noise covariance has lambda_min {self.xi:.3e}")

    @property
    def n_u(self) -> int:
        return self.plant.n_u

    @property
    def n_y(self) -> int:
        return self.plant.n_y

    @property
    def n_z(self) -> int:
        return self.plant.n_u + self.plant.n_y

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def gamma(self) -> np.ndarray:
        """Joint driving-noise covariance blockdiag(Psi, D2F D2F^T)."""
        psi = self.plant.psi
        omega = self.controller.d2f @ self.controller.d2f.T
        n_y, n_v = psi.shape[0], omega.shape[0]
        out = np.zeros((n_y + n_v, n_y + n_v))
        out[:n_y, :n_y] = psi
        out[n_y:, n_y:] = omega
        return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated closed-loop signals, all of equal length: the joint
    signal z = (u, y), u columns first, and the noise (e, v) behind it."""

    z: np.ndarray
    n_u: int
    e: np.ndarray
    v: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return self.z[:, : self.n_u]

    @property
    def y(self) -> np.ndarray:
        return self.z[:, self.n_u :]

    def __len__(self) -> int:
        return self.z.shape[0]


def noise_to_signal(cl: ClosedLoop) -> StateSpace:
    """Realization mapping unit-covariance white noise to z = (u, y).

    The driving input is (Psi^{-1/2} e, v), so the returned system has
    identity input covariance and its output autocovariance matches the
    stationary law of z.
    """
    l_psi = np.linalg.cholesky(cl.plant.psi)
    b = np.hstack([cl.b_e @ l_psi, cl.b_v])
    d = np.hstack([cl.d_e @ l_psi, cl.d_v])
    return StateSpace(cl.a, b, cl.c_z, d)


def default_burn_in(cl: ClosedLoop) -> int:
    sr = spectral_radius(cl.a)
    return int(np.ceil(10.0 / max(1.0 - sr, 1e-6)))


# samples, over all runs, per block of simulate_many's stacked products
_BLOCK = 4096


def _each(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows ``m @ x[t]`` for every row t of ``x``, as one stacked matmul."""
    return np.matmul(m, x[:, :, None])[:, :, 0]


def simulate(cl: ClosedLoop, t_total: int, burn_in: int | None = None, seed: int = 0) -> Trajectory:
    """Simulate the closed loop from zero state.

    Draws ``burn_in + t_total`` noise samples (innovations first, then
    excitation), runs the loop recursion and discards the first
    ``burn_in`` steps.  ``burn_in=None`` uses ceil(10 / (1 - rho(A))).
    Identical seeds reproduce bit-identical trajectories.

    This is the one-run case of `simulate_many`, which holds the
    recursion and advances several runs in lockstep.  Each step writes
    A w into a preallocated row and adds B_e e[t], then B_v v[t], in
    place; a stacked matmul over k runs makes one gemv per run, the same
    call as one run's ``np.dot``, so a run gives the same bits alone or
    in lockstep with others, and the same bits as the per-sample loop.
    """
    return simulate_many(cl, [(t_total, seed)], burn_in)[0]


def simulate_many(
    cl: ClosedLoop, runs: Iterable[tuple[int, int]], burn_in: int | None = None
) -> tuple[Trajectory, ...]:
    """Simulate independent runs of the loop in lockstep.

    ``runs`` holds ``(t_total, seed)`` pairs; run r is bit-identical to
    ``simulate(cl, t_total, burn_in, seed)``.  Each run draws its own
    noise from its own ``default_rng(seed)``, innovations first, then
    excitation.

    Only the state recursion w <- A w + B_e e[t] + B_v v[t] runs one
    sample at a time, and it advances every run at once.  Per block of
    ``_BLOCK // k`` steps of the k runs still going, the input terms
    B_e e[t] and B_v v[t] of all k runs are formed before it, and
    z = C_z w + D_e e + D_v v after it, each as one stacked product
    (`_each`).  Each step writes into
    preallocated rows: with one run, ``A.dot(w, out=...)``; with k
    runs, one stacked matmul of A against the k states.  numpy
    evaluates a stacked matrix-vector product as one gemv per row, the
    same call that ``M @ x[t]`` and ``np.dot(A, w)`` make, and the two
    in-place adds keep the per-sample left-to-right order, so each run
    is bit-identical to the per-sample loop.  A single gemm ``x @ M.T``,
    or pre-summing the two input terms, would round differently.  A run
    that ends mid-block is padded with zero noise to the end of that
    block only and leaves the stack at the next block boundary.  The
    blocks bound the scratch arrays at about ``_BLOCK`` samples, however
    many runs there are and however long the burn-in.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("runs must hold at least one (t_total, seed) pair")
    for t_total, _ in runs:
        if t_total <= 0:
            raise ValueError(f"t_total must be positive, got {t_total}")
    if burn_in is None:
        burn_in = default_burn_in(cl)
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    l_psi = np.linalg.cholesky(cl.plant.psi)
    lengths = [burn_in + t_total for t_total, _ in runs]
    noise = []
    for n, (_, seed) in zip(lengths, runs):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((n, cl.n_y)) @ l_psi.T
        noise.append((e, rng.standard_normal((n, cl.controller.n_v))))
    zs = [np.empty((n, cl.n_z)) for n in lengths]

    a = cl.a
    n_w = cl.n_states
    active = list(range(len(runs)))
    w = np.zeros((len(active), n_w))
    start = 0
    while active:
        k = len(active)
        m = min(max(_BLOCK // k, 1), max(lengths[r] for r in active) - start)
        e_b = np.zeros((m, k, cl.n_y))
        v_b = np.zeros((m, k, cl.controller.n_v))
        for j, r in enumerate(active):
            e, v = noise[r]
            e_b[: len(e) - start, j] = e[start : start + m]
            v_b[: len(v) - start, j] = v[start : start + m]
        e_b, v_b = e_b.reshape(m * k, -1), v_b.reshape(m * k, -1)
        be = _each(cl.b_e, e_b).reshape(m, k, n_w)
        bv = _each(cl.b_v, v_b).reshape(m, k, n_w)
        states = np.empty((m + 1, k, n_w))
        states[0] = w
        if k == 1:
            rows, be, bv = states[:, 0], be[:, 0], bv[:, 0]
            dot = a.dot
            for cur, nxt, b1, b2 in zip(rows, rows[1:], be, bv):
                dot(cur, out=nxt)
                nxt += b1
                nxt += b2
        else:
            rows, be, bv = states[..., None], be[..., None], bv[..., None]
            for cur, nxt, b1, b2 in zip(rows, rows[1:], be, bv):
                np.matmul(a, cur, out=nxt)
                nxt += b1
                nxt += b2
        z_b = (
            _each(cl.c_z, states[:m].reshape(m * k, n_w))
            + _each(cl.d_e, e_b)
            + _each(cl.d_v, v_b)
        ).reshape(m, k, cl.n_z)
        for j, r in enumerate(active):
            zs[r][start : start + m] = z_b[: lengths[r] - start, j]
        start += m
        going = [j for j, r in enumerate(active) if lengths[r] > start]
        active, w = [active[j] for j in going], states[m, going]
    trajs = []
    for r in range(len(runs)):
        # drop each run's full arrays once its trimmed copies exist
        z, (e, v) = zs[r], noise[r]
        zs[r] = noise[r] = None
        trajs.append(Trajectory(z[burn_in:].copy(), cl.n_u, e[burn_in:].copy(), v[burn_in:].copy()))
    return tuple(trajs)


@dataclass(frozen=True)
class Dims:
    """Dimensions for random system generation."""

    n_x: int
    n_u: int
    n_y: int

    def __post_init__(self):
        for name in ("n_x", "n_u", "n_y"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def random_pd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random symmetric positive definite matrix M M^T + 0.1 I."""
    m = rng.standard_normal((n, n))
    return m @ m.T + 0.1 * np.eye(n)


def random_innovation_model(
    dims: Dims, spectral_target: float, rng: np.random.Generator
) -> InnovationModel:
    """Sample a plant with a stable steady-state predictor.

    A, B, C are Gaussian (A rescaled to the requested spectral radius,
    B and C scaled by 1/sqrt(n_x)); K is the steady-state Kalman
    predictor gain for random positive definite noise weights, which
    guarantees rho(A - K C) < 1 even when A itself is unstable.
    """
    if not 0.0 < spectral_target < 1.0:
        raise ValueError(f"spectral_target must lie in (0, 1), got {spectral_target}")
    n_x, n_u, n_y = dims.n_x, dims.n_u, dims.n_y
    a = rng.standard_normal((n_x, n_x))
    sr = spectral_radius(a)
    if sr > 1e-12:
        a *= spectral_target / sr
    scale = 1.0 / np.sqrt(n_x)
    b = scale * rng.standard_normal((n_x, n_u))
    c = scale * rng.standard_normal((n_y, n_x))
    k, _ = kalman_gain(a, c, random_pd(rng, n_x), random_pd(rng, n_y))
    psi = random_pd(rng, n_y)
    return InnovationModel(a, b, c, k, psi)


def random_closed_loop(
    dims: Dims,
    spectral_target: float,
    seed: int | np.random.SeedSequence,
    noise_floor: float = 0.05,
) -> ClosedLoop:
    """Sample a stable stochastic loop: random plant plus LQG controller.

    The controller is an observer with LQR state feedback designed on the
    sampled plant (random positive definite weights), with excitation
    entering through a positive definite D2F.  Retries until the loop is
    stable, the joint noise covariance clears ``noise_floor`` and the
    plant predictor is stable; raises GenerationFailed after 100 draws.
    """
    rng = np.random.default_rng(seed)
    for _ in range(100):
        try:
            plant = random_innovation_model(dims, spectral_target, rng)
            a, b, c = plant.a, plant.b, plant.c
            n_x, n_u, n_y = plant.n_x, plant.n_u, plant.n_y
            r_ctrl = random_pd(rng, n_u)
            p_ctrl = solve_discrete_riccati(a, b, random_pd(rng, n_x), r_ctrl)
            f = np.linalg.solve(r_ctrl + b.T @ p_ctrl @ b, b.T @ p_ctrl @ a)
            l_obs, _ = kalman_gain(a, c, random_pd(rng, n_x), random_pd(rng, n_y))
            m = rng.standard_normal((n_u, n_u))
            d2f = 0.3 * np.eye(n_u) + 0.1 * (m @ m.T) / n_u
            controller = Controller(
                af=a - l_obs @ c - b @ f,
                b1f=l_obs,
                b2f=b @ d2f,
                cf=-f,
                d1f=np.zeros((n_u, n_y)),
                d2f=d2f,
            )
            cl = ClosedLoop(plant, controller)
            _require_stable(plant.a - plant.k @ plant.c)
        except (Unstable, DegenerateNoise, NotStabilizable, NotStable, np.linalg.LinAlgError):
            continue
        if cl.xi <= noise_floor:
            continue
        return cl
    if isinstance(seed, np.random.SeedSequence):
        seed = f"entropy {seed.entropy}, spawn key {seed.spawn_key}"
    raise GenerationFailed(f"no admissible system after 100 attempts (seed {seed})")
