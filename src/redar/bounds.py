"""Computable finite-sample error bounds for the reduced lag predictor.

Two bounds are evaluated from system-level quantities only:

* ``expected_error_bound``: an upper bound on the stationary one-step
  mean squared prediction error of the reduced predictor fitted from T
  samples, of the form

      E||y - yhat||^2 <= E||e||^2 + L rho^{p+1} / (1 - rho) * ||z||
                         + 2 phi ||z||^2 + (2 k p / sqrt(T)) ||z||^2,

  valid for T at or above a threshold T0.  The constant k and T0 come
  from a ledger of explicit constants (``build_ledger``), each the peak
  of a function a T^m exp(-b T^n) evaluated at T0.

* ``model_error_bound``: a high-probability bound on the H-infinity
  distance between the reduced predictor and the population-optimal
  lag-p predictor, driven by an elementwise moment concentration radius
  delta(theta, T).

All constants are evaluated exactly as printed in their defining
formulas; they are extremely conservative by design, and several decay
terms underflow to zero at practical T0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidT0, RhoTooSmall, TBelowT0
from .kalman import steady_state_predictor
from .linalg import StateSpace, hinf_norm, spectral_radius
from .systems import ClosedLoop, noise_to_signal, signal_powers

__all__ = [
    "BoundInputs",
    "LedgerTerm",
    "ConstantLedger",
    "ModelErrorDetail",
    "gain_envelope",
    "optimize_envelope",
    "tail_bound",
    "moment_count",
    "element_deviation",
    "hard_floor",
    "epsilon0",
    "epsilon1",
    "build_ledger",
    "select_ledger",
    "expected_error_bound",
    "model_error_bound",
    "model_error_detail",
    "BoundCells",
    "bound_cells",
    "bound_inputs",
    "format_ledger",
]

@dataclass(frozen=True)
class BoundInputs:
    """System-level quantities consumed by the bound evaluators.

    ``level`` and ``rho`` describe the decay envelope of the steady-state
    predictor (``||H*(z)|| <= level`` for ``|z| >= rho``); ``z_power`` is
    the root mean square of the joint signal, ``e_power_sq`` the
    innovation power, ``j_norm`` the H-infinity norm of the
    noise-to-signal map and ``xi`` the joint noise covariance floor.
    """

    level: float
    rho: float
    z_power: float
    e_power_sq: float
    j_norm: float
    xi: float
    p: int
    n_u: int
    n_y: int
    alpha: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.level < 0 or self.z_power < 0 or self.e_power_sq < 0:
            raise ValueError("powers and envelope level must be nonnegative")
        if not self.j_norm > 0 or not self.xi > 0:
            raise ValueError("j_norm and xi must be positive")
        if self.p < 1 or self.n_u < 1 or self.n_y < 1:
            raise ValueError("p, n_u, n_y must be positive")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.phi < 0:
            raise ValueError(f"phi must be nonnegative, got {self.phi}")

    @property
    def n_z(self) -> int:
        return self.n_u + self.n_y


def gain_envelope(h_star: StateSpace, rho: float, n_grid: int = 2048) -> float:
    """Certified peak gain of H* on the circle |z| = rho.

    That peak is the H-infinity norm of the radius-scaled realization
    (A/rho, B/rho, C, D), so ``hinf_norm`` returns it to within a factor
    (1 + 1e-6) from above (looser, still above, for rho within about 1e-5
    of the spectral radius); ``n_grid`` sizes its starting circle grid.  By
    the maximum principle the level bounds ||H*(z)|| on all of |z| >= rho.
    """
    sr = spectral_radius(h_star.a)
    if rho <= sr:
        raise RhoTooSmall(f"rho = {rho} does not exceed the predictor spectral radius {sr:.6g}")
    if not rho < 1.0:
        raise ValueError(f"rho must be below 1, got {rho}")
    if h_star.n_inputs == 0 or h_star.n_outputs == 0:
        return 0.0
    scaled = StateSpace(h_star.a / rho, h_star.b / rho, h_star.c, h_star.d)
    return hinf_norm(scaled, n_grid=n_grid)


def optimize_envelope(
    h_star: StateSpace, p: int, n_rho: int = 64, n_grid: int = 2048
) -> tuple[float, float]:
    """Pick the envelope radius minimizing the truncation tail gain.

    Scans ``n_rho`` geometrically spaced radii between the predictor
    spectral radius and 1 and returns (rho, level) minimizing
    level * rho^{p+1} / (1 - rho).
    """
    sr = spectral_radius(h_star.a)
    lo, hi = sr + 1e-6, 1.0 - 1e-6
    if lo >= hi:
        raise RhoTooSmall(f"predictor spectral radius {sr:.9g} leaves no admissible rho")
    best = None
    for rho in np.geomspace(lo, hi, n_rho):
        level = gain_envelope(h_star, float(rho), n_grid)
        objective = level * rho ** (p + 1) / (1.0 - rho)
        if best is None or objective < best[0]:
            best = (objective, float(rho), level)
    return best[1], best[2]


def tail_bound(level: float, rho: float, p: int, z_power: float) -> float:
    """Envelope bound on the truncated-memory term, L rho^{p+1}/(1-rho) ||z||."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if level < 0 or z_power < 0:
        raise ValueError("level and z_power must be nonnegative")
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    return level * rho ** (p + 1) / (1.0 - rho) * z_power


def moment_count(p: int, n_y: int, n_z: int) -> int:
    """Number of distinct moment entries in the union bound:
    p n_y n_z cross entries plus the upper triangle of the lag covariance."""
    if p < 1 or n_y < 1 or n_z < 1:
        raise ValueError("p, n_y, n_z must be positive")
    m = p * n_z
    return p * n_y * n_z + m * (m + 1) // 2


def element_deviation(theta: float, t: float, j_norm: float, count: int) -> float:
    """Elementwise moment deviation radius holding with probability 1 - theta.

    delta = 4 ||J||^2 max{(2/T) log(2b/theta), sqrt((2/T) log(2b/theta))},
    the exact inversion of the two-sided tail
    2 b exp(-T min{delta^2 / (32 ||J||^4), delta / (8 ||J||^2)}).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if count < 1 or not j_norm > 0:
        raise ValueError("count and j_norm must be positive")
    g = 2.0 / t * math.log(2.0 * count / theta)
    return 4.0 * j_norm**2 * max(g, math.sqrt(g))


def hard_floor(p: int, alpha: float, xi: float) -> float:
    """Smallest admissible sample-size threshold max{2a/xi, p, 4, 2a^2/xi^2}."""
    return max(2.0 * alpha / xi, float(p), 4.0, 2.0 * alpha**2 / xi**2)


def epsilon0(j_norm: float, alpha: float, xi: float, t: float) -> float:
    """Lower integration split point (2 J^2 alpha / (xi^2 T^{1/4}))^2."""
    return (2.0 * j_norm**2 * alpha / (xi**2 * t**0.25)) ** 2


def epsilon1(j_norm: float, alpha: float, t: float) -> float:
    """Upper integration split point (2 J^2 T / alpha)^2."""
    return (2.0 * j_norm**2 * t / alpha) ** 2


@dataclass(frozen=True)
class LedgerTerm:
    """One summand a T^{m - 1/2} exp(-rate T^{power}) of the error bound.

    ``k_contribution(t0)`` is a T0^m exp(-rate T0^power); for T >= T0 the
    summand is then dominated by that constant over sqrt(T).
    """

    label: str
    a: float
    m: float
    rate: float
    power: float

    def value(self, t: float) -> float:
        return self.a * t ** (self.m - 0.5) * _exp(-self.rate * t**self.power)

    def k_contribution(self, t0: float) -> float:
        return self.a * t0**self.m * _exp(-self.rate * t0**self.power)

    @property
    def t_max(self) -> float:
        """Peak location of a T^m exp(-rate T^power); decreasing beyond it."""
        if self.rate == 0.0 or self.m == 0.0:
            return 0.0
        return (self.m / (self.power * self.rate)) ** (1.0 / self.power)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ConstantLedger:
    """Every constant of the expected-error bound, with provenance tags.

    The ledger is valid for sample sizes T >= t0; k dominates the sum of
    all nine decay terms times sqrt(T) on that range.
    """

    inputs: BoundInputs
    b: int
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    c12: float
    c13: float
    c14: float
    c15: float
    lam: float
    sigma: float
    epsilon0: float
    epsilon1: float
    terms: tuple[LedgerTerm, ...]
    t_max: tuple[float, ...]
    k_terms: tuple[float, ...]
    k: float
    t0: float
    t0_candidate: float
    floor: float


def _moment_constants(inputs: BoundInputs) -> tuple[int, float, float, float, float]:
    """The constants b, c1, c2, c3, c4 of the ledger and the model-error bound."""
    p, n_y, n_z = inputs.p, inputs.n_y, inputs.n_z
    j2 = inputs.j_norm**2
    b = moment_count(p, n_y, n_z)
    c1 = math.sqrt(p * n_y * n_z)
    c2 = float(p * n_z)
    c3 = c1 + j2 * c2 / inputs.xi
    c4 = j2 * inputs.alpha / inputs.xi
    return b, c1, c2, c3, c4


def build_ledger(inputs: BoundInputs, t0_candidate: float) -> ConstantLedger:
    """Evaluate every bound constant for a given threshold candidate.

    The candidate must clear the hard floor; the returned threshold t0 is
    the candidate pushed up past every term's peak location, and each
    k_i is its term's value at t0.
    """
    p, alpha, xi = inputs.p, inputs.alpha, inputs.xi
    j2 = inputs.j_norm**2
    floor = hard_floor(p, alpha, xi)
    if t0_candidate < floor:
        raise InvalidT0(f"t0 candidate {t0_candidate} is below the hard floor {floor}")

    b, c1, c2, c3, c4 = _moment_constants(inputs)
    c5 = (4.0 * c4 / xi) ** 2
    c6 = alpha / (8.0 * xi * (2.0 * c2 * j2 * alpha / (xi**2 * t0_candidate**0.25) + c3))
    c7 = c4 / (4.0 * j2 * (c2 * 4.0 * c4 / xi + c3))
    c8 = 2.0 * b * c5
    c9 = 8.0 * b * j2**2 / alpha**2
    lam = 8.0 * j2 * c3 / alpha
    growth = _exp(j2 / (xi * lam))
    c10 = 8.0 * b * lam * j2 / alpha * growth
    c11 = 4.0 * b * lam**2 * growth
    c12 = alpha * lam / (2.0 * j2)
    sigma = 4.0 * c3 * j2 / alpha
    c13 = 4.0 * b * sigma**2
    c14 = 8.0 * b * alpha * sigma**2 / xi
    c15 = 2.0 * sigma * alpha / j2

    k1 = 4.0 * j2**2 * alpha**2 / xi**2
    terms = (
        LedgerTerm("ridge bias floor", k1, 0.0, 0.0, 1.0),
        LedgerTerm("mid integral, T^(3/4) decay", c8, 0.5, c6 / 2.0, 0.75),
        LedgerTerm("mid integral, sqrt(T) decay", c8, 0.5, c6**2 / 2.0, 0.5),
        LedgerTerm("mid integral, linear decay c7/2", c9, 2.5, c7 / 2.0, 1.0),
        LedgerTerm("mid integral, linear decay c7^2/2", c9, 2.5, c7**2 / 2.0, 1.0),
        LedgerTerm("exponential tail, growing factor", c10, 1.5, 1.0 / c12, 1.0),
        LedgerTerm("exponential tail, constant factor", c11, 0.5, 1.0 / c12, 1.0),
        LedgerTerm("gaussian tail, growing factor", c13, 1.5, 1.0 / c15, 1.0),
        LedgerTerm("gaussian tail, constant factor", c14, 0.5, 1.0 / c15, 1.0),
    )
    t_max = tuple(term.t_max for term in terms)
    t0 = max(float(t0_candidate), *t_max)
    k_terms = tuple(term.k_contribution(t0) for term in terms)
    return ConstantLedger(
        inputs=inputs,
        b=b,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        c5=c5,
        c6=c6,
        c7=c7,
        c8=c8,
        c9=c9,
        c10=c10,
        c11=c11,
        c12=c12,
        c13=c13,
        c14=c14,
        c15=c15,
        lam=lam,
        sigma=sigma,
        epsilon0=epsilon0(inputs.j_norm, alpha, xi, t0),
        epsilon1=epsilon1(inputs.j_norm, alpha, t0),
        terms=terms,
        t_max=t_max,
        k_terms=k_terms,
        k=float(sum(k_terms)),
        t0=t0,
        t0_candidate=float(t0_candidate),
        floor=floor,
    )


def select_ledger(inputs: BoundInputs, t_target: float, n_candidates: int = 16) -> ConstantLedger:
    """Scan threshold candidates and keep the best ledger for ``t_target``.

    Candidates are geometrically spaced between the hard floor and the
    target; among ledgers valid at the target (t0 <= t_target) the one
    with the smallest bound value wins, otherwise the one with smallest t0.
    """
    floor = hard_floor(inputs.p, inputs.alpha, inputs.xi)
    if t_target <= floor:
        return build_ledger(inputs, floor)
    candidates = np.geomspace(floor, t_target, n_candidates)
    ledgers = [build_ledger(inputs, float(c)) for c in candidates]
    feasible = [led for led in ledgers if led.t0 <= t_target]
    if feasible:
        return min(feasible, key=lambda led: expected_error_bound(inputs, led, t_target))
    return min(ledgers, key=lambda led: led.t0)


def expected_error_bound(
    inputs: BoundInputs, ledger: ConstantLedger, t: float, squared_tail: bool = False
) -> float:
    """Expected one-step squared-error bound at sample size T >= t0.

    Terms: innovation floor, truncated-memory envelope term, reduction
    budget term 2 phi ||z||^2 and the finite-sample term
    (2 k p / sqrt(T)) ||z||^2.  ``squared_tail`` switches the memory term
    to its squared variant (tail gain and signal norm both squared),
    reported alongside the primary form.
    """
    if t < ledger.t0:
        raise TBelowT0(f"T = {t} is below the validity threshold t0 = {ledger.t0}")
    tail_gain = tail_bound(inputs.level, inputs.rho, inputs.p, 1.0)
    if squared_tail:
        memory = tail_gain**2 * inputs.z_power**2
    else:
        memory = tail_gain * inputs.z_power
    data = 2.0 * ledger.k * inputs.p / math.sqrt(t) * inputs.z_power**2
    return inputs.e_power_sq + memory + 2.0 * inputs.phi * inputs.z_power**2 + data


@dataclass(frozen=True)
class ModelErrorDetail:
    """Model-error bound value with branch diagnostics."""

    value: float
    delta: float
    small_deviation_branch: bool
    at_boundary: bool


def model_error_detail(inputs: BoundInputs, theta: float, t: float) -> ModelErrorDetail:
    """High-probability H-infinity model-error bound with diagnostics.

    With probability at least 1 - theta the reduced predictor is within
    the returned value of the population-optimal lag-p predictor.  The
    small-deviation branch applies when delta <= (xi - 2 alpha/T)/c2 and
    the two branches agree at the boundary, where the larger is reported.
    """
    if t < inputs.p:
        raise ValueError(f"T = {t} must be at least p = {inputs.p}")
    b, _, c2, c3, c4 = _moment_constants(inputs)
    delta = element_deviation(theta, t, inputs.j_norm, b)
    alpha, xi, p = inputs.alpha, inputs.xi, inputs.p
    numerator = c3 * delta + c4 / t
    threshold = (xi - 2.0 * alpha / t) / c2
    at_boundary = math.isclose(delta, threshold, rel_tol=1e-12) if threshold > 0 else False
    small = delta <= threshold
    value_small = math.inf
    if small or at_boundary:
        value_small = numerator / (xi - c2 * delta - alpha / t) * p + inputs.phi
    value_large = t * numerator / alpha * p + inputs.phi
    if at_boundary:
        value = max(value_small, value_large)
    elif small:
        value = value_small
    else:
        value = value_large
    return ModelErrorDetail(float(value), delta, small, at_boundary)


def model_error_bound(inputs: BoundInputs, theta: float, t: float) -> float:
    """Value of the high-probability H-infinity model-error bound."""
    return model_error_detail(inputs, theta, t).value


@dataclass(frozen=True)
class BoundCells:
    """Both bounds at one sample size T for one ledger.

    ``valid`` is T >= t0; below it the two expected-error values are None.
    """

    valid: bool
    expected: float | None
    expected_alt: float | None
    model_error: ModelErrorDetail


def bound_cells(inputs: BoundInputs, ledger: ConstantLedger, theta: float, t: float) -> BoundCells:
    """Model-error bound and, from t0 on, the primary and squared-tail
    expected-error bounds at sample size ``t``."""
    t = float(t)
    detail = model_error_detail(inputs, theta, t)
    if not t >= ledger.t0:
        return BoundCells(False, None, None, detail)
    return BoundCells(
        True,
        expected_error_bound(inputs, ledger, t),
        expected_error_bound(inputs, ledger, t, squared_tail=True),
        detail,
    )


def bound_inputs(
    cl: ClosedLoop,
    p: int,
    alpha: float,
    phi: float,
    rho: float | None = None,
    n_rho: int = 64,
    envelope_grid: int = 2048,
    hinf_grid: int = 4096,
) -> BoundInputs:
    """Assemble bound inputs from a closed loop.

    Computes the steady-state predictor envelope (optimizing the radius
    unless ``rho`` is given), stationary signal powers, the noise map
    H-infinity norm and the noise floor xi.
    """
    h_star = steady_state_predictor(cl.plant)
    if rho is None:
        rho, level = optimize_envelope(h_star, p, n_rho=n_rho, n_grid=envelope_grid)
    else:
        level = gain_envelope(h_star, rho, n_grid=envelope_grid)
    z_power_sq, e_power_sq = signal_powers(cl)
    j_norm = hinf_norm(noise_to_signal(cl), n_grid=hinf_grid)
    return BoundInputs(
        level=level,
        rho=rho,
        z_power=math.sqrt(z_power_sq),
        e_power_sq=e_power_sq,
        j_norm=j_norm,
        xi=cl.xi,
        p=p,
        n_u=cl.n_u,
        n_y=cl.n_y,
        alpha=alpha,
        phi=phi,
    )


_FORMULAS = {
    "b": "p ny nz + p nz (p nz + 1)/2",
    "c1": "sqrt(p ny nz)",
    "c2": "p nz",
    "c3": "c1 + J^2 c2 / xi",
    "c4": "J^2 alpha / xi",
    "c5": "(4 c4 / xi)^2",
    "c6": "alpha / (8 xi (2 c2 J^2 alpha / (xi^2 t0c^{1/4}) + c3))",
    "c7": "c4 / (4 J^2 (4 c2 c4 / xi + c3))",
    "c8": "2 b c5",
    "c9": "8 b J^4 / alpha^2",
    "c10": "8 b lam J^2 / alpha exp(J^2/(xi lam))",
    "c11": "4 b lam^2 exp(J^2/(xi lam))",
    "c12": "alpha lam / (2 J^2)",
    "c13": "4 b sigma^2",
    "c14": "8 b alpha sigma^2 / xi",
    "c15": "2 sigma alpha / J^2",
    "lam": "8 J^2 c3 / alpha",
    "sigma": "4 c3 J^2 / alpha",
    "epsilon0": "(2 J^2 alpha / (xi^2 T^{1/4}))^2 at T = t0",
    "epsilon1": "(2 J^2 T / alpha)^2 at T = t0",
}


def format_ledger(ledger: ConstantLedger) -> str:
    """Human-readable constant table with formula tags."""
    lines = [
        "constant ledger",
        f"  inputs: p={ledger.inputs.p} n_u={ledger.inputs.n_u} n_y={ledger.inputs.n_y} "
        f"alpha={ledger.inputs.alpha!r} xi={ledger.inputs.xi!r} j_norm={ledger.inputs.j_norm!r}",
        f"  hard floor = {ledger.floor!r}  # max(2a/xi, p, 4, 2a^2/xi^2)",
        f"  t0 candidate = {ledger.t0_candidate!r}",
    ]
    for name in _FORMULAS:
        lines.append(f"  {name} = {getattr(ledger, name)!r}  # {_FORMULAS[name]}")
    lines.append("  decay terms a T^(m - 1/2) exp(-rate T^power):")
    for term, tmx, k_i in zip(ledger.terms, ledger.t_max, ledger.k_terms):
        lines.append(
            f"    {term.label}: a={term.a!r} m={term.m!r} rate={term.rate!r} "
            f"power={term.power!r} peak_at={tmx!r} k_i={k_i!r}"
        )
    lines.append(f"  k = {ledger.k!r}  # sum of the nine k_i")
    lines.append(f"  t0 = {ledger.t0!r}  # max(candidate, every peak location)")
    return "\n".join(lines) + "\n"
