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

* ``model_error_detail``: a high-probability bound on the H-infinity
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
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import InvalidT0, NumericalError, RhoTooSmall, TBelowT0
from .kalman import LoopAnalysis
from .linalg import StateSpace, _peak_gain, _start_angles, frequency_response, hinf_norm
from .systems import ClosedLoop

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
    "build_ledger",
    "least_ledger",
    "select_ledger",
    "expected_error_bound",
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
        for name in ("level", "z_power", "e_power_sq", "j_norm", "xi", "alpha"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if not (self.level >= 0 and self.z_power >= 0 and self.e_power_sq >= 0):
            raise ValueError("powers and envelope level must be nonnegative")
        if not self.j_norm > 0 or not self.xi > 0:
            raise ValueError("j_norm and xi must be positive")
        if self.p < 1 or self.n_u < 1 or self.n_y < 1:
            raise ValueError("p, n_u, n_y must be positive")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.phi >= 0:
            raise ValueError(f"phi must be nonnegative, got {self.phi}")

    @property
    def n_z(self) -> int:
        return self.n_u + self.n_y

    @cached_property
    def _least_ledger(self) -> ConstantLedger:
        # built once per instance (the fields are frozen); see least_ledger
        return _build_least_ledger(self)


def gain_envelope(h_star: StateSpace, rho: float) -> float:
    """Certified peak gain of H* on the circle |z| = rho.

    That peak is the H-infinity norm of the radius-scaled realization
    (A/rho, B/rho, C, D), so ``hinf_norm`` returns it to within a factor
    (1 + 1e-6) from above.  By the maximum principle the level bounds
    ||H*(z)|| on all of |z| >= rho.  Raises RhoTooSmall unless rho exceeds
    the spectral radius of H*, and ValueError unless rho < 1.
    """
    sr = h_star._spectral_radius
    if rho <= sr:
        raise RhoTooSmall(f"rho = {rho} does not exceed the predictor spectral radius {sr:.6g}")
    if not rho < 1.0:
        raise ValueError(f"rho must be below 1, got {rho}")
    return hinf_norm(StateSpace(h_star.a / rho, h_star.b / rho, h_star.c, h_star.d))


def optimize_envelope(h_star: StateSpace, p: int, n_rho: int = 64) -> tuple[float, float]:
    """Pick the envelope radius minimizing the truncation tail gain.

    Over ``n_rho`` geometrically spaced radii between the predictor
    spectral radius (plus 1e-6) and 1 - 1e-6, returns the (rho, level)
    minimizing level * rho^{p+1} / (1 - rho), the first on ties, with
    level the ``gain_envelope`` value at rho.

    Only radii that can still win are certified.  One batched frequency
    response gives each radius a floor: the largest gain at z = rho
    e^{i theta} over the start angles of ``hinf_norm``, shrunk by
    (1 - 1e-9) against roundoff, so it never exceeds the certified level.
    Radii are certified in ascending order of floor objective until the
    next floor objective cannot beat the best certified one.  Rounding
    is monotone, so a skipped radius could not have won, and the result
    equals the scan that certifies every radius.
    """
    if n_rho < 1:
        raise ValueError("n_rho must be positive")
    sr = h_star._spectral_radius
    lo, hi = sr + 1e-6, 1.0 - 1e-6
    if lo >= hi:
        raise RhoTooSmall(f"predictor spectral radius {sr:.9g} leaves no admissible rho")
    radii = np.geomspace(lo, hi, n_rho)
    theta = _start_angles(h_star._poles)
    gains = _peak_gain(frequency_response(h_star, radii[:, None] * np.exp(1j * theta)))
    floor = gains.reshape(n_rho, theta.size).max(axis=1) * (1.0 - 1e-9)
    floor_objective = floor * radii ** (p + 1) / (1.0 - radii)
    best, best_level = (math.inf, n_rho), None
    for k in np.argsort(floor_objective, kind="stable"):
        if (floor_objective[k], k) > best:
            break
        level = gain_envelope(h_star, float(radii[k]))
        key = (tail_bound(level, radii[k], p), k)
        if key < best:
            best, best_level = key, level
    return float(radii[best[1]]), best_level


def tail_bound(level: float, rho: float, p: int) -> float:
    """Envelope bound on the truncated-memory gain, L rho^{p+1}/(1-rho);
    the memory term of the error bound is this gain times ||z||."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if not level >= 0:
        raise ValueError("level must be nonnegative")
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    return level * rho ** (p + 1) / (1.0 - rho)


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


@dataclass(frozen=True)
class LedgerTerm:
    """One summand a T^{m - 1/2} exp(-rate T^{power}) of the error bound.

    ``k_contribution(t0)`` is a T0^m exp(-rate T0^power); for T >= T0 the
    summand is then dominated by that constant over sqrt(T).  Where the
    direct product overflows, or an overflowed a meets an exponential
    that underflowed, both are taken through logarithms; inf stands for
    a value that floats cannot resolve.
    """

    label: str
    a: float
    m: float
    rate: float
    power: float

    def value(self, t: float) -> float:
        return self._scaled(t, self.m - 0.5)

    def k_contribution(self, t0: float) -> float:
        return self._scaled(t0, self.m)

    def _scaled(self, t: float, m: float) -> float:
        # a t^m exp(-rate t^power)
        try:
            value = self.a * t**m * _or_inf(math.exp, -self.rate * t**self.power)
        except OverflowError:
            value = math.nan
        if math.isnan(value):
            exponent = math.log(self.a) + m * math.log(t) - self.rate * t**self.power
            value = _or_inf(math.exp, exponent)
        return math.inf if math.isnan(value) else value

    @property
    def t_max(self) -> float:
        """Peak location of a T^m exp(-rate T^power); decreasing beyond it."""
        if self.rate == 0.0 or self.m == 0.0:
            return 0.0
        return (self.m / (self.power * self.rate)) ** (1.0 / self.power)


def _or_inf(f, *args) -> float:
    """``f(*args)``, or inf where that overflows."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


# The ledger's named constants, in print order, with the formula of each.
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


@dataclass(frozen=True)
class ConstantLedger:
    """Every constant of the expected-error bound, with provenance tags.

    ``constants`` maps each name of ``_FORMULAS`` to its value, in that
    order, read-only.  The ledger is valid for sample sizes T >= t0; k
    dominates the sum of all nine decay terms times sqrt(T) on that range.
    """

    inputs: BoundInputs
    constants: MappingProxyType
    terms: tuple[LedgerTerm, ...]
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
    k_i is its term's value at t0.  Of the constants only epsilon1 grows
    with t0; past the floating-point range it reads inf.
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
    growth = _or_inf(math.exp, j2 / (xi * lam))
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
    t0 = max(float(t0_candidate), *(term.t_max for term in terms))
    k_terms = tuple(term.k_contribution(t0) for term in terms)
    epsilon0 = (2.0 * j2 * alpha / (xi**2 * t0**0.25)) ** 2
    epsilon1 = _or_inf(pow, 2.0 * j2 * t0 / alpha, 2)
    values = (b, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15)
    values += (lam, sigma, epsilon0, epsilon1)
    return ConstantLedger(
        inputs=inputs,
        constants=MappingProxyType(dict(zip(_FORMULAS, values, strict=True))),
        terms=terms,
        k_terms=k_terms,
        k=float(sum(k_terms)),
        t0=t0,
        t0_candidate=float(t0_candidate),
        floor=floor,
    )


def least_ledger(inputs: BoundInputs) -> ConstantLedger:
    """The ledger at the smallest t0 of any candidate, with candidate t0.

    In x = c^(1/4), with a = 2 c2 J^2 alpha / xi^2, the sqrt(T) peak lies
    at or below c exactly when x^2 >= k2 (a + c3 x), k2 = 8 sqrt(2) xi /
    alpha: from the positive root of that quadratic on.  The T^(3/4) peak
    does when x^4 >= k4 (a + c3 x), k4 = 32 xi / (3 alpha); from that root
    and the hard floor (c >= 4, so x^2 >= 2) on, x^4 >= 2 x^2 >=
    2 k2 (a + c3 x) > k4 (a + c3 x), so it never binds.  When a peak that
    does not depend on c lies above the root, or roundoff leaves the
    sqrt(T) peak an ulp above it, the ledger is rebuilt at its own t0,
    where c6 is no smaller and so neither peak is larger.  Each k_i falls
    as c grows, so k is also the smallest at that t0, the threshold t0*.

    Raises NumericalError when a ledger constant leaves the floating-point
    range, as extreme alpha, xi or j_norm make it.  Built once per inputs.
    """
    return inputs._least_ledger


def _build_least_ledger(inputs: BoundInputs) -> ConstantLedger:
    try:
        _, _, c2, c3, _ = _moment_constants(inputs)
        a = 2.0 * c2 * inputs.j_norm**2 * inputs.alpha / inputs.xi**2
        k2 = 8.0 * math.sqrt(2.0) * inputs.xi / inputs.alpha
        c = ((k2 * c3 + math.hypot(k2 * c3, 2.0 * math.sqrt(k2 * a))) / 2.0) ** 4
        if not math.isfinite(c):
            raise OverflowError("self-consistent threshold out of range")
        ledger = build_ledger(inputs, max(hard_floor(inputs.p, inputs.alpha, inputs.xi), c))
        if ledger.t0 > ledger.t0_candidate:
            ledger = build_ledger(inputs, ledger.t0)
    except (OverflowError, ZeroDivisionError):
        raise NumericalError(
            f"ledger constants leave the floating-point range at alpha = {inputs.alpha!r}, "
            f"xi = {inputs.xi!r}, j_norm = {inputs.j_norm!r}"
        ) from None
    return ledger


def select_ledger(inputs: BoundInputs, t_target: float) -> ConstantLedger:
    """The ledger of the cell at sample size ``t_target``: the one built at
    candidate t, whose k is the smallest of any candidate valid there.
    Below the threshold t0* of ``least_ledger``, which no candidate's t0
    undercuts, and where roundoff leaves that ledger's t0 an ulp above t,
    it is the least ledger.  Raises NumericalError as ``least_ledger`` does."""
    least, t = inputs._least_ledger, float(t_target)
    if t > least.t0:
        ledger = build_ledger(inputs, t)
        if ledger.t0 <= t:
            return ledger
    return least


def expected_error_bound(
    inputs: BoundInputs, ledger: ConstantLedger, t: float, squared_tail: bool = False
) -> float:
    """Expected one-step squared-error bound at sample size T >= t0.

    Terms: innovation floor, truncated-memory envelope term, reduction
    budget term 2 phi ||z||^2 and the finite-sample term
    (2 k p / sqrt(T)) ||z||^2.  ``squared_tail`` switches the memory term
    to its squared variant (tail gain and signal norm both squared),
    reported alongside the primary form.  ``inputs`` must equal
    ``ledger.inputs``: a ledger holds for the loop it was built for.
    """
    if inputs is not ledger.inputs and inputs != ledger.inputs:
        raise ValueError("the ledger was built for other inputs than these")
    if t < ledger.t0:
        raise TBelowT0(f"T = {t} is below the validity threshold t0 = {ledger.t0}")
    tail_gain = tail_bound(inputs.level, inputs.rho, inputs.p)
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
    value = t * numerator / alpha * p + inputs.phi
    if small or at_boundary:
        value_small = numerator / (xi - c2 * delta - alpha / t) * p + inputs.phi
        value = max(value_small, value) if at_boundary else value_small
    return ModelErrorDetail(float(value), delta, small, at_boundary)


@dataclass(frozen=True)
class BoundCells:
    """Both bounds at one sample size T.

    ``valid`` is T >= t0*; below it the two expected-error values are
    None.  ``k`` is the constant of the ledger the cell used, and the
    least ledger's where the cell is invalid.
    """

    valid: bool
    expected: float | None
    expected_alt: float | None
    k: float
    model_error: ModelErrorDetail


def bound_cells(inputs: BoundInputs, theta: float, t: float) -> BoundCells:
    """Model-error bound and, from t0* on, the primary and squared-tail
    expected-error bounds at sample size ``t``, from the ``select_ledger``
    ledger of the cell."""
    t = float(t)
    detail = model_error_detail(inputs, theta, t)
    ledger = select_ledger(inputs, t)
    if not t >= ledger.t0:
        return BoundCells(False, None, None, ledger.k, detail)
    return BoundCells(
        True,
        expected_error_bound(inputs, ledger, t),
        expected_error_bound(inputs, ledger, t, squared_tail=True),
        ledger.k,
        detail,
    )


def bound_inputs(
    loop: LoopAnalysis | ClosedLoop,
    p: int,
    alpha: float,
    phi: float,
    n_rho: int = 64,
    envelope_grid: int | None = None,
    hinf_grid: int | None = None,
) -> BoundInputs:
    """Assemble bound inputs from a closed loop's stationary analysis (a
    bare ``ClosedLoop`` gets its own): ``optimize_envelope`` runs on the
    steady-state predictor at lag p; the signal powers, the noise map
    H-infinity norm and xi are read off the analysis, which derives each
    once for every lag it serves.  ``envelope_grid`` and ``hinf_grid`` are
    deprecated: accepted for existing callers, they change no value or cost.
    """
    analysis = loop if isinstance(loop, LoopAnalysis) else LoopAnalysis(loop)
    rho, level = optimize_envelope(analysis.h_star, p, n_rho=n_rho)
    cl = analysis.loop
    return BoundInputs(
        level=level,
        rho=rho,
        z_power=math.sqrt(float(np.trace(analysis.r0))),
        e_power_sq=float(np.trace(cl.plant.psi)),
        j_norm=analysis.j_norm,
        xi=cl.xi,
        p=p,
        n_u=cl.n_u,
        n_y=cl.n_y,
        alpha=alpha,
        phi=phi,
    )


def format_ledger(ledger: ConstantLedger) -> str:
    """Human-readable constant table with formula tags, closed by the
    cell rule that turns a least ledger into the bound at each T."""
    lines = [
        "constant ledger",
        f"  inputs: p={ledger.inputs.p} n_u={ledger.inputs.n_u} n_y={ledger.inputs.n_y} "
        f"alpha={ledger.inputs.alpha!r} xi={ledger.inputs.xi!r} j_norm={ledger.inputs.j_norm!r}",
        f"  hard floor = {ledger.floor!r}  # max(2a/xi, p, 4, 2a^2/xi^2)",
        f"  t0 candidate = {ledger.t0_candidate!r}",
    ]
    for name, value in ledger.constants.items():
        lines.append(f"  {name} = {value!r}  # {_FORMULAS[name]}")
    lines.append("  decay terms a T^(m - 1/2) exp(-rate T^power):")
    for term, k_i in zip(ledger.terms, ledger.k_terms):
        lines.append(
            f"    {term.label}: a={term.a!r} m={term.m!r} rate={term.rate!r} "
            f"power={term.power!r} peak_at={term.t_max!r} k_i={k_i!r}"
        )
    lines.append(f"  k = {ledger.k!r}  # sum of the nine k_i")
    lines.append(f"  t0 = {ledger.t0!r}  # max(candidate, every peak location)")
    lines.append("  cells: a valid cell at T uses the ledger at candidate T")
    return "\n".join(lines) + "\n"
