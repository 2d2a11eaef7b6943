"""Exact second moments and optimal one-step predictors.

The closed loop driven by unit-covariance white noise has a known
stationary law, so the regression moments that the VARX estimator only
approximates from data can be computed exactly:

    r[0] = C P C^T + D D^T,
    r[t] = C A^{t-1} (A P C^T + B D^T),   t >= 1,

with P the stationary state covariance of the noise-to-signal
realization.  Q is the block-Toeplitz lag covariance built from
r[0..p-1] (newest lag first) and N stacks the y rows of r[1..p].
The population-optimal lag predictor is G_opt = N Q^{-1}; the
infinite-memory optimum is the steady-state Kalman predictor

    H*(q) = C (qI - (A - KC))^{-1} [B K],

whose mean squared error floor is trace(Psi).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PredictorUnstable
from .linalg import StateSpace, _lyapunov, _require_stable, hinf_norm, markov_parameters
from .realization import PredictorRealization, _innovation_predictor, predictor_from_coefficients
from .systems import ClosedLoop, InnovationModel, noise_to_signal
from .varx import solve_normal_equations

__all__ = [
    "CovarianceFloorWarning",
    "LoopAnalysis",
    "MomentSet",
    "exact_moments",
    "finite_horizon_predictor",
    "steady_state_predictor",
]


class CovarianceFloorWarning(UserWarning):
    """lambda_min(Q) fell below the joint noise floor lambda_min(Gamma).

    The floor holds exactly at lag order 1 (one-step conditioning), but
    stacked lags can dip below it toward the spectral-density minimum
    min_w lambda_min(J(e^{iw}) J(e^{iw})^H), so for p >= 2 this is a real
    possibility, not a numerical artifact.  Q itself is still exact and
    positive definite; only bound constants built on the floor lose
    slack.
    """


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Exact lag moments of a closed loop at lag order p."""

    r: np.ndarray  # (p + 1, n_z, n_z), r[t] = E[z[t] z[0]^T]
    q: np.ndarray  # (p n_z, p n_z) lag covariance, block Toeplitz
    n: np.ndarray  # (n_y, p n_z) target-lag cross covariance


@dataclass(frozen=True, eq=False)
class LoopAnalysis:
    """The stationary law of a closed loop, each part derived on first use
    and at most once: the noise-to-signal map ``j``, its stationary state
    covariance ``p_state`` (the loop's one Lyapunov solve), the output
    covariance ``r0``, the steady-state predictor ``h_star`` and ``j_norm``,
    the H-infinity norm of ``j``.  ``ClosedLoop`` refuses an unstable A."""

    loop: ClosedLoop

    @cached_property
    def j(self) -> StateSpace:
        return noise_to_signal(self.loop)

    @cached_property
    def p_state(self) -> np.ndarray:
        return _lyapunov(self.j.a, self.j.b @ self.j.b.T)

    @cached_property
    def r0(self) -> np.ndarray:
        return self.j.c @ self.p_state @ self.j.c.T + self.j.d @ self.j.d.T

    @cached_property
    def h_star(self) -> StateSpace:
        return steady_state_predictor(self.loop.plant)

    @cached_property
    def j_norm(self) -> float:
        return hinf_norm(self.j)

    def autocovariance(self, max_lag: int) -> np.ndarray:
        """Stationary autocovariances r[0..max_lag] of z = (u, y): r[t] is
        Markov parameter t of (J.A, J.A P J.C^T + J.B J.D^T, J.C, r[0])."""
        if max_lag < 0:
            raise ValueError(f"max_lag must be nonnegative, got {max_lag}")
        j = self.j
        # cross covariance between the state at t+1 and z at t
        m = j.a @ self.p_state @ j.c.T + j.b @ j.d.T
        return markov_parameters(StateSpace(j.a, m, j.c, self.r0), max_lag + 1)


def exact_moments(analysis: LoopAnalysis, p: int) -> MomentSet:
    """Population moments (Q, N) of the lag regression at order p.

    Q is block Toeplitz with block (i, j) = r[j - i] for lags stored
    newest first, using r[-t] = r[t]^T; N stacks the y rows of r[1..p].
    The floor lambda_min(Q) >= lambda_min(Gamma) is checked numerically
    with a 1e-8 slack and warns when violated (see
    CovarianceFloorWarning; violations are expected for some loops at
    p >= 2).
    """
    if p < 1:
        raise ValueError(f"lag order must be positive, got {p}")
    cl, r = analysis.loop, analysis.autocovariance(p)
    n_z = cl.n_z
    q = np.empty((p * n_z, p * n_z))
    for i in range(p):
        for j in range(p):
            lag = j - i
            block = r[lag] if lag >= 0 else r[-lag].T
            q[i * n_z : (i + 1) * n_z, j * n_z : (j + 1) * n_z] = block
    q = 0.5 * (q + q.T)
    n = np.hstack([r[t][cl.n_u :, :] for t in range(1, p + 1)])
    lam_min = float(np.linalg.eigvalsh(q).min())
    if lam_min < cl.xi - 1e-8:
        warnings.warn(
            f"lambda_min(Q) = {lam_min:.6e} is below lambda_min(Gamma) = {cl.xi:.6e}",
            CovarianceFloorWarning,
            stacklevel=2,
        )
    return MomentSet(r=r, q=q, n=n)


def finite_horizon_predictor(
    analysis: LoopAnalysis, p: int
) -> tuple[np.ndarray, PredictorRealization]:
    """Population-optimal lag-p predictor G_opt = N Q^{-1} and its realization."""
    moments = exact_moments(analysis, p)
    g_opt = solve_normal_equations(moments.q, moments.n, 0.0)
    h_opt = predictor_from_coefficients(g_opt, p, analysis.loop.n_u, analysis.loop.n_y)
    return g_opt, h_opt


def steady_state_predictor(plant: InnovationModel) -> StateSpace:
    """Steady-state Kalman one-step predictor of an innovation model.

    Realization (A - KC, [B K], C, 0) driven by z = (u, y); requires
    rho(A - KC) < 1.
    """
    predictor = _innovation_predictor(plant)
    _require_stable(predictor, PredictorUnstable, "rho(A - KC) = {:.9g}, needs < 1")
    return predictor
