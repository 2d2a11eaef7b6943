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

import numpy as np

from .errors import PredictorUnstable
from .linalg import StateSpace, _require_stable
from .realization import PredictorRealization, _innovation_predictor, predictor_from_coefficients
from .systems import ClosedLoop, InnovationModel, autocovariance
from .varx import solve_normal_equations

__all__ = [
    "CovarianceFloorWarning",
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

    @property
    def n_z(self) -> int:
        return self.r.shape[1]


def exact_moments(cl: ClosedLoop, p: int) -> MomentSet:
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
    r = autocovariance(cl, p)
    n_z, n_y = cl.n_z, cl.n_y
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


def finite_horizon_predictor(cl: ClosedLoop, p: int) -> tuple[np.ndarray, PredictorRealization]:
    """Population-optimal lag-p predictor G_opt = N Q^{-1} and its realization."""
    moments = exact_moments(cl, p)
    g_opt = solve_normal_equations(moments.q, moments.n, 0.0)
    h_opt = predictor_from_coefficients(g_opt, p, cl.n_u, cl.n_y)
    return g_opt, h_opt


def steady_state_predictor(plant: InnovationModel) -> StateSpace:
    """Steady-state Kalman one-step predictor of an innovation model.

    Realization (A - KC, [B K], C, 0) driven by z = (u, y); requires
    rho(A - KC) < 1.
    """
    predictor = _innovation_predictor(plant)
    _require_stable(predictor, PredictorUnstable, "rho(A - KC) = {:.9g}, needs < 1")
    return predictor
