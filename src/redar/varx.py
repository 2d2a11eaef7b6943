"""Ridge-regularized VARX estimation of the one-step predictor.

Given the joint signal z = (u, y), the estimator regresses y[t] on the
stacked lag vector d[t] = (z[t-1], ..., z[t-p]) (newest lag first) and
solves

    G = argmin_G sum_t ||y[t] - G d[t]||^2 + alpha ||G||_F^2
      = N_T (Q_T + (alpha / T) I)^{-1},

with Q_T = D^T D / T and N_T = Y^T D / T.  A dataset of length T + p
supplies exactly T regression rows; the first p samples are the lag
context for the first row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, InsufficientData, NumericalError, OrderMismatch
from .linalg import _as_matrix

__all__ = [
    "Dataset",
    "VarxModel",
    "build_regressors",
    "empirical_moments",
    "solve_normal_equations",
    "fit_varx",
    "predict_varx",
]

def _as_samples(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[:, None]
    if x.ndim != 2:
        raise DimensionMismatch(f"signal must be 1-d or 2-d, got shape {x.shape}")
    return x


@dataclass(frozen=True, eq=False)
class Dataset:
    """Joint signal window with lag order; length is t_count + p."""

    z: np.ndarray
    p: int
    n_u: int
    n_y: int

    def __post_init__(self):
        # _as_matrix would read a 1-d z as one row
        if np.ndim(self.z) != 2:
            raise DimensionMismatch(f"z must be 2-d, got shape {np.shape(self.z)}")
        if self.n_u < 1 or self.n_y < 1:
            raise DimensionMismatch(f"n_u and n_y must be positive, got {self.n_u}, {self.n_y}")
        z = _as_matrix(self.z, cols=self.n_u + self.n_y, name="z")
        if self.p < 1:
            raise ValueError(f"lag order must be positive, got {self.p}")
        if z.shape[0] < self.p + 1:
            raise InsufficientData(
                f"need at least p + 1 = {self.p + 1} samples, got {z.shape[0]}"
            )
        object.__setattr__(self, "z", z)

    @property
    def n_z(self) -> int:
        return self.n_u + self.n_y

    @property
    def t_count(self) -> int:
        """Number of regression rows."""
        return self.z.shape[0] - self.p

    @property
    def u(self) -> np.ndarray:
        return self.z[:, : self.n_u]

    @property
    def y(self) -> np.ndarray:
        return self.z[:, self.n_u :]

    @classmethod
    def from_signals(cls, u, y, p: int) -> "Dataset":
        """Build a dataset from (samples, channels) arrays; 1-d arrays are
        read as a single channel."""
        u = _as_samples(u)
        y = _as_samples(y)
        if u.shape[0] != y.shape[0]:
            raise DimensionMismatch("u and y must have the same number of samples")
        return cls(np.hstack([u, y]), p, u.shape[1], y.shape[1])


@dataclass(frozen=True, eq=False)
class VarxModel:
    """Fitted lag-polynomial coefficients G (n_y by p * n_z)."""

    g: np.ndarray
    p: int
    alpha: float

    def __post_init__(self):
        g = _as_matrix(self.g, name="G")
        if self.p < 1:
            raise ValueError(f"lag order must be positive, got {self.p}")
        if g.shape[1] % self.p != 0:
            raise DimensionMismatch(
                f"G has {g.shape[1]} columns, not divisible by p = {self.p}"
            )
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(self, "g", g)

    @property
    def n_y(self) -> int:
        return self.g.shape[0]

    @property
    def n_z(self) -> int:
        return self.g.shape[1] // self.p

    def block(self, lag: int) -> np.ndarray:
        """Coefficient block for z[t - lag], lag in 1..p."""
        if not 1 <= lag <= self.p:
            raise ValueError(f"lag must lie in 1..{self.p}, got {lag}")
        n_z = self.n_z
        return self.g[:, (lag - 1) * n_z : lag * n_z]


# rows of D filled per reversed copy of z in build_regressors
_ROWS = 4096


def build_regressors(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Stack lag vectors and targets: returns (D, Y) with T rows each.

    Row i corresponds to time index t = p + i in the dataset window;
    its lag blocks are z[t-1], z[t-2], ..., z[t-p] in that order and the
    target is the y part of z[t].

    Row i of D, z[p + i - 1], ..., z[i] flattened, is one contiguous
    slice of the time-reversed, flattened z, so D is filled by copying
    whole rows of a sliding window over it.  The reversed copy of z is
    made ``_ROWS`` rows at a time, so it adds little to the peak memory
    that D sets.  D is a fresh C-contiguous array and must stay so:
    ``empirical_moments`` forms D^T D as one syrk, and its rounding,
    which depends on the layout, carries through Q_T to the fitted
    models and their certified errors.
    """
    z, p, t, n_z = ds.z, ds.p, ds.t_count, ds.n_z
    d = np.empty((t, p * n_z))
    for i0 in range(0, t, _ROWS):
        i1 = min(i0 + _ROWS, t)
        # window j of this reversed stretch starts at z[i1 + p - 2 - j],
        # which is where row i1 - 1 - j of D starts
        flat = z[i0 : i1 + p - 1][::-1].ravel()
        d[i0:i1] = np.lib.stride_tricks.sliding_window_view(flat, p * n_z)[::n_z][::-1]
    y = z[p:, ds.n_u :].copy()
    return d, y


def empirical_moments(d: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample moments Q_T = D^T D / T and N_T = Y^T D / T."""
    d = np.asarray(d, dtype=float)
    y = np.asarray(y, dtype=float)
    if d.shape[0] != y.shape[0]:
        raise DimensionMismatch("D and Y must have the same number of rows")
    if d.shape[0] == 0:
        raise InsufficientData("no regression rows")
    t = d.shape[0]
    # finite data may still overflow here; solve_normal_equations names it
    with np.errstate(over="ignore", invalid="ignore"):
        return d.T @ d / t, y.T @ d / t


def solve_normal_equations(q: np.ndarray, n: np.ndarray, ridge: float) -> np.ndarray:
    """Solve G (Q + ridge I) = N by symmetric factorization.

    Raises NumericalError when Q + ridge I or N is not finite (moments
    of finite data whose products overflow), and, with
    lambda_min(Q + ridge I) and the ridge, when Q + ridge I is not
    numerically positive definite.
    """
    q = np.asarray(q, dtype=float)
    n = np.asarray(n, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = q + ridge * np.eye(q.shape[0])
        lhs = 0.5 * (lhs + lhs.T)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(n))):
        raise NumericalError(
            "the moments Q + ridge I and N are not finite: the data's lag products "
            "overflow double precision; rescale the channels"
        )
    try:
        cho = scipy.linalg.cho_factor(lhs)
    except np.linalg.LinAlgError as exc:
        lam = float(np.linalg.eigvalsh(lhs).min())
        raise NumericalError(
            f"Q + ridge I is not positive definite (lambda_min(Q + ridge I) = {lam:.6e}, "
            f"ridge = {ridge:.6e})"
        ) from exc
    return scipy.linalg.cho_solve(cho, n.T).T


def fit_varx(ds: Dataset, alpha: float) -> VarxModel:
    """Ridge VARX fit G = N_T (Q_T + (alpha / T) I)^{-1}."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    d, y = build_regressors(ds)
    q_t, n_t = empirical_moments(d, y)
    g = solve_normal_equations(q_t, n_t, alpha / ds.t_count)
    return VarxModel(g, ds.p, alpha)


def predict_varx(model: VarxModel, ds: Dataset) -> tuple[np.ndarray, float]:
    """One-step predictions and mean squared error on a dataset.

    Returns (yhat, mse) where yhat has one row per regression row and
    mse averages ||y[t] - yhat[t]||^2 over those rows.
    """
    if ds.p != model.p:
        raise OrderMismatch(f"dataset lag order {ds.p} != model lag order {model.p}")
    if ds.n_z != model.n_z:
        raise DimensionMismatch(f"dataset n_z {ds.n_z} != model n_z {model.n_z}")
    d, y = build_regressors(ds)
    yhat = d @ model.g.T
    mse = float(np.mean(np.sum((y - yhat) ** 2, axis=1)))
    return yhat, mse
