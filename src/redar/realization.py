"""Predictor realizations and innovation-form extraction.

A fitted lag polynomial G defines a finite-impulse-response one-step
predictor yhat[t] = G d[t].  Its delay-line realization stores the p
most recent z samples (newest first) in the state:

    A = block down-shift (nilpotent),  B = inject z[t] into the top slot,
    C = G,                             D = 0.

The observer form (``observer_form``) realizes the same G on p n_y
states; it serves as the reference predictor G_opt in experiments.
Balanced truncation of the delay line gives the reduced predictor,
and splitting the reduced input matrix into its u and y columns
recovers a state-space model in innovation form: with B_r = [Bhat Khat]
and Chat = C_r, the predictor of (Ahat, Bhat, Chat, Khat) with
Ahat = A_r + Khat Chat is exactly the reduced system.

Every predictor, whatever its realization, runs through one routine,
``run_predictor``.  It evaluates the state recursion 64 samples at a
time: within a block the outputs are O_L x0 + T_L z_blk (free response
plus block-Toeplitz forced response) and the next block starts from
A^L x0 + R_L z_blk.  That is the recursion itself with its sums
regrouped, so the outputs are exact up to roundoff and strictly causal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalError
from .linalg import StateSpace, _require_stable, _set_matrices, balanced_truncate
from .varx import Dataset, VarxModel, _as_samples, fit_varx

__all__ = [
    "PredictorRealization",
    "IdentifiedModel",
    "FitResult",
    "predictor_from_coefficients",
    "observer_form",
    "extract_innovation_form",
    "fit_redar",
    "run_predictor",
    "predict_with_model",
    "prediction_mse",
]


@dataclass(frozen=True, eq=False)
class PredictorRealization:
    """State-space predictor fed by z = (u, y); kind is full or reduced."""

    ss: StateSpace
    kind: str

    def __post_init__(self):
        if self.kind not in ("full", "reduced"):
            raise ValueError(f"kind must be 'full' or 'reduced', got {self.kind!r}")

    @property
    def order(self) -> int:
        return self.ss.n_states

    @property
    def n_u(self) -> int:
        return self.ss.n_inputs - self.ss.n_outputs

    @property
    def n_y(self) -> int:
        return self.ss.n_outputs


@dataclass(frozen=True, eq=False)
class IdentifiedModel:
    """Innovation-form estimate (Ahat, Bhat, Chat, Dhat = 0, Khat)."""

    _MATRICES = (
        ("a", "Ahat", "order", "order"),
        ("b", "Bhat", "order", "n_u"),
        ("c", "Chat", "n_y", "order"),
        ("d", "Dhat", "n_y", "n_u"),
        ("k", "Khat", "order", "n_y"),
    )

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    k: np.ndarray
    order: int = field(init=False, repr=False)
    n_u: int = field(init=False, repr=False)
    n_y: int = field(init=False, repr=False)

    def __post_init__(self):
        _set_matrices(self, self._MATRICES)
        if np.any(self.d != 0.0):
            raise ValueError("identified models are strictly proper: Dhat must be zero")

    def predictor(self) -> StateSpace:
        """One-step predictor (A - K C, [B K], C, 0) driven by z."""
        return _innovation_predictor(self)


def _innovation_predictor(model) -> StateSpace:
    """One-step predictor (A - K C, [B K], C, 0), driven by z = (u, y), of
    an innovation-form model: one with matrices a, b, c, k and sizes n_u, n_y."""
    return StateSpace(
        model.a - model.k @ model.c,
        np.hstack([model.b, model.k]),
        model.c,
        np.zeros((model.n_y, model.n_u + model.n_y)),
    )


def predictor_from_coefficients(g, p: int, n_u: int, n_y: int) -> PredictorRealization:
    """Delay-line realization of yhat[t] = G d[t] (newest lag first)."""
    g = np.atleast_2d(np.asarray(g, dtype=float))
    n_z = n_u + n_y
    if g.shape != (n_y, p * n_z):
        raise DimensionMismatch(f"G has shape {g.shape}, expected {(n_y, p * n_z)}")
    n = p * n_z
    a = np.zeros((n, n))
    for j in range(1, p):
        a[j * n_z : (j + 1) * n_z, (j - 1) * n_z : j * n_z] = np.eye(n_z)
    b = np.zeros((n, n_z))
    b[:n_z] = np.eye(n_z)
    d = np.zeros((n_y, n_z))
    return PredictorRealization(StateSpace(a, b, g, d), kind="full")


def observer_form(h_full: PredictorRealization) -> StateSpace:
    """The delay line's predictor yhat[t] = G d[t] on p n_y states.

    State block i holds the part of the output i steps ahead that the
    samples seen so far fix: A = block up-shift, B = [G_1; ...; G_p]
    (the lag blocks of G = C, newest first), C = [I 0 ... 0], D = 0.
    """
    if h_full.kind != "full":
        raise ValueError("the observer form is read off a delay line")
    n_y, n_z = h_full.n_y, h_full.ss.n_inputs
    n = h_full.order // n_z * n_y
    b = h_full.ss.c.reshape(n_y, -1, n_z).swapaxes(0, 1).reshape(n, n_z)
    return StateSpace(np.eye(n, k=n_y), b, np.eye(n_y, n), h_full.ss.d)


def extract_innovation_form(h_reduced: PredictorRealization) -> IdentifiedModel:
    """Read an innovation-form model off a reduced predictor.

    Bhat takes the first n_u input columns, Khat the remaining n_y,
    Chat = C_r and Ahat = A_r + Khat Chat; the model's own predictor then
    reproduces the reduced system exactly.
    """
    if h_reduced.kind != "reduced":
        raise ValueError("extraction expects a reduced predictor")
    ss = h_reduced.ss
    n_u = h_reduced.n_u
    b_hat = ss.b[:, :n_u]
    k_hat = ss.b[:, n_u:]
    c_hat = ss.c
    a_hat = ss.a + k_hat @ c_hat
    d_hat = np.zeros((h_reduced.n_y, n_u))
    return IdentifiedModel(a_hat, b_hat, c_hat, d_hat, k_hat)


@dataclass(frozen=True)
class FitResult:
    """Every stage of one pipeline run, from lag polynomial to model."""

    varx: VarxModel
    full: PredictorRealization
    reduced: PredictorRealization
    certified_error: float
    model: IdentifiedModel


def fit_redar(ds: Dataset, alpha: float, phi: float) -> FitResult:
    """Full pipeline: ridge VARX fit, delay-line realization, balanced
    reduction to budget ``phi``, innovation-form extraction.

    Raises NumericalError when the reduced predictor is not stable.  The
    delay line is stable, but balancing scales each kept state by one
    over the square root of its Hankel singular value, so a ``phi`` small
    enough to keep states whose values are roundoff can break that.
    """
    varx = fit_varx(ds, alpha)
    full = predictor_from_coefficients(varx.g, varx.p, ds.n_u, ds.n_y)
    reduced_ss, certified = balanced_truncate(full.ss, phi)
    _require_stable(
        reduced_ss,
        NumericalError,
        f"the predictor reduced to order {reduced_ss.n_states} at phi = {phi!r} "
        "has spectral radius {:.6g}; a larger phi drops its roundoff-level states",
    )
    reduced = PredictorRealization(reduced_ss, kind="reduced")
    model = extract_innovation_form(reduced)
    return FitResult(varx=varx, full=full, reduced=reduced, certified_error=certified, model=model)


# Samples per block of run_predictor; T_L grows as L^2.  One core: on
# 4,096 to 10,000 samples, 8- to 64-state predictors take 0.5-1.1 ms at
# L = 32, 0.8-1.4 ms at 64 and 2.4-3.4 ms at 128; on 2^17 samples a
# 64-state one takes 24, 18 and 18 ms.
_BLOCK = 64


def run_predictor(ss: StateSpace, z: np.ndarray) -> np.ndarray:
    """Run a predictor recursion over a joint signal from zero state.

    Output row t depends on z[0..t-1] only (strict one-step causality:
    the feedthrough of predictor realizations is zero).

    The recursion x[t+1] = A x[t] + B z[t], y[t] = C x[t] + D z[t] is
    evaluated in blocks of L = min(64, len(z)) samples.  Unrolled over a
    block that starts in state x0, it reads

        y_blk = O_L x0 + T_L z_blk,    x_next = A^L x0 + R_L z_blk,

    with O_L the stacked C A^k, T_L the lower block-Toeplitz matrix of
    the Markov parameters D, CB, ..., C A^(L-2) B, and
    R_L = [A^(L-1) B ... AB B].  This is the same recursion regrouped,
    not a truncated impulse response: only the summation order differs
    from a per-sample loop.  T_L and R_L act on all blocks in one
    product each, a prefix scan of about log2(len(z) / L) stacked
    products carries the state across block starts, and a last partial
    block of r samples uses the leading r-block corner of O_L and T_L.

    Raises ValueError when z holds a non-finite entry: inside a block,
    0 * NaN in the upper triangle of T_L would reach earlier outputs.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != ss.n_inputs:
        raise DimensionMismatch(f"z has shape {z.shape}, expected (*, {ss.n_inputs})")
    if not np.all(np.isfinite(z)):
        raise ValueError("z contains non-finite entries")
    t_count, n_in = z.shape
    n_out = ss.n_outputs
    out = np.empty((t_count, n_out))
    if t_count == 0:
        return out
    block = min(_BLOCK, t_count)
    a, b, c = ss.a, ss.b, ss.c
    # [B AB ...] and [C; CA; ...] to w >= block terms by doubling, power = A^w
    krylov, observability, power, width = b, c, a, 1
    while width < block:
        krylov = np.hstack([krylov, power @ krylov])
        observability = np.vstack([observability, observability @ power])
        power = power @ power
        width *= 2
    o_l = observability[: block * n_out]
    n = ss.n_states
    r_l = krylov[:, : block * n_in].reshape(n, block, n_in)[:, ::-1].reshape(n, block * n_in)
    # T_L block (i, j) is Markov parameter i - j: D, then the C A^k B
    # blocks of O_L B; lags above the diagonal are negative and read the
    # zero blocks padded at the end
    markov = np.zeros((2 * block - 1, n_out, n_in))
    markov[0] = ss.d
    markov[1:block] = (o_l[: (block - 1) * n_out] @ b).reshape(block - 1, n_out, n_in)
    lag = np.subtract.outer(np.arange(block), np.arange(block))
    t_l = np.take(markov, lag, axis=0).swapaxes(1, 2).reshape(block * n_out, block * n_in)

    n_full = t_count // block
    head = n_full * block
    z_full = z[:head].reshape(n_full, block * n_in)
    # block starts x_(k+1) = A^L x_k + R_L z_k from x_0 = 0, as a prefix
    # scan: after the pass with stride m each start holds its last 2m terms
    starts = np.zeros((n_full + 1, n))
    np.matmul(z_full, r_l.T, out=starts[1:])
    a_l = power if width == block else np.linalg.matrix_power(a, block)
    stride = 1
    while stride < n_full:
        starts[stride:] += starts[:-stride] @ a_l.T
        a_l, stride = a_l @ a_l, 2 * stride
    y_full = out[:head].reshape(n_full, block * n_out)
    np.matmul(z_full, t_l.T, out=y_full)
    y_full += starts[:n_full] @ o_l.T

    rest = t_count - head
    if rest:
        rows = rest * n_out
        tail = o_l[:rows] @ starts[n_full] + t_l[:rows, : rest * n_in] @ z[head:].ravel()
        out[head:] = tail.reshape(rest, n_out)
    return out


def predict_with_model(model: IdentifiedModel, u, y) -> np.ndarray:
    """One-step predictions of an identified model on given signals.

    ``u`` and ``y`` are (samples, channels) arrays; 1-d arrays are read
    as a single channel.
    """
    u = _as_samples(u)
    y = _as_samples(y)
    if u.shape[0] != y.shape[0]:
        raise DimensionMismatch("u and y must have the same number of samples")
    if u.shape[1] != model.n_u or y.shape[1] != model.n_y:
        raise DimensionMismatch("channel counts do not match the model")
    return run_predictor(model.predictor(), np.hstack([u, y]))


def prediction_mse(y: np.ndarray, yhat: np.ndarray, discard: int = 0) -> float:
    """Mean of ||y[t] - yhat[t]||^2 over t >= discard."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise DimensionMismatch(f"shape mismatch {y.shape} vs {yhat.shape}")
    if discard >= y.shape[0]:
        raise ValueError("discard leaves no samples")
    err = (y[discard:] - yhat[discard:]).ravel()
    return float(err @ err) / (y.shape[0] - discard)
