"""Discrete-time state-space kernels.

Everything downstream (moment oracles, balanced reduction, bound
constants) is built on the handful of primitives in this module:
Lyapunov and Riccati solves, spectral radius, H-infinity norms and
square-root balanced truncation.  All systems are discrete time,

    x[t+1] = A x[t] + B u[t],    y[t] = C x[t] + D u[t].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotStabilizable, NotStable, NumericalError

__all__ = [
    "StateSpace",
    "spectral_radius",
    "solve_discrete_lyapunov",
    "solve_discrete_riccati",
    "kalman_gain",
    "frequency_response",
    "peak_gain",
    "hinf_norm",
    "hankel_singular_values",
    "balanced_truncate",
    "parallel_difference",
]

# Spectral radii must stay below 1 by at least this margin for a system
# to count as stable; keeps Lyapunov solves well posed.
STABILITY_MARGIN = 1e-9


def _as_matrix(m, rows=None, cols=None, name="matrix", square=False):
    """Validated read-only float copy of a 2-d matrix.

    Shape faults (not 2-d, not square when ``square`` is set, a row or
    column count other than ``rows`` or ``cols``) raise DimensionMismatch;
    non-finite entries raise ValueError.  Empty matrices pass, so an
    order-0 system has a 0 x 0 state matrix.
    """
    a = np.atleast_2d(np.array(m, dtype=float))
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    if rows is not None and a.shape[0] != rows:
        raise DimensionMismatch(f"{name} has {a.shape[0]} rows, expected {rows}")
    if cols is not None and a.shape[1] != cols:
        raise DimensionMismatch(f"{name} has {a.shape[1]} columns, expected {cols}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Immutable discrete-time LTI realization (A, B, C, D)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = _as_matrix(self.a, name="A", square=True)
        n = a.shape[0]
        b = _as_matrix(self.b, rows=n, name="B")
        c = _as_matrix(self.c, cols=n, name="C")
        d = _as_matrix(self.d, rows=c.shape[0], cols=b.shape[1], name="D")
        for name, m in dict(a=a, b=b, c=c, d=d).items():
            object.__setattr__(self, name, m)

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]


def spectral_radius(a) -> float:
    """Largest eigenvalue magnitude of a square matrix (0 for empty)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _require_stable(a, what="A"):
    sr = spectral_radius(a)
    if sr >= 1.0 - STABILITY_MARGIN:
        raise NotStable(f"{what} has spectral radius {sr:.12g}, needs < 1")
    return sr


def solve_discrete_lyapunov(a, w) -> np.ndarray:
    """Solve P = A P A^T + W for stable A.

    Parameters
    ----------
    a : (n, n) array_like, spectral radius < 1.
    w : (n, n) array_like, symmetric.

    Returns
    -------
    P : (n, n) ndarray, symmetric, with residual
        ``||P - A P A^T - W||_F <= 1e-10 * (1 + ||W||_F)``.
    """
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    if a.shape != w.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {w.shape}")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    _require_stable(a)
    w = 0.5 * (w + w.T)
    p = scipy.linalg.solve_discrete_lyapunov(a, w)
    p = 0.5 * (p + p.T)
    tol = 1e-10 * (1.0 + float(np.linalg.norm(w)))
    for _ in range(3):
        resid = p - a @ p @ a.T - w
        if np.linalg.norm(resid) <= tol:
            return p
        p = p + scipy.linalg.solve_discrete_lyapunov(a, 0.5 * (resid + resid.T))
        p = 0.5 * (p + p.T)
    resid = np.linalg.norm(p - a @ p @ a.T - w)
    if resid > tol:
        raise NumericalError(f"Lyapunov residual {resid:.3e} exceeds tolerance {tol:.3e}")
    return p


def solve_discrete_riccati(a, b, q, r, tol=1e-12, max_iter=10_000):
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Solves ``P = A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A + Q`` by the
    structure-preserving doubling iteration, which converges quadratically
    for stabilizable (A, B) and positive semidefinite Q, positive definite R.

    Returns
    -------
    P : (n, n) ndarray, symmetric positive semidefinite.

    Raises
    ------
    NotStabilizable
        If the iteration does not converge within ``max_iter`` steps or the
        implied closed loop ``A - B F`` is not stable.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n) or r.shape != (b.shape[1], b.shape[1]):
        raise DimensionMismatch("Riccati operand shapes are inconsistent")

    ak = a.copy()
    gk = b @ np.linalg.solve(r, b.T)
    hk = 0.5 * (q + q.T)
    eye = np.eye(n)
    converged = False
    for _ in range(max_iter):
        m = eye + gk @ hk
        try:
            m_inv_a = np.linalg.solve(m, ak)
            m_inv_g = np.linalg.solve(m, gk)
        except np.linalg.LinAlgError as exc:
            raise NotStabilizable(f"doubling iteration broke down: {exc}") from exc
        h_next = hk + ak.T @ hk @ m_inv_a
        g_next = gk + ak @ m_inv_g @ ak.T
        a_next = ak @ m_inv_a
        step = np.linalg.norm(h_next - hk)
        ak, gk, hk = a_next, 0.5 * (g_next + g_next.T), 0.5 * (h_next + h_next.T)
        if step <= tol * max(1.0, np.linalg.norm(hk)):
            converged = True
            break
    if not converged or not np.all(np.isfinite(hk)):
        raise NotStabilizable("Riccati doubling iteration did not converge")
    p = hk
    gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    if b.shape[1] and spectral_radius(a - b @ gain) >= 1.0:
        raise NotStabilizable("Riccati solution does not stabilize the pair (A, B)")
    return p


def kalman_gain(a, c, w, v):
    """Steady-state one-step predictor gain for x[t+1] = A x + noise, y = C x + noise.

    Solves the dual Riccati with process covariance ``w`` and measurement
    covariance ``v`` and returns ``(K, P)`` with ``rho(A - K C) < 1``.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float).reshape(-1, a.shape[0])
    p = solve_discrete_riccati(a.T, c.T, np.asarray(w, float), np.asarray(v, float))
    k = np.linalg.solve(c @ p @ c.T + np.asarray(v, float), c @ p @ a.T).T
    return k, p


def frequency_response(sys: StateSpace, zs) -> np.ndarray:
    """Evaluate C (zI - A)^{-1} B + D at each complex point in ``zs``.

    Returns an array of shape ``(len(zs), n_outputs, n_inputs)``.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    n = sys.n_states
    if n == 0:
        return np.broadcast_to(sys.d.astype(complex), (zs.size,) + sys.d.shape).copy()
    eye = np.eye(n)
    resolvent_rhs = np.broadcast_to(sys.b.astype(complex), (zs.size, n, sys.n_inputs))
    shifted = zs[:, None, None] * eye - sys.a
    x = np.linalg.solve(shifted, resolvent_rhs)
    return sys.c @ x + sys.d


def peak_gain(sys: StateSpace, n_points: int = 4096) -> float:
    """Max largest singular value of the response over a unit-circle grid."""
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return 0.0
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    h = frequency_response(sys, np.exp(1j * theta))
    return float(np.linalg.svd(h, compute_uv=False)[:, 0].max())


def _bilinear_to_continuous(sys: StateSpace):
    # z = (1 + s) / (1 - s) maps the unit circle onto the imaginary axis
    # and preserves the H-infinity norm exactly.
    n = sys.n_states
    ident = np.eye(n)
    f = np.linalg.solve(sys.a + ident, np.hstack([sys.a - ident, sys.b]))
    ac, bc_half = f[:, :n], f[:, n:]
    cc_half = np.linalg.solve((sys.a + ident).T, sys.c.T).T
    dc = sys.d - cc_half @ sys.b
    return ac, np.sqrt(2.0) * bc_half, np.sqrt(2.0) * cc_half, dc


def _has_imaginary_eigenvalue(ac, bc, cc, dc, gamma):
    # True when gamma is at most the norm.  A singular R, or one so ill
    # conditioned that the Hamiltonian overflows, means gamma <= ||Dc||.
    m = dc.shape[1]
    r = gamma * gamma * np.eye(m) - dc.T @ dc
    try:
        r_inv_dt = np.linalg.solve(r, dc.T)
        r_inv_bt = np.linalg.solve(r, bc.T)
    except np.linalg.LinAlgError:
        return True
    a_loop = ac + bc @ r_inv_dt @ cc
    ham = np.block(
        [
            [a_loop, bc @ r_inv_bt],
            [-cc.T @ (np.eye(dc.shape[0]) + dc @ r_inv_dt) @ cc, -a_loop.T],
        ]
    )
    if not np.all(np.isfinite(ham)):
        return True
    eig = np.linalg.eigvals(ham)
    return bool(np.any(np.abs(eig.real) <= 1e-8 * np.maximum(1.0, np.abs(eig))))


def hinf_norm(sys: StateSpace, tol: float = 1e-6, n_grid: int = 4096) -> float:
    """H-infinity norm of a stable discrete-time system.

    Bisection on the bounded-real characterization (Boyd & Balakrishnan
    1990; Bruinsma & Steinbuch 1990): gamma exceeds the norm exactly when
    the Hamiltonian of the bilinear-transformed system has no
    imaginary-axis eigenvalue.  The peak over an ``n_grid``-point
    unit-circle grid is a certified lower bound; the upper end starts a
    factor (1 + tol) above it and widens geometrically until the test
    clears it, then bisection closes the bracket.

    Returns ``g`` with ``true <= g <= true * (1 + tol)``, or exactly 0.0
    when D and one of B, C are zero.  Poles within about 1e-5 of the unit
    circle can push ``g`` above that band, never below ``true``; within
    about 1e-8 no level clears the test and NumericalError is raised.
    """
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return 0.0
    if sys.n_states == 0:
        return float(np.linalg.svd(sys.d, compute_uv=False)[0])
    _require_stable(sys.a)
    if not sys.d.any() and not (sys.b.any() and sys.c.any()):
        return 0.0
    lo = max(peak_gain(sys, n_points=n_grid), 1e-300)
    cont = _bilinear_to_continuous(sys)
    gap = tol
    hi = lo * (1.0 + gap)
    while _has_imaginary_eigenvalue(*cont, hi):
        lo, gap = hi, 4.0 * gap
        hi = lo * (1.0 + gap)
        if not np.isfinite(hi * hi):
            raise NumericalError("no finite level clears the H-infinity norm test")
    while hi - lo > tol * lo:
        gamma = np.sqrt(lo) * np.sqrt(hi)
        if _has_imaginary_eigenvalue(*cont, gamma):
            lo = gamma
        else:
            hi = gamma
    return float(hi)


def _psd_factor(w):
    # Factor L with L L^T = W for symmetric PSD W, tolerating tiny
    # negative eigenvalues from roundoff.
    vals, vecs = np.linalg.eigh(0.5 * (w + w.T))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def _gramian_factors(sys: StateSpace):
    wc = solve_discrete_lyapunov(sys.a, sys.b @ sys.b.T)
    wo = solve_discrete_lyapunov(sys.a.T, sys.c.T @ sys.c)
    return _psd_factor(wc), _psd_factor(wo)


def hankel_singular_values(sys: StateSpace) -> np.ndarray:
    """Hankel singular values of a stable system, descending."""
    if sys.n_states == 0:
        return np.zeros(0)
    lc, lo = _gramian_factors(sys)
    return np.linalg.svd(lo.T @ lc, compute_uv=False)


def balanced_truncate(sys: StateSpace, budget: float):
    """Balanced truncation with a certified H-infinity error budget.

    Keeps the smallest order ``r`` whose discarded Hankel singular values
    satisfy ``2 * sum(sigma[r:]) <= budget`` and returns
    ``(reduced, certified_error)`` where ``certified_error`` is that tail
    sum.  The feedthrough D is preserved.  ``budget >= 0``; full order
    always satisfies the budget, so the search cannot fail.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    n = sys.n_states
    if n == 0:
        return StateSpace(sys.a, sys.b, sys.c, sys.d), 0.0
    _require_stable(sys.a)
    lc, lo = _gramian_factors(sys)
    u, sv, vt = np.linalg.svd(lo.T @ lc)
    # tail[r] = certified error when keeping r states
    tail = 2.0 * np.concatenate([np.cumsum(sv[::-1])[::-1], [0.0]])
    r = int(np.argmax(tail <= budget))
    certified = float(tail[r])
    if r == 0:
        reduced = StateSpace(
            np.zeros((0, 0)), np.zeros((0, sys.n_inputs)), np.zeros((sys.n_outputs, 0)), sys.d
        )
        return reduced, certified
    scale = 1.0 / np.sqrt(sv[:r])
    t_right = lc @ vt[:r].T * scale
    t_left = lo @ u[:, :r] * scale
    reduced = StateSpace(
        t_left.T @ sys.a @ t_right, t_left.T @ sys.b, sys.c @ t_right, sys.d
    )
    return reduced, certified


def parallel_difference(sys1: StateSpace, sys2: StateSpace) -> StateSpace:
    """Realization of the error system ``sys1 - sys2``."""
    if sys1.n_inputs != sys2.n_inputs or sys1.n_outputs != sys2.n_outputs:
        raise DimensionMismatch("systems must share input and output dimensions")
    n1, n2 = sys1.n_states, sys2.n_states
    a = np.block(
        [
            [sys1.a, np.zeros((n1, n2))],
            [np.zeros((n2, n1)), sys2.a],
        ]
    )
    b = np.vstack([sys1.b, sys2.b])
    c = np.hstack([sys1.c, -sys2.c])
    return StateSpace(a, b, c, sys1.d - sys2.d)
