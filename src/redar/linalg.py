"""Discrete-time state-space kernels.

Everything downstream (moment oracles, balanced reduction, bound
constants) is built on the handful of primitives in this module:
Lyapunov and Riccati solves, spectral radius, H-infinity norms and
square-root balanced truncation.  All systems are discrete time,

    x[t+1] = A x[t] + B u[t],    y[t] = C x[t] + D u[t].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotStabilizable, NotStable, NumericalError

__all__ = [
    "StateSpace",
    "spectral_radius",
    "solve_discrete_riccati",
    "kalman_gain",
    "frequency_response",
    "markov_parameters",
    "hinf_norm",
    "hankel_singular_values",
    "balanced_truncate",
    "parallel_difference",
]

# Spectral radii must stay below 1 by at least this margin for a system
# to count as stable; keeps Lyapunov solves well posed.
STABILITY_MARGIN = 1e-9

_HINF_TOL = 1e-6  # relative accuracy of hinf_norm


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

    @cached_property
    def _poles(self) -> np.ndarray:
        # Eigenvalues of A, computed once per realization (A is read-only).
        return np.linalg.eigvals(self.a)

    @property
    def _spectral_radius(self) -> float:
        # spectral_radius(A) from the cached poles (0 for no states)
        return float(np.abs(self._poles).max(initial=0.0))


def spectral_radius(a) -> float:
    """Largest eigenvalue magnitude of a square matrix (0 for empty)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _require_stable(a, error=NotStable, message="A has spectral radius {:.12g}, needs < 1"):
    # Eigenvalues of A, a matrix or a StateSpace's cached poles, after the
    # one stability check: a spectral radius sr at or above
    # 1 - STABILITY_MARGIN raises error(message.format(sr)).
    if isinstance(a, StateSpace):
        poles, sr = a._poles, a._spectral_radius
    else:
        poles = np.linalg.eigvals(a)
        sr = float(np.max(np.abs(poles), initial=0.0))
    if sr >= 1.0 - STABILITY_MARGIN:
        raise error(message.format(sr))
    return poles


def _lyapunov(a, w) -> np.ndarray:
    # P = A P A^T + W for an A already checked stable (_require_stable,
    # once, by the caller): the solve and up to three residual
    # refinements.  P is symmetric, with ||P - A P A^T - W||_F at most
    # 1e-10 (1 + ||W||_F); NumericalError if refinement cannot reach it.
    w = 0.5 * (w + w.T)
    p = scipy.linalg.solve_discrete_lyapunov(a, w)
    p = 0.5 * (p + p.T)
    tol = 1e-10 * (1.0 + float(np.linalg.norm(w)))
    for refinements in range(4):
        resid = p - a @ p @ a.T - w
        if (size := np.linalg.norm(resid)) <= tol:
            return p
        if refinements == 3:
            raise NumericalError(f"Lyapunov residual {size:.3e} exceeds tolerance {tol:.3e}")
        p = p + scipy.linalg.solve_discrete_lyapunov(a, 0.5 * (resid + resid.T))
        p = 0.5 * (p + p.T)


def solve_discrete_riccati(a, b, q, r):
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Solves ``P = A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A + Q`` by the
    structure-preserving doubling iteration, which converges quadratically
    for stabilizable (A, B) and positive semidefinite Q, positive definite R.
    It stops once a step moves P by at most 1e-12 max(1, ||P||_F).

    Returns
    -------
    P : (n, n) ndarray, symmetric positive semidefinite.

    Raises
    ------
    NotStabilizable
        If the iteration does not converge within 10,000 steps, an
        iterate or its step norm stops being finite, or the implied
        closed loop ``A - B F`` is not stable.
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
    for _ in range(10_000):
        m = eye + gk @ hk
        try:
            m_inv_a = np.linalg.solve(m, ak)
            m_inv_g = np.linalg.solve(m, gk)
        except np.linalg.LinAlgError as exc:
            raise NotStabilizable(f"doubling iteration broke down: {exc}") from exc
        h_next = hk + ak.T @ hk @ m_inv_a
        g_next = gk + ak @ m_inv_g @ ak.T
        a_next = ak @ m_inv_a
        # a diverging iteration overflows in the iterates or in their norms
        with np.errstate(over="ignore", invalid="ignore"):
            step, size = np.linalg.norm(h_next - hk), np.linalg.norm(h_next)
        if not (
            np.isfinite(step)
            and np.isfinite(size)
            and all(np.all(np.isfinite(x)) for x in (a_next, g_next))
        ):
            raise NotStabilizable("Riccati doubling iteration diverged")
        ak, gk, hk = a_next, 0.5 * (g_next + g_next.T), 0.5 * (h_next + h_next.T)
        if step <= 1e-12 * max(1.0, np.linalg.norm(hk)):
            converged = True
            break
    if not converged:
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
    shifted = zs[:, None, None] * np.eye(n) - sys.a
    # B as a stack of one matrix: numpy < 2 reads an (n, m) right-hand
    # side of an (k, n, n) stack as n vectors
    return sys.c @ np.linalg.solve(shifted, sys.b[None]) + sys.d


def markov_parameters(sys: StateSpace, count: int) -> np.ndarray:
    """Impulse response D, CB, CAB, ..., C A^(count-2) B.

    Returns an array of shape ``(count, n_outputs, n_inputs)``; C is
    applied to the stacked blocks B, AB, ... in one product.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    krylov = [sys.b]
    for _ in range(count - 2):
        krylov.append(sys.a @ krylov[-1])
    out = np.empty((count,) + sys.d.shape)
    out[0] = sys.d
    if count > 1:
        stacked = sys.c @ np.hstack(krylov)
        out[1:] = stacked.reshape(sys.n_outputs, count - 1, sys.n_inputs).swapaxes(0, 1)
    return out


def _start_angles(poles) -> np.ndarray:
    # Sorted unique angles 0, pi and |angle| of each pole: where a gain
    # peak on the circle is most likely, and where a search starts.
    return np.unique(np.concatenate([[0.0, np.pi], np.abs(np.angle(poles))]))


def _peak_gain(h) -> np.ndarray:
    # Largest singular value of each matrix of a stack (..., p, m): the
    # square root of the top eigenvalue of its smaller Gram matrix, H H^*
    # or H^* H, or its norm when p or m is 1 (0 when empty).  Each matrix is
    # first divided by its largest real or imaginary part, so no square
    # overflows.
    h = np.ascontiguousarray(h, dtype=complex)
    parts = h.view(float)  # real and imaginary parts side by side
    scale = np.abs(parts).max(axis=(-2, -1), initial=0.0, keepdims=True)
    scale[scale == 0.0] = 1.0
    if min(h.shape[-2:]) <= 1:
        top = np.square(parts / scale).sum(axis=(-2, -1))
    else:
        h = h / scale
        if h.shape[-2] > h.shape[-1]:
            h = h.swapaxes(-1, -2)
        gram = h @ h.conj().swapaxes(-1, -2)
        if gram.shape[-1] == 2:
            # (a + d)/2 + |((a - d)/2, b)|: a sum of nonnegative terms
            a, d = gram[..., 0, 0].real, gram[..., 1, 1].real
            top = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(gram[..., 0, 1]))
        else:
            top = np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)
    return np.sqrt(top) * scale[..., 0, 0]


def _max_gain(sys: StateSpace, theta) -> float:
    # Largest singular value of G(exp(i theta)) over the given angles.
    h = frequency_response(sys, np.exp(1j * np.asarray(theta, dtype=float)))
    return float(_peak_gain(h).max())


def _bilinear_to_continuous(sys: StateSpace):
    # z = (1 + s) / (1 - s) maps the unit circle onto the imaginary axis
    # and preserves the H-infinity norm exactly.  With X = (A + I)^{-1}
    # from one solve: A_c = I - 2 X, B_c = sqrt(2) X B, C_c = sqrt(2) C X
    # and D_c = D - C X B.
    n = sys.n_states
    ident = np.eye(n)
    f = np.linalg.solve(sys.a + ident, np.hstack([ident, sys.b]))
    x, bc_half = f[:, :n], f[:, n:]
    cc_half = sys.c @ x
    dc = sys.d - sys.c @ bc_half
    return ident - 2.0 * x, np.sqrt(2.0) * bc_half, np.sqrt(2.0) * cc_half, dc


def _hamiltonian(ac, bc, cc, dc, gamma) -> np.ndarray:
    # Hamiltonian of the continuous-time system at level gamma, whose
    # imaginary eigenvalues s = i w are where a singular value of G equals
    # gamma; R = gamma^2 I - D^T D > 0 as gamma > ||D|| = ||G(-1)||.  With
    # [X1 X2] = R^{-1} [D^T C, B^T] from one solve it is
    #   [ A + B X1                  B X2          ]
    #   [ -(C^T C + (D^T C)^T X1)   -(A + B X1)^T ].
    n = ac.shape[0]
    r = gamma * gamma * np.eye(dc.shape[1]) - dc.T @ dc
    dtc = dc.T @ cc
    x = np.linalg.solve(r, np.hstack([dtc, bc.T]))
    ham = np.empty((2 * n, 2 * n))
    np.matmul(bc, x, out=ham[:n])
    ham[:n, :n] += ac
    ham[n:, :n] = -(cc.T @ cc + dtc.T @ x[:, :n])
    ham[n:, n:] = -ham[:n, :n].T
    return ham


def _crossing_angles(ac, bc, cc, dc, gamma):
    # Angles theta = 2 atan(w) in [0, pi] of the Hamiltonian eigenvalues
    # on (or within the test's reach of) the imaginary axis s = i w.
    try:
        eig = np.linalg.eigvals(_hamiltonian(ac, bc, cc, dc, gamma))
    except np.linalg.LinAlgError as exc:  # non-finite entries, or no convergence
        raise NumericalError(f"the Hamiltonian at level {gamma:.6g}: {exc}") from None
    axis = eig[np.abs(eig.real) <= 1e-8 * np.maximum(1.0, np.abs(eig))]
    return np.unique(2.0 * np.arctan(np.abs(axis.imag)))


def hinf_norm(sys: StateSpace) -> float:
    """H-infinity norm of a stable discrete-time system.

    Level-set midpoint iteration (Bruinsma & Steinbuch 1990; Boyd &
    Balakrishnan 1990).  ``lo`` starts as the largest gain at z = 1, z = -1
    and the pole angles, or the largest Markov-parameter entry (D and
    C A^(k-1) B, k <= n: Fourier coefficients of G) if larger.  At
    ``gamma = lo (1 + tol)``, tol = ``_HINF_TOL`` = 1e-6, the Hamiltonian
    of the bilinear-transformed system gives the angles where G's
    singular values cross gamma; the best gain at those angles and the
    midpoints between them becomes ``lo`` while it exceeds gamma.
    Otherwise gamma is certified: any interval above it would hold a
    midpoint.

    Returns ``g`` with ``true <= g <= true * (1 + tol)``, or exactly 0.0
    when every Markov parameter is zero.
    """
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return 0.0
    if sys.n_states == 0:
        return float(_peak_gain(sys.d))
    poles = _require_stable(sys)
    markov = np.abs(markov_parameters(sys, sys.n_states + 1)).max()
    if markov == 0.0:
        return 0.0
    lo = max(_max_gain(sys, _start_angles(poles)), markov)
    cont = _bilinear_to_continuous(sys)
    while True:
        gamma = lo * (1.0 + _HINF_TOL)
        if not 0.0 < gamma * gamma < np.inf:
            raise NumericalError(f"level {gamma!r} is out of floating-point range")
        theta = _crossing_angles(*cont, gamma)
        mids = 0.5 * (theta[1:] + theta[:-1])
        if not theta.size or (best := _max_gain(sys, np.concatenate([theta, mids]))) <= gamma:
            return float(gamma)
        lo = best


def _psd_factor(w):
    # Factor L with L L^T = W for symmetric PSD W, tolerating tiny
    # negative eigenvalues from roundoff.
    vals, vecs = np.linalg.eigh(0.5 * (w + w.T))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def _gramian_factors(sys: StateSpace):
    # for a stable A only: the caller checks it once
    wc = _lyapunov(sys.a, sys.b @ sys.b.T)
    wo = _lyapunov(sys.a.T, sys.c.T @ sys.c)
    return _psd_factor(wc), _psd_factor(wo)


def hankel_singular_values(sys: StateSpace) -> np.ndarray:
    """Hankel singular values of a stable system, descending."""
    if sys.n_states == 0:
        return np.zeros(0)
    _require_stable(sys)
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
    if not budget >= 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    n = sys.n_states
    if n == 0:
        return StateSpace(sys.a, sys.b, sys.c, sys.d), 0.0
    _require_stable(sys)
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
