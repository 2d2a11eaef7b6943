"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (series
sums, explicit loops, textbook recursions) and shares no code with the
implementations under test; ``envelope_scan_loop`` calls ``hinf_norm``,
the kernel it is the exhaustive driver of, and the ledger scans call
``build_ledger`` and ``expected_error_bound``, whose candidate choice
they drive.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from redar import (
    Dataset,
    SchemaError,
    StateSpace,
    build_ledger,
    expected_error_bound,
    hard_floor,
    hinf_norm,
)


def lyapunov_series(a, w, max_terms=100_000, tol=1e-14):
    """Sum A^k W (A^T)^k until the terms stop mattering."""
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    term = w.copy()
    acc = w.copy()
    for _ in range(max_terms):
        term = a @ term @ a.T
        acc = acc + term
        if np.linalg.norm(term) <= tol * max(1.0, np.linalg.norm(acc)):
            return acc
    raise RuntimeError("series did not converge; is A stable?")


def charpoly_coefficients(a):
    """Characteristic polynomial by the Faddeev-LeVerrier recursion."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def spectral_radius_roots(a):
    """Spectral radius via the characteristic polynomial roots."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.roots(charpoly_coefficients(a)))))


def scalar_dare_fixed_point(a, b, q, r, iters=10_000, tol=1e-14):
    """Scalar discrete Riccati equation by plain fixed-point iteration."""
    p = q
    for _ in range(iters):
        p_next = q + a * p * a - (a * p * b) ** 2 / (r + b * p * b)
        if abs(p_next - p) <= tol * max(1.0, abs(p_next)):
            return p_next
        p = p_next
    raise RuntimeError("scalar Riccati iteration did not converge")


def response_series(ss, z, tol=1e-16, max_terms=100_000):
    """Transfer function at one point by the truncated impulse series.

    Valid for |z| strictly above the spectral radius; terms decay
    geometrically so the truncation error is negligible at ``tol``.
    """
    h = ss.d.astype(complex).copy()
    m = ss.b.astype(complex)
    zinv = 1.0 / z
    for k in range(1, max_terms):
        term = (ss.c @ m) * zinv**k
        h += term
        if np.linalg.norm(term) <= tol * max(1.0, np.linalg.norm(h)) and k > ss.n_states:
            return h
        m = ss.a @ m
    raise RuntimeError("impulse series did not converge; |z| too close to rho(A)?")


def grid_gain(ss, radius=1.0, n_points=4096):
    """Peak singular value over a circle grid, one explicit solve per point."""
    best = 0.0
    n = ss.n_states
    for j in range(n_points):
        z = radius * np.exp(2j * np.pi * j / n_points)
        if n:
            h = ss.c @ np.linalg.solve(z * np.eye(n) - ss.a, ss.b) + ss.d
        else:
            h = ss.d.astype(complex)
        if h.size:
            best = max(best, float(np.linalg.svd(h, compute_uv=False)[0]))
    return best


def refined_peak(ss, n_points=65_536, starts=8, rounds=6):
    """Peak singular value on the unit circle, from below.

    Evaluates an ``n_points`` grid plus the pole angles, then zooms in
    around the ``starts`` best points: each round evaluates 65 points
    across the current window and shrinks it 16-fold around the best.
    """
    n = ss.n_states

    def gains(theta):
        out = np.empty(theta.size)
        for chunk in np.array_split(np.arange(theta.size), max(1, theta.size // 4096)):
            z = np.exp(1j * theta[chunk])
            rhs = np.broadcast_to(ss.b.astype(complex), (chunk.size, n, ss.n_inputs))
            h = ss.c @ np.linalg.solve(z[:, None, None] * np.eye(n) - ss.a, rhs) + ss.d
            out[chunk] = np.linalg.svd(h, compute_uv=False)[:, 0]
        return out

    theta = np.concatenate(
        [2.0 * np.pi * np.arange(n_points) / n_points, np.angle(np.linalg.eigvals(ss.a))]
    )
    values = gains(theta)
    best = float(values.max())
    for center in theta[np.argsort(values)[-starts:]]:
        width = 2.0 * np.pi / n_points
        for _ in range(rounds):
            window = center + np.linspace(-width, width, 65)
            values = gains(window)
            center, best = window[values.argmax()], max(best, float(values.max()))
            width /= 16.0
    return best


def hamiltonian_block(ac, bc, cc, dc, gamma):
    """Hamiltonian of a continuous-time system at level gamma, assembled
    block by block with two solves against R = gamma^2 I - D^T D:
    [[A + B R^-1 D^T C, B R^-1 B^T], [-C^T (I + D R^-1 D^T) C, -(A + B R^-1 D^T C)^T]]."""
    r = gamma * gamma * np.eye(dc.shape[1]) - dc.T @ dc
    r_inv_dt = np.linalg.solve(r, dc.T)
    r_inv_bt = np.linalg.solve(r, bc.T)
    a_loop = ac + bc @ r_inv_dt @ cc
    return np.block(
        [
            [a_loop, bc @ r_inv_bt],
            [-cc.T @ (np.eye(dc.shape[0]) + dc @ r_inv_dt) @ cc, -a_loop.T],
        ]
    )


def impulse_blocks(ss, count):
    """Markov parameters of a state-space system by running the recursion.

    Returns blocks M[i] with M[i][:, j] the response at step i to a unit
    impulse on input j at step 0, for i = 1..count (the feedthrough is
    not included).
    """
    out = np.empty((count, ss.n_outputs, ss.n_inputs))
    for j in range(ss.n_inputs):
        x = ss.b[:, j].copy()
        for i in range(count):
            out[i, :, j] = ss.c @ x
            x = ss.a @ x
    return out


def predictor_loop(ss, z):
    """State-space recursion one sample at a time, from zero state.

    y[t] = C x[t] + D z[t], then x[t+1] = A x[t] + B z[t].
    """
    z = np.asarray(z, dtype=float)
    x = np.zeros(ss.n_states)
    out = np.empty((z.shape[0], ss.n_outputs))
    for t in range(z.shape[0]):
        out[t] = ss.c @ x + ss.d @ z[t]
        x = ss.a @ x + ss.b @ z[t]
    return out


def simulate_per_sample(cl, e, v):
    """Closed-loop signal z = (u, y) one sample at a time, from zero state.

    z[t] = C_z w + D_e e[t] + D_v v[t], then w <- A w + B_e e[t] + B_v v[t],
    over the full noise sequences (burn-in included).
    """
    w = np.zeros(cl.n_states)
    z = np.empty((e.shape[0], cl.n_z))
    for t in range(e.shape[0]):
        z[t] = cl.c_z @ w + cl.d_e @ e[t] + cl.d_v @ v[t]
        w = cl.a @ w + cl.b_e @ e[t] + cl.b_v @ v[t]
    return z


def simulate_loop_direct(plant, controller, e, v):
    """Textbook closed-loop recursion over separate plant and controller states.

    Order per step: measure y from (x, e), compute u from (s, y, v), then
    advance both states.  Starts from zero states.
    """
    e = np.asarray(e, dtype=float)
    v = np.asarray(v, dtype=float)
    t_total = e.shape[0]
    x = np.zeros(plant.n_x)
    s = np.zeros(controller.n_s)
    u = np.empty((t_total, plant.n_u))
    y = np.empty((t_total, plant.n_y))
    for t in range(t_total):
        y[t] = plant.c @ x + e[t]
        u[t] = controller.cf @ s + controller.d1f @ y[t] + controller.d2f @ v[t]
        x = plant.a @ x + plant.b @ u[t] + plant.k @ e[t]
        s = controller.af @ s + controller.b1f @ y[t] + controller.b2f @ v[t]
    return u, y


def build_regressors_per_lag(ds):
    """Regressors (D, Y) filled one lag block at a time over all rows.

    Block lag of row i is z[p + i - lag]; the target is the y part of
    z[p + i].  D is a fresh C-contiguous array.
    """
    z, p, t, n_z = ds.z, ds.p, ds.t_count, ds.n_z
    d = np.empty((t, p * n_z))
    for lag in range(1, p + 1):
        d[:, (lag - 1) * n_z : lag * n_z] = z[p - lag : p - lag + t]
    return d, z[p:, ds.n_u :].copy()


def save_dataset_csv_per_row(path, ds):
    """Dataset CSV rendered one row at a time: the header, then ``repr``
    of each cell, comma-separated, one row per line."""
    header = [f"u{i + 1}" for i in range(ds.n_u)] + [f"y{i + 1}" for i in range(ds.n_y)]
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row.tolist())) for row in ds.z)
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset_csv_per_line(path, p):
    """Dataset CSV read one line and one ``float()`` cell at a time.

    Blank lines are skipped; schema errors name the line of the file.
    """
    lines = Path(path).read_text().split("\n")
    nonblank = [i for i, ln in enumerate(lines, start=1) if ln.strip()]
    if not nonblank:
        raise SchemaError("empty dataset file", line=1)
    header = [h.strip() for h in lines[nonblank[0] - 1].split(",")]
    n_u = 0
    while n_u < len(header) and header[n_u] == f"u{n_u + 1}":
        n_u += 1
    n_y = 0
    while n_u + n_y < len(header) and header[n_u + n_y] == f"y{n_y + 1}":
        n_y += 1
    if n_u == 0 or n_y == 0 or n_u + n_y != len(header):
        raise SchemaError(f"header must be u1..u_nu,y1..y_ny, got {header}", line=nonblank[0])
    z = np.zeros((len(nonblank) - 1, n_u + n_y))
    for row, i in enumerate(nonblank[1:]):
        tokens = lines[i - 1].split(",")
        if len(tokens) != n_u + n_y:
            raise SchemaError(f"expected {n_u + n_y} columns, got {len(tokens)}", line=i)
        try:
            z[row] = [float(t) for t in tokens]
        except ValueError:
            raise SchemaError("non-numeric value", line=i) from None
    finite = np.isfinite(z).all(axis=1)
    if not finite.all():
        raise SchemaError("non-finite value", line=nonblank[1 + int(np.argmin(finite))])
    return Dataset(z=z, p=p, n_u=n_u, n_y=n_y)


def empirical_moments_direct(z, p, n_u):
    """Lag moments by explicit loops: Q = mean d d^T, N = mean y d^T."""
    z = np.asarray(z, dtype=float)
    n_z = z.shape[1]
    t_count = z.shape[0] - p
    q = np.zeros((p * n_z, p * n_z))
    n = np.zeros((n_z - n_u, p * n_z))
    for i in range(t_count):
        t = p + i
        d = np.concatenate([z[t - lag] for lag in range(1, p + 1)])
        q += np.outer(d, d)
        n += np.outer(z[t, n_u:], d)
    return q / t_count, n / t_count


def autocovariance_monte_carlo(z, max_lag):
    """Sample autocovariances r[t] = mean z[s + t] z[s]^T (mean not removed)."""
    z = np.asarray(z, dtype=float)
    n_z = z.shape[1]
    out = np.empty((max_lag + 1, n_z, n_z))
    for t in range(max_lag + 1):
        lead = z[t:]
        lag = z[: z.shape[0] - t]
        out[t] = lead.T @ lag / lead.shape[0]
    return out


def envelope_scan_loop(h_star, p, n_rho=64):
    """Envelope radius by certifying every radius of the scan.

    The exhaustive form of ``optimize_envelope``: one ``hinf_norm`` of
    the radius-scaled realization per radius, keeping the first strict
    minimum of level * rho^(p+1) / (1 - rho).
    """
    sr = float(np.max(np.abs(np.linalg.eigvals(h_star.a)), initial=0.0))
    best = None
    for rho in np.geomspace(sr + 1e-6, 1.0 - 1e-6, n_rho):
        scaled = StateSpace(h_star.a / float(rho), h_star.b / float(rho), h_star.c, h_star.d)
        level = hinf_norm(scaled)
        objective = level * rho ** (p + 1) / (1.0 - rho)
        if best is None or objective < best[0]:
            best = (objective, float(rho), level)
    return best[1], best[2]


def ledger_scan(inputs, t_target):
    """Ledger by the sixteen-candidate scan ``select_ledger`` once ran.

    Candidates are geometrically spaced from the hard floor to the
    target (the floor alone below it); among ledgers with t0 <= target
    the first with the smallest bound at the target wins, otherwise the
    first with the smallest t0.
    """
    floor = hard_floor(inputs.p, inputs.alpha, inputs.xi)
    if t_target <= floor:
        return build_ledger(inputs, floor)
    ledgers = [build_ledger(inputs, float(c)) for c in np.geomspace(floor, t_target, 16)]
    feasible = [led for led in ledgers if led.t0 <= t_target]
    if feasible:
        return min(feasible, key=lambda led: expected_error_bound(inputs, led, t_target))
    return min(ledgers, key=lambda led: led.t0)


def dense_ledger_scan(inputs, top=1e40, count=400):
    """Ledgers at ``count`` candidates geometrically spaced from the hard
    floor to ``top``, skipping any whose constants overflow."""
    floor = hard_floor(inputs.p, inputs.alpha, inputs.xi)
    out = []
    for c in np.geomspace(floor, max(top, floor), count):
        try:
            out.append(build_ledger(inputs, float(c)))
        except (OverflowError, ZeroDivisionError):
            pass
    return out
