"""End-to-end acceptance checks.

Each test exercises one deliverable of the package at realistic scale and
records a single PASS/FAIL line; the lines are echoed together after the
run.  Tolerances are part of the contract and are asserted, not tuned.
"""

import math
import time

import numpy as np
import pytest

import redar.linalg
from redar import (
    Dataset,
    Dims,
    ExperimentConfig,
    LoopAnalysis,
    StateSpace,
    bound_inputs,
    exact_moments,
    finite_horizon_predictor,
    fit_redar,
    fit_varx,
    frequency_response,
    hinf_norm,
    markov_parameters,
    model_error_detail,
    noise_to_signal,
    optimize_envelope,
    parallel_difference,
    predictor_from_coefficients,
    random_closed_loop,
    run_seed,
    select_ledger,
    simulate,
    solve_discrete_riccati,
    solve_normal_equations,
    steady_state_predictor,
    tail_bound,
)
from redar.experiments import find_violations
from redar.systems import random_innovation_model

from .oracles import impulse_blocks
from .support import random_psd, random_stable


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_01_sweep_runs_clean_at_scale(acceptance_report):
    # five loops of mixed order, memory and reduction budget; the full
    # pipeline and both bounds over T = 2^8 .. 2^14 within five minutes
    start = time.monotonic()
    sweep = tuple(2**k for k in range(8, 15))
    rows = []
    for i in range(5):
        config = ExperimentConfig(
            n_x=2 + (i % 3),
            n_u=1,
            n_y=1,
            p=4 if i % 2 == 0 else 8,
            phi=0.05 if i < 3 else 0.2,
            t_sweep=sweep,
            test_length=10_000,
            seeds=(i,),
            hinf_grid=1024,
            envelope_grid=512,
            rho_grid=32,
        )
        rows.extend(run_seed(config, i).rows)
    errors = [row for row in rows if row.status != "ok"]
    violations = find_violations(rows)
    valid = sum(1 for row in rows if row.status == "ok" and row.bound_valid)
    elapsed = time.monotonic() - start
    ok = not errors and not violations and elapsed < 300.0
    acceptance_report(
        f"acceptance 1, full sweep at scale: {verdict(ok)} "
        f"({len(rows)} cells, {len(errors)} errors, {len(violations)} bound violations, "
        f"{valid} bound-valid cells, {elapsed:.0f}s)"
    )
    assert not errors
    assert not violations
    assert elapsed < 300.0


def test_02_vanishing_ridge_matches_population_optimum(acceptance_report):
    # the moment-space fit at T = inf must reproduce the exact lag predictor
    worst = 0.0
    p = 3
    for seed in range(20):
        dims = Dims(2 + seed % 3, 1 + seed % 2, 1 + (seed // 2) % 2)
        cl = random_closed_loop(dims, 0.7, seed=np.random.SeedSequence([seed, 0]))
        analysis = LoopAnalysis(cl)
        moments = exact_moments(analysis, p)
        g_limit = solve_normal_equations(moments.q, moments.n, 1.0 / math.inf)
        g_opt, _ = finite_horizon_predictor(analysis, p)
        worst = max(worst, float(np.linalg.norm(g_limit - g_opt)))
    ok = worst <= 1e-8
    acceptance_report(
        f"acceptance 2, ridge limit equals exact predictor: {verdict(ok)} "
        f"(20 systems, worst Frobenius gap {worst:.3e}, tolerance 1e-08)"
    )
    assert worst <= 1e-8


def test_03_regression_consistency_on_mild_loop(acceptance_report, mild_loop):
    # median squared coefficient error must fall at every doubling of T and,
    # once T clears the ledger threshold, sit below the finite-sample term
    p, alpha = 2, 50.0
    inputs = bound_inputs(mild_loop, p, alpha, 0.05)
    ledger = select_ledger(inputs, 2.0**15)
    g_opt, _ = finite_horizon_predictor(LoopAnalysis(mild_loop), p)
    sweep = [2**k for k in range(8, 17)]
    errs = np.zeros((20, len(sweep)))
    for s in range(20):
        traj = simulate(mild_loop, sweep[-1] + p, seed=np.random.SeedSequence([s, 1]))
        for j, t in enumerate(sweep):
            ds = Dataset(z=traj.z[: t + p], p=p, n_u=1, n_y=1)
            g = fit_varx(ds, alpha=alpha).g
            errs[s, j] = np.linalg.norm(g - g_opt, ord=2) ** 2
    medians = np.median(errs, axis=0)
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    threshold_ok = ledger.t0 <= 2.0**15
    live = [(t, m) for t, m in zip(sweep, medians) if t >= ledger.t0]
    dominated = bool(live) and all(m <= ledger.k / math.sqrt(t) for t, m in live)
    ok = decreasing and threshold_ok and dominated
    acceptance_report(
        f"acceptance 3, consistency on a mild loop: {verdict(ok)} "
        f"(medians over 20 runs decreasing at each of 8 doublings: {decreasing}; "
        f"t0 = {ledger.t0:.0f} <= 2^15: {threshold_ok}; "
        f"{len(live)} live sample sizes under k/sqrt(T): {dominated})"
    )
    assert decreasing
    assert threshold_ok
    assert dominated


def test_04_reduction_certificate_holds(acceptance_report):
    # certified truncation error stays within budget and upper-bounds the
    # measured H-infinity gap between the full and reduced predictors
    phi = 0.05
    worst_cert, worst_gap = 0.0, 0.0
    for seed in range(50):
        cl = random_closed_loop(Dims(2, 1, 1), 0.7, seed=np.random.SeedSequence([seed, 0]))
        traj = simulate(cl, 1024 + 4, seed=np.random.SeedSequence([seed, 1]))
        ds = Dataset.from_signals(traj.u, traj.y, p=4)
        fit = fit_redar(ds, 1.0, phi)
        gap = hinf_norm(parallel_difference(fit.full.ss, fit.reduced.ss))
        worst_cert = max(worst_cert, fit.certified_error)
        worst_gap = max(worst_gap, gap)
    ok = worst_cert <= phi and worst_gap <= phi + 1e-6
    acceptance_report(
        f"acceptance 4, certified balanced reduction: {verdict(ok)} "
        f"(50 fits, worst certificate {worst_cert:.3e} <= {phi}, "
        f"worst measured gap {worst_gap:.3e} <= {phi + 1e-6})"
    )
    assert worst_cert <= phi
    assert worst_gap <= phi + 1e-6


def test_05_decay_envelope_bounds_predictor_memory(acceptance_report):
    # the optimized (rho, level) envelope must dominate the first fifty
    # predictor coefficients and the truncated-memory transfer function
    p = 4
    coeff_bad, tail_bad = 0, 0
    z = np.exp(2j * np.pi * np.arange(512) / 512)
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        dims = Dims(2 + seed % 3, 1 + seed % 2, 1 + (seed // 2) % 2)
        plant = random_innovation_model(dims, 0.7, rng)
        h_star = steady_state_predictor(plant)
        rho, level = optimize_envelope(h_star, p, n_rho=32)
        blocks = markov_parameters(h_star, 51)[1:]
        for i in range(1, 51):
            if np.linalg.norm(blocks[i - 1], ord=2) > level * rho**i:
                coeff_bad += 1
        resp = frequency_response(h_star, z)
        partial = sum(
            blocks[i - 1][None, :, :] * (z ** -i)[:, None, None] for i in range(1, p + 1)
        )
        tail_gain = np.linalg.norm(resp - partial, ord=2, axis=(1, 2)).max()
        if tail_gain > tail_bound(level, rho, p) * (1.0 + 1e-3):
            tail_bad += 1
    ok = coeff_bad == 0 and tail_bad == 0
    acceptance_report(
        f"acceptance 5, decay envelope validity: {verdict(ok)} "
        f"(20 plants, coefficient violations {coeff_bad}/1000, "
        f"tail-gain violations {tail_bad}/20)"
    )
    assert coeff_bad == 0
    assert tail_bad == 0


def test_06_model_error_bound_coverage(acceptance_report, siso_loop):
    # the 1 - theta model-error bound must cover at least 90 percent of
    # repeated fits on a fixed loop at T = 2^12
    p, alpha, phi, theta, t = 4, 1.0, 0.05, 0.1, 4096
    inputs = bound_inputs(siso_loop, p, alpha, phi, n_rho=16, envelope_grid=256, hinf_grid=512)
    bound = model_error_detail(inputs, theta, float(t)).value
    _, h_opt = finite_horizon_predictor(LoopAnalysis(siso_loop), p)
    hits = 0
    trials = 200
    worst = 0.0
    for trial in range(trials):
        traj = simulate(siso_loop, t + p, seed=np.random.SeedSequence([trial, 1]))
        ds = Dataset.from_signals(traj.u, traj.y, p=p)
        fit = fit_redar(ds, alpha, phi)
        err = hinf_norm(parallel_difference(fit.reduced.ss, h_opt.ss))
        worst = max(worst, err)
        hits += err <= bound
    coverage = hits / trials
    ok = coverage >= 0.9
    acceptance_report(
        f"acceptance 6, model-error bound coverage: {verdict(ok)} "
        f"({trials} fits, coverage {coverage:.1%} >= 90.0%, "
        f"bound {bound:.3e}, worst observed error {worst:.3e})"
    )
    assert coverage >= 0.9


def test_07_analytic_kernels_and_moment_extremes(acceptance_report, monkeypatch):
    # solver kernels against closed forms, then the two-sided eigenvalue
    # claim for the lag covariance: the noise-gain ceiling holds, the
    # noise-floor lower bound does not survive stacked lags
    rng = np.random.default_rng(np.random.SeedSequence([77, 0]))
    lyap_worst = 0.0
    for _ in range(50):
        a = random_stable(rng, 4, 0.9)
        w = random_psd(rng, 4, floor=0.1)
        redar.linalg._require_stable(a)
        x = redar.linalg._lyapunov(a, w)
        resid = np.linalg.norm(a @ x @ a.T - x + w) / (1.0 + np.linalg.norm(w))
        lyap_worst = max(lyap_worst, float(resid))
    lyap_ok = lyap_worst <= 1e-10

    with monkeypatch.context() as patch:
        patch.setattr(redar.linalg, "_HINF_TOL", 1e-7)
        hinf_gap = abs(hinf_norm(StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])) - 2.0)
    hinf_ok = hinf_gap <= 1e-6

    riccati_gap = abs(
        solve_discrete_riccati([[1.0]], [[1.0]], [[1.0]], [[1.0]])[0, 0]
        - (1.0 + math.sqrt(5.0)) / 2.0
    )
    riccati_ok = riccati_gap <= 1e-10

    p = 4
    ceiling_bad, floor_bad = 0, 0
    for seed in range(50):
        cl = random_closed_loop(Dims(2, 1, 1), 0.7, seed=np.random.SeedSequence([seed, 0]))
        j_norm = hinf_norm(noise_to_signal(cl))
        eigs = np.linalg.eigvalsh(exact_moments(LoopAnalysis(cl), p).q)
        if eigs.max() > j_norm**2 * (1.0 + 1e-9):
            ceiling_bad += 1
        if eigs.min() < cl.xi * (1.0 - 1e-9):
            floor_bad += 1
    ceiling_ok = ceiling_bad == 0
    floor_ok = floor_bad == 0

    ok = lyap_ok and hinf_ok and riccati_ok and ceiling_ok and floor_ok
    acceptance_report(
        f"acceptance 7, analytic kernels and covariance extremes: {verdict(ok)} "
        f"(Lyapunov residual {lyap_worst:.1e}, H-infinity gap {hinf_gap:.1e}, "
        f"Riccati gap {riccati_gap:.1e}, gain ceiling violations {ceiling_bad}/50, "
        f"noise-floor violations {floor_bad}/50 at p={p})"
    )
    assert lyap_ok
    assert hinf_ok
    assert riccati_ok
    assert ceiling_ok
    # known gap: the lag-one noise floor does not extend to stacked lag
    # covariances, so this final claim fails on generic loops at p > 1
    assert floor_ok


def test_08_fit_realization_is_exact(acceptance_report):
    # the delay-line realization must reproduce the regression coefficients
    # as its leading impulse response blocks, and innovation-form extraction
    # must invert back to the reduced predictor
    p = 3
    exact_lags = True
    zero_tail = True
    worst_round_trip = 0.0
    z = np.exp(2j * np.pi * np.arange(512) / 512)
    for seed in range(20):
        cl = random_closed_loop(Dims(2, 1, 1), 0.7, seed=np.random.SeedSequence([seed, 0]))
        traj = simulate(cl, 512 + p, seed=np.random.SeedSequence([seed, 1]))
        ds = Dataset.from_signals(traj.u, traj.y, p=p)
        model = fit_varx(ds, alpha=1.0)
        full = predictor_from_coefficients(model.g, model.p, ds.n_u, ds.n_y)
        blocks = impulse_blocks(full.ss, 2 * p)
        for lag in range(1, p + 1):
            if not np.array_equal(blocks[lag - 1], model.block(lag)):
                exact_lags = False
        if np.any(blocks[p:] != 0.0):
            zero_tail = False
        fit = fit_redar(ds, 1.0, 0.05)
        m = fit.model
        rebuilt = StateSpace(
            a=m.a - m.k @ m.c,
            b=np.hstack([m.b, m.k]),
            c=m.c,
            d=np.zeros((m.c.shape[0], m.b.shape[1] + m.k.shape[1])),
        )
        gap = np.linalg.norm(
            frequency_response(rebuilt, z) - frequency_response(fit.reduced.ss, z),
            ord=2,
            axis=(1, 2),
        ).max()
        worst_round_trip = max(worst_round_trip, float(gap))
    round_trip_ok = worst_round_trip <= 1e-9
    ok = exact_lags and zero_tail and round_trip_ok
    acceptance_report(
        f"acceptance 8, exact realization and extraction round trip: {verdict(ok)} "
        f"(20 fits; lag blocks exact: {exact_lags}; blocks beyond p zero: {zero_tail}; "
        f"worst round-trip gap {worst_round_trip:.3e} <= 1e-09)"
    )
    assert exact_lags
    assert zero_tail
    assert round_trip_ok
