import warnings

import numpy as np
import pytest

from redar import (
    CovarianceFloorWarning,
    Dataset,
    Dims,
    InnovationModel,
    LoopAnalysis,
    MomentSet,
    NumericalError,
    PredictorUnstable,
    exact_moments,
    finite_horizon_predictor,
    fit_varx,
    hinf_norm,
    markov_parameters,
    noise_to_signal,
    optimize_envelope,
    prediction_mse,
    predictor_from_coefficients,
    random_closed_loop,
    run_predictor,
    simulate,
    steady_state_predictor,
)

from .oracles import autocovariance_monte_carlo, impulse_blocks


class TestAutocovariance:
    def test_static_loop_is_white(self, static_loop):
        r = LoopAnalysis(static_loop).autocovariance(5)
        assert np.allclose(r[0], np.eye(2), atol=1e-12)
        assert np.allclose(r[1:], 0.0, atol=1e-12)

    def test_scalar_loop_decays_geometrically(self, mild_loop):
        a = mild_loop.plant.a[0, 0]
        r = LoopAnalysis(mild_loop).autocovariance(6)
        for t in range(1, 6):
            assert np.allclose(r[t + 1], a * r[t], atol=1e-14)
        # u = v is white, so the lagged u rows vanish (u still drives future y)
        assert np.allclose(r[1:, 0, :], 0.0, atol=1e-14)

    def test_matches_monte_carlo(self, dynamic_loop, long_dynamic_traj):
        r = LoopAnalysis(dynamic_loop).autocovariance(10)
        sample = autocovariance_monte_carlo(long_dynamic_traj.z, 10)
        scale = np.linalg.norm(r[0])
        for t in range(11):
            assert np.linalg.norm(sample[t] - r[t]) <= 0.02 * scale

    def test_rejects_negative_lag(self, static_loop):
        with pytest.raises(ValueError):
            LoopAnalysis(static_loop).autocovariance(-1)


class TestExactMoments:
    def test_white_signal_gives_identity_moments(self, static_loop):
        m = exact_moments(LoopAnalysis(static_loop), 3)
        assert np.allclose(m.q, np.eye(6), atol=1e-12)
        assert np.allclose(m.n, 0.0, atol=1e-12)
        g_opt, _ = finite_horizon_predictor(LoopAnalysis(static_loop), 3)
        assert np.allclose(g_opt, 0.0, atol=1e-12)

    def test_block_toeplitz_structure(self, dynamic_loop):
        p = 4
        m = exact_moments(LoopAnalysis(dynamic_loop), p)
        n_z = dynamic_loop.n_z
        for i in range(p):
            for j in range(p):
                lag = j - i
                expected = m.r[lag] if lag >= 0 else m.r[-lag].T
                block = m.q[i * n_z : (i + 1) * n_z, j * n_z : (j + 1) * n_z]
                assert np.allclose(block, expected, atol=1e-12)
        assert np.allclose(m.n, np.hstack([m.r[t][dynamic_loop.n_u :] for t in range(1, p + 1)]))

    def test_q_is_positive_definite(self, dynamic_loop):
        m = exact_moments(LoopAnalysis(dynamic_loop), 6)
        assert np.allclose(m.q, m.q.T)
        assert np.linalg.eigvalsh(m.q).min() > 0.0

    def test_matches_empirical_moments(self, dynamic_loop, long_dynamic_traj):
        from redar import build_regressors, empirical_moments

        p = 4
        m = exact_moments(LoopAnalysis(dynamic_loop), p)
        ds = Dataset.from_signals(long_dynamic_traj.u, long_dynamic_traj.y, p=p)
        d, y = build_regressors(ds)
        q_hat, n_hat = empirical_moments(d, y)
        assert np.linalg.norm(q_hat - m.q) <= 0.01 * np.linalg.norm(m.q)
        assert np.linalg.norm(n_hat - m.n) <= 0.01 * np.linalg.norm(m.q)

    def test_floor_holds_at_lag_one(self, dynamic_loop):
        with warnings.catch_warnings():
            warnings.simplefilter("error", CovarianceFloorWarning)
            m = exact_moments(LoopAnalysis(dynamic_loop), 1)
        assert np.linalg.eigvalsh(m.q).min() >= dynamic_loop.xi - 1e-8

    def test_floor_warning_fires_for_stacked_lags(self, dynamic_loop):
        # the lag-one floor genuinely fails for stacked lags on this loop
        with pytest.warns(CovarianceFloorWarning):
            exact_moments(LoopAnalysis(dynamic_loop), 4)

    def test_lag_covariance_ceiling(self, dynamic_loop):
        # every eigenvalue of Q is under the squared noise gain
        j_norm, analysis = hinf_norm(noise_to_signal(dynamic_loop)), LoopAnalysis(dynamic_loop)
        for p in (1, 2, 4, 8):
            m = exact_moments(analysis, p)
            assert np.linalg.eigvalsh(m.q).max() <= j_norm**2 * (1.0 + 1e-9)

    def test_rejects_bad_order(self, static_loop):
        with pytest.raises(ValueError):
            exact_moments(LoopAnalysis(static_loop), 0)


class TestFiniteHorizonPredictor:
    def test_residual_orthogonality(self, dynamic_loop):
        analysis = LoopAnalysis(dynamic_loop)
        for p in (1, 3, 6):
            m = exact_moments(analysis, p)
            g_opt, _ = finite_horizon_predictor(analysis, p)
            resid = np.linalg.norm(m.n - g_opt @ m.q)
            assert resid <= 1e-9 * (1.0 + np.linalg.norm(m.n))

    def test_indefinite_lag_covariance_raises(self, dynamic_loop, monkeypatch):
        m = exact_moments(LoopAnalysis(dynamic_loop), 2)
        q = m.q - 2.0 * np.linalg.norm(m.q) * np.eye(m.q.shape[0])
        indefinite = MomentSet(r=m.r, q=q, n=m.n)
        monkeypatch.setattr("redar.kalman.exact_moments", lambda analysis, p: indefinite)
        with pytest.raises(NumericalError, match="not positive definite"):
            finite_horizon_predictor(LoopAnalysis(dynamic_loop), 2)

    def test_realization_shape(self, dynamic_loop):
        g_opt, h_opt = finite_horizon_predictor(LoopAnalysis(dynamic_loop), 5)
        assert h_opt.kind == "full"
        assert h_opt.order == 5 * dynamic_loop.n_z
        assert np.array_equal(h_opt.ss.c, g_opt)

    def test_blocks_approach_steady_state_coefficients(self, dynamic_loop):
        p = 8
        h_star = steady_state_predictor(dynamic_loop.plant)
        rho, level = optimize_envelope(h_star, p, n_rho=32)
        g_opt, _ = finite_horizon_predictor(LoopAnalysis(dynamic_loop), p)
        markov = markov_parameters(h_star, p + 1)[1:]
        n_z = dynamic_loop.n_z
        for i in range(1, p + 1):
            block = g_opt[:, (i - 1) * n_z : i * n_z]
            gap = np.linalg.norm(block - markov[i - 1], ord=2)
            assert gap <= level * rho**i * 1.01

    def test_long_memory_recovers_steady_state(self, dynamic_loop):
        p = 30
        g_opt, _ = finite_horizon_predictor(LoopAnalysis(dynamic_loop), p)
        markov = markov_parameters(steady_state_predictor(dynamic_loop.plant), p + 1)[1:]
        n_z = dynamic_loop.n_z
        for i in range(1, p + 1):
            block = g_opt[:, (i - 1) * n_z : i * n_z]
            assert np.allclose(block, markov[i - 1], atol=1e-8)

    def test_oracle_beats_fitted_predictors(self, dynamic_loop):
        p, train_t = 4, 512
        _, h_opt = finite_horizon_predictor(LoopAnalysis(dynamic_loop), p)
        test = simulate(dynamic_loop, 16_384, seed=np.random.SeedSequence([500, 2]))
        mse_oracle = prediction_mse(test.y, run_predictor(h_opt.ss, test.z), discard=p)
        for seed in range(20):
            train = simulate(
                dynamic_loop, train_t + p, seed=np.random.SeedSequence([seed, 1])
            )
            ds = Dataset.from_signals(train.u, train.y, p=p)
            g_fit = fit_varx(ds, alpha=1.0).g
            h_fit = predictor_from_coefficients(g_fit, p, ds.n_u, ds.n_y)
            mse_fit = prediction_mse(test.y, run_predictor(h_fit.ss, test.z), discard=p)
            assert mse_oracle <= mse_fit


class TestSteadyStatePredictor:
    def test_zero_gain_plant(self):
        # K = 0: the predictor ignores y entirely
        plant = InnovationModel(a=[[0.5]], b=[[1.0]], c=[[1.0]], k=[[0.0]], psi=[[1.0]])
        blocks = markov_parameters(steady_state_predictor(plant), 7)[1:]
        assert np.allclose(blocks[:, :, 1], 0.0, atol=1e-14)
        for i in range(6):
            assert blocks[i, 0, 0] == pytest.approx(0.5**i)

    def test_zero_output_plant(self):
        plant = InnovationModel(a=[[0.5]], b=[[1.0]], c=[[0.0]], k=[[0.1]], psi=[[1.0]])
        h = steady_state_predictor(plant)
        assert hinf_norm(h) == 0.0

    def test_unstable_predictor_rejected(self):
        plant = InnovationModel(a=[[1.5]], b=[[1.0]], c=[[1.0]], k=[[0.0]], psi=[[1.0]])
        with pytest.raises(PredictorUnstable):
            steady_state_predictor(plant)

    def test_markov_blocks_match_impulse_response(self, dynamic_loop):
        h = steady_state_predictor(dynamic_loop.plant)
        blocks = markov_parameters(h, 13)[1:]
        assert np.allclose(blocks, impulse_blocks(h, 12), atol=1e-12)

    def test_mse_reaches_innovation_floor(self, dynamic_loop, long_dynamic_traj):
        h_star = steady_state_predictor(dynamic_loop.plant)
        z = long_dynamic_traj.z[:300_000]
        y = long_dynamic_traj.y[:300_000]
        mse = prediction_mse(y, run_predictor(h_star, z), discard=100)
        floor = float(np.trace(dynamic_loop.plant.psi))
        assert mse == pytest.approx(floor, rel=0.01)


class TestClosedLoopOptimality:
    def test_oracle_moments_under_many_loops(self):
        # the ceiling lambda_max(Q) <= ||J||_inf^2 across fresh random loops
        for seed in range(8):
            cl = random_closed_loop(Dims(2, 1, 1), 0.7, seed=np.random.SeedSequence([seed, 0]))
            j_norm = hinf_norm(noise_to_signal(cl))
            m = exact_moments(LoopAnalysis(cl), 3)
            assert np.linalg.eigvalsh(m.q).max() <= j_norm**2 * (1.0 + 1e-9)
