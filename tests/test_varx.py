import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redar import (
    Dataset,
    DimensionMismatch,
    InsufficientData,
    NumericalError,
    OrderMismatch,
    VarxModel,
    build_regressors,
    empirical_moments,
    fit_varx,
    predict_varx,
    solve_normal_equations,
)

from .oracles import build_regressors_per_lag, empirical_moments_direct
from .support import rng_from

seeds = st.integers(0, 2**32 - 1)


def counter_dataset(p=3, length=10, n_u=1, n_y=1):
    """z[t] = t in every channel; lag rows are then easy to spell out."""
    n_z = n_u + n_y
    z = np.arange(length, dtype=float)[:, None] * np.ones(n_z)
    return Dataset(z=z, p=p, n_u=n_u, n_y=n_y)


class TestDataset:
    def test_counts_and_slices(self):
        ds = counter_dataset(p=3, length=10)
        assert ds.t_count == 7
        assert ds.n_z == 2
        assert np.array_equal(ds.u[:, 0], np.arange(10.0))
        assert np.array_equal(ds.y[:, 0], np.arange(10.0))

    def test_from_signals_orients_vectors(self):
        u = np.arange(5.0)
        y = np.arange(5.0) + 10.0
        ds = Dataset.from_signals(u, y, p=1)
        assert ds.z.shape == (5, 2)
        assert np.array_equal(ds.u[:, 0], u)
        assert np.array_equal(ds.y[:, 0], y)

    def test_from_signals_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset.from_signals(np.zeros((4, 1)), np.zeros((5, 1)), p=1)

    def test_rejects_too_short(self):
        with pytest.raises(InsufficientData):
            Dataset(z=np.zeros((3, 2)), p=3, n_u=1, n_y=1)

    def test_rejects_bad_columns(self):
        with pytest.raises(DimensionMismatch):
            Dataset(z=np.zeros((10, 3)), p=1, n_u=1, n_y=1)

    def test_rejects_nonfinite(self):
        z = np.zeros((10, 2))
        z[4, 1] = np.inf
        with pytest.raises(ValueError):
            Dataset(z=z, p=1, n_u=1, n_y=1)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            Dataset(z=np.zeros((10, 2)), p=0, n_u=1, n_y=1)


class TestRegressors:
    def test_counter_rows_newest_first(self):
        ds = counter_dataset(p=3, length=10)
        d, y = build_regressors(ds)
        assert d.shape == (7, 6)
        assert y.shape == (7, 1)
        for i in range(7):
            t = 3 + i
            expected = [t - 1, t - 1, t - 2, t - 2, t - 3, t - 3]
            assert np.array_equal(d[i], expected)
            assert y[i, 0] == t

    @given(seeds, st.integers(1, 4), st.integers(1, 3), st.integers(1, 2))
    def test_moments_match_direct_loops(self, seed, p, n_u, n_y):
        rng = rng_from(seed)
        z = rng.standard_normal((p + 20, n_u + n_y))
        ds = Dataset(z=z, p=p, n_u=n_u, n_y=n_y)
        d, y = build_regressors(ds)
        q, n = empirical_moments(d, y)
        q_direct, n_direct = empirical_moments_direct(z, p, n_u)
        assert np.allclose(q, q_direct, atol=1e-12)
        assert np.allclose(n, n_direct, atol=1e-12)
        assert np.allclose(q, q.T, atol=1e-15)

    @given(seeds, st.integers(1, 16), st.integers(1, 3), st.integers(1, 3), st.integers(0, 40))
    def test_bit_identical_to_per_lag_copy(self, seed, p, n_u, n_y, extra):
        rng = rng_from(seed)
        z = rng.standard_normal((p + 1 + extra, n_u + n_y))
        ds = Dataset(z=z, p=p, n_u=n_u, n_y=n_y)
        d, y = build_regressors(ds)
        d_loop, y_loop = build_regressors_per_lag(ds)
        assert d.flags.c_contiguous
        assert np.array_equal(d, d_loop)
        assert np.array_equal(y, y_loop)
        # the fit from the oracle's D must match to the last bit
        q, n = empirical_moments(d_loop, y_loop)
        via_loop = solve_normal_equations(q, n, 0.5 / ds.t_count)
        assert np.array_equal(fit_varx(ds, alpha=0.5).g, via_loop)

    @given(seeds, st.integers(1, 16), st.integers(0, 40), st.sampled_from([1, 2, 7]))
    def test_copy_across_row_chunks(self, seed, p, extra, rows):
        # D is filled a few rows at a time; chunk edges must not show
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("redar.varx._ROWS", rows)
            z = rng_from(seed).standard_normal((p + 1 + extra, 3))
            ds = Dataset(z=z, p=p, n_u=1, n_y=2)
            d, y = build_regressors(ds)
            d_loop, y_loop = build_regressors_per_lag(ds)
            assert d.flags.c_contiguous
            assert np.array_equal(d, d_loop)
            assert np.array_equal(y, y_loop)

    def test_moment_input_checks(self):
        with pytest.raises(DimensionMismatch):
            empirical_moments(np.zeros((3, 2)), np.zeros((4, 1)))
        with pytest.raises(InsufficientData):
            empirical_moments(np.zeros((0, 2)), np.zeros((0, 1)))


class TestVarxModel:
    def test_block_layout(self):
        g = np.array([[1.0, 2.0, 3.0, 4.0]])
        model = VarxModel(g=g, p=2, alpha=1.0)
        assert np.array_equal(model.block(1), [[1.0, 2.0]])
        assert np.array_equal(model.block(2), [[3.0, 4.0]])
        with pytest.raises(ValueError):
            model.block(3)

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            VarxModel(g=np.ones((1, 5)), p=2, alpha=1.0)
        with pytest.raises(ValueError):
            VarxModel(g=np.ones((1, 4)), p=2, alpha=0.0)
        with pytest.raises(ValueError):
            VarxModel(g=np.ones((1, 4)), p=0, alpha=1.0)
        with pytest.raises(ValueError):
            VarxModel(g=[[1.0, np.nan]], p=1, alpha=1.0)


class TestFit:
    def test_recovers_noiseless_var(self):
        rng = rng_from(42)
        t_total = 400
        u = rng.standard_normal(t_total)
        y = np.zeros(t_total)
        for t in range(2, t_total):
            y[t] = 0.3 * u[t - 1] + 0.4 * y[t - 1] - 0.2 * u[t - 2] + 0.1 * y[t - 2]
        ds = Dataset.from_signals(u, y, p=2)
        model = fit_varx(ds, alpha=1e-8)
        assert np.allclose(model.g, [[0.3, 0.4, -0.2, 0.1]], atol=1e-6)

    @given(seeds, st.integers(1, 3))
    def test_normal_equation_residual(self, seed, p):
        rng = rng_from(seed)
        z = rng.standard_normal((p + 40, 3))
        ds = Dataset(z=z, p=p, n_u=1, n_y=2)
        model = fit_varx(ds, alpha=0.5)
        d, y = build_regressors(ds)
        q, n = empirical_moments(d, y)
        resid = model.g @ (q + 0.5 / ds.t_count * np.eye(q.shape[0])) - n
        assert np.linalg.norm(resid) <= 1e-9 * (1.0 + np.linalg.norm(n))

    def test_matches_the_normal_equations(self):
        rng = rng_from(9)
        ds = Dataset(z=rng.standard_normal((50, 2)), p=2, n_u=1, n_y=1)
        d, y = build_regressors(ds)
        q, n = empirical_moments(d, y)
        direct = fit_varx(ds, alpha=2.0)
        via_moments = VarxModel(solve_normal_equations(q, n, 2.0 / ds.t_count), 2, 2.0)
        assert np.array_equal(direct.g, via_moments.g)

    def test_ridge_shrinks(self):
        rng = rng_from(10)
        ds = Dataset(z=rng.standard_normal((100, 2)), p=2, n_u=1, n_y=1)
        norms = [np.linalg.norm(fit_varx(ds, alpha=a).g) for a in (1e-6, 1.0, 1e3, 1e9)]
        assert norms == sorted(norms, reverse=True)
        assert norms[-1] <= 1e-6

    def test_vanishing_ridge_path(self):
        rng = rng_from(11)
        ds = Dataset(z=rng.standard_normal((60, 2)), p=1, n_u=1, n_y=1)
        d, y = build_regressors(ds)
        q, n = empirical_moments(d, y)
        g = solve_normal_equations(q, n, 1.0 / np.inf)
        assert np.allclose(g, np.linalg.solve(q.T, n.T).T, atol=1e-12)

    def test_singular_moments_raise_numerical_error(self):
        # one lag channel repeated: Q is singular and the ridge too small to help
        q = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        message = r"lambda_min\(Q \+ ridge I\) = .*ridge = 1\.0+e-20"
        with pytest.raises(NumericalError, match=message):
            solve_normal_equations(q, np.ones((1, 3)), 1e-20)
        assert np.all(np.isfinite(solve_normal_equations(q, np.ones((1, 3)), 1e-3)))

    def test_overflowing_moments_raise_numerical_error(self):
        # finite data whose lag products overflow double precision
        z = rng_from(12).standard_normal((200, 2)) * 1e160
        ds = Dataset(z=z, p=2, n_u=1, n_y=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                fit_varx(ds, alpha=1.0)
        with pytest.raises(NumericalError, match="not finite"):
            solve_normal_equations(np.full((2, 2), np.inf), np.ones((1, 2)), 1.0)

    def test_rejects_bad_alpha(self):
        ds = counter_dataset()
        with pytest.raises(ValueError):
            fit_varx(ds, alpha=0.0)


class TestPredict:
    def test_counter_prediction(self):
        # yhat[t] = y[t-1] + (t - (t-2)) = linear extrapolation from two lags
        ds = counter_dataset(p=2, length=12)
        model = VarxModel(g=np.array([[0.0, 2.0, 0.0, -1.0]]), p=2, alpha=1.0)
        yhat, mse = predict_varx(model, ds)
        # 2 (t-1) - (t-2) = t exactly on the counter series
        assert np.allclose(yhat[:, 0], np.arange(2.0, 12.0), atol=1e-12)
        assert mse == pytest.approx(0.0, abs=1e-24)

    def test_order_and_channel_guards(self):
        ds = counter_dataset(p=2, length=12)
        with pytest.raises(OrderMismatch):
            predict_varx(VarxModel(g=np.ones((1, 2)), p=1, alpha=1.0), ds)
        with pytest.raises(DimensionMismatch):
            predict_varx(VarxModel(g=np.ones((1, 6)), p=2, alpha=1.0), ds)

    @given(seeds)
    def test_mse_definition(self, seed):
        rng = rng_from(seed)
        ds = Dataset(z=rng.standard_normal((30, 2)), p=2, n_u=1, n_y=1)
        model = fit_varx(ds, alpha=1.0)
        yhat, mse = predict_varx(model, ds)
        _, y = build_regressors(ds)
        assert mse == pytest.approx(np.mean(np.sum((y - yhat) ** 2, axis=1)))
