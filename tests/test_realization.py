import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redar import (
    Dataset,
    DimensionMismatch,
    IdentifiedModel,
    NumericalError,
    PredictorRealization,
    StateSpace,
    VarxModel,
    balanced_truncate,
    extract_innovation_form,
    fit_redar,
    markov_parameters,
    observer_form,
    parallel_difference,
    predict_with_model,
    prediction_mse,
    run_predictor,
    simulate,
)
from redar.experiments import ExperimentConfig, seed_loop
from redar.realization import predictor_from_coefficients

from .oracles import grid_gain, impulse_blocks, predictor_loop
from .support import random_system, rng_from

seeds = st.integers(0, 2**32 - 1)


def random_predictor(seed, p=3, n_u=1, n_y=2):
    rng = rng_from(seed)
    g = rng.standard_normal((n_y, p * (n_u + n_y)))
    return g, predictor_from_coefficients(g, p, n_u, n_y)


def reduce(h, phi):
    """fit_redar's reduction step (pinned by TestFitRedarStages)."""
    reduced, certified = balanced_truncate(h.ss, phi)
    return PredictorRealization(reduced, kind="reduced"), certified


class TestDelayLine:
    @given(seeds, st.integers(1, 4), st.integers(1, 2), st.integers(1, 2))
    def test_impulse_blocks_are_the_coefficients(self, seed, p, n_u, n_y):
        rng = rng_from(seed)
        n_z = n_u + n_y
        g = rng.standard_normal((n_y, p * n_z))
        h = predictor_from_coefficients(g, p, n_u, n_y)
        blocks = impulse_blocks(h.ss, 2 * p)
        for lag in range(1, p + 1):
            expected = g[:, (lag - 1) * n_z : lag * n_z]
            assert np.array_equal(blocks[lag - 1], expected)
        # the delay line has no memory past p steps
        assert not blocks[p:].any()

    def test_nilpotent_state_matrix(self):
        _, h = random_predictor(0, p=3)
        a = h.ss.a
        assert not np.linalg.matrix_power(a, 3).any()
        assert np.linalg.matrix_power(a, 2).any()

    def test_zero_feedthrough(self):
        _, h = random_predictor(1)
        assert not h.ss.d.any()

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            predictor_from_coefficients(np.ones((2, 5)), p=2, n_u=1, n_y=2)

    def test_delay_line_of_a_varx_model(self):
        model = VarxModel(g=np.ones((1, 4)), p=2, alpha=1.0)
        with pytest.raises(DimensionMismatch):
            predictor_from_coefficients(model.g, model.p, n_u=2, n_y=1)
        h = predictor_from_coefficients(model.g, model.p, n_u=1, n_y=1)
        assert h.kind == "full"
        assert h.order == 4

    def test_realization_validation(self):
        _, h = random_predictor(2)
        with pytest.raises(ValueError):
            PredictorRealization(h.ss, kind="other")
        # channel counts are read off the realization: z = (u, y) in, y out
        assert (h.n_u, h.n_y) == (1, 2)


class TestObserverForm:
    @given(seeds, st.integers(1, 6), st.integers(1, 3), st.integers(1, 3))
    def test_markov_parameters_match_the_delay_line(self, seed, p, n_u, n_y):
        g, h = random_predictor(seed, p, n_u, n_y)
        obs = observer_form(h)
        assert obs.n_states == p * n_y
        want = impulse_blocks(h.ss, 2 * p)
        got = markov_parameters(obs, 2 * p + 1)
        assert not got[0].any()
        assert np.abs(got[1:] - want).max() <= 1e-14 * np.abs(g).max()

    @given(
        seeds,
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from([1, 63, 64, 65, 3 * 64 + 5]),
    )
    def test_run_predictor_matches_the_delay_line_loop(self, seed, p, n_u, n_y, length):
        _, h = random_predictor(seed, p, n_u, n_y)
        z = rng_from(seed + 1).standard_normal((length, n_u + n_y))
        want = predictor_loop(h.ss, z)
        got = run_predictor(observer_form(h), z)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-12 * scale

    def test_requires_a_delay_line(self):
        _, h = random_predictor(4)
        reduced, _ = reduce(h, 0.1)
        with pytest.raises(ValueError):
            observer_form(reduced)


class TestReduction:
    @given(seeds, st.floats(1e-6, 1.0))
    def test_certified_error_within_budget(self, seed, phi):
        _, h = random_predictor(seed)
        reduced, certified = reduce(h, phi)
        assert certified <= phi
        assert reduced.kind == "reduced"
        assert reduced.order <= h.order

    def test_huge_budget_gives_static_model(self):
        _, h = random_predictor(3)
        reduced, _ = reduce(h, 1e9)
        assert reduced.order == 0


class TestFitRedarStages:
    """fit_redar is the delay line of the ridge fit, then balanced
    truncation of it, bit for bit."""

    # orders pinned where they matter: full (3 states at p = 1) and none
    @pytest.mark.parametrize(
        "p, phi, order",
        [(1, 0.05, None), (1, 0.0, 3), (4, 0.05, None), (4, 1e9, 0), (16, 0.01, None)],
    )
    def test_stages_equal_the_direct_calls(self, p, phi, order):
        ds = Dataset(z=rng_from(p).standard_normal((600 + p, 3)), p=p, n_u=1, n_y=2)
        fit = fit_redar(ds, 1.0, phi)
        full = predictor_from_coefficients(fit.varx.g, p, ds.n_u, ds.n_y)
        reduced, certified = balanced_truncate(full.ss, phi)
        for got, want in ((fit.full.ss, full.ss), (fit.reduced.ss, reduced)):
            for m in "abcd":
                assert np.array_equal(getattr(got, m), getattr(want, m))
        assert fit.certified_error == certified
        assert (fit.full.kind, fit.reduced.kind) == ("full", "reduced")
        assert order is None or fit.reduced.order == order

    def test_unstable_reduction_raises(self):
        # at phi = 0 every state of the 16-state delay line is kept, though
        # its Hankel rank is 8; balancing by the other, roundoff-level
        # singular values leaves this reduced predictor unstable
        traj = simulate(seed_loop(ExperimentConfig(), 0), 4100, seed=np.random.SeedSequence([1, 1]))
        ds = Dataset.from_signals(traj.u, traj.y, p=4)
        with pytest.raises(NumericalError, match="order 16 at phi = 0.0 has spectral radius"):
            fit_redar(ds, 0.5, 0.0)


class TestExtraction:
    def test_requires_reduced(self):
        _, h = random_predictor(4)
        with pytest.raises(ValueError):
            extract_innovation_form(h)

    @given(seeds)
    def test_matrix_identities(self, seed):
        _, h = random_predictor(seed)
        reduced, _ = reduce(h, 0.05)
        model = extract_innovation_form(reduced)
        n_u = reduced.n_u
        assert np.array_equal(model.b, reduced.ss.b[:, :n_u])
        assert np.array_equal(model.k, reduced.ss.b[:, n_u:])
        assert np.array_equal(model.c, reduced.ss.c)
        assert np.allclose(model.a, reduced.ss.a + model.k @ model.c, atol=1e-14)

    @given(seeds)
    def test_round_trip_transfer_function(self, seed):
        _, h = random_predictor(seed)
        reduced, _ = reduce(h, 0.05)
        model = extract_innovation_form(reduced)
        err = grid_gain(parallel_difference(model.predictor(), reduced.ss), n_points=512)
        assert err <= 1e-9

    def test_order_zero_model(self):
        _, h = random_predictor(5)
        reduced, _ = reduce(h, 1e9)
        model = extract_innovation_form(reduced)
        assert model.order == 0
        yhat = predict_with_model(model, np.zeros((20, 1)), np.ones((20, 2)))
        assert not yhat.any()


class TestIdentifiedModel:
    def test_rejects_feedthrough(self):
        with pytest.raises(ValueError):
            IdentifiedModel(a=[[0.5]], b=[[1.0]], c=[[1.0]], d=[[1.0]], k=[[0.1]])

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"a": [[0.5, 0.0]]}, DimensionMismatch),
            ({"b": [[1.0], [2.0]]}, DimensionMismatch),
            ({"c": [[1.0, 2.0]]}, DimensionMismatch),
            ({"k": [[0.1, 0.2]]}, DimensionMismatch),
            ({"d": [[0.0, 0.0]]}, DimensionMismatch),
            ({"a": [[np.nan]]}, ValueError),
            ({"b": [[np.inf]]}, ValueError),
            ({"c": [[np.nan]]}, ValueError),
            ({"k": [[np.nan]]}, ValueError),
        ],
    )
    def test_rejects_bad_matrices(self, overrides, error):
        matrices = {"a": [[0.5]], "b": [[1.0]], "c": [[1.0]], "d": [[0.0]], "k": [[0.1]]}
        with pytest.raises(error):
            IdentifiedModel(**{**matrices, **overrides})

    def test_predictor_structure(self):
        model = IdentifiedModel(a=[[0.5]], b=[[1.0]], c=[[2.0]], d=[[0.0]], k=[[0.1]])
        pred = model.predictor()
        assert pred.a[0, 0] == pytest.approx(0.5 - 0.1 * 2.0)
        assert np.array_equal(pred.b, [[1.0, 0.1]])
        assert not pred.d.any()


class TestRunning:
    @given(seeds, st.sampled_from([0, 18, 62, 63, 64, 65, 127, 128, 150, 198]))
    def test_strict_causality(self, seed, s):
        # 200 samples span three full blocks and a partial one; the bump
        # sits at, and on both sides of, block starts
        rng = rng_from(seed)
        _, h = random_predictor(seed)
        z = rng.standard_normal((200, 3))
        bumped = z.copy()
        bumped[s] += 1.0
        out = run_predictor(h.ss, z)
        out_bumped = run_predictor(h.ss, bumped)
        assert np.array_equal(out[: s + 1], out_bumped[: s + 1])

    @given(
        seeds,
        st.integers(0, 20),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from([0, 1, 63, 64, 65, 3 * 64 + 5]),
    )
    def test_matches_per_sample_loop(self, seed, n, n_in, n_out, length):
        rng = rng_from(seed)
        ss = random_system(rng, n, n_in, n_out, target=0.95)
        z = rng.standard_normal((length, n_in))
        want = predictor_loop(ss, z)
        got = run_predictor(ss, z)
        assert got.shape == want.shape == (length, n_out)
        scale = max(1.0, float(np.abs(want).max(initial=0.0)))
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        _, h = random_predictor(3)
        z = np.zeros((100, 3))
        z[70, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run_predictor(h.ss, z)

    def test_input_width_guard(self):
        _, h = random_predictor(6)
        with pytest.raises(DimensionMismatch):
            run_predictor(h.ss, np.zeros((10, 2)))

    def test_predict_with_model_accepts_vectors(self):
        model = IdentifiedModel(a=[[0.5]], b=[[1.0]], c=[[2.0]], d=[[0.0]], k=[[0.1]])
        u = np.arange(10.0)
        y = np.ones(10)
        flat = predict_with_model(model, u, y)
        shaped = predict_with_model(model, u[:, None], y[:, None])
        assert np.array_equal(flat, shaped)

    def test_predict_with_model_channel_guard(self):
        model = IdentifiedModel(a=[[0.5]], b=[[1.0]], c=[[2.0]], d=[[0.0]], k=[[0.1]])
        with pytest.raises(DimensionMismatch):
            predict_with_model(model, np.zeros((10, 2)), np.zeros((10, 1)))


class TestMse:
    @pytest.mark.parametrize("n_y", [1, 2, 3, 9])
    @pytest.mark.parametrize("discard", [0, 4])
    def test_matches_mean_of_row_sums(self, n_y, discard):
        rng = rng_from(n_y)
        y = rng.standard_normal((1000, n_y))
        yhat = y + 0.1 * rng.standard_normal((1000, n_y))
        want = np.mean([np.sum((y[t] - yhat[t]) ** 2) for t in range(discard, 1000)])
        assert prediction_mse(y, yhat, discard) == pytest.approx(want, rel=1e-13, abs=0)

    def test_discard(self):
        y = np.zeros((5, 1))
        yhat = np.arange(5.0)[:, None]
        assert prediction_mse(y, yhat) == pytest.approx(np.mean(np.arange(5.0) ** 2))
        assert prediction_mse(y, yhat, discard=3) == pytest.approx((9.0 + 16.0) / 2.0)

    def test_guards(self):
        with pytest.raises(DimensionMismatch):
            prediction_mse(np.zeros((5, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            prediction_mse(np.zeros((5, 1)), np.zeros((5, 1)), discard=5)


class TestPipeline:
    def test_stages_are_consistent(self, dynamic_loop):
        traj = simulate(dynamic_loop, 600, seed=np.random.SeedSequence([21, 1]))
        ds = Dataset.from_signals(traj.u, traj.y, p=3)
        fit = fit_redar(ds, alpha=1.0, phi=0.05)
        assert np.array_equal(fit.full.ss.c, fit.varx.g)
        assert fit.certified_error <= 0.05
        assert fit.reduced.order <= fit.full.order
        err = grid_gain(parallel_difference(fit.model.predictor(), fit.reduced.ss), n_points=512)
        assert err <= 1e-9

    def test_huge_budget_predicts_zero(self, dynamic_loop):
        traj = simulate(dynamic_loop, 400, seed=np.random.SeedSequence([22, 1]))
        ds = Dataset.from_signals(traj.u, traj.y, p=2)
        fit = fit_redar(ds, alpha=1.0, phi=1e9)
        assert fit.reduced.order == 0
        yhat = predict_with_model(fit.model, traj.u, traj.y)
        mse = prediction_mse(traj.y, yhat, discard=2)
        y_power = float(np.mean(np.sum(traj.y[2:] ** 2, axis=1)))
        assert mse == pytest.approx(y_power)
