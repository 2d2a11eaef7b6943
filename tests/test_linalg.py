import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from redar import (
    DimensionMismatch,
    NotStabilizable,
    NotStable,
    NumericalError,
    StateSpace,
    balanced_truncate,
    frequency_response,
    hankel_singular_values,
    hinf_norm,
    kalman_gain,
    parallel_difference,
    peak_gain,
    solve_discrete_lyapunov,
    solve_discrete_riccati,
    spectral_radius,
)

from .oracles import (
    grid_gain,
    lyapunov_series,
    response_series,
    scalar_dare_fixed_point,
    spectral_radius_roots,
)
from .support import random_psd, random_stable, random_system, rng_from

seeds = st.integers(0, 2**32 - 1)


class TestStateSpace:
    def test_shapes(self):
        sys = random_system(rng_from(0), 3, 2, 4)
        assert (sys.n_states, sys.n_inputs, sys.n_outputs) == (3, 2, 4)

    def test_rejects_nonsquare_a(self):
        with pytest.raises(DimensionMismatch):
            StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))

    def test_rejects_mismatched_b(self):
        with pytest.raises(DimensionMismatch):
            StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)))

    def test_rejects_mismatched_d(self):
        with pytest.raises(DimensionMismatch):
            StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((2, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateSpace([[np.nan]], [[1.0]], [[1.0]], [[0.0]])

    def test_matrices_are_frozen(self):
        sys = random_system(rng_from(1), 2, 1, 1)
        with pytest.raises(ValueError):
            sys.a[0, 0] = 1.0


class TestSpectralRadius:
    @given(seeds, st.integers(1, 5))
    def test_matches_charpoly_roots(self, seed, n):
        a = rng_from(seed).standard_normal((n, n))
        assert spectral_radius(a) == pytest.approx(spectral_radius_roots(a), rel=1e-8)

    def test_empty(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            spectral_radius(np.zeros((2, 3)))


class TestLyapunov:
    @given(seeds, st.integers(1, 6), st.floats(0.1, 0.95))
    def test_residual_contract(self, seed, n, target):
        rng = rng_from(seed)
        a = random_stable(rng, n, target)
        w = random_psd(rng, n)
        p = solve_discrete_lyapunov(a, w)
        resid = np.linalg.norm(p - a @ p @ a.T - w)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(w))

    @given(seeds, st.integers(1, 5))
    def test_matches_series_oracle(self, seed, n):
        rng = rng_from(seed)
        a = random_stable(rng, n, 0.8)
        w = random_psd(rng, n)
        p = solve_discrete_lyapunov(a, w)
        expected = lyapunov_series(a, w)
        assert np.linalg.norm(p - expected) <= 1e-8 * (1.0 + np.linalg.norm(expected))

    @given(seeds, st.integers(1, 5))
    def test_psd_for_psd_forcing(self, seed, n):
        rng = rng_from(seed)
        p = solve_discrete_lyapunov(random_stable(rng, n, 0.9), random_psd(rng, n))
        assert np.linalg.eigvalsh(p).min() >= -1e-10

    def test_rejects_unstable(self):
        with pytest.raises(NotStable):
            solve_discrete_lyapunov([[1.0]], [[1.0]])

    def test_empty(self):
        assert solve_discrete_lyapunov(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)


class TestRiccati:
    def test_scalar_golden_ratio(self):
        p = solve_discrete_riccati([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert abs(p[0, 0] - (1.0 + np.sqrt(5.0)) / 2.0) <= 1e-10

    @given(seeds, st.integers(1, 4), st.integers(1, 3))
    def test_matches_scipy(self, seed, n, m):
        rng = rng_from(seed)
        a = random_stable(rng, n, 0.9)
        b = rng.standard_normal((n, m))
        q = random_psd(rng, n, floor=0.1)
        r = random_psd(rng, m, floor=0.1)
        p = solve_discrete_riccati(a, b, q, r)
        expected = scipy.linalg.solve_discrete_are(a, b, q, r)
        assert np.linalg.norm(p - expected) <= 1e-8 * (1.0 + np.linalg.norm(expected))

    @given(seeds)
    def test_scalar_matches_fixed_point(self, seed):
        rng = rng_from(seed)
        a = float(rng.uniform(-0.95, 0.95))
        b = float(rng.uniform(0.2, 2.0))
        q = float(rng.uniform(0.1, 2.0))
        r = float(rng.uniform(0.1, 2.0))
        p = solve_discrete_riccati([[a]], [[b]], [[q]], [[r]])
        assert p[0, 0] == pytest.approx(scalar_dare_fixed_point(a, b, q, r), rel=1e-10)

    @given(seeds, st.integers(1, 4), st.integers(1, 3))
    def test_dare_residual(self, seed, n, m):
        rng = rng_from(seed)
        a = random_stable(rng, n, 0.9)
        b = rng.standard_normal((n, m))
        q = random_psd(rng, n, floor=0.1)
        r = random_psd(rng, m, floor=0.1)
        p = solve_discrete_riccati(a, b, q, r)
        gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
        resid = a.T @ p @ a - a.T @ p @ b @ gain + q - p
        assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(p))

    def test_unstabilizable_pair(self):
        with pytest.raises(NotStabilizable):
            solve_discrete_riccati([[2.0]], [[0.0]], [[1.0]], [[1.0]])


class TestKalmanGain:
    @given(seeds, st.integers(1, 4), st.integers(1, 3))
    def test_predictor_is_stable(self, seed, n, m):
        rng = rng_from(seed)
        a = rng.standard_normal((n, n))  # may be unstable; gain must still stabilize
        c = rng.standard_normal((m, n))
        k, p = kalman_gain(a, c, random_psd(rng, n, floor=0.1), random_psd(rng, m, floor=0.1))
        assert spectral_radius(a - k @ c) < 1.0

    @given(seeds, st.integers(1, 4))
    def test_gain_formula(self, seed, n):
        rng = rng_from(seed)
        a = random_stable(rng, n, 0.9)
        c = rng.standard_normal((2, n))
        w = random_psd(rng, n, floor=0.1)
        v = random_psd(rng, 2, floor=0.1)
        k, p = kalman_gain(a, c, w, v)
        expected = a @ p @ c.T @ np.linalg.inv(c @ p @ c.T + v)
        assert np.allclose(k, expected, atol=1e-8)


class TestFrequencyResponse:
    @given(seeds, st.integers(1, 5), st.floats(0.0, 2.0 * np.pi))
    def test_matches_series_oracle(self, seed, n, theta):
        sys = random_system(rng_from(seed), n, 2, 2, target=0.7)
        z = np.exp(1j * theta)
        h = frequency_response(sys, [z])[0]
        assert np.allclose(h, response_series(sys, z), atol=1e-9)

    def test_static_system(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), d)
        h = frequency_response(sys, [1.0, 1j])
        assert h.shape == (2, 2, 2)
        assert np.allclose(h, d)


class TestGains:
    def test_peak_gain_scalar_pole(self):
        # 1/(z - 0.5) peaks at z = 1 with value 2; the grid contains z = 1
        sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert peak_gain(sys) == pytest.approx(2.0, abs=1e-12)

    @given(seeds, st.integers(1, 4))
    def test_peak_gain_matches_oracle(self, seed, n):
        sys = random_system(rng_from(seed), n, 2, 2, target=0.6)
        assert peak_gain(sys, n_points=512) == pytest.approx(
            grid_gain(sys, n_points=512), rel=1e-9
        )

    def test_hinf_scalar_pole(self):
        sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert abs(hinf_norm(sys, tol=1e-7) - 2.0) <= 1e-6

    @given(seeds, st.integers(1, 5))
    def test_hinf_sandwich(self, seed, n):
        sys = random_system(rng_from(seed), n, 2, 2, target=0.6)
        dense = grid_gain(sys, n_points=4096)
        norm = hinf_norm(sys, tol=1e-6)
        assert norm >= dense - 1e-12 * max(1.0, dense)
        # dense grid undershoots the true norm by far less than 0.1 percent
        # at this damping, and the certificate overshoots by at most tol
        assert norm <= dense * 1.0011

    def test_hinf_static(self):
        sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), [[3.0, 4.0]])
        assert hinf_norm(sys) == pytest.approx(5.0)

    def test_hinf_zero_system(self):
        sys = StateSpace([[0.5]], [[1.0]], [[0.0]], [[0.0]])
        assert hinf_norm(sys) == 0.0

    def test_hinf_no_inputs(self):
        sys = StateSpace([[0.5]], np.zeros((1, 0)), [[1.0]], np.zeros((1, 0)))
        assert hinf_norm(sys) == 0.0

    def test_hinf_rejects_unstable(self):
        with pytest.raises(NotStable):
            hinf_norm(StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]))

    def test_hinf_brackets_up_from_a_blind_grid(self):
        # G(z) = 1 - z^-8 vanishes on every point of an 8-point grid, yet
        # its norm is 2 (at z = exp(i pi / 8) and the other odd multiples)
        shift = StateSpace(np.eye(8, k=-1), np.eye(8, 1), -np.eye(1, 8, 7), [[1.0]])
        assert peak_gain(shift, n_points=8) < 1e-12
        norm = hinf_norm(shift, tol=1e-6, n_grid=8)
        assert 2.0 <= norm <= 2.0 * (1.0 + 1e-6)

    def test_hinf_pole_on_the_stability_margin_raises(self):
        # a pole 2e-9 inside the circle puts Hamiltonian eigenvalues inside
        # the imaginary-axis tolerance at every level
        with pytest.raises(NumericalError):
            hinf_norm(StateSpace([[1.0 - 2e-9]], [[1.0]], [[1.0]], [[0.0]]))

    def test_hinf_peak_between_grid_points(self):
        # lightly damped pair at angle pi/8, halfway between the points of
        # an 8-point grid; compared with a fine evaluation around the peak
        r, w = 0.995, np.pi / 8.0
        a = r * np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])
        sys = StateSpace(a, [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]])
        theta = np.linspace(w - 0.05, w + 0.05, 200_001)
        dense = np.abs(frequency_response(sys, np.exp(1j * theta))).max()
        assert peak_gain(sys, n_points=8) < 0.1 * dense
        norm = hinf_norm(sys, tol=1e-6, n_grid=8)
        assert dense <= norm <= dense * (1.0 + 2e-6)


class TestHankel:
    def test_scalar_pole_value(self):
        # controllability and observability gramians of 1/(z - 0.5) are both
        # 1/(1 - 0.25), so the single Hankel value is 4/3
        sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert hankel_singular_values(sys)[0] == pytest.approx(4.0 / 3.0, rel=1e-10)

    @given(seeds, st.integers(1, 5))
    def test_descending_nonnegative(self, seed, n):
        sv = hankel_singular_values(random_system(rng_from(seed), n, 2, 2))
        assert np.all(sv >= 0.0)
        assert np.all(np.diff(sv) <= 1e-12)

    @given(seeds, st.integers(1, 4))
    def test_similarity_invariance(self, seed, n):
        rng = rng_from(seed)
        sys = random_system(rng, n, 2, 2)
        t = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        ti = np.linalg.inv(t)
        transformed = StateSpace(ti @ sys.a @ t, ti @ sys.b, sys.c @ t, sys.d)
        assert np.allclose(
            hankel_singular_values(sys), hankel_singular_values(transformed), rtol=1e-7, atol=1e-9
        )


class TestBalancedTruncate:
    @given(seeds, st.integers(1, 6), st.floats(1e-4, 10.0))
    def test_certificate(self, seed, n, budget):
        sys = random_system(rng_from(seed), n, 2, 2, target=0.7)
        reduced, certified = balanced_truncate(sys, budget)
        assert certified <= budget
        assert spectral_radius(reduced.a) < 1.0
        err = peak_gain(parallel_difference(sys, reduced), n_points=512)
        assert err <= certified * (1.0 + 1e-6) + 1e-10

    def test_zero_budget_keeps_everything(self):
        sys = random_system(rng_from(3), 4, 2, 2, target=0.7)
        reduced, certified = balanced_truncate(sys, 0.0)
        assert certified == 0.0
        assert peak_gain(parallel_difference(sys, reduced), n_points=256) <= 1e-9

    def test_huge_budget_drops_everything(self):
        sys = random_system(rng_from(4), 4, 2, 2, target=0.7)
        reduced, certified = balanced_truncate(sys, 1e9)
        assert reduced.n_states == 0
        assert np.array_equal(reduced.d, sys.d)
        assert certified == pytest.approx(2.0 * hankel_singular_values(sys).sum())

    @given(seeds)
    def test_order_monotone_in_budget(self, seed):
        sys = random_system(rng_from(seed), 5, 2, 2, target=0.7)
        orders = [balanced_truncate(sys, b)[0].n_states for b in (0.0, 0.01, 0.1, 1.0, 10.0)]
        assert orders == sorted(orders, reverse=True)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            balanced_truncate(random_system(rng_from(5), 2, 1, 1), -1.0)


class TestParallelDifference:
    @given(seeds)
    def test_response_subtracts(self, seed):
        rng = rng_from(seed)
        sys1 = random_system(rng, 3, 2, 2)
        sys2 = random_system(rng, 2, 2, 2)
        zs = np.exp(1j * np.linspace(0.1, 6.0, 7))
        diff = frequency_response(parallel_difference(sys1, sys2), zs)
        expected = frequency_response(sys1, zs) - frequency_response(sys2, zs)
        assert np.allclose(diff, expected, atol=1e-10)

    def test_rejects_mismatched_dims(self):
        with pytest.raises(DimensionMismatch):
            parallel_difference(
                random_system(rng_from(6), 2, 1, 1), random_system(rng_from(7), 2, 2, 1)
            )
