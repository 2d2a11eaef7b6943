import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import redar.linalg

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
    markov_parameters,
    noise_to_signal,
    parallel_difference,
    solve_discrete_riccati,
    spectral_radius,
)

from .oracles import (
    grid_gain,
    hamiltonian_block,
    impulse_blocks,
    lyapunov_series,
    refined_peak,
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
    """The solve behind every Lyapunov caller.  Each solves on an A checked
    stable first: the Gramians after the check that
    TestHankel.test_one_stability_check covers, and LoopAnalysis on a
    ClosedLoop, which refuses an unstable A (test_systems'
    TestAssemble.test_rejects_unstable_loop).  A here is stable."""

    @given(seeds, st.integers(1, 6), st.floats(0.1, 0.95))
    def test_residual_contract(self, seed, n, target):
        rng = rng_from(seed)
        a = random_stable(rng, n, target)
        w = random_psd(rng, n)
        p = redar.linalg._lyapunov(a, w)
        resid = np.linalg.norm(p - a @ p @ a.T - w)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(w))

    @given(seeds, st.integers(1, 5))
    def test_matches_series_oracle(self, seed, n):
        rng = rng_from(seed)
        a = random_stable(rng, n, 0.8)
        w = random_psd(rng, n)
        p = redar.linalg._lyapunov(a, w)
        expected = lyapunov_series(a, w)
        assert np.linalg.norm(p - expected) <= 1e-8 * (1.0 + np.linalg.norm(expected))

    @given(seeds, st.integers(1, 5))
    def test_psd_for_psd_forcing(self, seed, n):
        rng = rng_from(seed)
        p = redar.linalg._lyapunov(random_stable(rng, n, 0.9), random_psd(rng, n))
        assert np.linalg.eigvalsh(p).min() >= -1e-10


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

    def test_small_solution_matches_scipy(self):
        # ||P|| ~ 5e-14: only a stopping rule relative to ||P|| reaches it
        a, b, q, r = [[0.9]], [[1.0]], [[1e-14]], [[1.0]]
        p = solve_discrete_riccati(a, b, q, r)
        expected = scipy.linalg.solve_discrete_are(*map(np.array, (a, b, q, r)))
        assert np.linalg.norm(p - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_closed_loop_inside_the_stability_margin_is_refused(self):
        # A - B F has spectral radius 1 - 1e-12, above 1 - STABILITY_MARGIN
        with pytest.raises(NotStabilizable, match="does not stabilize the pair"):
            solve_discrete_riccati([[1.0 - 1e-12]], [[1e-6]], [[1e-20]], [[1.0]])

    def test_unstabilizable_pair(self):
        # the diverging iteration stops at its first non-finite norm, unwarned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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


class TestMarkovParameters:
    @pytest.mark.parametrize("with_d", [False, True], ids=["d_zero", "d_nonzero"])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_matches_impulse_oracle(self, n, with_d):
        rng = rng_from(10 * n + with_d)
        if n:
            sys = random_system(rng, n, 2, 3, target=0.8, with_d=with_d)
        else:
            d = rng.standard_normal((3, 2)) if with_d else np.zeros((3, 2))
            sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)), d)
        for count in sorted({1, 2, n + 1}):
            blocks = markov_parameters(sys, count)
            assert blocks.shape == (count, 3, 2)
            assert np.array_equal(blocks[0], sys.d)
            assert np.allclose(blocks[1:], impulse_blocks(sys, count - 1), rtol=1e-12, atol=1e-14)

    def test_count_guard(self):
        with pytest.raises(ValueError):
            markov_parameters(StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]]), 0)


class TestPeakGain:
    """The largest singular value from the smaller Gram matrix."""

    @settings(max_examples=80, deadline=None)
    @given(
        seeds,
        st.sampled_from([(1, 1), (1, 5), (5, 1), (2, 4), (4, 2), (4, 4)]),
        st.integers(0, 5),
        st.integers(-150, 150),
        st.booleans(),
    )
    def test_matches_the_svd(self, seed, shape, count, exponent, complex_entries):
        # each matrix at its own scale between 1e-150 and 1e150 (times
        # 10^exponent), the first of the stack all zero
        rng = rng_from(seed)
        h = rng.standard_normal((count, *shape))
        if complex_entries:
            h = h + 1j * rng.standard_normal((count, *shape))
        h *= 10.0 ** np.clip(exponent + rng.integers(-20, 21, (count, 1, 1)), -150, 150)
        h[:1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = redar.linalg._peak_gain(h)
            want = np.linalg.svd(h, compute_uv=False)[..., 0]
        assert got.shape == (count,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_single_matrix_and_empty_sides(self):
        assert float(redar.linalg._peak_gain([[3.0, 4.0]])) == 5.0
        assert redar.linalg._peak_gain(np.zeros((3, 0, 2))).tolist() == [0.0, 0.0, 0.0]


class TestHamiltonian:
    """The one-solve Hamiltonian against the two-solve block assembly."""

    @staticmethod
    def assert_same_spectrum(system, gamma):
        cont = redar.linalg._bilinear_to_continuous(system)
        got = np.linalg.eigvals(redar.linalg._hamiltonian(*cont, gamma))
        want = np.linalg.eigvals(hamiltonian_block(*cont, gamma))
        # each eigenvalue has a partner in the other set, relative to the spectrum
        gaps = np.abs(got[:, None] - want[None, :])
        scale = np.abs(want).max()
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-12 * scale
        return got

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(1, 6), st.integers(1, 3), st.integers(1, 3), st.floats(1.1, 4.0))
    def test_same_eigenvalues_above_the_peak(self, seed, n, m, p, ratio):
        system = random_system(rng_from(seed), n, m, p, target=0.8, with_d=True)
        self.assert_same_spectrum(system, ratio * hinf_norm(system))

    def test_same_crossings_below_the_peak(self):
        # 1/(z - 0.5) + 0.3 runs from 2.3 at z = 1 down to 0.3 - 2/3 at
        # z = -1, so level 1.5 is crossed once, at a simple eigenvalue pair
        system = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.3]])
        eig = self.assert_same_spectrum(system, 1.5)
        assert np.all(np.abs(eig.real) <= 1e-12 * np.abs(eig))


class TestGains:
    def test_hinf_scalar_pole(self, monkeypatch):
        monkeypatch.setattr(redar.linalg, "_HINF_TOL", 1e-7)
        sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert abs(hinf_norm(sys) - 2.0) <= 1e-6

    @given(seeds, st.integers(1, 5))
    def test_hinf_sandwich(self, seed, n):
        sys = random_system(rng_from(seed), n, 2, 2, target=0.6)
        dense = grid_gain(sys, n_points=4096)
        norm = hinf_norm(sys)
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
        # G(z) = 1 - z^-8 vanishes at z = 1, z = -1 and at every pole angle,
        # yet its norm is 2 (at z = exp(i pi / 8) and the other odd
        # multiples); the Markov parameter D = 1 puts the first level on
        # the system's scale.  The gain evaluated at pi / 8 is 2 + 1.6e-15
        # (roundoff of the resolvent solve), hence the 1e-14 term
        shift = StateSpace(np.eye(8, k=-1), np.eye(8, 1), -np.eye(1, 8, 7), [[1.0]])
        assert grid_gain(shift, n_points=8) < 1e-12
        norm = hinf_norm(shift)
        assert 2.0 <= norm <= 2.0 * (1.0 + 1e-6) * (1.0 + 1e-14)

    @pytest.mark.parametrize(
        "a",
        [1 - 1e-5, 1 - 1e-6, 1 - 1e-7, 1 - 1e-8, 1 - 2e-9, -(1 - 1e-6)],
        ids=["1-1e-5", "1-1e-6", "1-1e-7", "1-1e-8", "1-2e-9", "-(1-1e-6)"],
    )
    def test_hinf_pole_next_to_the_unit_circle(self, a):
        # 1/(z - a) peaks at 1/delta, delta = 1 - |a|; Hamiltonian
        # eigenvalues near the axis must not push the value out of band
        delta = 1.0 - abs(a)
        norm = hinf_norm(StateSpace([[a]], [[1.0]], [[1.0]], [[0.0]]))
        assert (1.0 - 1e-12) / delta <= norm <= (1.0 + 1e-6) * (1.0 + 1e-12) / delta

    def test_hinf_level_out_of_range_raises(self):
        # the first level's square overflows
        with pytest.raises(NumericalError):
            hinf_norm(StateSpace([[0.5]], [[1.0]], [[1.0]], [[1e200]]))

    def test_hinf_peak_between_grid_points(self):
        # lightly damped pair at angle pi/8, halfway between the points of
        # an 8-point grid; compared with a fine evaluation around the peak
        r, w = 0.995, np.pi / 8.0
        a = r * np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])
        sys = StateSpace(a, [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]])
        theta = np.linspace(w - 0.05, w + 0.05, 200_001)
        dense = np.abs(frequency_response(sys, np.exp(1j * theta))).max()
        assert grid_gain(sys, n_points=8) < 0.1 * dense
        norm = hinf_norm(sys)
        assert dense <= norm <= dense * (1.0 + 2e-6)

    @settings(max_examples=50, deadline=None)
    @given(
        seeds,
        st.integers(1, 8),
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
        st.sampled_from([0.5, 0.99, 1.0 - 1e-5]),
    )
    def test_hinf_matches_a_refined_dense_peak(self, seed, n, p, m, with_d, target):
        sys = random_system(rng_from(seed), n, m, p, target=target, with_d=with_d)
        dense = refined_peak(sys)
        norm = hinf_norm(sys)
        assert dense * (1.0 - 1e-10) <= norm <= dense * (1.0 + 1e-5)

    @pytest.mark.parametrize("which", ["noise_map", "one_minus_z8"])
    def test_hinf_evaluates_few_points(self, which, dynamic_loop, monkeypatch):
        # a dense grid must not come back: count every evaluated point; and
        # count Hamiltonian eigensolves, capped at what the iteration takes
        # with the block-assembled Hamiltonian (oracles.hamiltonian_block),
        # so that the iteration count cannot grow silently
        if which == "noise_map":
            sys, solves = noise_to_signal(dynamic_loop), 1
        else:
            sys, solves = StateSpace(np.eye(8, k=-1), np.eye(8, 1), -np.eye(1, 8, 7), [[1.0]]), 2
        points, hamiltonians = [], []
        hamiltonian = redar.linalg._hamiltonian

        def counting(system, zs):
            points.append(np.size(zs))
            return frequency_response(system, zs)

        def counting_hamiltonian(*args):
            hamiltonians.append(args[-1])
            return hamiltonian(*args)

        monkeypatch.setattr(redar.linalg, "frequency_response", counting)
        monkeypatch.setattr(redar.linalg, "_hamiltonian", counting_hamiltonian)
        hinf_norm(sys)
        assert 0 < sum(points) <= 64
        assert 0 < len(hamiltonians) <= solves


class TestHankel:
    def test_scalar_pole_value(self):
        # controllability and observability gramians of 1/(z - 0.5) are both
        # 1/(1 - 0.25), so the single Hankel value is 4/3
        sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert hankel_singular_values(sys)[0] == pytest.approx(4.0 / 3.0, rel=1e-10)

    @pytest.mark.parametrize(
        "reduce", [hankel_singular_values, lambda s: balanced_truncate(s, 0.1)], ids=["hsv", "bt"]
    )
    def test_one_stability_check(self, reduce, monkeypatch):
        checked = []
        require_stable = redar.linalg._require_stable

        def counting(a, *args):
            checked.append(a)
            return require_stable(a, *args)

        monkeypatch.setattr(redar.linalg, "_require_stable", counting)
        reduce(random_system(rng_from(6), 5, 2, 2))
        assert len(checked) == 1
        unstable = StateSpace([[1.0, 0.0], [0.0, 0.5]], [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
        with pytest.raises(NotStable):
            reduce(unstable)

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
        err = grid_gain(parallel_difference(sys, reduced), n_points=512)
        assert err <= certified * (1.0 + 1e-6) + 1e-10

    def test_zero_budget_keeps_everything(self):
        sys = random_system(rng_from(3), 4, 2, 2, target=0.7)
        reduced, certified = balanced_truncate(sys, 0.0)
        assert certified == 0.0
        assert grid_gain(parallel_difference(sys, reduced), n_points=256) <= 1e-9

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

    def test_rejects_nan_budget(self):
        with pytest.raises(ValueError):
            balanced_truncate(random_system(rng_from(5), 2, 1, 1), float("nan"))


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
