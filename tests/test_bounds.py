import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redar.bounds
from redar import (
    BoundCells,
    BoundInputs,
    Dims,
    InvalidT0,
    NumericalError,
    RhoTooSmall,
    StateSpace,
    TBelowT0,
    autocovariance,
    bound_cells,
    bound_inputs,
    build_ledger,
    element_deviation,
    expected_error_bound,
    format_ledger,
    frequency_response,
    gain_envelope,
    hard_floor,
    least_ledger,
    model_error_detail,
    moment_count,
    optimize_envelope,
    random_closed_loop,
    select_ledger,
    spectral_radius,
    steady_state_predictor,
    tail_bound,
)
from redar.experiments import ExperimentConfig, seed_loop

from .oracles import dense_ledger_scan, envelope_scan_loop, ledger_scan
from .support import random_system, rng_from


@pytest.fixture(scope="module")
def mild_inputs(mild_loop):
    return bound_inputs(mild_loop, p=2, alpha=50.0, phi=0.05)


@pytest.fixture(scope="module")
def unit_inputs():
    # every system quantity pinned to 1 so ledger constants are hand-checkable
    return BoundInputs(
        level=1.0,
        rho=0.5,
        z_power=1.0,
        e_power_sq=1.0,
        j_norm=1.0,
        xi=1.0,
        p=1,
        n_u=1,
        n_y=1,
        alpha=1.0,
        phi=0.0,
    )


def scalar_lag(a: float) -> StateSpace:
    return StateSpace(a=[[a]], b=[[1.0]], c=[[1.0]], d=[[0.0]])


class TestGainEnvelope:
    def test_scalar_pole(self):
        # max of 1/|z - a| on |z| = rho sits at z = rho; the level is
        # certified within (1 + 1e-6), up to a few ulps of roundoff
        h = scalar_lag(0.5)
        for rho in (0.6, 0.75, 0.9):
            level = gain_envelope(h, rho)
            assert 1.0 / (rho - 0.5) <= level <= (1.0 + 1e-6 + 1e-14) / (rho - 0.5)

    def test_bounds_gain_on_and_outside_circle(self, dynamic_loop):
        h = steady_state_predictor(dynamic_loop.plant)
        rho = spectral_radius(h.a) + 0.1
        level = gain_envelope(h, rho)
        for radius in (rho, (rho + 1.0) / 2.0, 0.999):
            z = radius * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 1777, endpoint=False))
            gains = np.linalg.norm(frequency_response(h, z), ord=2, axis=(1, 2))
            assert gains.max() <= level

    def test_certified_next_to_the_spectral_radius(self, dynamic_loop):
        # the low end of optimize_envelope's scan: a pole 1e-6 inside the
        # circle makes a peak far narrower than the grid spacing
        h = steady_state_predictor(dynamic_loop.plant)
        rho = spectral_radius(h.a) + 1e-6
        level = gain_envelope(h, rho)
        z = rho * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 1 << 16, endpoint=False))
        dense = np.linalg.norm(frequency_response(h, z), ord=2, axis=(1, 2)).max()
        assert np.isfinite(level)
        assert level >= dense

    def test_zero_output_map(self):
        h = StateSpace(a=[[0.5]], b=[[1.0]], c=[[0.0]], d=[[0.0]])
        assert gain_envelope(h, 0.8) == 0.0

    def test_empty_input_map(self):
        h = StateSpace(a=[[0.5]], b=np.zeros((1, 0)), c=[[1.0]], d=np.zeros((1, 0)))
        assert gain_envelope(h, 0.8) == 0.0

    def test_radius_guards(self):
        h = scalar_lag(0.5)
        with pytest.raises(RhoTooSmall):
            gain_envelope(h, 0.5)
        with pytest.raises(RhoTooSmall):
            gain_envelope(h, 0.2)
        with pytest.raises(ValueError):
            gain_envelope(h, 1.0)


class TestOptimizeEnvelope:
    def test_admissible_and_reproducible(self, dynamic_loop):
        h = steady_state_predictor(dynamic_loop.plant)
        rho, level = optimize_envelope(h, 4, n_rho=16)
        assert spectral_radius(h.a) < rho < 1.0
        assert level == gain_envelope(h, rho)

    def test_beats_scan_endpoints(self, dynamic_loop):
        h = steady_state_predictor(dynamic_loop.plant)
        p = 4
        rho, level = optimize_envelope(h, p, n_rho=16)
        best = level * rho ** (p + 1) / (1.0 - rho)
        sr = spectral_radius(h.a)
        for edge in (sr + 1e-6, 1.0 - 1e-6):
            level_edge = gain_envelope(h, edge)
            assert best <= level_edge * edge ** (p + 1) / (1.0 - edge) * (1.0 + 1e-12)

    def test_rejects_marginally_stable_predictor(self):
        h = StateSpace(a=[[1.0 - 1e-9]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
        with pytest.raises(RhoTooSmall):
            optimize_envelope(h, 4)

    @pytest.mark.parametrize("n_rho", [0, -3])
    def test_rejects_empty_scan(self, n_rho):
        with pytest.raises(ValueError, match="n_rho must be positive"):
            optimize_envelope(scalar_lag(0.5), 4, n_rho=n_rho)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 6),
        st.integers(1, 4),
        st.integers(1, 3),
        st.floats(0.0, 0.999),
        st.integers(1, 8),
        st.sampled_from([1, 2, 8, 64]),
    )
    # near ties that a floor 1 % too high would settle wrongly
    @example(2289445491, 3, 1, 3, 0.6739229788599637, 1, 64)
    @example(4203301314, 5, 1, 1, 0.6691879684584099, 8, 64)
    @example(3351722847, 4, 4, 3, 0.6095776482539946, 4, 64)
    def test_matches_exhaustive_scan(self, seed, n, n_in, n_out, target, p, n_rho):
        h = random_system(rng_from(seed), n, n_in, n_out, target=target)
        assert optimize_envelope(h, p, n_rho=n_rho) == envelope_scan_loop(h, p, n_rho)

    @staticmethod
    def counted(monkeypatch):
        radii = []

        def gain_envelope_counted(h_star, rho):
            radii.append(rho)
            return gain_envelope(h_star, rho)

        monkeypatch.setattr(redar.bounds, "gain_envelope", gain_envelope_counted)
        return radii

    def test_zero_gain_certifies_first_radius_only(self, monkeypatch):
        h = StateSpace(a=[[0.5, 0.2], [0.0, -0.3]], b=[[1.0], [1.0]], c=[[0.0, 0.0]], d=[[0.0]])
        radii = self.counted(monkeypatch)
        rho, level = optimize_envelope(h, 4)
        assert level == 0.0
        assert rho == float(np.geomspace(0.5 + 1e-6, 1.0 - 1e-6, 64)[0])
        assert radii == [rho]

    @pytest.mark.parametrize(
        "dims", [Dims(3, 2, 2), Dims(2, 1, 1), Dims(6, 2, 2)], ids=["3-2-2", "2-1-1", "6-2-2"]
    )
    def test_certifies_few_radii(self, monkeypatch, dims):
        radii = self.counted(monkeypatch)
        for seed in range(16):
            cl = random_closed_loop(dims, 0.7, seed=np.random.SeedSequence([seed, 0]))
            radii.clear()
            optimize_envelope(steady_state_predictor(cl.plant), 4)
            assert 1 <= len(radii) <= 16


class TestTailBound:
    def test_formula(self):
        assert tail_bound(2.0, 0.5, 3) == pytest.approx(2.0 * 0.5**4 / 0.5)

    @given(level=st.floats(0.0, 100.0), rho=st.floats(0.01, 0.99), p=st.integers(0, 40))
    def test_shrinks_with_memory(self, level, rho, p):
        assert tail_bound(level, rho, p + 1) <= tail_bound(level, rho, p)

    def test_guards(self):
        with pytest.raises(ValueError):
            tail_bound(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            tail_bound(-1.0, 0.5, 3)
        with pytest.raises(ValueError):
            tail_bound(1.0, 0.5, -1)
        with pytest.raises(ValueError):
            tail_bound(math.nan, 0.5, 3)


class TestMomentCount:
    def test_hand_values(self):
        assert moment_count(1, 1, 2) == 5
        assert moment_count(4, 2, 4) == 4 * 2 * 4 + 16 * 17 // 2

    def test_guards(self):
        with pytest.raises(ValueError):
            moment_count(0, 1, 1)


class TestElementDeviation:
    @given(
        theta=st.floats(1e-6, 0.999),
        t=st.floats(1.0, 1e8),
        j_norm=st.floats(0.1, 50.0),
        count=st.integers(1, 10_000),
    )
    def test_inverts_tail_probability(self, theta, t, j_norm, count):
        # the radius must put the two-sided union tail exactly at theta
        delta = element_deviation(theta, t, j_norm, count)
        rate = min(delta**2 / (32.0 * j_norm**4), delta / (8.0 * j_norm**2))
        tail = 2.0 * count * math.exp(-t * rate)
        assert tail == pytest.approx(theta, rel=1e-10)

    def test_branches(self):
        # large T lands on the sqrt branch, tiny T on the linear branch
        j, count = 1.0, 5
        small = element_deviation(0.1, 1e6, j, count)
        g = 2.0 / 1e6 * math.log(100.0)
        assert small == pytest.approx(4.0 * math.sqrt(g))
        big = element_deviation(0.1, 2.0, j, count)
        g = math.log(100.0)
        assert big == pytest.approx(4.0 * g)

    def test_guards(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                element_deviation(bad, 10.0, 1.0, 5)
        with pytest.raises(ValueError):
            element_deviation(0.1, 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            element_deviation(0.1, 10.0, 1.0, 0)


class TestHardFloor:
    def test_each_arm_can_dominate(self):
        assert hard_floor(2, 10.0, 1.0) == 200.0
        assert hard_floor(37, 1.0, 1.0) == 37.0
        assert hard_floor(1, 1.0, 1.0) == 4.0
        assert hard_floor(1, 1.0, 0.01) == 2.0 / 0.01**2

    @given(
        p=st.integers(1, 50),
        alpha=st.floats(1e-3, 1e3),
        xi=st.floats(1e-3, 1e3),
    )
    def test_dominates_every_arm(self, p, alpha, xi):
        floor = hard_floor(p, alpha, xi)
        assert floor >= 2.0 * alpha / xi
        assert floor >= p
        assert floor >= 4.0
        assert floor >= 2.0 * alpha**2 / xi**2


class TestBuildLedger:
    def test_hand_checked_constants(self, unit_inputs):
        c = build_ledger(unit_inputs, 10.0).constants
        r2 = math.sqrt(2.0)
        assert c["b"] == 5
        assert c["c1"] == pytest.approx(r2)
        assert c["c2"] == 2.0
        assert c["c3"] == pytest.approx(r2 + 2.0)
        assert c["c4"] == 1.0
        assert c["c5"] == 16.0
        assert c["c6"] == pytest.approx(1.0 / (8.0 * (4.0 / 10.0**0.25 + r2 + 2.0)))
        assert c["c7"] == pytest.approx(1.0 / (4.0 * (10.0 + r2)))
        assert c["c8"] == 160.0
        assert c["c9"] == 40.0
        assert c["lam"] == pytest.approx(8.0 * (r2 + 2.0))
        assert c["sigma"] == pytest.approx(4.0 * (r2 + 2.0))
        assert c["c12"] == pytest.approx(c["lam"] / 2.0)
        assert c["c15"] == pytest.approx(2.0 * c["sigma"])
        growth = math.exp(1.0 / c["lam"])
        assert c["c10"] == pytest.approx(8.0 * 5.0 * c["lam"] * growth)
        assert c["c11"] == pytest.approx(4.0 * 5.0 * c["lam"] ** 2 * growth)
        assert c["c13"] == pytest.approx(4.0 * 5.0 * c["sigma"] ** 2)
        assert c["c14"] == pytest.approx(8.0 * 5.0 * c["sigma"] ** 2)

    def test_constants_are_read_only(self, unit_inputs):
        with pytest.raises(TypeError):
            build_ledger(unit_inputs, 10.0).constants["b"] = 6

    def test_threshold_clears_candidate_and_peaks(self, unit_inputs):
        led = build_ledger(unit_inputs, 10.0)
        assert led.t0 == max(10.0, *(term.t_max for term in led.terms))
        assert led.floor == 4.0
        assert led.k == sum(led.k_terms)
        assert len(led.terms) == 9

    def test_terms_dominated_beyond_threshold(self, mild_inputs):
        led = select_ledger(mild_inputs, 2.0**15)
        for term, k_i in zip(led.terms, led.k_terms):
            for t in np.geomspace(led.t0, led.t0 * 1e6, 23):
                assert term.value(float(t)) <= k_i / math.sqrt(t) * (1.0 + 1e-12)

    def test_rejects_candidate_below_floor(self, unit_inputs):
        with pytest.raises(InvalidT0):
            build_ledger(unit_inputs, 3.9)

    def test_split_points_evaluated_at_threshold(self, unit_inputs):
        led = build_ledger(unit_inputs, 10.0)
        assert led.constants["epsilon0"] == pytest.approx((2.0 / led.t0**0.25) ** 2)
        assert led.constants["epsilon1"] == pytest.approx((2.0 * led.t0) ** 2)

    @pytest.mark.parametrize("t0_candidate", [1e130, 1e200, 1e308])
    def test_threshold_past_the_power_range(self, unit_inputs, t0_candidate):
        # T0^m with m = 2.5 leaves the float range past T0 = 1e123 and
        # epsilon1 past T0 = 1e154: the decay terms go through logarithms
        # (their exponentials vanish there), epsilon1 reads inf
        led = build_ledger(unit_inputs, t0_candidate)
        assert led.t0 == t0_candidate
        assert all(k_i == 0.0 for k_i in led.k_terms[1:])
        assert led.k == led.k_terms[0] == 4.0
        assert led.constants["epsilon1"] == (
            math.inf if t0_candidate > 1e154 else (2.0 * t0_candidate) ** 2
        )
        assert led.terms[0].value(t0_candidate) == 4.0 / math.sqrt(t0_candidate)
        assert all(term.value(t0_candidate) == 0.0 for term in led.terms[1:])

    def test_terms_past_the_power_range(self):
        # T^2.5 overflows at T = 1e130 though a T^2.5 exp(-T / 1e128) is
        # about 3.7e281; an infinite a times an exponential that vanishes
        # is left at the upper bound inf
        term = redar.bounds.LedgerTerm("test", 1.0, 2.5, 1e-128, 1.0)
        assert term.k_contribution(1e130) == pytest.approx(math.exp(2.5 * math.log(1e130) - 100.0))
        assert term.value(1e130) == pytest.approx(math.exp(2.0 * math.log(1e130) - 100.0))
        unresolved = redar.bounds.LedgerTerm("test", math.inf, 1.5, 1.0, 1.0)
        assert unresolved.k_contribution(1e3) == math.inf

    @pytest.mark.parametrize("alpha", [1e-200, 1e-80, 1e155, 1e200])
    @pytest.mark.parametrize("t_target", [1e6, 1e300])
    def test_constants_out_of_float_range_raise(self, unit_inputs, alpha, t_target):
        inputs = dataclasses.replace(unit_inputs, alpha=alpha)
        with pytest.raises(NumericalError, match="floating-point range"):
            select_ledger(inputs, t_target)


def drawn_inputs(log_alpha, log_xi, log_j, p, n_u, n_y):
    return BoundInputs(
        level=1.0, rho=0.5, z_power=1.0, e_power_sq=1.0, j_norm=10.0**log_j,
        xi=10.0**log_xi, p=p, n_u=n_u, n_y=n_y, alpha=10.0**log_alpha, phi=0.05,
    )


# bound inputs across many decades of alpha, xi and j_norm
DRAWN_INPUTS = dict(
    log_alpha=st.floats(-3.0, 3.0),
    log_xi=st.floats(-3.0, 1.0),
    log_j=st.floats(-1.0, 1.5),
    p=st.integers(1, 8),
    n_u=st.integers(1, 3),
    n_y=st.integers(1, 3),
)
UNIT_DRAW = dict(log_alpha=0.0, log_xi=0.0, log_j=0.0, p=1, n_u=1, n_y=1)


class TestSelectLedger:
    def test_feasible_for_moderate_target(self, mild_inputs):
        led = select_ledger(mild_inputs, 2.0**15)
        assert led.t0 <= 2.0**15
        value = expected_error_bound(mild_inputs, led, 2.0**15)
        assert math.isfinite(value) and value > mild_inputs.e_power_sq

    def test_target_below_floor_gives_self_consistent_threshold(self, unit_inputs):
        led = select_ledger(unit_inputs, 2.0)
        assert led == least_ledger(unit_inputs)
        assert led.floor <= led.t0_candidate == led.t0 <= build_ledger(unit_inputs, 4.0).t0

    def test_infeasible_target_minimizes_threshold(self, unit_inputs):
        led = select_ledger(unit_inputs, 5.0)
        assert led.t0 > 5.0  # every candidate peaks later than this tiny target
        alt = build_ledger(unit_inputs, 4.0)
        assert led.t0 <= alt.t0 * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "name, t_target",
        [
            ("unit_inputs", 5.0),
            ("unit_inputs", 2.0**20),
            ("mild_inputs", 4.0),
            ("mild_inputs", 2.0**14),
        ],
    )
    def test_missed_target_is_its_own_candidate(self, request, name, t_target):
        inputs = request.getfixturevalue(name)
        led = select_ledger(inputs, t_target)
        assert led.t0 > t_target
        assert led.t0_candidate == led.t0
        assert led == build_ledger(inputs, led.t0) == least_ledger(inputs)
        # a candidate just below gives no smaller threshold
        below = build_ledger(inputs, max(led.floor, led.t0 * (1.0 - 1e-9)))
        assert below.t0 >= led.t0 * (1.0 - 1e-12)

    def test_target_at_the_self_consistent_threshold(self, unit_inputs):
        # at t0* the least ledger is the cell's own and the scan's pick;
        # one ulp lower no candidate reaches the target
        least = least_ledger(unit_inputs)
        assert select_ledger(unit_inputs, least.t0) == least == ledger_scan(unit_inputs, least.t0)
        assert select_ledger(unit_inputs, math.nextafter(least.t0, 0.0)) == least

    def test_target_at_the_hard_floor(self):
        # a geometric scan from this floor puts interior candidates one
        # ulp below it, which build_ledger refuses with InvalidT0
        cl = random_closed_loop(Dims(3, 2, 2), 0.7, seed=12, noise_floor=0.05)
        inputs = bound_inputs(cl, p=1, alpha=100.0, phi=0.05)
        target = hard_floor(1, 100.0, inputs.xi)
        led = select_ledger(inputs, target)
        assert led.t0 <= target * (1.0 + 1e-12) or led == least_ledger(inputs)

    def test_root_out_of_float_range_raises(self, unit_inputs, monkeypatch):
        # alpha = 1e-200 puts the fixed point near 1e800, out of range
        # before any ledger is built
        inputs = dataclasses.replace(unit_inputs, alpha=1e-200)

        def unreachable(inputs, c):
            raise AssertionError("a ledger was built")

        monkeypatch.setattr(redar.bounds, "build_ledger", unreachable)
        with pytest.raises(NumericalError, match="floating-point range"):
            select_ledger(inputs, 1e6)


class TestCellRule:
    # a cell at T >= t0* uses the ledger built at candidate T

    @settings(max_examples=60, deadline=None)
    @given(log_target=st.floats(0.0, 40.0), **DRAWN_INPUTS)
    @example(log_target=0.0, **UNIT_DRAW)
    def test_least_threshold_against_dense_candidate_scan(self, log_target, **draw):
        inputs = drawn_inputs(**draw)
        least = least_ledger(inputs)
        # t0* is its own candidate and below every candidate's threshold
        assert least.t0 == least.t0_candidate
        assert least.t0 <= min(alt.t0 for alt in dense_ledger_scan(inputs))
        below = build_ledger(inputs, max(least.floor, least.t0 * (1.0 - 1e-9)))
        assert below.t0 >= least.t0 * (1.0 - 1e-12)
        # a missed target gets the least ledger, a met one a ledger valid there
        t_target = 10.0**log_target
        led = select_ledger(inputs, t_target)
        if t_target < least.t0:
            assert led == least
        else:
            assert least.t0 <= led.t0 <= t_target

    @settings(max_examples=60, deadline=None)
    @given(log_ratio=st.floats(0.0, 12.0), **DRAWN_INPUTS)
    @example(log_ratio=0.0, **UNIT_DRAW)
    def test_candidate_ledger_is_valid_from_the_least_threshold(self, log_ratio, **draw):
        inputs = drawn_inputs(**draw)
        t = least_ledger(inputs).t0 * 10.0**log_ratio
        assert build_ledger(inputs, t).t0 <= t * (1.0 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(**DRAWN_INPUTS)
    @example(**UNIT_DRAW)
    def test_valid_from_the_least_threshold_on(self, **draw):
        inputs = drawn_inputs(**draw)
        least = least_ledger(inputs)
        below = bound_cells(inputs, 0.1, math.nextafter(least.t0, 0.0))
        assert not below.valid and below.expected is None and below.k == least.k
        at = bound_cells(inputs, 0.1, least.t0)
        assert at.valid and at.expected == expected_error_bound(inputs, least, least.t0)

    @settings(max_examples=60, deadline=None)
    @given(log_ratio=st.floats(0.0, 12.0), **DRAWN_INPUTS)
    @example(log_ratio=0.0, **UNIT_DRAW)
    @example(log_ratio=3.0, **UNIT_DRAW)
    def test_no_candidate_bounds_lower(self, log_ratio, **draw):
        inputs = drawn_inputs(**draw)
        least = least_ledger(inputs)
        t = least.t0 * 10.0**log_ratio
        cell = bound_cells(inputs, 0.1, t)
        # k falls as the candidate grows, up to roundoff in the sum of k_i
        assert cell.valid and cell.k <= least.k * (1.0 + 1e-12)
        assert all(
            cell.expected <= expected_error_bound(inputs, alt, t) * (1.0 + 1e-12)
            for alt in dense_ledger_scan(inputs)
            if alt.t0 <= t
        )

    @settings(max_examples=60, deadline=None)
    @given(log_target=st.floats(0.0, 40.0), log_ratio=st.floats(0.0, 8.0), **DRAWN_INPUTS)
    @example(log_target=0.0, log_ratio=0.0, **UNIT_DRAW)
    @example(log_target=6.0, log_ratio=1.0, **UNIT_DRAW)
    def test_never_looser_than_the_scan(self, log_target, log_ratio, **draw):
        # every cell the sixteen-candidate scan for a target X made valid
        # is valid under the cell rule, with a bound no larger
        inputs = drawn_inputs(**draw)
        old = ledger_scan(inputs, 10.0**log_target)
        t = old.t0 * 10.0**log_ratio
        cell = bound_cells(inputs, 0.1, t)
        assert cell.valid
        assert cell.expected <= expected_error_bound(inputs, old, t) * (1.0 + 1e-12)

    def test_sample_size_above_the_least_threshold_tightens(self, mild_inputs):
        # on the mild loop t0* < 2^15; at 2^16 the cell's own ledger gives
        # a smaller k than the ledger for 2^15
        least = least_ledger(mild_inputs)
        assert least.t0 <= 2.0**15
        cell = bound_cells(mild_inputs, 0.1, 2.0**16)
        assert cell.k == build_ledger(mild_inputs, 2.0**16).k
        assert cell.k < select_ledger(mild_inputs, 2.0**15).k < least.k

    def test_cell_ledger_comes_from_the_inputs(self):
        # the loop of `redar generate --seeds 0` at p = 4: t0* < 1e12 < 1e16,
        # and the cell at 1e12 uses the ledger at candidate 1e12, whatever
        # ledger a caller might have had at hand
        loop = seed_loop(ExperimentConfig(), 0)
        inputs = bound_inputs(loop, 4, 1.0, 0.05)
        assert least_ledger(inputs).t0 < 1e12 < select_ledger(inputs, 1e16).t0
        cell = bound_cells(inputs, 0.1, 1e12)
        own = build_ledger(inputs, 1e12)
        assert cell.valid
        assert cell.expected == expected_error_bound(inputs, own, 1e12)
        assert cell.k == own.k


    def test_least_ledger_is_built_once_per_inputs(self, monkeypatch):
        # a sweep of sizes below t0* reuses the inputs' least ledger (one
        # or two build_ledger calls), and every cell is the invalid cell
        inputs = bound_inputs(seed_loop(ExperimentConfig(), 0), 4, 1.0, 0.05)
        least, sizes = least_ledger(inputs), [2.0**k for k in range(8, 17)]
        assert max(sizes) < least.t0
        builds, build = [], redar.bounds.build_ledger
        monkeypatch.setattr(redar.bounds, "build_ledger", lambda *a: builds.append(a) or build(*a))
        cells = [bound_cells(inputs, 0.1, t) for t in sizes]
        assert len(builds) <= 2
        assert cells == [
            BoundCells(False, None, None, least.k, model_error_detail(inputs, 0.1, t))
            for t in sizes
        ]


class TestExpectedErrorBound:
    def test_rejects_sample_size_below_threshold(self, mild_inputs):
        led = select_ledger(mild_inputs, 2.0**15)
        with pytest.raises(TBelowT0):
            expected_error_bound(mild_inputs, led, led.t0 - 1.0)

    def test_non_increasing_in_sample_size(self, mild_inputs):
        led = select_ledger(mild_inputs, 2.0**15)
        ts = np.geomspace(led.t0, 1e9, 40)
        values = [expected_error_bound(mild_inputs, led, float(t)) for t in ts]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_decomposes_into_asymptote_plus_data_term(self, mild_inputs):
        led = select_ledger(mild_inputs, 2.0**15)
        t = 1e12
        asymptote = (
            mild_inputs.e_power_sq
            + tail_bound(mild_inputs.level, mild_inputs.rho, mild_inputs.p)
            * mild_inputs.z_power
            + 2.0 * mild_inputs.phi * mild_inputs.z_power**2
        )
        data = 2.0 * led.k * mild_inputs.p / math.sqrt(t) * mild_inputs.z_power**2
        value = expected_error_bound(mild_inputs, led, t)
        assert value == pytest.approx(asymptote + data, rel=1e-12)
        assert data > 1e-9 * value  # the finite-sample term never fully vanishes

    def test_squared_tail_variant(self, mild_inputs):
        led = select_ledger(mild_inputs, 2.0**15)
        t = 2.0**15
        base = expected_error_bound(mild_inputs, led, t)
        squared = expected_error_bound(mild_inputs, led, t, squared_tail=True)
        gain = tail_bound(mild_inputs.level, mild_inputs.rho, mild_inputs.p)
        expected_gap = gain**2 * mild_inputs.z_power**2 - gain * mild_inputs.z_power
        assert squared == pytest.approx(base + expected_gap, rel=1e-12)

    def test_refuses_a_ledger_built_for_other_inputs(self, unit_inputs, mild_inputs):
        led = select_ledger(mild_inputs, 2.0**15)
        with pytest.raises(ValueError, match="ledger was built for other inputs"):
            expected_error_bound(unit_inputs, led, led.t0)
        # an equal copy of the ledger's own inputs is the same loop
        copy = dataclasses.replace(mild_inputs)
        assert expected_error_bound(copy, led, led.t0) == expected_error_bound(
            mild_inputs, led, led.t0
        )


class TestModelErrorBound:
    def test_branch_flags(self, mild_inputs):
        small = model_error_detail(mild_inputs, 0.1, 1e6)
        assert small.small_deviation_branch and not small.at_boundary
        large = model_error_detail(mild_inputs, 0.1, 5.0)
        assert not large.small_deviation_branch

    def test_branches_agree_at_boundary(self, mild_inputs):
        # pick theta so the deviation lands exactly on the branch threshold,
        # where both denominators reduce to alpha/T
        t = 3000.0
        c2 = mild_inputs.p * mild_inputs.n_z
        boundary = (mild_inputs.xi - 2.0 * mild_inputs.alpha / t) / c2
        assert boundary > 0.0
        ratio = boundary / (4.0 * mild_inputs.j_norm**2)
        assert ratio <= 1.0
        b = moment_count(mild_inputs.p, mild_inputs.n_y, mild_inputs.n_z)
        theta = 2.0 * b * math.exp(-t * ratio**2 / 2.0)
        assert 0.0 < theta < 1.0
        detail = model_error_detail(mild_inputs, theta, t)
        assert detail.at_boundary
        assert detail.delta == pytest.approx(boundary, rel=1e-12)
        c1 = math.sqrt(mild_inputs.p * mild_inputs.n_y * mild_inputs.n_z)
        c3 = c1 + mild_inputs.j_norm**2 * c2 / mild_inputs.xi
        c4 = mild_inputs.j_norm**2 * mild_inputs.alpha / mild_inputs.xi
        numerator = c3 * detail.delta + c4 / t
        value_large = t * numerator / mild_inputs.alpha * mild_inputs.p + mild_inputs.phi
        assert detail.value == pytest.approx(value_large, rel=1e-9)

    def test_tightens_with_samples_and_loosens_with_confidence(self, mild_inputs):
        ts = np.geomspace(1e5, 1e8, 10)
        values = [model_error_detail(mild_inputs, 0.1, float(t)).value for t in ts]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert (
            model_error_detail(mild_inputs, 0.01, 1e6).value
            > model_error_detail(mild_inputs, 0.2, 1e6).value
        )

    def test_value_matches_detail(self, mild_inputs):
        detail = model_error_detail(mild_inputs, 0.1, 4096.0)
        assert bound_cells(mild_inputs, 0.1, 4096.0).model_error == detail

    def test_includes_reduction_budget(self, mild_inputs):
        import dataclasses

        bigger = dataclasses.replace(mild_inputs, phi=mild_inputs.phi + 1.0)
        base = model_error_detail(mild_inputs, 0.1, 1e6).value
        assert model_error_detail(bigger, 0.1, 1e6).value == pytest.approx(base + 1.0)

    def test_rejects_sample_size_below_memory(self, mild_inputs):
        with pytest.raises(ValueError):
            model_error_detail(mild_inputs, 0.1, 1.0)


class TestBoundInputs:
    def test_mild_loop_quantities(self, mild_loop, mild_inputs):
        assert mild_inputs.xi == 1.0
        assert mild_inputs.e_power_sq == pytest.approx(1.0)
        z_power_sq = np.trace(autocovariance(mild_loop, 0)[0])
        assert mild_inputs.z_power == pytest.approx(math.sqrt(z_power_sq))
        assert mild_inputs.j_norm >= 1.0
        assert 0.0 < mild_inputs.rho < 1.0
        assert mild_inputs.p == 2 and mild_inputs.n_u == 1 and mild_inputs.n_y == 1

    @pytest.mark.parametrize("loop", ["mild_loop", "dynamic_loop", "static_loop"])
    def test_signal_powers_are_the_stationary_traces(self, loop, request):
        # z_power is sqrt(trace r[0]) bit for bit; its square can differ from
        # trace r[0] in the last place, so the root is what is pinned
        cl = request.getfixturevalue(loop)
        inputs = bound_inputs(cl, p=2, alpha=1.0, phi=0.05, n_rho=8)
        assert inputs.z_power == math.sqrt(np.trace(autocovariance(cl, 0)[0]))
        assert inputs.e_power_sq == np.trace(cl.plant.psi)

    def test_each_pole_set_computed_once(self, dynamic_loop, monkeypatch):
        # the predictor's A - KC (stability check, envelope scan, certified
        # radii) and the loop's A (Lyapunov solve, noise-map norm)
        predictor = steady_state_predictor(dynamic_loop.plant).a
        seen = []
        eigvals = np.linalg.eigvals

        def counting(a):
            seen.append(np.array(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        bound_inputs(dynamic_loop, p=4, alpha=1.0, phi=0.05)
        for a in (predictor, dynamic_loop.a):
            assert sum(m.shape == a.shape and np.array_equal(m, a) for m in seen) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(1.0, 1.5, 1.0, 1.0, 1.0, 1.0, 1, 1, 1, 1.0, 0.05)
        with pytest.raises(ValueError):
            BoundInputs(1.0, 0.5, 1.0, 1.0, 0.0, 1.0, 1, 1, 1, 1.0, 0.05)
        with pytest.raises(ValueError):
            BoundInputs(1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 0, 1, 1, 1.0, 0.05)
        with pytest.raises(ValueError):
            BoundInputs(1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1, 1, 1, 0.0, 0.05)
        with pytest.raises(ValueError):
            BoundInputs(1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1, 1, 1, 1.0, -0.1)

    @pytest.mark.parametrize("index", [0, 2, 3, 10])
    def test_rejects_nan(self, index):
        # level, z_power, e_power_sq and phi: NaN fails every range check
        args = [1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1, 1, 1, 1.0, 0.05]
        args[index] = math.nan
        with pytest.raises(ValueError):
            BoundInputs(*args)

    @pytest.mark.parametrize("field", ["level", "z_power", "e_power_sq", "j_norm", "xi", "alpha"])
    def test_rejects_infinite(self, unit_inputs, field):
        # an infinite j_norm would give a ledger with k = inf labelled target met
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(unit_inputs, **{field: math.inf})

    def test_accepts_an_infinite_budget(self, unit_inputs):
        # phi = inf is a reduction budget that keeps no state, as the
        # experiment configuration allows
        assert dataclasses.replace(unit_inputs, phi=math.inf).phi == math.inf


class TestFormatLedger:
    def test_lists_every_constant(self, mild_inputs):
        led = select_ledger(mild_inputs, 2.0**15)
        text = format_ledger(led)
        assert text.startswith("constant ledger")
        for name in ("b =", "c1 =", "c15 =", "lam =", "sigma =", "epsilon0 =", "epsilon1 ="):
            assert f"  {name} " in text
        assert text.count("k_i=") == 9
        assert f"t0 = {led.t0!r}" in text
        assert f"k = {led.k!r}" in text

    @pytest.mark.parametrize("t_target", [2.0**10, 2.0**15])
    def test_ends_with_the_cell_rule(self, mild_inputs, t_target):
        led = select_ledger(mild_inputs, t_target)
        line = "  cells: a valid cell at T uses the ledger at candidate T"
        assert format_ledger(led).split("\n")[-2] == line

    def test_table_is_the_formula_list(self, mild_inputs):
        # one line per name of the formula table, in its order, each
        # name = repr(value)  # formula
        led = select_ledger(mild_inputs, 2.0**15)
        lines = format_ledger(led).split("\n")
        start = lines.index(f"  t0 candidate = {led.t0_candidate!r}") + 1
        formulas = redar.bounds._FORMULAS
        assert list(led.constants) == list(formulas)
        assert lines[start : start + len(formulas)] == [
            f"  {name} = {led.constants[name]!r}  # {formula}" for name, formula in formulas.items()
        ]
        assert lines[start + len(formulas)].startswith("  decay terms")
