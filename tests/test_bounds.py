import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redar import (
    BoundInputs,
    InvalidT0,
    RhoTooSmall,
    StateSpace,
    TBelowT0,
    bound_inputs,
    build_ledger,
    element_deviation,
    expected_error_bound,
    format_ledger,
    frequency_response,
    gain_envelope,
    hard_floor,
    model_error_bound,
    model_error_detail,
    moment_count,
    optimize_envelope,
    select_ledger,
    signal_powers,
    spectral_radius,
    steady_state_predictor,
    tail_bound,
)


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
        level = gain_envelope(h, rho, n_grid=512)
        for radius in (rho, (rho + 1.0) / 2.0, 0.999):
            z = radius * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 1777, endpoint=False))
            gains = np.linalg.norm(frequency_response(h, z), ord=2, axis=(1, 2))
            assert gains.max() <= level

    def test_certified_next_to_the_spectral_radius(self, dynamic_loop):
        # the low end of optimize_envelope's scan: a pole 1e-6 inside the
        # circle makes a peak far narrower than the grid spacing
        h = steady_state_predictor(dynamic_loop.plant)
        rho = spectral_radius(h.a) + 1e-6
        level = gain_envelope(h, rho, n_grid=512)
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
        rho, level = optimize_envelope(h, 4, n_rho=16, n_grid=512)
        assert spectral_radius(h.a) < rho < 1.0
        assert level == gain_envelope(h, rho, n_grid=512)

    def test_beats_scan_endpoints(self, dynamic_loop):
        h = steady_state_predictor(dynamic_loop.plant)
        p = 4
        rho, level = optimize_envelope(h, p, n_rho=16, n_grid=512)
        best = level * rho ** (p + 1) / (1.0 - rho)
        sr = spectral_radius(h.a)
        for edge in (sr + 1e-6, 1.0 - 1e-6):
            level_edge = gain_envelope(h, edge, n_grid=512)
            assert best <= level_edge * edge ** (p + 1) / (1.0 - edge) * (1.0 + 1e-12)

    def test_rejects_marginally_stable_predictor(self):
        h = StateSpace(a=[[1.0 - 1e-9]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
        with pytest.raises(RhoTooSmall):
            optimize_envelope(h, 4)


class TestTailBound:
    def test_formula(self):
        assert tail_bound(2.0, 0.5, 3, 4.0) == pytest.approx(2.0 * 0.5**4 / 0.5 * 4.0)

    @given(
        level=st.floats(0.0, 100.0),
        rho=st.floats(0.01, 0.99),
        p=st.integers(0, 40),
        z=st.floats(0.0, 100.0),
    )
    def test_shrinks_with_memory(self, level, rho, p, z):
        assert tail_bound(level, rho, p + 1, z) <= tail_bound(level, rho, p, z)

    def test_guards(self):
        with pytest.raises(ValueError):
            tail_bound(1.0, 1.0, 3, 1.0)
        with pytest.raises(ValueError):
            tail_bound(-1.0, 0.5, 3, 1.0)
        with pytest.raises(ValueError):
            tail_bound(1.0, 0.5, -1, 1.0)


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
        led = build_ledger(unit_inputs, 10.0)
        r2 = math.sqrt(2.0)
        assert led.b == 5
        assert led.c1 == pytest.approx(r2)
        assert led.c2 == 2.0
        assert led.c3 == pytest.approx(r2 + 2.0)
        assert led.c4 == 1.0
        assert led.c5 == 16.0
        assert led.c6 == pytest.approx(1.0 / (8.0 * (4.0 / 10.0**0.25 + r2 + 2.0)))
        assert led.c7 == pytest.approx(1.0 / (4.0 * (10.0 + r2)))
        assert led.c8 == 160.0
        assert led.c9 == 40.0
        assert led.lam == pytest.approx(8.0 * (r2 + 2.0))
        assert led.sigma == pytest.approx(4.0 * (r2 + 2.0))
        assert led.c12 == pytest.approx(led.lam / 2.0)
        assert led.c15 == pytest.approx(2.0 * led.sigma)
        growth = math.exp(1.0 / led.lam)
        assert led.c10 == pytest.approx(8.0 * 5.0 * led.lam * growth)
        assert led.c11 == pytest.approx(4.0 * 5.0 * led.lam**2 * growth)
        assert led.c13 == pytest.approx(4.0 * 5.0 * led.sigma**2)
        assert led.c14 == pytest.approx(8.0 * 5.0 * led.sigma**2)

    def test_threshold_clears_candidate_and_peaks(self, unit_inputs):
        led = build_ledger(unit_inputs, 10.0)
        assert led.t0 == max(10.0, *led.t_max)
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
        assert led.epsilon0 == pytest.approx((2.0 / led.t0**0.25) ** 2)
        assert led.epsilon1 == pytest.approx((2.0 * led.t0) ** 2)


class TestSelectLedger:
    def test_feasible_for_moderate_target(self, mild_inputs):
        led = select_ledger(mild_inputs, 2.0**15)
        assert led.t0 <= 2.0**15
        value = expected_error_bound(mild_inputs, led, 2.0**15)
        assert math.isfinite(value) and value > mild_inputs.e_power_sq

    def test_target_below_floor_falls_back_to_floor(self, unit_inputs):
        led = select_ledger(unit_inputs, 2.0)
        assert led.t0_candidate == 4.0

    def test_infeasible_target_minimizes_threshold(self, unit_inputs):
        led = select_ledger(unit_inputs, 5.0)
        assert led.t0 > 5.0  # every candidate peaks later than this tiny target
        alt = build_ledger(unit_inputs, 4.0)
        assert led.t0 <= alt.t0 * (1.0 + 1e-12)


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
            + tail_bound(mild_inputs.level, mild_inputs.rho, mild_inputs.p, 1.0)
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
        gain = tail_bound(mild_inputs.level, mild_inputs.rho, mild_inputs.p, 1.0)
        expected_gap = gain**2 * mild_inputs.z_power**2 - gain * mild_inputs.z_power
        assert squared == pytest.approx(base + expected_gap, rel=1e-12)


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
        values = [model_error_bound(mild_inputs, 0.1, float(t)) for t in ts]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert model_error_bound(mild_inputs, 0.01, 1e6) > model_error_bound(
            mild_inputs, 0.2, 1e6
        )

    def test_value_matches_detail(self, mild_inputs):
        detail = model_error_detail(mild_inputs, 0.1, 4096.0)
        assert model_error_bound(mild_inputs, 0.1, 4096.0) == detail.value

    def test_includes_reduction_budget(self, mild_inputs):
        import dataclasses

        bigger = dataclasses.replace(mild_inputs, phi=mild_inputs.phi + 1.0)
        base = model_error_bound(mild_inputs, 0.1, 1e6)
        assert model_error_bound(bigger, 0.1, 1e6) == pytest.approx(base + 1.0)

    def test_rejects_sample_size_below_memory(self, mild_inputs):
        with pytest.raises(ValueError):
            model_error_detail(mild_inputs, 0.1, 1.0)


class TestBoundInputs:
    def test_mild_loop_quantities(self, mild_loop, mild_inputs):
        assert mild_inputs.xi == 1.0
        assert mild_inputs.e_power_sq == pytest.approx(1.0)
        z_power_sq, _ = signal_powers(mild_loop)
        assert mild_inputs.z_power == pytest.approx(math.sqrt(z_power_sq))
        assert mild_inputs.j_norm >= 1.0
        assert 0.0 < mild_inputs.rho < 1.0
        assert mild_inputs.p == 2 and mild_inputs.n_u == 1 and mild_inputs.n_y == 1

    def test_explicit_radius_respected(self, mild_loop):
        h = steady_state_predictor(mild_loop.plant)
        inputs = bound_inputs(mild_loop, p=2, alpha=50.0, phi=0.05, rho=0.9)
        assert inputs.rho == 0.9
        assert inputs.level == gain_envelope(h, 0.9)

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
