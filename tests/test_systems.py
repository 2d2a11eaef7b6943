import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redar import (
    ClosedLoop,
    Controller,
    DegenerateNoise,
    DimensionMismatch,
    Dims,
    GenerationFailed,
    InnovationModel,
    LoopAnalysis,
    NotStable,
    PredictorUnstable,
    Unstable,
    bound_inputs,
    noise_to_signal,
    random_closed_loop,
    random_innovation_model,
    simulate,
    simulate_many,
    spectral_radius,
    steady_state_predictor,
)
from redar import systems
from redar.linalg import STABILITY_MARGIN, _require_stable
from redar.systems import _each, default_burn_in

from .oracles import simulate_loop_direct, simulate_per_sample
from .support import rng_from

seeds = st.integers(0, 2**32 - 1)

# n_u = 1, n_y = 1, both, and the benchmark's loop sizes (2,1,1), (3,2,2), (6,2,2)
SIMULATE_DIMS = [
    Dims(1, 1, 1), Dims(2, 1, 1), Dims(3, 2, 2), Dims(6, 2, 2), Dims(4, 3, 1), Dims(5, 1, 3)
]


def full_noise(cl, n, seed):
    """The n noise samples simulate draws for ``seed``: innovations, then excitation."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, cl.n_y)) @ np.linalg.cholesky(cl.plant.psi).T
    return e, rng.standard_normal((n, cl.controller.n_v))


def unit_feedthrough_controller(n_u, n_y):
    """Trivial controller u = v with a one-state shell."""
    return Controller(
        af=np.zeros((1, 1)),
        b1f=np.zeros((1, n_y)),
        b2f=np.zeros((1, n_u)),
        cf=np.zeros((n_u, 1)),
        d1f=np.zeros((n_u, n_y)),
        d2f=np.eye(n_u),
    )


class TestContainers:
    def test_rejects_asymmetric_psi(self):
        with pytest.raises(ValueError):
            InnovationModel(
                a=[[0.5]],
                b=[[1.0]],
                c=[[1.0], [0.5]],
                k=[[0.1, 0.0]],
                psi=[[1.0, 0.5], [0.0, 1.0]],
            )

    def test_rejects_indefinite_psi(self):
        with pytest.raises(ValueError):
            InnovationModel(a=[[0.5]], b=[[1.0]], c=[[1.0]], k=[[0.1]], psi=[[0.0]])

    def test_rejects_bad_k_shape(self):
        with pytest.raises(DimensionMismatch):
            InnovationModel(a=[[0.5]], b=[[1.0]], c=[[1.0]], k=[[0.1], [0.2]], psi=[[1.0]])

    def test_controller_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            Controller(
                af=np.zeros((2, 2)),
                b1f=np.zeros((1, 1)),
                b2f=np.zeros((2, 1)),
                cf=np.zeros((1, 2)),
                d1f=np.zeros((1, 1)),
                d2f=np.eye(1),
            )

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"a": [[0.5, 0.0]]}, DimensionMismatch),
            ({"b": [[1.0], [2.0]]}, DimensionMismatch),
            ({"c": [[1.0, 2.0]]}, DimensionMismatch),
            ({"psi": [[1.0, 0.0]]}, DimensionMismatch),
            ({"a": [[np.nan]]}, ValueError),
            ({"b": [[np.inf]]}, ValueError),
            ({"c": [[np.nan]]}, ValueError),
            ({"k": [[np.nan]]}, ValueError),
            ({"psi": [[np.nan]]}, ValueError),
        ],
    )
    def test_innovation_model_matrix_checks(self, overrides, error):
        matrices = {"a": [[0.5]], "b": [[1.0]], "c": [[1.0]], "k": [[0.1]], "psi": [[1.0]]}
        with pytest.raises(error):
            InnovationModel(**{**matrices, **overrides})

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"af": [[0.5, 0.0]]}, DimensionMismatch),
            ({"b2f": [[1.0], [2.0]]}, DimensionMismatch),
            ({"cf": [[1.0, 2.0]]}, DimensionMismatch),
            ({"d1f": [[1.0, 2.0]]}, DimensionMismatch),
            ({"d2f": [[1.0, 2.0]]}, DimensionMismatch),
            ({"af": [[np.nan]]}, ValueError),
            ({"b1f": [[np.inf]]}, ValueError),
            ({"d2f": [[np.nan]]}, ValueError),
        ],
    )
    def test_controller_matrix_checks(self, overrides, error):
        matrices = {
            "af": [[0.5]], "b1f": [[1.0]], "b2f": [[1.0]],
            "cf": [[1.0]], "d1f": [[0.0]], "d2f": [[1.0]],
        }
        with pytest.raises(error):
            Controller(**{**matrices, **overrides})

    def test_closed_loop_matrices_are_read_only(self):
        cl = random_closed_loop(Dims(2, 1, 1), 0.7, seed=np.random.SeedSequence([5, 0]))
        for name in ("a", "b_e", "b_v", "c_z", "d_e", "d_v"):
            with pytest.raises(ValueError):
                getattr(cl, name)[0, 0] += 1.0

    def test_closed_loop_matrices_cannot_be_set(self, mild_loop):
        # the loop matrices are derived from the plant and controller only
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(mild_loop, a=np.zeros((2, 2)))
        with pytest.raises(TypeError):
            ClosedLoop(mild_loop.plant, mild_loop.controller, a=np.zeros((2, 2)))
        rebuilt = dataclasses.replace(mild_loop)
        for name in ("a", "b_e", "b_v", "c_z", "d_e", "d_v", "xi"):
            assert np.array_equal(getattr(rebuilt, name), getattr(mild_loop, name))

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            Dims(0, 1, 1)


class TestAssemble:
    def test_rejects_mismatched_controller(self):
        plant = InnovationModel(a=[[0.5]], b=[[1.0]], c=[[1.0]], k=[[0.1]], psi=[[1.0]])
        with pytest.raises(DimensionMismatch):
            ClosedLoop(plant, unit_feedthrough_controller(2, 1))

    def test_rejects_unstable_loop(self):
        plant = InnovationModel(a=[[1.2]], b=[[0.0]], c=[[1.0]], k=[[0.0]], psi=[[1.0]])
        with pytest.raises(Unstable):
            ClosedLoop(plant, unit_feedthrough_controller(1, 1))

    def test_rejects_loop_within_the_stability_margin(self):
        # rho = 1 - 5e-10 is within linalg.STABILITY_MARGIN of 1: rejected
        # here, not later inside a Lyapunov solve
        plant = InnovationModel(a=[[1 - 5e-10]], b=[[0.0]], c=[[1.0]], k=[[0.0]], psi=[[1.0]])
        with pytest.raises(Unstable, match="0.9999999995"):
            ClosedLoop(plant, unit_feedthrough_controller(1, 1))

    @pytest.mark.parametrize(
        "plant_a, plant_b, plant_c, d1f, name",
        [
            (0.5, 1e200, 1.0, 1e200, "A"),  # b D1F c overflows in A, B_e and C_z
            (0.5, 0.0, 1e200, 1e200, "C_z"),  # A is finite and stable
            (1.2, 0.0, 1e200, 1e200, "C_z"),  # and unstable: finiteness is checked first
        ],
    )
    def test_rejects_non_finite_derived_matrix(self, plant_a, plant_b, plant_c, d1f, name):
        plant = InnovationModel(
            a=[[plant_a]], b=[[plant_b]], c=[[plant_c]], k=[[0.0]], psi=[[1.0]]
        )
        controller = Controller(
            af=[[0.0]], b1f=[[0.0]], b2f=[[0.0]], cf=[[0.0]], d1f=[[d1f]], d2f=[[1.0]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                ClosedLoop(plant, controller)

    def test_rejects_degenerate_excitation(self):
        plant = InnovationModel(a=[[0.5]], b=[[0.1]], c=[[1.0]], k=[[0.1]], psi=[[1.0]])
        controller = Controller(
            af=[[0.0]], b1f=[[0.0]], b2f=[[0.0]], cf=[[0.0]], d1f=[[0.0]], d2f=[[0.0]]
        )
        with pytest.raises(DegenerateNoise):
            ClosedLoop(plant, controller)

    @pytest.mark.parametrize("psi, degenerate", [(1e-13, True), (1e-11, False)])
    def test_degenerate_gate_reads_xi(self, psi, degenerate):
        plant = InnovationModel(a=[[0.5]], b=[[0.1]], c=[[1.0]], k=[[0.1]], psi=[[psi]])
        if degenerate:
            with pytest.raises(DegenerateNoise):
                ClosedLoop(plant, unit_feedthrough_controller(1, 1))
        else:
            assert ClosedLoop(plant, unit_feedthrough_controller(1, 1)).xi == psi

    def test_gamma_block_structure(self, dynamic_loop):
        cl = dynamic_loop
        n_y = cl.n_y
        gamma = cl.gamma
        assert np.array_equal(gamma[:n_y, :n_y], cl.plant.psi)
        omega = cl.controller.d2f @ cl.controller.d2f.T
        assert np.array_equal(gamma[n_y:, n_y:], omega)
        assert not gamma[:n_y, n_y:].any()
        assert cl.xi == pytest.approx(np.linalg.eigvalsh(gamma).min())

    @given(seeds)
    def test_matches_textbook_recursion(self, seed):
        cl = random_closed_loop(Dims(3, 2, 2), 0.7, seed=np.random.SeedSequence([seed, 0]))
        traj = simulate(cl, 200, burn_in=0, seed=np.random.SeedSequence([seed, 1]))
        u, y = simulate_loop_direct(cl.plant, cl.controller, traj.e, traj.v)
        assert np.allclose(u, traj.u, atol=1e-10)
        assert np.allclose(y, traj.y, atol=1e-10)


class TestSimulate:
    def test_deterministic(self, dynamic_loop):
        a = simulate(dynamic_loop, 64, seed=np.random.SeedSequence([3, 1]))
        b = simulate(dynamic_loop, 64, seed=np.random.SeedSequence([3, 1]))
        c = simulate(dynamic_loop, 64, seed=np.random.SeedSequence([4, 1]))
        assert np.array_equal(a.z, b.z)
        assert not np.array_equal(a.z, c.z)

    def test_lengths_and_layout(self, dynamic_loop):
        traj = simulate(dynamic_loop, 50, burn_in=7)
        assert len(traj) == 50
        assert traj.u.shape == (50, dynamic_loop.n_u)
        assert traj.y.shape == (50, dynamic_loop.n_y)
        assert np.array_equal(traj.z, np.hstack([traj.u, traj.y]))

    def test_rejects_bad_lengths(self, dynamic_loop):
        with pytest.raises(ValueError):
            simulate(dynamic_loop, 0)
        with pytest.raises(ValueError):
            simulate(dynamic_loop, 10, burn_in=-1)
        for runs in ([], [(10, 0), (0, 1)], [(-3, 0)]):
            with pytest.raises(ValueError):
                simulate_many(dynamic_loop, runs)

    @pytest.mark.parametrize("block", [64, 4096])
    @pytest.mark.parametrize("burn_in", [0, 37, None])
    @pytest.mark.parametrize("dims", SIMULATE_DIMS, ids=str)
    def test_bit_identical_to_per_sample_loop(self, monkeypatch, dims, burn_in, block):
        monkeypatch.setattr("redar.systems._BLOCK", block)
        for seed in range(3):
            cl = random_closed_loop(dims, 0.7, seed=np.random.SeedSequence([seed, 0]))
            lead = default_burn_in(cl) if burn_in is None else burn_in
            traj = simulate(cl, 300, burn_in=burn_in, seed=np.random.SeedSequence([seed, 1]))
            e, v = full_noise(cl, lead + 300, np.random.SeedSequence([seed, 1]))
            assert np.array_equal(traj.e, e[lead:])
            assert np.array_equal(traj.v, v[lead:])
            assert np.array_equal(traj.z, simulate_per_sample(cl, e, v)[lead:])

    @pytest.mark.parametrize("dims", SIMULATE_DIMS, ids=str)
    def test_stacked_products_match_per_row_products(self, dims):
        # simulate is bit-identical only while numpy runs a stacked matmul
        # as one matrix-vector product per row, and np.dot(A, w) as A @ w
        cl = random_closed_loop(dims, 0.7, seed=np.random.SeedSequence([9, 0]))
        rng = np.random.default_rng(9)
        for m in (cl.a, cl.b_e, cl.b_v, cl.c_z, cl.d_e, cl.d_v):
            x = rng.standard_normal((200, m.shape[1]))
            rows = np.array([m @ row for row in x])
            assert np.array_equal(_each(m, x), rows), f"stacked matmul of {m.shape}"
        w = rng.standard_normal((200, cl.n_states))
        assert all(np.array_equal(np.dot(cl.a, row), cl.a @ row) for row in w), "np.dot"

    @given(
        st.lists(st.integers(1, 300), min_size=1, max_size=3),
        st.sampled_from([0, 37, None]),
        st.sampled_from(SIMULATE_DIMS),
        seeds,
    )
    def test_lockstep_runs_match_single_runs(self, lengths, burn_in, dims, seed):
        # with 64-sample blocks, runs end mid-block and span several blocks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("redar.systems._BLOCK", 64)
            cl = random_closed_loop(dims, 0.7, seed=np.random.SeedSequence([seed, 0]))
            lead = default_burn_in(cl) if burn_in is None else burn_in
            runs = [(t, np.random.SeedSequence([seed, 1, r])) for r, t in enumerate(lengths)]
            trajs = simulate_many(cl, runs, burn_in=burn_in)
            assert len(trajs) == len(runs)
            for (t, run_seed), traj in zip(runs, trajs):
                alone = simulate(cl, t, burn_in=burn_in, seed=run_seed)
                e, v = full_noise(cl, lead + t, run_seed)
                assert len(traj) == t
                assert np.array_equal(traj.e, e[lead:])
                assert np.array_equal(traj.v, v[lead:])
                assert np.array_equal(traj.z, alone.z)
                assert np.array_equal(traj.z, simulate_per_sample(cl, e, v)[lead:])

    def test_static_loop_passes_noise_through(self, static_loop):
        traj = simulate(static_loop, 100, burn_in=0, seed=1)
        assert np.allclose(traj.y, traj.e, atol=1e-14)
        assert np.allclose(traj.u, traj.v, atol=1e-14)


class TestStationaryLaw:
    def test_noise_input_is_normalized(self, dynamic_loop):
        j = noise_to_signal(dynamic_loop)
        n_y = dynamic_loop.n_y
        l_psi = j.b[:, :n_y]
        # b_e L with L L^T = Psi
        recovered = np.linalg.solve(
            dynamic_loop.b_e.T @ dynamic_loop.b_e,
            dynamic_loop.b_e.T @ l_psi,
        )
        assert np.allclose(recovered @ recovered.T, dynamic_loop.plant.psi, atol=1e-10)

    def test_r0_matches_monte_carlo(self, dynamic_loop, long_dynamic_traj):
        r0 = LoopAnalysis(dynamic_loop).autocovariance(0)[0]
        z = long_dynamic_traj.z
        sample = z.T @ z / z.shape[0]
        assert np.linalg.norm(sample - r0) <= 0.02 * np.linalg.norm(r0)

    def test_signal_powers(self, dynamic_loop, long_dynamic_traj):
        inputs = bound_inputs(dynamic_loop, p=2, alpha=1.0, phi=0.05, n_rho=8)
        assert inputs.e_power_sq == pytest.approx(np.trace(dynamic_loop.plant.psi))
        empirical = float(np.mean(np.sum(long_dynamic_traj.z**2, axis=1)))
        assert inputs.z_power**2 == pytest.approx(empirical, rel=0.02)

    def test_static_loop_powers(self, static_loop):
        inputs = bound_inputs(static_loop, p=2, alpha=1.0, phi=0.05, n_rho=8)
        assert inputs.z_power**2 == pytest.approx(2.0)
        assert inputs.e_power_sq == pytest.approx(1.0)


class TestGenerators:
    @given(seeds)
    def test_innovation_model_hits_spectral_target(self, seed):
        model = random_innovation_model(Dims(4, 2, 3), 0.65, rng_from(seed))
        assert spectral_radius(model.a) == pytest.approx(0.65, rel=1e-8)
        assert spectral_radius(model.a - model.k @ model.c) < 1.0
        assert (model.n_x, model.n_u, model.n_y) == (4, 2, 3)
        assert np.linalg.eigvalsh(model.psi).min() > 0.0

    def test_rejects_bad_spectral_target(self):
        with pytest.raises(ValueError):
            random_innovation_model(Dims(2, 1, 1), 1.0, rng_from(0))

    @given(seeds)
    def test_closed_loop_contract(self, seed):
        cl = random_closed_loop(
            Dims(2, 1, 1), 0.7, seed=np.random.SeedSequence([seed, 0]), noise_floor=0.05
        )
        assert spectral_radius(cl.a) < 1.0
        assert cl.xi > 0.05
        assert spectral_radius(cl.plant.a - cl.plant.k @ cl.plant.c) < 1.0

    def test_deterministic_generation(self):
        a = random_closed_loop(Dims(2, 1, 1), 0.7, seed=np.random.SeedSequence([11, 0]))
        b = random_closed_loop(Dims(2, 1, 1), 0.7, seed=np.random.SeedSequence([11, 0]))
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.plant.k, b.plant.k)

    def test_unreachable_noise_floor_fails(self):
        with pytest.raises(GenerationFailed, match=r"\(seed 0\)$"):
            random_closed_loop(Dims(1, 1, 1), 0.5, seed=0, noise_floor=1e9)

    def test_failure_names_a_seed_sequence_on_one_line(self):
        seed = np.random.SeedSequence([1, 0], spawn_key=(2,))
        with pytest.raises(GenerationFailed) as failed:
            random_closed_loop(Dims(1, 1, 1), 0.5, seed=seed, noise_floor=1e9)
        assert str(failed.value) == (
            "no admissible system after 100 attempts (seed entropy [1, 0], spawn key (2,))"
        )


class TestStabilityMargin:
    """One margin rule at every site that applies it: a spectral radius of
    exactly 1 - STABILITY_MARGIN is rejected, the next float below accepted."""

    AT = 1.0 - STABILITY_MARGIN
    CASES = [(AT, False), (np.nextafter(AT, 0.0), True)]

    @staticmethod
    def plant(radius):
        # A - K C = A = radius; under the shell controller the loop is diag(A, 0)
        return InnovationModel(a=[[radius]], b=[[1.0]], c=[[1.0]], k=[[0.0]], psi=[[1.0]])

    @staticmethod
    def outcome(accepted, error, call, *args):
        """call(*args) when accepted; otherwise check that it raises error."""
        if accepted:
            return call(*args)
        with pytest.raises(error):
            call(*args)

    @pytest.mark.parametrize("radius, accepted", CASES)
    def test_linalg(self, radius, accepted):
        poles = self.outcome(accepted, NotStable, _require_stable, np.diag([radius, 0.5]))
        assert not accepted or np.abs(poles).max() == radius

    @pytest.mark.parametrize("radius, accepted", CASES)
    def test_closed_loop(self, radius, accepted):
        shell = unit_feedthrough_controller(1, 1)
        cl = self.outcome(accepted, Unstable, ClosedLoop, self.plant(radius), shell)
        assert not accepted or spectral_radius(cl.a) == radius

    @pytest.mark.parametrize("radius, accepted", CASES)
    def test_steady_state_predictor(self, radius, accepted):
        pred = self.outcome(accepted, PredictorUnstable, steady_state_predictor, self.plant(radius))
        assert not accepted or pred.a[0, 0] == radius

    @pytest.mark.parametrize("radius, accepted", CASES)
    def test_random_closed_loop(self, radius, accepted, monkeypatch):
        monkeypatch.setattr(systems, "random_innovation_model", lambda *_: self.plant(radius))
        cl = self.outcome(accepted, GenerationFailed, random_closed_loop, Dims(1, 1, 1), 0.5, 0)
        assert not accepted or cl.plant.a[0, 0] == radius
