"""System sampling and simulation against brute-force closed forms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqprecond.dynsys import (
    LinearSystem,
    NonlinearSystem,
    Trajectory,
    gaussian_inputs,
    sample_nonlinear_system,
    sample_system,
    simulate_lds,
    simulate_lds_runs,
    simulate_nonlinear,
    simulate_nonlinear_runs,
    system_from_eigenvalues,
)


def permutation_system(d_h: int) -> LinearSystem:
    """Cyclic-shift system: A sends coordinate i to i+1 (mod d_h), B = C = I.

    Its spectrum is the d_h-th roots of unity, all on the unit circle, and
    the state replays inputs with period d_h.
    """
    A = np.roll(np.eye(d_h), 1, axis=0)
    eigs = np.exp(2j * np.pi * np.arange(d_h) / d_h)
    return LinearSystem(A, np.eye(d_h), np.eye(d_h), eigs, 1.0)


def closed_form_outputs(sys: LinearSystem, u: np.ndarray) -> np.ndarray:
    """Oracle: y_t = sum_{s=1..t} C A^(t-s) B u_s via explicit matrix powers."""
    T = u.shape[0]
    y = np.zeros((T, sys.d_out))
    for t in range(T):
        Ap = np.eye(sys.d_hidden)
        for s in range(t, -1, -1):  # s indexes u, power is t-s
            y[t] += sys.C @ Ap @ sys.B @ u[s]
            Ap = Ap @ sys.A
    return y


def scalar_system(a=0.5, sigma=0.0):
    return LinearSystem(
        A=np.array([[a]]), B=np.array([[1.0]]), C=np.array([[1.0]]),
        eigenvalues=np.array([a + 0j]), kappa=1.0, noise_sigma=sigma,
    )


class TestSimulateLds:
    def test_scalar_impulse_frozen(self):
        traj = simulate_lds(scalar_system(), np.array([[1.0], [0.0], [0.0]]))
        np.testing.assert_allclose(traj.outputs[:, 0], [1.0, 0.5, 0.25], atol=0)

    def test_zero_input_matrix_gives_zero_outputs(self):
        sys = scalar_system()
        sys2 = LinearSystem(sys.A, 0 * sys.B, sys.C, sys.eigenvalues, 1.0, 0.0)
        traj = simulate_lds(sys2, gaussian_inputs(16, 1, 3))
        assert np.all(traj.outputs == 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_closed_form(self, seed):
        sys = sample_system(6, 2, 3, 0.1, 0.2, 0.95, seed)
        u = gaussian_inputs(40, 2, seed + 100)
        traj = simulate_lds(sys, u)
        ref = closed_form_outputs(sys, u)
        scale = np.abs(ref).max()
        assert np.abs(traj.outputs - ref).max() < 1e-8 * max(scale, 1.0)

    def test_noise_seed_reproducible(self):
        sys = scalar_system(sigma=0.3)
        u = gaussian_inputs(32, 1, 7)
        t1 = simulate_lds(sys, u, seed=11)
        t2 = simulate_lds(sys, u, seed=11)
        t3 = simulate_lds(sys, u, seed=12)
        np.testing.assert_array_equal(t1.outputs, t2.outputs)
        assert np.any(t1.outputs != t3.outputs)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            simulate_lds(scalar_system(), np.zeros((10, 3)))


class TestSampleSystem:
    def test_eigenvalue_multiset_realized(self):
        sys = sample_system(4, 1, 1, 0.1, 0.3, 0.9, seed=5)
        got = np.sort_complex(np.linalg.eigvals(sys.A))
        want = np.sort_complex(sys.eigenvalues)
        assert np.abs(got - want).max() < 1e-8

    def test_tau_zero_all_real(self):
        sys = sample_system(5, 1, 1, 0.0, 0.2, 0.8, seed=9)
        assert np.all(sys.eigenvalues.imag == 0)
        mags = np.abs(sys.eigenvalues)
        assert np.all((mags >= 0.2) & (mags <= 0.8))

    def test_tau_bounds_imag_part(self):
        sys = sample_system(8, 1, 1, 0.05, 0.5, 1.0, seed=2)
        assert np.abs(sys.eigenvalues.imag).max() <= 0.05
        mags = np.abs(sys.eigenvalues)
        assert np.all((mags >= 0.5) & (mags <= 1.0 + 1e-12))

    def test_odd_dim_has_one_real(self):
        sys = sample_system(7, 1, 1, 0.2, 0.1, 0.9, seed=3)
        n_real = int(np.sum(sys.eigenvalues.imag == 0))
        assert n_real == 1

    def test_degenerate_annulus_arc(self):
        sys = sample_system(4, 1, 1, 0.01, 0.95, 0.95, seed=1)
        np.testing.assert_allclose(np.abs(sys.eigenvalues), 0.95, atol=1e-12)
        assert np.abs(sys.eigenvalues.imag).max() <= 0.01 + 1e-12

    def test_kappa_recorded_and_bounded(self):
        sys = sample_system(10, 1, 1, 0.1, 0.3, 0.9, seed=4, basis_cond=10.0)
        assert 1.0 <= sys.kappa <= 10.0 + 1e-9
        ortho = sample_system(10, 1, 1, 0.1, 0.3, 0.9, seed=4, basis_cond=1.0)
        assert ortho.kappa == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self):
        a = sample_system(6, 2, 2, 0.1, 0.2, 0.9, seed=42)
        b = sample_system(6, 2, 2, 0.1, 0.2, 0.9, seed=42)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.B, b.B)
        np.testing.assert_array_equal(a.C, b.C)

    def test_scalar_exact_magnitude(self):
        sys = sample_system(1, 1, 1, 0.0, 0.5, 0.5, seed=0)
        assert abs(abs(sys.eigenvalues[0]) - 0.5) < 1e-15

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            sample_system(4, 1, 1, 0.1, 0.9, 0.3, seed=0)  # lo > hi
        with pytest.raises(ValueError):
            sample_system(4, 1, 1, 0.1, 0.0, 1.5, seed=0)  # hi > 1
        with pytest.raises(ValueError):
            sample_system(0, 1, 1, 0.1, 0.0, 0.9, seed=0)
        with pytest.raises(ValueError):
            sample_system(4, 1, 1, -0.5, 0.0, 0.9, seed=0)

    @pytest.mark.parametrize("basis_cond", [0.5, 0.0, -1.0])
    def test_basis_cond_below_one_rejected(self, basis_cond):
        # as system_from_eigenvalues does; 0 and -1 used to fail inside the
        # linear algebra and 0.5 to run silently
        with pytest.raises(ValueError, match=f"basis_cond must be >= 1, got {basis_cond}"):
            sample_system(4, 1, 1, 0.1, 0.0, 0.9, seed=0, basis_cond=basis_cond)


class TestSystemFromEigenvalues:
    def test_prescribed_real_spectrum(self):
        eigs = [0.1, 0.5, 0.9]
        sys = system_from_eigenvalues(eigs, 1, 1, seed=0)
        got = np.sort(np.linalg.eigvals(sys.A).real)
        np.testing.assert_allclose(got, eigs, atol=1e-10)

    def test_conjugates_required(self):
        with pytest.raises(ValueError, match="conjugate"):
            system_from_eigenvalues([0.3 + 0.4j, 0.5], 1, 1, seed=0)

    def test_pair_accepted_either_order(self):
        sys = system_from_eigenvalues([0.3 - 0.4j, 0.3 + 0.4j], 1, 1, seed=0)
        assert sys.d_hidden == 2


class TestInvariants:
    def test_unstable_spectrum_rejected(self):
        with pytest.raises(ValueError, match="stability"):
            LinearSystem(
                np.array([[1.5]]), np.eye(1), np.eye(1),
                np.array([1.5 + 0j]), 1.0,
            )

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            scalar = scalar_system()
            LinearSystem(scalar.A, scalar.B, scalar.C, scalar.eigenvalues, 0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearSystem(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)),
                         np.zeros(2, dtype=complex), 1.0)


class TestGaussianInputs:
    def test_deterministic(self):
        np.testing.assert_array_equal(gaussian_inputs(50, 3, 8), gaussian_inputs(50, 3, 8))

    def test_sample_mean_in_band(self):
        u = gaussian_inputs(100_000, 1, 123)
        assert abs(u.mean()) < 4 / np.sqrt(100_000)


class TestPermutationSystem:
    def test_matrix_is_cyclic_shift(self):
        sys = permutation_system(4)
        v = np.arange(4.0)
        np.testing.assert_array_equal(sys.A @ v, [3.0, 0.0, 1.0, 2.0])
        assert np.abs(np.abs(sys.eigenvalues) - 1).max() < 1e-15

    def test_single_channel_delayed_recall(self):
        # Reading the first state coordinate with inputs on the first
        # coordinate: y_t picks up u_t plus every input d_h steps older,
        # so y_t - u_t replays u_{t-d_h} while t <= 2 d_h.
        d = 5
        full = permutation_system(d)
        e1 = np.zeros((d, 1)); e1[0, 0] = 1.0
        sys = LinearSystem(full.A, e1, e1.T.copy(), full.eigenvalues, 1.0, 0.0)
        u = gaussian_inputs(2 * d, 1, 17)
        y = simulate_lds(sys, u).outputs
        for t in range(d, 2 * d):  # zero-based rows t, so time index t+1
            assert y[t, 0] - u[t, 0] == pytest.approx(u[t - d, 0], abs=1e-12)
        for t in range(d):
            assert y[t, 0] == pytest.approx(u[t, 0], abs=1e-12)

    def test_impulse_replays_with_period(self):
        d = 3
        sys = permutation_system(d)
        u = np.zeros((7, d)); u[0, 1] = 1.0
        y = simulate_lds(sys, u).outputs
        np.testing.assert_array_equal(y[0], u[0])
        np.testing.assert_array_equal(y[d], u[0])
        np.testing.assert_array_equal(y[2 * d], u[0])


class TestNonlinear:
    def test_zero_weights_zero_output(self):
        z = np.zeros((3, 3))
        nl = NonlinearSystem(z, np.zeros((3, 1)), z.copy(), np.zeros((3, 1)),
                             np.zeros((1, 3)))
        traj = simulate_nonlinear(nl, gaussian_inputs(10, 1, 0))
        assert np.all(traj.outputs == 0)

    def test_identity_activation_folds_to_linear(self):
        # with identity activation the two layers compose into one LDS:
        # A = A2 A1, B = A2 B1 + B2
        nl = sample_nonlinear_system(4, 2, 1, 0.1, 0.1, 0.5, seed=6,
                                     basis_cond=1.0, activation="identity")
        u = gaussian_inputs(30, 2, 60)
        got = simulate_nonlinear(nl, u).outputs
        A = nl.A2 @ nl.A1
        B = nl.A2 @ nl.B1 + nl.B2
        T = u.shape[0]
        ref = np.zeros((T, 1))
        x = np.zeros(4)
        for t in range(T):
            x = A @ x + B @ u[t]
            ref[t] = nl.C @ x
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_tanh_bounded_state_effect(self):
        nl = sample_nonlinear_system(4, 1, 1, 0.1, 0.5, 1.0, seed=3)
        traj = simulate_nonlinear(nl, gaussian_inputs(200, 1, 4))
        assert np.all(np.isfinite(traj.outputs))

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            NonlinearSystem(np.eye(1), np.eye(1), np.eye(1), np.eye(1),
                            np.eye(1), activation="relu")

    def test_golden_trajectory(self):
        nl = sample_nonlinear_system(3, 1, 1, 0.1, 0.3, 0.8, seed=2024,
                                     basis_cond=2.0)
        u = gaussian_inputs(6, 1, 7)
        got = simulate_nonlinear(nl, u).outputs[:, 0]
        np.testing.assert_allclose(got, GOLDEN_NONLINEAR, rtol=0, atol=1e-12)


def reference_lds(sys: LinearSystem, u: np.ndarray, seed) -> np.ndarray:
    """One run alone, stepped with the per-run loop the stacked one replaced."""
    T = u.shape[0]
    y = np.empty((T, sys.d_out))
    x = np.zeros(sys.d_hidden)
    for t in range(T):
        x = sys.A @ x + sys.B @ u[t]
        y[t] = sys.C @ x
    if sys.noise_sigma > 0:
        y += sys.noise_sigma * np.random.default_rng(seed).standard_normal(y.shape)
    return y


def reference_nonlinear(nl: NonlinearSystem, u: np.ndarray, seed) -> np.ndarray:
    act = np.tanh if nl.activation == "tanh" else (lambda v: v)
    T = u.shape[0]
    y = np.empty((T, nl.d_out))
    x = np.zeros(nl.d_hidden)
    for t in range(T):
        x = nl.A2 @ act(nl.A1 @ x + nl.B1 @ u[t]) + nl.B2 @ u[t]
        y[t] = nl.C @ x
    if nl.noise_sigma > 0:
        y += nl.noise_sigma * np.random.default_rng(seed).standard_normal(y.shape)
    return y


class TestStackedRuns:
    @given(
        kind=st.sampled_from(["lds", "tanh", "identity"]),
        R=st.integers(1, 4), d_h=st.integers(1, 8), d_in=st.integers(1, 3),
        d_out=st.integers(1, 3), T=st.integers(1, 50), sigma=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_run_matches_its_own_loop_bit_for_bit(
        self, kind, R, d_h, d_in, d_out, T, sigma, seed
    ):
        sys_seeds, input_seeds, noise_seeds = (
            np.random.SeedSequence(seed).generate_state(3 * R).reshape(3, R)
        )
        if kind == "lds":
            systems = [sample_system(d_h, d_in, d_out, 0.1, 0.5, 1.0, s, noise_sigma=sigma)
                       for s in sys_seeds]
            simulate, reference = simulate_lds_runs, reference_lds
        else:
            systems = [sample_nonlinear_system(d_h, d_in, d_out, 0.1, 0.5, 1.0, s,
                                               noise_sigma=sigma, activation=kind)
                       for s in sys_seeds]
            simulate, reference = simulate_nonlinear_runs, reference_nonlinear
        inputs = [gaussian_inputs(T, d_in, s) for s in input_seeds]
        runs = simulate(systems, inputs, list(noise_seeds))
        assert len(runs) == R
        for sys, u, noise_seed, traj in zip(systems, inputs, noise_seeds, runs):
            assert np.array_equal(traj.inputs, u)
            assert np.array_equal(traj.outputs, reference(sys, u, noise_seed))

    def test_mismatched_runs_are_rejected_by_run(self):
        small = sample_system(3, 1, 1, 0.1, 0.5, 1.0, 0)
        u = gaussian_inputs(10, 1, 0)
        with pytest.raises(ValueError, match="run 1: A has shape"):
            simulate_lds_runs([small, sample_system(4, 1, 1, 0.1, 0.5, 1.0, 1)], [u, u], [0, 1])
        with pytest.raises(ValueError, match="run 1: C has shape"):
            simulate_lds_runs([small, sample_system(3, 1, 2, 0.1, 0.5, 1.0, 1)], [u, u], [0, 1])
        with pytest.raises(ValueError, match="run 1: inputs have 2 channels"):
            simulate_lds_runs([small, small], [u, gaussian_inputs(10, 2, 0)], [0, 1])
        with pytest.raises(ValueError, match="run 1: 9 input rows"):
            simulate_lds_runs([small, small], [u, u[:9]], [0, 1])
        nl = sample_nonlinear_system(3, 1, 1, 0.1, 0.5, 1.0, 0)
        with pytest.raises(ValueError, match="run 1: A1 has shape"):
            simulate_nonlinear_runs(
                [nl, sample_nonlinear_system(4, 1, 1, 0.1, 0.5, 1.0, 1)], [u, u], [0, 1]
            )
        other = sample_nonlinear_system(3, 1, 1, 0.1, 0.5, 1.0, 1, activation="identity")
        with pytest.raises(ValueError, match="run 1: activation"):
            simulate_nonlinear_runs([nl, other], [u, u], [0, 1])

    @pytest.mark.parametrize("simulate, sampler", [
        (simulate_lds_runs, sample_system), (simulate_nonlinear_runs, sample_nonlinear_system),
    ])
    def test_list_lengths_must_agree(self, simulate, sampler):
        sys = sampler(3, 1, 1, 0.1, 0.5, 1.0, 0)
        u = gaussian_inputs(10, 1, 0)
        for systems, inputs, seeds in [
            ([sys, sys], [u], [0, 1]), ([sys], [u, u], [0]), ([sys], [u], [0, 1]), ([], [], []),
        ]:
            with pytest.raises(ValueError):
                simulate(systems, inputs, seeds)


class TestTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Trajectory(np.zeros((5, 1)), np.zeros((4, 1)))

    def test_one_d_series_become_single_channel(self):
        tr = Trajectory(np.arange(4.0), np.arange(4.0))
        assert tr.inputs.shape == (4, 1)
        assert tr.horizon == 4


# frozen on first run of sample_nonlinear_system(3,1,1,0.1,0.3,0.8,seed=2024,
# basis_cond=2.0) driven by gaussian_inputs(6,1,7); guards the simulation
# order (layer1, tanh, layer2, readout) against silent reordering
GOLDEN_NONLINEAR = np.array([
    0.00032285766169637734,
    0.07837633667004426,
    -0.07972987297071618,
    -0.219917825645873,
    -0.10461712792148535,
    -0.27079773618088393,
])
