"""System sampling and simulation against brute-force closed forms.

`_sample_pair` and `conjugate_closed_reference` are the scalar rejection
loop and the list search that `dynsys` replaced with batched draws and a
masked search: the batched sampler must give their points and leave the
generator where they leave it, and the check must decide as the list
search decides.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqprecond import dynsys
from seqprecond.dynsys import (
    LinearSystem,
    NonlinearSystem,
    Trajectory,
    gaussian_inputs,
    sample_nonlinear_system,
    sample_system,
    simulate_lds,
    simulate_lds_runs,
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

    @pytest.mark.parametrize("d_h", [1, 2, 7, 50])
    def test_kappa_is_the_condition_number_of_the_basis(self, d_h):
        # replay the basis from the seed: the orthogonal Q, then the column
        # scales; their ratio is cond(Q diag(scale)) to rounding
        eigs = np.full(d_h, 0.5)
        for seed in range(20):
            sys = system_from_eigenvalues(eigs, 1, 1, seed, basis_cond=30.0)
            rng = np.random.default_rng(seed)
            Q = dynsys._haar_orthogonal(d_h, rng)
            P = Q * 30.0 ** rng.uniform(0.0, 1.0, size=d_h)
            assert sys.kappa == pytest.approx(np.linalg.cond(P), rel=1e-12)

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


def _sample_pair(rng: np.random.Generator, lo: float, hi: float, tau: float) -> complex:
    """One point, uniform on {lo <= |z| <= hi, 0 < Im z <= min(tau, hi)}."""
    cap = min(tau, hi)
    if lo == hi:
        # degenerate annulus: sample the arc of the circle |z| = lo
        tmax = np.arcsin(min(cap / lo, 1.0)) if lo > 0 else 0.0
        if tmax <= 0:
            raise ValueError("infeasible eigenvalue constraints: empty arc")
        theta = rng.uniform(0.0, tmax)
        if rng.uniform() < 0.5:
            theta = np.pi - theta
        return lo * np.exp(1j * theta)
    for _ in range(dynsys._MAX_REJECT):
        x = rng.uniform(-hi, hi)
        y = rng.uniform(0.0, cap)
        z = complex(x, y)
        if y > 0 and lo <= abs(z) <= hi:
            return z
    raise ValueError("infeasible eigenvalue constraints: rejection sampling failed")


def scalar_pairs(rng, n, lo, hi, tau):
    return np.array([_sample_pair(rng, lo, hi, tau) for _ in range(n)], dtype=complex)


def conjugate_closed_reference(eigs: np.ndarray) -> None:
    """A real matrix forces the spectrum to pair each z with conj(z)."""
    pending = [z for z in eigs if abs(z.imag) > dynsys._EIG_TOL]
    while pending:
        z = pending.pop()
        gaps = [abs(w - np.conj(z)) for w in pending]
        if not gaps or min(gaps) > dynsys._EIG_TOL * (1 + abs(z)):
            raise ValueError("eigenvalues do not come in conjugate pairs")
        pending.pop(int(np.argmin(gaps)))


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
# (radius_lo, radius_hi, tau): the default generator's annulus, a thin one
# that takes several batches, a disc, and the arc lo == hi
ANNULI = [(0.9, 1.0, 0.01), (0.99, 1.0, 0.5), (0.0, 0.5, 1.0), (0.95, 0.95, 0.01)]


def assert_same_stream(a: np.random.Generator, b: np.random.Generator):
    assert a.random() == b.random()
    assert a.integers(1 << 40) == b.integers(1 << 40)


class TestBatchedPairs:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    @pytest.mark.parametrize("lo, hi, tau", ANNULI)
    @pytest.mark.parametrize("n", [0, 25])
    def test_points_and_stream_match_the_scalar_loop(self, bit_generator, lo, hi, tau, n):
        got_rng, want_rng = (np.random.Generator(bit_generator(7 + n)) for _ in range(2))
        got = dynsys._sample_pairs(got_rng, n, lo, hi, tau)
        want = scalar_pairs(want_rng, n, lo, hi, tau)
        assert got.dtype == complex and got.tobytes() == want.tobytes()
        assert_same_stream(got_rng, want_rng)

    @pytest.mark.parametrize("lo, hi, tau", ANNULI[:3])
    def test_points_and_stream_match_across_many_small_batches(self, lo, hi, tau, monkeypatch):
        # seven attempts a batch: points land, and the sampling ends, on batch edges
        monkeypatch.setattr(dynsys, "_MAX_BATCH", 7)
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = dynsys._sample_pairs(got_rng, 6, lo, hi, tau)
            assert got.tobytes() == scalar_pairs(want_rng, 6, lo, hi, tau).tobytes()
            assert_same_stream(got_rng, want_rng)

    @pytest.mark.parametrize("batch", [5, 1 << 13])
    def test_a_failed_pair_leaves_the_stream_where_the_loop_does(self, batch, monkeypatch):
        # 40 attempts a pair in an annulus that takes about 30: some seeds
        # fail at a later pair, after earlier pairs landed
        monkeypatch.setattr(dynsys, "_MAX_REJECT", 40)
        monkeypatch.setattr(dynsys, "_MAX_BATCH", batch)
        outcomes = set()
        for seed in range(30):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                want = scalar_pairs(want_rng, 4, 0.98, 1.0, 1.0)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    dynsys._sample_pairs(got_rng, 4, 0.98, 1.0, 1.0)
                outcomes.add("failed")
            else:
                assert dynsys._sample_pairs(got_rng, 4, 0.98, 1.0, 1.0).tobytes() == want.tobytes()
                outcomes.add("landed")
            assert_same_stream(got_rng, want_rng)
        assert outcomes == {"failed", "landed"}

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    @pytest.mark.parametrize("d_h", [1, 7, 50])
    def test_a_callers_generator_ends_where_the_scalar_loop_leaves_it(
            self, bit_generator, d_h, monkeypatch):
        got_rng, want_rng = (np.random.Generator(bit_generator(d_h)) for _ in range(2))
        got = sample_system(d_h, 1, 2, 0.01, 0.9, 1.0, seed=got_rng)
        monkeypatch.setattr(dynsys, "_sample_pairs", scalar_pairs)
        want = sample_system(d_h, 1, 2, 0.01, 0.9, 1.0, seed=want_rng)
        for name in ("A", "B", "C", "eigenvalues"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert_same_stream(got_rng, want_rng)

    def test_rejection_failure_is_fast_and_small(self):
        # an annulus 1e-12 wide: every one of the pair's 100,000 attempts misses
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="rejection sampling failed"):
                sample_system(4, 1, 1, 0.5, 1 - 1e-12, 1.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 2 << 20  # bytes: batches of 8192 attempts, not 100,000

    def test_empty_arc_raises_only_when_a_pair_is_drawn(self):
        with pytest.raises(ValueError, match="empty arc"):
            sample_system(2, 1, 1, 0.5, 0.0, 0.0, seed=0)
        assert sample_system(1, 1, 1, 0.5, 0.0, 0.0, seed=0).eigenvalues[0] == 0


def conjugate_cases(data):
    """Eigenvalues whose conjugates sit exactly, just inside or just
    outside the tolerance, twice over, or nowhere, in any order."""
    tol = dynsys._EIG_TOL
    kinds = data.draw(st.lists(st.lists(st.sampled_from(["exact", "inside", "outside", "edge"]),
                                        max_size=2), max_size=6), label="partners")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    eigs = []
    for partners in kinds:
        z = complex(rng.uniform(-1, 1), rng.choice([-1, 1]) * rng.choice([2 * tol, 1e-3, 0.5]))
        eigs.append(z)
        for kind in partners:
            scale = {"exact": 0.0, "inside": 1 - 1e-6, "outside": 1 + 1e-6, "edge": 1.0}[kind]
            gap = scale * tol * (1 + abs(z)) * np.exp(2j * np.pi * rng.random())
            eigs.append(z.conjugate() + gap)
    eigs += list(rng.uniform(-1, 1, rng.integers(0, 3)))
    return np.array(eigs, dtype=complex)[rng.permutation(len(eigs))]


@given(st.data())
def test_conjugate_check_decides_as_the_list_search(data):
    eigs = conjugate_cases(data)
    try:
        conjugate_closed_reference(eigs)
    except ValueError:
        with pytest.raises(ValueError, match="conjugate pairs"):
            dynsys._require_conjugate_closed(eigs)
    else:
        dynsys._require_conjugate_closed(eigs)


TOL_AT_HALF = dynsys._EIG_TOL * 1.5  # the tolerance about z = 0.5j


@pytest.mark.parametrize("eigs, closed", [
    # conj(0.5j) at exactly the tolerance, then one ulp past it
    ([TOL_AT_HALF - 0.5j, 0.5j], True),
    ([np.nextafter(TOL_AT_HALF, 1) - 0.5j, 0.5j], False),
    # two candidates tie for 0.5j; it takes the first, which leaves the
    # third entry, the first candidate's conjugate, without a partner
    ([0.9 * TOL_AT_HALF - 0.5j, -0.9 * TOL_AT_HALF - 0.5j, 0.9 * TOL_AT_HALF + 0.5j, 0.5j], False),
    ([-0.9 * TOL_AT_HALF - 0.5j, 0.9 * TOL_AT_HALF - 0.5j, 0.9 * TOL_AT_HALF + 0.5j, 0.5j], True),
], ids=["at-the-tolerance", "one-ulp-past", "tie-first-strands", "tie-first-pairs"])
def test_conjugate_check_at_the_tolerance_and_on_ties(eigs, closed):
    eigs = np.array(eigs, dtype=complex)
    for check in (conjugate_closed_reference, dynsys._require_conjugate_closed):
        if closed:
            check(eigs)
        else:
            with pytest.raises(ValueError, match="conjugate pairs"):
                check(eigs)


def test_conjugate_check_of_sampled_spectra():
    for seed in range(10):
        eigs = sample_system(50, 1, 1, 0.01, 0.9, 1.0, seed).eigenvalues
        dynsys._require_conjugate_closed(eigs)
        with pytest.raises(ValueError, match="conjugate pairs"):
            dynsys._require_conjugate_closed(eigs[1:])


class TestSystemFromEigenvalues:
    def test_prescribed_real_spectrum(self):
        eigs = [0.1, 0.5, 0.9]
        sys = system_from_eigenvalues(eigs, 1, 1, seed=0)
        got = np.sort(np.linalg.eigvals(sys.A).real)
        np.testing.assert_allclose(got, eigs, atol=1e-10)

    def test_conjugates_required(self):
        # the second: an upper and a lower entry that are not each other's
        # conjugate must not pass as a pair rebuilt from the upper one
        for eigs in ([0.3 + 0.4j, 0.5], [0.5 + 0.1j, 0.3 - 0.2j]):
            with pytest.raises(ValueError, match="conjugate"):
                system_from_eigenvalues(eigs, 1, 1, seed=0)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.5)])
    def test_non_finite_eigenvalue_rejected(self, bad):
        scalar = scalar_system()
        with pytest.raises(ValueError, match="eigenvalues contain non-finite"):
            LinearSystem(scalar.A, scalar.B, scalar.C, np.array([bad], dtype=complex), 1.0)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            scalar = scalar_system()
            LinearSystem(scalar.A, scalar.B, scalar.C, scalar.eigenvalues, 0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^B must be \(2, d_in\), got \(3, 1\)$"):
            LinearSystem(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)),
                         np.zeros(2, dtype=complex), 1.0)
        with pytest.raises(ValueError, match=r"^A must be square, got \(\)$"):
            LinearSystem(0.5, np.ones((1, 1)), np.ones((1, 1)), np.array([0.5 + 0j]), 1.0)


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
        traj = simulate_nonlinear_runs([nl], [gaussian_inputs(10, 1, 0)], [None])[0]
        assert np.all(traj.outputs == 0)

    def test_tanh_bounded_state_effect(self):
        nl = sample_nonlinear_system(4, 1, 1, 0.1, 0.5, 1.0, seed=3)
        traj = simulate_nonlinear_runs([nl], [gaussian_inputs(200, 1, 4)], [None])[0]
        assert np.all(np.isfinite(traj.outputs))

    @staticmethod
    def layers(d_h=3, d_in=2, d_out=1):
        return dict(A1=np.eye(d_h), B1=np.ones((d_h, d_in)), A2=np.eye(d_h),
                    B2=np.ones((d_h, d_in)), C=np.ones((d_out, d_h)))

    @pytest.mark.parametrize("name, bad, fragment", [
        ("A1", np.zeros((3, 2)), r"^A1 must be square, got \(3, 2\)$"),
        ("A2", np.eye(4), r"^A2 must be \(3, 3\) like A1, got \(4, 4\)$"),
        ("B1", np.ones((2, 2)), r"^B1 must be \(3, d_in\), got \(2, 2\)$"),
        ("B2", np.ones((3, 1)), r"^B2 must be \(3, 2\) like B1, got \(3, 1\)$"),
        ("C", np.ones((1, 4)), r"^C must be \(d_out, 3\), got \(1, 4\)$"),
    ], ids=["A1", "A2", "B1", "B2", "C"])
    def test_misshaped_matrix_is_named(self, name, bad, fragment):
        # before these checks a mis-shaped system failed inside the
        # simulation's matmul, naming no matrix
        with pytest.raises(ValueError, match=fragment):
            NonlinearSystem(**{**self.layers(), name: bad})

    @pytest.mark.parametrize("name", ["A1", "B1", "A2", "B2", "C"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_named(self, name, bad):
        # before these checks it simulated to an all-NaN trajectory
        layers = self.layers()
        layers[name][0, 0] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            NonlinearSystem(**layers)

    def test_matrices_are_stored_as_float_arrays(self):
        nl = NonlinearSystem([[0]], [[1]], [[0]], [[1]], [[1]])
        for name in ("A1", "B1", "A2", "B2", "C"):
            assert getattr(nl, name).dtype == float
        traj = simulate_nonlinear_runs([nl], [[1.0, 2.0]], [None])[0]
        np.testing.assert_array_equal(traj.outputs, [[1.0], [2.0]])

    def test_golden_trajectory(self):
        nl = sample_nonlinear_system(3, 1, 1, 0.1, 0.3, 0.8, seed=2024,
                                     basis_cond=2.0)
        u = gaussian_inputs(6, 1, 7)
        got = simulate_nonlinear_runs([nl], [u], [None])[0].outputs[:, 0]
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
    T = u.shape[0]
    y = np.empty((T, nl.d_out))
    x = np.zeros(nl.d_hidden)
    for t in range(T):
        x = nl.A2 @ np.tanh(nl.A1 @ x + nl.B1 @ u[t]) + nl.B2 @ u[t]
        y[t] = nl.C @ x
    if nl.noise_sigma > 0:
        y += nl.noise_sigma * np.random.default_rng(seed).standard_normal(y.shape)
    return y


CHUNK = dynsys._CHUNK


def check_runs_against_their_loops(kind, d_h, widths, T, sigma, seed):
    """Simulate one run per (d_in, d_out) in `widths` in one stack; each
    must equal its own loop bitwise, whatever the widths beside it."""
    R = len(widths)
    sys_seeds, input_seeds, noise_seeds = (
        np.random.SeedSequence(seed).generate_state(3 * R).reshape(3, R)
    )
    if kind == "lds":
        sampler, simulate, reference = sample_system, simulate_lds_runs, reference_lds
    else:
        sampler, simulate, reference = (sample_nonlinear_system, simulate_nonlinear_runs,
                                        reference_nonlinear)
    systems = [sampler(d_h, d_in, d_out, 0.1, 0.5, 1.0, s, noise_sigma=sigma)
               for (d_in, d_out), s in zip(widths, sys_seeds)]
    inputs = [gaussian_inputs(T, d_in, s) for (d_in, _), s in zip(widths, input_seeds)]
    runs = simulate(systems, inputs, list(noise_seeds))
    assert len(runs) == R
    for sys, u, noise_seed, traj in zip(systems, inputs, noise_seeds, runs):
        assert np.array_equal(traj.inputs, u)
        assert np.array_equal(traj.outputs, reference(sys, u, noise_seed))


WIDTH = st.tuples(st.integers(1, 3), st.integers(1, 3))


class TestStackedRuns:
    @given(
        kind=st.sampled_from(["lds", "tanh"]),
        d_h=st.integers(1, 8), widths=st.lists(WIDTH, min_size=1, max_size=4),
        T=st.integers(1, 50), sigma=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_run_matches_its_own_loop_bit_for_bit(self, kind, d_h, widths, T, sigma, seed):
        check_runs_against_their_loops(kind, d_h, widths, T, sigma, seed)

    @given(
        kind=st.sampled_from(["lds", "tanh"]),
        R=st.integers(1, 4), d_h=st.integers(1, 8), width=WIDTH,
        T=st.integers(1, 50), sigma=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_runs_of_one_width_match_their_own_loops(self, kind, R, d_h, width, T, sigma, seed):
        check_runs_against_their_loops(kind, d_h, [width] * R, T, sigma, seed)

    @pytest.mark.parametrize("T", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("kind", ["lds", "tanh"])
    @pytest.mark.parametrize("R, d_h, d_in, d_out", [(1, 1, 1, 1), (5, 6, 3, 2), (3, 5, 2, 3)])
    def test_chunk_edges_match_the_loop_bit_for_bit(self, T, kind, R, d_h, d_in, d_out):
        # a simulation takes its input products a chunk of steps at a time,
        # so the lengths around a chunk's edge carry a state across it
        check_runs_against_their_loops(kind, d_h, [(d_in, d_out)] * R, T, 0.3, T * R + d_h)

    @pytest.mark.parametrize("T", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("kind", ["lds", "tanh"])
    def test_chunk_edges_of_mixed_widths_match_the_loop_bit_for_bit(self, T, kind):
        # three width classes, interleaved, so no class sits on the rows
        # its runs hold in the input order
        widths = [(1, 1), (3, 2), (1, 1), (2, 3), (3, 2)]
        check_runs_against_their_loops(kind, 5, widths, T, 0.3, T * len(widths) + 5)

    def test_mismatched_runs_are_rejected_by_run(self):
        small = sample_system(3, 1, 1, 0.1, 0.5, 1.0, 0)
        u = gaussian_inputs(10, 1, 0)
        with pytest.raises(ValueError, match="run 1: A has shape"):
            simulate_lds_runs([small, sample_system(4, 1, 1, 0.1, 0.5, 1.0, 1)], [u, u], [0, 1])
        with pytest.raises(ValueError, match="run 1: inputs have 2 channels"):
            simulate_lds_runs([small, small], [u, gaussian_inputs(10, 2, 0)], [0, 1])
        with pytest.raises(ValueError, match="run 1: 9 input rows"):
            simulate_lds_runs([small, small], [u, u[:9]], [0, 1])
        with pytest.raises(ValueError, match="run 2: 9 input rows"):  # a run of another width
            wide = sample_system(3, 2, 3, 0.1, 0.5, 1.0, 1)
            simulate_lds_runs([small, wide, wide], [u, gaussian_inputs(10, 2, 0),
                                                    gaussian_inputs(9, 2, 0)], [0, 1, 2])
        nl = sample_nonlinear_system(3, 1, 1, 0.1, 0.5, 1.0, 0)
        with pytest.raises(ValueError, match="run 1: A1 has shape"):
            simulate_nonlinear_runs(
                [nl, sample_nonlinear_system(4, 1, 1, 0.1, 0.5, 1.0, 1)], [u, u], [0, 1]
            )
        with pytest.raises(ValueError, match="run 1: A1 has shape"):  # of another width too
            simulate_nonlinear_runs(
                [nl, sample_nonlinear_system(4, 2, 2, 0.1, 0.5, 1.0, 1)],
                [u, gaussian_inputs(10, 2, 0)], [0, 1]
            )

    def test_a_run_of_another_output_width_is_its_own(self):
        # a C of another d_out is a width class of its own, not a mismatch:
        # each run reads out exactly what it reads out alone
        small = sample_system(3, 1, 1, 0.1, 0.5, 1.0, 0)
        wide = sample_system(3, 1, 2, 0.1, 0.5, 1.0, 1)
        u = gaussian_inputs(10, 1, 0)
        runs = simulate_lds_runs([small, wide, small], [u, u, u], [0, 1, 2])
        assert [traj.outputs.shape for traj in runs] == [(10, 1), (10, 2), (10, 1)]
        for sys, seed, traj in zip((small, wide, small), (0, 1, 2), runs):
            assert np.array_equal(traj.outputs, simulate_lds(sys, u, seed).outputs)

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


@pytest.mark.parametrize("make, fragment", [
    (lambda: LinearSystem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                          np.zeros(3, dtype=complex), 1.0),
     r"expected 2 eigenvalues, got shape \(3,\)"),
    (lambda: scalar_system(sigma=-0.1), "noise_sigma must be nonnegative"),
    (lambda: NonlinearSystem(**TestNonlinear.layers(), noise_sigma=-0.1),
     "noise_sigma must be nonnegative"),
    (lambda: dynsys._as_time_major(np.zeros((2, 3, 4))),
     r"expected a \(T, channels\) array, got shape \(2, 3, 4\)"),
    (lambda: system_from_eigenvalues([0.5], 1, 1, seed=0, basis_cond=0.5),
     "basis_cond must be >= 1"),
    (lambda: gaussian_inputs(0, 1, seed=0), "T and d_in must be positive"),
], ids=["eigenvalue-shape", "linear-noise", "nonlinear-noise", "3-d-series", "basis-cond",
        "no-steps"])
def test_an_argument_out_of_range_is_named(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_a_non_finite_noise_or_basis_scale_is_named(bad):
    # a NaN noise_sigma would run noiseless, and a non-finite basis_cond
    # would fail late, on non-finite entries of A
    for make in (lambda: scalar_system(sigma=bad),
                 lambda: NonlinearSystem(**TestNonlinear.layers(), noise_sigma=bad),
                 lambda: system_from_eigenvalues([0.5, 0.3], 1, 1, seed=0, noise_sigma=bad)):
        with pytest.raises(ValueError, match=f"^noise_sigma must be nonnegative and finite, "
                                             f"got {bad}$"):
            make()
    with pytest.raises(ValueError, match=f"^basis_cond must be >= 1 and finite, got {bad}$"):
        system_from_eigenvalues([0.5, 0.3], 1, 1, seed=0, basis_cond=bad)
