"""Online learners: feature blocks, the OGD recursion, projections, regret, comparators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqprecond.dynsys import gaussian_inputs, simulate_lds, system_from_eigenvalues
from seqprecond.poly import ComplexSector, CoefficientVector, chebyshev_monic
from seqprecond.spectral import build_filter_bank
from seqprecond.learners import (
    _PAST_BLOCK,
    DEFAULT_DOMAIN_BOUND,
    RegressionLearner,
    Rows,
    SpectralLearner,
    deep_past,
    feature_blocks,
    lagged,
    ogd,
    oracle_weights,
    project_to_ball,
    tilde_expand,
)


def cv(*coeffs):
    return CoefficientVector(np.array(coeffs, dtype=float))


def one_tap(lr0, T=1):
    """A scalar input block: feature 1 at every step, weight starting at 0."""
    return np.ones((T, 1, 1)), np.zeros((1, 1, 1)), lr0, None


class TestProjection:
    def test_interior_untouched(self):
        M = np.array([[0.3, 0.1], [0.0, 0.2]])
        np.testing.assert_array_equal(project_to_ball(M, 5.0), M)
        # a stack of interior matrices, one radius each, keeps every entry
        stack = np.random.default_rng(0).standard_normal((3, 4, 2, 3))
        radius = 1.5 * np.linalg.norm(stack, 2, axis=(-2, -1))
        out = project_to_ball(stack, radius)
        assert out.tobytes() == stack.tobytes()
        assert project_to_ball(np.zeros((2, 0, 3)), 1.0).shape == (2, 0, 3)  # no entries

    def test_scaled_identity_clipped(self):
        r = 0.7
        M = 2 * r * np.eye(3)
        np.testing.assert_allclose(project_to_ball(M, r), r * np.eye(3), atol=1e-12)

    def test_idempotent(self):
        M = np.random.default_rng(1).standard_normal((4, 3)) * 3
        once = project_to_ball(M, 1.0)
        twice = project_to_ball(once, 1.0)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_spectral_norm_bound_holds(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            M = rng.standard_normal((3, 5)) * rng.uniform(0, 4)
            P = project_to_ball(M, 1.3)
            assert np.linalg.norm(P, 2) <= 1.3 + 1e-9

    def test_vector_shortcut_matches_svd_path(self):
        v = np.array([[3.0, 4.0]])  # rank one: spectral norm = Frobenius norm = 5
        np.testing.assert_allclose(project_to_ball(v, 1.0), v / 5, atol=1e-12)

    @staticmethod
    def mixed_stack(rng):
        """A (4, 3, 2, 3) stack, some matrices inside their ball and some
        over it, and one radius per matrix, zero included."""
        scale = rng.choice([0.0, 0.1, 1.0, 4.0], size=(4, 3, 1, 1))
        return rng.standard_normal((4, 3, 2, 3)) * scale, rng.choice([0.0, 0.5, 10.0], (4, 3))

    def test_radius_per_matrix_matches_each_projection(self):
        M, radius = self.mixed_stack(np.random.default_rng(3))
        for r in (radius, radius[:, :1]):  # one radius per matrix, or per row of the stack
            out = project_to_ball(M, r)
            for cell in np.ndindex(4, 3):
                want = project_to_ball(M[cell], np.broadcast_to(r, (4, 3))[cell])
                np.testing.assert_array_equal(out[cell], want)

    def test_scalar_radius_is_a_full_radius_array(self):
        M, _ = self.mixed_stack(np.random.default_rng(4))
        np.testing.assert_array_equal(project_to_ball(M, 0.5), project_to_ball(M, np.full((4, 3), 0.5)))

    def test_mixed_radius_keeps_a_non_finite_matrix_out_of_the_svd(self, monkeypatch):
        M, radius = self.mixed_stack(np.random.default_rng(5))
        M[1, 2, 0, 1], M[3, 0, 1, 2] = np.nan, np.inf
        svd, seen = np.linalg.svd, []

        def recorded(A, *args, **kwargs):
            seen.append(np.isfinite(A).all())
            return svd(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        out = project_to_ball(M, radius)
        assert seen == [True]
        for cell in np.ndindex(4, 3):
            if cell in ((1, 2), (3, 0)):
                np.testing.assert_array_equal(out[cell], M[cell])
            else:
                np.testing.assert_array_equal(out[cell], project_to_ball(M[cell], radius[cell]))

    def test_negative_radius_anywhere_rejected(self):
        for n, radius in ((3, -1.0), (3, np.array([1.0, 0.0, -1e-300])), (0, -1.0)):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                project_to_ball(np.zeros((n, 2, 2)), radius)


class TestLagged:
    def test_matches_hand_built_windows(self):
        x = np.random.default_rng(0).standard_normal((7, 2))
        for taps in (1, 3, 9):
            for lag in (0, 1, 2):
                got = lagged(x, taps, lag)
                assert got.shape == (7, taps, 2)
                for t in range(7):
                    for j in range(taps):
                        s = t - lag - j  # newest first, zero before the start
                        want = x[s] if s >= 0 else np.zeros(2)
                        np.testing.assert_array_equal(got[t, j], want)

    def test_no_taps(self):
        assert lagged(np.ones((4, 3)), 0, 1).shape == (4, 0, 3)

    def test_is_a_read_only_view(self):
        windows = lagged(np.arange(5.0)[:, None], 2)
        assert windows.base is not None
        with pytest.raises(ValueError):
            windows[0, 0, 0] = 1.0


def filter_project(bank, padded, T):
    """Reference for one row of `deep_past`: a zero-padded block of the
    deep past, newest first, projected onto the filters and scaled by
    1/sqrt(T)."""
    assert padded.shape[0] == bank.horizon
    return (bank.filters @ padded) / np.sqrt(T)


def padded_block(bank, u, t, n):
    """Inputs older than the window at step t, newest first, zero-padded."""
    block = np.zeros((bank.horizon, u.shape[1]))
    if t - n > 0:
        block[: t - n] = u[t - n - 1 :: -1]
    return block


class TestDeepPast:
    @pytest.mark.parametrize("n", [0, 2])
    def test_equals_filter_project_at_every_step(self, n):
        bank = build_filter_bank(20, ComplexSector(0.1), 4)
        T = bank.horizon + n + 1  # the last step sees the full bank horizon
        u = np.random.default_rng(n).standard_normal((T, 2))
        got = deep_past(bank, u, n, T)
        assert got.shape == (T, 4, 2)
        np.testing.assert_array_equal(got[: n + 1], 0.0)  # depth 0: no deep past yet
        assert padded_block(bank, u, T - 1, n)[-1].all()  # full depth: u_0 in the last row
        for t in range(T):
            want = filter_project(bank, padded_block(bank, u, t, n), T)
            np.testing.assert_allclose(got[t], want, rtol=0, atol=1e-12)

    @given(st.data())
    def test_matches_filter_project_reference(self, data):
        horizon = data.draw(st.integers(1, 24), label="horizon")
        k = data.draw(st.integers(0, horizon), label="k")
        n = data.draw(st.integers(0, 4), label="n")
        d_in = data.draw(st.integers(1, 3), label="d_in")
        cells = data.draw(st.lists(st.integers(1, 2), max_size=2), label="cells")
        length = data.draw(st.integers(1, n + 1 + horizon), label="length")  # depth <= horizon
        T = length + data.draw(st.integers(0, 3), label="extra steps")
        bank = build_filter_bank(horizon, ComplexSector(data.draw(st.floats(0.01, 1.0))), k)
        u = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
            (*cells, length, d_in)
        )
        got = deep_past(bank, u, n, T)
        assert got.shape == (*cells, length, k, d_in)
        for cell in np.ndindex(*cells):
            want = [padded_block(bank, u[cell], t, n) for t in range(length)]
            want = np.array([filter_project(bank, block, T) for block in want])
            np.testing.assert_allclose(got[cell], want, rtol=0, atol=1e-12)

    @pytest.fixture(scope="class")
    def long_bank(self):
        """A bank whose horizon spans more than two blocks of `deep_past`."""
        return build_filter_bank(2 * _PAST_BLOCK + 88, ComplexSector(0.1), 3)

    @pytest.mark.parametrize("depth", [1, 255, 256, 257, 511, 512, 600])
    def test_matches_filter_project_across_blocks(self, long_bank, depth):
        # history depths on each side of the block edges, up to the full
        # horizon (600), with two cells of three channels
        bank, n, T = long_bank, 2, 700
        assert _PAST_BLOCK == 256 and bank.horizon == 600
        u = np.random.default_rng(depth).standard_normal((2, n + 1 + depth, 3))
        got = deep_past(bank, u, n, T)
        for cell in range(2):
            want = [padded_block(bank, u[cell], t, n) for t in range(n + 1 + depth)]
            want = np.array([filter_project(bank, block, T) for block in want])
            np.testing.assert_allclose(got[cell], want, rtol=0, atol=1e-12)
        # against one full convolution per stream and filter, cut to the
        # kept rows, to 1e-15 of the sum of the magnitudes each dot adds up
        full, scale = np.zeros_like(got), np.zeros_like(got)
        for cell in range(2):
            for c in range(3):
                x = u[cell, :depth, c]
                for j, f in enumerate(bank.filters):
                    full[cell, n + 1 :, j, c] = np.convolve(x, f)[:depth]
                    scale[cell, n + 1 :, j, c] = np.convolve(np.abs(x), np.abs(f))[:depth]
        assert np.all(np.abs(got - full / np.sqrt(T)) <= 1e-15 * scale / np.sqrt(T))

    @pytest.mark.parametrize("edge", [_PAST_BLOCK, 2 * _PAST_BLOCK])
    def test_a_row_reads_no_later_input_across_blocks(self, long_bank, edge):
        # row n + 1 + t reads u_0 .. u_t only, bit for bit: a change at the
        # first input of a block, or just after it, leaves every row before
        # it as it was and reaches the row that reads it
        n = 1
        u = np.random.default_rng(edge).standard_normal((1, n + 1 + long_bank.horizon, 2))
        base = deep_past(long_bank, u, n, len(u[0]))
        for s in (edge, edge + 1):
            v = u.copy()
            v[:, s:] = np.random.default_rng(s).standard_normal(v[:, s:].shape)
            got = deep_past(long_bank, v, n, len(u[0]))
            np.testing.assert_array_equal(got[:, : n + 1 + s], base[:, : n + 1 + s])
            assert np.all(got[:, n + 1 + s] != base[:, n + 1 + s])

    def test_one_hot(self):
        # an impulse at the first step reaches row t through filter entry t-1
        bank = build_filter_bank(32, ComplexSector(0.1), 4)
        u = np.zeros((33, 1))
        u[0] = 1.0
        got = deep_past(bank, u, 0, 33)
        np.testing.assert_array_equal(got[0], 0.0)
        np.testing.assert_allclose(got[1:, :, 0], bank.filters.T / np.sqrt(33), atol=1e-15)

    def test_too_deep_rejected(self):
        bank = build_filter_bank(8, ComplexSector(0.1), 2)
        assert deep_past(bank, np.zeros((10, 1)), 1, 10).shape == (10, 2, 1)  # depth 8
        with pytest.raises(ValueError, match="history depth 9 exceeds bank horizon 8"):
            deep_past(bank, np.zeros((11, 1)), 1, 11)

    def test_empty_bank(self):
        bank = build_filter_bank(8, ComplexSector(0.1), 0)
        assert deep_past(bank, np.ones((5, 1)), 1, 5).shape == (5, 0, 1)


class TestRegressionPredict:
    def test_zero_state_identity_coeffs(self):
        rng = np.random.default_rng(0)
        learner = RegressionLearner(cv(1.0), num_taps=3, lr0=0.0)
        preds = learner.run(rng.standard_normal((6, 2)), rng.standard_normal((6, 1)))
        np.testing.assert_array_equal(preds, 0.0)

    def test_persistence_with_differencing(self):
        y = np.random.default_rng(1).standard_normal((6, 2))
        learner = RegressionLearner(cv(1.0, -1.0), num_taps=1, lr0=0.0)
        preds = learner.run(np.zeros((6, 1)), y)
        np.testing.assert_array_equal(preds[0], 0.0)
        np.testing.assert_allclose(preds[1:], y[:-1], atol=0)

    def test_dense_oracle(self):
        rng = np.random.default_rng(7)
        c = chebyshev_monic(3)
        Q = rng.standard_normal((3, 3, 2))
        T = 8
        u, y = rng.standard_normal((T, 2)), rng.standard_normal((T, 3))
        got = RegressionLearner(c, num_taps=3, lr0=0.0, init_Q=Q).run(u, y)
        for t in range(T):
            want = np.zeros(3)
            for i in range(1, 4):
                if t - i >= 0:
                    want -= c.coeffs[i] * y[t - i]
            for j in range(3):
                if t - j >= 0:
                    want += Q[j] @ u[t - j]
            np.testing.assert_allclose(got[t], want, atol=1e-12)

    def test_dimension_mismatch(self):
        # the streams set (d_out, d_in), so an init_Q that does not fit them
        # is refused when the blocks are built, naming both shapes
        learner = RegressionLearner(cv(1.0, 0.0), init_Q=np.zeros((1, 1, 2)))
        with pytest.raises(ValueError, match=r"\(1, 1, 2\) does not fit the streams' \(1, 1, 3\)"):
            learner.run(np.zeros((5, 3)), np.zeros((5, 1)))
        with pytest.raises(ValueError, match="init_Q shape"):
            RegressionLearner(cv(1.0, 0.0), init_Q=np.zeros((2, 1, 2)))
        with pytest.raises(ValueError, match="rows"):
            ogd([one_tap(0.1, T=4)], np.zeros((5, 1)))


class TestStreamWidths:
    @pytest.mark.parametrize("d_out", [1, 4])
    def test_default_rate_follows_the_streams_d_out(self, d_out):
        c = chebyshev_monic(2)
        u, y = np.zeros((5, 3)), np.zeros((5, d_out))
        (_, _, rate, radius), _ = RegressionLearner(c).blocks(u, y)
        assert radius == DEFAULT_DOMAIN_BOUND * c.l1
        assert rate == 2.0 * radius / np.sqrt(d_out)
        spectral = SpectralLearner(c, make_bank(), total_horizon=27)
        (_, Q0, rate_Q, _), _, (_, M0, rate_M, _) = spectral.blocks(u, y)
        want = (2 * spectral.R_Q + 3 * spectral.R_M) / ((2 + 3) * np.sqrt(d_out))
        assert rate_Q == rate_M == want
        assert Q0.shape == (3, d_out, 3) and M0.shape == (3, d_out, 3)

    def test_stale_positional_widths_are_refused(self):
        # widths are no longer parameters; a positional call that passed them
        # must not become num_taps and domain_bound
        with pytest.raises(TypeError):
            RegressionLearner(cv(1.0, 0.0), 2, 2, lr0=0.1)
        with pytest.raises(TypeError):
            SpectralLearner(cv(1.0), make_bank(), 1, 1, total_horizon=27)


class TestRegressionUpdate:
    def test_zero_residual_leaves_weights(self):
        # step 1 predicts its target exactly and leaves the weight at 0; the
        # round still advances the schedule, so step 2 moves by -lr0 / sqrt(2)
        preds, (W,) = ogd([one_tap(1.0, T=2)], np.array([[0.0], [-3.0]]))
        np.testing.assert_array_equal(preds, 0.0)
        assert W[0, 0, 0] == pytest.approx(-1.0 / np.sqrt(2), abs=1e-15)

    def test_scalar_sign_step(self):
        _, (W,) = ogd([one_tap(0.25)], np.array([[-3.0]]))
        # positive residual, u = 1: Q_0 decreases by eta_1 = lr0
        assert W[0, 0, 0] == pytest.approx(-0.25, abs=1e-15)

    def test_eta_decays_with_time(self):
        preds, _ = ogd([one_tap(1.0, T=3)], np.full((3, 1), -10.0))
        q1, q2 = preds[1, 0], preds[2, 0]  # the weight after one and two steps
        assert q1 == pytest.approx(-1.0)
        assert q2 - q1 == pytest.approx(-1.0 / np.sqrt(2), abs=1e-12)

    def test_projection_invariant_after_updates(self):
        rng = np.random.default_rng(3)
        learner = RegressionLearner(chebyshev_monic(2), domain_bound=0.1, lr0=5.0)
        u, y = rng.standard_normal((30, 2)), rng.standard_normal((30, 2))
        for t in range(1, 31):
            _, (Q, _) = ogd(learner.blocks(u[:t], y[:t]), y[:t])
            for Qj in Q:
                assert np.linalg.norm(Qj, 2) <= learner.R_Q + 1e-9

    def test_no_input_taps(self):
        # an empty input window learns nothing: differencing stays persistence
        y = np.random.default_rng(2).standard_normal((6, 1))
        preds = RegressionLearner(cv(1.0, -1.0), num_taps=0, lr0=0.1).run(np.ones((6, 1)), y)
        np.testing.assert_array_equal(preds[1:], y[:-1])

    def test_zero_lr_freezes(self):
        _, (W,) = ogd([one_tap(0.0)], np.array([[1.0]]))
        np.testing.assert_array_equal(W, 0.0)

    def test_zero_rate_keeps_weights_outside_the_ball(self):
        # the fixed comparator's contract: rate 0 neither updates nor
        # projects init_Q, even outside the ball and on nonzero residuals
        rng = np.random.default_rng(11)
        c = chebyshev_monic(2)
        Q = rng.standard_normal((2, 2, 3))
        learner = RegressionLearner(c, domain_bound=1e-3, lr0=0.0, init_Q=Q)
        assert all(np.linalg.norm(Qj, 2) > learner.R_Q for Qj in Q)
        T = 12
        u, y = rng.standard_normal((T, 3)), rng.standard_normal((T, 2))
        preds, (W, coeffs) = ogd(learner.blocks(u, y), y)
        assert (preds != y).all()
        np.testing.assert_array_equal(W, Q)
        np.testing.assert_array_equal(coeffs, c.coeffs[1:])
        np.testing.assert_array_equal(learner.run(u, y), preds)
        for t in range(T):
            want = sum(Q[j] @ u[t - j] for j in range(2) if t - j >= 0)
            want = want - sum(c.coeffs[i] * y[t - i] for i in (1, 2) if t - i >= 0)
            np.testing.assert_allclose(preds[t], want, rtol=0, atol=1e-12)


class TestOgdOutput:
    @pytest.mark.parametrize("rate", [0.0, 0.1], ids=["fixed", "moving"])
    @pytest.mark.parametrize("cells", [(), (2, 3)], ids=["one-cell", "six-cells"])
    def test_predictions_and_weights_are_c_contiguous(self, rate, cells):
        # harness._report takes its means along the last axis, and numpy
        # sums pairwise only along contiguous rows: predictions returned as
        # a transposed view would move the means in their last digits
        rng = np.random.default_rng(8)
        T, d_in, d_out = 9, 2, 3
        y = rng.standard_normal((*cells, T, d_out))
        blocks = [(rng.standard_normal((*cells, T, 2, d_in)), np.zeros((*cells, 2, d_out, d_in)),
                   rate, 1.0),
                  (lagged(-y, 2, 1), np.full((*cells, 2), 0.5), rate, None)]
        preds, Ws = ogd(blocks, y)
        assert preds.shape == y.shape and preds.flags.c_contiguous
        assert all(W.flags.c_contiguous for W in Ws)

    def test_memory_stays_near_the_predictions(self):
        # the desk call's shape: 5 runs x 3 rates at T=2000, d=1, each run's
        # windows stored once (Rows), a moving input block with a ball and
        # fixed lag coefficients; then the learned layout, whose lag
        # coefficients move at per-cell rates, 0 among them.  numpy reports
        # its allocations to tracemalloc.  A (T, cells) table per moving
        # block, such as its rates at every step, takes both over the bound.
        rng = np.random.default_rng(0)
        T, runs, c = 2000, 5, chebyshev_monic(5)
        u, y = rng.standard_normal((runs, T, 1)), rng.standard_normal((runs, T, 1))
        index = np.tile(np.arange(runs), 3)
        targets = Rows(y, index)  # each run's targets stored once, as its windows are
        for layout, lag_rates in [("desk", 0.0), ("learned", np.repeat([0.0, 1e-3, 1e-2], runs))]:
            blocks = [(Rows(lagged(u, 5), index), np.zeros((15, 5, 1, 1)),
                       np.repeat([1e-3, 1e-2, 1e-1], runs), DEFAULT_DOMAIN_BOUND * c.l1),
                      (Rows(lagged(-y, 5, 1), index), np.tile(c.coeffs[1:], (15, 1)),
                       lag_rates, None)]
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                preds, _ = ogd(blocks, targets)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert preds.nbytes == 8 * T * 15
            assert peak <= 3 * preds.nbytes, layout


class TestFeatureBlocks:
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("lag_rate", [0.0, 0.05], ids=["fixed-lags", "moving-lags"])
    def test_cells_read_zeros_past_their_tap_count(self, d, lag_rate):
        # one stream per run at the most taps; each cell steps bit for bit as
        # on a stream whose taps past its own count are zero, and its weights
        # there, nonzero and inside the ball here, neither move nor count
        rng = np.random.default_rng(d)
        T, index = 60, np.array([0, 1, 0, 1, 0])
        taps, lag_taps = np.array([4, 2, 0, 3, 1]), np.array([3, 3, 1, 0, 2])
        rates = np.array([0.1, 0.5, 0.0, 1.0, 0.2])
        u, y = rng.standard_normal((2, T, d)), rng.standard_normal((2, T, d))
        W0, lags = rng.normal(scale=0.05, size=(5, 4, d, d)), rng.uniform(-0.5, 0.5, (5, 3))

        def padded(X, counts):
            return np.where((np.arange(X.shape[2]) < counts[:, None])[:, None, :, None],
                            X[index], 0.0)

        X, L = lagged(u, 4), lagged(-y, 3, 1)
        got = ogd([(Rows(X, index, taps), W0, rates, 0.4),
                   (Rows(L, index, lag_taps), lags, lag_rate * rates, None)], y[index])
        want = ogd([(padded(X, taps), W0, rates, 0.4),
                    (padded(L, lag_taps), lags, lag_rate * rates, None)], y[index])
        np.testing.assert_array_equal(got[0], want[0])
        for W, w in zip(got[1], want[1]):
            np.testing.assert_array_equal(W, w)
        np.testing.assert_array_equal(got[1][0][1, 2:], W0[1, 2:])  # past cell 1's 2 taps
        np.testing.assert_array_equal(got[1][1][3], lags[3])  # cell 3 reads no lags

    def test_cells_with_their_own_layouts_match_their_learners(self):
        # one call over every cell's parameters gives each learner's own run
        rng = np.random.default_rng(6)
        T, d_in, d_out = 40, 2, 2
        u, y = rng.standard_normal((3, T, d_in)), rng.standard_normal((3, T, d_out))
        cells = [RegressionLearner(chebyshev_monic(2), num_taps=4, lr0=0.1),
                 RegressionLearner(cv(1.0), num_taps=1, lr0=0.5, domain_bound=0.05),
                 RegressionLearner(chebyshev_monic(3), num_taps=2, lr0=0.05, lr_coeffs0=0.01),
                 RegressionLearner(chebyshev_monic(2), lr0=0.0,
                                   init_Q=rng.standard_normal((2, d_out, d_in)))]
        index = np.array([2, 0, 1, 0])
        blocks = feature_blocks(
            u, y, cells, np.array([c.lr0 for c in cells]),
            np.array([c.lr_coeffs0 for c in cells]), index=index, init=[c.init_Q for c in cells],
        )
        assert [len(X.streams) for X, _, _, _ in blocks] == [3, 3]
        preds, _ = ogd(blocks, y[index])
        for cell, (learner, run) in enumerate(zip(cells, index)):
            np.testing.assert_array_equal(preds[cell], learner.run(u[run], y[run]))


class TestTildeExpand:
    def test_trivial(self):
        np.testing.assert_allclose(tilde_expand(cv(1.0)).coeffs, [1.0, 0.0, -1.0], atol=0)

    def test_linear(self):
        np.testing.assert_allclose(
            tilde_expand(cv(1.0, 0.0)).coeffs, [1.0, 0.0, -1.0, 0.0], atol=0
        )

    def test_length_grows_by_two(self):
        for n in range(6):
            assert len(tilde_expand(chebyshev_monic(n))) == n + 3

    def test_matches_polynomial_multiplication(self):
        c = chebyshev_monic(4)
        got = tilde_expand(c).coeffs
        # -(1 - x^2) p(x) evaluated via numpy polynomial arithmetic
        want = -np.polymul([-1.0, 0.0, 1.0], c.coeffs)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_output_monic(self):
        assert tilde_expand(chebyshev_monic(5)).coeffs[0] == 1.0


def make_bank(horizon=24, beta=0.1, k=3):
    return build_filter_bank(horizon, ComplexSector(beta), k)


def spectral_frozen(learner, u, y, Q, M):
    """Predictions of a spectral learner held at input maps Q and filter maps M."""
    (Xq, _, _, R_Q), lag, (Xm, _, _, R_M) = learner.blocks(u, y)
    return ogd([(Xq, Q, 0.0, R_Q), lag, (Xm, M, 0.0, R_M)], y)[0]


class TestSpectralPredict:
    def test_all_zero(self):
        learner = SpectralLearner(cv(1.0), make_bank(), total_horizon=27)
        np.testing.assert_array_equal(learner.run(np.zeros((5, 1)), np.zeros((5, 1))), 0.0)

    def test_m_zero_reduces_to_regression(self):
        rng = np.random.default_rng(4)
        c = chebyshev_monic(2)
        bank = build_filter_bank(20, ComplexSector(0.1), 0)
        learner = SpectralLearner(c, bank, total_horizon=23)
        Q = rng.standard_normal((3, 1, 2))
        u, y = rng.standard_normal((9, 2)), rng.standard_normal((9, 1))
        got = spectral_frozen(learner, u, y, Q, np.zeros((0, 1, 2)))
        reg = RegressionLearner(tilde_expand(c), num_taps=3, lr0=0.0, init_Q=Q)
        np.testing.assert_allclose(got, reg.run(u, y), atol=1e-12)

    def test_dense_oracle(self):
        rng = np.random.default_rng(12)
        c = chebyshev_monic(2)
        n = 2
        bank = make_bank(horizon=16, beta=0.2, k=3)
        T = 16 + n + 1
        learner = SpectralLearner(c, bank, total_horizon=T)
        Q = rng.standard_normal((n + 1, 1, 1))
        M = rng.standard_normal((3, 1, 1))
        steps = 11
        u, y = rng.standard_normal((steps, 1)), rng.standard_normal((steps, 1))
        got = spectral_frozen(learner, u, y, Q, M)

        ct = tilde_expand(c).coeffs
        for t in range(steps):
            want = 0.0
            for i in range(1, n + 3):
                if t - i >= 0:
                    want -= ct[i] * y[t - i, 0]
            for j in range(n + 1):
                if t - j >= 0:
                    want += Q[j, 0, 0] * u[t - j, 0]
            # deep past: u_{t-n-1-s} against filter component s, scaled 1/sqrt(T)
            for jf in range(3):
                acc = 0.0
                for s in range(t - n):
                    acc += bank.filters[jf, s] * u[t - n - 1 - s, 0]
                want += M[jf, 0, 0] * acc / np.sqrt(T)
            np.testing.assert_allclose(got[t], [want], atol=1e-12)

    def test_history_deeper_than_bank_rejected(self):
        learner = SpectralLearner(cv(1.0), make_bank(horizon=8), total_horizon=11)
        with pytest.raises(ValueError, match="bank horizon|exceeds"):
            learner.run(np.zeros((30, 1)), np.zeros((30, 1)))


class TestSpectralUpdate:
    def test_zero_residual_unchanged(self):
        learner = SpectralLearner(chebyshev_monic(2), make_bank(), total_horizon=27)
        u, y = np.ones((5, 1)), np.zeros((5, 1))
        preds, (Q, _, M) = ogd(learner.blocks(u, y), y)
        np.testing.assert_array_equal(preds, 0.0)
        np.testing.assert_array_equal(Q, 0.0)
        np.testing.assert_array_equal(M, 0.0)

    def test_zero_inputs_leave_parameters(self):
        learner = SpectralLearner(chebyshev_monic(2), make_bank(), total_horizon=27)
        u, y = np.zeros((6, 1)), np.ones((6, 1))
        _, (Q, _, M) = ogd(learner.blocks(u, y), y)
        np.testing.assert_array_equal(Q, 0.0)
        np.testing.assert_array_equal(M, 0.0)

    def test_scalar_hand_computed_step(self):
        c = cv(1.0)  # degree 0: one input tap, c~ = (1, 0, -1)
        bank = make_bank(horizon=6, beta=0.1, k=1)
        # norm_bound large enough that the projection stays inactive
        learner = SpectralLearner(c, bank, total_horizon=7, lr0=0.5, norm_bound=10.0)
        u = np.array([[1.0], [2.0], [3.0], [4.0]])
        # three zero residuals advance the schedule without an update; the
        # fourth is +2.5, so the one update runs at eta_4 = 0.5 / 2
        y = np.array([[0.0], [0.0], [0.0], [-2.5]])
        preds, (Q, _, M) = ogd(learner.blocks(u, y), y)
        np.testing.assert_array_equal(preds, 0.0)
        # sign = +1; dQ_0 = u_t = 4
        assert Q[0, 0, 0] == pytest.approx(-0.25 * 4.0, abs=1e-12)
        # deep past: u_{t-1-s} for s=0.. -> (u_3, u_2, u_1) = (3, 2, 1), padded
        padded = np.array([[3.0], [2.0], [1.0], [0.0], [0.0], [0.0]])
        feat = filter_project(bank, padded, 7)[0, 0]
        assert M[0, 0, 0] == pytest.approx(-0.25 * feat, abs=1e-12)

    def test_radius_invariants_after_noise(self):
        rng = np.random.default_rng(9)
        bank = make_bank(horizon=12, k=2)
        learner = SpectralLearner(chebyshev_monic(2), bank, total_horizon=15, lr0=50.0)
        u, y = rng.standard_normal((13, 1)), rng.standard_normal((13, 1))
        for t in range(1, 14):
            _, (Q, _, M) = ogd(learner.blocks(u[:t], y[:t]), y[:t])
            for Qj in Q:
                assert np.linalg.norm(Qj, 2) <= learner.R_Q + 1e-9
            for Mj in M:
                assert np.linalg.norm(Mj, 2) <= learner.R_M + 1e-9


class TestOracleWeights:
    def _sys(self, seed=0, d=4):
        eigs = np.random.default_rng(seed).uniform(0.0, 0.9, d)
        return system_from_eigenvalues(eigs, 1, 1, seed=seed + 50, basis_cond=3.0)

    def test_first_weight_is_cb(self):
        sys = self._sys()
        W = oracle_weights(sys, chebyshev_monic(3))
        np.testing.assert_allclose(W[0], sys.C @ sys.B, atol=1e-14)

    def test_zero_transition_gives_scaled_cb(self):
        sys = self._sys()
        zero = system_from_eigenvalues([0.0, 0.0], 1, 1, seed=1)
        sys0 = type(sys)(np.zeros((2, 2)), zero.B, zero.C,
                         np.zeros(2, dtype=complex), 1.0, 0.0)
        c = chebyshev_monic(3)
        W = oracle_weights(sys0, c)
        CB = sys0.C @ sys0.B
        for s in range(3):
            np.testing.assert_allclose(W[s], c.coeffs[s] * CB, atol=1e-14)

    def test_noiseless_comparator_bound(self):
        # the fixed comparator's raw error stays below the uniform bound
        # ||C|| ||B|| kappa 2^(2-n) T at every step
        n = 4
        c = chebyshev_monic(n)
        T = 100
        for seed in range(3):
            sys = self._sys(seed=seed, d=5)
            u = np.sign(gaussian_inputs(T, 1, seed + 10))  # unit-length input rows
            traj = simulate_lds(sys, u)
            learner = RegressionLearner(
                c, num_taps=n, lr0=0.0, init_Q=oracle_weights(sys, c)
            )
            preds = learner.run(traj.inputs, traj.outputs)
            err = np.abs(preds - traj.outputs).max()
            bound = (
                np.linalg.norm(sys.C, 2) * np.linalg.norm(sys.B, 2)
                * sys.kappa * 2.0 ** (2 - n) * T
            )
            assert err <= bound


class TestLearnedCoeffs:
    def test_zero_residual_unchanged(self):
        c = chebyshev_monic(2)
        learner = RegressionLearner(c, lr0=1.0, lr_coeffs0=1.0)
        u, y = np.ones((5, 1)), np.zeros((5, 1))
        preds, (Q, coeffs) = ogd(learner.blocks(u, y), y)
        np.testing.assert_array_equal(preds, 0.0)
        np.testing.assert_array_equal(Q, 0.0)
        np.testing.assert_array_equal(coeffs, c.coeffs[1:])

    def test_scalar_coefficient_gradient(self):
        learner = RegressionLearner(cv(1.0, 0.0), lr0=0.0, lr_coeffs0=0.1)
        # step 1 has no lagged target, so c_1 first moves at step 2, where
        # y_{t-1} = 2 and the residual is 0 - (-1.5) > 0
        u, y = np.zeros((2, 1)), np.array([[2.0], [-1.5]])
        _, (_, coeffs) = ogd(learner.blocks(u, y), y)
        # grad wrt c_1 is -sign(res) * y_{t-1} = -2; c_1 <- 0 - eta_2 * (-2)
        assert coeffs[0] == pytest.approx(0.2 / np.sqrt(2), abs=1e-15)

    def test_pinned_leading_coefficient(self):
        # the lag block holds c_1..c_n only: c_0 = 1 is no weight, so no
        # update can move it, while the others do move
        rng = np.random.default_rng(5)
        c = chebyshev_monic(3)
        learner = RegressionLearner(c, lr_coeffs0=1.0)
        u, y = rng.standard_normal((20, 1)), rng.standard_normal((20, 1))
        _, (_, coeffs) = ogd(learner.blocks(u, y), y)
        assert coeffs.shape == (3,)
        assert not np.array_equal(coeffs, c.coeffs[1:])

    def test_first_prediction_matches_fixed_baseline(self):
        c = chebyshev_monic(2)
        rng = np.random.default_rng(6)
        u, y = rng.standard_normal((30, 1)), rng.standard_normal((30, 1))
        fixed = RegressionLearner(c).run(u, y)
        learned = RegressionLearner(c, lr_coeffs0=0.1).run(u, y)
        np.testing.assert_array_equal(learned[0], fixed[0])
        # with a zero coefficient rate the two coincide on the whole stream
        frozen_c = RegressionLearner(c, lr_coeffs0=0.0).run(u, y)
        np.testing.assert_array_equal(frozen_c, fixed)


class TestRegret:
    def test_fixed_l1_stream_regret_bound(self):
        # scalar box domain [-1, 1], target 2 outside it: G = 1, D = 2
        T = 2000
        learner = RegressionLearner(cv(1.0), num_taps=1, domain_bound=1.0)
        u = np.ones((T, 1))
        y = np.full((T, 1), 2.0)
        preds = learner.run(u, y)
        losses = np.abs(preds - y).sum(axis=1)
        grid = np.linspace(-1.0, 1.0, 2001)
        best = np.abs(grid[None, :] * u - y).sum(axis=0).min()
        regret = losses.sum() - best
        assert regret <= 1.5 * 1.0 * 2.0 * np.sqrt(T)


class TestStreamingEquivalences:
    def test_spectral_with_empty_bank_equals_regression(self):
        rng = np.random.default_rng(31)
        c = chebyshev_monic(2)
        bank = build_filter_bank(16, ComplexSector(0.1), 0)
        T = 16 + c.degree + 1
        u = rng.standard_normal((T, 1))
        y = rng.standard_normal((T, 1))
        lr0 = 0.2
        spec = SpectralLearner(c, bank, total_horizon=T, lr0=lr0)
        got = spec.run(u, y)

        ct = tilde_expand(c)
        reg = RegressionLearner(
            c=ct, num_taps=c.degree + 1,
            domain_bound=spec.R_Q / ct.l1, lr0=lr0,
        )
        want = reg.run(u, y)
        np.testing.assert_allclose(got, want, atol=1e-12)


CAUSAL_T = 40


def causal_learners():
    c = cv(1.0, -0.9, 0.4, 0.1)  # no zero coefficient, so every lag is used
    bank = build_filter_bank(CAUSAL_T - c.degree - 1, ComplexSector(0.1), 4)
    return {
        "regression": RegressionLearner(c, lr0=0.05),
        "learned": RegressionLearner(c, lr0=0.05, lr_coeffs0=0.01),
        "spectral": SpectralLearner(c, bank, total_horizon=CAUSAL_T, lr0=0.05),
    }


@pytest.mark.parametrize("name", ["regression", "learned", "spectral"])
def test_prediction_ignores_the_future(name):
    # preds[t] may use inputs up to t and targets up to t-1, nothing later
    learner = causal_learners()[name]
    rng = np.random.default_rng(8)
    u, y = rng.standard_normal((CAUSAL_T, 2)), rng.standard_normal((CAUSAL_T, 2))
    base = learner.run(u, y)
    for t in (0, 1, 17, CAUSAL_T - 2):
        u2, y2 = u.copy(), y.copy()
        u2[t + 1 :] = rng.standard_normal(u2[t + 1 :].shape)
        y2[t:] = rng.standard_normal(y2[t:].shape)
        preds = learner.run(u2, y2)
        np.testing.assert_array_equal(preds[: t + 1], base[: t + 1])
        assert not np.array_equal(preds[t + 1 :], base[t + 1 :])  # the change is seen


@pytest.mark.parametrize("edge", [_PAST_BLOCK, 2 * _PAST_BLOCK])
def test_spectral_prediction_ignores_the_future_past_two_blocks(edge):
    # the deep past is convolved in blocks of _PAST_BLOCK history rows, and
    # preds[t] reads history rows up to t - degree - 1.  Bit for bit, inputs
    # after t change neither the rows before a block edge nor the first row
    # of a block, whose convolution also reads those later inputs
    c = cv(1.0, -0.9, 0.4, 0.1)
    T = 2 * _PAST_BLOCK + 100
    bank = build_filter_bank(T - c.degree - 1, ComplexSector(0.1), 4)
    learner = SpectralLearner(c, bank, total_horizon=T, lr0=0.05)
    rng = np.random.default_rng(edge)
    u, y = rng.standard_normal((T, 2)), rng.standard_normal((T, 2))
    base = learner.run(u, y)
    for t in (edge + c.degree, edge + c.degree + 1):
        u2 = u.copy()
        u2[t + 1 :] = rng.standard_normal(u2[t + 1 :].shape)
        preds = learner.run(u2, y)
        np.testing.assert_array_equal(preds[: t + 1], base[: t + 1])
        assert not np.array_equal(preds[t + 1 :], base[t + 1 :])


def test_first_non_finite_prediction_is_named():
    # a non-finite prediction comes back as computed, at its own step, for
    # the caller to name; the other steps are untouched
    X = np.ones((5, 1, 1))
    X[3] = np.inf
    preds, _ = ogd([(X, np.full((1, 1, 1), 0.5), 0.0, None)], np.zeros((5, 1)))
    np.testing.assert_array_equal(preds[:, 0], [0.5, 0.5, 0.5, np.inf, 0.5])


@pytest.mark.parametrize("make, fragment", [
    (lambda: ogd([(np.ones((4, 1, 1)), np.zeros((1, 1)), 0.1, None)], np.zeros((4, 1))),
     r"weights \(1, 1\) do not fit features \(4, 1, 1\)"),
    (lambda: ogd([(np.ones((4, 2, 1)), np.zeros(2), 0.1, 1.0)], np.zeros((4, 1))),
     "a lag block takes no radius"),
    (lambda: RegressionLearner(cv(1.0, -0.5), num_taps=-1), "num_taps must be nonnegative"),
], ids=["misfit-weights", "lag-radius", "negative-taps"])
def test_an_argument_out_of_range_is_named(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make()
