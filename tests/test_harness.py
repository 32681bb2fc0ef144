"""Experiment orchestration: seeds, grid search, CSV exchange, and `verify` suites."""

import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from seqprecond import harness as H
from seqprecond.cli import main as cli_main
from seqprecond.dynsys import (
    Trajectory,
    gaussian_inputs,
    ingest_csv,
    sample_system,
    simulate_lds,
    write_trajectory_csv,
)
from seqprecond.invariants import SUITES, verify
from seqprecond.learners import RegressionLearner
from seqprecond.poly import chebyshev_monic, differencing, legendre_monic

TINY_GEN = H.GeneratorConfig(d_h=6, tau=0.05)
FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="groups run in forked children only")


class NeedsTwo(Exception):
    """Pickles, but its one pickled argument cannot rebuild it."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def tiny_spec(**overrides):
    base = dict(
        generator=TINY_GEN, n_runs=3, horizon=120, window=30, degree=3, master_seed=7
    )
    base.update(overrides)
    return H.ExperimentSpec(**base)


def first_non_finite(learner, spec):
    """(run, step) of the first non-finite prediction of `learner` over the
    spec's runs, each run on its own, or None."""
    key = H._data_key(spec)
    for run, traj in enumerate(H._load([key])[key][0]):
        finite = np.isfinite(learner.run(traj.inputs, traj.outputs)).all(axis=-1)
        if not finite.all():
            return run, int(np.argmin(finite))
    return None


def strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def tiny_report():
    return H.run_experiment(tiny_spec())


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    sys_ = sample_system(
        d_h=5, d_in=2, d_out=2, tau_thresh=0.05, radius_lo=0.5, radius_hi=0.9, seed=3
    )
    traj = simulate_lds(sys_, gaussian_inputs(40, 2, seed=4))
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    write_trajectory_csv(traj, str(path))
    return traj, str(path)


class TestSeedDerivation:
    def test_three_seeds_per_run(self):
        seeds = H.derive_seeds(11, 5)
        assert len(seeds) == 15
        assert all(isinstance(s, int) and 0 <= s < 2**32 for s in seeds)

    def test_deterministic(self):
        assert H.derive_seeds(11, 5) == H.derive_seeds(11, 5)

    def test_prefix_property_lets_single_runs_be_regenerated(self):
        assert H.derive_seeds(11, 2) == H.derive_seeds(11, 6)[:6]

    def test_masters_decorrelate(self):
        assert H.derive_seeds(0, 4) != H.derive_seeds(1, 4)


class TestSpecHash:
    def test_stable_for_equal_specs(self):
        assert H.spec_hash(tiny_spec()) == H.spec_hash(tiny_spec())

    def test_sensitive_to_fields(self):
        assert H.spec_hash(tiny_spec()) != H.spec_hash(tiny_spec(degree=4))
        assert H.spec_hash(tiny_spec()) != H.spec_hash(tiny_spec(master_seed=8))

    def test_short_hex_digest(self):
        h = H.spec_hash(tiny_spec())
        assert len(h) == 12
        int(h, 16)


class TestValidateSpec:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(algo="nope"), "unknown algorithm"),
            (dict(variant="bogus"), "unknown variant"),
            (dict(n_runs=0), "n_runs"),
            (dict(window=0), "window"),
            (dict(window=500), "window"),
            (dict(lr_grid=()), "grid must be nonempty"),
            (dict(variant="custom"), "custom_coeffs"),
            (dict(oracle_comparator=True, csv_path="x.csv"), "generated linear system"),
            (
                dict(
                    oracle_comparator=True,
                    generator=H.GeneratorConfig(kind="nonlinear", d_h=6),
                ),
                "generated linear system",
            ),
            (dict(oracle_comparator=True, algo="spectral"), "regression only"),
            (dict(csv_path="x.csv"), "CSV spec holds one trajectory: n_runs must be 1, got 3"),
            (dict(lr_grid=(1e-2, -0.1)), r"lr_grid holds -0\.1: a learning rate must be finite"),
            (dict(lr_grid=(float("nan"),)), "lr_grid holds nan"),
            (dict(lr_grid=(float("inf"),)), "lr_grid holds inf"),
            (dict(lr_grid=("0.1",)), "lr_grid holds '0.1'"),
            (
                dict(variant="learned", lr_grid_coeffs=(1e-2, -1e-3)),
                r"lr_grid_coeffs holds -0\.001",
            ),
            (dict(variant="learned", algo="spectral"), "learned variant is defined for regression"),
            (dict(lr_grid_coeffs=(1e-2,)), "applies to the learned variant, not 'chebyshev'"),
            (dict(oracle_comparator=True, variant="none"), "variant 'none' gives degree 0"),
            (
                dict(oracle_comparator=True, variant="custom", custom_coeffs=(1.0,)),
                "oracle comparator needs coefficients of degree >= 1; variant 'custom'",
            ),
            (
                dict(oracle_comparator=True, variant="learned"),
                "oracle_comparator=True .* variant='learned'",
            ),
            (
                dict(generator=H.GeneratorConfig(kind="weird", d_h=6)),
                "unknown generator kind 'weird'",
            ),
            (dict(lr_grid=(True,)), "lr_grid holds True"),
            (dict(generator=H.GeneratorConfig(d_h=0)), r"generator\.d_h must be >= 1, got 0"),
            (dict(generator=H.GeneratorConfig(d_in=-1)), r"generator\.d_in must be >= 1"),
            (dict(generator=H.GeneratorConfig(d_out=0)), r"generator\.d_out must be >= 1"),
            (
                dict(generator=H.GeneratorConfig(radius_lo=2.0)),
                r"need 0 <= generator\.radius_lo <= generator\.radius_hi <= 1, got \[2\.0, 1\.0\]",
            ),
            (dict(generator=H.GeneratorConfig(radius_lo=-0.1)), r"generator\.radius_lo"),
            (dict(generator=H.GeneratorConfig(radius_hi=1.5)), r"generator\.radius_hi"),
            (
                dict(generator=H.GeneratorConfig(radius_lo=0.95, radius_hi=0.9)),
                r"got \[0\.95, 0\.9\]",
            ),
            (dict(generator=H.GeneratorConfig(tau=-0.01)), r"generator\.tau must be >= 0"),
            (dict(generator=H.GeneratorConfig(tau=float("nan"))), r"generator\.tau .* got nan"),
            (dict(generator=H.GeneratorConfig(noise_sigma=-1.0)), r"generator\.noise_sigma"),
            (dict(generator=H.GeneratorConfig(basis_cond=0.5)), r"generator\.basis_cond .* 0\.5"),
            (dict(master_seed=-1), "master_seed must be >= 0, got -1"),
            (dict(num_taps=-1), "num_taps must be >= 0"),
            (dict(domain_bound=-1.0), "domain_bound must be >= 0"),
            (dict(norm_bound=-0.5), "norm_bound must be >= 0"),
            (dict(kappa_bound=-2.0), "kappa_bound must be >= 0"),
            (dict(beta=-0.1), r"beta must lie in \[0, 1\], got -0\.1"),
            (dict(beta=1.5), r"beta must lie in \[0, 1\], got 1\.5"),
            (dict(algo="spectral", filter_count=-1), r"filter_count must lie in .* = \[0, 116\]"),
            (dict(algo="spectral", filter_count=117), r"degree 3, got 117"),
            (dict(algo="spectral", num_taps=9), r"num_taps: a spectral spec reads degree \+ 1"),
            (dict(algo="spectral", num_taps=4), "spectral spec reads degree .* got 4"),
            (dict(oracle_comparator=True, num_taps=7), "num_taps: the oracle reads degree 3 .* 7"),
            (dict(oracle_comparator=True, num_taps=0), "num_taps: the oracle .* got 0"),
            (dict(algo="spectral", horizon=2, window=1, degree=1, filter_count=0),
             r"must lie in \[1, 8192\]: horizon 2 and degree 1 give 0"),
            (dict(algo="spectral", horizon=9000, degree=1), "horizon 9000 and degree 1 give 8998"),
            (dict(algo="spectral", beta=0.0), r"^beta must be > 0 on a spectral spec"),
            (
                dict(generator=H.GeneratorConfig(noise_sigma=float("inf"))),
                r"^generator\.noise_sigma must be finite, got inf$",
            ),
            (
                dict(generator=H.GeneratorConfig(basis_cond=float("inf"))),
                r"^generator\.basis_cond must be finite, got inf$",
            ),
            (dict(generator=H.GeneratorConfig(tau=float("inf"))), r"^generator\.tau .* finite"),
            (
                dict(variant="custom", custom_coeffs=(1.0, 1e308, 1e308)),
                r"^custom_coeffs: their l1 norm inf is not finite$",
            ),
            (
                dict(variant="custom", custom_coeffs=(1.0,) + (0.0,) * 10**5, num_taps=1,
                     horizon=50, window=10, n_runs=1),
                r"^custom_coeffs: the spec reads 100000 lagged targets, "
                r"more than the data horizon 50$",
            ),
            (
                dict(degree=55, num_taps=1, horizon=50, window=10),
                r"^degree: the spec reads 55 lagged targets, more than the data horizon 50$",
            ),
            (
                dict(n_runs=10**9, horizon=2000),
                r"^n_runs 1000000000 and horizon 2000: the run would hold about 195968000 MB, "
                r"over MAX_RUN_BYTES \(1000 MB\)$",
            ),
            (dict(n_runs=20, horizon=10**12), r"^n_runs 20 and horizon 1000000000000: .* MB, over"),
            (
                dict(variant="custom", custom_coeffs=(1.0, True)),
                r"^custom_coeffs holds True: a coefficient must be a finite real number$",
            ),
            (dict(variant="custom", custom_coeffs=(1.0, "a")), r"^custom_coeffs holds 'a': "),
            (dict(variant="custom", custom_coeffs=(1.0, None)), r"^custom_coeffs holds None: "),
        ],
    )
    def test_rejections_name_the_problem(self, overrides, fragment):
        with pytest.raises(ValueError, match=fragment):
            H.validate_spec(tiny_spec(**overrides))

    def test_unknown_generator_kind_fails_at_run(self):
        spec = tiny_spec(generator=H.GeneratorConfig(kind="weird", d_h=6))
        with pytest.raises(ValueError, match="unknown generator kind"):
            H.run_experiment(spec)

    def test_good_spec_passes(self):
        H.validate_spec(tiny_spec())
        H.validate_spec(tiny_spec(beta=0.0))  # a regression spec ignores beta

    def test_the_size_guard_admits_a_thousand_cells(self):
        # a learned 5 x 5 grid over 40 runs with d_in = d_out = 3 at T = 2000
        # is 1000 cells, estimated at 194 MB; nothing is run
        grid = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
        H.validate_spec(H.ExperimentSpec(variant="learned", lr_grid=grid, lr_grid_coeffs=grid,
                                         n_runs=40, generator=H.GeneratorConfig(d_in=3, d_out=3)))

    def test_the_size_guard_reads_numpy_integers_as_python_ints(self):
        # 8 * T * n_runs * 5 bytes wraps in int64; the estimate must not
        want = (r"^n_runs 10000 and horizon 17592186044416: the run would hold about "
                r"15481123719418 MB, over MAX_RUN_BYTES")
        for n_runs, horizon in [(10**4, 2**44), (np.int64(10**4), np.int64(2**44))]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=want):
                    H.validate_spec(H.ExperimentSpec(n_runs=n_runs, horizon=horizon))

    def test_the_size_guard_counts_the_chunk_buffers(self, monkeypatch):
        # 20 runs x 3 rates at T = 2000 hold about 3.5 MB of data and
        # predictions; `ogd`'s chunk buffers add 2 x 64 x taps doubles a
        # cell, about 25 MB at 400 input taps and 0.3 MB at 5
        monkeypatch.setattr(H, "MAX_RUN_BYTES", 20 * 10**6)
        H.validate_spec(H.ExperimentSpec(num_taps=5))
        with pytest.raises(ValueError, match=r"^n_runs 20 and horizon 2000: the run would hold "
                                             r"about 32 MB, over MAX_RUN_BYTES \(20 MB\)$"):
            H.validate_spec(H.ExperimentSpec(num_taps=400))

    def test_the_size_guard_counts_the_gather_copy(self, monkeypatch):
        # to gather a chunk onto the cells, np.take first copies the chunk
        # of every run's stream: 64 x 2000 taps x 20 runs doubles, 20.48 MB,
        # which takes this spec's estimate from 126 to 147 MB
        monkeypatch.setattr(H, "MAX_RUN_BYTES", 140 * 10**6)
        with pytest.raises(ValueError, match=r"^n_runs 20 and horizon 2000: the run would hold "
                                             r"about 147 MB, over MAX_RUN_BYTES \(140 MB\)$"):
            H.validate_spec(H.ExperimentSpec(num_taps=2000))

    def test_the_size_guard_counts_the_sampled_systems(self, monkeypatch):
        # 20 linear systems of d_h = 1e5 hold 1.6 TB in their transition
        # matrices alone; the spec is refused before any is sampled
        monkeypatch.setattr(H, "_sample_runs", lambda *args: pytest.fail("sampled"))
        with pytest.raises(ValueError, match=r"^generator\.d_h 100000, d_in 1, d_out 1 and n_runs "
                                             r"20: the systems would hold about 3680064 MB, "
                                             r"over MAX_RUN_BYTES"):
            H.run_experiment(H.ExperimentSpec(generator=H.GeneratorConfig(d_h=10**5)))
        # two layers a system: a nonlinear spec counts twice the matrices
        nonlinear = H.GeneratorConfig(kind="nonlinear", d_h=10**4)
        with pytest.raises(ValueError, match="would hold about 11201 MB"):
            H.validate_spec(H.ExperimentSpec(generator=nonlinear, n_runs=2, horizon=300, window=50))
        # the largest systems another test runs pass
        H.validate_spec(H.ExperimentSpec(generator=H.GeneratorConfig(d_h=400), n_runs=2,
                                         horizon=300, window=50))

    @pytest.mark.parametrize("width", ["d_in", "d_out"])
    def test_the_size_guard_counts_the_input_and_output_widths(self, width, monkeypatch):
        # one system of d_h 50 with 5e6 inputs (or outputs) holds 2 GB in B
        # (or C) alone, and twice that with its stacked copy; one step of
        # its data fits, so the systems' estimate is what refuses the spec
        def sampled(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(H.dynsys, "sample_system", sampled)
        g = H.GeneratorConfig(**{width: 5_000_000})
        with pytest.raises(ValueError, match=rf"^generator\.d_h 50, .*{width} 5000000\b.* n_runs "
                                             r"1: the systems would hold about 4000 MB"):
            H.run_experiment(H.ExperimentSpec(generator=g, n_runs=1, horizon=1, window=1, degree=1))

    def test_oracle_takes_num_taps_at_its_degree(self):
        H.validate_spec(tiny_spec(oracle_comparator=True, num_taps=3))

    def test_filter_count_bound_is_inclusive_and_waits_for_a_csv(self):
        # 120 - 3 - 1 = 116 filters fit a generated spec; a CSV's horizon
        # is known only when it is read, so its check waits for the run
        H.validate_spec(tiny_spec(algo="spectral", filter_count=116))
        H.validate_spec(H.ExperimentSpec(algo="spectral", csv_path="x.csv", filter_count=10**6))

    @pytest.mark.parametrize("overrides, named, taps", [
        (dict(variant="none", degree=10**8), "degree", 10**8),
        (dict(variant="differencing", degree=10**8), "degree", 10**8),
        (dict(num_taps=10**9), "num_taps", 10**9),
    ])
    def test_input_taps_past_the_horizon_are_rejected(self, overrides, named, taps):
        # a tap past T reads zeros at every step; such a spec would build
        # windows and weights of that many taps for every cell
        with pytest.raises(ValueError, match=f"^{named}: the spec reads {taps} input taps, "
                                             f"more than the data horizon 2000$"):
            H.validate_spec(H.ExperimentSpec(**overrides))

    def test_input_taps_up_to_the_horizon_pass(self):
        H.validate_spec(tiny_spec(num_taps=120))
        H.validate_spec(tiny_spec(variant="none", degree=120))
        with pytest.raises(ValueError, match="^num_taps: the spec reads 121 input taps"):
            H.validate_spec(tiny_spec(num_taps=121))
        oracle = tiny_spec(oracle_comparator=True, variant="custom",
                           custom_coeffs=(1.0,) + (0.0,) * 120 + (-0.5,))
        with pytest.raises(ValueError, match="^degree: the spec reads 121 input taps"):
            H.validate_spec(oracle)

    def test_lags_up_to_the_horizon_pass(self):
        # a lag past T reads zeros at every step, as a tap past T does
        H.validate_spec(tiny_spec(variant="custom", custom_coeffs=(1.0,) + (0.0,) * 120,
                                  num_taps=1))
        with pytest.raises(ValueError, match="^custom_coeffs: the spec reads 121 lagged targets"):
            H.validate_spec(tiny_spec(variant="custom", custom_coeffs=(1.0,) + (0.0,) * 121,
                                      num_taps=1))

    def test_a_csv_spec_reads_no_horizon(self):
        # the window is checked against the file's length, when it is read
        H.validate_spec(H.ExperimentSpec(csv_path="x.csv", horizon=200, window=300))
        H.validate_spec(H.ExperimentSpec(csv_path="x.csv", num_taps=10**9))

    def test_n_runs_default_follows_the_data(self):
        # 1 on a CSV spec, 20 otherwise; a spec that sets it hashes as before
        H.validate_spec(H.ExperimentSpec(csv_path="x.csv"))
        assert H.ExperimentSpec(csv_path="x.csv").n_runs == 1
        assert H.spec_hash(H.ExperimentSpec()) == H.spec_hash(H.ExperimentSpec(n_runs=20))


class TestResolveCoefficients:
    def test_none_is_trivial_vector(self):
        c = H.resolve_coefficients(tiny_spec(variant="none"))
        np.testing.assert_array_equal(c.coeffs, [1.0])

    @pytest.mark.parametrize("variant", ["chebyshev", "learned"])
    def test_chebyshev_and_learned_start_identical(self, variant):
        c = H.resolve_coefficients(tiny_spec(variant=variant, degree=4))
        np.testing.assert_array_equal(c.coeffs, chebyshev_monic(4).coeffs)

    def test_legendre(self):
        c = H.resolve_coefficients(tiny_spec(variant="legendre", degree=4))
        np.testing.assert_array_equal(c.coeffs, legendre_monic(4).coeffs)

    def test_differencing_ignores_degree(self):
        c = H.resolve_coefficients(tiny_spec(variant="differencing", degree=9))
        np.testing.assert_array_equal(c.coeffs, differencing().coeffs)

    def test_custom_passthrough(self):
        c = H.resolve_coefficients(
            tiny_spec(variant="custom", custom_coeffs=(1.0, -0.5))
        )
        np.testing.assert_array_equal(c.coeffs, [1.0, -0.5])


class TestRunExperiment:
    def test_aggregates_are_means_of_per_run_values(self, tiny_report):
        r = tiny_report
        assert r.mean == pytest.approx(np.mean(r.per_run_final_errors), abs=1e-12)
        assert r.std == pytest.approx(np.std(r.per_run_final_errors), abs=1e-12)
        assert r.mean_full_horizon == pytest.approx(
            np.mean(r.per_run_full_errors), abs=1e-12
        )

    def test_aggregates_are_exactly_those_of_the_per_run_lists(self):
        # 13 runs go past numpy's 8-wide unrolled sum: the winner's mean, std
        # and full-horizon mean read its lists as np.mean and np.std do
        r = H.run_experiment(tiny_spec(n_runs=13))
        assert r.mean == np.mean(r.per_run_final_errors)
        assert r.std == np.std(r.per_run_final_errors)
        assert r.mean_full_horizon == np.mean(r.per_run_full_errors)

    def test_a_generated_spec_is_fitted_once(self, monkeypatch):
        # `validate_spec` checks a generated spec's fit; the run does not again
        calls = []
        fit_error = H._fit_error

        def counted(*args):
            calls.append(args[1:])
            return fit_error(*args)

        monkeypatch.setattr(H, "_fit_error", counted)
        H.run_experiment(tiny_spec(n_runs=2))
        assert calls == [(120, 1, 1)]

    def test_numpy_scalars_make_the_python_valued_spec(self):
        # a spec built of numpy scalars is the spec built of their values:
        # same hash, same report JSON
        plain = tiny_spec(degree=2, lr_grid=(1e-2, float(np.float32(0.1))), n_runs=2)
        held = tiny_spec(degree=np.int64(2), lr_grid=(np.float64(1e-2), np.float32(0.1)),
                         n_runs=np.int64(2), window=np.int32(30),
                         generator=H.GeneratorConfig(d_h=np.int64(6), tau=np.float64(0.05)))
        assert held == plain
        assert H.spec_hash(held) == H.spec_hash(plain)
        assert H.report_to_json(H.run_experiment(held)) == H.report_to_json(H.run_experiment(plain))

    def test_report_shape(self, tiny_report):
        r = tiny_report
        assert len(r.per_run_final_errors) == 3
        assert len(r.per_run_full_errors) == 3
        assert len(r.seeds) == 9
        assert r.horizon == 120 and r.window == 30
        assert r.tau == pytest.approx(0.05)

    def test_byte_identical_reports(self, tiny_report):
        again = H.run_experiment(tiny_spec())
        assert H.report_to_json(again) == H.report_to_json(tiny_report)

    def test_reports_are_byte_identical_at_one_blas_thread_count(self):
        # The bank here (T' = 1997) comes out of OpenBLAS with other last
        # bits at 1 and 2 threads, and so do the reports, but not their
        # chosen rate.  From d_h = 100 up, the sampled systems do too.
        code = ("from seqprecond import harness as H\n"
                "big = dict(n_runs=2, horizon=300, window=50)\n"
                "specs = [H.ExperimentSpec(algo='spectral', degree=2, n_runs=2),\n"
                "         H.ExperimentSpec(generator=H.GeneratorConfig(d_h=400), **big),\n"
                "         H.ExperimentSpec(generator=H.GeneratorConfig(d_h=200, d_in=3, d_out=3),\n"
                "                          **big)]\n"
                "reports = (H.report_to_json(H.run_experiment(s)) for s in specs)\n"
                "print('[' + ','.join(reports) + ']')\n")
        src = str(Path(H.__file__).parents[1])

        def run_at(threads):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads))
            return subprocess.run([sys.executable, "-c", code], env=env, text=True,
                                  stdout=subprocess.PIPE)

        # one at a time: run together, their five BLAS threads crowd a small machine
        runs = [run_at(threads) for threads in (2, 2, 1)]
        reports = [run.stdout for run in runs]
        assert [run.returncode for run in runs] == [0, 0, 0]
        assert reports[0] == reports[1]
        chosen = [[report["chosen_lr"] for report in json.loads(r)] for r in reports]
        assert chosen[0] == chosen[1] == chosen[2]

    def test_winner_minimizes_grid_mean(self, tiny_report):
        r = tiny_report
        means = {g["lr"]: g["mean"] for g in r.grid_results}
        assert len(means) == len(H.DEFAULT_LR_GRID)
        assert means[r.chosen_lr] == min(means.values())
        assert r.mean == pytest.approx(means[r.chosen_lr], abs=1e-12)

    def test_grid_order_does_not_change_winner(self, tiny_report):
        flipped = H.run_experiment(tiny_spec(lr_grid=(1e-1, 1e-2, 1e-3)))
        assert flipped.chosen_lr == tiny_report.chosen_lr
        assert flipped.mean == pytest.approx(tiny_report.mean, abs=1e-15)
        np.testing.assert_array_equal(
            flipped.per_run_final_errors, tiny_report.per_run_final_errors
        )

    def test_exact_tie_breaks_to_smallest_rate(self, tmp_path):
        # All-zero outputs leave every rate with identical zero error.
        path = tmp_path / "zeros.csv"
        rng = np.random.default_rng(0)
        lines = ["t,u_0,y_0"]
        for t in range(1, 41):
            lines.append(f"{t},{rng.standard_normal()!r},0.0")
        path.write_text("\n".join(lines) + "\n")
        rep = H.run_experiment(
            H.ExperimentSpec(
                csv_path=str(path),
                degree=2,
                n_runs=1,
                window=10,
                lr_grid=(1e-1, 1e-3, 1e-2),
                master_seed=0,
            )
        )
        assert rep.chosen_lr == pytest.approx(1e-3)
        assert rep.mean == 0.0

    def test_learned_variant_searches_rate_pairs(self):
        rep = H.run_experiment(
            tiny_spec(variant="learned", n_runs=2, lr_grid=(1e-2, 1e-1))
        )
        assert len(rep.grid_results) == 4
        assert isinstance(rep.chosen_lr, (list, tuple)) and len(rep.chosen_lr) == 2

    @pytest.mark.parametrize("d", [1, 3])  # d=3 projects through an SVD
    def test_diverging_rate_fails_at_first_non_finite_step(self, d):
        # a coefficient rate of 1e308 overflows.  Each of its grid points is
        # recorded as diverged at the first non-finite step of its own
        # learner, and the rest of the report is, bit for bit, that of the
        # grid without them.  The overflow is recorded, not warned about.
        gen = H.GeneratorConfig(d_h=6, tau=0.05, d_in=d, d_out=d)
        spec = tiny_spec(generator=gen, variant="learned", lr_grid_coeffs=(1e308, 1e-2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = H.run_experiment(spec)
        ref = H.run_experiment(tiny_spec(generator=gen, variant="learned", lr_grid_coeffs=(1e-2,)))

        diverged = [g for g in rep.grid_results if "diverged" in g]
        assert [g["lr"] for g in diverged] == [[m, 1e308] for m in H.DEFAULT_LR_GRID]
        assert [g for g in rep.grid_results if "diverged" not in g] == ref.grid_results
        skip = ("grid_results", "config_hash")
        mine, want = dataclasses.asdict(rep), dataclasses.asdict(ref)
        assert {k: v for k, v in mine.items() if k not in skip} == {
            k: v for k, v in want.items() if k not in skip
        }
        c = H.resolve_coefficients(spec)
        for g in diverged:
            assert set(g) == {"lr", "diverged"}
            cell = RegressionLearner(c, num_taps=3, lr0=g["lr"][0], lr_coeffs0=g["lr"][1])
            assert first_non_finite(cell, spec) == (g["diverged"]["run"], g["diverged"]["step"])
        assert strict_json(H.report_to_json(rep))["grid_results"] == rep.grid_results

    def test_experiment_fails_when_every_grid_point_diverges(self):
        # the error names the first grid point, its first diverged run and
        # that run's first non-finite step
        spec = tiny_spec(variant="learned", lr_grid=(1e-3, 1e-2), lr_grid_coeffs=(1e308,))
        cell = RegressionLearner(
            H.resolve_coefficients(spec), num_taps=3, lr0=1e-3, lr_coeffs0=1e308
        )
        run, step = first_non_finite(cell, spec)
        with pytest.raises(ValueError) as exc:
            H.run_experiment(spec)
        assert type(exc.value) is ValueError
        assert str(exc.value) == (
            f"non-finite prediction at step {step} of 120 (lr=[0.001, 1e+308], run {run})"
        )

    def test_report_json_rejects_a_non_finite_field(self, tiny_report):
        strict_json(H.report_to_json(tiny_report))
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                H.report_to_json(dataclasses.replace(tiny_report, mean=value))

    def test_csv_is_read_once_per_experiment(self, tiny_csv, monkeypatch):
        _, path = tiny_csv
        calls = []
        ingest = H.dynsys.ingest_csv

        def counted(*args, **kwargs):
            calls.append(args)
            return ingest(*args, **kwargs)

        monkeypatch.setattr(H.dynsys, "ingest_csv", counted)
        rep = H.run_experiment(
            H.ExperimentSpec(csv_path=path, n_runs=1, window=10, degree=2, master_seed=0)
        )
        assert len(calls) == 1
        assert rep.n_runs == 1

    @pytest.mark.parametrize("kind", ["lds", "nonlinear"])
    def test_runs_are_simulated_in_one_call_per_experiment(self, kind, monkeypatch):
        name = "simulate_lds_runs" if kind == "lds" else "simulate_nonlinear_runs"
        calls = []
        simulate = getattr(H.dynsys, name)

        def counted(systems, inputs, seeds):
            calls.append(len(systems))
            return simulate(systems, inputs, seeds)

        monkeypatch.setattr(H.dynsys, name, counted)
        rep = H.run_experiment(tiny_spec(generator=H.GeneratorConfig(kind=kind, d_h=6, tau=0.05)))
        assert calls == [3]
        assert len(rep.per_run_final_errors) == 3

    def test_oracle_comparator_skips_grid(self):
        rep = H.run_experiment(tiny_spec(oracle_comparator=True, n_runs=2))
        assert rep.chosen_lr is None
        assert rep.grid_results == []
        assert np.isfinite(rep.mean)

    def test_meta_records_spectra_and_norm(self, tiny_report):
        assert tiny_report.meta["coefficient_l1"] == pytest.approx(
            chebyshev_monic(3).l1
        )
        spectra = tiny_report.meta["spectra"]
        assert len(spectra) == 3
        assert all(0 < s["max_abs"] <= 1.0 for s in spectra)
        assert all(s["kappa"] >= 1.0 for s in spectra)

    def test_window_larger_than_csv_data_rejected(self, tiny_csv):
        _, path = tiny_csv
        spec = H.ExperimentSpec(
            csv_path=path, n_runs=1, horizon=500, window=100, master_seed=0
        )
        with pytest.raises(ValueError, match="exceeds data horizon"):
            H.run_experiment(spec)

    def test_a_csv_spec_runs_whatever_its_horizon_field(self, tmp_path):
        # the run reads the file's 400 rows, never the spec's horizon
        system = sample_system(d_h=5, d_in=1, d_out=1, tau_thresh=0.05, radius_lo=0.5,
                               radius_hi=0.9, seed=3)
        path = str(tmp_path / "long.csv")
        write_trajectory_csv(simulate_lds(system, gaussian_inputs(400, 1, seed=4)), path)
        base = dict(csv_path=path, window=300, degree=3, master_seed=0)
        short, default = (H.run_experiment(H.ExperimentSpec(horizon=200, **base)),
                          H.run_experiment(H.ExperimentSpec(**base)))
        assert short.config_hash != default.config_hash
        assert dataclasses.replace(short, config_hash=default.config_hash) == default
        assert short.horizon == 400

    def test_a_csv_spec_with_taps_past_its_rows_fails_alone(self, tiny_csv):
        _, path = tiny_csv  # 40 rows
        base = dict(csv_path=path, window=10, degree=2, master_seed=0)
        results = H.sweep([H.ExperimentSpec(num_taps=41, **base), tiny_spec(n_runs=1),
                           H.ExperimentSpec(num_taps=40, **base)])
        assert isinstance(results[0], H.SweepFailure)
        assert results[0].error == ("num_taps: the spec reads 41 input taps, "
                                    "more than the data horizon 40")
        assert all(isinstance(r, H.MetricsReport) for r in results[1:])

    def test_a_csv_spec_with_lags_past_its_rows_fails_alone(self, tiny_csv):
        _, path = tiny_csv  # 40 rows
        base = dict(csv_path=path, window=10, variant="custom", num_taps=2, master_seed=0)
        results = H.sweep([H.ExperimentSpec(custom_coeffs=(1.0,) + (0.0,) * 40 + (-0.5,), **base),
                           H.ExperimentSpec(custom_coeffs=(1.0,) + (0.0,) * 39 + (-0.5,), **base)])
        assert isinstance(results[0], H.SweepFailure)
        assert results[0].error == ("custom_coeffs: the spec reads 41 lagged targets, "
                                    "more than the data horizon 40")
        assert isinstance(results[1], H.MetricsReport)

    def test_a_csv_spec_over_the_run_size_bound_fails_alone(self, tiny_csv, monkeypatch):
        # a CSV's horizon and widths are known only once it is read: over
        # its 40 rows, 40 input taps put the run near 245 kB and 2 taps near
        # 26 kB, and only the first is refused
        _, path = tiny_csv
        monkeypatch.setattr(H, "MAX_RUN_BYTES", 10**5)
        base = dict(csv_path=path, window=10, degree=2, master_seed=0)
        specs = [H.ExperimentSpec(num_taps=40, **base), H.ExperimentSpec(num_taps=2, **base)]
        results = H.sweep(specs)
        assert isinstance(results[0], H.SweepFailure)
        assert results[0].error.startswith("n_runs 1 and horizon 40: the run would hold about ")
        assert results[0].error.endswith(" MB, over MAX_RUN_BYTES (0 MB)")
        assert H.report_to_json(results[1]) == H.report_to_json(H.run_experiment(specs[1]))

    def test_taps_past_the_horizon_fail_before_any_data_is_made(self, monkeypatch):
        calls = []
        monkeypatch.setattr(H, "_sample_runs", lambda *args: calls.append(args))
        for bad in (dict(variant="none", degree=10**8), dict(num_taps=10**9)):
            with pytest.raises(ValueError, match="more than the data horizon 120"):
                H.sweep([tiny_spec(), tiny_spec(**bad)])
        assert calls == []

    @pytest.mark.parametrize("overrides", [
        dict(variant="custom", custom_coeffs=(1.0, 1e200, 1e200)),
        dict(generator=H.GeneratorConfig(noise_sigma=1e300)),
    ], ids=["coefficients", "noise"])
    def test_a_non_finite_aggregate_fails_naming_it(self, overrides):
        # finite predictions whose errors near 1e200 overflow the std: the
        # report would not be JSON, so the spec fails, naming the number,
        # and numpy's overflow is not warned about
        spec = H.ExperimentSpec(horizon=50, window=10, n_runs=2, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as exc:
                H.run_experiment(spec)
        assert str(exc.value) == "std of the final-window errors at lr=0.001 is not finite"

    def test_spectral_algo_runs_and_reports(self):
        rep = H.run_experiment(
            tiny_spec(algo="spectral", n_runs=2, lr_grid=(1e-2,), filter_count=8)
        )
        assert rep.algo == "spectral"
        assert np.isfinite(rep.mean)


class TestCsvExchange:
    @pytest.mark.parametrize("d_out", [1, 2, 3])
    @pytest.mark.parametrize("d_in", [1, 2, 3])
    def test_round_trip_is_exact(self, tmp_path, d_in, d_out):
        # values across the float range, so every digit of each repr counts
        rng = np.random.default_rng(10 * d_in + d_out)
        u, y = (rng.standard_normal((30, d)) * 10.0 ** rng.integers(-300, 300, (30, d))
                for d in (d_in, d_out))
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(Trajectory(u, y), path)
        back = ingest_csv(path)
        assert np.array_equal(back.inputs, u) and np.array_equal(back.outputs, y)

    def test_handcrafted_rows(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("t,u_0,u_1,y_0\n1,0.5,-1.0,2.0\n2,0.25,0.0,-4.0\n3,1.5,2.5,8.0\n")
        traj = ingest_csv(str(path))
        np.testing.assert_array_equal(
            traj.inputs, [[0.5, -1.0], [0.25, 0.0], [1.5, 2.5]]
        )
        np.testing.assert_array_equal(traj.outputs, [[2.0], [-4.0], [8.0]])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("t,u_0,y_0\n1,0.5,2.0\n\n2,0.25,-4.0\n\n")
        assert ingest_csv(str(path)).horizon == 2

    @pytest.mark.parametrize(
        "header, fragment",
        [
            ("x,u_0,y_0", "first column must be 't'"),
            ("t,u_0,u_2,y_0", "expected column 'u_1'"),
            ("t,y_0,u_0", "expected column 'u_0'"),
            ("t,u_0", "expected column 'y_0'"),
            ("t,u_0,y_0,extra", "expected column 'y_1'"),
            ("t,u_0,y_0,u_1", "^malformed header: expected column 'u_1', found 'y_0'$"),
            ("t,u_0,y_0,y_0", "^malformed header: expected column 'y_1', found 'y_0'$"),
        ],
    )
    def test_malformed_headers(self, tmp_path, header, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n1,0.0,0.0\n")
        with pytest.raises(ValueError, match=fragment):
            ingest_csv(str(path))

    def test_non_contiguous_t_names_row(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,u_0,y_0\n1,0.5,0.2\n3,0.1,0.0\n")
        with pytest.raises(ValueError, match=r"row 3: non-contiguous t \(expected 2, got 3\)"):
            ingest_csv(str(path))

    def test_non_integer_t(self, tmp_path):
        path = tmp_path / "floatt.csv"
        path.write_text("t,u_0,y_0\n1.5,0.5,0.2\n")
        with pytest.raises(ValueError, match="non-integer t"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "nan.csv"
        path.write_text(f"t,u_0,y_0\n1,0.5,{cell}\n")
        with pytest.raises(ValueError, match="row 2, column y_0: non-finite"):
            ingest_csv(str(path))

    def test_unparsable_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "abc.csv"
        path.write_text("t,u_0,y_0\n1,0.5,0.2\n2,abc,0.1\n")
        with pytest.raises(ValueError, match="row 3, column u_0: not a number 'abc'"):
            ingest_csv(str(path))

    def test_bad_cell_names_its_stripped_column(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("t, u_0, y_0\n1,0.5,0.2\n2,0.1,abc\n")
        with pytest.raises(ValueError) as err:
            ingest_csv(str(path))
        assert str(err.value) == "row 3, column y_0: not a number 'abc'"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "t,u_0,y_0\n1,0.5,0.2\n2,0.1,-4.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        want, got = ingest_csv(str(plain)), ingest_csv(str(marked))
        np.testing.assert_array_equal(got.inputs, want.inputs)
        np.testing.assert_array_equal(got.outputs, want.outputs)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t,u_0,y_0\n1,0.5\n")
        with pytest.raises(ValueError, match="row 2: expected 3 cells"):
            ingest_csv(str(path))

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty CSV"):
            ingest_csv(str(empty))
        header_only = tmp_path / "head.csv"
        header_only.write_text("t,u_0,y_0\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest_csv(str(header_only))



class TestSweep:
    def test_single_spec_matches_run_experiment(self, tiny_report):
        (only,) = H.sweep([tiny_spec()])
        assert H.report_to_json(only) == H.report_to_json(tiny_report)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers, monkeypatch):
        calls = []
        monkeypatch.setattr(H, "_sample_runs", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            H.sweep([tiny_spec()], workers=workers)
        assert calls == []

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            H.sweep([])

    def test_all_specs_validated_before_any_run(self):
        with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
            H.sweep([tiny_spec(), tiny_spec(algo="nope")])

    @pytest.mark.parametrize("bad, fragment", [
        (dict(generator=H.GeneratorConfig(basis_cond=0.5)), "generator.basis_cond"),
        (dict(master_seed=-1), "master_seed"),
        (dict(algo="spectral", filter_count=200), "filter_count"),
        (dict(n_runs=10**9), "n_runs 1000000000 and horizon 120"),
        (dict(horizon=10**12), "n_runs 3 and horizon 1000000000000"),
    ])
    def test_out_of_range_spec_stops_the_sweep_before_any_data(self, bad, fragment, monkeypatch):
        calls = []
        monkeypatch.setattr(H, "_sample_runs", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=fragment):
            H.sweep([tiny_spec(), tiny_spec(**bad)])
        assert calls == []

    def test_runtime_failure_is_isolated(self, tmp_path):
        bad = H.ExperimentSpec(
            csv_path=str(tmp_path / "missing.csv"), n_runs=1, window=5, master_seed=0
        )
        good = tiny_spec(n_runs=1)
        results = H.sweep([good, bad])
        assert isinstance(results[0], H.MetricsReport)
        assert isinstance(results[1], H.SweepFailure)
        assert results[1].config_hash == H.spec_hash(bad)
        assert results[1].error

    def test_short_csv_fails_only_its_spectral_spec(self, tmp_path):
        # 4 rows leave a degree-3 bank 4 - 3 - 1 = 0 steps; the CSV's horizon
        # is known once it is read, so the run names it and the other spec runs
        path = tmp_path / "short.csv"
        path.write_text("t,u_0,y_0\n1,0.5,2.0\n2,0.25,-4.0\n3,1.5,8.0\n4,-1.0,0.5\n")
        bad = H.ExperimentSpec(algo="spectral", csv_path=str(path), window=2, degree=3,
                               filter_count=0, master_seed=0)
        good = tiny_spec(n_runs=1)
        results = H.sweep([good, bad])
        assert isinstance(results[0], H.MetricsReport)
        assert isinstance(results[1], H.SweepFailure)
        assert results[1].error.endswith("horizon 4 and degree 3 give 0")

    @FORKS
    def test_a_lost_worker_fails_its_group_and_the_sweep_returns(self, monkeypatch):
        # the child that steps the horizon-121 group's cells dies; only that
        # group fails, and the other two report as they would alone
        group_predictions = H._group_predictions

        def dying(specs, data):
            if specs[0].horizon == 121:
                os._exit(1)
            return group_predictions(specs, data)

        specs = [tiny_spec(n_runs=1, horizon=120 + s) for s in range(3)]
        alone = [H.report_to_json(H.run_experiment(specs[i])) for i in (0, 2)]
        monkeypatch.setattr(H, "_group_predictions", dying)
        first, lost, last = H.sweep(specs, workers=2)
        assert isinstance(lost, H.SweepFailure)
        assert lost.config_hash == H.spec_hash(specs[1])
        assert "terminated abruptly" in lost.error
        assert lost.error.endswith("(exit status 1)")
        assert [H.report_to_json(first), H.report_to_json(last)] == alone

    def test_pool_records_failures_like_the_serial_path(self, tmp_path):
        bad = H.ExperimentSpec(csv_path=str(tmp_path / "missing.csv"), window=5, master_seed=0)
        good = tiny_spec(n_runs=1)
        serial = H.sweep([good, bad], workers=1)
        pooled = H.sweep([good, bad], workers=2)
        assert H.report_to_json(pooled[0]) == H.report_to_json(serial[0])
        assert isinstance(pooled[1], H.SweepFailure)
        assert (pooled[1].config_hash, pooled[1].error) == (H.spec_hash(bad), serial[1].error)
        assert "missing.csv" in pooled[1].error

    @FORKS
    @pytest.mark.parametrize("workers, n_specs, cap",
                             [(10000, 3, 3), (2, 3, 2), (3, 4, 3), (1, 3, 1), (2, 1, 1)])
    def test_pool_starts_no_more_workers_than_specs(self, workers, n_specs, cap, monkeypatch):
        # each group runs once, in this process or in a child forked for
        # it, and never more than `cap` processes step groups at once:
        # this one and at most cap - 1 children
        fork, waitpid, run_group = os.fork, os.waitpid, H._run_group
        started, alive, most, here = [], set(), [0], []

        def counting_fork():
            pid = fork()
            if pid:
                started.append(pid)
                alive.add(pid)
                most.append(len(alive))
            return pid

        def counting_waitpid(pid, options):
            reaped = waitpid(pid, options)
            alive.discard(reaped[0])
            return reaped

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "waitpid", counting_waitpid)
        # a child's calls append to its own copy of `here`
        monkeypatch.setattr(H, "_run_group", lambda *task: here.append(1) or run_group(*task))
        # distinct horizons make each spec its own group
        specs = [tiny_spec(n_runs=1, master_seed=s, horizon=120 + s) for s in range(n_specs)]
        pooled = H.sweep(specs, workers=workers)
        assert (len(here) + len(started), max(most) + 1, alive) == (n_specs, cap, set())
        assert [H.report_to_json(r) for r in pooled] == [
            H.report_to_json(H.run_experiment(spec)) for spec in specs
        ]

    @FORKS
    def test_an_outcome_larger_than_a_pipe_comes_back_intact(self):
        # 900 runs' errors and spectra pickle to more than a pipe's 64 KiB,
        # so the child that runs the second group blocks on its write until
        # this process drains the pipe
        specs = [tiny_spec(n_runs=1),
                 tiny_spec(n_runs=900, horizon=40, window=10, lr_grid=(0.01,))]
        serial = H.sweep(specs, workers=1)
        assert len(pickle.dumps(serial[1])) > 64 * 1024
        assert [H.report_to_json(r) for r in H.sweep(specs, workers=2)] == [
            H.report_to_json(r) for r in serial
        ]

    @FORKS
    @pytest.mark.parametrize("local", [True, False], ids=["local-class", "needs-two"])
    def test_an_exception_that_cannot_be_pickled_fails_only_its_group(self, local, monkeypatch):
        class Local(Exception):  # pickle cannot find a local class by name
            pass

        def failing(specs, data):  # in the child that runs the horizon-121 group
            if specs[0].horizon == 121:
                raise Local("no data") if local else NeedsTwo("no", "data")
            return group_predictions(specs, data)

        group_predictions = H._group_predictions
        specs = [tiny_spec(n_runs=1, horizon=120 + s) for s in range(2)]
        alone = H.report_to_json(H.run_experiment(specs[0]))
        monkeypatch.setattr(H, "_group_predictions", failing)
        ok, failed = H.sweep(specs, workers=2)
        assert H.report_to_json(ok) == alone
        assert failed == H.sweep(specs, workers=1)[1]
        assert failed == H.SweepFailure(H.spec_hash(specs[1]), "no data" if local else "no and data")

    @pytest.mark.parametrize("error, text", [
        (ValueError("bad rows"), "bad rows"),
        (MemoryError(), "MemoryError"),
    ], ids=["value-error", "no-message"])
    def test_a_failure_reads_the_same_at_every_worker_count(self, error, text, monkeypatch):
        # a failure is its message, or its type's name when it has none,
        # whether it is raised here or in a child; `run_experiment` raises
        # the exception itself
        def failing(specs, data):
            if specs[0].horizon == 121:
                raise error
            return group_predictions(specs, data)

        group_predictions = H._group_predictions
        specs = [tiny_spec(n_runs=1, horizon=120 + s) for s in range(2)]
        alone = H.report_to_json(H.run_experiment(specs[0]))
        monkeypatch.setattr(H, "_group_predictions", failing)
        want = H.SweepFailure(H.spec_hash(specs[1]), text)
        for workers in (1, 2):
            ok, failed = H.sweep(specs, workers=workers)
            assert (H.report_to_json(ok), failed) == (alone, want)
        with pytest.raises(type(error)) as raised:
            H.run_experiment(specs[1])
        assert raised.value is error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_ogd_call_fails_its_group_past_the_load_failures(self, workers, monkeypatch):
        # the horizon-121 group holds a spec whose data does not load and
        # one whose data does; its `ogd` call fails, so the first keeps its
        # load failure, the second reads the call's, and the other group reports
        def failing_load(g, horizon, seeds):
            if seeds == H.derive_seeds(8, 1):
                raise ValueError("no data")
            return sample_runs(g, horizon, seeds)

        def failing_call(specs, data):
            if specs[0].horizon == 121:
                raise RuntimeError("bank broke")
            return group_predictions(specs, data)

        sample_runs, group_predictions = H._sample_runs, H._group_predictions
        ok, unloaded, loaded = specs = [tiny_spec(n_runs=1, horizon=120),
                                        tiny_spec(n_runs=1, horizon=121, master_seed=8),
                                        tiny_spec(n_runs=1, horizon=121)]
        alone = H.report_to_json(H.run_experiment(ok))
        monkeypatch.setattr(H, "_sample_runs", failing_load)
        monkeypatch.setattr(H, "_group_predictions", failing_call)
        report, *failed = H.sweep(specs, workers=workers)
        assert H.report_to_json(report) == alone
        assert failed == [H.SweepFailure(H.spec_hash(unloaded), "no data"),
                          H.SweepFailure(H.spec_hash(loaded), "bank broke")]

    @FORKS
    @pytest.mark.parametrize("death, how", [
        (lambda: None, None),
        (lambda: os._exit(3), "(exit status 3)"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"(killed by signal {signal.SIGKILL})"),
    ], ids=["lives", "exits", "is-killed"])
    def test_no_child_outlives_the_sweep(self, death, how, monkeypatch):
        def dying(specs, data):  # in the child that runs the horizon-121 group
            if specs[0].horizon == 121:
                death()
            return group_predictions(specs, data)

        group_predictions = H._group_predictions
        monkeypatch.setattr(H, "_group_predictions", dying)
        specs = [tiny_spec(n_runs=1, horizon=120 + s) for s in range(3)]
        results = H.sweep(specs, workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        kinds = [type(r) for r in results]
        if how is None:
            assert kinds == [H.MetricsReport] * 3
        else:
            assert kinds == [H.MetricsReport, H.SweepFailure, H.MetricsReport]
            assert results[1].error.endswith(f"terminated abruptly {how}")

    @FORKS
    def test_an_error_in_this_process_stops_and_reaps_every_child(self, monkeypatch):
        # the first child to finish makes reading its status fail; the
        # children still running are killed and reaped, and the error raises
        def broken(status):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "waitstatus_to_exitcode", broken)
        specs = [tiny_spec(n_runs=1, horizon=120 + s) for s in range(3)]
        with pytest.raises(KeyboardInterrupt):
            H.sweep(specs, workers=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @FORKS
    def test_an_interrupt_in_the_callers_group_reaps_every_child(self, monkeypatch):
        # the first group runs here, after the children for the other two
        # are forked; an interrupt raised in it kills and reaps them
        fork, forks, group_predictions = os.fork, [], H._group_predictions

        def interrupted(specs, data):
            if specs[0].horizon == 120:
                raise KeyboardInterrupt
            return group_predictions(specs, data)

        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        monkeypatch.setattr(H, "_group_predictions", interrupted)
        specs = [tiny_spec(n_runs=1, horizon=120 + s) for s in range(3)]
        with pytest.raises(KeyboardInterrupt):
            H.sweep(specs, workers=3)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @FORKS
    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_first_group_runs_in_this_process(self, workers, tmp_path, monkeypatch):
        # each call records its group and process: the first group runs in
        # this process and the second in a child; at two workers the third
        # runs wherever a slot is free first
        log, run_group = tmp_path / "pids", H._run_group

        def logged(specs, data):
            with open(log, "a") as fh:
                fh.write(f"{specs[0].horizon} {os.getpid()}\n")
            return run_group(specs, data)

        monkeypatch.setattr(H, "_run_group", logged)
        H.sweep([tiny_spec(n_runs=1, horizon=120 + s) for s in range(3)], workers=workers)
        pids = dict(line.split() for line in log.read_text().splitlines())
        assert sorted(pids) == ["120", "121", "122"]
        assert pids["120"] == str(os.getpid())
        assert pids["121"] != pids["120"]
        if workers == 3:  # every group at once: the other two in children
            assert len(set(pids.values())) == 3

    @pytest.mark.parametrize("error, text", [
        (ValueError("bad rows"), "bad rows"),
        (MemoryError(), "MemoryError"),
    ], ids=["value-error", "no-message"])
    def test_a_failure_in_the_first_group_reads_the_same_at_every_worker_count(
            self, error, text, monkeypatch):
        # the first group runs in this process at every worker count, the
        # second in a child at two workers; its failure reads as it does there
        def failing(specs, data):
            if specs[0].horizon == 120:
                raise error
            return group_predictions(specs, data)

        group_predictions = H._group_predictions
        specs = [tiny_spec(n_runs=1, horizon=120 + s) for s in range(2)]
        alone = H.report_to_json(H.run_experiment(specs[1]))
        monkeypatch.setattr(H, "_group_predictions", failing)
        want = H.SweepFailure(H.spec_hash(specs[0]), text)
        for workers in (1, 2):
            failed, ok = H.sweep(specs, workers=workers)
            assert (failed, H.report_to_json(ok)) == (want, alone)

    @pytest.mark.parametrize("n_groups", [1, 2, 3, 4])
    def test_sweep_json_is_byte_identical_at_every_worker_count(self, n_groups, tmp_path):
        # `usp sweep`'s JSON for 1 to 4 groups of two specs each, written at
        # 1, 2 and 3 workers
        specs = [dict(generator=dict(d_h=6, tau=0.05), n_runs=2, horizon=120 + s, window=30,
                      degree=3, master_seed=7, variant=v)
                 for s in range(n_groups) for v in ("chebyshev", "none")]
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(specs))
        written = []
        for workers in (1, 2, 3):
            out = tmp_path / f"out{workers}.json"
            assert cli_main(["sweep", "--config", str(config), "--workers", str(workers),
                             "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert len(json.loads(written[0])) == 2 * n_groups
        assert written[1:] == written[:1] * 2

    @FORKS
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors")
    def test_a_failed_fork_closes_its_pipe_and_reaps_the_children(self, monkeypatch):
        fork, forks = os.fork, []

        def second_fails():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        specs = [tiny_spec(n_runs=1, horizon=120 + s) for s in range(3)]
        open_fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            H.sweep(specs, workers=3)
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_the_groups_run_in_this_process(self, monkeypatch):
        specs = [tiny_spec(n_runs=1, horizon=120 + s) for s in range(3)]
        serial = [H.report_to_json(r) for r in H.sweep(specs, workers=1)]
        run_group, calls = H._run_group, []
        monkeypatch.setattr(H, "_run_group", lambda *task: calls.append(task) or run_group(*task))
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.delattr(H.select, "poll", raising=False)  # neither is on Windows
        assert [H.report_to_json(r) for r in H.sweep(specs, workers=2)] == serial
        assert len(calls) == 3

    def test_pool_records_a_diverging_spec_like_the_serial_path(self):
        # every grid point of `bad` diverges, so it fails with a plain
        # ValueError, the same from a worker as in the parent, and its
        # sibling's report is unchanged
        gen = H.GeneratorConfig(d_h=6, tau=0.05, d_in=3, d_out=3)
        bad = tiny_spec(generator=gen, variant="learned", lr_grid_coeffs=(1e308,))
        good = tiny_spec(n_runs=1)
        serial = H.sweep([bad, good], workers=1)
        pooled = H.sweep([bad, good], workers=2)
        assert isinstance(pooled[0], H.SweepFailure)
        assert pooled[0] == serial[0]
        assert serial[0].config_hash == H.spec_hash(bad)
        assert serial[0].error.startswith("non-finite prediction at step ")
        assert H.report_to_json(pooled[1]) == H.report_to_json(serial[1])

    def test_parallel_matches_serial(self):
        specs = [tiny_spec(n_runs=1), tiny_spec(n_runs=1, variant="none")]
        serial = H.sweep(specs, workers=1)
        parallel = H.sweep(specs, workers=2)
        assert [H.report_to_json(r) for r in serial] == [
            H.report_to_json(r) for r in parallel
        ]

    def test_table_layout(self):
        specs = [
            tiny_spec(n_runs=1, variant=v, degree=d)
            for v in ("chebyshev", "none")
            for d in (2, 3)
        ]
        table = H.sweep_table_csv(H.sweep(specs))
        lines = table.strip().split("\n")
        assert lines[0] == "setting,chebyshev-2,chebyshev-3,none-2,none-3"
        assert len(lines) == 2
        assert lines[1].startswith("regression tau=0.05,")
        assert lines[1].count("±") == 4

    def test_table_keeps_reports_that_share_a_cell(self):
        # the two specs differ only in generator.d_in, which the table does
        # not show: the later report goes on its own row, tagged by its hash
        wide = tiny_spec(n_runs=1, generator=dataclasses.replace(TINY_GEN, d_in=2))
        first, second = H.sweep([tiny_spec(n_runs=1), wide])
        lines = H.sweep_table_csv([first, second]).strip().split("\n")
        assert lines == [
            "setting,chebyshev-3",
            f"regression tau=0.05,{first.mean:.4g}±{first.std:.4g}",
            f"regression tau=0.05 {second.config_hash},{second.mean:.4g}±{second.std:.4g}",
        ]
        assert first.mean != second.mean

    def test_table_skips_failures(self, tmp_path):
        bad = H.ExperimentSpec(
            csv_path=str(tmp_path / "missing.csv"), n_runs=1, window=5, master_seed=0
        )
        table = H.sweep_table_csv(H.sweep([tiny_spec(n_runs=1), bad]))
        assert "±" in table and "missing" not in table


WIDE_GEN = dataclasses.replace(TINY_GEN, d_in=2, d_out=3)


def stacked_specs(kind="lds"):
    """Four data keys: three share (kind, d_h 6, T 120) across two widths
    and two seeds, and one has d_h 5; the first key has two specs."""
    gens = [dataclasses.replace(g, kind=kind) for g in (TINY_GEN, WIDE_GEN)]
    return [tiny_spec(n_runs=2, generator=gens[0]), tiny_spec(n_runs=2, generator=gens[1]),
            tiny_spec(n_runs=2, generator=gens[0], master_seed=8),
            tiny_spec(n_runs=2, generator=gens[0], variant="none"),
            tiny_spec(n_runs=1, generator=dataclasses.replace(gens[0], d_h=5))]


def count_simulations(monkeypatch, kind="lds"):
    """The runs of each stacked simulation call, in call order."""
    name = "simulate_lds_runs" if kind == "lds" else "simulate_nonlinear_runs"
    simulate, calls = getattr(H.dynsys, name), []

    def counted(systems, inputs, seeds):
        calls.append(len(systems))
        return simulate(systems, inputs, seeds)

    monkeypatch.setattr(H.dynsys, name, counted)
    return calls


class TestStackedLoads:
    @pytest.mark.parametrize("kind", ["lds", "nonlinear"])
    def test_one_simulation_per_stack_and_reports_as_each_spec_alone(self, kind, monkeypatch):
        specs = stacked_specs(kind)
        want = [H.report_to_json(H.run_experiment(spec)) for spec in specs]
        calls = count_simulations(monkeypatch, kind)
        for workers in (1, 2):
            calls.clear()
            assert [H.report_to_json(r) for r in H.sweep(specs, workers=workers)] == want
            assert calls == [6, 1]  # d_h 6: three keys of 2 runs; d_h 5: one run

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_key_that_fails_to_sample_fails_only_its_specs(self, workers, monkeypatch):
        # the wide key's sampling raises: its spec fails, and the keys of
        # its stack and the other stack report as they would alone
        specs = stacked_specs()
        want = [H.report_to_json(H.run_experiment(spec)) for spec in specs]
        sample_runs = H._sample_runs

        def failing(g, horizon, seeds):
            if g.d_in == 2:
                raise ValueError("no wide data")
            return sample_runs(g, horizon, seeds)

        monkeypatch.setattr(H, "_sample_runs", failing)
        calls = count_simulations(monkeypatch)
        got = H.sweep(specs, workers=workers)
        assert got[1] == H.SweepFailure(H.spec_hash(specs[1]), "no wide data")
        assert [H.report_to_json(got[i]) for i in (0, 2, 3, 4)] == [want[i] for i in (0, 2, 3, 4)]
        assert calls == [4, 1]

    @pytest.mark.parametrize("action", ["default", "error", "ignore"])
    def test_non_finite_data_fails_its_key_alone_naming_its_source(self, action):
        # at noise_sigma 1e308 the noise of run 0 overflows: its key fails,
        # naming the generator, at any warning filter, and the key that
        # shares its stacked simulation reports as it does alone
        bad = tiny_spec(generator=dataclasses.replace(TINY_GEN, noise_sigma=1e308))
        good = tiny_spec()
        alone = H.report_to_json(H.run_experiment(good))
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            failed, ok = H.sweep([bad, good])
        assert failed == H.SweepFailure(H.spec_hash(bad), "generator.noise_sigma 1e+308 and "
                                        "basis_cond 10.0: the outputs of run 0 are not finite")
        assert H.report_to_json(ok) == alone

    def test_a_stack_over_max_run_bytes_is_simulated_in_batches(self, monkeypatch):
        # at d_h 6 the systems' estimate is 8 * 6 * (6 * 6 + 2 * sum of
        # (6 + d_in + d_out) over the runs) bytes: a bound of the first two
        # keys' runs, 2 at widths 1 + 1 and 2 at 2 + 3, splits the stack's
        # 2 + 2 + 2 runs after its second key, and every trajectory is the
        # one a single batch gives
        keys = list(dict.fromkeys(map(H._data_key, stacked_specs())))
        whole = H._load(keys)
        calls = count_simulations(monkeypatch)
        monkeypatch.setattr(H, "MAX_RUN_BYTES", 8 * 6 * (6 * 6 + 2 * (2 * 8 + 2 * 11)))
        batched = H._load(keys)
        assert calls == [4, 2, 1]
        for key in keys:
            (runs, systems), (want_runs, want_systems) = batched[key], whole[key]
            assert [s.A.tobytes() for s in systems] == [s.A.tobytes() for s in want_systems]
            for traj, want in zip(runs, want_runs, strict=True):
                assert np.array_equal(traj.inputs, want.inputs)
                assert np.array_equal(traj.outputs, want.outputs)


def lockstep_specs(tmp_path):
    """Specs that exercise every way a grouped sweep can differ from one
    `run_experiment` per spec: padded taps and lag degree, a learned
    3 x 3 grid, a single cell, d=3, a CSV, spectral, the oracle comparator,
    a spec whose every grid point diverges next to good ones in its group,
    a CSV that does not exist and a window longer than a CSV."""
    gen = H.GeneratorConfig(d_h=6, tau=0.05)
    system = sample_system(d_h=5, d_in=1, d_out=1, tau_thresh=0.05,
                           radius_lo=0.5, radius_hi=0.9, seed=3)
    csv_path = str(tmp_path / "traj.csv")
    write_trajectory_csv(simulate_lds(system, gaussian_inputs(150, 1, seed=4)), csv_path)
    base = dict(generator=gen, n_runs=3, horizon=150, window=40, master_seed=5)
    return [
        H.ExperimentSpec(variant="none", degree=5, **base),
        H.ExperimentSpec(variant="chebyshev", degree=5, **base),
        H.ExperimentSpec(variant="chebyshev", degree=10, **base),
        H.ExperimentSpec(variant="learned", degree=3, lr_grid=(1e-3, 1e-2, 1e-1), **base),
        H.ExperimentSpec(degree=5, **{**base, "n_runs": 1, "lr_grid": (0.1,)}),
        H.ExperimentSpec(**{**base, "generator": dataclasses.replace(gen, d_in=3, d_out=3)}),
        H.ExperimentSpec(csv_path=csv_path, horizon=150, window=40, degree=4),
        H.ExperimentSpec(algo="spectral", degree=3, filter_count=6, **base),
        H.ExperimentSpec(oracle_comparator=True, degree=3, **base),
        H.ExperimentSpec(variant="learned", degree=3, lr_grid_coeffs=(1e308,), **base),
        H.ExperimentSpec(csv_path=str(tmp_path / "missing.csv"), window=40, degree=4),
        H.ExperimentSpec(csv_path=csv_path, horizon=500, window=300, degree=4),
    ]


class TestLockstepSweep:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_grouped_sweep_matches_each_run_experiment(self, tmp_path, workers):
        specs = lockstep_specs(tmp_path)
        want = []
        for spec in specs:
            try:
                want.append(H.report_to_json(H.run_experiment(spec)))
            except (ValueError, OSError) as exc:
                want.append(H.SweepFailure(H.spec_hash(spec), str(exc)))
        got = [r if isinstance(r, H.SweepFailure) else H.report_to_json(r)
               for r in H.sweep(specs, workers=workers)]
        assert got == want
        failed = [i for i, r in enumerate(got) if isinstance(r, H.SweepFailure)]
        assert failed == [9, 10, 11]
        assert got[9].error.startswith("non-finite prediction at step ")
        assert "missing.csv" in got[10].error
        assert got[11].error == "window 300 exceeds data horizon 150"

    def test_one_load_per_data_key_and_one_ogd_call_per_group(self, tmp_path, monkeypatch):
        loads, calls = [], []
        sample_runs, ogd = H._sample_runs, H.learners.ogd

        def counted_sample_runs(g, horizon, seeds):
            loads.append((g, horizon, len(seeds)))
            return sample_runs(g, horizon, seeds)

        def counted_ogd(blocks, targets):
            calls.append(len(targets.index))  # one stream per trajectory, as Rows
            return ogd(blocks, targets)

        monkeypatch.setattr(H, "_sample_runs", counted_sample_runs)
        monkeypatch.setattr(H.learners, "ogd", counted_ogd)
        specs = lockstep_specs(tmp_path)
        # the spectral spec is another group on the first three specs' data key
        shared, d3, spectral = specs[:3], specs[5], specs[7]
        reports = H.sweep([*shared, d3, spectral], workers=1)
        assert all(isinstance(r, H.MetricsReport) for r in reports)
        assert sorted(loads, key=lambda load: load[0].d_in) == [
            (shared[0].generator, 150, 9), (d3.generator, 150, 9)]
        assert calls == [27, 9, 9]  # (spec, rate, run) cells of each group


def test_one_window_stream_per_trajectory(monkeypatch):
    # the desk sweep's shape at small T: input taps 5, 5, 10 and 3 and lag
    # coefficients 0, 5, 10 and 3 over one data key step in one call whose
    # input and lag blocks each store one stream per run
    calls, ogd = [], H.learners.ogd

    def capturing_ogd(blocks, targets):
        calls.append(blocks)
        return ogd(blocks, targets)

    monkeypatch.setattr(H.learners, "ogd", capturing_ogd)
    base = dict(generator=TINY_GEN, n_runs=4, horizon=120, window=30, master_seed=2)
    specs = [H.ExperimentSpec(variant=variant, degree=degree, **base)
             for variant, degree in (("none", 5), ("chebyshev", 5), ("chebyshev", 10),
                                     ("learned", 3))]
    reports = H.sweep(specs)
    (blocks,) = calls
    (window, _, _, _), (lags, _, _, _) = blocks
    assert len(window.streams) == len(lags.streams) == 4
    assert window.streams.shape[2] == lags.streams.shape[2] == 10
    monkeypatch.undo()
    for spec, report in zip(specs, reports):
        assert H.report_to_json(report) == H.report_to_json(H.run_experiment(spec))


def test_report_reduces_the_predictions_in_place():
    # a learned d=3 spec, 3 x 3 rates x 4 runs = 36 cells at T=2000: the
    # errors |P - y| summed over outputs overwrite the predictions, so the
    # report holds a (cells, T) error table, not two prediction-sized copies
    g = H.GeneratorConfig(d_h=8, d_in=3, d_out=3)
    spec = H.ExperimentSpec(variant="learned", degree=3, generator=g, n_runs=4, horizon=2000)
    key = H._data_key(spec)
    data = H._load([key])
    (preds,) = H._group_predictions([spec], data)
    assert preds.shape == (36, 2000, 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = H._report(spec, preds, data[key])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= preds.nbytes
    assert H.report_to_json(report) == H.report_to_json(H.run_experiment(spec))


class TestVerify:
    def test_single_suite_filter(self):
        results = verify("poly")
        assert [(r.suite, r.name) for r in results] == [
            ("poly", "chebyshev_sector_decay"),
            ("poly", "coefficient_growth_exact"),
        ]
        assert all(r.passed for r in results)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite 'nope'") as exc:
            verify("nope")
        assert str(exc.value).endswith("; options: all, " + ", ".join(SUITES))
        assert list(SUITES) == ["poly", "spectral", "learners", "precond", "harness"]
