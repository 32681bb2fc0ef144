"""Command-line interface: subcommands, file formats, exit codes."""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import seqprecond
from seqprecond import dynsys, harness, invariants
from seqprecond.cli import _build_parser, main
from seqprecond.dynsys import ingest_csv
from seqprecond.invariants import VerifyResult
from seqprecond.poly import chebyshev_monic
from seqprecond.precond import convolve


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert (
        run_cli(
            "gen-data", "--T", "50", "--dh", "5", "--tau", "0.05",
            "--seed", "3", "--out", str(path),
        )
        == 0
    )
    return path


class TestPoly:
    def test_human_output_shows_l1(self, capsys):
        assert run_cli("poly", "--family", "chebyshev", "--degree", "3") == 0
        out = capsys.readouterr().out
        assert "l1: 1.75" in out

    def test_json_payload(self, capsys):
        assert run_cli("poly", "--family", "legendre", "--degree", "2", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 2
        np.testing.assert_allclose(payload["coeffs"], [1.0, 0.0, -1 / 3])
        assert payload["l1"] == pytest.approx(4 / 3)

    def test_differencing_family(self, capsys):
        assert run_cli("poly", "--family", "differencing", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"] == [1.0, -1.0]

    def test_bad_family_is_usage_error(self, capsys):
        assert run_cli("poly", "--family", "unknown") == 1
        assert "invalid choice" in capsys.readouterr().err


class TestGenData:
    def test_writes_parseable_trajectory(self, data_csv):
        traj = ingest_csv(str(data_csv))
        assert traj.horizon == 50
        assert traj.inputs.shape == (50, 1)
        assert traj.outputs.shape == (50, 1)

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            run_cli("gen-data", "--T", "30", "--dh", "4", "--seed", "9", "--out", str(p))
        assert a.read_text() == b.read_text()

    def test_nonlinear_kind(self, tmp_path):
        path = tmp_path / "nl.csv"
        assert (
            run_cli(
                "gen-data", "--kind", "nonlinear", "--T", "30", "--dh", "4",
                "--seed", "1", "--out", str(path),
            )
            == 0
        )
        assert ingest_csv(str(path)).horizon == 30

    def test_multichannel_dimensions(self, tmp_path):
        path = tmp_path / "wide.csv"
        run_cli(
            "gen-data", "--T", "20", "--dh", "4", "--din", "2", "--dout", "3",
            "--seed", "0", "--out", str(path),
        )
        traj = ingest_csv(str(path))
        assert traj.inputs.shape == (20, 2)
        assert traj.outputs.shape == (20, 3)

    def test_missing_out_is_usage_error(self, capsys):
        assert run_cli("gen-data", "--T", "10") == 1
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["lds", "nonlinear"])
    @pytest.mark.parametrize("flag, value", [("--dh", "1000000"), ("--T", "1000000000")])
    def test_oversized_data_is_refused_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                       kind, flag, value):
        # a 10^6-wide system's transition matrix alone is 8 TB, and 10^9
        # steps of inputs 8 GB: `usp run` refuses both, and so does gen-data
        def sampled(*args, **kwargs):
            raise AssertionError("sampled")

        for name in ("sample_system", "sample_nonlinear_system", "gaussian_inputs"):
            monkeypatch.setattr(dynsys, name, sampled)
        path = tmp_path / "big.csv"
        assert run_cli("gen-data", "--kind", kind, flag, value, "--out", str(path)) == 1
        assert flag in capsys.readouterr().err
        assert not path.exists()

    def test_a_system_too_wide_for_its_inputs_is_refused_before_sampling(self, tmp_path,
                                                                         monkeypatch, capsys):
        # one step of 5e6 inputs fits, but the system's B is 2 GB
        def sampled(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(dynsys, "sample_system", sampled)
        path = tmp_path / "wide.csv"
        assert run_cli("gen-data", "--din", "5000000", "--T", "1", "--out", str(path)) == 1
        err = capsys.readouterr().err
        assert "--din 5000000" in err and "the system would take about 4000 MB" in err
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["lds", "nonlinear"])
    def test_writes_run_zero_of_the_generator_spec(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "gen.csv"
        assert (
            run_cli(
                "gen-data", "--kind", kind, "--T", "60", "--dh", "5", "--din", "2",
                "--dout", "2", "--tau", "0.05", "--L", "0.8", "--U", "0.99",
                "--sigma", "0.3", "--basis-cond", "4", "--seed", "4", "--out", str(path),
            )
            == 0
        )
        written = ingest_csv(str(path))

        simulate = "simulate_lds_runs" if kind == "lds" else "simulate_nonlinear_runs"
        real, simulated = getattr(dynsys, simulate), []

        def spy(*args, **kwargs):
            simulated.append(real(*args, **kwargs))
            return simulated[-1]

        monkeypatch.setattr(dynsys, simulate, spy)
        g = harness.GeneratorConfig(
            kind=kind, d_h=5, d_in=2, d_out=2, tau=0.05, radius_lo=0.8,
            radius_hi=0.99, noise_sigma=0.3, basis_cond=4.0,
        )
        harness.run_experiment(harness.ExperimentSpec(
            generator=g, n_runs=2, horizon=60, window=10, master_seed=4, lr_grid=(1e-2,),
        ))
        assert [len(runs) for runs in simulated] == [2]  # one call for both runs
        assert np.array_equal(written.inputs, simulated[0][0].inputs)
        assert np.array_equal(written.outputs, simulated[0][0].outputs)

    def test_defaults_are_the_default_spec(self, tmp_path, monkeypatch):
        # with no flag but --out, run 0 of the default generator at the
        # default horizon and master seed
        path = tmp_path / "default.csv"
        assert run_cli("gen-data", "--out", str(path)) == 0
        written = ingest_csv(str(path))

        real, simulated = dynsys.simulate_lds_runs, []

        def spy(*args, **kwargs):
            simulated.append(real(*args, **kwargs))
            return simulated[-1]

        monkeypatch.setattr(dynsys, "simulate_lds_runs", spy)
        harness.run_experiment(harness.ExperimentSpec(n_runs=2, lr_grid=(1e-2,)))
        assert [len(runs) for runs in simulated] == [2]
        assert np.array_equal(written.inputs, simulated[0][0].inputs)
        assert np.array_equal(written.outputs, simulated[0][0].outputs)


class TestPrecondCommand:
    def test_poly_json_round_trips_into_precond(self, tmp_path, data_csv):
        coeffs_path = tmp_path / "cheb3.json"
        out_path = tmp_path / "pre.csv"
        run_cli("poly", "--family", "chebyshev", "--degree", "3", "--out", str(coeffs_path))
        assert (
            run_cli(
                "precond", "--coeffs", str(coeffs_path),
                "--in", str(data_csv), "--out", str(out_path),
            )
            == 0
        )
        raw = ingest_csv(str(data_csv))
        pre = ingest_csv(str(out_path))
        np.testing.assert_array_equal(pre.inputs, raw.inputs)
        np.testing.assert_array_equal(
            pre.outputs, convolve(raw.outputs, chebyshev_monic(3))
        )

    def test_bare_list_coefficient_file(self, tmp_path, data_csv):
        coeffs_path = tmp_path / "c.json"
        coeffs_path.write_text("[1.0, -2.0, 1.0]")
        out_path = tmp_path / "pre.csv"
        assert (
            run_cli(
                "precond", "--coeffs", str(coeffs_path),
                "--in", str(data_csv), "--out", str(out_path),
            )
            == 0
        )

    def test_object_without_coeffs_field_rejected(self, tmp_path, data_csv, capsys):
        coeffs_path = tmp_path / "c.json"
        coeffs_path.write_text('{"degree": 2}')
        assert (
            run_cli(
                "precond", "--coeffs", str(coeffs_path),
                "--in", str(data_csv), "--out", str(tmp_path / "pre.csv"),
            )
            == 1
        )
        assert "'coeffs'" in capsys.readouterr().err

    def test_non_monic_file_rejected(self, tmp_path, data_csv, capsys):
        coeffs_path = tmp_path / "c.json"
        coeffs_path.write_text("[0.5, 1.0]")
        assert (
            run_cli(
                "precond", "--coeffs", str(coeffs_path),
                "--in", str(data_csv), "--out", str(tmp_path / "pre.csv"),
            )
            == 1
        )
        assert "error:" in capsys.readouterr().err


class TestFilters:
    def test_bank_json_and_eigendecay_report(self, tmp_path):
        bank_path = tmp_path / "bank.json"
        report_path = tmp_path / "eig.csv"
        assert (
            run_cli(
                "filters", "--T", "40", "--beta", "0.1", "--k", "6",
                "--out", str(bank_path), "--report", str(report_path),
            )
            == 0
        )
        bank = json.loads(bank_path.read_text())
        assert bank["k"] == 6 and bank["horizon"] == 40
        assert len(bank["filters"]) == 6
        assert len(bank["filters"][0]) == 40
        assert bank["eigenvalues"] == sorted(bank["eigenvalues"], reverse=True)
        lines = report_path.read_text().strip().split("\n")
        assert lines[0] == "index,sigma"
        assert len(lines) == 41
        assert float(lines[1].split(",")[1]) == pytest.approx(bank["eigenvalues"][0])

    def test_requires_a_destination(self, capsys):
        assert run_cli("filters", "--T", "20") == 1
        assert "--out and/or --report" in capsys.readouterr().err

    def test_bad_horizon_is_named_before_the_filter_count(self, tmp_path, capsys):
        assert run_cli("filters", "--T", "0", "--out", str(tmp_path / "bank.json")) == 1
        assert capsys.readouterr().err == "error: horizon must be >= 1\n"
        assert not (tmp_path / "bank.json").exists()


@pytest.fixture()
def short_csv(tmp_path):
    """A 30-row trajectory: a spectral bank of degree 5 holds at most 24 filters."""
    path = tmp_path / "short.csv"
    assert run_cli("gen-data", "--T", "30", "--dh", "5", "--tau", "0.05", "--out", str(path)) == 0
    return path


FILTER_COUNT_ERROR = ("filter_count must lie in [0, horizon - degree - 1] = [0, 24] "
                      "for coefficients of degree 5, got 28")


# configs of the wrong shape or type, and a word their error line must name
BAD_CONFIGS = [
    pytest.param({"generator": {"bogus": 1}}, "generator.bogus", id="generator-key"),
    pytest.param({"lr_grid": 0.1}, "float", id="lr_grid-number"),
    pytest.param({"n_runs": "5"}, "str", id="n_runs-string"),
    pytest.param({"degree": 2.5}, "degree", id="degree-float"),
    pytest.param({"generator": 5}, "generator", id="generator-number"),
    pytest.param({"degree": True}, "degree", id="degree-bool"),
    pytest.param({"n_runs": 2.0}, "n_runs", id="n_runs-float"),
    pytest.param({"csv_path": 0, "n_runs": 1}, "csv_path", id="csv_path-number"),
    pytest.param({"horizon": "50"}, "horizon", id="horizon-string"),
    pytest.param({"generator": {"d_h": -1}}, "generator.d_h", id="generator-d_h-negative"),
    pytest.param({"generator": {"d_in": 0}}, "generator.d_in", id="generator-d_in-zero"),
    pytest.param({"generator": {"d_out": 0}}, "generator.d_out", id="generator-d_out-zero"),
    pytest.param({"generator": {"radius_lo": 2.0}}, "generator.radius_lo", id="radius_lo-high"),
    pytest.param({"generator": {"radius_hi": 1.5}}, "generator.radius_hi", id="radius_hi-high"),
    pytest.param({"generator": {"tau": -0.1}}, "generator.tau", id="tau-negative"),
    pytest.param({"generator": {"noise_sigma": -1}}, "generator.noise_sigma", id="noise-negative"),
    pytest.param({"generator": {"basis_cond": 0.5}}, "generator.basis_cond", id="basis_cond-low"),
    pytest.param({"master_seed": -1}, "master_seed", id="master_seed-negative"),
    pytest.param({"num_taps": -1}, "num_taps", id="num_taps-negative"),
    pytest.param({"algo": "spectral", "num_taps": 9}, "num_taps", id="num_taps-spectral"),
    pytest.param({"domain_bound": -1}, "domain_bound", id="domain_bound-negative"),
    pytest.param({"norm_bound": -1}, "norm_bound", id="norm_bound-negative"),
    pytest.param({"kappa_bound": -1}, "kappa_bound", id="kappa_bound-negative"),
    pytest.param({"beta": 1.5}, "beta", id="beta-high"),
    pytest.param({"algo": "spectral", "filter_count": 2000}, "filter_count", id="filters-high"),
]


class TestRunCommand:
    def make_config(self, tmp_path, **overrides):
        cfg = {
            "generator": {"d_h": 5, "tau": 0.05},
            "n_runs": 2,
            "horizon": 60,
            "window": 15,
            "degree": 3,
            "master_seed": 5,
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_report_json_to_stdout(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        assert run_cli("run", "--config", str(cfg)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["variant"] == "chebyshev"
        assert len(report["per_run_final_errors"]) == 2

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        assert (
            run_cli(
                "run", "--config", str(cfg), "--precond", "legendre", "--degree", "2"
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["variant"] == "legendre"
        assert report["degree"] == 2

    def test_data_flag_switches_to_csv(self, tmp_path, data_csv, capsys):
        cfg = self.make_config(tmp_path, n_runs=1, window=10)
        assert run_cli("run", "--config", str(cfg), "--data", str(data_csv)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tau"] is None
        assert report["horizon"] == 50

    def test_data_without_config_runs_once(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        assert run_cli("gen-data", "--T", "250", "--dh", "5", "--seed", "3", "--out", str(path)) == 0
        capsys.readouterr()
        assert run_cli("run", "--data", str(path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_runs"] == 1
        assert len(report["per_run_final_errors"]) == 1

    def test_table_output(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        assert run_cli("run", "--config", str(cfg), "--table", "csv") == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "setting,chebyshev-3"
        assert "±" in out[1]

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, typo_field=1)
        assert run_cli("run", "--config", str(cfg)) == 1
        assert "typo_field" in capsys.readouterr().err

    def test_invalid_spec_value_exits_one(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, n_runs=0)
        assert run_cli("run", "--config", str(cfg)) == 1
        assert "n_runs" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, named", BAD_CONFIGS)
    def test_bad_config_type_is_one_error_line(self, tmp_path, capsys, bad, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run_cli("run", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err

    def test_learned_spectral_flags_exit_one(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        argv = ("run", "--config", str(cfg), "--algo", "spectral", "--precond", "learned")
        assert run_cli(*argv) == 1
        assert "learned variant is defined for regression only" in capsys.readouterr().err

    def test_csv_spectral_filter_count_is_named(self, tmp_path, short_csv, capsys):
        # the CSV's horizon is known only when it is read, so the check runs then
        cfg = self.make_config(tmp_path, generator=None, n_runs=1, window=5, degree=5,
                               csv_path=str(short_csv), filter_count=28)
        assert run_cli("run", "--algo", "spectral", "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {FILTER_COUNT_ERROR}\n" and captured.out == ""

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 1
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def write_sweep(self, tmp_path, entries, wrap=True):
        path = tmp_path / "sweep.json"
        payload = {"experiments": entries} if wrap else entries
        path.write_text(json.dumps(payload))
        return path

    def base_entry(self, **overrides):
        entry = {
            "generator": {"d_h": 5, "tau": 0.05},
            "n_runs": 1,
            "horizon": 60,
            "window": 15,
            "degree": 3,
            "master_seed": 5,
        }
        entry.update(overrides)
        return entry

    def test_results_json_list(self, tmp_path, capsys):
        cfg = self.write_sweep(
            tmp_path, [self.base_entry(), self.base_entry(variant="none")]
        )
        assert run_cli("sweep", "--config", str(cfg)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["variant"] for r in payload] == ["chebyshev", "none"]

    def test_bare_list_config(self, tmp_path, capsys):
        cfg = self.write_sweep(tmp_path, [self.base_entry()], wrap=False)
        assert run_cli("sweep", "--config", str(cfg)) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1

    def test_table_output(self, tmp_path, capsys):
        cfg = self.write_sweep(
            tmp_path,
            [self.base_entry(degree=d) for d in (2, 3)],
        )
        assert run_cli("sweep", "--config", str(cfg), "--table", "csv") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "setting,chebyshev-2,chebyshev-3"

    def test_failed_entry_reported_on_stderr(self, tmp_path, capsys):
        entries = [
            self.base_entry(),
            self.base_entry(csv_path=str(tmp_path / "missing.csv"), generator=None),
        ]
        cfg = self.write_sweep(tmp_path, entries)
        assert run_cli("sweep", "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "failure" in payload[1]
        assert "failed" in captured.err

    def test_a_failure_without_a_message_is_named_by_its_type(self, tmp_path, capsys, monkeypatch):
        def failing(g, horizon, seeds):
            raise MemoryError()

        monkeypatch.setattr(harness, "_sample_runs", failing)
        cfg = self.write_sweep(tmp_path, [self.base_entry()])
        assert run_cli("sweep", "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        (payload,) = json.loads(captured.out)
        assert payload["failure"]["error"] == "MemoryError"
        assert captured.err == f"failed {payload['failure']['config_hash']}: MemoryError\n"

    def test_csv_spectral_filter_count_fails_only_its_entry(self, tmp_path, short_csv, capsys):
        csv_entry = self.base_entry(algo="spectral", generator=None, window=5, degree=5,
                                    csv_path=str(short_csv))
        entries = [self.base_entry(), dict(csv_entry, filter_count=28),
                   dict(csv_entry, filter_count=3)]
        assert run_cli("sweep", "--config", str(self.write_sweep(tmp_path, entries))) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload[1]["failure"]["error"] == FILTER_COUNT_ERROR
        assert "failure" not in payload[0] and "failure" not in payload[2]
        assert captured.err.count("failed") == 1

    def test_a_non_finite_report_fails_only_its_entry(self, tmp_path, capsys):
        # errors near 1e200 overflow the std: that entry fails naming the
        # number, the good entry is written, and no RuntimeWarning is printed
        bad = self.base_entry(variant="custom", custom_coeffs=[1.0, 1e200, 1e200],
                              generator=None, n_runs=2, horizon=50, window=10)
        cfg = self.write_sweep(tmp_path, [bad, self.base_entry()])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("sweep", "--config", str(cfg)) == 1
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        captured = capsys.readouterr()
        failure, report = json.loads(captured.out)
        error = "std of the final-window errors at lr=0.001 is not finite"
        assert failure == {"failure": {"config_hash": failure["failure"]["config_hash"],
                                       "error": error}}
        assert report["variant"] == "chebyshev"
        assert captured.err == f"failed {failure['failure']['config_hash']}: {error}\n"

    @pytest.mark.parametrize("bad, named", BAD_CONFIGS)
    def test_bad_entry_type_is_one_error_line(self, tmp_path, capsys, bad, named):
        cfg = self.write_sweep(tmp_path, [self.base_entry(), self.base_entry(**bad)])
        assert run_cli("sweep", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment 1: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_one_error_line(self, tmp_path, capsys, workers):
        cfg = self.write_sweep(tmp_path, [self.base_entry()])
        assert run_cli("sweep", "--config", str(cfg), "--workers", workers) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: workers must be >= 1, got {workers}\n"
        assert captured.out == ""

    def test_rejects_object_without_experiments(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text('{"runs": []}')
        assert run_cli("sweep", "--config", str(path)) == 1
        assert "experiments" in capsys.readouterr().err


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        assert run_cli("verify", "--suite", "poly") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(": ")[0] for line in lines[:-1]] == [
            "[ok] poly/chebyshev_sector_decay",
            "[ok] poly/coefficient_growth_exact",
        ]
        assert lines[-1] == "2 checks passed"

    def test_suite_filter(self, capsys):
        assert run_cli("verify", "--suite", "precond") == 0
        out = capsys.readouterr().out
        assert all(
            line.startswith("[ok] precond/") for line in out.strip().split("\n")[:-1]
        )

    def test_failure_exits_two(self, capsys, monkeypatch):
        fake = [VerifyResult("poly", "broken", False, "boom")]
        monkeypatch.setattr(invariants, "verify", lambda suite="all": fake)
        assert run_cli("verify") == 2
        captured = capsys.readouterr()
        assert "[FAIL] poly/broken: boom" in captured.out
        assert "1 of 1 checks FAILED" in captured.err

    def test_failing_and_crashing_criteria_are_reported(self, capsys, monkeypatch):
        def violated():
            raise AssertionError("bound violated")

        def crashed():
            raise RuntimeError("no result")

        # fakes under the criteria's names: `verify` names a result by its function
        violated.__name__, crashed.__name__ = "chebyshev_sector_decay", "coefficient_growth_exact"
        monkeypatch.setitem(invariants.SUITES, "poly", (violated, crashed))
        assert run_cli("verify", "--suite", "poly") == 2
        captured = capsys.readouterr()
        assert captured.out.strip().split("\n") == [
            "[FAIL] poly/chebyshev_sector_decay: bound violated",
            "[FAIL] poly/coefficient_growth_exact: RuntimeError: no result",
        ]
        assert "2 of 2 checks FAILED" in captured.err


def _choices(command, dest):
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


def test_choices_come_from_their_source(capsys):
    assert _choices("run", "algo") == harness.ALGOS
    assert _choices("run", "variant") == harness.VARIANTS
    assert _choices("gen-data", "kind") == harness.GENERATOR_KINDS
    # the suites are those of `invariants.SUITES`, which only `verify` loads,
    # so the parser offers no choices and `verify` names them
    assert _choices("verify", "suite") is None
    assert run_cli("verify", "--suite", "nope") == 1
    assert capsys.readouterr().err == ("error: unknown suite 'nope'; options: all, "
                                       f"{', '.join(invariants.SUITES)}\n")


class TestTopLevel:
    def test_no_subcommand_prints_help(self, capsys):
        assert run_cli() == 1
        assert "usage: usp" in capsys.readouterr().out

    def test_help_flag_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0

    def test_a_subcommand_help_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: usp run ")

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, usage", [
        (["run", "--bogus"], "usage: usp run "),
        (["poly", "--family", "chebyshev", "extra"], "usage: usp poly "),
        (["--bogus"], "usage: usp "),
    ], ids=["run", "poly", "top-level"])
    def test_an_unknown_argument_is_reported_with_its_command_usage(self, capsys, argv, usage):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(usage)
        assert err.endswith(f"{usage[7:-1]}: error: unrecognized arguments: {argv[-1]}\n")


@pytest.mark.parametrize("command, config, fragment", [
    ("sweep", {"experiments": [5]}, "experiment 0: must be a JSON object, got 5"),
    ("run", [{"degree": 3}], "run config must be a JSON object"),
    ("sweep", "experiments", "sweep config must be a list of experiment objects"),
    ("sweep", {"specs": []}, r"config\.json: the JSON object has no 'experiments' field$"),
], ids=["sweep-entry", "run-config", "sweep-config", "sweep-field"])
def test_a_config_of_the_wrong_shape_is_named(tmp_path, command, config, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = _build_parser().parse_args([command, "--config", str(path)])
    with pytest.raises(ValueError, match=fragment):
        args.func(args)


def loaded(code, *packages):
    """The modules of `packages` loaded after running `code` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(seqprecond.__file__).parents[1]))
    code = (f"import sys\n{code}\nprint(sorted(m for m in sys.modules "
            f"if any(m == p or m.startswith(p + '.') for p in {packages!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("argv, code", [
    (["poly", "--family", "chebyshev", "--degree", "3"], 0),
    (["poly", "--family", "nope"], 1),
])
def test_the_module_runs_as_a_script(argv, code):
    env = dict(os.environ, PYTHONPATH=str(Path(seqprecond.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "seqprecond.cli", *argv], env=env,
                         capture_output=True, text=True)
    assert out.returncode == code
    if code == 0:
        assert "coeffs: 1 0 -0.75 0" in out.stdout.splitlines()
    else:
        assert "invalid choice: 'nope'" in out.stderr


def test_importing_the_cli_loads_no_scipy():
    assert loaded("import seqprecond.cli", "scipy") == "[]"


def test_building_a_filter_bank_loads_no_scipy(tmp_path):
    out = tmp_path / "bank.json"
    code = f"from seqprecond.cli import main\nmain(['filters', '--T', '300', '--k', '8', '--out', {str(out)!r}])"
    assert loaded(code, "scipy") == "[]"
    assert json.loads(out.read_text())["k"] == 8


def test_a_run_loads_neither_child_processes_nor_the_criteria(tmp_path):
    # only `usp sweep --workers N` starts processes, and only `usp verify`
    # runs the criteria
    cold = ("concurrent.futures", "multiprocessing", "seqprecond.invariants")
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps({"generator": {"d_h": 4}, "n_runs": 1, "horizon": 50, "window": 10}))
    assert loaded("import seqprecond.cli", *cold) == "[]"
    code = (f"from seqprecond.cli import main\n"
            f"assert main(['run', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0")
    assert loaded(code, *cold) == "[]"
    assert json.loads(out.read_text())["n_runs"] == 1
    assert seqprecond.verify is invariants.verify
    assert "verify" in seqprecond.__all__


def test_src_imports_only_the_standard_library_and_numpy():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    allowed = sys.stdlib_module_names | {"numpy", "seqprecond"}
    package = Path(seqprecond.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]
