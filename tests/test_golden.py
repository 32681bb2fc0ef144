"""Golden reports: small experiments whose JSON reports are pinned on disk.

Each spec below was run once and its `report_to_json` output stored in
`tests/golden/<name>.json`.  A refactor of the learners or the harness must
reproduce them: strings, integers, seeds and the chosen learning rate
exactly, every other float to 1e-12 relative.

`tests/golden/sweep.json` pins one `sweep` in the same way, with its
`sweep_table_csv` text exactly.

Re-capture (only when a change of the numbers is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from seqprecond import harness as H, learners
from seqprecond.dynsys import gaussian_inputs, sample_system, simulate_lds, write_trajectory_csv

GOLDEN_DIR = Path(__file__).parent / "golden"
CSV_NAME = "golden.csv"  # relative, so the spec hash does not depend on where it lives
REL_TOL = 1e-12

SMALL = dict(generator=H.GeneratorConfig(d_h=10, tau=0.05), n_runs=2, horizon=300,
             window=50, degree=5, master_seed=3)


def _spec(**overrides):
    return H.ExperimentSpec(**{**SMALL, **overrides})


SPECS = {
    "chebyshev": _spec(variant="chebyshev"),
    "legendre": _spec(variant="legendre"),
    "none": _spec(variant="none"),
    "differencing": _spec(variant="differencing"),
    "learned": _spec(variant="learned", lr_grid=(1e-2, 1e-1), lr_grid_coeffs=(1e-3, 1e-2)),
    "oracle": _spec(oracle_comparator=True),
    "spectral": _spec(algo="spectral", n_runs=1, filter_count=8, degree=3),
    "d3": _spec(generator=H.GeneratorConfig(d_h=10, d_in=3, d_out=3, tau=0.05)),
    "nonlinear": _spec(generator=H.GeneratorConfig(kind="nonlinear", d_h=10, tau=0.05)),
    # a ball of 0.3 ||c||_1 binds: the only spec here that projects a tap
    "clipped": _spec(generator=H.GeneratorConfig(d_h=10, d_in=2, d_out=2, tau=0.05),
                     domain_bound=0.3),
    "csv": H.ExperimentSpec(csv_path=CSV_NAME, n_runs=1, horizon=200, window=40,
                            degree=4, master_seed=0),
}


# What no single report reaches: one `ogd` call over specs of different
# degree on one data key (degree 2's taps are padded to 5), grid points
# that diverge (the three at coefficient rate 1e308, at step 10), a spec
# whose every point diverges, a second group (a forked child at two
# workers) and `sweep_table_csv`, whose d3 report takes a row of its own.
SWEEP = [
    _spec(variant="chebyshev"),
    _spec(variant="chebyshev", degree=2),
    _spec(variant="learned", lr_grid_coeffs=(1e308, 1e-2)),
    _spec(variant="learned", lr_grid=(1e-2,), lr_grid_coeffs=(1e308,)),
    SPECS["d3"],
]


def write_csv(directory) -> None:
    """The trajectory behind the `csv` spec, written into `directory`."""
    system = sample_system(d_h=8, d_in=2, d_out=1, tau_thresh=0.05, radius_lo=0.8,
                           radius_hi=0.99, seed=21, noise_sigma=0.05)
    traj = simulate_lds(system, gaussian_inputs(200, 2, seed=22), seed=23)
    write_trajectory_csv(traj, os.path.join(directory, CSV_NAME))


def report(name: str) -> dict:
    return json.loads(H.report_to_json(H.run_experiment(SPECS[name])))


def sweep_result(workers: int) -> dict:
    """The `SWEEP` results, each a decoded report or {"failure": ...}, and their table."""
    results = H.sweep(SWEEP, workers=workers)
    return {"results": [json.loads(H.report_to_json(r)) if isinstance(r, H.MetricsReport)
                        else {"failure": asdict(r)} for r in results],
            "table": H.sweep_table_csv(results)}


def _mismatch(path, got, want):
    """First difference between two decoded reports, or None."""
    exact = path.startswith(("chosen_lr", "seeds"))
    if type(got) is not type(want):
        return f"{path}: type {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            found = _mismatch(f"{path}.{k}" if path else k, got[k], want[k])
            if found:
                return found
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _mismatch(f"{path}[{i}]", g, w)
            if found:
                return found
        return None
    if isinstance(want, float) and not exact:
        ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    else:
        ok = got == want
    return None if ok else f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_csv(tmp_path)
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert _mismatch("", report(name), want) is None


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_matches_golden(workers):
    want = json.loads((GOLDEN_DIR / "sweep.json").read_text())
    got = sweep_result(workers)
    assert got["table"] == want["table"]
    assert len(got["results"]) == len(want["results"])
    for g, w in zip(got["results"], want["results"]):  # per entry: chosen_lr and seeds exact
        assert _mismatch("", g, w) is None


def test_each_swept_spec_reports_as_it_does_alone():
    want = json.loads((GOLDEN_DIR / "sweep.json").read_text())["results"]
    assert "failure" in want[3] and any("diverged" in g for g in want[2]["grid_results"])
    for spec, entry in zip(SWEEP, want):
        if "failure" in entry:
            with pytest.raises(ValueError) as failed:
                H.run_experiment(spec)
            assert str(failed.value) == entry["failure"]["error"]
        else:
            assert _mismatch("", json.loads(H.report_to_json(H.run_experiment(spec))), entry) is None


def test_the_clipped_spec_projects_its_taps(monkeypatch):
    calls, project = [], learners.project_to_ball
    monkeypatch.setattr(learners, "project_to_ball",
                        lambda M, radius: calls.append(M.shape) or project(M, radius))
    H.run_experiment(SPECS["clipped"])
    assert len(calls) > 0


def test_mismatch_catches_small_float_and_exact_fields():
    base = {"mean": 1.0, "chosen_lr": 0.01, "seeds": [1, 2], "variant": "none"}
    assert _mismatch("", dict(base, mean=1.0 + 1e-14), base) is None
    assert _mismatch("", dict(base, mean=1.0 + 1e-10), base).startswith("mean")
    assert _mismatch("", dict(base, chosen_lr=0.010000000000000002), base)  # one ulp off
    assert _mismatch("", dict(base, seeds=[1, 3]), base)
    assert _mismatch("", dict(base, variant="learned"), base)


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_csv(tmp)
        for name in sorted(SPECS):
            text = H.report_to_json(H.run_experiment(SPECS[name]))
            (GOLDEN_DIR / f"{name}.json").write_text(text + "\n")
            print(f"wrote {name}.json", file=sys.stderr)
    (GOLDEN_DIR / "sweep.json").write_text(json.dumps(sweep_result(1), indent=2) + "\n")
    print("wrote sweep.json", file=sys.stderr)
