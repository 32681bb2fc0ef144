"""Golden reports: small experiments whose JSON reports are pinned on disk.

Each spec below was run once and its `report_to_json` output stored in
`tests/golden/<name>.json`.  A refactor of the learners or the harness must
reproduce them: strings, integers, seeds and the chosen learning rate
exactly, every other float to 1e-12 relative.

Re-capture (only when a change of the numbers is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import sys
from pathlib import Path

import pytest

from seqprecond import harness as H
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
    "csv": H.ExperimentSpec(csv_path=CSV_NAME, n_runs=1, horizon=200, window=40,
                            degree=4, master_seed=0),
}


def write_csv(directory) -> None:
    """The trajectory behind the `csv` spec, written into `directory`."""
    system = sample_system(d_h=8, d_in=2, d_out=1, tau_thresh=0.05, radius_lo=0.8,
                           radius_hi=0.99, seed=21, noise_sigma=0.05)
    traj = simulate_lds(system, gaussian_inputs(200, 2, seed=22), seed=23)
    write_trajectory_csv(traj, os.path.join(directory, CSV_NAME))


def report(name: str) -> dict:
    return json.loads(H.report_to_json(H.run_experiment(SPECS[name])))


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
