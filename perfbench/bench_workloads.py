"""The benchmark's workloads: the `usp` call each one makes and the input
files it writes first.

All three use the default LDS generator (d_h=50, tau=0.01, radius
[0.9, 1], sigma=0.1), T=2000, W=200, the rate grid (1e-3, 1e-2, 1e-1) and
the master seed from `--seed`.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HORIZON = 2000
WINDOW = 200
LR_GRID = [1e-3, 1e-2, 1e-1]
GENERATOR = {
    "kind": "lds", "d_h": 50, "d_in": 1, "d_out": 1, "tau": 0.01,
    "radius_lo": 0.9, "radius_hi": 1.0, "noise_sigma": 0.1, "basis_cond": 10.0,
}
CSV_NAME = "traj.csv"
# SeedSequence entropy word that separates the CSV trajectory's stream from
# the master seed the specs use.
_CSV_STREAM = 0x5EC


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    specs: tuple  # spec dicts without master_seed
    workers: int = 1  # `usp sweep --workers` in the untraced run

    def spec_dicts(self, seed: int) -> list[dict]:
        return [dict(spec, master_seed=seed) for spec in self.specs]

    @property
    def ops(self) -> int:
        """Experiment reports one `usp` call returns: the failure base."""
        return len(self.specs)

    @property
    def cells(self) -> int:
        """(run, rate) learners the call trains, each over HORIZON steps."""
        total = 0
        for spec in self.specs:
            rates = len(spec.get("lr_grid", LR_GRID))
            if spec.get("variant") == "learned":
                rates *= len(spec.get("lr_grid_coeffs") or spec.get("lr_grid", LR_GRID))
            total += spec["n_runs"] * rates
        return total

    @property
    def steps(self) -> int:
        return self.cells * HORIZON

    def write_inputs(self, seed: int, workdir: Path, traced: bool) -> list[str]:
        """Write the config (and CSV) into workdir; return the `usp` argv,
        with paths relative to workdir so reports do not depend on it."""
        specs = self.spec_dicts(seed)
        if any(spec.get("csv_path") == CSV_NAME for spec in specs):
            write_trajectory_csv(workdir / CSV_NAME, seed)
        if self.command == "run":
            spec = dict(specs[0])
            argv = ["run", "--algo", spec.pop("algo"), "--precond", spec.pop("variant"),
                    "--degree", str(spec.pop("degree"))]
            (workdir / "config.json").write_text(json.dumps(spec))
            return argv + ["--config", "config.json", "--out", "report.json"]
        (workdir / "config.json").write_text(json.dumps({"experiments": specs}))
        workers = 1 if traced else self.workers
        return ["sweep", "--config", "config.json", "--workers", str(workers),
                "--out", "report.json"]


def write_trajectory_csv(path: Path, seed: int, d_h: int = 50) -> None:
    """A noisy marginally stable LDS trajectory in the `usp` CSV schema.

    The benchmark simulates it with numpy alone (diagonal A with
    eigenvalues in [0.9, 1)), so the CSV does not change when the
    program's own generator does.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _CSV_STREAM]))
    a = rng.uniform(0.9, 1.0, d_h)
    b = rng.standard_normal(d_h) / np.sqrt(d_h)
    c = rng.standard_normal(d_h)
    u = rng.standard_normal(HORIZON)
    noise = 0.1 * rng.standard_normal(HORIZON)
    x = np.zeros(d_h)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "u_0", "y_0"])
        for t in range(HORIZON):
            x = a * x + b * u[t]
            w.writerow([t + 1, repr(float(u[t])), repr(float(c @ x + noise[t]))])


def _spec(algo="regression", variant="chebyshev", degree=5, n_runs=2, generator=None, **extra):
    spec = {"algo": algo, "variant": variant, "degree": degree, "n_runs": n_runs,
            "horizon": HORIZON, "window": WINDOW, "lr_grid": LR_GRID, **extra}
    if "csv_path" not in extra:
        spec["generator"] = dict(GENERATOR, **(generator or {}))
    return spec


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", "run", (_spec(n_runs=5),)),
        Workload("spectral", "run",
                 (_spec("spectral", n_runs=1, beta=0.1, filter_count=24),)),
        Workload("sweep", "sweep", (
            # the longest spec first, so the pool's critical path shows
            _spec(variant="learned"),
            _spec(generator={"d_in": 3, "d_out": 3}),
            _spec(variant="legendre"),
            _spec(),
            # n_runs=1: several runs on one CSV report a fake std (ROADMAP item 5)
            _spec(n_runs=1, csv_path=CSV_NAME),
        ), workers=2),
    )
}
