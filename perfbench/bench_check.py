"""Output check for one `usp` call.

Each experiment report is one operation.  It fails if the call raised or
exited non-zero without it, if it came back as a sweep failure, or if it
fails the check.  Seeds with a stored reference (captured with
`capture.py`) are compared field by field: `chosen_lr`, seeds, integers
and strings exactly, other floats within REL_TOL relative.  Other seeds
get a sanity check: finite metrics, `chosen_lr` in the grid, and n_runs
entries in every per-run list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REL_TOL = 1e-12  # ROADMAP item 1: golden reports match to 1e-12 relative
EXACT_KEYS = frozenset({"chosen_lr", "seeds"})
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Outcome:
    attempted: int
    failed: int
    check: str
    problems: list = field(default_factory=list)


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int):
    path = reference_path(workload, seed)
    return json.loads(path.read_text()) if path.is_file() else None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(ref, got, where="report", exact=False) -> list[str]:
    """Mismatches between a reference value and a report value."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys differ: {sorted(ref.keys() ^ got.keys())}"]
        out = []
        for key in ref:
            out += compare(ref[key], got[key], f"{where}.{key}", exact or key in EXACT_KEYS)
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, f"{where}[{i}]", exact)
        return out
    if _is_number(ref) and _is_number(got) and not exact:
        if isinstance(ref, int) and isinstance(got, int):
            ok = ref == got
        else:
            ok = abs(ref - got) <= REL_TOL * max(abs(ref), abs(got))
        return [] if ok else [f"{where}: {got!r} != {ref!r} (rel tol {REL_TOL})"]
    if type(ref) is not type(got) or ref != got:
        return [f"{where}: {got!r} != {ref!r}"]
    return []


def _rate_grid(spec: dict) -> list:
    grid = spec["lr_grid"]
    if spec.get("variant") == "learned":
        coeff_grid = spec.get("lr_grid_coeffs") or grid
        return [[m, c] for m in grid for c in coeff_grid]
    return list(grid)


def sanity(report: dict, spec: dict, seed: int) -> list[str]:
    """Checks that hold for any seed."""
    n = spec["n_runs"]
    out = []
    for key in ("mean", "std", "mean_full_horizon"):
        if not (_is_number(report.get(key)) and math.isfinite(report[key])):
            out.append(f"{key} is not a finite number: {report.get(key)!r}")
    for key in ("per_run_final_errors", "per_run_full_errors"):
        vals = report.get(key)
        if not isinstance(vals, list) or len(vals) != n:
            out.append(f"{key} does not hold {n} entries")
        elif not all(_is_number(v) and math.isfinite(v) for v in vals):
            out.append(f"{key} holds a non-finite entry")
    if report.get("chosen_lr") not in _rate_grid(spec):
        out.append(f"chosen_lr {report.get('chosen_lr')!r} is not in the grid")
    if report.get("n_runs") != n or report.get("master_seed") != seed:
        out.append("n_runs or master_seed differ from the spec")
    return out


def check_call(specs: list, seed: int, rc: int, report_path: Path, reference=None) -> Outcome:
    """Count the failed reports of one call that ran `specs`."""
    n = len(specs)
    check = "reference" if reference is not None else "sanity (no reference for this seed)"
    try:
        payload = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return Outcome(n, n, check, [f"exit code {rc}, no report: {exc}"])
    entries = payload if isinstance(payload, list) else [payload]
    if len(entries) != n:
        return Outcome(n, n, check, [f"{len(entries)} reports for {n} specs"])
    failed, problems = 0, []
    for i, (entry, spec) in enumerate(zip(entries, specs)):
        if "failure" in entry:
            found = [f"spec {i} failed: {entry['failure'].get('error')}"]
        elif reference is not None:
            found = compare(reference[i], entry, f"report[{i}]")
        else:
            found = sanity(entry, spec, seed)
        failed += bool(found)
        problems += found[:3]
    if rc != 0 and failed == 0:
        return Outcome(n, n, check, [f"exit code {rc} with every report intact"])
    return Outcome(n, failed, check, problems)
