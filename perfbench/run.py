"""Benchmark of seqprecond through its `usp` command line.

    python3 perfbench/run.py --workload desk|spectral|sweep|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
Each timed repetition is a fresh process that imports `seqprecond.cli`,
writes the workload's config (and CSV), then makes one `usp run` or
`usp sweep` call: a closed loop with one client, repetitions back to back.
Repetitions start while the previous ones left room within S seconds, at
least MIN_REPS of them.  Every report is checked (bench_check.py).

--trace 0 reports the end-to-end metrics (medians over repetitions):
wall_ref_s and steps_per_ref_s (the call's wall time rescaled by a
calibration loop to the reference host's speed; see NOTES.md), setup_s
and peak_rss_mb; failed operations go to `failed` of `attempted` in the
last line.  --trace 1 times each layer's
import in a fresh process, then runs untraced/traced pairs and reports the
per-layer metrics of bench_trace.py.  The last line of stdout is the JSON
result; the lines before it are for people.  A fuller record, with the
environment, goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_check import check_call, load_reference
from bench_trace import LAYERS
from bench_workloads import HORIZON, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_REPS = 2
# The calibration loop's time (bench_child.calibrate) on the reference
# host: 2 shared vCPUs of an x86-64 VM, Python 3.11, numpy with OpenBLAS.
# A wall time w measured while the loop takes c seconds is reported as
# w * CALIB_REF_S / c, the call's time at the reference host's speed.
CALIB_REF_S = 0.1
HARD_LIMIT_S = 170  # a run, hung children included, ends within this
# One BLAS/OpenMP thread per process: on a few shared cores, spinning BLAS
# threads measure the neighbours' load rather than the program.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_ENV = dict(os.environ, **{var: "1" for var in THREAD_VARS})


def spawn(mode: str, workdir: Path, timeout: float, workload: str | None = None,
          seed: int | None = None) -> dict:
    """Run bench_child.py in its own process group and wait for all of it."""
    workdir.mkdir(parents=True)
    extra = [workload, str(seed)] if workload else []
    with open(workdir / "stdout.txt", "w") as out, open(workdir / "stderr.txt", "w") as err:
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "bench_child.py"), str(ROOT), str(workdir),
               repr(t0), mode, *extra]
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=out, stderr=err, env=CHILD_ENV,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            # pool workers left behind by a crash or a timeout go with the group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    result_file = workdir / "result.json"
    result = json.loads(result_file.read_text()) if rc == 0 and result_file.is_file() else {}
    result["child_rc"] = rc
    if rc != 0:
        tail = (workdir / "stderr.txt").read_text().strip().splitlines()[-5:]
        print(f"  {mode} process exited with {rc}: " + " | ".join(tail), file=sys.stderr)
    return result


class Run:
    """One benchmark run of one workload: its repetitions and their checks."""

    def __init__(self, name: str, seed: int, seconds: float, tag: str):
        self.workload = WORKLOADS[name]
        self.name, self.seed, self.seconds = name, seed, seconds
        self.specs = self.workload.spec_dicts(seed)
        self.reference = load_reference(name, seed)
        self.dir = WORK / f"{tag}-{name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.count = 0
        self.attempted = self.failed = 0
        self.checks, self.problems = set(), []
        self.metrics, self.samples, self.function_stats = {}, {}, None

    def process(self, mode: str) -> tuple[dict, Path]:
        self.count += 1
        workdir = self.dir / f"{self.count:03d}-{mode}"
        return spawn(mode, workdir, self.remaining(), self.name, self.seed), workdir

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def rep(self, mode: str) -> dict:
        """One `usp` call in a fresh process, with its reports checked."""
        result, workdir = self.process(mode)
        rc = result.get("rc", result["child_rc"] or -1)  # -1: the child timed out
        outcome = check_call(self.specs, self.seed, rc, workdir / "report.json",
                             self.reference)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.checks.add(outcome.check)
        self.problems += outcome.problems
        return result

    def repeat(self, body, minimum: int) -> list:
        """Call body until the time budget runs out, at least `minimum` times."""
        start, longest, out = time.monotonic(), 0.0, []
        while self.remaining() > 0 and (
                len(out) < minimum or time.monotonic() - start + longest <= self.seconds):
            t = time.monotonic()
            out.append(body())
            longest = max(longest, time.monotonic() - t)
        return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _median_or_fail(samples: list, what: str) -> float:
    if not samples:
        raise SystemExit(f"no successful repetition to take {what} from")
    return statistics.median(samples)


def _sample_line(name: str, unit: str, samples: list) -> str:
    n = len(samples)
    # the highest of p50/p90/p99 with at least ten samples beyond it
    tail = [p for p in (50, 90, 99) if (100 - p) * n / 100 >= 10]
    tail_txt = (f"p{tail[-1]}={statistics.quantiles(samples, n=100)[tail[-1] - 1]:.6g}"
                if tail else "no tail percentile (fewer than 20 samples)")
    return (f"  {name:<12} {statistics.median(samples):>12.6g} {unit:<8} median of n={n}, "
            f"min {min(samples):.6g}, max {max(samples):.6g}; {tail_txt}")


def end_to_end(run: Run) -> tuple[dict, list]:
    reps = [r for r in run.repeat(lambda: run.rep("plain"), MIN_REPS) if "wall_s" in r]
    steps = run.workload.steps
    wall_ref = [r["wall_s"] * CALIB_REF_S / r["calib_s"] for r in reps]
    series = {
        "wall_ref_s": ("s", wall_ref),
        "steps_per_ref_s": ("steps/s", [steps / w for w in wall_ref]),
        "setup_s": ("s", [r["setup_s"] for r in reps]),
        "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in reps]),
    }
    metrics = {k: {"value": _median_or_fail(v, k), "unit": u} for k, (u, v) in series.items()}
    # printed and recorded, not reported: they move with the host's load
    raw = {
        "wall_s": ("s", [r["wall_s"] for r in reps]),
        "steps_per_s": ("steps/s", [steps / r["wall_s"] for r in reps]),
        "calib_s": ("s", [r["calib_s"] for r in reps]),
    }
    run.samples = {k: v for k, (_, v) in {**series, **raw}.items()}
    lines = [_sample_line(k, u, v) for k, (u, v) in {**series, **raw}.items()]
    lines.append(f"  {'failed_frac':<12} {run.failed / max(run.attempted, 1):>12.6g} {'ratio':<8} "
                 f"{run.failed} failed of {run.attempted} experiment reports "
                 f"({run.workload.ops} per call); check: {', '.join(sorted(run.checks))}")
    lines.append(f"  work per call: {run.workload.cells} cells x {HORIZON} steps = {steps} "
                 "learner steps")
    return metrics, lines


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_frac", ".coverage")):
        return "ratio"
    return "count"


def per_layer(run: Run) -> tuple[dict, list]:
    spawn("warmup", run.dir / "000-warmup", run.remaining())  # bytecode, page cache; untimed
    imports = run.process("imports")[0].get("import_s")
    if imports is None:
        raise SystemExit("the layers do not import; see the lines above")

    def pair():
        plain, traced = run.rep("plain"), run.rep("traced")
        if "layers" not in traced or "wall_s" not in plain:
            return None
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return layers, traced["stats"]

    pairs = [p for p in run.repeat(pair, 1) if p is not None]
    if not pairs:
        raise SystemExit("no traced repetition finished")
    values = {f"{layer}.import_s": imports[layer] for layer in LAYERS}
    for key in pairs[0][0]:
        values[key] = statistics.median(p[0][key] for p in pairs)
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}

    wall = values["trace.wall_s"]
    lines = [f"  imports (one fresh process, dependency order): " +
             ", ".join(f"{layer} {imports[layer]:.3f}s" for layer in LAYERS)]
    lines.append(f"  traced wall {wall:.3f}s, overhead {values['trace.overhead_s']:+.3f}s vs the "
                 f"untraced call, median of {len(pairs)} pair(s)")
    if run.workload.command == "sweep":
        lines.append("  note: the traced sweep runs with --workers 1 so all spans stay in one "
                     f"process; the untraced one uses --workers {run.workload.workers}, so this "
                     "overhead also holds the lost parallelism and is not comparable")
    lines.append("  self time per layer (sums to the traced wall up to the coverage):")
    for layer in LAYERS:
        s = values[f"{layer}.self_s"]
        lines.append(f"    {layer:<9} {s:9.3f}s {100 * s / wall:6.1f}%")
    lines.append(f"    coverage  {values['trace.coverage']:.4f}")
    for key, val in values.items():
        if not key.endswith(("self_s", "import_s")) and not key.startswith("trace."):
            lines.append(f"  {key:<27} {val:.6g} {unit_of(key)}")
    absent = sorted(k for k, v in values.items() if v == 0)
    if absent:
        lines.append("  zero here (layer bypassed or path not taken on this workload): "
                     + ", ".join(absent))
    run.function_stats = pairs[-1][1]
    return metrics, lines


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unavailable: the checkout is not a git repository"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError) as exc:
            commit = f"unavailable: {exc}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "num_threads_env": {k: v for k, v in sorted(CHILD_ENV.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, env: dict) -> Run:
    run = Run(name, seed, seconds, "trace" if trace else "e2e")
    print(f"{name} (seed {seed}, trace {trace}, {seconds:g}s budget)")
    try:
        run.metrics, lines = (per_layer if trace else end_to_end)(run)
    finally:
        run.close()
    for line in lines + [f"  problem: {p}" for p in run.problems[:10]]:
        print(line)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "attempted": run.attempted, "failed": run.failed,
              "checks": sorted(run.checks), "problems": run.problems,
              "metrics": run.metrics, "samples": run.samples, "summary": lines}
    if trace:
        record["function_stats"] = run.function_stats  # name: [calls, total_s, self_s]
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "seqprecond" / "cli.py").is_file():
        print(f"no seqprecond sources under {ROOT / 'src'}: run from a checkout",
              file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [run_workload(n, args.seed, args.seconds, args.trace, env) for n in names]
    metrics = {}
    for run in runs:
        prefix = f"{run.name}." if len(runs) > 1 else ""
        metrics.update({prefix + k: v for k, v in run.metrics.items()})
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
