"""One timed repetition in a fresh interpreter, so the imports and the
filter-bank cache start cold as they do on every `usp` call.

    python3 perfbench/bench_child.py ROOT WORKDIR T0 MODE [WORKLOAD SEED]

MODE is `warmup` (import only), `imports` (time each layer's import in
dependency order), `plain` or `traced` (set up, then one `usp` call
between two runs of the calibration loop).
T0 is the parent's `time.monotonic()` just before it started this
process.  The result goes to WORKDIR/result.json.
"""

import json
import resource
import sys
import time
from pathlib import Path

LAYER_ORDER = ("poly", "dynsys", "precond", "spectral", "learners", "harness", "cli")


def _use_checkout(root: Path) -> Path:
    src = root / "src"
    sys.path.insert(0, str(src))
    return src / "seqprecond"


def _check_origin(module, pkg_dir: Path) -> None:
    origin = Path(module.__file__).resolve()
    if pkg_dir.resolve() not in origin.parents:
        raise SystemExit(f"imported {origin}, not the checkout's {pkg_dir}")


def time_imports(pkg_dir: Path) -> dict:
    """Import the layers one at a time, skipping the package __init__,
    which would import them all at once."""
    import importlib
    import types

    pkg = types.ModuleType("seqprecond")
    pkg.__path__ = [str(pkg_dir)]
    sys.modules["seqprecond"] = pkg
    times = {}
    for layer in LAYER_ORDER:
        start = time.perf_counter()
        mod = importlib.import_module(f"seqprecond.{layer}")
        times[layer] = time.perf_counter() - start
        _check_origin(mod, pkg_dir)
    return times


def calibrate() -> float:
    """Seconds a fixed loop takes in this process: the machine's speed
    right now, measured with code the program does not share.

    Most of it is interpreter-bound steps on small arrays, as in the
    learners' per-step loop; the rest is a BLAS matrix product, as in the
    filter bank.  Its arrays are small, so it adds little to peak_rss_mb.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small, v = rng.standard_normal((8, 8)) / 8, rng.standard_normal(8)
    square = rng.standard_normal((256, 256)) / 16
    start = time.perf_counter()
    for _ in range(12000):
        v = small @ v
        v = v / (1.0 + float(np.linalg.norm(v)))
    for _ in range(20):
        square = square @ square
        square /= np.abs(square).max()
    return time.perf_counter() - start


def main(argv) -> int:
    root, workdir, t0, mode = Path(argv[0]), Path(argv[1]), float(argv[2]), argv[3]
    pkg_dir = _use_checkout(root)
    if mode == "imports":
        result = {"import_s": time_imports(pkg_dir)}
        (workdir / "result.json").write_text(json.dumps(result))
        return 0

    import seqprecond.cli as cli

    _check_origin(cli, pkg_dir)
    if mode == "warmup":
        return 0

    from bench_workloads import WORKLOADS

    workload, seed = WORKLOADS[argv[4]], int(argv[5])
    traced = mode == "traced"
    usp_argv = workload.write_inputs(seed, workdir, traced)
    tracer = None
    if traced:
        import bench_trace

        tracer = bench_trace.Tracer()
        bench_trace.instrument(tracer)
    ready = time.monotonic()
    calib_before = calibrate()
    start = time.monotonic()
    rc = cli.main(usp_argv)
    wall = time.monotonic() - start
    calib_s = (calib_before + calibrate()) / 2

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": ready - t0,
        "wall_s": wall,
        "calib_s": calib_s,
        "rc": rc,
        "peak_rss_mb": max(own, children) / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    if tracer is not None:
        result["layers"] = bench_trace.layer_metrics(tracer, wall)
        result["stats"] = {name: s for name, s in sorted(tracer.stats.items()) if s[0]}
        spans = root / ".perfbench_work" / "results" / f"spans-{argv[4]}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps(tracer.spans))  # (name, start, end, parent)
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
