"""Store the reference reports the output check compares against.

    python3 perfbench/capture.py [SEED ...]     (default: 0 1)

Runs each workload once per seed, untraced, exactly as run.py does, and
writes reference/<workload>-seed<seed>.json.  Capture only at a commit
whose reports are known good: later commits must match them.
"""

import json
import shutil
import sys

from bench_check import reference_path
from bench_workloads import WORKLOADS
from run import HARD_LIMIT_S, WORK, spawn


def main(seeds) -> int:
    for name in WORKLOADS:
        for seed in seeds:
            workdir = WORK / f"capture-{name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            result = spawn("plain", workdir, HARD_LIMIT_S, name, seed)
            if result.get("rc") != 0:
                print(f"{name} seed {seed}: usp exited with {result.get('rc')}", file=sys.stderr)
                return 1
            payload = json.loads((workdir / "report.json").read_text())
            reports = payload if isinstance(payload, list) else [payload]
            path = reference_path(name, seed)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(reports, sort_keys=True, indent=1) + "\n")
            shutil.rmtree(workdir)
            print(f"wrote {path.name} ({len(reports)} reports, {result['wall_s']:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0, 1]))
