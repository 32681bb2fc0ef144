"""Tests of the benchmark's own arithmetic: span self times, failure
counting and the reference comparison's tolerance."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_check  # noqa: E402
import bench_trace  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


def _fake_work():
    now = [0.0]
    tracer = bench_trace.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def inner():
        now[0] += 1.0
        leaf_t()
        now[0] += 1.0

    def outer():
        now[0] += 3.0
        inner_t()
        inner_t()
        now[0] += 0.5

    def broken():
        now[0] += 1.0
        raise RuntimeError("boom")

    leaf_t = tracer.wrap("b.leaf", leaf)
    inner_t = tracer.wrap("a.inner", inner)
    return tracer, tracer.wrap("a.outer", outer), tracer.wrap("b.broken", broken)


def test_self_time_is_duration_minus_children():
    tracer, outer, _ = _fake_work()
    outer()
    assert tracer.stats["b.leaf"] == [2, 4.0, 4.0]
    assert tracer.stats["a.inner"] == [2, 8.0, 4.0]
    assert tracer.stats["a.outer"] == [1, 11.5, 3.5]
    assert tracer.layer_self("a") == 7.5
    assert tracer.layer_self("b") == 4.0
    # self times of all layers account for the root span exactly
    assert tracer.layer_self("a") + tracer.layer_self("b") == tracer.total("a.outer")
    parents = {(name, parent) for name, _, _, parent in tracer.spans}
    assert parents == {("b.leaf", "a.inner"), ("a.inner", "a.outer"), ("a.outer", None)}
    assert tracer.durations("a.inner") == [4.0, 4.0]


def test_span_closes_when_the_call_raises():
    tracer, outer, broken = _fake_work()
    with pytest.raises(RuntimeError):
        broken()
    assert tracer.current is None
    assert tracer.stats["b.broken"] == [1, 1.0, 1.0]
    outer()
    assert ("a.outer", None) in {(n, p) for n, _, _, p in tracer.spans}


def _tiny_spec(**extra):
    spec = {"algo": "regression", "variant": "chebyshev", "degree": 2, "n_runs": 1,
            "horizon": 60, "window": 10, "lr_grid": [1e-2, 1e-1], "master_seed": 3,
            "generator": {"d_h": 4}}
    spec.update(extra)
    return spec


def test_missing_csv_is_one_failed_operation_of_n(tmp_path, monkeypatch):
    from seqprecond import cli

    specs = [_tiny_spec(), _tiny_spec(csv_path="missing.csv", generator=None), _tiny_spec()]
    (tmp_path / "sweep.json").write_text(json.dumps(specs))
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["sweep", "--config", "sweep.json", "--out", "out.json"])
    outcome = bench_check.check_call(specs, 3, rc, tmp_path / "out.json")
    assert rc == 1
    assert (outcome.attempted, outcome.failed) == (3, 1)
    assert outcome.check.startswith("sanity")


def test_call_without_report_fails_every_operation(tmp_path):
    specs = [_tiny_spec(), _tiny_spec()]
    outcome = bench_check.check_call(specs, 3, 1, tmp_path / "absent.json")
    assert (outcome.attempted, outcome.failed) == (2, 2)


def test_sanity_flags_rate_outside_the_grid():
    spec = _tiny_spec(n_runs=2)
    report = {"mean": 1.0, "std": 0.0, "mean_full_horizon": 1.0, "chosen_lr": 0.5,
              "per_run_final_errors": [1.0, 1.0], "per_run_full_errors": [1.0, 1.0],
              "n_runs": 2, "master_seed": 3}
    assert bench_check.sanity(dict(report, chosen_lr=0.1), spec, 3) == []
    assert bench_check.sanity(report, spec, 3) == ["chosen_lr 0.5 is not in the grid"]
    short = dict(report, chosen_lr=0.1, per_run_full_errors=[1.0])
    assert bench_check.sanity(short, spec, 3) == ["per_run_full_errors does not hold 2 entries"]


REF = {"mean": 0.75, "chosen_lr": 0.01, "seeds": [7, 8, 9], "degree": 5,
       "grid_results": [{"lr": [0.01, 0.1], "mean": 2.5}]}


@pytest.mark.parametrize("change, ok", [
    ({}, True),
    ({"mean": 0.75 * (1 + 5e-13)}, True),
    ({"mean": 0.75 * (1 + 5e-12)}, False),
    ({"chosen_lr": 0.01 * (1 + 1e-15)}, False),
    ({"seeds": [7, 8, 10]}, False),
    ({"degree": 6}, False),
    ({"degree": 5.0}, True),
    ({"grid_results": [{"lr": [0.01, 0.1], "mean": 2.5 * (1 + 1e-13)}]}, True),
    ({"grid_results": [{"lr": [0.01, 0.1]}]}, False),
    ({"seeds": [7, 8]}, False),
])
def test_reference_comparison_tolerance(change, ok):
    assert (bench_check.compare(REF, dict(REF, **change)) == []) is ok


def test_stored_references_fit_their_workloads():
    refs = sorted(bench_check.REFERENCE_DIR.glob("*-seed*.json"))
    assert refs, "no reference reports stored"
    for path in refs:
        name, seed = path.stem.rsplit("-seed", 1)
        workload = WORKLOADS[name]
        reports = json.loads(path.read_text())
        assert len(reports) == workload.ops
        for report, spec in zip(reports, workload.spec_dicts(int(seed))):
            assert bench_check.sanity(report, spec, int(seed)) == []
