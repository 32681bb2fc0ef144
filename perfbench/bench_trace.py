"""Tracing of the seqprecond layers from outside the program.

`instrument` replaces every public function of the seven modules, and the
`run` method of each public class that has one, by a wrapper that records
a span: name, start, end and parent.  A function is wrapped at every name
a caller looks it up under (`learners.filter_project` as well as
`spectral.filter_project`), so calls between modules are seen.  Spans are
named after the module that defines the function, which is the layer
their time is charged to.

Self time is a span's duration minus the time its child spans cover; it
is summed per function as the spans close, so per-step functions cost no
memory.  Span records themselves are kept for the first `SPAN_CAP` calls
of each function and written out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from collections import defaultdict

LAYERS = ("poly", "dynsys", "precond", "spectral", "learners", "harness", "cli")
SPAN_CAP = 1000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = [[None, 0.0]]  # open spans: [name, time covered by children]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.spans = []  # (name, start, end, parent name)
        self.counters = defaultdict(float)

    def wrap(self, name, fn, after=None):
        """Return fn traced as `name`; after(args, kwargs, result) updates
        counters once the call has returned."""
        clock, stack, spans = self.clock, self._stack, self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stat[0] <= SPAN_CAP:
                    spans.append((name, start, end, parent[0]))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @property
    def current(self):
        return self._stack[-1][0]

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def layer_self(self, layer):
        return sum(s[2] for name, s in self.stats.items() if name.split(".")[0] == layer)

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _hooks(tracer):
    """Counters taken where the work happens, keyed by span name."""
    import numpy as np

    count = tracer.counters
    seen_data = set()

    def gram(args, kwargs, Z):
        count["gram_bytes"] += 8 * Z.shape[0] * Z.shape[1]

    def project_filters(args, kwargs, out):
        bank, block = _arg(args, kwargs, 0, "bank"), _arg(args, kwargs, 1, "padded_inputs")
        d_in = 1 if np.ndim(block) == 1 else np.shape(block)[1]
        count["filter_project_bytes"] += 8 * (bank.k * bank.horizon + bank.horizon * d_in)

    def project_ball(args, kwargs, out):
        M = _arg(args, kwargs, 0, "M")
        if out is not M and not np.array_equal(out, M):
            count["ball_clipped"] += 1

    def simulate(args, kwargs, traj):
        system = _arg(args, kwargs, 0, "sys")
        digest = hashlib.sha1()
        for arr in (system.A, system.B, system.C, traj.inputs):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(repr(_arg(args, kwargs, 2, "seed")).encode())
        seen_data.add(digest.digest())
        count["distinct_data"] = len(seen_data)

    def learner_run(args, kwargs, preds):
        count["learner_steps"] += np.shape(_arg(args, kwargs, 1, "inputs"))[0]

    def ingest(args, kwargs, traj):
        count["ingest_rows"] += traj.horizon

    return {
        "spectral.build_gram": gram,
        "spectral.filter_project": project_filters,
        "learners.project_to_ball": project_ball,
        "dynsys.simulate_lds": simulate,
        "learners.RegressionLearner.run": learner_run,
        "learners.SpectralLearner.run": learner_run,
        "learners.LearnedCoeffLearner.run": learner_run,
        "harness.ingest_csv": ingest,
    }


def instrument(tracer):
    """Wrap the layers' public functions in every module that binds them.

    Meant for a process that exits after the traced call: nothing is
    put back.
    """
    import importlib

    import numpy as np

    modules = {layer: importlib.import_module(f"seqprecond.{layer}") for layer in LAYERS}
    namespaces = list(modules.values()) + [importlib.import_module("seqprecond")]
    hooks = _hooks(tracer)

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrapped = tracer.wrap(name, obj, hooks.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, wrapped)
            elif inspect.isclass(obj) and inspect.isfunction(vars(obj).get("run")):
                name = f"{layer}.{attr}.run"
                obj.run = tracer.wrap(name, vars(obj)["run"], hooks.get(name))

    # An SVD inside a projection is the expensive branch of project_to_ball.
    svd = np.linalg.svd

    @functools.wraps(svd)
    def counted_svd(*args, **kwargs):
        if tracer.current == "learners.project_to_ball":
            tracer.counters["ball_svd"] += 1
        return svd(*args, **kwargs)

    np.linalg.svd = counted_svd


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, wall_s):
    """The per-layer metrics of one traced `usp` call (see NOTES.md)."""
    t, count = tracer, tracer.counters
    learner_runs = [n for n in t.stats if n.startswith("learners.") and n.endswith(".run")]
    steps = count["learner_steps"]
    run_s = sum(t.total(n) for n in learner_runs)
    projections = t.calls("learners.project_to_ball")
    specs = t.durations("harness.run_experiment")
    m = {
        "poly.sup_calls": t.calls("poly.sup_on_sector"),
        "poly.sup_s": t.total("poly.sup_on_sector"),
        "dynsys.sample_calls": t.calls("dynsys.sample_system"),
        "dynsys.sample_s": t.total("dynsys.sample_system"),
        "dynsys.simulate_calls": t.calls("dynsys.simulate_lds"),
        "dynsys.simulate_s": t.total("dynsys.simulate_lds"),
        "dynsys.unique_data_frac": _ratio(count["distinct_data"], t.calls("dynsys.simulate_lds")),
        "precond.convolve_calls": t.calls("precond.convolve"),
        "spectral.gram_s": t.total("spectral.build_gram"),
        "spectral.gram_bytes": count["gram_bytes"],
        "spectral.bank_s": t.total("spectral.build_filter_bank"),
        "spectral.bank_builds": t.calls("spectral.build_filter_bank"),
        "spectral.project_calls": t.calls("spectral.filter_project"),
        "spectral.project_s": t.total("spectral.filter_project"),
        "spectral.project_bytes": count["filter_project_bytes"],
        "learners.cells": sum(t.calls(n) for n in learner_runs),
        "learners.steps": steps,
        "learners.run_s": run_s,
        "learners.step_us": _ratio(run_s * 1e6, steps),
        "learners.project_calls": projections,
        "learners.project_s": t.total("learners.project_to_ball"),
        "learners.clip_frac": _ratio(count["ball_clipped"], projections),
        "learners.svd_frac": _ratio(count["ball_svd"], projections),
        "harness.ingest_calls": t.calls("harness.ingest_csv"),
        "harness.ingest_rows": count["ingest_rows"],
        "harness.ingest_s": t.total("harness.ingest_csv"),
        "harness.report_json_s": t.total("harness.report_to_json"),
        "harness.longest_spec_frac": _ratio(max(specs, default=0.0), sum(specs)),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.layer_self(layer)
    m["trace.wall_s"] = wall_s
    m["trace.coverage"] = _ratio(sum(m[f"{layer}.self_s"] for layer in LAYERS), wall_s)
    return {k: float(v) for k, v in m.items()}
