"""The `usp` command line: generate data, precondition, build filter banks,
run experiments, sweep grids, and check the ten acceptance criteria.

Exit codes: 0 success, 1 validation error, 2 acceptance-criterion failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from seqprecond import dynsys, harness
from seqprecond.poly import CoefficientVector, ComplexSector
from seqprecond.precond import convolve
from seqprecond.spectral import DEFAULT_FILTER_COUNT, build_filter_bank, build_gram


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="usp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("poly", help="emit monic preconditioning coefficients")
    p.add_argument("--family", required=True, choices=["chebyshev", "legendre", "differencing"])
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_poly)

    g, spec = harness.GeneratorConfig(), harness.ExperimentSpec()
    p = sub.add_parser("gen-data", help="sample a system and write a trajectory CSV")
    p.add_argument("--kind", choices=harness.GENERATOR_KINDS)
    p.add_argument("--T", type=int, default=spec.horizon, help="horizon")
    p.add_argument("--dh", dest="d_h", type=int, help="hidden dimension")
    p.add_argument("--din", dest="d_in", type=int)
    p.add_argument("--dout", dest="d_out", type=int)
    p.add_argument("--tau", type=float, help="imaginary-part cap")
    p.add_argument("--L", dest="radius_lo", type=float, help="eigenvalue radius lower bound")
    p.add_argument("--U", dest="radius_hi", type=float, help="eigenvalue radius upper bound")
    p.add_argument("--sigma", dest="noise_sigma", type=float, help="observation noise scale")
    p.add_argument("--basis-cond", type=float)
    p.add_argument("--seed", type=int, default=spec.master_seed)
    p.add_argument("--out", required=True, help="destination CSV")
    p.set_defaults(func=_cmd_gen_data, **dataclasses.asdict(g))  # the default generator

    p = sub.add_parser("precond", help="convolve a trajectory's outputs with coefficients")
    p.add_argument("--coeffs", required=True, help="JSON coefficient file")
    p.add_argument("--in", dest="infile", required=True, help="input trajectory CSV")
    p.add_argument("--out", required=True, help="destination CSV")
    p.set_defaults(func=_cmd_precond)

    p = sub.add_parser("filters", help="build the sector filter bank")
    p.add_argument("--T", type=int, default=2000, help="bank horizon")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--k", type=int, default=DEFAULT_FILTER_COUNT)
    p.add_argument("--out", help="bank JSON destination")
    p.add_argument("--report", help="eigendecay CSV destination (index, sigma)")
    p.set_defaults(func=_cmd_filters)

    p = sub.add_parser("run", help="run one experiment configuration")
    p.add_argument("--algo", choices=harness.ALGOS)
    p.add_argument("--precond", dest="variant", choices=harness.VARIANTS,
                   help="preconditioning variant")
    p.add_argument("--degree", type=int)
    p.add_argument("--data", dest="csv_path",
                   help="trajectory CSV (otherwise the generator is used)")
    p.add_argument("--config", help="JSON file mirroring ExperimentSpec fields")
    p.add_argument("--out", help="report JSON destination (default stdout)")
    p.add_argument("--table", choices=["csv"], help="emit the wide mean±std table instead")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a list of experiment configurations")
    p.add_argument("--config", required=True, help="JSON: list of specs or {'experiments': [...]}")
    p.add_argument("--workers", type=int, default=1,
                   help="processes (>= 1); each runs one group of specs at a time")
    p.add_argument("--out", help="results destination (default stdout)")
    p.add_argument("--table", choices=["csv"], help="emit the wide mean±std table instead")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the ten acceptance criteria")
    p.add_argument("--suite", default="all", help="one suite of criteria (default: all)")
    p.set_defaults(func=_cmd_verify)
    for p in sub.choices.values():  # the parser that reports a subcommand's unknown flags
        p.set_defaults(parser=p)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _cmd_poly(args) -> int:
    spec = harness.ExperimentSpec(variant=args.family, degree=args.degree)
    c = harness.resolve_coefficients(spec)
    payload = {
        "family": args.family,
        "degree": c.degree,
        "coeffs": c.coeffs.tolist(),
        "l1": c.l1,
    }
    if args.json or args.out:
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        print(f"{args.family} degree {c.degree}")
        print("coeffs:", " ".join(f"{v:.12g}" for v in c.coeffs))
        print(f"l1: {c.l1:.12g}")
    return 0


def _cmd_gen_data(args) -> int:
    """Write run 0 of the one-run spec of this generator, horizon and master
    seed, loaded as `usp run` loads it.  A system or a trajectory over
    MAX_RUN_BYTES is refused before anything is sampled, as `usp run` does."""
    g = harness.GeneratorConfig(**{name: getattr(args, name) for name in _GENERATOR_FIELDS})
    over = f"MB, over MAX_RUN_BYTES ({harness.MAX_RUN_BYTES // 10**6} MB)"
    if (size := harness._systems_bytes([(g, 1)])) > harness.MAX_RUN_BYTES:
        raise ValueError(f"--dh {g.d_h} with --din {g.d_in} and --dout {g.d_out}: "
                         f"the system would take about {size // 10**6} {over}")
    if (size := 8 * args.T * (g.d_in + g.d_out)) > harness.MAX_RUN_BYTES:
        raise ValueError(f"--T {args.T} with --din {g.d_in} and --dout {g.d_out}: "
                         f"the trajectory would hold about {size // 10**6} {over}")
    key = harness._data_key(harness.ExperimentSpec(generator=g, horizon=args.T,
                                                   master_seed=args.seed, n_runs=1))
    loaded = harness._load([key])[key]
    if isinstance(loaded, Exception):
        raise loaded
    dynsys.write_trajectory_csv(loaded[0][0], args.out)
    print(f"wrote {args.T} steps ({args.kind}, seed {args.seed}) to {args.out}")
    return 0


def _read_json(path: str, field: str | None = None):
    """A JSON file's value or, given `field`, an object's value of that field,
    which it must hold; a value that is no object is returned as it is."""
    with open(path) as fh:
        data = json.load(fh)
    if field is not None and isinstance(data, dict):
        if field not in data:
            raise ValueError(f"{path}: the JSON object has no {field!r} field")
        data = data[field]
    return data


def _cmd_precond(args) -> int:
    c = CoefficientVector(np.asarray(_read_json(args.coeffs, "coeffs"), dtype=float))
    traj = dynsys.ingest_csv(args.infile)
    dynsys.write_trajectory_csv(dynsys.Trajectory(traj.inputs, convolve(traj.outputs, c)), args.out)
    print(f"wrote preconditioned outputs (degree {c.degree}) to {args.out}")
    return 0


def _cmd_filters(args) -> int:
    if args.out is None and args.report is None:
        raise ValueError("filters: need --out and/or --report")
    bank = build_filter_bank(args.T, ComplexSector(args.beta), args.k)
    if args.out is not None:
        payload = {
            "horizon": bank.horizon,
            "beta": args.beta,
            "k": bank.k,
            "eigenvalues": bank.eigenvalues.tolist(),
            "filters": bank.filters.tolist(),
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh)
        print(f"wrote {bank.k}-filter bank (horizon {bank.horizon}) to {args.out}")
    if args.report is not None:
        # the bank holds the top k; the decay report is the whole spectrum
        sigma = np.linalg.eigvalsh(build_gram(args.T, ComplexSector(args.beta)))[::-1]
        with open(args.report, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "sigma"])
            for j, s in enumerate(sigma):
                w.writerow([j, repr(float(s))])
        print(f"wrote eigendecay ({len(sigma)} values) to {args.report}")
    return 0


_SPEC_FIELDS = {f.name for f in dataclasses.fields(harness.ExperimentSpec)}
_GENERATOR_FIELDS = {f.name for f in dataclasses.fields(harness.GeneratorConfig)}


def _spec_from_dict(cfg, where: str = "config") -> harness.ExperimentSpec:
    """The validated spec of one JSON experiment.  Unknown keys (also under
    `generator`) and values of the wrong type are ValueErrors naming `where`."""
    try:
        if not isinstance(cfg, dict):
            raise ValueError(f"must be a JSON object, got {cfg!r}")
        unknown = sorted(set(cfg) - _SPEC_FIELDS)
        if isinstance(cfg.get("generator"), dict):
            unknown += sorted(f"generator.{k}" for k in set(cfg["generator"]) - _GENERATOR_FIELDS)
        if unknown:
            raise ValueError(f"unknown fields: {', '.join(unknown)}")
        spec = harness.ExperimentSpec(**cfg)
        harness.validate_spec(spec)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    return spec


def _cmd_run(args) -> int:
    cfg = {}
    if args.config:
        cfg = _read_json(args.config)
        if not isinstance(cfg, dict):
            raise ValueError("run config must be a JSON object")
    for field in ("algo", "variant", "degree", "csv_path"):  # a flag overrides the file
        if getattr(args, field) is not None:
            cfg[field] = getattr(args, field)
    report = harness.run_experiment(_spec_from_dict(cfg))
    if args.table == "csv":
        _emit(harness.sweep_table_csv([report]), args.out)
    else:
        _emit(harness.report_to_json(report), args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _read_json(args.config, "experiments")
    if not isinstance(cfg, list):
        raise ValueError("sweep config must be a list of experiment objects")
    specs = [_spec_from_dict(entry, f"experiment {i}") for i, entry in enumerate(cfg)]
    results = harness.sweep(specs, workers=args.workers)
    if args.table == "csv":
        _emit(harness.sweep_table_csv(results), args.out)
    else:
        payload = [dataclasses.asdict(r) if isinstance(r, harness.MetricsReport)
                   else {"failure": dataclasses.asdict(r)} for r in results]
        _emit(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False), args.out)
    failures = [r for r in results if isinstance(r, harness.SweepFailure)]
    if failures:
        for f in failures:
            print(f"failed {f.config_hash}: {f.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    from seqprecond import invariants  # the criteria load only for `verify`

    results = invariants.verify(args.suite)
    for r in results:
        print(r)
    failed = sum(not r.passed for r in results)
    if not failed:
        print(f"{len(results)} checks passed")
        return 0
    print(f"{failed} of {len(results)} checks FAILED", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # argparse hands a subcommand's unknown flags back to the top-level parser
            getattr(args, "parser", parser).error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:  # argparse printed the usage and its error; --help exits 0
        if exc.code != 2:
            raise
        return 1
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
