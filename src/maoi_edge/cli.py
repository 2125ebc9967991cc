"""Command-line front end: sweeps, convergence grids, oracle validation, trends.

All commands are deterministic for a fixed seed and write data-only CSVs;
a nonzero exit code signals a failed assertion (unbracketed oracle point
or violated trend).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import yaml

from . import baselines, experiments, oracle, trends
from .scenario import DEVICE_OVERRIDE_TYPES, GENERATOR_TYPES, generate_scenario
from .system_model import (CONFIG_FIELD_TYPES, load_config_document, parse_error_text,
                           parse_settings)

log = logging.getLogger("maoi_edge")


def _parse_list(text: str, kind: type, option: str) -> tuple:
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise SystemExit(f"{option}: expected comma-separated {kind.__name__} "
                         f"values, got {text!r}") from None


_CONFIG_SECTIONS = {"system": CONFIG_FIELD_TYPES, "device": DEVICE_OVERRIDE_TYPES}
_CONFIG_KEYS = (*_CONFIG_SECTIONS, *GENERATOR_TYPES)


def _parse_overrides(pairs: list[str], config_path: str | None) -> dict:
    """``--config`` then ``--override`` values; only the config's settings are checked here."""
    overrides: dict = {}
    if config_path:
        doc = _read_yaml(config_path)
        if not isinstance(doc, dict):
            raise SystemExit(f"{config_path}: expected a mapping")
        unknown = [key for key in doc if key not in _CONFIG_KEYS]
        if unknown:
            raise SystemExit(f"{config_path}: unknown top-level key {unknown[0]!r}; "
                             f"expected {', '.join(_CONFIG_KEYS)} (sweeps generate "
                             "their own device populations)")
        try:
            for section, kinds in _CONFIG_SECTIONS.items():
                entries = doc.get(section)
                if not isinstance(entries, (dict, type(None))):
                    raise SystemExit(f"{config_path}: '{section}' must be a mapping")
                overrides.update(parse_settings(entries or {}, kinds, section))
            generator = {k: v for k, v in doc.items() if k in GENERATOR_TYPES}
            overrides.update(parse_settings(generator, GENERATOR_TYPES, "generator"))
        except ValueError as exc:
            raise SystemExit(f"{config_path}: {exc}") from None
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--override needs key=value, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        try:
            overrides[key] = yaml.safe_load(value)
        except yaml.YAMLError as exc:
            raise SystemExit(f"--override {key}: malformed value {value!r}: "
                             f"{parse_error_text(exc)}") from None
    return overrides


def _or_exit(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a ``ValueError`` turned into an exit message."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _read_or_exit(read, path):
    """``read(path)``, with a file that cannot be read as an exit message naming it."""
    try:
        return read(path)
    except OSError as exc:
        raise SystemExit(f"{path}: {exc.strerror}") from None


def _read_yaml(path: str):
    """The YAML document in file ``path``; a file that cannot be read or parsed exits naming it."""
    try:
        return yaml.safe_load(_read_or_exit(Path.read_text, Path(path)))
    except yaml.YAMLError as exc:
        raise SystemExit(f"{path}: malformed YAML: {parse_error_text(exc)}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    overrides = _parse_overrides(args.override, args.config)
    algorithms = tuple(args.algorithms.split(",")) if args.algorithms \
        else tuple(sorted(baselines.ALGORITHMS))
    spec = _or_exit(experiments.SweepSpec, param=args.param,
                    grid=_parse_list(args.grid, float, "--grid"),
                    algorithms=algorithms,
                    seeds=tuple(range(args.seed, args.seed + args.seeds)),
                    base_devices=args.devices, overrides=overrides)
    rows = _or_exit(experiments.run_sweep, spec, workers=args.workers)
    out = Path(args.out)
    experiments.write_results_csv(rows, out / "results.csv")
    experiments.write_aggregate_csv(experiments.aggregate(rows), out / "aggregate.csv")
    log.info("wrote %s and %s", out / "results.csv", out / "aggregate.csv")
    return 0


def cmd_converge_grid(args: argparse.Namespace) -> int:
    overrides = _parse_overrides(args.override, args.config)
    d_grid = _parse_list(args.d_grid, int, "--d-grid")
    e_grid = _parse_list(args.e_grid, float, "--e-grid")
    cells = _or_exit(experiments.convergence_grid, d_grid, e_grid,
                     seeds=tuple(range(args.seed, args.seed + args.seeds)),
                     algorithm=args.algorithm,
                     overrides=overrides, workers=args.workers)
    out = Path(args.out)
    experiments.write_convergence_grid_csv(d_grid, e_grid, cells,
                                           out / "convergence_grid.csv")
    log.info("wrote %s", out / "convergence_grid.csv")
    return 0


def cmd_validate_oracle(args: argparse.Namespace) -> int:
    rows = _or_exit(experiments.validate_oracle, n_updates=args.updates,
                    seed=args.seed, z=args.z)
    out = Path(args.out)
    experiments.write_oracle_csv(rows, out / "oracle_validation.csv")
    failures = [r for r in rows if not r["bracketed"]]
    for r in failures:
        print(f"OUTSIDE CI: lambda={r['lambda']} psi={r['psi']} tau={r['tau']} "
              f"t_sys={r['t_sys']} closed={r['closed_form']:.6f} "
              f"ci=[{r['ci_low']:.6f}, {r['ci_high']:.6f}]")
    print(f"oracle validation: {len(rows) - len(failures)}/{len(rows)} points bracketed")
    return 1 if failures else 0


def cmd_assert_trends(args: argparse.Namespace) -> int:
    rows = _read_or_exit(experiments.read_csv, args.results)
    spec = _read_yaml(args.trend_spec)
    checks = spec.get("checks") if isinstance(spec, dict) else None
    if not (isinstance(checks, list) and checks
            and all(isinstance(check, dict) for check in checks)):
        raise SystemExit(f"{args.trend_spec}: expected a mapping with a 'checks' "
                         "list of mappings")
    report = trends.evaluate_checks(rows, checks)
    text = report.render()
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "trend_report.txt").write_text(text + "\n")
    return 0 if report.passed else 1


def cmd_solve(args: argparse.Namespace) -> int:
    if args.scenario:
        conflicts = [option for option, value in (("--config", args.config),
                                                   ("--override", args.override),
                                                   ("--devices", args.devices))
                     if value is not None]
        if conflicts:
            raise SystemExit(f"--scenario takes its devices and system section from "
                             f"{args.scenario}; it cannot be combined with "
                             f"{' or '.join(conflicts)}")
        devices, config = _or_exit(_read_or_exit, load_config_document, args.scenario)
    else:
        overrides = _parse_overrides(args.override, args.config)
        n_devices = 10 if args.devices is None else args.devices
        sc = _or_exit(generate_scenario, n_devices, args.seed, overrides)
        devices, config = sc.devices, sc.config
    decision, trace = baselines.solve(args.algorithm, devices, config)
    metrics = trace.metrics
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    experiments.write_trace_csv(trace, out / "trace.csv")
    rows = [{"device": d, "tau": tau, "x": x, "mu": mu}
            for d, (tau, x, mu) in enumerate(zip(decision.tau.tolist(),
                                                 decision.x.tolist(),
                                                 decision.mu.tolist()))]
    experiments.write_csv(rows, ("device", "tau", "x", "mu"), out / "decision.csv")
    print(f"{args.algorithm}: converged={trace.converged} stop={trace.stop_reason} "
          f"blocked={trace.blocked} iters={trace.n_iters} "
          f"avg_maoi={metrics['avg_maoi']:.4f} avg_aoi={metrics['avg_aoi']:.4f} "
          f"offloaded={metrics['n_offloaded']}/{len(devices)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maoi-edge",
        description="Freshness-aware sampling/offloading experiments for "
                    "multimodal edge computing")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=True):
        p.add_argument("--config", help="YAML with generator overrides "
                       "(system/device sections)")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="single override, repeatable")
        p.add_argument("--seed", type=int, default=0, help="base seed")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="parallel solver processes")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("sweep", help="run a parameter sweep and emit CSVs")
    common(p)
    p.add_argument("--param", required=True, choices=experiments.SWEEP_PARAMS)
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--algorithms", help="comma-separated algorithm names "
                   f"(default: all of {','.join(sorted(baselines.ALGORITHMS))})")
    p.add_argument("--seeds", type=int, default=10, help="replications per point")
    p.add_argument("--devices", type=int, default=10,
                   help="device count for non-device-count sweeps")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("converge-grid",
                       help="mean outer iterations over a (D, budget) grid")
    common(p)
    p.add_argument("--d-grid", required=True, help="comma-separated device counts")
    p.add_argument("--e-grid", required=True, help="comma-separated energy budgets")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--algorithm", default="jso", choices=sorted(baselines.ALGORITHMS))
    p.set_defaults(fn=cmd_converge_grid)

    p = sub.add_parser("validate-oracle",
                       help="check the closed-form ages against the Monte-Carlo oracle")
    p.add_argument("--updates", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--z", type=float, default=oracle.Z_99,
                   help="CI half-width in standard errors (default 99%%)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_validate_oracle)

    p = sub.add_parser("assert-trends",
                       help="evaluate a trend spec against an aggregate CSV")
    p.add_argument("--results", required=True, help="aggregate CSV path")
    p.add_argument("--trend-spec", required=True, help="YAML check list")
    p.add_argument("--out", help="directory for trend_report.txt")
    p.set_defaults(fn=cmd_assert_trends)

    p = sub.add_parser("solve", help="solve one scenario and dump the trace")
    common(p, workers=False)
    p.add_argument("--algorithm", default="jso", choices=sorted(baselines.ALGORITHMS))
    p.add_argument("--devices", type=int,
                   help="device count of the generated scenario (default: 10)")
    p.add_argument("--scenario", metavar="FILE",
                   help="solve the devices and system section of a config "
                        "document instead of a generated scenario (--seed is unused)")
    p.set_defaults(fn=cmd_solve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
