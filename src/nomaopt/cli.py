"""Command-line front end for scenario generation, solving and studies.

Subcommands: gen, solve, sweep, cdf, bench, oracle. All are deterministic
given their flags and the configured seed. Exit codes: 0 success, 1 usage
error, 2 invalid scenario or config, 3 solver budget exceeded (the
partial result is still written, flagged certified: false).

Configuration comes from a JSON file (--config) with per-field overrides
via repeated --set field=value flags; the only environment variable
honored is NOMAOPT_OUT_DIR, which redirects relative output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import (
    RadioConfig,
    cdf_experiment,
    generate_scenario,
    power_sweep,
    runtime_bench,
    write_bench_csv,
    write_cdf_csv,
    write_sweep_csv,
)
from .model import Scenario
from .oracle import grid_optimum
from .polyblock import MAX_ITERATIONS, MAX_VERTICES, solve, write_trace_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

_BASELINE_NOTE = (
    "baselines full-power and greedy are declared stand-in heuristics "
    "written for this package, not reimplementations of published schemes"
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("values must be non-negative")
    return values


def _out_path(path: str) -> str:
    base = os.environ.get("NOMAOPT_OUT_DIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _write_text(path: str, text: str):
    with open(_out_path(path), "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, obj: dict):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_config(args) -> RadioConfig:
    data = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
        cfg = RadioConfig.from_json(text)
        data = cfg.to_json_dict()
    for item in args.set or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects field=value, got {item!r}")
        try:
            data[key] = json.loads(raw)
        except json.JSONDecodeError:
            data[key] = raw
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    return RadioConfig.from_json_dict(data)


def _load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return Scenario.from_json(fh.read())


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    s = generate_scenario(cfg)
    _write_text(args.out, s.to_json() + "\n")
    print(f"wrote scenario: {args.out} (cells={s.num_cells}, users={s.total_users}, "
          f"subcarriers={s.num_subcarriers}, seed={cfg.seed})")
    return EXIT_OK


def cmd_solve(args) -> int:
    s = _load_scenario(args.scenario)
    result = solve(
        s,
        args.epsilon,
        max_iterations=args.max_iterations,
        max_vertices=args.max_vertices,
        collect_trace=True,
    )
    _write_json(args.out, result.to_json_dict())
    if args.trace:
        write_trace_csv(result.trace, _out_path(args.trace))
    gap = (result.upper_bound - result.sum_rate_nats) if result.upper_bound is not None else float("nan")
    print(f"status={result.status} certified={result.certified} "
          f"sum_rate={result.sum_rate_nats:.12g} nats ({result.sum_rate_bits:.12g} bits) "
          f"upper_bound={result.upper_bound:.12g} gap={gap:.12g} "
          f"iterations={result.iterations} projections={result.projections} "
          f"time={result.wall_time_s:.3f}s")
    if result.status == "budget_exceeded":
        print("solver budget exceeded; result written with certified: false", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    result = power_sweep(cfg, args.caps, args.epsilons, args.trials, threads=args.threads)
    write_sweep_csv(result, _out_path(args.out))
    print(f"wrote sweep: {args.out} ({len(result.rows)} rows, {args.trials} trials; "
          f"{_BASELINE_NOTE})")
    return EXIT_OK


def cmd_cdf(args) -> int:
    cfg = _load_config(args)
    result = cdf_experiment(cfg, args.samples)
    write_cdf_csv(result, _out_path(args.out))
    s = result.summary_dict()
    print(f"wrote cdf: {args.out} ({s['num_values']} values from {s['num_scenarios']} drops); "
          f"P(product statistic >= 0) = {s['p_nonneg']:.6f} "
          f"[{s['ci95_low']:.6f}, {s['ci95_high']:.6f}] (95% Wilson); "
          f"P(margin >= 0 at cap {s['cap_w']:g} W) = {s['p_margin_nonneg']:.6f} "
          f"[{s['margin_ci95_low']:.6f}, {s['margin_ci95_high']:.6f}]")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    result = runtime_bench(cfg, args.epsilons, args.trials, threads=args.threads)
    write_bench_csv(result, _out_path(args.out))
    print(f"wrote bench: {args.out} ({len(result.rows)} rows, {args.trials} trials; "
          f"{_BASELINE_NOTE})")
    return EXIT_OK


def cmd_oracle(args) -> int:
    s = _load_scenario(args.scenario)
    result = solve(s, args.epsilon)
    grid = grid_optimum(s, args.grid)
    gap = abs(result.sum_rate_nats - grid.value)
    tolerance = args.epsilon + grid.error_bound
    verdict = "pass" if result.status == "optimal" and gap <= tolerance else "fail"
    report = {
        "verdict": verdict,
        "gap": gap,
        "tolerance": tolerance,
        "epsilon": args.epsilon,
        "grid": {
            "value": grid.value,
            "error_bound": grid.error_bound,
            "lipschitz": grid.lipschitz,
            "covering_radius": grid.covering_radius,
            "points_per_dim": args.grid,
            "evaluated": grid.evaluated,
            "q": grid.q.tolist(),
        },
        "solver": result.to_json_dict(),
    }
    _write_json(args.out, report)
    print(f"oracle verdict: {verdict} (solver={result.sum_rate_nats:.12g}, "
          f"grid={grid.value:.12g}, gap={gap:.12g}, tolerance={tolerance:.12g})")
    if result.status == "budget_exceeded":
        return EXIT_BUDGET
    return EXIT_OK


def _add_config_flags(p):
    p.add_argument("--config", help="radio config JSON file (defaults apply if omitted)")
    p.add_argument("--set", action="append", metavar="FIELD=VALUE",
                   help="override a config field (value parsed as JSON; repeatable)")


def build_parser() -> _Parser:
    parser = _Parser(prog="nomaopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a scenario from a radio config")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="scenario JSON output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run the certified solver on a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON input path")
    p.add_argument("--epsilon", type=_positive_float, required=True,
                   help="optimality gap target in nats")
    p.add_argument("--out", required=True, help="result JSON output path")
    p.add_argument("--trace", help="optional per-iteration bounds CSV path")
    p.add_argument("--max-iterations", type=_positive_int, default=MAX_ITERATIONS)
    p.add_argument("--max-vertices", type=_positive_int, default=MAX_VERTICES)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="mean sum rate vs power cap for solver and baselines")
    _add_config_flags(p)
    p.add_argument("--caps", type=_float_list, required=True,
                   help="comma-separated per-carrier caps in watts")
    p.add_argument("--epsilons", type=_float_list, required=True,
                   help="comma-separated gap targets")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--out", required=True, help="sweep CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cdf", help="empirical CDF of the pairwise decodability statistic")
    _add_config_flags(p)
    p.add_argument("--samples", type=_positive_int, required=True,
                   help="number of independent user drops")
    p.add_argument("--out", required=True, help="cdf CSV output path")
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("bench", help="solver runtime vs epsilon")
    _add_config_flags(p)
    p.add_argument("--epsilons", type=_float_list, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--out", required=True, help="bench CSV output path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="cross-check the solver against the grid search")
    p.add_argument("--scenario", required=True, help="scenario JSON input path")
    p.add_argument("--grid", type=_positive_int, default=400,
                   help="grid points per power coordinate (default 400)")
    p.add_argument("--epsilon", type=_positive_float, default=0.01,
                   help="solver gap target (default 0.01)")
    p.add_argument("--out", required=True, help="report JSON output path")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"nomaopt {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
