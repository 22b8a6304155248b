"""Command-line front end.

Subcommands: opt, demand, run, bench, verify, probe-demand.  A JSON config
file may supply any long-option value of the chosen subcommand under its
flag name (dashes or underscores).  Each value becomes that flag's text (a
JSON string as it is, anything else as its JSON text, `null` as absent) and
is parsed ahead of the command line's own flags, so it passes the same type
and choice checks and explicit flags win.  Exit codes: 0 all good, 2 a
verification check failed, 1 usage or file errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .files import (ParseError, load_configuration, load_hst, load_metric, load_requests,
                    parse_int, parse_rational)
from .generators import parse_generator
from .harness import (CSV_HEADER, probe_demand_monotonicity, render_rational, reports_to_csv,
                      run_trials, solver_guard_ok)
from .metric import build_uniform
from .offline import demand as demand_op, opt_cost
from .verify import checks_to_csv, run_ama_suite, run_contract_suite, run_lower_bound_suite

USAGE_ERROR = 1
CHECK_FAILURE = 2

# probe-demand pushes every prefix of every sequence up to --max-len (the sum
# of L * points**L); beyond this many pushes, over 15 s of work at the fastest
# rate measured (one point, about 355k pushes/s), it refuses instead
PROBE_MAX_PUSHES = 5_500_000


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for check failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


# the default of an option a command cannot run without; checked after the
# config file is merged, so the config may supply the option
_REQUIRED = object()


def _option_type(parse):
    """An argparse type that parses with `parse` and reports its message."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_integer, _rational = _option_type(parse_int), _option_type(parse_rational)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ksim")
    parser.add_argument("--version", action="version", version=f"ksim {__version__}")
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("opt", help="offline optimum for a request file")
    p_opt.add_argument("--metric", default=_REQUIRED)
    p_opt.add_argument("--servers", type=_integer, default=_REQUIRED)
    p_opt.add_argument("--requests", default=_REQUIRED)
    p_opt.add_argument("--initial", help="file with the fixed starting configuration")

    p_dem = sub.add_parser("demand", help="block demand of a request file")
    p_dem.add_argument("--metric", default=_REQUIRED)
    p_dem.add_argument("--delta", type=_rational, default=_REQUIRED,
                       help="separation cost, integer or p/q")
    p_dem.add_argument("--requests", default=_REQUIRED)

    p_run = sub.add_parser("run", help="one seeded online run")
    p_run.add_argument("--hst", default=_REQUIRED)
    p_run.add_argument("--k", type=_integer, default=_REQUIRED)
    p_run.add_argument("--gen", default=_REQUIRED, help="kind[:key=value,...]")
    p_run.add_argument("--seed", type=_integer, default=0)
    p_run.add_argument("--length", type=_integer, default=50)
    p_run.add_argument("--events", help="write the event log here (height 2 or more)")

    p_bench = sub.add_parser("bench", help="seeded trial batch, CSV out")
    p_bench.add_argument("--hst", default=_REQUIRED)
    p_bench.add_argument("--k", type=_integer, default=_REQUIRED)
    p_bench.add_argument("--gen", default="uniform_random")
    p_bench.add_argument("--trials", type=_integer, default=_REQUIRED)
    p_bench.add_argument("--seed", type=_integer, default=0)
    p_bench.add_argument("--length", type=_integer, default=50)
    p_bench.add_argument("--out", default=_REQUIRED)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=["all", "ama", "lower", "contract"],
                       default="all")
    p_ver.add_argument("--runs", type=_integer, default=20,
                       help="runs per desk instance for the lower-bound suite")
    p_ver.add_argument("--seeds", type=_integer, default=2000,
                       help="seed count for the expectation suites")
    p_ver.add_argument("--seed", type=_integer, default=0)
    p_ver.add_argument("--out", help="write check reports as CSV here")

    p_probe = sub.add_parser("probe-demand", help="prefix-demand step behaviour")
    p_probe.add_argument("--points", type=_integer, default=3)
    p_probe.add_argument("--d", type=_rational, default="1", help="uniform block distance")
    p_probe.add_argument("--delta", type=_rational, default=_REQUIRED)
    p_probe.add_argument("--max-len", type=_integer, default=6)
    return parser


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            defaults = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"config file: {exc}")
    if not isinstance(defaults, dict):
        raise CliError("config file must hold a JSON object")
    # the namespace holds the subcommand's options plus the top-level
    # `command` and `config`, which a config file must not set
    options = set(vars(args)) - {"command", "config"}
    tokens = []
    for key, value in defaults.items():
        attr = key.replace("-", "_")
        if attr in options and value is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            tokens.append(f"--{attr.replace('_', '-')}={text}")
    # before the subcommand stand only --config options, each one token
    # (--config=FILE) or two; the flags after it are parsed later, so they win
    i = 0
    while argv[i] != args.command:
        i += 1 if "=" in argv[i] else 2
    return parser.parse_args(argv[:i + 1] + tokens + argv[i + 1:])


def _check_required(args) -> None:
    # the namespace holds the options in declaration order
    missing = [name for name, value in vars(args).items() if value is _REQUIRED]
    if missing:
        raise CliError(f"{args.command}: missing required option(s): "
                       + ", ".join(f"--{m}" for m in missing))


def _cmd_opt(args) -> int:
    metric = load_metric(args.metric)
    rho = load_requests(args.requests, metric.n)
    initial = None
    if args.initial:
        initial = load_configuration(args.initial, metric.n)
    # a negative count is left to opt_cost's own range error
    if args.servers >= 0 and not solver_guard_ok(metric.n, args.servers, len(rho)):
        raise CliError(f"opt: {metric.n} points, {args.servers} servers and {len(rho)} "
                       f"requests are beyond the solver's size limit")
    result = opt_cost(metric, args.servers, rho, initial=initial)
    print(f"cost {render_rational(result.cost)}")
    if result.config is not None:
        print("config " + " ".join(str(p) for p in sorted(result.config)))
    return 0


def _cmd_demand(args) -> int:
    metric = load_metric(args.metric)
    rho = load_requests(args.requests, metric.n)
    # a DP level too wide to keep raises ValueError (DEMAND_LEVEL_GUARD)
    print(f"demand {demand_op(metric, args.delta, rho)}")
    return 0


def _run_inputs(args):
    space = load_hst(args.hst)
    return space, parse_generator(args.gen, length=args.length, seed=args.seed ^ 0x5EED)


def _cmd_run(args) -> int:
    space, gen = _run_inputs(args)
    events = None
    if args.events:
        if space.height < 2:
            print("no event log: a height-1 tree runs marking, and only shell runs "
                  "produce events", file=sys.stderr)
        else:
            events = []
    # one trial, bounded by --length: the log is written only once it succeeded
    rep = run_trials(space, args.k, "algox", gen, 1, args.seed,
                     event_sink=None if events is None else events.append)[0]
    if events is not None:
        with open(args.events, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in events)
    for name in CSV_HEADER.split(",")[1:]:  # every trial field but the seed
        print(f"{name} {render_rational(getattr(rep, name))}")
    return 0


def _cmd_bench(args) -> int:
    space, gen = _run_inputs(args)
    reports = run_trials(space, args.k, "algox", gen, args.trials, args.seed)
    csv_text = reports_to_csv(reports)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text)
    print(f"wrote {len(reports)} trials to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    all_reports = []
    ok = True
    if args.suite in ("all", "lower"):
        reports, passed = run_lower_bound_suite(runs_per_instance=args.runs,
                                          base_seed=args.seed ^ 0xA5)
        all_reports.extend(reports)
        ok = ok and passed
        print(f"lower: {sum(r.passed for r in reports)}/{len(reports)} checks passed")
    if args.suite in ("all", "ama"):
        reports, passed = run_ama_suite(seeds=args.seeds, base_seed=args.seed ^ 0xB6)
        all_reports.extend(reports)
        ok = ok and passed
        print(f"ama: {sum(r.passed for r in reports)}/{len(reports)} checks passed "
              f"(hard limit {'ok' if passed else 'EXCEEDED'})")
    if args.suite in ("all", "contract"):
        reports, passed = run_contract_suite(seeds=args.seeds,
                                             base_seed=args.seed ^ 0xC7)
        all_reports.extend(reports)
        ok = ok and passed
        print(f"contract: {sum(r.passed for r in reports)}/{len(reports)} checks passed")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(checks_to_csv(all_reports))
    if not ok:
        failing = [r for r in all_reports if not r.passed and not r.advisory]
        for r in failing[:10]:
            print(f"FAILED {r.name} phase={r.phase} lhs={r.lhs} rhs={r.rhs} "
                  f"context={r.context}", file=sys.stderr)
        return CHECK_FAILURE
    return 0


def _cmd_probe(args) -> int:
    metric = build_uniform(args.points, args.d)
    pushes = 0
    for length in range(1, args.max_len + 1):
        pushes += length * args.points ** length
        if pushes > PROBE_MAX_PUSHES:
            raise CliError(f"--max-len {args.max_len} over {args.points} points pushes "
                           f"more than {PROBE_MAX_PUSHES} prefixes; lower --max-len")
    summary = probe_demand_monotonicity(metric, args.delta, max_len=args.max_len)
    print(f"sequences {summary.sequences}")
    print(f"prefixes {summary.prefixes}")
    print(f"decreases {summary.decreases}")
    print(f"max_step {summary.max_step}")
    print(summary.verdict)
    return 0


_COMMANDS = {
    "opt": _cmd_opt,
    "demand": _cmd_demand,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
    "probe-demand": _cmd_probe,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = _parse_args(parser, argv)
        _check_required(args)
        return _COMMANDS[args.command](args)
    except (CliError, ParseError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
