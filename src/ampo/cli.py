"""Command-line front end.

Subcommands: price, greeks, statics, examples {1|2|3}, optimize,
validate. The front end only parses and prints: each subcommand builds
its inputs, calls public `ampo` functions (validate prints the records
of ampo.oracle.validate_checks) and emits what they return. Numeric
output is full double precision in json/csv (shortest round-trip
representation) and rounded to 6 significant digits in the table view.
Exit codes: 0 success, 1 oracle/validation check failure, 2 argument or
out-of-region request, 3 internal solver error. Each subcommand imports
only the modules it runs, and json only for json output, so a fresh
process loads no more than its command needs.

Each option is a flag of its subcommand, and build_parser declares its
type, choices and default once. The AMPO_OUTPUT environment variable
and a config file (`--config path`: lines of `key = value` with `#`
comments, keys named like the long flags without the leading dashes)
are parsed as flags placed before the command line's own. The last
value of a flag wins, so defaults < AMPO_OUTPUT < config < flags. A
config key must be a flag of the chosen subcommand. Every argument
error, whether from a flag, a config key or AMPO_OUTPUT, is one
`error:` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .params import AmpoError, ContractParams, MarketParams, OptionKind, RegionError
from .params import ValidationError


def _fmt_full(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _fmt_table(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _emit_record(record: dict, output: str) -> None:
    if output == "json":
        import json
        print(json.dumps(record, indent=2))
    elif output == "csv":
        keys = list(record)
        print(",".join(keys))
        print(",".join(_fmt_full(record[k]) for k in keys))
    else:
        width = max(len(k) for k in record)
        for k, v in record.items():
            print(f"{k:<{width}}  {_fmt_table(v)}")


def _emit_rows(rows: list[dict], output: str) -> None:
    if not rows:
        return
    keys = list(rows[0])
    if output == "json":
        import json
        print(json.dumps({"rows": rows}, indent=2))
    elif output == "csv":
        print(",".join(keys))
        for row in rows:
            print(",".join(_fmt_full(row[k]) for k in keys))
    else:
        cells = [[_fmt_table(row[k]) for k in keys] for row in rows]
        widths = [
            max(len(k), max(len(c[i]) for c in cells)) for i, k in enumerate(keys)
        ]
        print("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
        for c in cells:
            print("  ".join(v.ljust(w) for v, w in zip(c, widths)))


def _read_config(path: str, sub: argparse.ArgumentParser) -> list[str]:
    """The file's `key = value` lines as `--key=value` flags of `sub`, in file order."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = (part.strip() for part in line.partition("="))
        if not (sep and key):
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        if key == "config":
            raise ValidationError(f"{path}:{lineno}: a config file cannot name another")
        flag = "--" + key.replace("_", "-")
        # refused here, as argparse takes an unknown flag holding a space for a positional
        if flag not in sub._option_string_actions:
            raise ValidationError(f"unrecognized arguments: {flag}={val}")
        tokens.append(f"{flag}={val}")
    return tokens


def _require(args: argparse.Namespace, *names: str) -> None:
    """kind and amort have no default, and argparse cannot require them
    because a config file may supply them."""
    for name in names:
        if getattr(args, name) is None:
            raise ValidationError(f"missing required parameter: {name}")


def _market(args: argparse.Namespace) -> MarketParams:
    return MarketParams(spot=args.spot, rate=args.rate, vol=args.vol)


def _market_contract(args: argparse.Namespace) -> tuple[MarketParams, ContractParams]:
    _require(args, "kind", "amort")
    m = _market(args)
    return m, ContractParams(strike=args.strike, amort=args.amort, kind=OptionKind(args.kind))


def _inputs(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    return {k: getattr(args, k) for k in keys}


_QUOTE_KEYS = ("kind", "spot", "strike", "rate", "vol", "amort")


def _cmd_price(args) -> int:
    from .pricing import compute_exponents, price
    m, c = _market_contract(args)
    quote = price(m, c)
    ex = compute_exponents(m, c.amort)
    record = {
        **_inputs(args, _QUOTE_KEYS),
        "premium": quote.premium,
        "boundary": quote.boundary,
        "regime": quote.regime.value,
        **dataclasses.asdict(ex),
    }
    _emit_record(record, args.output)
    return 0


def _cmd_greeks(args) -> int:
    from .greeks import greeks_report
    m, c = _market_contract(args)
    rep = greeks_report(m, c)
    record = {**_inputs(args, _QUOTE_KEYS), **dataclasses.asdict(rep)}
    _emit_record(record, args.output)
    return 0


def _cmd_statics(args) -> int:
    from .statics import statics_report
    m, c = _market_contract(args)
    rep = statics_report(m, c)
    record = {
        **_inputs(args, _QUOTE_KEYS),
        "d_premium_dq": rep.d_premium_dq,
        "d_boundary_dq": rep.d_boundary_dq,
        "d2_premium_dsigma_dq": rep.d2_premium_dsigma_dq,
        **dataclasses.asdict(rep.intermediates),
    }
    _emit_record(record, args.output)
    return 0


def _q_grid(args, lo: float, steps: int) -> list[float]:
    """The q grid of an example; q-min and q-steps default per example."""
    q_min = lo if args.q_min is None else args.q_min
    n = steps if args.q_steps is None else args.q_steps
    q_max = args.q_max
    if not (0.0 < q_min <= q_max) or n < 1:
        raise ValidationError(
            f"bad q grid: q-min {q_min}, q-max {q_max}, q-steps {n}"
        )
    if n == 1:
        return [q_max]
    return [q_min + (q_max - q_min) * i / (n - 1) for i in range(n)]


def _cmd_examples(args) -> int:
    from .analysis import StrategyKind, StrategySpec, positional_vega
    from .analysis import effective_notional_curve, ratio_study
    m = _market(args)
    strike = args.strike
    if args.example == 1:
        grid = _q_grid(args, 0.05, 20)
        rows = [dataclasses.asdict(res) for res in effective_notional_curve(m, strike, grid)]
    elif args.example == 2:
        grid = _q_grid(args, 0.05, 20)
        rows = [dataclasses.asdict(pt) for pt in ratio_study(m, strike, grid)]
    else:
        grid = _q_grid(args, 0.01, 100)
        specs = {
            kind.value: StrategySpec(kind=kind, budget=args.budget)
            for kind in StrategyKind
        }
        rows = [
            {
                "q": q,
                **{
                    f"{name}_positional_vega": positional_vega(m, strike, spec, q)
                    for name, spec in specs.items()
                },
            }
            for q in grid
        ]
    _emit_rows(rows, args.output)
    return 0


def _cmd_optimize(args) -> int:
    from .analysis import StrategyKind, StrategySpec, optimize_q
    _require(args, "kind")
    m = _market(args)
    spec = StrategySpec(kind=StrategyKind(args.kind), budget=args.budget)
    res = optimize_q(m, args.strike, spec, (args.q_min, args.q_max), grid_points=args.q_steps)
    record = {
        **_inputs(args, ("kind", "spot", "strike", "rate", "vol", "budget", "q_min", "q_max")),
        "q_star": res.q_star,
        "positional_vega_at_star": res.positional_vega_at_star,
        "boundary_maximum": res.boundary_maximum,
        "multimodal": res.multimodal,
    }
    _emit_record(record, args.output)
    return 0


def _cmd_validate(args) -> int:
    from .oracle import LatticeConfig, validate_checks
    m, c = _market_contract(args)
    cfg = LatticeConfig(steps=args.steps, convergence=args.tolerance)
    checks = validate_checks(m, c, cfg, args.perturb)
    _emit_rows(checks, args.output)
    failing = [r["check"] for r in checks if not r["passed"]]
    if failing:
        print(f"FAILED: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises every argument error as a ValidationError: one `error:` line, exit 2."""

    def error(self, message):
        raise ValidationError(message)


def _add_common(parser: argparse.ArgumentParser, contract: bool = True) -> None:
    parser.add_argument("--spot", type=float, default=100.0)
    parser.add_argument("--strike", type=float, default=100.0)
    parser.add_argument("--rate", type=float, default=0.05)
    parser.add_argument("--vol", type=float, default=0.5)
    if contract:
        parser.add_argument("--kind", choices=["call", "put"])
        parser.add_argument("--amort", type=float)
    parser.add_argument("--output", choices=["json", "csv", "table"], default="table")
    parser.add_argument("--config")


def _add_q_grid(parser: argparse.ArgumentParser) -> None:
    # q-min and q-steps default per example (see _q_grid) and in optimize
    parser.add_argument("--q-min", type=float)
    parser.add_argument("--q-max", type=float, default=1.0)
    parser.add_argument("--q-steps", type=int)
    parser.add_argument("--budget", type=float, default=100.0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ampo", description="Amortizing perpetual option analytics")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("price", help="premium, boundary, regime, exponents")
    _add_common(p)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("greeks", help="analytic Greeks")
    _add_common(p)
    p.set_defaults(func=_cmd_greeks)

    p = sub.add_parser("statics", help="q-derivatives and mixed partial")
    _add_common(p)
    p.set_defaults(func=_cmd_statics)

    p = sub.add_parser("examples", help="curve data for the case studies")
    p.add_argument("example", type=int, choices=[1, 2, 3])
    _add_common(p, contract=False)
    _add_q_grid(p)
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("optimize", help="best amortization rate per strategy")
    _add_common(p, contract=False)
    p.add_argument("--kind", choices=["call", "put", "straddle"])
    _add_q_grid(p)
    p.set_defaults(func=_cmd_optimize, q_min=0.001, q_steps=201)

    p = sub.add_parser("validate", help="oracle and consistency checks")
    _add_common(p)
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--tolerance", type=float, default=5e-3)
    p.add_argument("--perturb", type=float, default=1.0)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # AMPO_OUTPUT and the config file are read as flags placed before
        # the command line's own, so the last value wins
        env_output = os.environ.get("AMPO_OUTPUT")
        if env_output or args.config:
            before = [f"--output={env_output}"] if env_output else []
            if args.config:
                before += _read_config(args.config, parser.commands[args.command])
            args = parser.parse_args([argv[0], *before, *argv[1:]])
        return args.func(args)
    except (ValidationError, RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AmpoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
