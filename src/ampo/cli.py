"""Command-line front end.

Subcommands: price, greeks, statics, examples {1|2|3}, optimize,
validate. The front end only parses and prints. _COMMANDS declares each
subcommand once: its help, its flags (type, choices and default), and
its builder, which calls public `ampo` functions and returns a record (a
dict) or rows (a list) for main to emit; validate's rows are the
records of ampo.oracle.validate_checks. Numeric output is full double
precision in json/csv (shortest round-trip representation) and rounded
to 6 significant digits in the table view. Exit codes: 0 success, 1
oracle/validation check failure, 2 argument or out-of-region request, 3
internal solver error. Each builder imports only the modules it runs,
and json only for json output, so a fresh process loads no more than
its command needs.

The AMPO_OUTPUT environment variable and a config file (`--config
path`: lines of `key = value` with `#` comments, keys named like the
long flags without the leading dashes) are parsed as flags placed before
the command line's own. The last value of a flag wins, so defaults <
AMPO_OUTPUT < config < flags. A config key must be a flag of the chosen
subcommand. Every argument error, whether from a flag, a config key or
AMPO_OUTPUT, is one `error:` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from .params import AmpoError, ContractParams, MarketParams, OptionKind, RegionError
from .params import ValidationError


def _fmt_table(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _emit_record(record: dict, output: str) -> None:
    if output == "json":
        import json
        print(json.dumps(record, indent=2))
    elif output == "csv":
        _emit_rows([record], output)
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
            print(",".join(str(row[k]) for k in keys))
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


def _asdict(record) -> dict:
    """A record's fields, in order, as a dict: dataclasses.asdict's keys and
    values for a record that holds no other record."""
    return {name: getattr(record, name) for name in record.__match_args__}


_QUOTE_KEYS = ("kind", "spot", "strike", "rate", "vol", "amort")


def _cmd_price(args) -> dict:
    from .pricing import compute_exponents, price
    m, c = _market_contract(args)
    record = {**_inputs(args, _QUOTE_KEYS), **_asdict(price(m, c))}
    record["regime"] = record["regime"].value
    return {**record, **_asdict(compute_exponents(m, c.amort))}


def _cmd_greeks(args) -> dict:
    from .greeks import greeks_report
    m, c = _market_contract(args)
    return {**_inputs(args, _QUOTE_KEYS), **_asdict(greeks_report(m, c))}


def _cmd_statics(args) -> dict:
    from .statics import statics_report
    m, c = _market_contract(args)
    record = {**_inputs(args, _QUOTE_KEYS), **_asdict(statics_report(m, c))}
    record.update(_asdict(record.pop("intermediates")))
    return record


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


def _cmd_examples(args) -> list[dict]:
    from .analysis import StrategyKind, StrategySpec, positional_vega
    from .analysis import effective_notional_curve, ratio_study
    m, strike = _market(args), args.strike
    if args.example < 3:
        study = effective_notional_curve if args.example == 1 else ratio_study
        return [_asdict(pt) for pt in study(m, strike, _q_grid(args, 0.05, 20))]
    grid = _q_grid(args, 0.01, 100)
    specs = [StrategySpec(kind=kind, budget=args.budget) for kind in StrategyKind]
    return [
        {"q": q, **{f"{s.kind.value}_positional_vega": positional_vega(m, strike, s, q)
                    for s in specs}}
        for q in grid
    ]


def _cmd_optimize(args) -> dict:
    from .analysis import StrategyKind, StrategySpec, optimize_q
    _require(args, "kind")
    m = _market(args)
    spec = StrategySpec(kind=StrategyKind(args.kind), budget=args.budget)
    res = optimize_q(m, args.strike, spec, (args.q_min, args.q_max), grid_points=args.q_steps)
    keys = ("kind", "spot", "strike", "rate", "vol", "budget", "q_min", "q_max")
    record = {**_inputs(args, keys), **_asdict(res)}
    del record["curve"]
    return record


def _cmd_validate(args) -> list[dict]:
    from .oracle import LatticeConfig, validate_checks
    m, c = _market_contract(args)
    cfg = LatticeConfig(steps=args.steps, convergence=args.tolerance)
    return validate_checks(m, c, cfg, args.perturb)


class _Parser(argparse.ArgumentParser):
    """Raises every argument error as a ValidationError: one `error:` line, exit 2."""

    def error(self, message):
        raise ValidationError(message)


# (flag, add_argument keywords), in the order --help lists them
_MARKET = (
    ("--spot", {"type": float, "default": 100.0}),
    ("--strike", {"type": float, "default": 100.0}),
    ("--rate", {"type": float, "default": 0.05}),
    ("--vol", {"type": float, "default": 0.5}),
)
_IO = (("--output", {"choices": ["json", "csv", "table"], "default": "table"}), ("--config", {}))
_QUOTE = (*_MARKET, ("--kind", {"choices": ["call", "put"]}), ("--amort", {"type": float}), *_IO)
# q-min and q-steps default per example (see _q_grid) and in optimize
_Q_GRID = (
    ("--q-min", {"type": float}),
    ("--q-max", {"type": float, "default": 1.0}),
    ("--q-steps", {"type": int}),
    ("--budget", {"type": float, "default": 100.0}),
)
_LATTICE = (
    ("--steps", {"type": int, "default": 4000}),
    ("--tolerance", {"type": float, "default": 5e-3}),
    ("--perturb", {"type": float, "default": 1.0}),
)
_EXAMPLE = ("example", {"type": int, "choices": [1, 2, 3]})
_STRATEGY = ("--kind", {"choices": ["call", "put", "straddle"]})

# subcommand: (help, builder of its record (a dict) or rows (a list), flags, set defaults)
_COMMANDS = {
    "price": ("premium, boundary, regime, exponents", _cmd_price, _QUOTE, {}),
    "greeks": ("analytic Greeks", _cmd_greeks, _QUOTE, {}),
    "statics": ("q-derivatives and mixed partial", _cmd_statics, _QUOTE, {}),
    "examples": ("curve data for the case studies", _cmd_examples,
                 (_EXAMPLE, *_MARKET, *_IO, *_Q_GRID), {}),
    "optimize": ("best amortization rate per strategy", _cmd_optimize,
                 (*_MARKET, *_IO, _STRATEGY, *_Q_GRID), {"q_min": 0.001, "q_steps": 201}),
    "validate": ("oracle and consistency checks", _cmd_validate, (*_QUOTE, *_LATTICE), {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ampo", description="Amortizing perpetual option analytics")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    for name, (help_text, _, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(**defaults)
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
        out = _COMMANDS[args.command][1](args)
    except (ValidationError, RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AmpoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if isinstance(out, dict):
        _emit_record(out, args.output)
        return 0
    _emit_rows(out, args.output)
    failing = [row["check"] for row in out if not row.get("passed", True)]
    if failing:
        print(f"FAILED: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
