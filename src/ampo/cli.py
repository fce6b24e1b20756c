"""Command-line front end.

Subcommands: price, greeks, statics, examples {1|2|3}, optimize,
validate. Numeric output is full double precision in json/csv (shortest
round-trip representation) and rounded to 6 significant digits in the
table view. Exit codes: 0 success, 1 oracle/validation check failure,
2 argument or out-of-region request, 3 internal solver error.

A config file (lines of `key = value`, `#` comments, keys named like the
long flags without the leading dashes) can pre-fill any flag; explicit
flags win over the file, the file wins over built-in defaults. The
AMPO_OUTPUT environment variable sets the default output format.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .analysis import (
    StrategyKind,
    StrategySpec,
    effective_notional_curve,
    optimize_q,
    positional_vega,
    ratio_study,
)
from .greeks import greeks_report
from .oracle import LatticeConfig, finite_difference, lattice_price, pde_residual
from .params import (
    AmpoError,
    ContractParams,
    ConvergenceError,
    MarketParams,
    OptionKind,
    RegionError,
    ValidationError,
)
from .pricing import compute_exponents, price, to_equivalent_perpetual
from .statics import statics_report
from . import greeks as greeks_mod

_DEFAULTS = {
    "spot": 100.0,
    "strike": 100.0,
    "rate": 0.05,
    "vol": 0.5,
    "output": "table",
    "budget": 100.0,
}


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


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


_FLAG_TYPES = {
    "spot": float,
    "strike": float,
    "rate": float,
    "vol": float,
    "amort": float,
    "q_min": float,
    "q_max": float,
    "q_steps": int,
    "budget": float,
    "steps": int,
    "tolerance": float,
    "perturb": float,
    "kind": str,
    "output": str,
}


def _resolve(args: argparse.Namespace, required: tuple[str, ...]) -> dict:
    """Merge flags over config-file values over built-in defaults."""
    merged = dict(_DEFAULTS)
    env_output = os.environ.get("AMPO_OUTPUT")
    if env_output:
        merged["output"] = env_output
    if getattr(args, "config", None):
        raw = _read_config(args.config)
        for key, val in raw.items():
            if key not in _FLAG_TYPES:
                raise ValidationError(f"unknown config key {key!r}")
            try:
                merged[key] = _FLAG_TYPES[key](val)
            except ValueError:
                raise ValidationError(
                    f"config key {key!r}: expected {_FLAG_TYPES[key].__name__}, got {val!r}"
                ) from None
    for key in _FLAG_TYPES:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if merged.get("output") not in ("json", "csv", "table"):
        raise ValidationError(f"output must be json, csv or table, got {merged.get('output')!r}")
    for key in required:
        if key not in merged:
            raise ValidationError(f"missing required parameter: {key.replace('_', '-')}")
    return merged


def _market(v: dict) -> MarketParams:
    return MarketParams(spot=v["spot"], rate=v["rate"], vol=v["vol"])


def _kind(enum, value: str):
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(e.value for e in enum)
        raise ValidationError(f"kind must be one of {choices}, got {value!r}") from None


def _contract(v: dict) -> ContractParams:
    return ContractParams(strike=v["strike"], amort=v["amort"], kind=_kind(OptionKind, v["kind"]))


def _inputs(v: dict, keys: tuple[str, ...]) -> dict:
    return {k: v[k] for k in keys}


_QUOTE_KEYS = ("kind", "spot", "strike", "rate", "vol", "amort")


def _cmd_price(args) -> int:
    v = _resolve(args, ("kind", "amort"))
    m, c = _market(v), _contract(v)
    quote = price(m, c)
    ex = compute_exponents(m, c.amort)
    record = {
        **_inputs(v, _QUOTE_KEYS),
        "premium": quote.premium,
        "boundary": quote.boundary,
        "regime": quote.regime.value,
        "alpha_c": ex.alpha_c,
        "alpha_p": ex.alpha_p,
        "alpha_bar": ex.alpha_bar,
    }
    _emit_record(record, v["output"])
    return 0


def _cmd_greeks(args) -> int:
    v = _resolve(args, ("kind", "amort"))
    m, c = _market(v), _contract(v)
    rep = greeks_report(m, c)
    record = {**_inputs(v, _QUOTE_KEYS), **dataclasses.asdict(rep)}
    _emit_record(record, v["output"])
    return 0


def _cmd_statics(args) -> int:
    v = _resolve(args, ("kind", "amort"))
    m, c = _market(v), _contract(v)
    rep = statics_report(m, c)
    record = {
        **_inputs(v, _QUOTE_KEYS),
        "d_premium_dq": rep.d_premium_dq,
        "d_boundary_dq": rep.d_boundary_dq,
        "d2_premium_dsigma_dq": rep.d2_premium_dsigma_dq,
        **dataclasses.asdict(rep.intermediates),
    }
    _emit_record(record, v["output"])
    return 0


def _q_grid(v: dict, lo: float, hi: float, steps: int) -> list[float]:
    q_min = v.get("q_min", lo)
    q_max = v.get("q_max", hi)
    n = v.get("q_steps", steps)
    if not (0.0 < q_min <= q_max) or n < 1:
        raise ValidationError(
            f"bad q grid: q-min {q_min}, q-max {q_max}, q-steps {n}"
        )
    if n == 1:
        return [q_max]
    return [q_min + (q_max - q_min) * i / (n - 1) for i in range(n)]


def _cmd_examples(args) -> int:
    v = _resolve(args, ())
    m = _market(v)
    strike = v["strike"]
    if args.example == 1:
        grid = _q_grid(v, 0.05, 1.0, 20)
        rows = [
            {
                "q": res.q,
                "effective_maturity": res.effective_maturity,
                "effective_notional": res.effective_notional,
            }
            for res in effective_notional_curve(m, strike, grid)
        ]
    elif args.example == 2:
        grid = _q_grid(v, 0.05, 1.0, 20)
        rows = [
            {"q": pt.q, "gamma_ratio": pt.gamma_ratio, "theta_ratio": pt.theta_ratio}
            for pt in ratio_study(m, strike, grid)
        ]
    else:
        grid = _q_grid(v, 0.01, 1.0, 100)
        specs = {
            kind.value: StrategySpec(kind=kind, budget=v["budget"])
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
    _emit_rows(rows, v["output"])
    return 0


def _cmd_optimize(args) -> int:
    v = _resolve(args, ("kind",))
    m = _market(v)
    spec = StrategySpec(kind=_kind(StrategyKind, v["kind"]), budget=v["budget"])
    q_lo = v.get("q_min", 0.001)
    q_hi = v.get("q_max", 1.0)
    res = optimize_q(m, v["strike"], spec, (q_lo, q_hi), grid_points=v.get("q_steps", 201))
    record = {
        "kind": v["kind"],
        "spot": v["spot"],
        "strike": v["strike"],
        "rate": v["rate"],
        "vol": v["vol"],
        "budget": v["budget"],
        "q_min": q_lo,
        "q_max": q_hi,
        "q_star": res.q_star,
        "positional_vega_at_star": res.positional_vega_at_star,
        "boundary_maximum": res.boundary_maximum,
        "multimodal": res.multimodal,
    }
    _emit_record(record, v["output"])
    return 0


def _validate_checks(v: dict) -> list[dict]:
    m, c = _market(v), _contract(v)
    quote = price(m, c)
    checks = []

    cfg = LatticeConfig(steps=v.get("steps", 4000), convergence=v.get("tolerance", 5e-3))
    try:
        rep = lattice_price(to_equivalent_perpetual(c, m), m, cfg)
        bd_err = abs(rep.boundary_estimate - quote.boundary) / quote.boundary
        checks.append(
            {"check": "lattice_price", "value": rep.rel_error, "limit": 5e-3,
             "passed": rep.rel_error < 5e-3}
        )
        checks.append(
            {"check": "lattice_boundary", "value": bd_err, "limit": 0.02,
             "passed": bd_err < 0.02}
        )
    except ConvergenceError as exc:
        checks.append(
            {"check": "lattice_convergence", "value": str(exc), "limit": cfg.convergence,
             "passed": False}
        )

    if quote.regime.value == "continuation":
        lo = min(m.spot, quote.boundary)
        hi = max(m.spot, quote.boundary)
        if c.kind == OptionKind.CALL:
            spots = [0.5 * lo + (hi * 0.999 - 0.5 * lo) * i / 9 for i in range(10)]
        else:
            spots = [lo * 1.001 + (1.5 * hi - lo * 1.001) * i / 9 for i in range(10)]
        resid = max(pde_residual(m, c, spots, premium_scale=v.get("perturb", 1.0)))
        checks.append(
            {"check": "pde_residual", "value": resid, "limit": 1e-8, "passed": resid < 1e-8}
        )

        def prem_of_spot(s):
            return price(dataclasses.replace(m, spot=s), c).premium

        def prem_of_vol(sig):
            return price(dataclasses.replace(m, vol=sig), c).premium

        margin = abs(quote.boundary - m.spot) / m.spot
        h = min(1e-4, max(margin / 4.0, 1e-7))
        fd_checks = (
            ("fd_delta", greeks_mod.delta(m, c), finite_difference(prem_of_spot, m.spot, 1, "central", h)),
            ("fd_gamma", greeks_mod.gamma(m, c), finite_difference(prem_of_spot, m.spot, 2, "central", h)),
            ("fd_vega", greeks_mod.vega(m, c), finite_difference(prem_of_vol, m.vol, 1, "central", 1e-4)),
        )
        for name, analytic, fd in fd_checks:
            err = abs(analytic - fd) / max(abs(analytic), 1e-12)
            checks.append(
                {"check": name, "value": err, "limit": 1e-5, "passed": err < 1e-5}
            )
    return checks


def _cmd_validate(args) -> int:
    v = _resolve(args, ("kind", "amort"))
    checks = _validate_checks(v)
    _emit_rows(checks, v["output"])
    failing = [c["check"] for c in checks if not c["passed"]]
    if failing:
        print(f"FAILED: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _add_common(parser: argparse.ArgumentParser, contract: bool = True) -> None:
    parser.add_argument("--spot", type=float)
    parser.add_argument("--strike", type=float)
    parser.add_argument("--rate", type=float)
    parser.add_argument("--vol", type=float)
    if contract:
        parser.add_argument("--kind", choices=["call", "put"])
        parser.add_argument("--amort", type=float)
    parser.add_argument("--output", choices=["json", "csv", "table"])
    parser.add_argument("--config")


def _add_q_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q-min", dest="q_min", type=float)
    parser.add_argument("--q-max", dest="q_max", type=float)
    parser.add_argument("--q-steps", dest="q_steps", type=int)
    parser.add_argument("--budget", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampo", description="Amortizing perpetual option analytics"
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("validate", help="oracle and consistency checks")
    _add_common(p)
    p.add_argument("--steps", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--perturb", type=float)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AmpoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
