"""Seeded outcome table of every public ampo function and input record.

Each function gets N seeded draws of its arguments, in turn from four
domains: the box, the full domain and the whole accepted range of
tools/domains.py, and mixed types and edges (box values, each number
kept, or given as an int, a bool, a Fraction, a float subclass, a Decimal
or a str, or replaced by one of domains.EDGES).
A row is the arguments and the outcome: every value with its type, floats
as float.hex, and an error as its type and message.

    python tools/outcomes.py --seed S --draws N [--src DIR]
        prints one sha256 per function and one over all rows
    python tools/outcomes.py --seed S --draws N [--src DIR] --against DIR
        lists the rows whose outcome differs between the two source trees,
        each with its kind, then the count of each kind; exits 1 when an
        exact-float row differs (the bit-identity gate), else 0
    python tools/outcomes.py --seed S --draws N [--src DIR] --rows
        prints the rows themselves, one JSON list per line

--src and --against name a directory holding the `ampo` package (the
`src` of a checkout); --src defaults to this checkout's. The draws depend
on the seed alone, never on the tree or PYTHONHASHSEED.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import math
import random
import re
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import domains
from domains import EDGES, SubFloat, log_uniform

SRC = Path(__file__).resolve().parents[1] / "src"

# arguments that are not numbers, or are meant as ints
NOT_NUMBERS = {"kind", "strategy", "steps", "order", "mode"}


# per domain, the range of maturity, t, notional, budget and horizon
SPANS = {"box": (1e-2, 1e2), "full": (1e-3, 1e3), "whole": domains.WIDE}


def base(rng: random.Random, domain: str) -> dict:
    """One draw of every argument, as exact floats, from `domain`."""
    rate, vol, q, spot, strike = domains.DRAWS[domain](rng)
    wide = SPANS[domain]
    q_lo = q * rng.uniform(0.01, 1.0)
    return {
        "spot": spot, "rate": rate, "vol": vol, "strike": strike, "amort": q,
        "kind": rng.choice(("call", "put")), "strategy": rng.choice(("call", "put", "straddle")),
        "maturity": log_uniform(rng, *wide), "t": log_uniform(rng, *wide),
        "notional": log_uniform(rng, *wide), "budget": log_uniform(rng, *wide),
        "q_grid": [q * rng.uniform(0.5, 2.0) for _ in range(rng.randint(1, 3))],
        "q_lo": q_lo, "q_hi": q_lo + q,
        "spots": [spot * rng.uniform(0.5, 1.5) for _ in range(rng.randint(1, 3))],
        "scale": rng.choice((1.0, 1.01, rng.uniform(0.5, 2.0))),
        "rate_eff": 2.0 * rate + q, "dividend_eff": rate + q,
        "horizon": log_uniform(rng, *wide), "steps": rng.choice((64, 500, 4000)),
        "convergence": rng.choice((None, 5e-3, log_uniform(rng, 1e-9, 1e-1))),
        "x": spot, "order": rng.choice((1, 2)), "mode": rng.choice(("central", "forward")),
        "step": log_uniform(rng, 1e-8, 1e-2),
    }


def mixed(rng: random.Random, x):
    """x kept, or given as another type, or replaced by an edge value."""
    if isinstance(x, list):
        return [mixed(rng, v) for v in x]
    if x is None or rng.random() < 0.5:
        return x
    as_types = (
        lambda v: int(v) if math.isfinite(v) else v, lambda v: math.ceil(v) if math.isfinite(v) else v,
        lambda v: v != 0.0, lambda v: Fraction(v) if math.isfinite(v) else v, SubFloat,
        lambda v: Decimal(repr(v)), repr, lambda v: rng.choice(EDGES),
    )
    return rng.choice(as_types)(x)


def draw(rng: random.Random, domain: str, names: tuple[str, ...]) -> dict:
    values = base(rng, "box" if domain == "mixed" else domain)
    args = {name: values[name] for name in names}
    if domain == "mixed":
        for name in names:
            if name in ("kind", "strategy"):
                args[name] = rng.choice(("call", "put", "straddle", args[name], args[name]))
            elif name == "steps":
                args[name] = rng.choice((args[name], args[name], 2, 1, 2.5, True))
            elif name not in NOT_NUMBERS:
                args[name] = mixed(rng, args[name])
    return args


def functions(ampo) -> dict:
    """name -> (argument names, call on the drawn arguments)."""
    def market(a):
        return ampo.MarketParams(a["spot"], a["rate"], a["vol"])

    def contract(a):
        return ampo.ContractParams(a["strike"], a["amort"], a["kind"])

    def cfg(a):
        return ampo.LatticeConfig(steps=a["steps"], convergence=a["convergence"])

    def spec(a):
        return ampo.StrategySpec(a["strategy"], a["budget"])

    quote = ("spot", "rate", "vol", "strike", "amort", "kind")
    table = {
        "MarketParams": (("spot", "rate", "vol"), market),
        "ContractParams": (("strike", "amort", "kind"), contract),
        "AmortizationSchedule": (("notional", "amort"),
                                 lambda a: ampo.AmortizationSchedule(a["notional"], a["amort"])),
        "StrategySpec": (("strategy", "budget"), spec),
        "LatticeConfig": (("horizon", "steps", "convergence"),
                          lambda a: ampo.LatticeConfig(a["horizon"], a["steps"], a["convergence"])),
        "intrinsic_value": (("kind", "spot", "strike"),
                            lambda a: ampo.intrinsic_value(a["kind"], a["spot"], a["strike"])),
        "compute_exponents": (("spot", "rate", "vol", "amort"),
                              lambda a: ampo.compute_exponents(market(a), a["amort"])),
        "notional_at": (("notional", "amort", "t"), lambda a: ampo.notional_at(
            ampo.AmortizationSchedule(a["notional"], a["amort"]), a["t"])),
        "to_equivalent_perpetual": (quote, lambda a: ampo.to_equivalent_perpetual(contract(a), market(a))),
        "dated_bs_call": (("spot", "rate", "vol", "strike", "maturity"),
                          lambda a: ampo.dated_bs_call(market(a), a["strike"], a["maturity"])),
        "effective_maturity": (("spot", "rate", "vol", "strike", "amort"),
                               lambda a: ampo.effective_maturity(market(a), a["strike"], a["amort"])),
        "effective_notional_curve": (("spot", "rate", "vol", "strike", "q_grid"), lambda a: (
            ampo.effective_notional_curve(market(a), a["strike"], a["q_grid"]))),
        "ratio_study": (("spot", "rate", "vol", "strike", "q_grid"),
                        lambda a: ampo.ratio_study(market(a), a["strike"], a["q_grid"])),
        "positional_vega": (("spot", "rate", "vol", "strike", "strategy", "budget", "amort"), lambda a: (
            ampo.positional_vega(market(a), a["strike"], spec(a), a["amort"]))),
        "optimize_q": (("spot", "rate", "vol", "strike", "strategy", "budget", "q_lo", "q_hi"), lambda a: (
            ampo.optimize_q(market(a), a["strike"], spec(a), (a["q_lo"], a["q_hi"])))),
        "lattice_price": (
            ("spot", "rate", "vol", "rate_eff", "dividend_eff", "kind", "strike", "steps", "convergence"),
            lambda a: ampo.lattice_price(
                ampo.EquivalentPerpetual(a["rate_eff"], a["dividend_eff"], a["kind"], a["strike"]),
                market(a), cfg(a))),
        "pde_residual": ((*quote, "spots", "scale"),
                         lambda a: ampo.pde_residual(market(a), contract(a), a["spots"], a["scale"])),
        "validate_checks": ((*quote, "steps", "convergence", "scale"),
                            lambda a: ampo.validate_checks(market(a), contract(a), cfg(a), a["scale"])),
        "finite_difference": (("x", "order", "mode", "step"), lambda a: (
            ampo.finite_difference(math.atan, a["x"], a["order"], a["mode"], a["step"]))),
    }
    for name in ("price", "exercise_boundary", "greeks_report", "delta", "gamma", "vega",
                 "theta_economic", "statics_report", "d_premium_dq", "d_boundary_dq",
                 "d2_premium_dsigma_dq", "mixed_partial_factors", "limit_suite"):
        table[name] = (quote, lambda a, fn=getattr(ampo, name): fn(market(a), contract(a)))
    return table


def encode(x) -> str:
    """x with its type: floats as float.hex, records field by field."""
    if isinstance(x, BaseException):
        return f"!{type(x).__name__}: {x}"
    if isinstance(x, float):
        return f"{type(x).__name__}:{float.hex(x)}"
    if isinstance(x, enum.Enum):
        return f"{type(x).__name__}.{x.name}"
    if dataclasses.is_dataclass(x):
        inner = ", ".join(f"{f.name}={encode(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({inner})"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(map(encode, x)) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{k}: {encode(v)}" for k, v in x.items()) + "}"
    if x is None:
        return "None"
    return f"{type(x).__name__}:{x!r}"


def outcome(call, args: dict) -> str:
    try:
        return encode(call(args))
    except Exception as exc:
        return encode(exc)


def as_float(x):
    """The float twin of an argument: each number given as another type as
    its float (x + 0.0), where that arithmetic gives one."""
    if isinstance(x, list):
        return [as_float(v) for v in x]
    if type(x) is float:
        return x
    try:
        y = x + 0.0
    except Exception:
        return x
    return float(y) if isinstance(y, float) else x


def exact(args: dict) -> bool:
    """Whether every number among the arguments is an exact float."""
    def leaves(v):
        return [w for u in v for w in leaves(u)] if isinstance(v, list) else [v]
    return all(
        type(v) is float or v is None
        for name, value in args.items() if name not in NOT_NUMBERS for v in leaves(value)
    )


def rows(ampo, seed: int, draws: int) -> list[list]:
    """[function, arguments, outcome, whether every number is an exact float,
    outcome of the float twin or None] per draw."""
    out = []
    for name, (names, call) in functions(ampo).items():
        rng = random.Random(f"{seed}:{name}")
        for i in range(draws):
            args = draw(rng, ("box", "full", "whole", "mixed")[i % 4], names)
            twin, is_exact = None, exact(args)
            if not is_exact:
                floats = {k: (v if k in NOT_NUMBERS else as_float(v)) for k, v in args.items()}
                if exact(floats):
                    twin = outcome(call, floats)
            out.append([name, encode(args), outcome(call, args), is_exact, twin])
    return out


def digests(table: list[list]) -> dict[str, str]:
    """sha256 per function, in table order, and one over all rows."""
    per, total = {}, hashlib.sha256()
    for name, args, result, _, _ in table:
        line = f"{name}\t{args}\t{result}\n".encode()
        per.setdefault(name, hashlib.sha256()).update(line)
        total.update(line)
    return {**{name: h.hexdigest() for name, h in per.items()}, "all": total.hexdigest()}


_AMPO_ERRORS = {"ValidationError", "RegionError", "ConvergenceError", "NoSolutionError"}
# a number encoded with a type other than float, and its value
_TYPED = re.compile(r"\b(int|bool|SubFloat|Fraction):(Fraction\(-?\d+, \d+\)|[-+]?[\w.]+)")


def as_floats(encoded: str) -> str:
    """`encoded` with every int, bool, Fraction or float subclass as its float."""
    def to_float(match):
        kind, text = match.groups()
        if kind == "SubFloat":
            return f"float:{text}"
        if kind == "Fraction":
            value = Fraction(*map(int, text[9:-1].split(", ")))
        else:
            value = text == "True" if kind == "bool" else int(text)
        try:
            return f"float:{float(value).hex()}"
        except OverflowError:  # no float holds it
            return match.group()
    return _TYPED.sub(to_float, encoded)


def kind_of_change(is_exact: bool, old: str, new: str, twin: str | None) -> str:
    """How a row's outcome moved from `old` to `new`."""
    if is_exact:
        return "exact-float row"
    if old.startswith("!") and new.startswith("!"):
        old_type, new_type = old[1:].split(":")[0], new[1:].split(":")[0]
        if old_type == new_type:
            return "message"
        if new_type == "ValidationError" and old_type not in _AMPO_ERRORS:
            return "leak now ValidationError"
        return "other error"
    if as_floats(old) == new:
        return "now a float"
    if new == twin:
        return "error now the float row's value" if old.startswith("!") else "now the float row's bits"
    return "value <-> error" if old.startswith("!") or new.startswith("!") else "other value"


def tree_rows(src: str, seed: int, draws: int) -> list[list]:
    run = subprocess.run(
        [sys.executable, __file__, "--seed", str(seed), "--draws", str(draws), "--src", src, "--rows"],
        capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in run.stdout.splitlines()]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--draws", type=int, required=True, help="draws per function")
    ap.add_argument("--src", default=str(SRC), help="directory holding the ampo package")
    ap.add_argument("--against", help="another directory holding an ampo package")
    ap.add_argument("--rows", action="store_true", help="print the rows as JSON lines")
    args = ap.parse_args(argv)
    if args.against:
        ours = tree_rows(args.src, args.seed, args.draws)
        theirs = tree_rows(args.against, args.seed, args.draws)
        counts = Counter()
        for (name, call_args, new, is_exact, twin), (_, _, old, _, _) in zip(ours, theirs):
            if new != old:
                kind = kind_of_change(is_exact, old, new, twin)
                counts[name, kind] += 1
                print(f"{name}\t{call_args}\n  {args.against}: {old}\n  {args.src}: {new}\n  [{kind}]")
        for (name, kind), n in sorted(counts.items()):
            print(f"{n:>7}  {name}: {kind}")
        print(f"{sum(counts.values()):>7}  rows differ of {len(ours)}")
        return int(any(kind == "exact-float row" for _, kind in counts))
    sys.path.insert(0, str(Path(args.src).resolve()))
    import ampo

    table = rows(ampo, args.seed, args.draws)
    if args.rows:
        for row in table:
            print(json.dumps(row))
        return 0
    for name, digest in digests(table).items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
