"""Every accepted number is held as its float: a number given as an int, a
bool, a Fraction or a float subclass gives the outcome of its float, bit
for bit, and every returned number and record field is a float."""

import dataclasses
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import ampo
from ampo import (
    AmortizationSchedule,
    ContractParams,
    ConvergenceError,
    EquivalentPerpetual,
    LatticeConfig,
    MarketParams,
    StrategySpec,
    ValidationError,
)
from domains import SubFloat, box, full


def _market(a):
    return MarketParams(a["spot"], a["rate"], a["vol"])


def _contract(a):
    return ContractParams(a["strike"], a["q"], a["kind"])


def _config(a):
    return LatticeConfig(a["horizon"], a["steps"], a["convergence"])


def _spec(a):
    return StrategySpec(a["strategy"], a["budget"])


# every public function and input record, on the numbers of one draw
_CALLS = {
    "MarketParams": _market,
    "ContractParams": _contract,
    "LatticeConfig": _config,
    "StrategySpec": _spec,
    "AmortizationSchedule": lambda a: AmortizationSchedule(a["notional"], a["q"]),
    "intrinsic_value": lambda a: ampo.intrinsic_value(a["kind"], a["spot"], a["strike"]),
    "compute_exponents": lambda a: ampo.compute_exponents(_market(a), a["q"]),
    "notional_at": lambda a: ampo.notional_at(AmortizationSchedule(a["notional"], a["q"]), a["t"]),
    "dated_bs_call": lambda a: ampo.dated_bs_call(_market(a), a["strike"], a["maturity"]),
    "effective_maturity": lambda a: ampo.effective_maturity(_market(a), a["strike"], a["q"]),
    "effective_notional_curve": lambda a: ampo.effective_notional_curve(_market(a), a["strike"], a["grid"]),
    "ratio_study": lambda a: ampo.ratio_study(_market(a), a["strike"], a["grid"]),
    "positional_vega": lambda a: ampo.positional_vega(_market(a), a["strike"], _spec(a), a["q"]),
    "optimize_q": lambda a: ampo.optimize_q(_market(a), a["strike"], _spec(a), (a["q_lo"], a["q_hi"])),
    "lattice_price": lambda a: ampo.lattice_price(
        EquivalentPerpetual(a["rate_eff"], a["dividend_eff"], a["kind"], a["strike"]), _market(a), _config(a)
    ),
    "pde_residual": lambda a: ampo.pde_residual(_market(a), _contract(a), a["spots"], a["scale"]),
    "validate_checks": lambda a: ampo.validate_checks(_market(a), _contract(a), _config(a), a["scale"]),
    "finite_difference": lambda a: ampo.finite_difference(math.atan, a["spot"], 1, "central", a["step"]),
    **{
        name: (lambda fn: lambda a: fn(_market(a), _contract(a)))(getattr(ampo, name))
        for name in (
            "price", "exercise_boundary", "greeks_report", "delta", "gamma", "vega", "theta_economic",
            "statics_report", "d_premium_dq", "d_boundary_dq", "d2_premium_dsigma_dq",
            "mixed_partial_factors", "limit_suite", "to_equivalent_perpetual",
        )
    },
}
_NOT_NUMBERS = ("kind", "strategy", "steps")


def _draw(rng: random.Random) -> dict:
    """Exact floats from the box or the full domain of tools/domains.py; a
    third of the draws round the spot, strike, budget, notional, maturity
    and t to integers, so that ints and bools are drawn as well."""
    rate, vol, q, spot, strike = (box if rng.random() < 0.5 else full)(rng)
    a = {
        "spot": spot, "rate": rate, "vol": rng.choice((vol, vol, 1.0)), "strike": strike, "q": q,
        "kind": rng.choice(("call", "put")), "strategy": rng.choice(("call", "put", "straddle")),
        "budget": rng.uniform(1.0, 1e3), "notional": rng.uniform(0.5, 10.0),
        "maturity": rng.uniform(0.1, 30.0), "t": rng.uniform(0.0, 10.0),
        "grid": [q, q * rng.uniform(0.5, 2.0)], "q_lo": q * 0.1, "q_hi": q * 2.0,
        "spots": [spot * rng.uniform(0.5, 1.5) for _ in range(2)], "scale": rng.choice((1.0, 1.01)),
        "horizon": rng.uniform(1.0, 300.0), "steps": rng.choice((200, 4000)),
        "convergence": rng.choice((None, 5e-3, 1e-9)), "step": rng.uniform(1e-6, 1e-3),
    }
    a["rate_eff"], a["dividend_eff"] = 2.0 * rate + q, rate + q
    if rng.random() < 1 / 3:
        for name in ("spot", "strike", "budget", "notional", "maturity", "t"):
            a[name] = float(max(round(a[name]), 1))
    return a


def _given_as(rng: random.Random, x):
    """x, or a number of another type whose float is x: a Fraction, a float
    subclass, or an int or a bool where x is integral."""
    if isinstance(x, list):
        return [_given_as(rng, v) for v in x]
    if x is None:
        return x
    options = [x, Fraction(x), SubFloat(x)]
    if x.is_integer():
        options.append(int(x))
    if x in (0.0, 1.0):
        options.append(bool(x))
    return rng.choice(options)


def _leaves(x, name=""):
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _leaves(getattr(x, f.name), f.name)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _leaves(v, name)
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, k)
    else:
        yield name, x


def _outcome(call, args) -> list:
    """Every value with its name and type, floats as float.hex, or the error."""
    try:
        result = call(args)
    except Exception as exc:
        return [("raises", type(exc).__name__, str(exc))]
    return [(name, type(v).__name__, v.hex() if isinstance(v, float) else repr(v))
            for name, v in _leaves(result)]


def test_every_accepted_number_gives_the_outcome_of_its_float():
    rng = random.Random(32)
    compared = returned = 0
    for i in range(1500):
        name = list(_CALLS)[i % len(_CALLS)]
        if name == "optimize_q" and i % 3:  # a scan is about 1 ms
            continue
        floats = _draw(rng)
        given = {k: (v if k in _NOT_NUMBERS else _given_as(rng, v)) for k, v in floats.items()}
        want, got = _outcome(_CALLS[name], floats), _outcome(_CALLS[name], given)
        assert got == want, (name, given)
        compared += 1
        if got[0][0] == "raises":
            continue
        returned += 1
        # every number returned is a float; steps is an int and the flags are bools
        for field, type_name, _ in got:
            assert type_name in ("float", "bool", "str", "OptionKind", "Regime", "StrategyKind", "NoneType") or (
                field == "steps" and type_name == "int"
            ), (name, field, type_name)
    assert compared > 1300 and returned > 1000, (compared, returned)


def test_records_hold_the_float_of_each_accepted_number():
    m = MarketParams(Fraction(300), True, SubFloat(0.5))
    assert (m.spot, m.rate, m.vol) == (300.0, 1.0, 0.5)
    assert all(type(v) is float for v in (m.spot, m.rate, m.vol))
    c = ContractParams(100, Fraction(1, 10), "call")
    assert type(c.strike) is type(c.amort) is float and c.amort == 0.1
    cfg = LatticeConfig(horizon=200, convergence=Fraction(1, 10**9))
    assert type(cfg.horizon) is type(cfg.convergence) is float and cfg.convergence == 1e-9
    assert type(StrategySpec("put", 100).budget) is float
    s = AmortizationSchedule(1, Fraction(1, 10))
    assert type(s.initial_notional) is type(s.amort) is float
    # an exact float is held as the object given, -0.0 included
    spot, rate = 100.0, -0.0
    m = MarketParams(spot, rate, 0.5)
    assert m.spot is spot and m.rate is rate and math.copysign(1.0, m.rate) == -1.0
    # a negative rate whose float is -0.0 is refused on its exact value
    with pytest.raises(ValidationError, match="^rate must be >= 0"):
        MarketParams(100.0, Fraction(-1, 10**400), 0.5)


@pytest.mark.parametrize("number", [int, Fraction], ids=["int", "fraction"])
def test_a_premium_in_the_exercise_region_is_a_float(number):
    # the intrinsic value S - K of an int or Fraction spot and strike was
    # returned as given: premium=200 and Fraction(200, 1)
    quote = ampo.price(MarketParams(number(300), 0.05, 0.5), ContractParams(number(100), 0.1, "call"))
    assert quote.regime is ampo.Regime.EXERCISE_NOW
    assert type(quote.premium) is float and quote.premium == 200.0
    assert ampo.effective_maturity(MarketParams(100.0, 0.05, 0.5), 100.0, number(1) / 10).q == 0.1
    assert type(ampo.effective_maturity(MarketParams(100.0, 0.05, 0.5), 100.0, number(1) / 10).q) is float


def test_a_fraction_convergence_tolerance_formats_its_refusal():
    # halving steps at 64 moves the price by far more than 1e-9; the message
    # formats the tolerance with :.3e, which leaked TypeError for a Fraction
    m, c = MarketParams(100.0, 0.05, 0.5), ContractParams(100.0, 0.1, "put")
    cfg = LatticeConfig(steps=64, convergence=Fraction(1, 10**9))
    with pytest.raises(ConvergenceError, match=r"\(> 1\.000e-09\)$"):
        ampo.lattice_price(ampo.to_equivalent_perpetual(c, m), m, cfg)
    first = ampo.validate_checks(m, c, cfg)[0]
    assert first["check"] == "lattice_convergence" and first["limit"] == 1e-9 and not first["passed"]


_BAD = (Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"), Decimal("1.5"), "1.0", "x")
_M = MarketParams(100.0, 0.05, 0.5)
_PUT = ContractParams(100.0, 0.1, "put")
_SPEC = StrategySpec("put", 100.0)
_E = ampo.to_equivalent_perpetual(_PUT, _M)
# (function, argument, the name its refusal gives) -> the call with a value of that argument
_ARGUMENTS = {
    ("compute_exponents", "q", "amort"): lambda x: ampo.compute_exponents(_M, x),
    ("positional_vega", "strike", "strike"): lambda x: ampo.positional_vega(_M, x, _SPEC, 0.1),
    ("positional_vega", "q", "amort"): lambda x: ampo.positional_vega(_M, 100.0, _SPEC, x),
    ("effective_maturity", "strike", "strike"): lambda x: ampo.effective_maturity(_M, x, 0.1),
    ("effective_maturity", "q", "amort"): lambda x: ampo.effective_maturity(_M, 100.0, x),
    ("effective_notional_curve", "q_grid", "amort"): lambda x: ampo.effective_notional_curve(_M, 100.0, [0.1, x]),
    ("ratio_study", "strike", "strike"): lambda x: ampo.ratio_study(_M, x, [0.1]),
    ("ratio_study", "q_grid", "amort"): lambda x: ampo.ratio_study(_M, 100.0, [x]),
    ("optimize_q", "q_range", "q_range"): lambda x: ampo.optimize_q(_M, 100.0, _SPEC, (0.01, x)),
    ("optimize_q", "strike", "strike"): lambda x: ampo.optimize_q(_M, x, _SPEC, (0.01, 1.0)),
    ("dated_bs_call", "strike", "strike"): lambda x: ampo.dated_bs_call(_M, x, 1.0),
    ("dated_bs_call", "maturity", "maturity"): lambda x: ampo.dated_bs_call(_M, 100.0, x),
    ("notional_at", "t", "t"): lambda x: ampo.notional_at(AmortizationSchedule(1.0, 0.1), x),
    ("intrinsic_value", "spot", "spot"): lambda x: ampo.intrinsic_value("put", x, 100.0),
    ("intrinsic_value", "strike", "strike"): lambda x: ampo.intrinsic_value("put", 100.0, x),
    ("pde_residual", "spots", "spot"): lambda x: ampo.pde_residual(_M, _PUT, [100.0, x]),
    ("pde_residual", "premium_scale", "premium_scale"): lambda x: ampo.pde_residual(_M, _PUT, [100.0], x),
    ("validate_checks", "perturb", "perturb"): lambda x: ampo.validate_checks(_M, _PUT, LatticeConfig(steps=200), x),
    ("finite_difference", "x", "x"): lambda x: ampo.finite_difference(math.atan, x),
    ("finite_difference", "step", "step"): lambda x: ampo.finite_difference(math.atan, 1.0, step=x),
    **{
        ("lattice_price", field, field): (lambda field: lambda x: ampo.lattice_price(
            dataclasses.replace(_E, **{field: x}), _M, LatticeConfig(steps=200)))(field)
        for field in ("rate_eff", "dividend_eff", "strike")
    },
    ("StrategySpec", "budget", "budget"): lambda x: StrategySpec("put", x),
    ("LatticeConfig", "horizon", "horizon"): lambda x: LatticeConfig(horizon=x),
    ("LatticeConfig", "convergence", "convergence tolerance"): lambda x: LatticeConfig(convergence=x),
    ("AmortizationSchedule", "initial_notional", "initial_notional"): lambda x: AmortizationSchedule(x, 0.1),
    ("AmortizationSchedule", "amort", "amort"): lambda x: AmortizationSchedule(1.0, x),
}


@pytest.mark.parametrize("bad", _BAD, ids=repr)
@pytest.mark.parametrize("where", list(_ARGUMENTS), ids=lambda w: f"{w[0]}-{w[1]}")
def test_a_decimal_or_str_is_refused_by_name_for_every_number(where, bad):
    # a Decimal (NaN, an infinity or finite) or a str is refused where it is
    # checked, by the name of its argument, whatever the argument
    with pytest.raises(ValidationError) as exc:
        _ARGUMENTS[where](bad)
    assert str(exc.value).startswith(f"{where[2]} must "), str(exc.value)
