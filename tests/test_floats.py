"""Every accepted number is held as its float: a number given as an int, a
bool, a Fraction or a float subclass gives the outcome of its float, bit
for bit, and every returned number and record field is a float."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

import ampo
from ampo import (
    AmortizationSchedule,
    ContractParams,
    ConvergenceError,
    LatticeConfig,
    MarketParams,
    StrategySpec,
    ValidationError,
)
import outcomes
from domains import SubFloat, box, full

# name -> (argument names, call): every public function and input record
_TABLE = outcomes.functions(ampo)


def _draw(rng: random.Random) -> dict:
    """Exact floats from the box or the full domain of tools/domains.py; a
    third of the draws round the spot, strike, budget, notional, maturity
    and t to integers, so that ints and bools are drawn as well."""
    rate, vol, q, spot, strike = (box if rng.random() < 0.5 else full)(rng)
    a = {
        "spot": spot, "rate": rate, "vol": rng.choice((vol, vol, 1.0)), "strike": strike, "amort": q,
        "kind": rng.choice(("call", "put")), "strategy": rng.choice(("call", "put", "straddle")),
        "budget": rng.uniform(1.0, 1e3), "notional": rng.uniform(0.5, 10.0),
        "maturity": rng.uniform(0.1, 30.0), "t": rng.uniform(0.0, 10.0),
        "q_grid": [q, q * rng.uniform(0.5, 2.0)], "q_lo": q * 0.1, "q_hi": q * 2.0,
        "spots": [spot * rng.uniform(0.5, 1.5) for _ in range(2)], "scale": rng.choice((1.0, 1.01)),
        "horizon": rng.uniform(1.0, 300.0), "steps": rng.choice((200, 4000)),
        "convergence": rng.choice((None, 5e-3, 1e-9)), "step": rng.uniform(1e-6, 1e-3),
        "order": 1, "mode": "central",
    }
    a["rate_eff"], a["dividend_eff"] = 2.0 * rate + q, rate + q
    if rng.random() < 1 / 3:
        for name in ("spot", "strike", "budget", "notional", "maturity", "t"):
            a[name] = float(max(round(a[name]), 1))
    a["x"] = a["spot"]
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


# a number of another type than float in an encoded outcome; a lattice
# report's steps is the one int returned
_NOT_A_FLOAT = re.compile(r"\b(int|Fraction|SubFloat|Decimal):")


def test_every_accepted_number_gives_the_outcome_of_its_float():
    rng = random.Random(32)
    compared = returned = 0
    for i in range(1500):
        name = list(_TABLE)[i % len(_TABLE)]
        if name == "optimize_q" and i % 3:  # a scan is about 1 ms
            continue
        call = _TABLE[name][1]
        floats = _draw(rng)
        given = {k: (v if k in outcomes.NOT_NUMBERS else _given_as(rng, v)) for k, v in floats.items()}
        want, got = outcomes.outcome(call, floats), outcomes.outcome(call, given)
        assert got == want, (name, given)
        compared += 1
        if got.startswith("!"):
            continue
        returned += 1
        # every number returned is a float, but steps; the flags are bools
        assert not _NOT_A_FLOAT.search(got.replace("steps=int:", "")), (name, got)
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
# one valid value of every argument of outcomes' table; lattice_price's
# effective rates are the put's at rate 0.05 and amort 0.1
_VALID = {
    "spot": 100.0, "rate": 0.05, "vol": 0.5, "strike": 100.0, "amort": 0.1, "kind": "put",
    "strategy": "put", "budget": 100.0, "notional": 1.0, "maturity": 1.0, "t": 1.0,
    "q_grid": [0.1], "q_lo": 0.01, "q_hi": 1.0, "spots": [100.0], "scale": 1.0,
    "rate_eff": 0.2, "dividend_eff": 0.15, "horizon": 200.0, "steps": 200, "convergence": 5e-3,
    "x": 1.0, "order": 1, "mode": "central", "step": 1e-4,
}
# the name a refusal gives, where it is not the argument's
_REFUSED_AS = {
    "q_grid": "amort", "spots": "spot", "q_lo": "q_range", "q_hi": "q_range",
    "convergence": "convergence tolerance", "notional": "initial_notional",
    ("pde_residual", "scale"): "premium_scale", ("validate_checks", "scale"): "perturb",
}
_NUMBERS = [(fn, arg) for fn, (names, _) in _TABLE.items() for arg in names if arg not in outcomes.NOT_NUMBERS]


@pytest.mark.parametrize("bad", _BAD, ids=repr)
@pytest.mark.parametrize("fn, arg", _NUMBERS)
def test_a_decimal_or_str_is_refused_by_name_for_every_number(fn, arg, bad):
    # a Decimal (NaN, an infinity or finite) or a str is refused where it is
    # checked, by the name of its argument, whatever the argument; in a list
    # it comes last
    value = [*_VALID[arg], bad] if isinstance(_VALID[arg], list) else bad
    with pytest.raises(ValidationError) as exc:
        _TABLE[fn][1]({**_VALID, arg: value})
    name = _REFUSED_AS.get((fn, arg), _REFUSED_AS.get(arg, arg))
    assert str(exc.value).startswith(f"{name} must "), str(exc.value)
