"""Property tests over the whole valid input domain, far beyond the
conftest box: rate 0 or 1e-6..2, vol 1e-4..5, amort 1e-8..1e5, spot
1e-3..1e5 and strike 1e-2..1e4, each drawn log-uniformly."""

import dataclasses
import itertools
import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ampo import (
    AmpoError,
    ContractParams,
    DatedGreeksReport,
    EquivalentPerpetual,
    MarketParams,
    NoSolutionError,
    OptionKind,
    Regime,
    RegionError,
    StrategyKind,
    StrategySpec,
    LatticeConfig,
    ValidationError,
    LimitReport,
    MixedPartialFactors,
    compute_exponents,
    d2_premium_dsigma_dq,
    d_boundary_dq,
    d_premium_dq,
    dated_bs_call,
    delta,
    effective_maturity,
    effective_notional_curve,
    gamma,
    greeks_report,
    intrinsic_value,
    lattice_price,
    limit_suite,
    mixed_partial_factors,
    optimize_q,
    pde_residual,
    positional_vega,
    price,
    ratio_study,
    statics_report,
    theta_economic,
    to_equivalent_perpetual,
    validate_checks,
    vega,
)
from ampo import oracle
from ampo.params import _check_strike, _check_terms, _member, _require_finite
from test_oracle import _NEAR_DOUBLE_ROOT, _REBUILT, _linear_sweep, _near_walk, _run_sweep
from test_pricing import _views

EPS = sys.float_info.epsilon


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _floats(values):
    for v in values:
        if isinstance(v, tuple):
            yield from _floats(v)
        elif isinstance(v, float):
            yield v


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
    kind=st.sampled_from(OptionKind),
)
def test_closed_forms_over_full_domain(rate, vol, q, spot, strike, kind):
    m = MarketParams(spot=spot, rate=rate, vol=vol)
    c = ContractParams(strike=strike, amort=q, kind=kind)
    records = {}
    for fn in (price, greeks_report, statics_report, limit_suite):
        try:
            record = fn(m, c)
        except AmpoError:
            # only AmpoError may leave the library, and only where the
            # contract says so: statics off the continuation region, and
            # the q = 0 limit at rate 0 where the exponents degenerate
            if fn is statics_report:
                assert price(m, c).regime == Regime.EXERCISE_NOW
            else:
                assert fn is limit_suite and rate == 0.0
            continue
        values = list(_floats(dataclasses.astuple(record)))
        assert all(math.isfinite(v) for v in values), (fn.__name__, record)
        records[fn] = record

    # the premium exp(s*alpha*L) carries about alpha ulps: L is the log of
    # a ratio that rounds once, so it is off by about an ulp, times alpha
    ex = compute_exponents(m, q)
    alpha = ex.alpha_c if kind == OptionKind.CALL else ex.alpha_p
    tol = 16.0 * EPS * (1.0 + alpha)

    # comparative statics in q on the continuation region: the premium
    # falls with q, and the boundary moves toward the strike
    statics = records.get(statics_report)
    if statics is not None:
        assert statics.d_premium_dq <= 0.0
        if kind == OptionKind.CALL:
            assert statics.d_boundary_dq < 0.0
        else:
            assert statics.d_boundary_dq > 0.0
        doubled = price(m, dataclasses.replace(c, amort=2.0 * q)).premium
        assert doubled <= records[price].premium * (1.0 + tol)

    # value matching and smooth pasting at the boundary, to the same tolerance
    on = dataclasses.replace(m, spot=price(m, c).boundary)
    quote = price(on, c)
    assert quote.regime == Regime.CONTINUATION
    intrinsic = intrinsic_value(kind, on.spot, strike)
    assert abs(quote.premium - intrinsic) <= tol * intrinsic
    target = 1.0 if kind == OptionKind.CALL else -1.0
    assert abs(delta(on, c) - target) <= tol


# every positive finite float, the subnormals and the largest float included
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_CFG = LatticeConfig(steps=50)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), _POSITIVE, log_uniform(1e-300, 1e10)),
    vol=st.one_of(_POSITIVE, log_uniform(1e-80, 1e60)),
    q=st.one_of(_POSITIVE, log_uniform(1e-300, 1e300)),
    spot=st.one_of(_POSITIVE, log_uniform(1e-300, 1e300)),
    strike=st.one_of(_POSITIVE, log_uniform(1e-300, 1e300)),
    kind=st.sampled_from(OptionKind),
    # or a spot on the boundary, or an ulp or two off it, at a vol below 1e-8,
    # where the log-moneyness rounds and alpha*L can pass exp's range
    near=st.one_of(st.none(), st.tuples(log_uniform(1e-25, 1e-8), st.integers(-2, 2))),
)
def test_every_accepted_input_prices_or_is_refused_by_name(rate, vol, q, spot, strike, kind, near):
    # over every value MarketParams and ContractParams accept, each public
    # function returns or raises an AmpoError; nothing else escapes
    if near is not None:
        vol, ulps = near
        try:
            spot = price(MarketParams(1.0, rate, vol), ContractParams(strike, q, kind)).boundary
        except AmpoError:
            return
        spot *= 1.0 + ulps * EPS
        if not 0.0 < spot < math.inf:
            return
    m = MarketParams(spot=spot, rate=rate, vol=vol)
    c = ContractParams(strike=strike, amort=q, kind=kind)
    calls = [
        lambda: price(m, c), lambda: delta(m, c), lambda: gamma(m, c),
        lambda: pde_residual(m, c, [spot]),
        lambda: lattice_price(to_equivalent_perpetual(c, m), m, _CFG),
        lambda: validate_checks(m, c, _CFG),
        # the case studies and their dated call; the two-point grids are
        # new objects on each call, so each study solves afresh
        lambda: effective_maturity(m, strike, q),
        lambda: effective_notional_curve(m, strike, [q, 2.0 * q]),
        lambda: ratio_study(m, strike, [q, 2.0 * q]),
    ]
    # and these return a finite float where they return
    finite = [
        lambda: vega(m, c), lambda: greeks_report(m, c).vega,
        lambda: d2_premium_dsigma_dq(m, c),
        lambda: theta_economic(m, c), lambda: greeks_report(m, c).theta_economic,
        lambda: d_premium_dq(m, c), lambda: statics_report(m, c).d_premium_dq,
        lambda: d_boundary_dq(m, c), lambda: statics_report(m, c).d_boundary_dq,
    ] + [
        lambda spec=StrategySpec(kind=k, budget=1.0): positional_vega(m, strike, spec, q)
        for k in StrategyKind
    ] + [
        # each chain-rule factor, from both functions that return them, and
        # each field of limit_suite (its two flags are finite too)
        (lambda fn, name: lambda: getattr(fn(), name))(fn, f.name)
        for fn, record in (
            (lambda: mixed_partial_factors(m, c), MixedPartialFactors),
            (lambda: statics_report(m, c).intermediates, MixedPartialFactors),
            (lambda: limit_suite(m, c), LimitReport),
            # the dated call at maturity q
            (lambda: dated_bs_call(m, strike, q), DatedGreeksReport),
        )
        for f in dataclasses.fields(record)
    ]
    for call in calls + finite:
        try:
            value = call()
        except AmpoError:
            continue
        assert call not in finite or math.isfinite(value), value


def _as_mixed(floats):
    # each value as a float, an int (rounded up, so still > 0) or a Fraction,
    # or 1/10**k, whose float is subnormal or 0.0 although the value is > 0
    return st.one_of(
        floats, floats.map(math.ceil), floats.map(Fraction),
        st.integers(300, 400).map(lambda k: Fraction(1, 10**k)),
    )


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-300, 1e10)),
    vol=_as_mixed(log_uniform(1e-80, 1e60)),
    q=_as_mixed(log_uniform(1e-300, 1e300)),
    spot=_as_mixed(log_uniform(1e-300, 1e300)),
    strike=_as_mixed(log_uniform(1e-300, 1e300)),
    budget=_as_mixed(log_uniform(1e-300, 1e300)),
    maturity=_as_mixed(log_uniform(1e-300, 1e300)),
    kind=st.sampled_from(OptionKind),
)
def test_every_accepted_mixed_type_input_prices_or_is_refused_by_name(
    rate, vol, q, spot, strike, budget, maturity, kind
):
    # as above, with ints and Fractions: a positive value whose float is 0.0
    # is refused by name where it is given, not by a log or a division later
    market = lambda: MarketParams(spot, rate, vol)
    contract = lambda: ContractParams(strike, q, kind)
    calls = [
        market, contract, lambda: StrategySpec(StrategyKind.STRADDLE, budget),
        lambda: price(market(), contract()), lambda: greeks_report(market(), contract()),
        lambda: statics_report(market(), contract()),
        lambda: lattice_price(to_equivalent_perpetual(contract(), market()), market(), _CFG),
        lambda: effective_maturity(market(), strike, q),
        lambda: effective_notional_curve(market(), strike, [q]),
        lambda: ratio_study(market(), strike, [q]),
        lambda: dated_bs_call(market(), strike, maturity),
        lambda: optimize_q(market(), strike, StrategySpec(StrategyKind.PUT_ONLY, budget), (q, 2 * q)),
    ] + [lambda k=k: positional_vega(market(), strike, StrategySpec(k, budget), q) for k in StrategyKind]
    for call in calls:
        try:
            call()
        except AmpoError:
            continue


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
    kind=st.sampled_from(OptionKind),
    # a factor on the spot, or None for the spot on the boundary
    bump=st.one_of(st.none(), log_uniform(1e-2, 1e2)),
)
def test_a_bumped_spot_reprices_as_a_fresh_evaluation_over_full_domain(
    rate, vol, q, spot, strike, kind, bump
):
    # after price(m, c) a market that moves only the spot reuses the contract's
    # spot-free terms; every view must equal a fresh evaluation, bit for bit
    m = MarketParams(spot=spot, rate=rate, vol=vol)
    c = ContractParams(strike=strike, amort=q, kind=kind)
    try:
        boundary = price(m, c).boundary
    except AmpoError:
        return
    moved = boundary if bump is None else spot * bump
    want = _views(MarketParams(spot=moved, rate=rate, vol=vol), ContractParams(strike, q, kind))
    price(m, c)
    assert _views(dataclasses.replace(m, spot=moved), c) == want


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
)
def test_effective_maturity_over_full_domain(rate, vol, q, spot, strike):
    # either NoSolutionError or a positive maturity whose dated call
    # matches the AmPO premium to 1e-10, and to 1e-7 relative where the
    # premium is a normal float; no other exception may escape. The solve
    # stops on a step in T, so the relative residual grows with the
    # elasticity of the dated premium, about log(1/premium): its worst was
    # 2.1e-8 over 60,000 random draws from this domain. Subnormal premia
    # carry no relative precision.
    m = MarketParams(spot=spot, rate=rate, vol=vol)
    try:
        res = effective_maturity(m, strike, q)
    except NoSolutionError:
        return
    assert res.effective_maturity > 0.0
    call = ContractParams(strike=strike, amort=q, kind=OptionKind.CALL)
    dated = dated_bs_call(m, strike, res.effective_maturity)
    target = price(m, call).premium
    assert abs(dated.premium - target) <= 1e-10
    if target >= sys.float_info.min:
        assert abs(dated.premium - target) <= 1e-7 * target


def _positional_vega_from_views(m, strike, spec, q):
    # the documented ratio from the public views, summed call then put;
    # budget * (vega / premium) only where budget * vega overflows
    legs = ("call", "put") if spec.kind is StrategyKind.STRADDLE else (spec.kind.value,)
    prem = veg = 0.0
    for kind in legs:
        c = ContractParams(strike=strike, amort=q, kind=kind)
        prem += price(m, c).premium
        veg += vega(m, c)
    floor = 1e-14 * strike or 5e-324
    if prem < floor:
        raise NoSolutionError(f"degenerate strategy: premium {prem} below {floor}")
    scaled = spec.budget * veg
    return scaled / prem if math.isfinite(scaled) else spec.budget * (veg / prem)


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except AmpoError as e:
        return type(e), str(e)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
    # budgets of 1e305-1e307 make budget * vega overflow where the ratio is finite
    budget=st.one_of(log_uniform(1e-3, 1e3), log_uniform(1e305, 1e307)),
)
def test_positional_vega_over_full_domain(rate, vol, q, spot, strike, budget):
    # the kernel's value is the views' ratio bit for bit, or both raise the
    # same AmpoError; nothing else may escape
    m = MarketParams(spot=spot, rate=rate, vol=vol)
    for kind in StrategyKind:
        spec = StrategySpec(kind=kind, budget=budget)
        got = _outcome(positional_vega, m, strike, spec, q)
        assert got == _outcome(_positional_vega_from_views, m, strike, spec, q), kind


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
    kind=st.sampled_from(OptionKind),
)
def test_pde_residual_over_full_domain(rate, vol, q, spot, strike, kind):
    # at a continuation spot the closed form solves the valuation ODE to
    # 1e-8 relative, or the checker raises an AmpoError; nothing else escapes
    m = MarketParams(spot=spot, rate=rate, vol=vol)
    c = ContractParams(strike=strike, amort=q, kind=kind)
    try:
        if price(m, c).regime != Regime.CONTINUATION:
            return
        residual = pde_residual(m, c, [spot])[0]
    except AmpoError:
        return
    assert residual < 1e-8, residual


def _grid_nodes(spot, strike, discount_rate, vol, steps):
    # the node count n of oracle._perpetual_sweep's grid
    dx = min(12.0 / steps, vol * math.sqrt(14.0 / (steps * discount_rate)))
    x = math.log(spot / strike)
    return math.ceil((max(x, 0.0) + steps * dx) / dx) + math.ceil((steps * dx - min(x, 0.0)) / dx) + 1


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
    kind=st.sampled_from(OptionKind),
    steps=st.sampled_from([2, 3, 5, 50, 500, 2000, 4000, 8000]),
)
# the smallest steps, each kind
@example(rate=0.05, vol=0.5, q=0.1, spot=100.0, strike=100.0, kind=OptionKind.PUT, steps=2)
@example(rate=0.05, vol=0.5, q=0.1, spot=100.0, strike=100.0, kind=OptionKind.CALL, steps=3)
@example(rate=0.05, vol=0.5, q=0.1, spot=100.0, strike=100.0, kind=OptionKind.PUT, steps=5)
# near the double root, 1 - 4*tc*te about 6e-7 and 2e-6 (_NEAR_DOUBLE_ROOT)
@example(**_NEAR_DOUBLE_ROOT[0])
@example(**_NEAR_DOUBLE_ROOT[1])
# the spot lies near the far end, where B_k is still below its fixed point
@example(**_REBUILT[0])
@example(**_REBUILT[1])
def test_sweep_equals_linear_sweep_over_full_domain(rate, vol, q, spot, strike, kind, steps):
    # the same AmpoError as a walk over every node, or the same boundary and a
    # value within _walk_tolerance (at most 0.50 of it here); grids of more
    # than 40,000 nodes are left out only because the reference keeps a list
    # of one ratio per node
    discount_rate = 2.0 * rate + q
    assume(_grid_nodes(spot, strike, discount_rate, vol, steps) <= 40_000)
    args = (kind, spot, strike, rate, discount_rate, vol, steps)
    got, want = _run_sweep(oracle._perpetual_sweep, args), _run_sweep(_linear_sweep, args)
    if isinstance(want[0], float):
        assert _near_walk(args, got, want), (got, want)
    else:
        assert got == want


# ------------------------------------------ the input checks' comparison chains
#
# Each hot input check accepts an exact float in range with one comparison
# chain and sends everything else through its full checks. The rules below
# write each check out without its chain, as the reference: every check
# must accept and refuse as its rule does, with the same message.


class _SubFloat(float):
    """A float subclass: equal to its float, but not an exact float."""


# the values each check must treat as its full checks do, one per type and edge
_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 0.05, 100.0, sys.float_info.max, -sys.float_info.max,
    math.inf, -math.inf, math.nan,
    0, 1, -1, 10**400, True, False,
    Fraction(1, 10**400), Fraction(-1, 10**400), Fraction(1, 3),
    Decimal("1.5"), Decimal(0), Decimal("nan"), Decimal("inf"),
    _SubFloat(0.5), _SubFloat(-0.0), _SubFloat(math.inf), _SubFloat(math.nan),
    "1.0",
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_MIXED = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(),
    log_uniform(1e-300, 1e300),
    st.integers(-(10**400), 10**400),
    _FINITE.map(Fraction),
    _FINITE.map(_SubFloat),
)


# the rules as stated in params: finite, then > 0 where the float is > 0
def _market_rule(spot, rate, vol):
    for name, value in (("spot", spot), ("rate", rate), ("vol", vol)):
        _require_finite(name, value)
    if not float(spot) > 0.0:
        raise ValidationError(f"spot must be > 0, got {spot}")
    if not float(vol) > 0.0:
        raise ValidationError(f"vol must be > 0, got {vol}")
    if rate < 0:
        raise ValidationError(f"rate must be >= 0, got {rate}")


def _strike_rule(strike):
    _require_finite("strike", strike)
    if not float(strike) > 0.0:
        raise ValidationError(f"strike must be > 0, got {strike}")


def _terms_rule(strike, amort):
    _require_finite("strike", strike)
    _require_finite("amort", amort)
    if not float(strike) > 0.0:
        raise ValidationError(f"strike must be > 0, got {strike}")
    if not float(amort) > 0.0:
        raise ValidationError(f"amort must be > 0, got {amort}")


def _spot_rule(s):
    # pde_residual's per-spot check; the spot is evaluated as its float
    spot = _require_finite("spot", s)
    if spot <= 0:
        raise ValidationError(f"spot must be > 0, got {spot}")
    return spot


def _lattice_by_rule(e, m, cfg):
    # lattice_price as it was: its term checks, which hold each term as its
    # float, then a ContractParams of the strike, the implied amort and the
    # kind, then the closed form and sweep
    rate_eff, dividend_eff, strike = (
        _require_finite(name, getattr(e, name)) for name in ("rate_eff", "dividend_eff", "strike")
    )
    rate = rate_eff - dividend_eff
    if abs(rate - m.rate) > 1e-12 * max(1.0, abs(m.rate)) + 2.0 * math.ulp(rate_eff):
        raise ValidationError(
            f"market rate {m.rate} inconsistent with effective rates ({e.rate_eff}, {e.dividend_eff})"
        )
    amort = dividend_eff - rate
    if amort <= 0:
        raise ValidationError(f"implied amort must be > 0, got {amort}")
    _terms_rule(strike, amort)
    kind = _member(OptionKind, e.payoff_kind)
    analytic = oracle._closed_form(m, kind, strike, amort).premium
    return analytic, oracle._perpetual_sweep(kind, m.spot, strike, rate, rate_eff, m.vol, cfg.steps)


def _lattice_now(e, m, cfg):
    rep = lattice_price(e, m, cfg)
    return rep.analytic_price, (rep.oracle_price, rep.boundary_estimate)


def _result(fn, *args):
    """repr of what fn returns, or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as e:
        return type(e), str(e)


def _refusal(check, *args):
    """The type and message of what check raises, or None where it returns."""
    got = _result(check, *args)
    return None if isinstance(got, str) else got


# the types lattice_price's effective rates are given in, and its kinds
_RATE_EFF_TYPES = (float, _SubFloat, Fraction, Decimal, lambda x: int(x) if math.isfinite(x) else x)
_KINDS = (OptionKind.CALL, OptionKind.PUT, "call", "put", "straddle")


def _assert_chains_agree_with_the_rules(spot, rate, vol, strike, amort, as_type, kind):
    market_a = MarketParams(100.0, 0.05, 0.5)
    assert _refusal(MarketParams, spot, rate, vol) == _refusal(_market_rule, spot, rate, vol)
    for name, value in (("spot", spot), ("rate", rate), ("vol", vol)):
        terms = {"spot": 100.0, "rate": 0.05, "vol": 0.5, name: value}
        got = _refusal(lambda: dataclasses.replace(market_a, **{name: value}))
        assert got == _refusal(_market_rule, *terms.values()), name
    assert _refusal(_check_strike, strike) == _refusal(_strike_rule, strike)
    assert _refusal(_check_terms, strike, amort) == _refusal(_terms_rule, strike, amort)
    assert _refusal(ContractParams, strike, amort, OptionKind.PUT) == _refusal(_terms_rule, strike, amort)

    # pde_residual: a spot the rule accepts is evaluated as its float; the
    # call's boundary at market A is 266.67, and a spot beyond it is refused
    # as outside the continuation region, named as given
    call = ContractParams(100.0, 0.1, OptionKind.CALL)
    want, got = _refusal(_spot_rule, spot), _result(pde_residual, market_a, call, [spot])
    if want or isinstance(got, str):
        assert got == (want or _result(pde_residual, market_a, call, [float(spot)]))
    else:
        assert got[0] is RegionError and float(spot) > 266.0
    # finite_difference's point: refused by the rule's message, or not for the point
    want, got = _refusal(_require_finite, "x", spot), _refusal(oracle.finite_difference, abs, spot)
    assert got == want if want else not (got and got[1].startswith("x must"))

    # lattice_price: the effective rates of amort at market A in one of the
    # mixed types, at the drawn strike and at 100.0, then (vol, amort) as
    # drawn; the kind is a member, a value or none
    cfg = LatticeConfig(steps=64)
    try:
        pair = as_type(2 * market_a.rate + amort), as_type(market_a.rate + amort)
    except Exception:
        pair = vol, amort
    for (rate_eff, dividend_eff), k in ((pair, strike), (pair, 100.0), ((vol, amort), strike)):
        e = EquivalentPerpetual(rate_eff, dividend_eff, kind, k)
        assert _result(_lattice_now, e, market_a, cfg) == _result(_lattice_by_rule, e, market_a, cfg)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    spot=_MIXED, rate=_MIXED, vol=_MIXED, strike=_MIXED, amort=_MIXED,
    as_type=st.sampled_from(_RATE_EFF_TYPES), kind=st.sampled_from(_KINDS),
)
def test_comparison_chains_accept_and_refuse_as_the_full_checks(spot, rate, vol, strike, amort, as_type, kind):
    # mixed types over the whole accepted range: exact floats in and out of
    # range, +-0.0, 5e-324, the largest float, +-inf and nan, ints and bools,
    # Fraction(+-1, 10**400), Decimals and a float subclass
    _assert_chains_agree_with_the_rules(spot, rate, vol, strike, amort, as_type, kind)


def test_comparison_chains_agree_with_the_full_checks_at_every_edge():
    # each edge value in each place, the others at market A's call; then
    # every triple of edges for MarketParams and every pair for the terms
    typical = {"spot": 100.0, "rate": 0.05, "vol": 0.5, "strike": 100.0, "amort": 0.1}
    for name in typical:
        for i, value in enumerate(_EDGES):
            args = {**typical, name: value}
            _assert_chains_agree_with_the_rules(*args.values(), _RATE_EFF_TYPES[i % len(_RATE_EFF_TYPES)],
                                                _KINDS[i % len(_KINDS)])
    for spot, rate, vol in itertools.product(_EDGES, repeat=3):
        assert _refusal(MarketParams, spot, rate, vol) == _refusal(_market_rule, spot, rate, vol)
    for strike, amort in itertools.product(_EDGES, repeat=2):
        assert _refusal(_check_terms, strike, amort) == _refusal(_terms_rule, strike, amort)


def test_a_failing_property_reports_its_example(tmp_path):
    # on a failure hypothesis imports libcst to offer a patch, and that
    # import warns; the suite's filterwarnings must let the example through
    # instead of ending the run with INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1
