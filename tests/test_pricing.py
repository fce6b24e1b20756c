import dataclasses
import math
import random

import pytest

from ampo import (
    AmortizationSchedule,
    AmpoError,
    ContractParams,
    MarketParams,
    OptionKind,
    Quote,
    Regime,
    ValidationError,
    compute_exponents,
    d_boundary_dq,
    exercise_boundary,
    greeks_report,
    intrinsic_value,
    notional_at,
    ode_coefficients,
    price,
    statics_report,
    to_equivalent_perpetual,
)
from conftest import sample_set


def test_exponents_params_a(market_a):
    ex = compute_exponents(market_a, 0.1)
    assert ex.alpha_c == pytest.approx(1.6, abs=1e-14)
    assert ex.alpha_p == pytest.approx(1.0, abs=1e-14)
    assert ex.alpha_bar == pytest.approx(1.3, abs=1e-14)


def test_exponents_mean_identity(market_a):
    ex = compute_exponents(market_a, 0.37)
    assert ex.alpha_bar == 0.5 * (ex.alpha_c + ex.alpha_p)


def test_exponents_q_zero(market_a):
    ex = compute_exponents(market_a, 0.0)
    # sqrt(0.89) - 0.2 + 0.5 and sqrt(0.89) + 0.2 - 0.5
    assert ex.alpha_c == pytest.approx(1.2433981132056604, rel=1e-14)
    assert ex.alpha_p == pytest.approx(0.6433981132056604, rel=1e-14)
    # the gap alpha_c - alpha_p is 1 - 2r/sigma^2 regardless of q
    assert ex.alpha_c - ex.alpha_p == pytest.approx(1.0 - 2 * 0.05 / 0.25, abs=1e-12)


def test_exponents_degenerate_limit():
    m = MarketParams(spot=100.0, rate=0.0, vol=0.3)
    ex = compute_exponents(m, 0.0)
    assert ex.alpha_c == pytest.approx(1.0, abs=1e-14)
    assert ex.alpha_p == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "rate, vol, q",
    [
        (0.05, 1e-4, 0.1),  # r >= sigma^2/2: the radical form of alpha_c cancels
        (0.0, 5.0, 1e-8),  # r < sigma^2/2: the radical form of alpha_p cancels
        (2.0, 1e-4, 1e5),
    ],
)
def test_exponents_match_mpmath(rate, vol, q):
    mpmath = pytest.importorskip("mpmath")
    ex = compute_exponents(MarketParams(spot=100.0, rate=rate, vol=vol), q)
    with mpmath.workdps(50):
        r, sig, amort = mpmath.mpf(rate), mpmath.mpf(vol), mpmath.mpf(q)
        x = r / sig**2
        rad = mpmath.sqrt((x + 0.5) ** 2 + 2 * (r + amort) / sig**2)
        for got, want in ((ex.alpha_c, rad - x + 0.5), (ex.alpha_p, rad + x - 0.5)):
            assert float(abs(got - want) / want) <= 1e-15


@pytest.mark.parametrize("vol, q", [(5.0, 1e-8), (0.5, 1e-12)])
def test_call_boundary_at_zero_rate_matches_mpmath(vol, q):
    # alpha_c -> 1 at rate 0 and small q: alpha_c - 1 must not be taken
    # as a difference
    mpmath = pytest.importorskip("mpmath")
    m = MarketParams(spot=100.0, rate=0.0, vol=vol)
    got = exercise_boundary(m, ContractParams(strike=100.0, amort=q, kind=OptionKind.CALL))
    with mpmath.workdps(50):
        sig, amort = mpmath.mpf(vol), mpmath.mpf(q)
        alpha = mpmath.sqrt(0.25 + 2 * amort / sig**2) + 0.5
        want = alpha * 100 / (alpha - 1)
        assert float(abs(got - want) / want) <= 1e-14


def test_exponents_rejects_negative_q(market_a):
    with pytest.raises(ValidationError):
        compute_exponents(market_a, -0.1)


def test_boundaries_params_a(market_a, call_a, put_a):
    assert exercise_boundary(market_a, call_a) == pytest.approx(800.0 / 3.0, rel=1e-13)
    assert exercise_boundary(market_a, put_a) == pytest.approx(50.0, rel=1e-13)


def test_boundary_brackets_strike():
    rng = random.Random(3)
    for _ in range(50):
        m, c = sample_set(rng)
        bd = exercise_boundary(m, c)
        if c.kind == OptionKind.CALL:
            assert bd > c.strike
        else:
            assert 0.0 < bd < c.strike


def test_put_boundary_large_q_near_strike(market_a):
    # S_bar_P/K = alpha_p/(1+alpha_p) -> 1 at rate ~ 1/sqrt(2q)/vol;
    # at q = 1e3 the gap is 1/(1+alpha_p) ~ 1.1%
    c = ContractParams(strike=100.0, amort=1e3, kind=OptionKind.PUT)
    bd = exercise_boundary(market_a, c)
    assert abs(bd - 100.0) / 100.0 < 0.012
    c = ContractParams(strike=100.0, amort=1e5, kind=OptionKind.PUT)
    bd2 = exercise_boundary(market_a, c)
    assert abs(bd2 - 100.0) < abs(bd - 100.0)
    assert abs(bd2 - 100.0) / 100.0 < 0.0012


def test_price_params_a(market_a, call_a, put_a):
    qc = price(market_a, call_a)
    qp = price(market_a, put_a)
    assert qc.premium == pytest.approx(34.697547420670624, rel=1e-13)
    assert qc.regime == Regime.CONTINUATION
    assert qp.premium == pytest.approx(25.0, rel=1e-13)
    assert qp.regime == Regime.CONTINUATION


def test_price_exercise_region(market_a, put_a, call_a):
    q = price(dataclasses.replace(market_a, spot=40.0), put_a)
    assert q.premium == 60.0
    assert q.regime == Regime.EXERCISE_NOW
    q = price(dataclasses.replace(market_a, spot=300.0), call_a)
    assert q.premium == 200.0
    assert q.regime == Regime.EXERCISE_NOW


def test_spot_on_boundary_is_continuation(market_a, put_a):
    bd = exercise_boundary(market_a, put_a)
    q = price(dataclasses.replace(market_a, spot=bd), put_a)
    assert q.regime == Regime.CONTINUATION


def test_put_alpha_one_closed_form():
    # whenever alpha_p = 1 the put premium collapses to K^2/(4 S0)
    m = MarketParams(spot=80.0, rate=0.05, vol=0.5)
    c = ContractParams(strike=100.0, amort=0.1, kind=OptionKind.PUT)
    assert price(m, c).premium == pytest.approx(100.0**2 / (4 * 80.0), rel=1e-13)


def test_monotone_in_spot(market_a):
    rng = random.Random(5)
    for kind in OptionKind:
        m, c = sample_set(rng, kind=kind)
        bd = exercise_boundary(m, c)
        lo, hi = (0.3 * bd, bd) if kind == OptionKind.CALL else (bd, 1.6 * c.strike)
        prem = [
            price(dataclasses.replace(m, spot=lo + (hi - lo) * i / 30), c).premium
            for i in range(31)
        ]
        diffs = [b - a for a, b in zip(prem, prem[1:])]
        if kind == OptionKind.CALL:
            assert all(d > 0 for d in diffs)
        else:
            assert all(d < 0 for d in diffs)


def test_no_arbitrage_bounds():
    rng = random.Random(7)
    for _ in range(100):
        m, c = sample_set(rng)
        prem = price(m, c).premium
        assert prem >= intrinsic_value(c.kind, m.spot, c.strike) - 1e-12
        if c.kind == OptionKind.CALL:
            assert prem <= m.spot + 1e-12
        else:
            assert prem <= c.strike + 1e-12


def test_equivalent_perpetual_mapping(market_a, put_a):
    e = to_equivalent_perpetual(put_a, market_a)
    assert e.rate_eff - e.dividend_eff == pytest.approx(market_a.rate, abs=1e-15)
    assert e.payoff_kind == OptionKind.PUT
    assert e.strike == put_a.strike


def test_ode_coefficients(market_a):
    drift, discount = ode_coefficients(market_a, 0.1)
    assert drift == 0.05
    assert discount == pytest.approx(0.2, abs=1e-15)


def test_notional_decay():
    s = AmortizationSchedule(initial_notional=1.0, amort=0.1)
    assert notional_at(s, 0.0) == 1.0
    assert notional_at(s, 10.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    s2 = AmortizationSchedule(initial_notional=2.0, amort=0.5)
    assert notional_at(s2, 2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
    with pytest.raises(ValidationError):
        notional_at(s, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_amortization_schedule_rejects_non_finite(bad):
    for kwargs in ({"initial_notional": bad, "amort": 0.1}, {"initial_notional": 1.0, "amort": bad}):
        with pytest.raises(ValidationError, match="must be finite"):
            AmortizationSchedule(**kwargs)
    with pytest.raises(ValidationError, match="t must be finite"):
        notional_at(AmortizationSchedule(initial_notional=1.0, amort=0.1), bad)


@pytest.mark.parametrize("kind", ["bogus", None, "straddle"])
def test_contract_params_rejects_unknown_kind(kind):
    with pytest.raises(ValidationError, match=r"^kind must be one of call, put$"):
        ContractParams(strike=100.0, amort=0.1, kind=kind)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        MarketParams(spot=-1.0, rate=0.05, vol=0.5)
    with pytest.raises(ValidationError):
        MarketParams(spot=100.0, rate=0.05, vol=0.0)
    with pytest.raises(ValidationError):
        MarketParams(spot=100.0, rate=-0.01, vol=0.5)
    with pytest.raises(ValidationError):
        ContractParams(strike=0.0, amort=0.1, kind=OptionKind.CALL)
    with pytest.raises(ValidationError):
        ContractParams(strike=100.0, amort=0.0, kind=OptionKind.CALL)
    with pytest.raises(ValidationError):
        AmortizationSchedule(initial_notional=0.0, amort=0.1)


def test_quote_is_plain_record(market_a, call_a):
    q = price(market_a, call_a)
    assert isinstance(q, Quote)
    assert q.boundary == exercise_boundary(market_a, call_a)


def _priced_or_refused(fn, m, c):
    """fn(m, c) returns finite floats or raises an AmpoError, and which."""
    try:
        res = fn(m, c)
    except AmpoError:
        return "refused"
    values = [res] if isinstance(res, float) else [
        v for v in dataclasses.asdict(res).values() if isinstance(v, float)
    ]
    assert all(math.isfinite(v) for v in values), (fn.__name__, res)
    return "priced"


# (vol, rate) points where the exponent solve used to end in OverflowError
# (vol 1e-80) or, with vol**2 underflowing to 0, in ZeroDivisionError
EXTREME_VOLS = [(1e-80, 0.05), (1e-170, 0.05), (1e-170, 0.0), (1e-200, 0.05), (1e-200, 0.0)]


@pytest.mark.parametrize("vol, rate", EXTREME_VOLS)
@pytest.mark.parametrize("kind", [OptionKind.CALL, OptionKind.PUT])
def test_extreme_vol_raises_validation_error_naming_the_vol(vol, rate, kind):
    m = MarketParams(spot=100.0, rate=rate, vol=vol)
    c = ContractParams(strike=100.0, amort=0.1, kind=kind)
    for fn in (price, greeks_report, statics_report, exercise_boundary):
        with pytest.raises(ValidationError, match=rf"^vol {vol!r} out of range at rate {rate!r}: "):
            fn(m, c)
    with pytest.raises(ValidationError, match=rf"^vol {vol!r} out of range"):
        compute_exponents(m, 0.1)


def test_every_vol_prices_or_raises_an_ampo_error():
    # MarketParams accepts any finite vol > 0: each either prices (finite
    # values) or raises an AmpoError, never OverflowError or ZeroDivisionError
    vols = [5e-324, 1.7976931348623157e308] + [10.0**e for e in range(-320, 309, 4)]
    seen = set()
    for vol in vols:
        for rate in (0.0, 0.05, 2.0):
            m = MarketParams(spot=100.0, rate=rate, vol=vol)
            for kind in (OptionKind.CALL, OptionKind.PUT):
                c = ContractParams(strike=90.0, amort=0.1, kind=kind)
                for fn in (price, greeks_report, statics_report, d_boundary_dq):
                    seen.add(_priced_or_refused(fn, m, c))
    assert seen == {"priced", "refused"}


@pytest.mark.parametrize(
    "vol, rate, quote, greeks",
    [
        # near-deterministic call: boundary K(2r+q)/r = 120
        (1e-60, 0.05, ["0x1.cef684bda12f8p+3", "0x1.e000000000000p+6"],
         ["0x1.284bda12f684dp-1", "0x1.1c71c71c71c73p-6", "0x0.0p+0", "-0x1.725ed097b4260p+0", "-0x0.0p+0"]),
        # huge vol: the call is worth nearly the spot
        (1e100, 0.05, ["0x1.8ffffffffff74p+6", "0x1.87ed11cf06741p+672"],
         ["0x1.fffffffffff4dp-1", "0x1.2cfcc5a17c80cp-673", "0x0.0p+0", "-0x1.3ffffffffff90p+3", "0x1.21d1c4ac6f4ebp-982"]),
        # rate 0 keeps r/sigma^2 at 0, so the exponents stay finite
        (1e-80, 0.0, ["0x1.4000000000000p+3", "0x1.67fffffffffffp+6"],
         ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p+0", "0x0.0p+0"]),
    ],
)
def test_extreme_but_finite_vols_keep_their_values(vol, rate, quote, greeks):
    m = MarketParams(spot=100.0, rate=rate, vol=vol)
    c = ContractParams(strike=90.0, amort=0.1, kind=OptionKind.CALL)
    q = price(m, c)
    assert [q.premium.hex(), q.boundary.hex()] == quote
    assert [x.hex() for x in dataclasses.astuple(greeks_report(m, c))] == greeks
