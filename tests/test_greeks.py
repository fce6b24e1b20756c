import dataclasses
import random

import pytest

from ampo import (
    ContractParams,
    MarketParams,
    OptionKind,
    ValidationError,
    delta,
    dated_bs_call,
    exercise_boundary,
    finite_difference,
    gamma,
    greeks_report,
    price,
    theta_economic,
    vega,
)
from ampo.greeks import _delta, _vega
from ampo.pricing import _closed_form
from conftest import sample_set


def test_delta_params_a(market_a, call_a, put_a):
    assert delta(market_a, call_a) == pytest.approx(0.55516075873073, rel=1e-12)
    assert delta(market_a, put_a) == pytest.approx(-0.25, rel=1e-13)


def test_delta_exercise_region(market_a, call_a, put_a):
    assert delta(dataclasses.replace(market_a, spot=30.0), put_a) == -1.0
    assert delta(dataclasses.replace(market_a, spot=300.0), call_a) == 1.0


def test_gamma_params_a(market_a, call_a, put_a):
    assert gamma(market_a, put_a) == pytest.approx(0.005, rel=1e-13)
    assert gamma(market_a, call_a) == pytest.approx(0.00333096455238438, rel=1e-12)
    assert gamma(dataclasses.replace(market_a, spot=300.0), call_a) == 0.0


def test_vega_params_a(market_a, call_a, put_a):
    assert vega(market_a, call_a) == pytest.approx(50.2631919034417, rel=1e-12)
    assert vega(market_a, put_a) == pytest.approx(53.31901388922656, rel=1e-12)
    assert vega(dataclasses.replace(market_a, spot=300.0), call_a) == 0.0


def test_theta(market_a, call_a, put_a):
    assert theta_economic(market_a, put_a) == pytest.approx(-2.5, rel=1e-13)
    assert theta_economic(market_a, call_a) == pytest.approx(
        -0.1 * price(market_a, call_a).premium, abs=0.0
    )


def test_gamma_refuses_overflow_naming_the_vol():
    # alpha_p ~ 2e154 here, so alpha*(alpha + 1) overflows; Gamma was inf
    m = MarketParams(spot=100.0, rate=1e-6, vol=1e-80)
    c = ContractParams(strike=100.0, amort=1e-8, kind=OptionKind.PUT)
    assert price(m, c).premium < float("inf")
    for fn in (gamma, greeks_report):
        with pytest.raises(ValidationError, match=r"^vol 1e-80 out of range at rate 1e-06: Gamma "):
            fn(m, c)


def test_delta_and_vega_return_their_values_where_gamma_overflows():
    # the premium underflows to 0 while alpha*(alpha + 1) overflows, so Gamma
    # is inf*0; delta and vega raised Gamma's error although theirs are finite
    m = MarketParams(spot=20.127183366784813, rate=0.0016078202964622112, vol=3.901360353939844e-79)
    c = ContractParams(strike=18.711934899744794, amort=6.6843448508372765, kind=OptionKind.PUT)
    f = _closed_form(m, c.kind, c.strike, c.amort)
    assert (delta(m, c).hex(), vega(m, c).hex()) == (_delta(f, m).hex(), _vega(f, m).hex())
    message = f"vol {m.vol!r} out of range at rate {m.rate!r}: Gamma overflows or underflows a float"
    for fn in (gamma, greeks_report):
        with pytest.raises(ValidationError) as exc:
            fn(m, c)
        assert str(exc.value) == message


def test_greeks_report_fields(market_a, put_a):
    rep = greeks_report(market_a, put_a)
    assert rep.delta == delta(market_a, put_a)
    assert rep.theta_explicit == 0.0
    assert rep.theta_economic == -put_a.amort * price(market_a, put_a).premium


def test_fd_consistency():
    rng = random.Random(17)
    for _ in range(60):
        m, c = sample_set(rng, spot_margin=0.01)

        def prem_s(s):
            return price(dataclasses.replace(m, spot=s), c).premium

        def prem_v(v):
            return price(dataclasses.replace(m, vol=v), c).premium

        assert delta(m, c) == pytest.approx(
            finite_difference(prem_s, m.spot, 1, "central", 1e-4), rel=1e-5
        )
        assert gamma(m, c) == pytest.approx(
            finite_difference(prem_s, m.spot, 2, "central", 1e-4), rel=1e-5
        )
        assert vega(m, c) == pytest.approx(
            finite_difference(prem_v, m.vol, 1, "central", 1e-4), rel=1e-5
        )


def test_sign_suite():
    rng = random.Random(19)
    for _ in range(500):
        m, c = sample_set(rng)
        d = delta(m, c)
        if c.kind == OptionKind.CALL:
            assert 0.0 < d <= 1.0
        else:
            assert -1.0 <= d < 0.0
        assert gamma(m, c) >= 0.0
        assert vega(m, c) >= 0.0


def test_delta_continuity_across_boundary():
    rng = random.Random(23)
    for _ in range(50):
        m, c = sample_set(rng)
        bd = exercise_boundary(m, c)
        target = 1.0 if c.kind == OptionKind.CALL else -1.0
        for bump in (1.0 - 1e-9, 1.0 + 1e-9):
            d = delta(dataclasses.replace(m, spot=bd * bump), c)
            assert abs(d - target) < 1e-6


def test_dated_bs_call_values(market_a):
    rep = dated_bs_call(market_a, 100.0, 2.0)
    assert rep.premium == pytest.approx(31.327683827656458, rel=1e-12)
    assert rep.delta == pytest.approx(0.6896910267811551, rel=1e-12)
    assert rep.gamma == pytest.approx(0.004991418560723049, rel=1e-12)
    assert rep.theta == pytest.approx(-8.121344143426764, rel=1e-12)
    assert rep.vega == pytest.approx(49.914185607230486, rel=1e-12)
    assert rep.theta < 0.0


def test_dated_bs_call_deep_itm():
    import math

    m = MarketParams(spot=1000.0, rate=0.05, vol=0.2)
    rep = dated_bs_call(m, 100.0, 1.0)
    assert rep.premium == pytest.approx(1000.0 - 100.0 * math.exp(-0.05), rel=1e-10)


def test_dated_bs_call_small_vol_limit():
    m = MarketParams(spot=100.0, rate=0.0, vol=1e-8)
    assert dated_bs_call(m, 100.0, 1.0).premium < 1e-6


# (premium, delta, gamma, theta, vega) as float.hex, as the one-shot formula
# gave them before the per-market evaluator: hoisting the market's terms and
# inlining the normal CDF and PDF keep every operation and its order
_DATED_PINS = {
    "atm": ((100.0, 0.05, 0.5), 100.0, 1.0, (
        "0x1.5cae81c14ef54p+4", "0x1.460eaac7c7828p-1", "0x1.ebd5c45ceadf2p-8",
        "-0x1.6f378e4b3667cp+3", "0x1.2c313919b65abp+5")),
    "deep_itm": ((1000.0, 0.05, 0.2), 100.0, 1.0, (
        "0x1.c470436bfad3ap+9", "0x1.0000000000000p+0", "0x1.6e0bb57e7b814p-111",
        "-0x1.3064b6e687828p+2", "0x1.17454ee80f9a1p-93")),
    "deep_otm": ((100.0, 0.05, 0.2), 1000.0, 1.0, (
        "0x1.10275e93170e0p-94", "0x1.39f8915c8e8dap-95", "0x1.6140ad34ac2c6p-96",
        "-0x1.2007ceb8a6a93p-88", "0x1.58f9292570235p-85")),
    "t_1e-9": ((100.0, 0.05, 0.5), 100.0, 1e-9, (
        "0x1.4ab69d3ae0000p-11", "0x1.00009428b3698p-1", "0x1.f8a06297315e0p+7",
        "-0x1.3400842ca0320p+18", "0x1.4ab647546c0c3p-10")),
    "t_1e3": ((100.0, 0.05, 0.5), 100.0, 1e3, (
        "0x1.9000000000000p+6", "0x1.0000000000000p+0", "0x1.9ad7010c57737p-101",
        "-0x1.1df0a15a4c8c7p-89", "0x1.e9c2600ae35bep-79")),
    "rate_0": ((100.0, 0.0, 0.5), 120.0, 2.0, (
        "0x1.55b327c2a6b66p+4", "0x1.13852742d3a91p-1", "0x1.700ebd7189a07p-8",
        "-0x1.c149fe4118806p+2", "0x1.c149fe4118807p+5")),
}


@pytest.mark.parametrize("market, strike, maturity, fields", _DATED_PINS.values(), ids=list(_DATED_PINS))
def test_dated_bs_call_fields_are_pinned(market, strike, maturity, fields):
    rep = dated_bs_call(MarketParams(*market), strike, maturity)
    assert tuple(getattr(rep, f.name).hex() for f in dataclasses.fields(rep)) == fields


def test_dated_bs_call_past_the_float_range_prices_or_is_refused_by_name():
    # S/K underflows to 0: log S - log K, where log(S/K) raised "math domain error"
    rep = dated_bs_call(MarketParams(1e-200, 0.05, 0.5), 1e200, 1.0)
    assert (rep.premium, rep.delta, rep.gamma, rep.vega) == (0.0, 0.0, 0.0, 0.0)
    # sigma*sqrt(T) underflows to 0 (ZeroDivisionError), and sigma^2
    # overflows (OverflowError): both are refused naming the dated call
    cases = [((100.0, 0.05, 1e-200), 1e-250, "its terms overflow or underflow a float"),
             ((100.0, 0.05, 1e200), 1.0, "its premium is nan")]
    for market, maturity, why in cases:
        with pytest.raises(ValidationError) as exc:
            dated_bs_call(MarketParams(*market), 100.0, maturity)
        assert str(exc.value).startswith(f"dated call at spot 100.0, strike 100.0, rate 0.05, vol {market[2]!r}")
        assert str(exc.value).endswith(f"and maturity {maturity!r} out of range: {why}")


@pytest.mark.parametrize(
    "strike, maturity, message",
    [
        # a nan maturity used to return an all-nan report
        (100.0, float("nan"), "maturity must be finite, got nan"),
        (100.0, float("inf"), "maturity must be finite, got inf"),
        # an infinite strike used to end in "math domain error"
        (float("inf"), 1.0, "strike must be finite, got inf"),
        ("100", 1.0, "strike must be a real number, got '100'"),
        (100.0, "1", "maturity must be a real number, got '1'"),
    ],
)
def test_dated_bs_call_refuses_terms_that_are_not_finite_numbers(market_a, strike, maturity, message):
    with pytest.raises(ValidationError) as exc:
        dated_bs_call(market_a, strike, maturity)
    assert str(exc.value) == message


def test_economic_theta_refuses_overflow_by_name():
    # q*V = 1e300 * ~1e300 overflows; both views returned -inf
    m = MarketParams(spot=1e-300, rate=0.05, vol=0.5)
    c = ContractParams(strike=1e300, amort=1e300, kind=OptionKind.PUT)
    assert price(m, c).premium == 1e300
    for fn in (theta_economic, greeks_report):
        with pytest.raises(ValidationError, match=r"^amort 1e\+300 out of range at premium 1e\+300: "):
            fn(m, c)
