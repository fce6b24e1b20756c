import dataclasses
import decimal
import math
from fractions import Fraction
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ampo
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
    delta,
    exercise_boundary,
    gamma,
    greeks_report,
    intrinsic_value,
    notional_at,
    pde_residual,
    price,
    statics_report,
    to_equivalent_perpetual,
    vega,
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


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda m: MarketParams("100", 0.05, 0.5), "spot", id="market-spot-str"),
        pytest.param(lambda m: MarketParams(100, 0.05, 1 + 2j), "vol", id="market-vol-complex"),
        pytest.param(lambda m: ContractParams(100.0, None, "put"), "amort", id="contract-amort-none"),
        pytest.param(lambda m: compute_exponents(m, "0.1"), "amort", id="exponents-q-str"),
        pytest.param(lambda m: ampo.StrategySpec("call", "100"), "budget", id="strategy-budget-str"),
        pytest.param(lambda m: ampo.LatticeConfig(horizon="x"), "horizon", id="lattice-horizon-str"),
        pytest.param(
            lambda m: ampo.LatticeConfig(convergence="x"), "convergence tolerance", id="lattice-tolerance-str"
        ),
        pytest.param(lambda m: ampo.finite_difference(math.sin, "1.0"), "x", id="fd-x-str"),
        pytest.param(
            lambda m: ampo.finite_difference(math.sin, 1.0, 1, "central", "1e-6"), "step", id="fd-step-str"
        ),
    ],
)
def test_non_numeric_input_raises_validation_error(market_a, call, name):
    # these used to leave the library as TypeError from math.isfinite or a float comparison
    with pytest.raises(ValidationError, match=rf"^{name} must be "):
        call(market_a)


def test_exponents_blame_a_non_finite_amort_not_the_vol(market_a):
    # nan and inf used to pass the q < 0 test and fail as "vol 0.5 out of range"
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match=r"^amort must be finite, got "):
            compute_exponents(market_a, q)
    with pytest.raises(ValidationError, match=r"^amort must be >= 0, got -0.1$"):
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


def test_equivalent_perpetual_refuses_an_effective_rate_that_overflows():
    # both records accept 1e308, but 2*rate + amort is inf: the mapping
    # returned rate_eff = dividend_eff = inf
    m, c = MarketParams(100.0, 1e308, 0.5), ContractParams(100.0, 1e308, "call")
    message = r"^effective rate 2\*rate \+ amort overflows a float at rate 1e\+308$"
    with pytest.raises(ValidationError, match=message):
        to_equivalent_perpetual(c, m)
    # at rate and amort 1e307, 2*rate + amort is finite, and so are both fields
    e = to_equivalent_perpetual(ContractParams(100.0, 1e307, "call"), MarketParams(100.0, 1e307, 0.5))
    assert (e.rate_eff, e.dividend_eff) == (3e307, 2e307)


def test_the_boundary_is_the_one_float_field_that_can_be_inf():
    # alpha*K/gap passes the largest float while the premium is a float, as
    # README states; making the boundary finite is ROADMAP item 10's work
    m, c = MarketParams(1e150, 0.0, 1.0), ContractParams(9e307, 1.0, "call")
    q = price(m, c)
    assert q.boundary == exercise_boundary(m, c) == math.inf
    assert q.premium == pytest.approx(2.78e-9, rel=1e-3)
    assert q.regime is Regime.CONTINUATION
    assert all(math.isfinite(v) for v in dataclasses.astuple(greeks_report(m, c)))


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
    "m, c, want",
    [
        # gap*S/(alpha*K) underflows to 0: a put deep in its exercise region
        (MarketParams(1e-300, 0.05, 0.5), ContractParams(1e300, 0.1, "put"),
         Quote(1e300, 5e299, Regime.EXERCISE_NOW)),
        (MarketParams(1e-300, 0.05, 0.5), ContractParams(1e300, 0.1, "call"),
         Quote(0.0, 2.6666666666666665e300, Regime.CONTINUATION)),
        # alpha_p*K underflows to 0 (alpha_p = 2e-306)
        (MarketParams(1.0, 0.0, 1e3), ContractParams(1e-300, 1e-300, "put"),
         Quote(1e-300, 0.0, Regime.CONTINUATION)),
    ],
)
def test_a_log_moneyness_beyond_the_float_range_is_summed_from_logs(m, c, want):
    assert price(m, c) == want
    for fn in (greeks_report, statics_report, d_boundary_dq):
        _priced_or_refused(fn, m, c)


@pytest.mark.parametrize(
    "spot, kind, q",
    [
        # a put with alpha_p = 10: gap*S = 11e308 overflows, so the quotient's
        # log is inf, where the premium is 0.385 K/gap
        (1e308, OptionKind.PUT, 55.0),
        # a call with alpha_c = 100: alpha*K = 1e309 overflows, while the
        # boundary, 100/99 K, does not; the spot is beyond it
        (1.5e307, OptionKind.CALL, 4950.0),
        (1.005e307, OptionKind.CALL, 4950.0),
    ],
)
def test_terms_that_overflow_at_the_top_of_the_float_range_scale_from_below(spot, kind, q):
    # the closed form is homogeneous of degree 1 in (S, K): the quote at the
    # top of the float range is 1e300 times the quote 1e300 times lower. L
    # summed from logs near 707 is off by about an ulp of 707, 1.1e-13,
    # which alpha <= 100 turns into up to 1.1e-11 on the premium and Delta
    strike = 1e308 if kind is OptionKind.PUT else 1e307
    m, c = MarketParams(spot, 0.0, 1.0), ContractParams(strike, q, kind)
    low_m, low_c = MarketParams(spot * 1e-300, 0.0, 1.0), ContractParams(strike * 1e-300, q, kind)
    high, low = price(m, c), price(low_m, low_c)
    assert high.regime == low.regime
    assert math.isclose(high.boundary, low.boundary * 1e300, rel_tol=1e-14)
    assert math.isclose(high.premium, low.premium * 1e300, rel_tol=1e-10)
    assert math.isclose(delta(m, c), delta(low_m, low_c), rel_tol=1e-10)


@pytest.mark.parametrize(
    "vol, rate, quote, greeks",
    [
        # near-deterministic call: boundary K(2r+q)/r = 120; Vega 6.3306096109012018e-58
        # at 200 digits
        (1e-60, 0.05, ["0x1.cef684bda12f8p+3", "0x1.e000000000000p+6"],
         ["0x1.284bda12f684dp-1", "0x1.1c71c71c71c73p-6", "0x0.0p+0", "-0x1.725ed097b4260p+0", "0x1.fca5164a05bafp-191"]),
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


# ---------------------------------------------------------------- contract memo


def _fields(rec) -> list[str]:
    """Every float of a result record as float.hex, anything else as str."""
    return [x.hex() if isinstance(x, float) else str(x) for x in dataclasses.astuple(rec)]


def _outcomes(m, c) -> list:
    """Every per-contract public result of (m, c), or the error's type and message."""
    out = []
    for fn in (price, lambda m, c: compute_exponents(m, c.amort), greeks_report, statics_report,
               exercise_boundary, d_boundary_dq):
        try:
            res = fn(m, c)
            out.append(res.hex() if isinstance(res, float) else _fields(res))
        except AmpoError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def _copy(m, c):
    """Equal inputs that are distinct objects (so they never match the memo)."""
    return dataclasses.replace(m), dataclasses.replace(c)


def test_one_contract_makes_one_exponent_solve(market_a, monkeypatch):
    import ampo.pricing

    solves = []
    exponents = ampo.pricing._exponents

    def counted(m, q):
        solves.append(q)
        return exponents(m, q)

    monkeypatch.setattr(ampo.pricing, "_exponents", counted)
    for kind in OptionKind:
        c = ContractParams(strike=100.0, amort=0.1, kind=kind)
        m = dataclasses.replace(market_a)
        solves.clear()
        price(m, c)
        compute_exponents(m, c.amort)
        greeks_report(m, c)
        statics_report(m, c)
        exercise_boundary(m, c)
        assert solves == [0.1]


def test_every_closed_form_is_one_kernel_call(market_a, monkeypatch):
    # premium, boundary, L and Vega come from pricing._kernel, which each
    # module calls through its own imported name
    import ampo.analysis
    import ampo.oracle
    import ampo.pricing

    calls = []
    kernel = ampo.pricing._kernel

    def counted(m, kind, strike, q, ex, spot):
        calls.append((kind, spot))
        return kernel(m, kind, strike, q, ex, spot)

    for module in (ampo.pricing, ampo.analysis, ampo.oracle):
        monkeypatch.setattr(module, "_kernel", counted)
    for kind in OptionKind:
        c = ContractParams(strike=100.0, amort=0.1, kind=kind)
        m = dataclasses.replace(market_a)
        calls.clear()
        price(m, c)
        compute_exponents(m, c.amort)
        greeks_report(m, c)
        statics_report(m, c)
        assert calls == [(kind, m.spot)]
        # N spots of the residual are N evaluations
        calls.clear()
        spots = [90.0, 100.0, 110.0] if kind is OptionKind.CALL else [110.0, 100.0, 120.0, 150.0]
        pde_residual(m, c, spots)
        assert calls == [(kind, s) for s in spots]
    # the call, put and straddle at one new q: one leg of each kind
    calls.clear()
    for strategy in ampo.StrategyKind:
        ampo.positional_vega(market_a, 100.0, ampo.StrategySpec(strategy, 100.0), 0.123)
    assert calls == [(OptionKind.CALL, 100.0), (OptionKind.PUT, 100.0)]
    # the ratio study on the grid the curve just evaluated reads its points:
    # no closed form and no exponent solve
    solves = []
    exponents = ampo.pricing._exponents

    def solved(m, q):
        solves.append(q)
        return exponents(m, q)

    for module in (ampo.pricing, ampo.analysis):
        monkeypatch.setattr(module, "_exponents", solved)
    m, grid = dataclasses.replace(market_a), [0.1, 0.2, 0.3]
    calls.clear()
    ampo.effective_notional_curve(m, 100.0, grid)
    assert calls == [(OptionKind.CALL, 100.0)] * len(grid) and solves == grid
    calls.clear()
    solves.clear()
    ampo.ratio_study(m, 100.0, grid)
    assert calls == [] and solves == []


def test_market_a_benchmark_calls_make_pinned_solve_and_kernel_counts(market_a, monkeypatch):
    # the studies and validate workloads' calls on market A, with their own
    # literal grids and q range: each step's (_exponents, _kernel) counts
    # show every memo hit they rely on, so a matching rule that drops one fails
    import ampo.analysis
    import ampo.oracle
    import ampo.pricing

    counts = [0, 0]
    exponents, kernel = ampo.pricing._exponents, ampo.pricing._kernel

    def solved(m, q):
        counts[0] += 1
        return exponents(m, q)

    def evaluated(*args):
        counts[1] += 1
        return kernel(*args)

    for module in (ampo.pricing, ampo.analysis):
        monkeypatch.setattr(module, "_exponents", solved)
    for module in (ampo.pricing, ampo.analysis, ampo.oracle):
        monkeypatch.setattr(module, "_kernel", evaluated)
    m = dataclasses.replace(market_a)
    qs20 = [0.05 + 0.95 * i / 19 for i in range(20)]
    qs100 = [0.01 + 0.99 * i / 99 for i in range(100)]
    specs = [ampo.StrategySpec(kind, 100.0) for kind in ampo.StrategyKind]
    cfg = ampo.LatticeConfig(horizon=200.0, steps=4000, convergence=5e-3)
    steps = {
        "curve and ratios": lambda: (ampo.effective_notional_curve(m, 100.0, qs20),
                                     ampo.ratio_study(m, 100.0, qs20)),
        "positional Vega grid": lambda: [[ampo.positional_vega(m, 100.0, s, q) for s in specs] for q in qs100],
        "optimize_q": lambda: [ampo.optimize_q(m, 100.0, s, (0.001, 1.0)) for s in specs],
        **{f"validate {kind.value}": (lambda kind: lambda: ampo.validate_checks(
            m, ContractParams(strike=100.0, amort=0.1, kind=kind), cfg))(kind) for kind in OptionKind},
    }
    got = {}
    for name, step in steps.items():
        counts[:] = 0, 0
        step()
        got[name] = tuple(counts)
    # fd_gamma's difference of Delta evaluates two bumped spots, where the
    # premium's second difference evaluated three
    assert got == {"curve and ratios": (20, 20), "positional Vega grid": (100, 200), "optimize_q": (224, 425),
                   "validate call": (4, 20), "validate put": (4, 20)}


def test_market_a_validate_calls_take_the_comparison_chains(market_a, monkeypatch):
    # the validate workload's calls and validate_checks on market A: each
    # bumped MarketParams, residual spot, lattice term and difference point is
    # an exact float in range, which its check's comparison chain accepts with
    # no _require_finite call; only the premium scale and perturb knobs make one
    import ampo.analysis
    import ampo.greeks
    import ampo.oracle
    import ampo.params
    import ampo.pricing

    names = []
    require_finite = ampo.params._require_finite

    def counted(name, value):
        names.append(name)
        return require_finite(name, value)

    for module in (ampo.params, ampo.pricing, ampo.greeks, ampo.oracle, ampo.analysis):
        if hasattr(module, "_require_finite"):
            monkeypatch.setattr(module, "_require_finite", counted)
    m = dataclasses.replace(market_a)
    cfg = ampo.LatticeConfig(horizon=200.0, steps=4000, convergence=5e-3)
    got = {}
    for kind in OptionKind:
        c = ContractParams(strike=100.0, amort=0.1, kind=kind)
        names.clear()
        ampo.lattice_price(to_equivalent_perpetual(c, m), m, cfg)
        lo, hi = sorted((m.spot, price(m, c).boundary))
        a, b = (0.5 * lo, 0.999 * hi) if kind is OptionKind.CALL else (1.001 * lo, 1.5 * hi)
        pde_residual(m, c, [a + (b - a) * i / 9 for i in range(10)])
        for field, order in (("spot", 1), ("spot", 2), ("vol", 1)):
            bumped = lambda x: price(dataclasses.replace(m, **{field: x}), c).premium
            ampo.finite_difference(bumped, getattr(m, field), order, "central", 1e-4)
        got[f"workload {kind.value}"] = names[:]
        names.clear()
        ampo.validate_checks(m, c, cfg)
        got[f"validate {kind.value}"] = names[:]
    assert got == {"workload call": ["premium_scale"], "validate call": ["perturb", "premium_scale"],
                   "workload put": ["premium_scale"], "validate put": ["perturb", "premium_scale"]}


def test_memo_matches_fresh_evaluations_in_any_order():
    rng = random.Random(14)
    pairs = [sample_set(rng) for _ in range(6)]
    # one market beyond the boundary (statics refuses) and one whose solve overflows
    pairs.append((MarketParams(spot=30.0, rate=0.05, vol=0.5), ContractParams(100.0, 0.1, OptionKind.PUT)))
    pairs.append((MarketParams(spot=100.0, rate=0.05, vol=1e-80), ContractParams(100.0, 0.1, OptionKind.CALL)))
    want = [_outcomes(*_copy(m, c)) for m, c in pairs]
    # the same objects again, each contract repeated, then interleaved
    for order in (range(len(pairs)), [0, 0, 1, 7, 1, 2, 6, 2, 0, 5, 7, 5], [3, 4] * 4):
        for i in order:
            assert _outcomes(*pairs[i]) == want[i]
    # interleaved calls of different functions on different contracts
    (m1, c1), (m2, c2) = pairs[:2]
    assert _fields(price(m1, c1)) == want[0][0]
    assert _fields(greeks_report(m2, c2)) == want[1][2]
    assert _fields(statics_report(m1, c1)) == want[0][3]
    # one contract object on two markets, and one market with two contracts
    for m, c in ((m1, c1), (m2, c1), (m1, c1), (m1, c2), (m1, c1)):
        assert _outcomes(m, c) == _outcomes(*_copy(m, c))
    # the entry is (m1, c1) now: c1's q on another market must not read it
    assert _fields(compute_exponents(m2, c1.amort)) == _fields(
        compute_exponents(dataclasses.replace(m2), c1.amort)
    )


def test_an_error_leaves_the_last_evaluation_in_place(market_a, monkeypatch):
    import ampo.pricing

    c = ContractParams(strike=100.0, amort=0.1, kind=OptionKind.PUT)
    quote, ex = price(market_a, c), compute_exponents(market_a, c.amort)
    bad = MarketParams(spot=100.0, rate=0.05, vol=1e-80)
    with pytest.raises(ValidationError):
        price(bad, c)
    with pytest.raises(ValidationError):
        compute_exponents(bad, c.amort)

    def no_solve(m, q):
        raise AssertionError("the exponents were solved again")

    monkeypatch.setattr(ampo.pricing, "_exponents", no_solve)
    assert price(market_a, c) == quote
    assert compute_exponents(market_a, c.amort) == ex


def test_the_memo_matches_no_argument_before_its_first_evaluation():
    # a fresh interpreter: a None sentinel would make price(None, None) a hit
    code = "import ampo\ntry:\n    ampo.price(None, None)\nexcept AttributeError:\n    print('miss')\n"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(Path(ampo.__file__).parents[1])})
    assert out.stdout == "miss\n", out.stderr


def test_threads_alternating_contracts_each_read_their_own():
    rng = random.Random(7)
    pairs = [sample_set(rng) for _ in range(4)]
    want = [_outcomes(*_copy(m, c)) for m, c in pairs]
    errors = []

    def worker(mine):
        for _ in range(300):
            for i in mine:
                if _outcomes(*pairs[i]) != want[i]:
                    errors.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(mine,)) for mine in ((0, 1), (2, 3))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


# ---------------------------------------------------------------- spot-free terms across calls


def _views(m, c) -> list:
    """price, greeks_report, statics_report, compute_exponents, delta, gamma and vega of (m, c)."""
    out = []
    for fn in (price, greeks_report, statics_report, lambda m, c: compute_exponents(m, c.amort),
               delta, gamma, vega):
        try:
            res = fn(m, c)
            out.append(res.hex() if isinstance(res, float) else _fields(res))
        except AmpoError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def _after_price(m, c, markets) -> tuple[list, list]:
    """_views of each market with c, called in turn after price(m, c), and each evaluated fresh."""
    fresh = [_views(*_copy(other, c)) for other in markets]
    price(m, c)
    return [_views(other, c) for other in markets], fresh


@pytest.mark.parametrize("kind", list(OptionKind))
def test_a_spot_ladder_across_the_boundary_matches_fresh_evaluations(market_a, kind):
    c = ContractParams(strike=100.0, amort=0.1, kind=kind)
    bd = exercise_boundary(market_a, c)
    spots = [bd * f for f in (0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0)] + [market_a.spot]
    got, fresh = _after_price(market_a, c, [dataclasses.replace(market_a, spot=s) for s in spots])
    assert got == fresh
    assert {view[0][2] for view in got} == {"Regime.CONTINUATION", "Regime.EXERCISE_NOW"}


def test_rate_and_vol_match_by_identity(monkeypatch):
    # replace(m, spot=s) holds m's rate and vol objects (a hit); -0.0, an int 0
    # and an equal float made at run time are other objects (each a miss)
    import ampo.pricing

    m = MarketParams(spot=100.0, rate=0.0, vol=0.5)
    c = ContractParams(strike=100.0, amort=0.1, kind=OptionKind.CALL)
    equal_rate, equal_vol = float(repr(m.rate)), float(repr(m.vol))
    assert equal_rate is not m.rate and equal_vol is not m.vol
    misses = [MarketParams(spot=s, rate=r, vol=v) for s, r, v in (
        (105.0, -0.0, m.vol), (110.0, 0, m.vol), (90.0, equal_rate, m.vol), (85.0, m.rate, equal_vol)
    )]
    markets = [dataclasses.replace(m, spot=95.0), *misses]
    fresh = [_views(*_copy(other, c)) for other in markets]
    solves = []
    exponents = ampo.pricing._exponents
    monkeypatch.setattr(ampo.pricing, "_exponents", lambda m, q: solves.append(m) or exponents(m, q))
    price(m, c)
    assert [_views(other, c) for other in markets] == fresh
    assert list(map(id, solves)) == list(map(id, [m, *misses]))


def test_another_contract_or_vol_is_a_miss(market_a, call_a, put_a):
    moved = dataclasses.replace(market_a, spot=90.0)
    for other in (dataclasses.replace(call_a), put_a, dataclasses.replace(call_a, strike=120.0)):
        want = _views(*_copy(moved, other))
        price(market_a, call_a)
        assert _views(moved, other) == want
    got, fresh = _after_price(market_a, call_a, [dataclasses.replace(market_a, vol=0.5001),
                                                 dataclasses.replace(market_a, rate=0.0501)])
    assert got == fresh


def test_a_ladder_spot_whose_power_rounds_above_zero_prices_k_over_gap():
    # alpha_c is about 1e18, so the log-moneyness rounding up by an ulp at this
    # spot next to the boundary would make exp(alpha*L) overflow K/gap; the
    # power is clamped to 0 in the continuation region, so the ladder spot
    # prices K/gap, as value matching gives, on the reused spot-free terms
    # (the first ladder market) as on a fresh evaluation (the second, whose
    # rate is another object); the first market is exercised and prices
    vol, strike, q = 8.461471497192527e-19, 1.471031736065205e238, 1.0579474304328549
    m = MarketParams(spot=1e300, rate=0.0, vol=vol)
    c = ContractParams(strike=strike, amort=q, kind=OptionKind.CALL)
    ladder = [dataclasses.replace(m, spot=1.4710317360652053e238),
              MarketParams(spot=1.4710317360652053e238, rate=-0.0, vol=vol)]
    got, fresh = _after_price(m, c, ladder)
    assert got == fresh
    f = ampo.pricing._evaluate(*_copy(ladder[1], c))
    assert f.regime is Regime.CONTINUATION and strike / f.gap * math.exp(f.alpha * f.log_m) == math.inf
    assert [view[0] for view in got] == [[(strike / f.gap).hex(), f.boundary.hex(), str(Regime.CONTINUATION)]] * 2


def test_threads_laddering_one_contract_on_two_vols_each_read_their_own():
    # both threads reuse the entry of the same contract object; a thread must
    # never combine its spot with the other market's spot-free terms
    c = ContractParams(strike=100.0, amort=0.1, kind=OptionKind.PUT)
    ladders = [[MarketParams(spot=s, rate=0.05, vol=vol) for s in (70.0, 90.0, 110.0, 150.0)]
               for vol in (0.3, 0.6)]
    want = [[_views(*_copy(m, c)) for m in ladder] for ladder in ladders]
    errors = []

    def worker(i):
        for _ in range(300):
            for m, w in zip(ladders[i], want[i]):
                if _fields(price(m, c)) != w[0]:
                    errors.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_a_spot_ladder_solves_nothing_and_a_vol_bump_once(market_a, monkeypatch):
    import ampo.pricing

    solves = []
    exponents = ampo.pricing._exponents

    def counted(m, q):
        solves.append(q)
        return exponents(m, q)

    monkeypatch.setattr(ampo.pricing, "_exponents", counted)
    for kind in OptionKind:
        c = ContractParams(strike=100.0, amort=0.1, kind=kind)
        m = dataclasses.replace(market_a)
        price(m, c)
        solves.clear()
        for s in (60.0, 90.0, 100.0, 130.0, 400.0):
            bumped = dataclasses.replace(m, spot=s)
            if _views(bumped, c)[0][2] == "Regime.CONTINUATION":
                pde_residual(bumped, c, [s])
        assert solves == []
        for v in (0.45, 0.55):
            _views(dataclasses.replace(m, vol=v), c)
        assert solves == [0.1, 0.1]


@pytest.mark.parametrize("rate", [Fraction(-1, 10**400), -1e-300])
def test_market_params_refuse_a_negative_rate_that_rounds_to_zero(rate):
    # rate + 0.0 is -0.0 for the Fraction, so a range test on the float
    # would pass it; the comparison on the value itself refuses it
    with pytest.raises(ValidationError, match="^rate must be >= 0, got "):
        MarketParams(spot=100.0, rate=rate, vol=0.5)


_M = MarketParams(spot=100.0, rate=0.05, vol=0.5)
_PUT = ContractParams(strike=100.0, amort=0.1, kind=OptionKind.PUT)
_SPEC = ampo.StrategySpec(kind="put", budget=100.0)
# (function, argument) -> the function called with a bad value of that argument
_WITH_BAD = {
    ("pde_residual", "spots"): lambda x: ampo.pde_residual(_M, _PUT, [x]),
    ("pde_residual", "premium_scale"): lambda x: ampo.pde_residual(_M, _PUT, [100.0], x),
    ("validate_checks", "perturb"): lambda x: ampo.validate_checks(
        _M, _PUT, ampo.LatticeConfig(steps=200), x
    ),
    ("positional_vega", "q"): lambda x: ampo.positional_vega(_M, 100.0, _SPEC, x),
    ("positional_vega", "strike"): lambda x: ampo.positional_vega(_M, x, _SPEC, 0.1),
    ("optimize_q", "q_range"): lambda x: ampo.optimize_q(_M, 100.0, _SPEC, x),
    ("optimize_q", "grid_points"): lambda x: ampo.optimize_q(_M, 100.0, _SPEC, (0.01, 1.0), x),
}


@pytest.mark.parametrize(
    "function, argument, bad, message",
    [
        # each used to raise TypeError or ValueError
        ("pde_residual", "spots", "x", "spot must be a real number, got 'x'"),
        ("pde_residual", "spots", None, "spot must be a real number, got None"),
        ("pde_residual", "premium_scale", "x", "premium_scale must be a real number, got 'x'"),
        ("validate_checks", "perturb", "x", "perturb must be a real number, got 'x'"),
        # the amortization rate q is named amort, as ContractParams names it
        ("positional_vega", "q", "x", "amort must be a real number, got 'x'"),
        ("positional_vega", "strike", "x", "strike must be a real number, got 'x'"),
        ("optimize_q", "q_range", ("a", "b"), "q_range must satisfy 0 < lo < hi < inf, got ('a', 'b')"),
        # each used to raise "unsupported operand type(s) for -" from the scan grid
        (
            "optimize_q", "q_range", (0.2, decimal.Decimal("0.3")),
            "q_range must satisfy 0 < lo < hi < inf, got (0.2, Decimal('0.3'))",
        ),
        (
            "optimize_q", "q_range", (decimal.Decimal("0.2"), 0.3),
            "q_range must satisfy 0 < lo < hi < inf, got (Decimal('0.2'), 0.3)",
        ),
        ("optimize_q", "grid_points", "x", "grid_points must be an integer, got 'x'"),
    ],
)
def test_a_bad_argument_raises_a_validation_error_naming_it(function, argument, bad, message):
    with pytest.raises(ValidationError) as exc:
        _WITH_BAD[function, argument](bad)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        # each used to raise "unsupported operand type(s) for *: 'float' and 'decimal.Decimal'"
        pytest.param(
            lambda: ampo.price(MarketParams(spot=decimal.Decimal("100"), rate=0.05, vol=0.5), _PUT),
            "spot must be a real number, got Decimal('100')",
            id="market-spot",
        ),
        pytest.param(
            lambda: ampo.price(_M, ContractParams(strike=decimal.Decimal("100"), amort=0.1, kind="put")),
            "strike must be a real number, got Decimal('100')",
            id="contract-strike",
        ),
        pytest.param(
            lambda: ampo.positional_vega(_M, decimal.Decimal("100"), _SPEC, 0.1),
            "strike must be a real number, got Decimal('100')",
            id="positional-vega-strike",
        ),
        pytest.param(
            lambda: ampo.compute_exponents(_M, decimal.Decimal("0.1")),
            "amort must be a real number, got Decimal('0.1')",
            id="exponents-q",
        ),
        # raised decimal.InvalidOperation from the range check's comparison
        pytest.param(
            lambda: ampo.compute_exponents(_M, decimal.Decimal("nan")),
            "amort must be a real number, got Decimal('NaN')",
            id="exponents-q-nan",
        ),
    ],
)
def test_a_decimal_is_refused_where_float_arithmetic_would_fail(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "kind, spot, strike, message",
    [
        # leaked OverflowError, leaked TypeError, returned nan, returned 0.0
        pytest.param(OptionKind.CALL, 10**400, 1.0, f"spot must be finite, got {10**400}", id="int-spot"),
        pytest.param(OptionKind.CALL, "1.0", 1.0, "spot must be a real number, got '1.0'", id="str-spot"),
        pytest.param(OptionKind.CALL, math.nan, 1.0, "spot must be finite, got nan", id="nan-spot"),
        pytest.param(OptionKind.CALL, -5.0, 1.0, "spot must be > 0, got -5.0", id="negative-spot"),
        # returned 0.0 and 1.0
        pytest.param(OptionKind.PUT, 1.0, 0.0, "strike must be > 0, got 0.0", id="zero-strike"),
        pytest.param("straddle", 1.0, 2.0, "kind must be one of call, put", id="kind"),
    ],
)
def test_intrinsic_value_refuses_a_bad_input_by_name(kind, spot, strike, message):
    with pytest.raises(ValidationError) as exc:
        intrinsic_value(kind, spot, strike)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "kind, spot, strike, value",
    [
        pytest.param(OptionKind.CALL, 120, 100, 20, id="ints"),
        pytest.param("put", Fraction(1, 2), 1.0, 0.5, id="fraction-spot"),
        pytest.param(OptionKind.PUT, 5e-324, 1.0, 1.0, id="subnormal-spot"),
    ],
)
def test_intrinsic_value_accepts_what_the_records_accept(kind, spot, strike, value):
    # an int, a Fraction, a subnormal spot and a kind by its value, as
    # MarketParams and ContractParams accept them
    assert intrinsic_value(kind, spot, strike) == value


@pytest.mark.parametrize(
    "call, message",
    [
        # each used to raise "'float' object is not iterable"
        (lambda: ampo.pde_residual(_M, _PUT, 100.0), "spots must be a sequence of numbers, got 100.0"),
        (
            lambda: ampo.effective_notional_curve(_M, 100.0, 0.1),
            "q_grid must be a sequence of numbers, got 0.1",
        ),
        (lambda: ampo.ratio_study(_M, 100.0, 0.1), "q_grid must be a sequence of numbers, got 0.1"),
    ],
    ids=["pde_residual", "effective_notional_curve", "ratio_study"],
)
def test_a_grid_that_is_not_iterable_raises_a_validation_error(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message
