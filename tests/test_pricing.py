import dataclasses
import math
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
