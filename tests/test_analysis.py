import dataclasses
import decimal
import fractions
import math
import random
import re
import sys
import threading

import pytest

import ampo.analysis
from ampo import (
    ContractParams,
    MarketParams,
    NoSolutionError,
    OptionKind,
    Regime,
    StrategyKind,
    StrategySpec,
    ValidationError,
    dated_bs_call,
    effective_maturity,
    effective_notional_curve,
    gamma,
    optimize_q,
    positional_vega,
    price,
    ratio_study,
    vega,
)
from conftest import AMORT_RANGE, RATE_RANGE, STRIKE, VOL_RANGE

STRATEGY_KINDS = {
    StrategyKind.CALL_ONLY: (OptionKind.CALL,),
    StrategyKind.PUT_ONLY: (OptionKind.PUT,),
    StrategyKind.STRADDLE: (OptionKind.CALL, OptionKind.PUT),
}


def _box_markets(n, seed):
    rng = random.Random(seed)
    return [
        MarketParams(spot=STRIKE, rate=rng.uniform(*RATE_RANGE), vol=rng.uniform(*VOL_RANGE))
        for _ in range(n)
    ]


def _positional_vega_from_views(m, strategy, q):
    # the public views summed in the strategy's order: call, then put
    prem = veg = 0.0
    for kind in STRATEGY_KINDS[strategy.kind]:
        c = ContractParams(strike=STRIKE, amort=q, kind=kind)
        prem += price(m, c).premium
        veg += vega(m, c)
    return strategy.budget * veg / prem


def test_effective_maturity_params_a(market_a):
    res = effective_maturity(market_a, 100.0, 0.1)
    assert res.effective_maturity == pytest.approx(2.4379127, rel=1e-5)
    assert 2.0 < res.effective_maturity < 2.5  # bracketed by 31.33 and 35.15
    # self-consistency: the dated call at T reproduces the AmPO premium
    dated = dated_bs_call(market_a, 100.0, res.effective_maturity)
    ampo_prem = price(
        market_a, ContractParams(strike=100.0, amort=0.1, kind=OptionKind.CALL)
    ).premium
    assert abs(dated.premium - ampo_prem) < 1e-8


def test_effective_maturity_monotone(market_a):
    qs = [0.05 + 0.95 * i / 14 for i in range(15)]
    res = effective_notional_curve(market_a, 100.0, qs)
    ts = [r.effective_maturity for r in res]
    ns = [r.effective_notional for r in res]
    assert all(b < a for a, b in zip(ts, ts[1:]))
    assert all(b < a for a, b in zip(ns, ns[1:]))
    assert all(0.0 < n <= 1.0 for n in ns)


def test_effective_notional_at_q_one(market_a):
    res = effective_maturity(market_a, 100.0, 1.0)
    assert res.effective_notional > 0.65
    assert res.effective_notional == pytest.approx(0.6762432, rel=1e-5)


def test_effective_notional_small_q(market_a):
    res = effective_maturity(market_a, 100.0, 1e-4)
    assert res.effective_notional > 0.99


def test_effective_maturity_large_q_small(market_a):
    res = effective_maturity(market_a, 100.0, 50.0)
    assert res.effective_maturity < 0.05


def test_ratio_study(market_a):
    qs = [0.05 + 0.95 * i / 9 for i in range(10)]
    pts = ratio_study(market_a, 100.0, qs)
    grs = [p.gamma_ratio for p in pts]
    assert all(b > a for a, b in zip(grs, grs[1:]))
    assert all(p.gamma_ratio > 0 and p.theta_ratio > 0 for p in pts)
    last = pts[-1]
    assert last.gamma_ratio < 0.80
    assert last.theta_ratio < 0.75
    assert last.gamma_ratio == pytest.approx(0.7994042, rel=1e-5)
    assert last.theta_ratio == pytest.approx(0.7455154, rel=1e-5)


def test_positional_vega_definition(market_a):
    spec = StrategySpec(kind=StrategyKind.PUT_ONLY, budget=100.0)
    q = 0.2
    c = ContractParams(strike=100.0, amort=q, kind=OptionKind.PUT)
    expected = 100.0 * vega(market_a, c) / price(market_a, c).premium
    assert positional_vega(market_a, 100.0, spec, q) == pytest.approx(expected, rel=1e-13)


def test_positional_vega_homogeneous_in_budget(market_a):
    lo = StrategySpec(kind=StrategyKind.STRADDLE, budget=1.0)
    hi = StrategySpec(kind=StrategyKind.STRADDLE, budget=250.0)
    v1 = positional_vega(market_a, 100.0, lo, 0.3)
    v2 = positional_vega(market_a, 100.0, hi, 0.3)
    assert v2 == pytest.approx(250.0 * v1, rel=1e-12)


def test_positional_vega_straddle_combines(market_a):
    q = 0.4
    call = ContractParams(strike=100.0, amort=q, kind=OptionKind.CALL)
    put = ContractParams(strike=100.0, amort=q, kind=OptionKind.PUT)
    prem = price(market_a, call).premium + price(market_a, put).premium
    veg = vega(market_a, call) + vega(market_a, put)
    spec = StrategySpec(kind=StrategyKind.STRADDLE, budget=100.0)
    assert positional_vega(market_a, 100.0, spec, q) == pytest.approx(
        100.0 * veg / prem, rel=1e-13
    )


def test_optimize_q_put(market_a):
    spec = StrategySpec(kind=StrategyKind.PUT_ONLY, budget=100.0)
    res = optimize_q(market_a, 100.0, spec, (0.001, 1.0))
    assert res.q_star == pytest.approx(0.14261336457610096, abs=5e-4)
    assert not res.boundary_maximum
    assert not res.multimodal
    assert len(res.curve) >= 200


def test_optimize_q_grid_doubling_invariance(market_a):
    spec = StrategySpec(kind=StrategyKind.PUT_ONLY, budget=100.0)
    r1 = optimize_q(market_a, 100.0, spec, (0.001, 1.0), grid_points=201)
    r2 = optimize_q(market_a, 100.0, spec, (0.001, 1.0), grid_points=402)
    assert abs(r1.q_star - r2.q_star) < 1e-4


def test_optimize_q_call_hits_upper_edge(market_a):
    spec = StrategySpec(kind=StrategyKind.CALL_ONLY, budget=100.0)
    res = optimize_q(market_a, 100.0, spec, (0.001, 1.0))
    assert res.boundary_maximum
    assert res.q_star == pytest.approx(1.0)


def test_optimize_q_restricted_range(market_a):
    spec = StrategySpec(kind=StrategyKind.PUT_ONLY, budget=100.0)
    res = optimize_q(market_a, 100.0, spec, (0.5, 1.0))
    assert res.boundary_maximum
    assert res.q_star == pytest.approx(0.5)


def test_optimize_q_bad_range(market_a):
    from ampo import ValidationError

    spec = StrategySpec(kind=StrategyKind.PUT_ONLY, budget=100.0)
    with pytest.raises(ValidationError):
        optimize_q(market_a, 100.0, spec, (0.5, 0.1))


@pytest.mark.parametrize("q_range", [(0.001, math.inf), (0.001, math.nan), (math.nan, 1.0)])
def test_optimize_q_rejects_non_finite_range(market_a, q_range):
    # refused up front, not by the amort check of a scan point
    spec = StrategySpec(kind=StrategyKind.PUT_ONLY, budget=100.0)
    with pytest.raises(ValidationError, match=re.escape("q_range must satisfy 0 < lo < hi")):
        optimize_q(market_a, 100.0, spec, q_range)


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_optimize_q_refuses_a_budget_whose_vega_overflows(market_a, kind):
    # budget 1e308 puts budget * positional Vega past the largest double on
    # every scan point, so there is no finite maximum to report
    spec = StrategySpec(kind=kind, budget=1e308)
    with pytest.raises(NoSolutionError, match=r"^positional Vega overflows a float at budget 1e\+308"):
        optimize_q(market_a, 100.0, spec, (0.001, 1.0))


@pytest.mark.parametrize("budget", [math.nan, math.inf])
def test_strategy_spec_rejects_non_finite_budget(budget):
    with pytest.raises(ValidationError, match="budget must be finite"):
        StrategySpec(kind=StrategyKind.STRADDLE, budget=budget)


@pytest.mark.parametrize("kind", ["bogus", None])
def test_strategy_spec_rejects_unknown_kind(kind):
    with pytest.raises(ValidationError, match=r"^kind must be one of call, put, straddle$"):
        StrategySpec(kind=kind, budget=1.0)


def test_put_positional_vega_unimodal(market_a):
    spec = StrategySpec(kind=StrategyKind.PUT_ONLY, budget=100.0)
    qs = [0.01 + 0.99 * i / 99 for i in range(100)]
    vs = [positional_vega(market_a, 100.0, spec, q) for q in qs]
    diffs = [b - a for a, b in zip(vs, vs[1:])]
    sign_changes = sum(
        1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
    )
    assert sign_changes == 1


def test_effective_maturity_rejects_saturated_premium():
    # with a vanishing strike the AmPO premium sits at the dated-call
    # supremum (the spot itself) and no finite maturity can match it
    m = MarketParams(spot=100.0, rate=0.05, vol=0.5)
    with pytest.raises(NoSolutionError):
        effective_maturity(m, 1e-12, 0.001)


def test_effective_maturity_quantized_premium_converges():
    # the dated premium cancels to 0.0 at small T and the target is
    # 1.3e-32, so unguarded Newton steps crawl in ~3e-12 increments;
    # the halving safeguard must bisect instead
    m = MarketParams(spot=0.04877665447629007, rate=7.2131873637528e-05, vol=0.8692814473599816)
    strike, q = 0.07492953138867706, 8553.721328269636
    res = effective_maturity(m, strike, q)
    assert res.effective_maturity > 0.0
    call = ContractParams(strike=strike, amort=q, kind=OptionKind.CALL)
    dated = dated_bs_call(m, strike, res.effective_maturity)
    assert abs(dated.premium - price(m, call).premium) <= 1e-10


def test_effective_maturity_tiny_premium_relative_residual():
    # the target premium is 9.6e-133; a normal CDF written as 1 + erf
    # cancels the dated premium to exactly 0.0 for every T <= 0.3 here,
    # so any T in that band met the absolute residual
    m = MarketParams(spot=0.003494087428268619, rate=0.0017435360735263625, vol=0.7809577146715745)
    strike, q = 0.4042349619676771, 1180.3315604242803
    target = price(m, ContractParams(strike=strike, amort=q, kind=OptionKind.CALL)).premium
    res = effective_maturity(m, strike, q)
    dated = dated_bs_call(m, strike, res.effective_maturity)
    assert abs(dated.premium - target) / target <= 1e-11


def test_ratio_study_underflowing_dated_gamma_raises():
    # at vol 1e-4 the dated call's Gamma underflows to 0.0
    m = MarketParams(spot=100.0, rate=0.05, vol=1e-4)
    with pytest.raises(NoSolutionError, match="q = 0.05"):
        ratio_study(m, 100.0, [0.05, 1.0])


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_positional_vega_equals_public_views(kind):
    spec = StrategySpec(kind=kind, budget=100.0)
    rng = random.Random(11)
    for m in _box_markets(20, seed=7):
        for q in [rng.uniform(*AMORT_RANGE) for _ in range(5)] + [0.001, 0.14]:
            assert positional_vega(m, STRIKE, spec, q) == _positional_vega_from_views(m, spec, q)


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_positional_vega_in_exercise_region(market_a, kind):
    # deep inside the call's (S = 3K) or the put's (S = K/3) exercise
    # region that leg's Vega is 0 and its premium the intrinsic value
    spec = StrategySpec(kind=kind, budget=100.0)
    q = 0.3
    for leg, spot in ((OptionKind.CALL, 3.0 * STRIKE), (OptionKind.PUT, STRIKE / 3.0)):
        m = dataclasses.replace(market_a, spot=spot)
        c = ContractParams(strike=STRIKE, amort=q, kind=leg)
        assert price(m, c).regime == Regime.EXERCISE_NOW
        assert vega(m, c) == 0.0
        expected = _positional_vega_from_views(m, spec, q)
        assert positional_vega(m, STRIKE, spec, q) == expected
        if STRATEGY_KINDS[kind] == (leg,):
            assert expected == 0.0


def test_ratio_study_equals_public_views():
    qs = [0.05 + 0.95 * i / 9 for i in range(10)]
    for m in _box_markets(8, seed=3):
        for pt, q in zip(ratio_study(m, STRIKE, qs), qs):
            c = ContractParams(strike=STRIKE, amort=q, kind=OptionKind.CALL)
            dated = dated_bs_call(m, STRIKE, effective_maturity(m, STRIKE, q).effective_maturity)
            assert pt.q == q
            assert pt.gamma_ratio == gamma(m, c) / dated.gamma
            assert pt.theta_ratio == q * price(m, c).premium / abs(dated.theta)


def test_effective_notional_curve_equals_public_views():
    qs = [0.05 + 0.95 * i / 9 for i in range(10)]
    for m in _box_markets(8, seed=5):
        for res, q in zip(effective_notional_curve(m, STRIKE, qs), qs):
            assert res == effective_maturity(m, STRIKE, q)
            c = ContractParams(strike=STRIKE, amort=q, kind=OptionKind.CALL)
            dated = dated_bs_call(m, STRIKE, res.effective_maturity)
            assert abs(dated.premium - price(m, c).premium) <= 1e-10
            assert res.effective_notional == math.exp(-q * res.effective_maturity)


BAD_TERMS = [(STRIKE, q) for q in (0.0, -1.0, math.nan, math.inf)] + [(0.0, 0.1), (-1.0, 0.1)]
CASE_STUDIES = {
    "positional_vega": lambda m, k, q: positional_vega(
        m, k, StrategySpec(kind=StrategyKind.STRADDLE, budget=100.0), q
    ),
    "effective_maturity": effective_maturity,
    "ratio_study": lambda m, k, q: ratio_study(m, k, [0.1, q]),
}


@pytest.mark.parametrize("strike, q", BAD_TERMS)
@pytest.mark.parametrize("study", sorted(CASE_STUDIES))
def test_case_studies_reject_bad_terms_like_contract_params(market_a, study, strike, q):
    # the same ValidationError message as ContractParams gives for the terms
    with pytest.raises(ValidationError) as want:
        ContractParams(strike=strike, amort=q, kind=OptionKind.CALL)
    with pytest.raises(ValidationError, match=re.escape(str(want.value))):
        CASE_STUDIES[study](market_a, strike, q)


def test_sweep_kernel_values_are_pinned(market_a):
    # float.hex of the q-sweep outputs at market A, from the kernel that
    # evaluated each kind's closed form and each dated call on its own
    k = 100.0
    assert [effective_maturity(market_a, k, q).effective_maturity.hex() for q in (0.1, 0.5)] == [
        "0x1.380d86535c6d7p+1",
        "0x1.768cd11b4ea97p-1",
    ]
    (pt,) = ratio_study(market_a, k, [0.1])
    assert (pt.gamma_ratio.hex(), pt.theta_ratio.hex()) == (
        "0x1.837d0bf4a1c7ep-1",
        "0x1.e66381d38369bp-2",
    )
    pv = {
        kind: positional_vega(market_a, k, StrategySpec(kind=kind, budget=100.0), 0.3).hex()
        for kind in StrategyKind
    }
    assert pv == {
        StrategyKind.CALL_ONLY: "0x1.4ca9e87b9ff2fp+7",
        StrategyKind.PUT_ONLY: "0x1.a99f8d91731ebp+7",
        StrategyKind.STRADDLE: "0x1.75e1681141c8bp+7",
    }
    res = optimize_q(market_a, k, StrategySpec(kind=StrategyKind.PUT_ONLY, budget=100.0), (0.001, 1.0))
    assert (res.q_star.hex(), res.positional_vega_at_star.hex()) == (
        "0x1.24126a82964bcp-3",
        "0x1.aac82cefd69f4p+7",
    )


def test_sweeps_solve_exponents_once_and_build_no_dated_records(market_a, monkeypatch):
    import ampo.analysis
    import ampo.greeks
    import ampo.pricing

    solves = []

    def counted(m, q):
        solves.append(q)
        return exponents(m, q)

    def no_record(*args):
        raise AssertionError("a DatedGreeksReport was built inside a sweep")

    exponents = ampo.pricing._exponents
    monkeypatch.setattr(ampo.pricing, "_exponents", counted)
    monkeypatch.setattr(ampo.analysis, "_exponents", counted)
    monkeypatch.setattr(ampo.greeks, "DatedGreeksReport", no_record)
    effective_notional_curve(market_a, 100.0, [0.1, 0.5])
    ratio_study(market_a, 100.0, [0.1, 0.5])

    # positional Vega reads no _ClosedForm record: the kernel inlines it
    def no_closed_form(*args):
        raise AssertionError("_closed_form was called by the positional-Vega kernel")

    golden_qs = []
    golden = ampo.analysis._golden_section_max

    def counted_golden(f, lo, hi, tol):
        def g(q):
            golden_qs.append(q)
            return f(q)

        return golden(g, lo, hi, tol)

    monkeypatch.setattr(ampo.analysis, "_closed_form", no_closed_form)
    monkeypatch.setattr(ampo.analysis, "_golden_section_max", counted_golden)
    for kind in StrategyKind:
        # a market no earlier call evaluated, so nothing is shared yet
        m = dataclasses.replace(market_a)
        spec = StrategySpec(kind=kind, budget=100.0)
        solves.clear()
        positional_vega(m, 100.0, spec, 0.3)
        assert solves == [0.3]
        # one solve per evaluated q: the scan, each golden step, then q*
        solves.clear()
        golden_qs.clear()
        res = optimize_q(m, 100.0, spec, (0.001, 1.0))
        assert solves == [q for q, _ in res.curve] + golden_qs + ([res.q_star] if golden_qs else [])
        # the put has a single interior peak, which golden section refines
        assert bool(golden_qs) == (kind is StrategyKind.PUT_ONLY)


@pytest.mark.parametrize("strike, maturity", [(100.0, 0.0), (0.0, 1.0)])
def test_dated_bs_call_still_checks_its_terms(market_a, strike, maturity):
    with pytest.raises(ValidationError, match="must be > 0"):
        dated_bs_call(market_a, strike, maturity)


# ---------------------------------------------------------------- shared q-grid entry


def _outcome(fn, *args) -> list:
    """Every value of fn(*args), floats as float.hex and each with its type, or the error."""

    def flat(x):
        if isinstance(x, (list, tuple)):
            return [y for v in x for y in flat(v)]
        if dataclasses.is_dataclass(x):
            return flat([getattr(x, f.name) for f in dataclasses.fields(x)])
        return [(type(x).__name__, x.hex() if isinstance(x, float) else str(x))]

    try:
        return flat(fn(*args))
    except Exception as exc:
        return [(type(exc).__name__, str(exc))]


def _entry():
    """The shared entry and the column lists it holds, as they are now."""
    entry = ampo.analysis._sweep
    return entry, dict(entry[-1])


# each family's calls share one grid: a single q, a q grid, or a q range
_STUDY_FAMILIES = {
    "point": {
        "effective_maturity": lambda m, k, qs: effective_maturity(m, k, qs[0]),
        **{
            f"positional_vega/{kind.value}": (
                lambda kind: lambda m, k, qs: positional_vega(m, k, StrategySpec(kind, 100.0), qs[0])
            )(kind)
            for kind in StrategyKind
        },
    },
    "grid": {"effective_notional_curve": effective_notional_curve, "ratio_study": ratio_study},
    "range": {
        f"optimize_q/{kind.value}": (
            lambda kind: lambda m, k, qs: optimize_q(m, k, StrategySpec(kind, 100.0), (qs[0], qs[-1]))
        )(kind)
        for kind in StrategyKind
    },
}


def test_interleaved_case_studies_match_fresh_evaluations(monkeypatch):
    rng = random.Random(18)
    markets = [
        MarketParams(spot=100.0, rate=0.05, vol=0.5),
        MarketParams(spot=100.0, rate=0.0, vol=0.3),
        *_box_markets(1, 18),
    ]
    copies = [dataclasses.replace(m) for m in markets]
    # the strike 1e-6 makes the put degenerate and exercises the call
    strikes = [(100.0, 100, decimal.Decimal("100")), (1e-6,), (90.0,)]
    # each grid with equal grids of other types, and grids that raise at a later q
    grids = [
        ((0.5, 1.5), (fractions.Fraction(1, 2), 1.5), (0.5, decimal.Decimal("1.5"))),
        ((1.0, 2.0), (1, 2), (True, 2.0)),
        ((0.3,), (decimal.Decimal("0.3"),)),
        ((0.05, 0.2, 0.35), (0.05, 0.2, -0.35), (0.05, 0.2, math.nan), (0.05, 0.2, "x")),
    ]
    # a q equal in value to the one before but of another type
    calls = [
        ("point", "effective_maturity", 0, 100.0, grid, False)
        for grid in ((1.0,), (1,), (True,), (1.0,), (0.5,), (fractions.Fraction(1, 2),))
    ]
    for _ in range(60):  # runs of calls on one market, strike and grid
        family = rng.choice(sorted(_STUDY_FAMILIES))
        i, ks, gs = rng.randrange(len(markets)), rng.choice(strikes), rng.choice(grids)
        for _ in range(rng.randint(2, 6)):
            k = ks[0] if rng.random() < 0.8 else rng.choice(ks)
            grid = gs[0] if rng.random() < 0.7 else rng.choice(gs)
            calls.append((family, rng.choice(sorted(_STUDY_FAMILIES[family])), i, k, grid, rng.random() < 0.15))
    solves = []
    exponents = ampo.analysis._exponents

    def counted(m, q):
        solves.append(q)
        return exponents(m, q)

    monkeypatch.setattr(ampo.analysis, "_exponents", counted)
    want, fresh_solves = {}, 0
    for family, name, i, k, grid, _ in calls:
        key = name, i, type(k), k, tuple(map(type, grid)), grid
        if key not in want:
            # a market object no other call uses: nothing can be shared
            fn = _STUDY_FAMILIES[family][name]
            solves.clear()
            want[key] = _outcome(fn, dataclasses.replace(markets[i]), k, list(grid)), len(solves)
        fresh_solves += want[key][1]
    assert {"float", "ValidationError", "NoSolutionError"} <= {w[0][0][0] for w in want.values()}
    solves.clear()
    for family, name, i, k, grid, copy in calls:
        m = copies[i] if copy else markets[i]
        got = _outcome(_STUDY_FAMILIES[family][name], m, k, list(grid))
        assert got == want[name, i, type(k), k, tuple(map(type, grid)), grid][0], (name, i, k, grid)
    # the calls shared their work: evaluated fresh they make 5,503 solves
    # here, and in this order 3,176
    assert len(solves) < 0.75 * fresh_solves, (len(solves), fresh_solves)


def test_a_grid_changed_in_place_between_calls_gets_fresh_values(market_a):
    grid = [0.1, 0.2]
    effective_notional_curve(market_a, 100.0, grid)
    grid[1] = 0.3
    got = _outcome(ratio_study, market_a, 100.0, grid)
    assert got == _outcome(ratio_study, dataclasses.replace(market_a), 100.0, [0.1, 0.3])
    assert [pt.q for pt in ratio_study(market_a, 100.0, grid)] == [0.1, 0.3]


def test_threads_alternating_markets_each_read_their_own():
    markets = _box_markets(4, 19)
    qs = [0.1, 0.2, 0.3, 0.4]
    specs = [StrategySpec(kind, 100.0) for kind in StrategyKind]

    def outcomes(m):
        return [
            *(_outcome(positional_vega, m, 100.0, s, q) for q in qs for s in specs),
            _outcome(effective_notional_curve, m, 100.0, qs[:2]),
            _outcome(ratio_study, m, 100.0, qs[:2]),
        ]

    want = [outcomes(dataclasses.replace(m)) for m in markets]
    errors = []

    def worker(mine):
        for _ in range(100):
            for i in mine:
                if outcomes(markets[i]) != want[i]:
                    errors.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # more threads than cores, each alternating two markets
        pairs = ((0, 1), (2, 3), (1, 2), (3, 0))
        threads = [threading.Thread(target=worker, args=(mine,)) for mine in pairs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_a_call_stores_into_the_entry_it_read(market_a):
    # a call interleaved with another (from another thread, say) adds its
    # columns to the entry it read, never to one installed since
    other = MarketParams(spot=100.0, rate=0.03, vol=0.4)
    call = StrategySpec(StrategyKind.CALL_ONLY, 100.0)
    positional_vega(market_a, 100.0, call, 0.1)
    points = ampo.analysis._maturity_points(market_a, 100.0, [0.1])
    next(points)  # market A's maturity at 0.1 is solved, not yet stored
    positional_vega(other, 100.0, call, 0.1)
    assert list(points) == []
    got = _outcome(effective_maturity, other, 100.0, 0.1)
    assert got == _outcome(effective_maturity, dataclasses.replace(other), 100.0, 0.1)


def test_a_raising_call_leaves_the_entry_as_it_was(market_a):
    call, put = (StrategySpec(kind, 100.0) for kind in (StrategyKind.CALL_ONLY, StrategyKind.PUT_ONLY))
    # strike 1e-6: the call is exercised, the put's premium is below 1e-12
    assert positional_vega(market_a, 1e-6, call, 0.3) == 0.0
    optimize_q(market_a, 1e-6, call, (0.001, 1.0))

    def raises(error, fn, *args):
        before, columns = _entry()
        with pytest.raises(error):
            fn(*args)
        after, after_columns = _entry()
        assert after is before
        assert after_columns.keys() == columns.keys()
        assert all(after_columns[key] is columns[key] for key in columns)

    # a hit whose new leg raises stores no leg
    raises(NoSolutionError, optimize_q, market_a, 1e-6, put, (0.001, 1.0))
    positional_vega(market_a, 1e-6, call, 0.3)
    raises(NoSolutionError, positional_vega, market_a, 1e-6, put, 0.3)
    # a miss that raises at a later q installs no entry
    raises(ValidationError, ratio_study, market_a, 100.0, [0.1, -0.1])
    raises(ValidationError, positional_vega, market_a, 100.0, put, -0.3)
    raises(NoSolutionError, effective_notional_curve, market_a, 1e-12, [0.1, 0.001])

    def grid(*qs):
        yield from qs
        raise LookupError("the grid broke")

    # a grid whose iteration raises: its points come first, as in a lazy loop
    raises(LookupError, effective_notional_curve, market_a, 100.0, grid(0.1))
    raises(ValidationError, ratio_study, market_a, 100.0, grid(0.1, -0.1))


def test_the_strategies_share_one_solve_per_q(market_a, monkeypatch):
    solves, golden_qs = [], []
    exponents, golden = ampo.analysis._exponents, ampo.analysis._golden_section_max

    def counted(m, q):
        solves.append(q)
        return exponents(m, q)

    def counted_golden(f, lo, hi, tol):
        def g(q):
            golden_qs.append(q)
            return f(q)

        return golden(g, lo, hi, tol)

    monkeypatch.setattr(ampo.analysis, "_exponents", counted)
    monkeypatch.setattr(ampo.analysis, "_golden_section_max", counted_golden)
    # ampo examples 3's pattern: the three strategies at one q
    m = dataclasses.replace(market_a)
    specs = [StrategySpec(kind, 100.0) for kind in StrategyKind]
    for q in (0.2, 0.3):
        got = [positional_vega(m, 100.0, s, q) for s in specs]
        assert solves == [q]
        assert got == [positional_vega(dataclasses.replace(m), 100.0, s, q) for s in specs]
        solves.clear()
    # the three optimize_q scans: one solve per distinct q over all of them
    results = [optimize_q(m, 100.0, s, (0.001, 1.0)) for s in specs]
    scan = [q for q, _ in results[0].curve]
    star = [r.q_star for r in results if not (r.boundary_maximum or r.multimodal)]
    assert golden_qs and star
    assert sorted(solves) == sorted({*scan, *golden_qs, *star})


def test_ratio_study_reads_the_maturities_the_curve_solved(market_a, monkeypatch):
    qs = [0.05 + 0.95 * i / 19 for i in range(20)]
    m = dataclasses.replace(market_a)
    solves = []
    solve = ampo.analysis._solve_maturity

    def counted(*args):
        solves.append(args[2])
        return solve(*args)

    monkeypatch.setattr(ampo.analysis, "_solve_maturity", counted)
    curve = effective_notional_curve(m, 100.0, qs)
    assert solves == qs
    solves.clear()
    ratios = ratio_study(m, 100.0, list(qs))
    assert solves == []
    assert _outcome(lambda: ratios) == _outcome(ratio_study, dataclasses.replace(m), 100.0, qs)
    assert [r.effective_maturity for r in curve] == [
        effective_maturity(m, 100.0, q).effective_maturity for q in qs
    ]
