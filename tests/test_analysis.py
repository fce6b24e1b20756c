import pytest

from ampo import (
    ContractParams,
    MarketParams,
    NoSolutionError,
    OptionKind,
    StrategyKind,
    StrategySpec,
    dated_bs_call,
    effective_maturity,
    effective_notional_curve,
    optimize_q,
    positional_vega,
    price,
    ratio_study,
    vega,
)


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
