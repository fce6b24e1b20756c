import collections
import dataclasses
import decimal
import math
import random
import sys
import tracemalloc

import pytest

from ampo import (
    AmpoError,
    ContractParams,
    ConvergenceError,
    LatticeConfig,
    MarketParams,
    OptionKind,
    RegionError,
    ValidationError,
    delta,
    exercise_boundary,
    finite_difference,
    gamma,
    lattice_price,
    pde_residual,
    price,
    to_equivalent_perpetual,
    validate_checks,
    vega,
)
from ampo import oracle
from conftest import sample_set


def test_lattice_params_a(market_a, call_a, put_a):
    cfg = LatticeConfig(horizon=200.0, steps=4000)
    for c, expected in ((put_a, 25.0), (call_a, 34.697547420670624)):
        rep = lattice_price(to_equivalent_perpetual(c, market_a), market_a, cfg)
        assert rep.analytic_price == pytest.approx(expected, rel=1e-12)
        assert rep.rel_error < 0.005
        bd = exercise_boundary(market_a, c)
        assert abs(rep.boundary_estimate - bd) / bd < 0.02


def test_lattice_exercise_region(market_a, put_a):
    m = dataclasses.replace(market_a, spot=40.0)
    rep = lattice_price(to_equivalent_perpetual(put_a, m), m, LatticeConfig(steps=2000))
    assert rep.oracle_price == pytest.approx(60.0, rel=1e-3)


def test_lattice_convergence_error(market_a, put_a):
    cfg = LatticeConfig(horizon=200.0, steps=200, convergence=1e-4)
    with pytest.raises(ConvergenceError):
        lattice_price(to_equivalent_perpetual(put_a, market_a), market_a, cfg)


def test_lattice_convergence_accepts_resolved(market_a, put_a):
    cfg = LatticeConfig(horizon=200.0, steps=4000, convergence=5e-3)
    rep = lattice_price(to_equivalent_perpetual(put_a, market_a), market_a, cfg)
    assert rep.rel_error < 0.005


def test_lattice_seed_212_put():
    # a time-truncated 4000-step lattice missed this put by 0.56%
    m = MarketParams(spot=98.69015497913594, rate=0.1441222122225953, vol=0.14816228224086306)
    c = ContractParams(strike=100.0, amort=0.057243596103820606, kind=OptionKind.PUT)
    cfg = LatticeConfig(steps=4000, convergence=5e-3)
    assert lattice_price(to_equivalent_perpetual(c, m), m, cfg).rel_error < 5e-3


@pytest.mark.parametrize("kind", list(OptionKind))
def test_lattice_large_discount_rate(kind):
    # alpha ~ 4500: at a spacing of 12/steps the value would fall by
    # e^{-13} per node; the spacing must follow the discount rate
    m = MarketParams(spot=100.0, rate=0.0, vol=0.01)
    c = ContractParams(strike=100.0, amort=1e3, kind=kind)
    cfg = LatticeConfig(steps=4000, convergence=5e-3)
    rep = lattice_price(to_equivalent_perpetual(c, m), m, cfg)
    assert rep.rel_error < 5e-3
    bd = exercise_boundary(m, c)
    assert abs(rep.boundary_estimate - bd) / bd < 0.02


def test_lattice_unreached_exercise_region():
    # the put boundary K*alpha_p/(1+alpha_p) ~ 8e-6*K lies beyond the
    # grid's reach of 12 log-spot units below the strike
    m = MarketParams(spot=100.0, rate=0.0, vol=0.5)
    c = ContractParams(strike=100.0, amort=1e-8, kind=OptionKind.PUT)
    with pytest.raises(ConvergenceError, match="exercise region"):
        lattice_price(to_equivalent_perpetual(c, m), m, LatticeConfig(steps=4000))


def test_lattice_rejects_inconsistent_rate(market_a, put_a):
    e = to_equivalent_perpetual(put_a, market_a)
    bad = dataclasses.replace(market_a, rate=0.07)
    with pytest.raises(ValidationError):
        lattice_price(e, bad, LatticeConfig(steps=1000))


def test_lattice_rate_check_at_large_amort(market_a):
    # at q = 1e4 the rate recovered from (2r+q) - (r+q) carries the
    # rounding of both sums; that passes, a rate off by 1e-6 does not
    put = ContractParams(strike=100.0, amort=1e4, kind=OptionKind.PUT)
    e = to_equivalent_perpetual(put, market_a)
    assert e.rate_eff - e.dividend_eff != market_a.rate
    rep = lattice_price(e, market_a, LatticeConfig(steps=4000, convergence=5e-3))
    assert rep.rel_error < 5e-3
    bad = dataclasses.replace(market_a, rate=market_a.rate + 1e-6)
    with pytest.raises(ValidationError, match="inconsistent"):
        lattice_price(e, bad, LatticeConfig(steps=4000))


def test_pde_residual_exact(market_a, put_a, call_a):
    put = pde_residual(market_a, put_a, [60.0, 80.0, 100.0, 140.0])
    call = pde_residual(market_a, call_a, [60.0, 100.0, 200.0, 260.0])
    assert max(put) < 1e-10
    assert max(call) < 1e-10
    assert [r.hex() for r in put] == ["0x0.0p+0"] * 3 + ["0x1.1eb851eb851eap-53"]
    assert [r.hex() for r in call] == ["0x0.0p+0"] * 4


def test_pde_residual_perturbed(market_a, put_a):
    res = pde_residual(market_a, put_a, [80.0], premium_scale=1.01)
    assert res[0] == pytest.approx(0.01, rel=0.05)
    assert res[0].hex() == "0x1.446f86562d9fbp-7"


def test_pde_residual_builds_no_market_per_spot(market_a, put_a, monkeypatch):
    built = []
    post_init = MarketParams.__post_init__

    def counted(self):
        built.append(self.spot)
        post_init(self)

    monkeypatch.setattr(MarketParams, "__post_init__", counted)
    pde_residual(market_a, put_a, [60.0 + 10.0 * i for i in range(10)])
    assert built == []


@pytest.mark.parametrize(
    "spot, message",
    [
        (math.nan, "spot must be finite, got nan"),
        (math.inf, "spot must be finite, got inf"),
        (0.0, "spot must be > 0, got 0.0"),
        (-80.0, "spot must be > 0, got -80.0"),
    ],
)
def test_pde_residual_rejects_bad_spot_like_market_params(market_a, put_a, spot, message):
    with pytest.raises(ValidationError) as want:
        dataclasses.replace(market_a, spot=spot)
    assert str(want.value) == message
    with pytest.raises(ValidationError, match=f"^{message}$"):
        pde_residual(market_a, put_a, [80.0, spot])


def test_pde_residual_region_error(market_a, put_a):
    with pytest.raises(RegionError):
        pde_residual(market_a, put_a, [40.0])


def test_pde_residual_solves_the_exponents_once(market_a, put_a, call_a, monkeypatch):
    import ampo.pricing

    def from_views(c, spots):
        # the residual built per spot from the public views, each of which
        # solves the exponents itself
        drift, discount = market_a.rate, 2.0 * market_a.rate + c.amort
        out = []
        for s in spots:
            ms = dataclasses.replace(market_a, spot=s)
            v = price(ms, c).premium
            resid = 0.5 * market_a.vol**2 * s * s * gamma(ms, c) + drift * s * delta(ms, c) - discount * v
            out.append(abs(resid) / max(abs(discount * v), 1e-300))
        return out

    solves = []
    exponents = ampo.pricing._exponents

    def counted(m, q):
        solves.append(q)
        return exponents(m, q)

    cases = ((put_a, [60.0, 80.0, 100.0, 140.0]), (call_a, [60.0, 100.0, 200.0, 260.0]))
    want = [[r.hex() for r in from_views(c, spots)] for c, spots in cases]
    monkeypatch.setattr(ampo.pricing, "_exponents", counted)
    monkeypatch.setattr(oracle, "_exponents", counted)
    for (c, spots), hexes in zip(cases, want):
        solves.clear()
        assert [r.hex() for r in pde_residual(market_a, c, spots)] == hexes
        assert solves == [c.amort]


def test_pde_residual_survives_sigma_squared_spot_squared_overflow():
    # at vol 1e60 the call boundary is ~3e122, where sigma^2*S*S passes the
    # float range though sigma^2*S*S*Gamma does not; the residual was inf
    m = MarketParams(spot=100.0, rate=0.05, vol=1e60)
    c = ContractParams(strike=100.0, amort=0.1, kind=OptionKind.CALL)
    bd = exercise_boundary(m, c)
    assert bd > 1e122
    assert max(pde_residual(m, c, [100.0, 0.5 * bd, 0.999 * bd])) < 1e-8


_CHECKS = ["lattice_price", "lattice_boundary", "pde_residual", "fd_delta", "fd_gamma", "fd_vega"]
_CFG = LatticeConfig(steps=4000, convergence=5e-3)


def test_validate_checks_pass_at_market_a(market_a, put_a):
    checks = validate_checks(market_a, put_a, _CFG)
    assert [list(r) for r in checks] == [["check", "value", "limit", "passed"]] * 6
    assert [r["check"] for r in checks] == _CHECKS
    assert [r["limit"] for r in checks] == [5e-3, 0.02, 1e-8, 1e-5, 1e-5, 1e-5]
    assert all(r["passed"] and r["value"] < r["limit"] for r in checks), checks


def test_validate_checks_perturbed_premium_fails_the_residual_only(market_a, put_a):
    checks = validate_checks(market_a, put_a, _CFG, perturb=1.01)
    assert [r["check"] for r in checks] == _CHECKS
    assert [r["check"] for r in checks if not r["passed"]] == ["pde_residual"]
    assert checks[2]["value"] == pytest.approx(0.01, rel=0.05)


@pytest.mark.parametrize("spot, kind", [(40.0, OptionKind.PUT), (300.0, OptionKind.CALL)])
def test_validate_checks_in_exercise_region_are_the_lattice_only(market_a, spot, kind):
    m = dataclasses.replace(market_a, spot=spot)
    checks = validate_checks(m, ContractParams(100.0, 0.1, kind), _CFG)
    assert [r["check"] for r in checks] == ["lattice_price", "lattice_boundary"]
    assert all(r["passed"] for r in checks), checks


def test_validate_checks_record_an_unconverged_lattice(market_a, put_a):
    cfg = LatticeConfig(steps=200, convergence=1e-4)
    checks = validate_checks(market_a, put_a, cfg)
    first = checks[0]
    assert first["check"] == "lattice_convergence" and first["passed"] is False
    assert first["limit"] == 1e-4 and "halving steps" in first["value"]
    assert [r["check"] for r in checks[1:]] == _CHECKS[2:]


def test_validate_checks_build_no_market_per_evaluation(market_a, put_a, monkeypatch):
    built = []
    post_init = MarketParams.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(MarketParams, "__post_init__", counted)
    assert all(r["passed"] for r in validate_checks(market_a, put_a, _CFG))
    assert built == []


@pytest.mark.parametrize("kind", [OptionKind.CALL, OptionKind.PUT])
def test_lattice_refuses_spacing_below_float_resolution(kind):
    # at vol 1e-80 and rate 0 the grid spacing is ~1e-81, so e^dx rounds to 1
    m = MarketParams(spot=100.0, rate=0.0, vol=1e-80)
    c = ContractParams(strike=100.0, amort=0.1, kind=kind)
    with pytest.raises(ValidationError, match=r"at vol 1e-80 is below float resolution"):
        lattice_price(to_equivalent_perpetual(c, m), m, LatticeConfig(steps=4000))


def test_finite_difference_polynomials():
    assert finite_difference(lambda x: x * x, 3.0, 1) == pytest.approx(6.0, abs=1e-9)
    assert finite_difference(lambda x: x**3, 2.0, 2, step=1e-3) == pytest.approx(
        12.0, abs=1e-6
    )
    assert finite_difference(math.exp, 1.0, 1, "forward", 1e-5) == pytest.approx(
        math.e, rel=1e-8
    )
    assert finite_difference(math.exp, 1.0, 2, "forward", 1e-4) == pytest.approx(
        math.e, rel=1e-5
    )


def test_finite_difference_cross_module(market_a, call_a):
    def prem_v(v):
        return price(dataclasses.replace(market_a, vol=v), call_a).premium

    fd = finite_difference(prem_v, market_a.vol, 1, "central", 1e-4)
    assert vega(market_a, call_a) == pytest.approx(fd, rel=1e-5)


def test_finite_difference_validation():
    with pytest.raises(ValidationError):
        finite_difference(math.sin, 0.0, 3)
    with pytest.raises(ValidationError):
        finite_difference(math.sin, 0.0, 1, "backward")


def test_lattice_config_validation():
    with pytest.raises(ValidationError):
        LatticeConfig(horizon=0.0)
    with pytest.raises(ValidationError):
        LatticeConfig(steps=1)
    with pytest.raises(ValidationError):
        LatticeConfig(convergence=-1.0)


def test_lattice_config_refuses_non_finite_and_fractional_input():
    # convergence=nan used to pass and switch the halving check off (drift > nan is False)
    for kw, msg in (
        ({"convergence": math.nan}, "convergence tolerance must be finite"),
        ({"convergence": math.inf}, "convergence tolerance must be finite"),
        ({"horizon": math.nan}, "horizon must be finite"),
        ({"horizon": math.inf}, "horizon must be finite"),
        ({"steps": 2.5}, "steps must be an integer, got 2.5"),
        ({"steps": 4000.0}, "steps must be an integer"),
        ({"steps": True}, "steps must be an integer, got True"),
    ):
        with pytest.raises(ValidationError, match=msg):
            LatticeConfig(**kw)


@pytest.mark.parametrize(
    "x, step",
    [(1.0, 0.0), (1.0, -1e-6), (1.0, math.nan), (1.0, math.inf), (math.inf, 1e-6), (math.nan, 1e-6)],
)
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("mode", ["central", "forward"])
def test_finite_difference_refuses_a_bad_step_or_point(x, step, order, mode):
    # step 0 used to raise ZeroDivisionError, a negative step put the forward
    # stencil left of x, and a nan step or an infinite x returned nan
    with pytest.raises(ValidationError, match=r"^(step|x) must be finite"):
        finite_difference(math.sin, x, order, mode, step)


def test_finite_difference_refuses_a_denominator_out_of_range():
    # 2h underflows at x = 1e-10, h*h at h = 1e-200, and 2h overflows at x = 1e300
    for x, step, order in ((1e-10, 1e-320, 1), (1.0, 1e-200, 2), (1e300, 1e10, 1)):
        with pytest.raises(ValidationError, match=r"gives a difference denominator of"):
            finite_difference(math.sin, x, order, "central", step)


def test_lattice_random_sets_spot_check():
    rng = random.Random(41)
    cfg = LatticeConfig(horizon=200.0, steps=4000)
    for _ in range(5):
        m, c = sample_set(rng, premium_floor=2.5)
        rep = lattice_price(to_equivalent_perpetual(c, m), m, cfg)
        assert rep.rel_error < 0.005
        bd = exercise_boundary(m, c)
        assert abs(rep.boundary_estimate - bd) / bd < 0.02


def _linear_sweep(kind, spot, strike, growth, discount_rate, vol, steps):
    # reference for _perpetual_sweep: both passes visit every node in turn
    dx = min(oracle._REACH / steps, vol * math.sqrt(oracle._DISCOUNT / (steps * discount_rate)))
    reach = steps * dx
    dt = (dx / vol) ** 2
    if not growth * dt < dx:
        raise ValidationError(
            f"lattice up-probability outside (0, 1): rate*dt = {growth * dt:.3e} "
            f">= dx = {dx:.3e}; raise steps or vol"
        )
    u = math.exp(dx)
    p = (math.exp(growth * dt) - 1.0 / u) / (u - 1.0 / u)
    b = math.exp(-discount_rate * dt)
    x = math.log(spot / strike)
    below = math.ceil((max(x, 0.0) + reach) / dx)
    above = math.ceil((reach - min(x, 0.0)) / dx)
    if kind == OptionKind.PUT:
        sign, step, at_spot, c = -1.0, dx, below, p
    else:
        sign, step, at_spot, c = 1.0, -dx, above, 1.0 - p
    n = below + above + 1
    ratios, ratio = [0.0] * n, 0.0
    for k in range(n - 1, 0, -1):
        ratio = ratios[k] = b * (1.0 - c) / (1.0 - b * c * ratio)

    def payoff(k):
        return sign * (spot * math.exp((k - at_spot) * step) - strike)

    value, k = payoff(0), 1
    while k < n:
        g = payoff(k)
        if g < ratios[k] * value:
            break
        value, k = g, k + 1
    if k == 1:
        raise ConvergenceError(
            "lattice never reaches the exercise region: its first interior node "
            f"is not exercised (log-spot reach {reach:.3g}, spacing {dx:.3g})"
        )
    boundary = spot * math.exp((k - 0.5 - at_spot) * step)
    if at_spot < k:
        return payoff(at_spot), boundary
    for j in range(k, at_spot + 1):
        value *= ratios[j]
    return value, boundary


# (spot, rate, vol, strike, amort, kind, steps) where pass 2 reads ratios above
# the fixed-point node at full resolution: three contracts of the `validate`
# benchmark and four full-domain draws
_ABOVE_TOP = [
    (52.04133872396719, 0.027739219187103713, 0.5827206449817832, 100.0, 0.09136306611519564, "put", 4000),
    (294.80084248143834, 0.04726582944152719, 0.5682721579698855, 100.0, 0.05618954098690219, "call", 2000),
    (254.64826329332226, 0.040439400401671696, 0.5877958340233358, 100.0, 0.08967753074780649, "call", 2000),
    (0.5065496948327967, 3.239310309635635e-05, 0.2127080508419739, 0.4824919979738323,
     2.6490206447308175e-05, "call", 2506),
    (4.229063330265457, 1.2844038650187225e-05, 0.1052050668606243, 0.011949577466995912,
     4.61971773338988e-07, "put", 3608),
    (787.2358921291456, 8.269319913127817e-06, 3.62814424533508, 1284.7721522668137, 4.940570334051445, "put", 2309),
    (22.051089839028677, 1.484617632830193e-06, 0.20649027114135668, 716.8979242907025,
     4.800675908875585e-05, "put", 3851),
]


# full-domain draws whose spot lies above the node pass 1 reports after landing from its
# start, so that pass 2 reads the ratios rebuilt from the far end
_REBUILT = [
    dict(spot=22.638741377080837, rate=0.0048614591836975305, vol=3.0839074639658315,
         strike=0.05188719565722055, q=0.0012077025683622958, kind=OptionKind.CALL, steps=2000),
    dict(spot=24121.243987762293, rate=0.013350181172208696, vol=0.16722637191010176,
         strike=5466.0594126882415, q=3.0753007496974716e-05, kind=OptionKind.PUT, steps=50),
]


# 1 - 4*tc*te is about 6e-7 at 8000 steps, where pass 1 lands from its start,
# and 2e-6 at 4000, where the bound leaves no node and it walks from 0
_NEAR_DOUBLE_ROOT = [
    dict(spot=100.0, rate=0.0, vol=0.5, strike=100.0, q=1e-6, kind=OptionKind.PUT, steps=8000),
    dict(spot=100.0, rate=0.0, vol=0.5, strike=100.0, q=1e-6, kind=OptionKind.CALL, steps=4000),
]


def _sweep_cases(market_a):
    cases = [(market_a, ContractParams(100.0, 0.1, kind), 4000) for kind in OptionKind]
    for q in (1e2, 1e3, 1e4, 1e5):
        for vol in (1e-4, 0.01, 0.1, 0.5, 5.0):
            for rate in (0.0, 0.05):
                for kind in OptionKind:
                    m = MarketParams(100.0, rate, vol)
                    cases.append((m, ContractParams(100.0, q, kind), 4000))
    rng = random.Random(10)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(300):
        spot = 100.0 * log_uniform(0.05, 20.0)
        rate = rng.choice([0.0, log_uniform(1e-4, 1.0)])
        m = MarketParams(spot, rate, log_uniform(1e-3, 5.0))
        c = ContractParams(100.0, log_uniform(1e-4, 1e3), rng.choice(list(OptionKind)))
        cases.append((m, c, rng.choice([2, 3, 5, 50, 4000])))
    for spot, rate, vol, strike, q, kind, steps in _ABOVE_TOP:
        cases.append((MarketParams(spot, rate, vol), ContractParams(strike, q, kind), steps))
    return cases


def _outcome(m, c, cfg):
    try:
        rep = lattice_price(to_equivalent_perpetual(c, m), m, cfg)
    except AmpoError as exc:
        return type(exc), str(exc)
    return rep.oracle_price.hex(), rep.boundary_estimate.hex()


@pytest.mark.parametrize("convergence", [None, 5e-3])
def test_sweep_matches_linear_walk(market_a, convergence, monkeypatch):
    cases = [
        (m, c, LatticeConfig(steps=n, convergence=convergence))
        for m, c, n in _sweep_cases(market_a)
    ]
    got = [_outcome(*case) for case in cases]
    monkeypatch.setattr(oracle, "_perpetual_sweep", _linear_sweep)
    want = [_outcome(*case) for case in cases]
    assert got == want
    assert sum(isinstance(w[0], str) for w in want) > len(want) // 2


@pytest.mark.parametrize("kind", list(OptionKind))
def test_sweep_work_is_logarithmic_below_the_fixed_point(market_a, kind, monkeypatch):
    # full grid plus half grid; a walk over every node makes about 5,600 calls
    calls = 0
    exp = math.exp

    def counted(x):
        nonlocal calls
        calls += 1
        return exp(x)

    e = to_equivalent_perpetual(ContractParams(100.0, 0.1, kind), market_a)
    monkeypatch.setattr(math, "exp", counted)
    lattice_price(e, market_a, LatticeConfig(steps=4000, convergence=5e-3))
    monkeypatch.undo()
    assert calls < 300



@pytest.mark.parametrize("kind", list(OptionKind))
def test_sweep_keeps_no_per_node_list(market_a, kind):
    # a list of one ratio per node peaked at about 208 KB on this grid
    e = to_equivalent_perpetual(ContractParams(100.0, 0.1, kind), market_a)
    args = (e.payoff_kind, market_a.spot, e.strike, e.rate_eff - e.dividend_eff, e.rate_eff, market_a.vol, 4000)
    oracle._perpetual_sweep(*args)
    tracemalloc.start()
    try:
        oracle._perpetual_sweep(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024


class _TooManyLines(Exception):
    pass


def _line_events(args, cap=math.inf):
    # line events per function of ampo.oracle during one _perpetual_sweep;
    # past `cap` events the sweep is stopped by raising _TooManyLines
    counts = collections.Counter()

    def local(frame, event, arg):
        if event == "line":
            counts[frame.f_code.co_name] += 1
            if counts.total() > cap:
                raise _TooManyLines(f"more than {cap} line events")
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == oracle.__file__ else None

    sys.settrace(tracer)
    try:
        oracle._perpetual_sweep(*args)
    finally:
        sys.settrace(None)
    return counts


@pytest.mark.parametrize("kind", list(OptionKind))
def test_sweep_starts_pass_one_next_to_its_fixed_point(market_a, kind):
    # walking pass 1 from 0 made about 14,000 line events on this grid
    e = to_equivalent_perpetual(ContractParams(100.0, 0.1, kind), market_a)
    args = (e.payoff_kind, market_a.spot, e.strike, e.rate_eff - e.dividend_eff, e.rate_eff, market_a.vol, 4000)
    assert sum(_line_events(args).values()) < 4000


def _sweep_args(spot, rate, vol, strike, q, kind, steps):
    return kind, spot, strike, rate, 2.0 * rate + q, vol, steps


def test_boundary_to_spot_product_stops_once_it_stops_changing():
    # dx is about 4.7e-8 here and the spot about 1.9e8 nodes above the
    # boundary: multiplying by B at every node took tens of seconds to
    # reach the same subnormal, which no later factor B moves
    args = _sweep_args(113.21, 1.306e-4, 3.34e-4, 0.01592, 87_735.0, OptionKind.PUT, 8000)
    assert sum(_line_events(args, cap=100_000).values()) < 100_000  # 25,498 here
    value, boundary = oracle._perpetual_sweep(*args)
    assert (value.hex(), boundary.hex()) == ("0x0.0000000000008p-1022", "0x1.04d544e9b94adp-6")


@pytest.mark.parametrize(
    "draw, walks, rebuilds",
    [
        # (draw, pass-1 walks as (start is 0.0, top >= 1), rebuilds the transient)
        pytest.param(_REBUILT[0], [(False, True)], True, id="rebuilt-call"),
        pytest.param(_REBUILT[1], [(False, True)], True, id="rebuilt-put"),
        pytest.param(_NEAR_DOUBLE_ROOT[0], [(False, True)], True, id="double-root-lands"),
        pytest.param(_NEAR_DOUBLE_ROOT[1], [(False, False), (True, False)], True, id="double-root-walks"),
    ],
)
def test_sweep_examples_take_the_paths_they_cover(draw, walks, rebuilds, monkeypatch):
    # the property test's examples of the rebuild and of the double root
    first_pass, seen = oracle._first_pass, []

    def recorded(to_exercise, to_continuation, first, ratio):
        top, fixed = first_pass(to_exercise, to_continuation, first, ratio)
        seen.append((ratio == 0.0, top >= 1))
        return top, fixed

    monkeypatch.setattr(oracle, "_first_pass", recorded)
    lines = _line_events(_sweep_args(**draw))
    assert seen == walks
    assert (lines["transient"] > 0) == rebuilds


def test_fixed_point_start_refuses_where_its_bounds_do_not_hold():
    # the double root itself, 1 - 4*tc*te below 2^-28, and a slope below 1/2
    for to_exercise, to_continuation in [(0.5, 0.5), (0.5, 0.5 - 2.0**-40), (0.9, 0.05)]:
        assert oracle._fixed_point_start(to_exercise, to_continuation) == (0, 0.0)


@pytest.mark.parametrize("field", ["rate_eff", "dividend_eff", "strike"])
@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param("x", "must be a real number, got 'x'", id="str"),
        pytest.param(math.nan, "must be finite, got nan", id="nan"),
        pytest.param(math.inf, "must be finite, got inf", id="inf"),
        pytest.param(decimal.Decimal("0.1"), "must be a real number, got Decimal('0.1')", id="decimal"),
    ],
)
def test_lattice_checks_the_equivalent_perpetual_first(market_a, put_a, field, bad, message):
    # a nan rate_eff was reported as "amort must be finite", a str as TypeError
    e = dataclasses.replace(to_equivalent_perpetual(put_a, market_a), **{field: bad})
    with pytest.raises(ValidationError) as exc:
        lattice_price(e, market_a, LatticeConfig(steps=200))
    assert str(exc.value) == f"{field} {message}"
