import dataclasses
import math
import random

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
