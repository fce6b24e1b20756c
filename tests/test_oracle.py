import collections
import dataclasses
import decimal
import math
import random
import sys

import pytest

from ampo import (
    AmpoError,
    ContractParams,
    ConvergenceError,
    LatticeConfig,
    MarketParams,
    OptionKind,
    Regime,
    RegionError,
    ValidationError,
    compute_exponents,
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
import ampo
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


@pytest.mark.parametrize(
    "kind, spot, strike",
    [
        (OptionKind.CALL, 1e300, 1e-10),  # spot/strike overflows
        (OptionKind.PUT, 1e-10, 1e300),  # its mirror: the grid's factor e^(|x| + reach) overflows
        (OptionKind.PUT, 1e-300, 1e300),  # spot/strike underflows to 0
    ],
)
def test_lattice_refuses_a_spot_to_strike_ratio_beyond_the_float_range(kind, spot, strike):
    m = MarketParams(spot=spot, rate=0.05, vol=0.5)
    c = ContractParams(strike=strike, amort=0.1, kind=kind)
    e = to_equivalent_perpetual(c, m)
    with pytest.raises(ValidationError, match=r"^spot-to-strike ratio .* out of the lattice's range"):
        lattice_price(e, m, LatticeConfig(steps=50))


def test_lattice_prices_a_wide_spot_to_strike_ratio_inside_the_float_range():
    # |log(S/K)| = 690.8: the grid's factors stay below e^709.78
    m = MarketParams(spot=1e-150, rate=0.05, vol=0.5)
    c = ContractParams(strike=1e150, amort=0.1, kind=OptionKind.PUT)
    rep = lattice_price(to_equivalent_perpetual(c, m), m, LatticeConfig(steps=50))
    assert rep.oracle_price == rep.analytic_price == 1e150


def test_lattice_prices_a_call_whose_exercise_nodes_pass_the_float_range():
    # the boundary is about 2K here, above the largest float: the payoff
    # S_k - K at the last exercised node was inf, and so was oracle_price
    m = MarketParams(spot=1e150, rate=0.0, vol=1.0)
    c = ContractParams(strike=8.988e307 * (1 - 1e-7), amort=1.0, kind=OptionKind.CALL)
    rep = lattice_price(to_equivalent_perpetual(c, m), m, LatticeConfig(steps=4000, convergence=5e-3))
    assert rep.rel_error < 5e-3  # 9.1e-4, and halving the steps moves the price by 2.7e-3


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


def _count_markets(monkeypatch) -> list:
    """(spot, rate, vol) of each MarketParams built from here on.

    The class's __init__ is patched, not __post_init__: params._record's
    generated __init__ bound __post_init__ when the class was made, so a
    patched __post_init__ is never called.
    """
    built, init = [], MarketParams.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.spot, self.rate, self.vol))

    monkeypatch.setattr(MarketParams, "__init__", counted)
    return built


def test_pde_residual_builds_no_market_per_spot(market_a, put_a, monkeypatch):
    built = _count_markets(monkeypatch)
    pde_residual(market_a, put_a, [60.0 + 10.0 * i for i in range(10)])
    assert built == []
    # the counter is live: a market built here is seen
    MarketParams(60.0, market_a.rate, market_a.vol)
    assert built == [(60.0, 0.05, 0.5)]


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
        # the residual built per spot from the public views; a new contract
        # object per spot makes each spot's evaluation solve the exponents
        # itself, not reuse another spot's terms
        drift, discount = market_a.rate, 2.0 * market_a.rate + c.amort
        out = []
        for s in spots:
            ms, cs = dataclasses.replace(market_a, spot=s), dataclasses.replace(c)
            v = price(ms, cs).premium
            resid = 0.5 * market_a.vol**2 * s * s * gamma(ms, cs) + drift * s * delta(ms, cs) - discount * v
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


def _residual_from_views(m, c, spots, premium_scale=1.0):
    """pde_residual rebuilt per spot from the public views, or its error as (type, message).

    The exponents are solved first, as pde_residual does before it reads
    a spot; each spot is then checked by building its market, priced,
    refused outside the continuation region, and differentiated through
    delta and gamma, with the sigma^2*S*S overflow fallback. Each spot
    gets a new contract object, so its evaluation is a fresh one and
    reuses no other spot's terms.
    """
    drift, discount = m.rate, 2.0 * m.rate + c.amort
    out = []
    try:
        ampo.compute_exponents(m, c.amort)
        for s in spots:
            ms, cs = dataclasses.replace(m, spot=s), dataclasses.replace(c)
            quote = price(ms, cs)
            if quote.regime is not Regime.CONTINUATION:
                raise RegionError(f"spot {s} is outside the continuation region")
            v = premium_scale * quote.premium
            d2v = gamma(ms, cs)
            curvature = 0.5 * m.vol**2 * s * s * d2v
            if not curvature < math.inf:
                curvature = 0.5 * m.vol**2 * (s * (s * d2v))
            resid = curvature + drift * s * delta(ms, cs) - discount * v
            out.append(abs(resid) / max(abs(discount * v), 1e-300))
    except AmpoError as exc:
        return type(exc), str(exc)
    return [r.hex() for r in out]


def _pde_outcome(m, c, spots, premium_scale=1.0):
    try:
        return [r.hex() for r in pde_residual(m, c, spots, premium_scale)]
    except AmpoError as exc:
        return type(exc), str(exc)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@pytest.mark.parametrize("seed", [1, 2])
def test_pde_residual_equals_the_public_views_over_the_full_domain(seed):
    # the property tests' ranges; spots on either side of the boundary,
    # now and then a bad, an out-of-region or no spot at all
    rng = random.Random(seed)
    outcomes = collections.Counter()
    for _ in range(300):
        rate = 0.0 if rng.random() < 0.1 else _log_uniform(rng, 1e-6, 2.0)
        m = MarketParams(spot=100.0, rate=rate, vol=_log_uniform(rng, 1e-4, 5.0))
        kind = rng.choice(list(OptionKind))
        c = ContractParams(
            strike=_log_uniform(rng, 1e-2, 1e4), amort=_log_uniform(rng, 1e-8, 1e5), kind=kind
        )
        try:
            bd = exercise_boundary(m, c)
        except AmpoError:
            bd = c.strike
        side = (1e-3, 1.0) if kind is OptionKind.CALL else (1.0, 50.0)
        spots = [bd * rng.uniform(*side) for _ in range(rng.randrange(9, 11))]
        u = rng.random()
        if u < 0.05:
            spots = []
        elif u < 0.15:
            bad = rng.choice([math.nan, math.inf, 0.0, -1.0, bd * (2.0 if kind is OptionKind.CALL else 0.5)])
            spots.insert(rng.randrange(len(spots) + 1), bad)
        scale = rng.choice([1.0, 1.01])
        got = _pde_outcome(m, c, spots, scale)
        assert got == _residual_from_views(m, c, spots, scale), (m, c, spots, scale)
        outcomes[got[0] if isinstance(got, tuple) else list] += 1
    assert outcomes.keys() == {list, RegionError, ValidationError}, outcomes


@pytest.mark.parametrize(
    "market, c, spots",
    [
        # alpha_p underflows to 0: a bad first spot is reported before the closed form's error
        (MarketParams(100.0, 0.0, 1e100), ContractParams(100.0, 1e-300, OptionKind.PUT), [math.nan, 80.0]),
        (MarketParams(100.0, 0.0, 1e100), ContractParams(100.0, 1e-300, OptionKind.PUT), [80.0]),
        (MarketParams(100.0, 0.0, 1e100), ContractParams(100.0, 1e-300, OptionKind.CALL), []),
        # the exponent solve overflows before any spot is read
        (MarketParams(100.0, 0.05, 1e-80), ContractParams(100.0, 0.1, OptionKind.PUT), [math.nan]),
        (MarketParams(100.0, 0.05, 1e-80), ContractParams(100.0, 0.1, OptionKind.PUT), []),
        (MarketParams(100.0, 0.05, 0.5), ContractParams(100.0, 0.1, OptionKind.PUT), []),
        (MarketParams(100.0, 0.05, 0.5), ContractParams(100.0, 0.1, OptionKind.PUT), [80.0, 40.0, -1.0]),
        (MarketParams(100.0, 0.05, 0.5), ContractParams(100.0, 0.1, OptionKind.CALL), [60.0, 300.0]),
        (MarketParams(100.0, 0.05, 1e60), ContractParams(100.0, 0.1, OptionKind.CALL), [100.0, 3e122]),
    ],
)
@pytest.mark.parametrize("scale", [1.0, 1.01])
def test_pde_residual_equals_the_public_views_at_its_edges(market, c, spots, scale):
    assert _pde_outcome(market, c, spots, scale) == _residual_from_views(market, c, spots, scale)


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


def test_validate_checks_build_one_market_per_bumped_spot_or_vol(market_a, put_a, monkeypatch):
    built = _count_markets(monkeypatch)
    assert all(r["passed"] for r in validate_checks(market_a, put_a, _CFG))
    # fd_delta's and fd_gamma's spots 100 +- 0.01, then fd_vega's vols
    # 0.5 +- 5e-5; the residual's ten spots build none
    assert built == [
        (100.01, 0.05, 0.5), (99.99, 0.05, 0.5), (100.01, 0.05, 0.5), (99.99, 0.05, 0.5),
        (100.0, 0.05, 0.50005), (100.0, 0.05, 0.49995),
    ]


@pytest.mark.parametrize(
    "kind, values",
    [
        (
            OptionKind.PUT,
            ["0x1.505e763e147acp-20", "0x1.b02781965570ap-10", "0x1.f4fc7ee28de74p-53",
             "0x1.579f000000000p-27", "0x1.579b61fa00000p-26", "0x1.c988c2a6625b5p-32"],
        ),
        (
            OptionKind.CALL,
            ["0x1.7c0aba995b5c5p-20", "0x1.5c3965e79799ap-10", "0x1.1e60383308f7ep-52",
             "0x1.b71418d20b925p-32", "0x1.00f0a03d79681p-30", "0x1.7a0c3465895f8p-32"],
        ),
    ],
)
def test_validate_checks_values_at_market_a_are_pinned(market_a, kind, values):
    checks = validate_checks(market_a, ContractParams(100.0, 0.1, kind), _CFG)
    assert [r["check"] for r in checks] == _CHECKS
    assert [r["value"].hex() for r in checks] == values


@pytest.mark.parametrize("kind", [OptionKind.CALL, OptionKind.PUT])
def test_fd_gamma_differences_the_analytic_delta(market_a, kind, monkeypatch):
    # fd_gamma is the central first difference of delta at the spot's two
    # bumps: the two delta calls at S +- h are the only ones after the
    # analytic check's, and the check's value is their quotient against gamma
    c = ContractParams(100.0, 0.1, kind)
    spots = []
    real_delta = oracle.delta

    def recorded(m, c):
        spots.append(m.spot)
        return real_delta(m, c)

    monkeypatch.setattr(oracle, "delta", recorded)
    checks = {r["check"]: r for r in validate_checks(market_a, c, _CFG)}
    assert spots[0] == market_a.spot and len(spots) == 3
    up, down = spots[1:]
    fd = (real_delta(MarketParams(up, 0.05, 0.5), c) - real_delta(MarketParams(down, 0.05, 0.5), c)) / (up - down)
    analytic = gamma(market_a, c)
    assert checks["fd_gamma"]["value"] == pytest.approx(abs(analytic - fd) / analytic, rel=1e-6)
    assert checks["fd_gamma"]["passed"]


def _other_kind_gamma(m, c):
    # alpha*(alpha - s)*V/S^2 with alpha the other kind's exponent
    ex = compute_exponents(m, c.amort)
    s, alpha = (1.0, ex.alpha_p) if c.kind is OptionKind.CALL else (-1.0, ex.alpha_c)
    return alpha * (alpha - s) * price(m, c).premium / m.spot**2


@pytest.mark.parametrize(
    "wrong", [lambda m, c: 1.01 * gamma(m, c), _other_kind_gamma], ids=["x1.01", "other_kind"]
)
@pytest.mark.parametrize("kind", [OptionKind.CALL, OptionKind.PUT])
def test_fd_gamma_still_catches_a_wrong_gamma(wrong, kind, monkeypatch):
    # the Delta difference keeps the check's power: over box contracts a
    # Gamma off by 1% or taken from the other kind's exponent fails fd_gamma
    # and nothing else
    rng = random.Random(21)
    monkeypatch.setattr(oracle, "gamma", wrong)
    checked = 0
    for _ in range(6):
        m = MarketParams(100.0, rng.uniform(0.02, 0.15), rng.uniform(0.1, 0.6))
        c = ContractParams(100.0, rng.uniform(0.05, 1.5), kind)
        if price(m, c).regime is not Regime.CONTINUATION:
            continue
        checks = validate_checks(m, c, _CFG)
        assert [r["check"] for r in checks if not r["passed"]] == ["fd_gamma"], checks
        checked += 1
    assert checked >= 4


def _past_1e158():
    # a call at S = 0.9*boundary ~ 1.6e308, where Gamma is 5.6e-309
    c = ContractParams(strike=8.988e307 * (1 - 1e-7), amort=1.0, kind=OptionKind.CALL)
    return MarketParams(spot=0.9 * price(MarketParams(1.0, 0.0, 1.0), c).boundary, rate=0.0, vol=1.0), c


def test_fd_gamma_at_a_spot_past_1e158_has_no_overflowing_denominator():
    # the second difference's (h*S)^2 overflowed there and the contract was
    # refused with "difference denominator of inf"
    checks = {r["check"]: r for r in validate_checks(*_past_1e158(), _CFG)}
    assert checks["fd_gamma"]["passed"]
    assert checks["fd_delta"]["passed"] and checks["pde_residual"]["passed"]


def test_fd_gamma_at_a_spot_past_1e158_catches_a_gamma_off_by_1_percent(monkeypatch):
    # the error's floor is 1e-12 of V/S^2; an absolute 1e-12 floor passed any
    # error below 1e-17, so any wrong Gamma there: one off by 1% reads about 1e-2
    real_gamma = oracle.gamma
    monkeypatch.setattr(oracle, "gamma", lambda m, c: 1.01 * real_gamma(m, c))
    checks = {r["check"]: r for r in validate_checks(*_past_1e158(), _CFG)}
    assert not checks["fd_gamma"]["passed"] and checks["fd_gamma"]["value"] > 9e-3
    assert checks["fd_delta"]["passed"] and checks["fd_vega"]["passed"]


def test_validate_checks_residual_spots_stay_in_range_past_2e307(monkeypatch):
    # the call's boundary is 2K = 1.8e308, so (0.999*boundary - 0.5*spot)*i
    # overflowed for i >= 2 and the checker's own grid was refused with
    # "spot must be finite, got inf"
    spots = []
    residual = oracle.pde_residual

    def recorded(m, c, grid, premium_scale):
        spots.extend(grid)
        return residual(m, c, grid, premium_scale)

    monkeypatch.setattr(oracle, "pde_residual", recorded)
    m = MarketParams(spot=1e150, rate=0.0, vol=1.0)
    c = ContractParams(strike=8.988e307 * (1 - 1e-7), amort=1.0, kind=OptionKind.CALL)
    boundary = price(m, c).boundary
    checks = {r["check"]: r for r in validate_checks(m, c, _CFG)}
    assert list(checks) == _CHECKS
    assert checks["pde_residual"]["passed"]
    assert spots[0] == 0.5 * m.spot and spots == sorted(spots)
    assert boundary * 0.998 < spots[-1] <= boundary * 0.999


def test_validate_checks_lattice_boundary_is_a_number_where_the_boundary_overflows():
    # the call's boundary alpha*K/gap = 2*9e307 overflows to inf, and
    # |estimate - inf|/inf recorded nan, a failed check; the ratio
    # estimate/K*(gap/alpha) is taken there. fd_delta, fd_gamma and fd_vega
    # fail at this contract too: that is the accuracy of the closed forms
    # and their differences at the edge of the float range, and stays open
    m = MarketParams(spot=1e150, rate=0.0, vol=1.0)
    c = ContractParams(strike=9e307, amort=1.0, kind=OptionKind.CALL)
    f = ampo.pricing._evaluate(m, c)
    checks = {r["check"]: r for r in validate_checks(m, c, _CFG)}
    estimate = lattice_price(to_equivalent_perpetual(c, m), m, _CFG).boundary_estimate
    value = checks["lattice_boundary"]["value"]
    assert value == abs(estimate / c.strike * (f.gap / f.alpha) - 1.0)
    assert 2.7e-3 < value < 2.8e-3 and checks["lattice_boundary"]["passed"]


@pytest.mark.parametrize("kind", [OptionKind.CALL, OptionKind.PUT])
def test_validate_checks_solve_the_exponents_four_times(market_a, kind, monkeypatch):
    # _evaluate, lattice_price and fd_vega's two vols; pde_residual reads
    # _evaluate's solve and the spot differences reuse its terms
    import ampo.pricing

    solves = []
    exponents = ampo.pricing._exponents

    def counted(m, q):
        solves.append((m.vol, q))
        return exponents(m, q)

    monkeypatch.setattr(ampo.pricing, "_exponents", counted)
    m, c = dataclasses.replace(market_a), ContractParams(100.0, 0.1, kind)
    validate_checks(m, c, _CFG)
    assert len(solves) == 4
    assert [vol for vol, _ in solves].count(m.vol) == 2


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


def test_finite_difference_refuses_the_forward_mode_by_name():
    with pytest.raises(ValidationError, match=r"^mode must be 'central', got 'forward'$"):
        finite_difference(math.exp, 1.0, 1, "forward", 1e-5)


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
    [
        (1.0, 0.0), (1.0, -1e-6), (1.0, math.nan), (1.0, math.inf), (math.inf, 1e-6), (math.nan, 1e-6),
        (1.0, decimal.Decimal("nan")),
    ],
)
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "mode, refused",
    [("central", r"^(step|x) must be finite"), ("forward", r"^mode must be 'central', got 'forward'$")],
    ids=["central", "forward"],
)
def test_finite_difference_refuses_a_bad_step_or_point(x, step, order, mode, refused):
    # step 0 used to raise ZeroDivisionError, a nan step or an infinite x
    # returned nan, and a Decimal nan step raised decimal.InvalidOperation;
    # the forward stencils are gone, so "forward" is refused by name before
    # the step or the point is read
    with pytest.raises(ValidationError, match=refused):
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
        return sign * strike * math.expm1(x + (k - at_spot) * step)

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


_EPS = sys.float_info.epsilon


def _walk_tolerance(args, want, c=4.0):
    """The allowed |closed form - walk| in value, at the walk's (V, boundary) = want.

    c*eps*((k + 1)/(1 - rho) + |log V| + |log K|)*V, k the nodes from
    want's boundary to the spot: each of the walk's k factors B_k is off by up to about
    1.5*eps/(1 - rho) and rounds once more as it is multiplied in, and the
    closed form's r1^k and its exp of a sum of logs add about eps per node
    and eps*(|log V| + |log K|). Plus c/(2(1 - r1)) subnormal ulps: the walk's
    product stops at a subnormal where one more factor B rounds back to it,
    at up to 1/(2(1 - B)) ulps. 0.0 where the spot is exercised, since both
    then return its payoff.
    """
    kind, spot, strike, growth, discount_rate, vol, steps = args
    value, boundary = want
    if (spot < boundary) == (kind == OptionKind.PUT):
        return 0.0
    dx = min(oracle._REACH / steps, vol * math.sqrt(oracle._DISCOUNT / (steps * discount_rate)))
    dt = (dx / vol) ** 2
    u = math.exp(dx)
    p = (math.exp(growth * dt) - 1.0 / u) / (u - 1.0 / u)
    b = math.exp(-discount_rate * dt)
    s = math.sqrt(-math.expm1(-2.0 * discount_rate * dt) + (b * (1.0 - 2.0 * p)) ** 2)
    r1 = 2.0 * b * (1.0 - (p if kind == OptionKind.PUT else 1.0 - p)) / (1.0 + s)
    k = abs(math.log(boundary / spot)) / dx + 0.5
    logs = abs(math.log(strike)) + (abs(math.log(value)) if value > 0.0 else 0.0)
    return c * (_EPS * ((k + 1.0) * (1.0 + s) / (2.0 * s) + logs) * value
                + 2.0**-1074 / (2.0 * (1.0 - r1)))


def _near_walk(args, got, want):
    """got, the sweep's (value, boundary), against the walk's want.

    The same boundary, and values within _walk_tolerance.
    """
    return got[1] == want[1] and abs(got[0] - want[0]) <= _walk_tolerance(args, want)


# (spot, rate, vol, strike, amort, kind, steps) where the walk reads ratios B_k
# that have not reached their fixed point, between the boundary and the spot:
# three contracts of the `validate` benchmark and four full-domain draws
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


# full-domain draws whose spot lies near the far continuation end, where
# B_k is still below its fixed point
_REBUILT = [
    dict(spot=22.638741377080837, rate=0.0048614591836975305, vol=3.0839074639658315,
         strike=0.05188719565722055, q=0.0012077025683622958, kind=OptionKind.CALL, steps=2000),
    dict(spot=24121.243987762293, rate=0.013350181172208696, vol=0.16722637191010176,
         strike=5466.0594126882415, q=3.0753007496974716e-05, kind=OptionKind.PUT, steps=50),
]


# near the double root of tc*B^2 - B + te = 0: 1 - 4*tc*te is about 6e-7 at
# 8000 steps and 2e-6 at 4000, so 1/(1 - rho) is about 640 and 350
_NEAR_DOUBLE_ROOT = [
    dict(spot=100.0, rate=0.0, vol=0.5, strike=100.0, q=1e-6, kind=OptionKind.PUT, steps=8000),
    dict(spot=100.0, rate=0.0, vol=0.5, strike=100.0, q=1e-6, kind=OptionKind.CALL, steps=4000),
]


# where the exercise test's rounding spans a grid step or more
_BELOW_ROUNDING = [
    # 1/u - r1 is about 1e-11: every node is held and the lattice refuses
    dict(spot=100.0, rate=0.0, vol=3.0, strike=100.0, q=1e-8, kind=OptionKind.CALL, steps=4000),
    # dx is about 1.3e-13, below the test's rounding at the boundary
    dict(spot=100.0, rate=0.0, vol=1e-9, strike=100.0, q=1e5, kind=OptionKind.PUT, steps=8000),
    # dx is about 1e-15, where the walk's float test flips more than once
    dict(spot=100.00000001000001, rate=0.0, vol=1e-11, strike=100.0, q=1e5, kind=OptionKind.CALL,
         steps=8000),
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
    for d in _BELOW_ROUNDING:
        cases.append((MarketParams(d["spot"], d["rate"], d["vol"]),
                      ContractParams(d["strike"], d["q"], d["kind"]), d["steps"]))
    return cases


def _lattice_args(m, c, steps):
    # _perpetual_sweep's arguments as lattice_price passes them
    e = to_equivalent_perpetual(c, m)
    return e.payoff_kind, m.spot, e.strike, e.rate_eff - e.dividend_eff, e.rate_eff, m.vol, steps


def _run_sweep(sweep, args):
    # a sweep's (value, boundary), or the type and message of its AmpoError
    try:
        return sweep(*args)
    except AmpoError as exc:
        return type(exc), str(exc)


def _outcome(m, c, cfg):
    try:
        rep = lattice_price(to_equivalent_perpetual(c, m), m, cfg)
    except AmpoError as exc:
        return type(exc), str(exc)
    return rep.oracle_price, rep.boundary_estimate


@pytest.mark.parametrize("convergence", [None, 5e-3])
def test_sweep_matches_linear_walk(market_a, convergence, monkeypatch):
    # the walk's refusals and boundaries, and its prices within _walk_tolerance;
    # the largest difference here is 0.34 of it (a put at vol 5, q 100)
    cases = [
        (m, c, LatticeConfig(steps=n, convergence=convergence))
        for m, c, n in _sweep_cases(market_a)
    ]
    got = [_outcome(*case) for case in cases]
    monkeypatch.setattr(oracle, "_perpetual_sweep", _linear_sweep)
    want = [_outcome(*case) for case in cases]
    for (m, c, cfg), g, w in zip(cases, got, want):
        if isinstance(w[0], float):
            assert _near_walk(_lattice_args(m, c, cfg.steps), g, w), (m, c, cfg.steps, g, w)
        else:
            assert g == w
    assert sum(isinstance(w[0], float) for w in want) > len(want) // 2


@pytest.mark.parametrize("spot", [90.0, 110.0])
@pytest.mark.parametrize("kind", list(OptionKind))
def test_sweep_at_an_up_probability_of_one_matches_the_walk(kind, spot):
    # exp(growth*dt) rounds to u here, so p is 1.0: the put's te and the
    # call's tc are 0, and so is 4*tc*te, whose log the closed form takes;
    # the call's first node is held and the lattice refuses
    args = (kind, spot, 100.0, 333.33333333333326, 1e-3, 1.0, 4000)
    got, want = _run_sweep(oracle._perpetual_sweep, args), _run_sweep(_linear_sweep, args)
    assert _near_walk(args, got, want) if isinstance(want[0], float) else got == want


@pytest.mark.parametrize(
    "args",
    [
        (OptionKind.PUT, 100.0, 9.20491891927379, 0.20675914889040745, 0.0012096703947725399, 1.0, 3),
        (OptionKind.PUT, 100.0, 32613.708459571088, 0.20554337363556371, 0.000437654362452829, 1.0, 3),
    ],
    ids=["spot-held", "spot-exercised"],
)
def test_sweep_tests_the_far_end_nodes_against_the_exact_ratio(args):
    # a growth above the discount rate, which lattice_price never passes, puts
    # c near 1/2 and rho near 0.67 and 0.79 on these 8- and 9-node grids: B_k near the
    # far end is well below r1 and exercises nodes the condition at r1 holds,
    # so without the one-by-one test the boundary is one or more nodes short
    got, want = _run_sweep(oracle._perpetual_sweep, args), _run_sweep(_linear_sweep, args)
    assert _near_walk(args, got, want)


@pytest.mark.parametrize("kind", list(OptionKind))
def test_sweep_work_is_the_same_at_any_steps(market_a, kind, monkeypatch):
    # a walk makes one exp per node, about 5,600 calls on the 4000-step grid
    # and its half; the closed form makes the same few at any steps
    calls = collections.Counter()

    def counted(name):
        f = getattr(math, name)

        def call(v):
            calls[name] += 1
            return f(v)

        return call

    grids = [_lattice_args(market_a, ContractParams(100.0, 0.1, kind), steps) for steps in (50, 4000, 10**6)]
    counts = []
    for args in grids:
        calls.clear()
        for name in ("exp", "expm1", "log", "log1p"):
            monkeypatch.setattr(math, name, counted(name))
        oracle._perpetual_sweep(*args)
        monkeypatch.undo()
        counts.append(dict(calls))
    assert counts[0] == counts[1] == counts[2]
    assert sum(counts[0].values()) < 25  # 20 here


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


def _sweep_args(spot, rate, vol, strike, q, kind, steps):
    return kind, spot, strike, rate, 2.0 * rate + q, vol, steps


def test_boundary_to_spot_product_stops_once_it_stops_changing():
    # dx is about 4.7e-8 here and the spot about 1.9e8 nodes above the
    # boundary: multiplying by B at every node took tens of seconds, and
    # stopped at 8 subnormal ulps, where one more factor B rounds back to the
    # same float; the value, about e^-1.1e7, underflows to 0.0
    args = _sweep_args(113.21, 1.306e-4, 3.34e-4, 0.01592, 87_735.0, OptionKind.PUT, 8000)
    assert sum(_line_events(args, cap=100_000).values()) < 100  # 39 here
    value, boundary = oracle._perpetual_sweep(*args)
    assert (value.hex(), boundary.hex()) == ("0x0.0p+0", "0x1.04d544e9b94adp-6")


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
