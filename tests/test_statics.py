import dataclasses
import math
import random
import sys

import pytest

from ampo import (
    ContractParams,
    MarketParams,
    OptionKind,
    RegionError,
    ValidationError,
    compute_exponents,
    d2_premium_dsigma_dq,
    d_boundary_dq,
    d_premium_dq,
    exercise_boundary,
    finite_difference,
    limit_suite,
    mixed_partial_factors,
    price,
    statics_report,
)
from ampo.statics import LARGE_Q
from conftest import sample_set
from domains import full


def test_d_premium_dq_params_a(market_a, call_a, put_a):
    assert d_premium_dq(market_a, call_a) == pytest.approx(-104.71498313217022, rel=1e-12)
    assert d_premium_dq(market_a, put_a) == pytest.approx(-53.31901388922656, rel=1e-12)


@pytest.mark.parametrize("vol", [1e-70, 1e-65, 1e62, 1e70])
@pytest.mark.parametrize("kind", list(OptionKind))
def test_d_premium_dq_is_finite_where_the_mixed_partial_leaves_the_float_range(vol, kind):
    # sigma^5 in the mixed partial over- or underflows, so statics_report
    # refuses; dV/dq = s*V*L/(sigma^2 alpha_bar) is a float and is returned
    m = MarketParams(spot=100.0, rate=0.05, vol=vol)
    c = ContractParams(strike=100.0, amort=0.1, kind=kind)
    with pytest.raises(ValidationError, match="a q-derivative"):
        statics_report(m, c)
    got = d_premium_dq(m, c)
    assert math.isfinite(got) and got <= 0.0
    if vol < 1.0 and kind is OptionKind.CALL:
        # the near-deterministic call: its premium is smooth in q
        fd = finite_difference(lambda q: price(m, dataclasses.replace(c, amort=q)).premium, 0.1)
        assert got == pytest.approx(fd, rel=1e-8)


def test_factors_and_limits_past_the_float_range_are_refused_by_name():
    # the explicit term -(2/sigma) dV/dq is about 1.4e342 here, so the factors
    # are refused; the mixed partial and dV/dq are floats and are returned
    m = MarketParams(spot=9.938261465031477e283, rate=3.884108288674537e-31, vol=1.3036071673580584e-35)
    c = ContractParams(strike=1.3941054643495957e292, amort=1.531907797260291e-58, kind=OptionKind.CALL)
    with pytest.raises(ValidationError, match="a chain-rule factor of d2V/\\(dsigma dq\\) overflows"):
        mixed_partial_factors(m, c)
    assert math.isfinite(d2_premium_dsigma_dq(m, c)) and math.isfinite(d_premium_dq(m, c))
    # K/(e*alpha_p) at q = 1e4 is about 1e360 at vol 1e30, and a float at vol 1e3
    c = ContractParams(strike=1e300, amort=0.1, kind=OptionKind.PUT)
    with pytest.raises(ValidationError, match="the large-q bound overflows"):
        limit_suite(MarketParams(spot=1e300, rate=0.05, vol=1e30), c)
    report = limit_suite(MarketParams(spot=1e300, rate=0.05, vol=1e3), c)
    assert all(map(math.isfinite, dataclasses.astuple(report)))


def test_d_premium_dq_zero_at_boundary(market_a, call_a):
    bd = exercise_boundary(market_a, call_a)
    assert d_premium_dq(dataclasses.replace(market_a, spot=bd), call_a) == pytest.approx(
        0.0, abs=1e-10
    )


def test_d_boundary_dq_params_a(market_a, call_a, put_a):
    assert d_boundary_dq(market_a, call_a) == pytest.approx(-854.7008547008547, rel=1e-12)
    assert d_boundary_dq(market_a, put_a) == pytest.approx(76.92307692307692, rel=1e-12)


def test_mixed_partial_params_a(market_a, call_a, put_a):
    assert d2_premium_dsigma_dq(market_a, call_a) == pytest.approx(
        -80.48604147931042, rel=1e-10
    )
    assert d2_premium_dsigma_dq(market_a, put_a) == pytest.approx(
        -112.17097798119505, rel=1e-10
    )


def test_region_error_outside_continuation(market_a, call_a, put_a):
    with pytest.raises(RegionError):
        d_premium_dq(dataclasses.replace(market_a, spot=300.0), call_a)
    with pytest.raises(RegionError):
        d2_premium_dsigma_dq(dataclasses.replace(market_a, spot=30.0), put_a)


def test_fd_agreement():
    rng = random.Random(29)
    for _ in range(60):
        m, c = sample_set(rng, spot_margin=0.01)

        def prem_q(q):
            return price(m, dataclasses.replace(c, amort=q)).premium

        def bd_q(q):
            return exercise_boundary(m, dataclasses.replace(c, amort=q))

        assert d_premium_dq(m, c) == pytest.approx(
            finite_difference(prem_q, c.amort, 1, "central", 1e-5), rel=1e-5
        )
        assert d_boundary_dq(m, c) == pytest.approx(
            finite_difference(bd_q, c.amort, 1, "central", 1e-5), rel=1e-5
        )

        h = 1e-4 * m.vol
        k = 1e-5 * c.amort

        def prem(sig, q):
            return price(
                dataclasses.replace(m, vol=sig), dataclasses.replace(c, amort=q)
            ).premium

        cross = (
            prem(m.vol + h, c.amort + k)
            - prem(m.vol + h, c.amort - k)
            - prem(m.vol - h, c.amort + k)
            + prem(m.vol - h, c.amort - k)
        ) / (4.0 * h * k)
        assert d2_premium_dsigma_dq(m, c) == pytest.approx(cross, rel=1e-4)


def test_sign_suite():
    rng = random.Random(31)
    for _ in range(500):
        m, c = sample_set(rng)
        assert d_premium_dq(m, c) <= 0.0
        if c.kind == OptionKind.CALL:
            assert d_boundary_dq(m, c) <= 0.0
        else:
            assert d_boundary_dq(m, c) >= 0.0
        assert d2_premium_dsigma_dq(m, c) <= 1e-12


def test_mixed_partial_sign_follows_the_criterion_over_full_domain():
    # d2V/(dsigma dq) = -V/(sigma^3 alpha_bar^2) * B(u), B(u) = alpha*gap*u^2 - c*u + 1,
    # with u = -s*L and c = (3r + 2q + sigma^2/2)/(sigma^2 alpha_bar) (module
    # notes): it is > 0 exactly where c^2 > 4*alpha*gap and u lies strictly
    # between the roots of B. Results below the normal range carry no sign.
    rng = random.Random(9)
    counts = {"positive": 0, "no root": 0, "outside the roots": 0}
    for _ in range(40000):
        rate, vol, q, spot, strike = full(rng)
        m, c = MarketParams(spot, rate, vol), ContractParams(strike, q, rng.choice(list(OptionKind)))
        try:
            got = d2_premium_dsigma_dq(m, c)
        except RegionError:
            continue
        if abs(got) < sys.float_info.min:
            continue
        ex = compute_exponents(m, q)
        # alpha_p + 1, and alpha_c - 1 from (alpha_c - 1)(alpha_p + 1) = 2(r + q)/sigma^2,
        # so neither cancels
        up = ex.alpha_bar + rate / vol**2 + 0.5
        if c.kind is OptionKind.CALL:
            s, alpha, gap = 1.0, ex.alpha_c, 2.0 * (rate + q) / vol**2 / up
        else:
            s, alpha, gap = -1.0, ex.alpha_p, up
        u = -s * math.log(gap * spot / (alpha * strike))
        b = (3.0 * rate + 2.0 * q + 0.5 * vol**2) / (vol**2 * ex.alpha_bar)  # the notes' c
        disc = b * b - 4.0 * alpha * gap
        if disc <= 0.0:
            positive, case = False, "no root"
        else:
            root = math.sqrt(disc)
            # the smaller root as 1/(alpha*gap) over the larger, without cancelling
            positive = 2.0 / (b + root) < u < (b + root) / (2.0 * alpha * gap)
            case = "positive" if positive else "outside the roots"
        assert (got > 0.0) == positive, (m, c, got)
        counts[case] += 1
    assert min(counts.values()) > 100, counts


def test_proof_factor_signs():
    rng = random.Random(37)
    for _ in range(200):
        m, c = sample_set(rng, kind=OptionKind.PUT)
        f = mixed_partial_factors(m, c)
        assert f.d_dq_premium_dalpha > 0.0
        assert f.dalpha_dsigma < 0.0
        assert f.d_dq_premium_dalphabar >= 0.0
        assert f.dalphabar_dsigma < 0.0
    for _ in range(200):
        m, c = sample_set(rng, kind=OptionKind.CALL)
        f = mixed_partial_factors(m, c)
        assert f.dalpha_dsigma < 0.0
        assert f.dalphabar_dsigma < 0.0


def test_statics_report_assembles_factors(market_a):
    # f1*f2 plus f3*f4 + explicit taken as one term, which has no cancelling
    # difference: g = -(dV/dq)(3r + 2q + sigma^2/2)/(sigma * sigma^2 alpha_bar * alpha_bar)
    r, sig = market_a.rate, market_a.vol
    for kind in OptionKind:
        c = ContractParams(strike=100.0, amort=0.1, kind=kind)
        rep = statics_report(market_a, c)
        f = rep.intermediates
        ab = compute_exponents(market_a, c.amort).alpha_bar
        g = -rep.d_premium_dq * (3.0 * r + 2.0 * c.amort + 0.5 * sig**2) / (sig * (sig**2 * ab) * ab)
        assert rep.d2_premium_dsigma_dq == f.d_dq_premium_dalpha * f.dalpha_dsigma + g
        cancelling = f.d_dq_premium_dalphabar * f.dalphabar_dsigma + f.explicit_sigma_term
        assert math.isclose(cancelling, g, rel_tol=1e-14)
        assert rep.d_premium_dq == d_premium_dq(market_a, c)


def test_monotone_scan(market_a):
    from ampo import vega

    qs = [0.01 + (2.0 - 0.01) * i / 49 for i in range(50)]
    for kind in OptionKind:
        prem = []
        veg = []
        for q in qs:
            c = ContractParams(strike=100.0, amort=q, kind=kind)
            prem.append(price(market_a, c).premium)
            veg.append(vega(market_a, c))
        assert all(b < a for a, b in zip(prem, prem[1:]))
        assert all(b < a for a, b in zip(veg, veg[1:]))


def test_limit_suite_small_q(market_a, call_a, put_a):
    for c in (call_a, put_a):
        rep = limit_suite(market_a, c)
        assert rep.small_q_ok
        assert rep.small_q_rel_err < 1e-6


def test_limit_suite_large_q_deep_itm(market_a):
    c = ContractParams(strike=100.0, amort=0.1, kind=OptionKind.CALL)
    rep = limit_suite(dataclasses.replace(market_a, spot=250.0), c)
    # at q = 1e4 the boundary has collapsed to the strike, so a deep ITM
    # call is exercised immediately and matches intrinsic exactly
    assert rep.premium_large_q == pytest.approx(150.0, abs=1e-12)
    assert rep.large_q_ok


def _atm_rate(premium, strike, alpha):
    """R = premium * e * alpha / K; R -> 1 as q -> infinity at S = K."""
    return premium * math.e * alpha / strike


def test_limit_suite_large_q_atm_scale(market_a, call_a, put_a):
    # ATM, the large-q premium decays like K/(e * alpha) with the kind's
    # own exponent (alpha_c for a call, alpha_p for a put), not faster
    ex = compute_exponents(market_a, LARGE_Q)
    for c, alpha in ((call_a, ex.alpha_c), (put_a, ex.alpha_p)):
        rep = limit_suite(market_a, c)
        assert rep.intrinsic == 0.0
        assert rep.large_q_ok
        assert abs(_atm_rate(rep.premium_large_q, c.strike, alpha) - 1.0) <= 1.0 / alpha


@pytest.mark.parametrize("q", [1e2, 1e4, 1e6])
@pytest.mark.parametrize("kind", list(OptionKind))
def test_atm_premium_large_q_rate(market_a, kind, q):
    # log R = sum_n (+-1/alpha)^n / (n(n+1)): + for calls, alternating for
    # puts, so R - 1 ~ +-1/(2 alpha) and |R - 1| <= 1/alpha
    ex = compute_exponents(market_a, q)
    alpha = ex.alpha_c if kind == OptionKind.CALL else ex.alpha_p
    prem = price(market_a, ContractParams(strike=100.0, amort=q, kind=kind)).premium
    dev = _atm_rate(prem, 100.0, alpha) - 1.0
    assert abs(dev) <= 1.0 / alpha
    if kind == OptionKind.CALL:
        assert dev > 0.0
    else:
        assert dev < 0.0


def test_limit_suite_large_q_envelope_random():
    rng = random.Random(41)
    for _ in range(500):
        m, c = sample_set(rng)
        m = dataclasses.replace(m, spot=rng.uniform(20.0, 300.0))
        assert limit_suite(m, c).large_q_ok


def test_large_q_atm_premium_matches_mpmath(market_a, call_a, put_a):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r, sig, q, k = (mpmath.mpf(v) for v in ("0.05", "0.5", repr(LARGE_Q), "100"))
        x = r / sig**2
        rad = mpmath.sqrt((x + 0.5) ** 2 + 2 * (r + q) / sig**2)
        ac = rad - x + 0.5
        ap = rad + x - 0.5
        want = {
            OptionKind.CALL: k / (ac - 1) * ((ac - 1) / ac) ** ac,
            OptionKind.PUT: k / (1 + ap) * (ap / (1 + ap)) ** ap,
        }
        for c in (call_a, put_a):
            got = limit_suite(market_a, c).premium_large_q
            assert abs(got - want[c.kind]) / want[c.kind] <= 1e-12
