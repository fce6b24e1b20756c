"""The closed forms against a 60-digit mpmath reference over a seeded table
of the full domain: rate 0 (one draw in ten) or 1e-6..2, vol 1e-4..5,
amort 1e-8..1e5, spot 1e-3..1e5 and strike 1e-2..1e4, each log-uniform.

The reference evaluates the same power law V = K/gap * (gap*S/(alpha*K))^(s*alpha)
from the radical at 60 digits. Premium, Delta, Gamma, dV/dq and dS_bar/dq
are its closed forms; Vega and d2V/(dsigma dq) are mpmath.diff of the
premium in sigma and in (sigma, q), so they check the float forms'
derivation as well as their rounding.
"""

import dataclasses
import math
import random
import sys

import pytest

from ampo import (
    ContractParams,
    MarketParams,
    OptionKind,
    ValidationError,
    d2_premium_dsigma_dq,
    d_premium_dq,
    greeks_report,
    mixed_partial_factors,
    price,
    statics_report,
)

# worst relative error allowed on the table, per quantity; measured worst
# values are 2.2e-12 for the first six and 8.0e-16 for dS_bar/dq
WORST = {
    "premium": 1e-11,
    "delta": 1e-11,
    "gamma": 1e-11,
    "vega": 1e-11,
    "d_premium_dq": 1e-11,
    "d_boundary_dq": 1e-14,
    "d2_premium_dsigma_dq": 1e-11,
}


def _draw(rng):
    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    rate = 0.0 if rng.random() < 0.1 else log_uniform(1e-6, 2.0)
    vol, q = log_uniform(1e-4, 5.0), log_uniform(1e-8, 1e5)
    spot, strike = log_uniform(1e-3, 1e5), log_uniform(1e-2, 1e4)
    kind = rng.choice(list(OptionKind))
    return MarketParams(spot, rate, vol), ContractParams(strike, q, kind)


def _reference(mpmath, m, c, dps=60):
    """Each quantity at `dps` digits, or None where the spot is beyond the boundary."""
    s = 1 if c.kind is OptionKind.CALL else -1
    with mpmath.workdps(dps):
        r, spot, k = mpmath.mpf(m.rate), mpmath.mpf(m.spot), mpmath.mpf(c.strike)
        half = mpmath.mpf(1) / 2

        def terms(sig, q):
            x = r / sig**2
            radical = mpmath.sqrt((x + half) ** 2 + 2 * (r + q) / sig**2)
            alpha = radical - s * (x - half)
            return radical, alpha, alpha - s, mpmath.log((alpha - s) * spot / (alpha * k))

        def premium(sig, q):
            _, alpha, gap, log_m = terms(sig, q)
            return k / gap * mpmath.exp(s * alpha * log_m)

        sig, q = mpmath.mpf(m.vol), mpmath.mpf(c.amort)
        radical, alpha, gap, log_m = terms(sig, q)
        if s * log_m > 0:
            return None
        v = premium(sig, q)
        return {
            "premium": v,
            "delta": s * alpha * v / spot,
            "gamma": alpha * gap * v / spot**2,
            "vega": mpmath.diff(lambda x: premium(x, q), sig),
            "d_premium_dq": s * v * log_m / (sig**2 * radical),
            "d_boundary_dq": -s * k / (sig**2 * gap**2 * radical),
            "d2_premium_dsigma_dq": mpmath.diff(premium, (sig, q), (1, 1)),
        }


def _computed(m, c):
    g, st = greeks_report(m, c), statics_report(m, c)
    return {
        "premium": price(m, c).premium,
        "delta": g.delta,
        "gamma": g.gamma,
        "vega": g.vega,
        "d_premium_dq": st.d_premium_dq,
        "d_boundary_dq": st.d_boundary_dq,
        "d2_premium_dsigma_dq": st.d2_premium_dsigma_dq,
    }


def _normal(x):
    return sys.float_info.min <= abs(x) <= sys.float_info.max


def test_closed_forms_match_mpmath_over_full_domain():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(8)
    worst = dict.fromkeys(WORST, 0.0)
    compared = 0
    for _ in range(1500):
        m, c = _draw(rng)
        ref = _reference(mpmath, m, c)
        # every quantity is the premium times a factor, so where the premium
        # is subnormal each carries its lost bits
        if ref is None or not _normal(ref["premium"]):
            continue
        compared += 1
        with mpmath.workdps(60):
            for name, got in _computed(m, c).items():
                if _normal(ref[name]):
                    err = float(abs((got - ref[name]) / ref[name]))
                    worst[name] = max(worst[name], err)
    assert compared > 500
    assert all(worst[name] <= WORST[name] for name in WORST), worst


def test_mixed_partial_at_small_vol_matches_mpmath():
    # f3*f4 and the explicit term are each about 5.9e4 here and cancel to
    # 2.3e-3, and dalpha/dsigma written as 2sr less a quotient cancelled
    # too: that sum gave +8.3e-4 against a true -2.512e-3 (`ampo statics`)
    mpmath = pytest.importorskip("mpmath")
    m = MarketParams(spot=70.00062955189587, rate=1.078736531374756, vol=0.0001671895108159702)
    c = ContractParams(strike=676.9813935852695, amort=1.0905014972762569e-05, kind=OptionKind.CALL)
    want = _reference(mpmath, m, c)["d2_premium_dsigma_dq"]
    assert math.isclose(statics_report(m, c).d2_premium_dsigma_dq, want, rel_tol=1e-11)


def test_a_put_with_subnormal_alpha_matches_mpmath():
    # alpha_p = 2q/sigma^2 = 1e-323, so gap/alpha_p overflows and the
    # log-moneyness was log(inf): the premium read 0.0 and dV/dq nan. 400
    # digits, because the radical form of alpha_p cancels below 324
    mpmath = pytest.importorskip("mpmath")
    m = MarketParams(spot=1.0, rate=0.0, vol=1.0)
    c = ContractParams(strike=1.0, amort=5e-324, kind=OptionKind.PUT)
    want = _reference(mpmath, m, c, dps=400)
    got = {"premium": price(m, c).premium, "d_premium_dq": d_premium_dq(m, c)}
    g = greeks_report(m, c)
    got.update(delta=g.delta, gamma=g.gamma, vega=g.vega)
    with mpmath.workdps(400):
        for name, value in got.items():
            # delta, gamma and vega are subnormal: compare them to their last bit
            tol = WORST[name] if _normal(want[name]) else 5e-324 / abs(want[name])
            assert float(abs((value - want[name]) / want[name])) <= tol, (name, value)


def test_mixed_partial_where_the_boundary_derivative_overflows_matches_mpmath():
    # dS_bar/dq is -2.3e378, so statics_report refuses, but the mixed partial
    # (3.9e186) is a float and its own two views return it. 200 digits,
    # because gap = alpha_c - 1 is about 1.9e-124 and the radical form cancels
    mpmath = pytest.importorskip("mpmath")
    m = MarketParams(spot=7.81e154, rate=5.77e-144, vol=2.45e-10)
    c = ContractParams(strike=2.57e111, amort=2.54e-187, kind=OptionKind.CALL)
    with pytest.raises(ValidationError, match="a q-derivative"):
        statics_report(m, c)
    want = _reference(mpmath, m, c, dps=200)["d2_premium_dsigma_dq"]
    got = d2_premium_dsigma_dq(m, c)
    with mpmath.workdps(200):
        assert float(abs((got - want) / want)) <= WORST["d2_premium_dsigma_dq"], got
    f = mixed_partial_factors(m, c)
    assert all(map(math.isfinite, dataclasses.astuple(f))), f


def test_dalphabar_dsigma_where_its_plain_form_overflows_matches_mpmath():
    # sigma^2*(3r + 2q) overflows, and in the call sigma^5*alpha_bar too, so
    # the factor read -inf and nan; divided by sigma^2 first it is a float.
    # On the 366 such rows of 20,000 whole-range draws the worst error is 2.9e-16
    mpmath = pytest.importorskip("mpmath")
    rows = [
        (MarketParams(3.129713492313437e258, 2.218264720732688e-224, 1.1354746941044207e32),
         ContractParams(2.2956857803405493e-25, 2.94978110240562e252, OptionKind.PUT)),
        (MarketParams(5.269584867065855e-190, 3.360402703082976e-271, 4.387258512261813e58),
         ContractParams(2.2305433200680016e-178, 1.344542521137076e204, OptionKind.CALL)),
    ]
    for m, c in rows:
        got = mixed_partial_factors(m, c).dalphabar_dsigma
        assert statics_report(m, c).intermediates.dalphabar_dsigma == got
        with mpmath.workdps(60):
            r, sig, q = mpmath.mpf(m.rate), mpmath.mpf(m.vol), mpmath.mpf(c.amort)
            alpha_bar = mpmath.sqrt((r / sig**2 + 0.5) ** 2 + 2 * (r + q) / sig**2)
            want = -(2 * r**2 + sig**2 * (3 * r + 2 * q)) / (sig**5 * alpha_bar)
            assert float(abs((got - want) / want)) <= 1e-15, got
