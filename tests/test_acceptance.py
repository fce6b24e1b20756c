"""Acceptance checks, one test per numbered criterion.

Each test registers a PASS/FAIL line that is printed in the terminal
summary, then asserts the criterion. Criteria marked by a failing line
are genuinely unmet by the closed forms; they are asserted as stated,
not weakened.
"""

import dataclasses
import json
import math
import random
import time

from ampo import (
    ContractParams,
    LatticeConfig,
    MarketParams,
    OptionKind,
    StrategyKind,
    StrategySpec,
    compute_exponents,
    d2_premium_dsigma_dq,
    d_boundary_dq,
    d_premium_dq,
    delta,
    effective_notional_curve,
    exercise_boundary,
    gamma,
    intrinsic_value,
    lattice_price,
    limit_suite,
    optimize_q,
    pde_residual,
    positional_vega,
    price,
    ratio_study,
    theta_economic,
    to_equivalent_perpetual,
    vega,
)
from ampo.statics import LARGE_Q
from conftest import record_criterion, sample_set
from test_cli import run_cli

MARKET_A = MarketParams(spot=100.0, rate=0.05, vol=0.5)
CALL_A = ContractParams(strike=100.0, amort=0.1, kind=OptionKind.CALL)
PUT_A = ContractParams(strike=100.0, amort=0.1, kind=OptionKind.PUT)


def test_criterion_01_exponent_exactness():
    ex = compute_exponents(MARKET_A, 0.1)
    errs = (
        abs(ex.alpha_c - 1.6),
        abs(ex.alpha_p - 1.0),
        abs(ex.alpha_bar - 1.3),
    )
    ok = all(e < 1e-14 for e in errs)
    record_criterion(
        1, "exponents exact at (r=0.05, vol=0.5, q=0.1)", ok, f"max abs err {max(errs):.2e}"
    )


def test_criterion_02_clean_put_values():
    quote = price(MARKET_A, PUT_A)
    checks = (
        (quote.premium, 25.0),
        (quote.boundary, 50.0),
        (delta(MARKET_A, PUT_A), -0.25),
        (gamma(MARKET_A, PUT_A), 0.005),
        (theta_economic(MARKET_A, PUT_A), -2.5),
    )
    worst = max(abs(got - want) / abs(want) for got, want in checks)
    record_criterion(2, "clean put values to 1e-12 relative", worst < 1e-12, f"worst rel err {worst:.2e}")


def test_criterion_03_oracle_agreement():
    rng = random.Random(101)
    cfg = LatticeConfig(horizon=200.0, steps=4000)
    t0 = time.time()
    worst_p = worst_b = 0.0
    # the relative tolerance is meaningful only for premia that are not
    # a rounding error of the strike, hence the floor
    for _ in range(30):
        m, c = sample_set(rng, premium_floor=2.5)
        rep = lattice_price(to_equivalent_perpetual(c, m), m, cfg)
        bd = exercise_boundary(m, c)
        worst_p = max(worst_p, rep.rel_error)
        if math.isnan(rep.boundary_estimate):
            worst_b = math.inf
        else:
            worst_b = max(worst_b, abs(rep.boundary_estimate - bd) / bd)
    elapsed = time.time() - t0
    ok = worst_p < 0.005 and worst_b < 0.02 and elapsed < 60.0
    record_criterion(
        3,
        "lattice within 0.5% (price) / 2% (boundary) on 30 sets in < 60 s",
        ok,
        f"price {worst_p:.2e}, boundary {worst_b:.2e}, {elapsed:.1f} s",
    )


def test_criterion_04_pde_residual():
    rng = random.Random(103)
    worst = 0.0
    for _ in range(200):
        m, c = sample_set(rng)
        bd = exercise_boundary(m, c)
        if c.kind == OptionKind.CALL:
            spots = [rng.uniform(0.3 * bd, bd) for _ in range(20)]
        else:
            spots = [rng.uniform(bd, 1.6 * c.strike) for _ in range(20)]
        worst = max(worst, max(pde_residual(m, c, spots)))
    record_criterion(4, "ODE residual < 1e-8 on 200 sets x 20 spots", worst < 1e-8, f"worst {worst:.2e}")


def test_criterion_05_greek_consistency():
    from ampo import finite_difference

    rng = random.Random(107)
    worst = 0.0
    for _ in range(200):
        m, c = sample_set(rng, spot_margin=0.01)

        def prem_s(s):
            return price(dataclasses.replace(m, spot=s), c).premium

        def prem_v(v):
            return price(dataclasses.replace(m, vol=v), c).premium

        pairs = (
            (delta(m, c), finite_difference(prem_s, m.spot, 1, "central", 1e-4)),
            (gamma(m, c), finite_difference(prem_s, m.spot, 2, "central", 1e-4)),
            (vega(m, c), finite_difference(prem_v, m.vol, 1, "central", 1e-4)),
        )
        worst = max(worst, max(abs(a - f) / max(abs(a), 1e-12) for a, f in pairs))
    signs_ok = True
    for _ in range(10_000):
        m, c = sample_set(rng)
        d = delta(m, c)
        sign_ok = d > 0.0 if c.kind == OptionKind.CALL else d < 0.0
        signs_ok = signs_ok and sign_ok and gamma(m, c) >= 0.0 and vega(m, c) >= 0.0
    ok = worst < 1e-5 and signs_ok
    record_criterion(
        5, "Greeks match FD within 1e-5; signs hold on 1e4 sets", ok,
        f"worst FD rel err {worst:.2e}, signs {'ok' if signs_ok else 'violated'}",
    )


def test_criterion_06_comparative_statics():
    from ampo import finite_difference

    rng = random.Random(109)
    worst = 0.0
    for _ in range(200):
        m, c = sample_set(rng, spot_margin=0.01)

        def prem_q(q):
            return price(m, dataclasses.replace(c, amort=q)).premium

        def bd_q(q):
            return exercise_boundary(m, dataclasses.replace(c, amort=q))

        a1 = d_premium_dq(m, c)
        a2 = d_boundary_dq(m, c)
        a3 = d2_premium_dsigma_dq(m, c)
        f1 = finite_difference(prem_q, c.amort, 1, "central", 1e-5)
        f2 = finite_difference(bd_q, c.amort, 1, "central", 1e-5)
        h = 1e-4 * m.vol
        k = 1e-5 * c.amort

        def prem(sig, q):
            return price(
                dataclasses.replace(m, vol=sig), dataclasses.replace(c, amort=q)
            ).premium

        f3 = (
            prem(m.vol + h, c.amort + k)
            - prem(m.vol + h, c.amort - k)
            - prem(m.vol - h, c.amort + k)
            + prem(m.vol - h, c.amort - k)
        ) / (4.0 * h * k)
        worst = max(
            worst,
            abs(a1 - f1) / max(abs(a1), 1e-12),
            abs(a2 - f2) / max(abs(a2), 1e-12),
            abs(a3 - f3) / max(abs(a3), 1e-12),
        )
    signs_ok = True
    for _ in range(10_000):
        m, c = sample_set(rng)
        b_ok = (
            d_boundary_dq(m, c) <= 0.0
            if c.kind == OptionKind.CALL
            else d_boundary_dq(m, c) >= 0.0
        )
        signs_ok = (
            signs_ok
            and d_premium_dq(m, c) <= 0.0
            and b_ok
            and d2_premium_dsigma_dq(m, c) <= 1e-12
        )
    monotone_ok = True
    qs = [0.01 + (2.0 - 0.01) * i / 49 for i in range(50)]
    for kind in OptionKind:
        prem = []
        veg = []
        for q in qs:
            c = ContractParams(strike=100.0, amort=q, kind=kind)
            prem.append(price(MARKET_A, c).premium)
            veg.append(vega(MARKET_A, c))
        monotone_ok = (
            monotone_ok
            and all(b < a for a, b in zip(prem, prem[1:]))
            and all(b < a for a, b in zip(veg, veg[1:]))
        )
    ok = worst < 1e-5 and signs_ok and monotone_ok
    record_criterion(
        6,
        "q-derivatives match FD within 1e-5; signs and monotone scans hold",
        ok,
        f"worst FD rel err {worst:.2e}, signs {'ok' if signs_ok else 'violated'}, "
        f"monotone {'ok' if monotone_ok else 'violated'}",
    )


def atm_rate_error(premium: float, strike: float, alpha: float) -> float:
    """|R - 1| * alpha for the at-the-money large-q rate R = premium*e*alpha/K.

    The exact gap gives log R = sum_n (+-1/alpha)^n / (n(n+1)), + for a
    call (alpha = alpha_c) and - for a put (alpha = alpha_p), so R - 1 is
    about +-1/(2 alpha): a correct premium scores about 0.5, and a score
    above 1 flags it.
    """
    return abs(premium * math.e * alpha / strike - 1.0) * alpha


def premium_from_exponent(kind: OptionKind, spot: float, strike: float, alpha: float) -> float:
    """The continuation premium K/gap * (gap*S/(alpha*K))^(s*alpha), gap = alpha - s,
    s = +1 for a call and -1 for a put, at any given exponent alpha."""
    sign = 1.0 if kind == OptionKind.CALL else -1.0
    gap = alpha - sign
    return strike / gap * math.exp(sign * alpha * math.log(gap * spot / (alpha * strike)))


def test_criterion_07_limits():
    ex = compute_exponents(MARKET_A, LARGE_Q)
    small_ok = True
    large_ok = True
    worst_small = 0.0
    worst_rate = 0.0
    for c, alpha in ((CALL_A, ex.alpha_c), (PUT_A, ex.alpha_p)):
        rep = limit_suite(MARKET_A, c)
        small_ok = small_ok and rep.small_q_ok
        large_ok = large_ok and rep.large_q_ok
        worst_small = max(worst_small, rep.small_q_rel_err)
        worst_rate = max(worst_rate, atm_rate_error(rep.large_q_abs_gap, c.strike, alpha))
    ok = small_ok and large_ok and worst_rate <= 1.0
    record_criterion(
        7,
        "q->0 matches vanilla perpetual (1e-6); q=1e4 ATM premium decays as "
        "K/(e*alpha), |premium*e*alpha/K - 1| <= 1/alpha",
        ok,
        f"small-q rel err {worst_small:.2e}; large-q within envelope "
        f"{'yes' if large_ok else 'no'}; worst |R-1|*alpha {worst_rate:.3f} (limit 1)",
    )


def test_criterion_07_rate_check_rejects_wrong_premia():
    ex = compute_exponents(MARKET_A, LARGE_Q)
    for c, alpha in ((CALL_A, ex.alpha_c), (PUT_A, ex.alpha_p)):
        true = limit_suite(MARKET_A, c).premium_large_q
        assert atm_rate_error(true, c.strike, alpha) <= 1.0
        assert atm_rate_error(true * 1.01, c.strike, alpha) > 1.0
        assert atm_rate_error(true * 0.99, c.strike, alpha) > 1.0
        # a premium that has already collapsed to intrinsic (0 at the money)
        assert atm_rate_error(0.0, c.strike, alpha) > 1.0
    # each kind priced with the other kind's exponent
    wrong = premium_from_exponent(OptionKind.CALL, 100.0, 100.0, ex.alpha_p)
    assert atm_rate_error(wrong, 100.0, ex.alpha_c) > 1.0
    wrong = premium_from_exponent(OptionKind.PUT, 100.0, 100.0, ex.alpha_c)
    assert atm_rate_error(wrong, 100.0, ex.alpha_p) > 1.0
    # the exponent of q/2, off by a factor of about sqrt(2)
    half = compute_exponents(MARKET_A, LARGE_Q / 2.0)
    wrong = premium_from_exponent(OptionKind.PUT, 100.0, 100.0, half.alpha_p)
    assert atm_rate_error(wrong, 100.0, ex.alpha_p) > 1.0


def test_criterion_08_example_1():
    qs = [0.05 + 0.95 * i / 19 for i in range(20)]
    curve = effective_notional_curve(MARKET_A, 100.0, qs)
    ts = [r.effective_maturity for r in curve]
    ns = [r.effective_notional for r in curve]
    ok = (
        all(b < a for a, b in zip(ts, ts[1:]))
        and all(b < a for a, b in zip(ns, ns[1:]))
        and ns[-1] > 0.65
    )
    record_criterion(
        8, "effective maturity/notional decreasing; notional(q=1) > 0.65", ok,
        f"notional(1) = {ns[-1]:.4f}",
    )


def test_criterion_09_example_2():
    qs = [0.05 + 0.95 * i / 19 for i in range(20)]
    pts = ratio_study(MARKET_A, 100.0, qs)
    grs = [p.gamma_ratio for p in pts]
    ok = (
        all(b > a for a, b in zip(grs, grs[1:]))
        and grs[-1] < 0.80
        and pts[-1].theta_ratio < 0.75
    )
    record_criterion(
        9, "gamma ratio increasing, < 0.80 at q=1; theta ratio < 0.75", ok,
        f"gamma {grs[-1]:.4f}, theta {pts[-1].theta_ratio:.4f}",
    )


def test_criterion_10_example_3():
    put_spec = StrategySpec(kind=StrategyKind.PUT_ONLY, budget=100.0)
    res = optimize_q(MARKET_A, 100.0, put_spec, (0.001, 1.0))
    q_ok = abs(res.q_star - 0.1426) <= 0.005 and not res.boundary_maximum
    qs = [0.01 + 0.99 * i / 99 for i in range(100)]
    mono_ok = True
    for kind in (StrategyKind.CALL_ONLY, StrategyKind.STRADDLE):
        spec = StrategySpec(kind=kind, budget=100.0)
        vs = [positional_vega(MARKET_A, 100.0, spec, q) for q in qs]
        mono_ok = mono_ok and all(b > a for a, b in zip(vs, vs[1:]))
    vs = [positional_vega(MARKET_A, 100.0, put_spec, q) for q in qs]
    diffs = [b - a for a, b in zip(vs, vs[1:])]
    unimodal = sum(1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)) == 1
    ok = q_ok and mono_ok and unimodal
    record_criterion(
        10, "put optimum q* = 0.1426 +- 0.005; call/straddle increasing; put unimodal",
        ok, f"q* = {res.q_star:.6f}",
    )


def test_criterion_11_smooth_pasting():
    rng = random.Random(113)
    worst_v = worst_d = 0.0
    for _ in range(100):
        m, c = sample_set(rng)
        bd = exercise_boundary(m, c)
        mb = dataclasses.replace(m, spot=bd)
        worst_v = max(
            worst_v, abs(price(mb, c).premium - intrinsic_value(c.kind, bd, c.strike))
        )
        target = 1.0 if c.kind == OptionKind.CALL else -1.0
        worst_d = max(worst_d, abs(delta(mb, c) - target))
    ok = worst_v < 1e-12 and worst_d < 1e-12
    record_criterion(
        11, "value matching and smooth pasting at the boundary (1e-12)", ok,
        f"value {worst_v:.2e}, delta {worst_d:.2e}",
    )


def test_criterion_12_cli_golden():
    stable = True
    for ex, extra in (("1", ["--q-steps", "8"]), ("2", ["--q-steps", "8"]), ("3", ["--q-steps", "20"])):
        a = run_cli("examples", ex, *extra, "--output", "csv")
        b = run_cli("examples", ex, *extra, "--output", "csv")
        stable = stable and a.returncode == 0 and a.stdout == b.stdout
    first = run_cli(
        "price", "--kind", "put", "--spot", "100", "--strike", "100",
        "--rate", "0.05", "--vol", "0.5", "--amort", "0.1", "--output", "json",
    )
    out = json.loads(first.stdout)
    second = run_cli(
        "price",
        "--kind", out["kind"],
        "--spot", repr(out["spot"]),
        "--strike", repr(out["strike"]),
        "--rate", repr(out["rate"]),
        "--vol", repr(out["vol"]),
        "--amort", repr(out["amort"]),
        "--output", "json",
    )
    round_trip = first.stdout == second.stdout
    ok = stable and round_trip
    record_criterion(
        12, "CSV outputs byte-identical across runs; JSON round-trip identity", ok,
        f"csv stable {stable}, json round-trip {round_trip}",
    )
