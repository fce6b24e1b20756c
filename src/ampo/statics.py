"""Comparative statics of AmPO values in the amortization rate q.

The premium's q-derivatives are stated for the continuation region only
(call spot <= boundary, put spot >= boundary); outside it they refuse
with RegionError rather than silently returning the zero q-derivative
of the intrinsic value. The boundary does not depend on the spot, so
d_boundary_dq is defined at every spot.

Notation used throughout: with A = (alpha_c - 1) S / (alpha_c K) and
B = (1 + alpha_p) S / (alpha_p K),

    dC0/dq =  C0/(sigma^2 alpha_bar) * log A
    dP0/dq = -P0/(sigma^2 alpha_bar) * log B

The mixed partial d2V/(dsigma dq) has chain-rule factors through
(alpha, alpha_bar) plus the explicit sigma-dependence of the prefactor
1/(sigma^2 alpha_bar):

    d2V/(dsigma dq) = f1*f2 + f3*f4 + explicit, with
    f1 = d/dalpha (dV/dq)        f2 = dalpha/dsigma = -alpha*gap/(sigma alpha_bar)
    f3 = d/dalpha_bar (dV/dq)    f4 = dalpha_bar/dsigma
    explicit = -(2/sigma) dV/dq.

f3*f4 and explicit cancel at small vol, so the sum is taken as f1*f2 + g,
g = -(dV/dq)(3r + 2q + sigma^2/2)/(sigma * sigma^2 alpha_bar * alpha_bar),
which equals f3*f4 + explicit exactly: with f4 = -(2r^2 + sigma^2 (3r + 2q))
/(sigma^5 alpha_bar), 2r^2 + sigma^2 (3r + 2q) - 2 sigma^4 alpha_bar^2 =
-sigma^2 (3r + 2q + sigma^2/2).

Where the sign of the mixed partial holds: with L the log-moneyness,
u = -s*L >= 0 how far the spot sits inside the continuation region, and
c = (3r + 2q + sigma^2/2)/(sigma^2 alpha_bar) > 0, the sum is

    d2V/(dsigma dq) = -V/(sigma^3 alpha_bar^2) * B(u),  B(u) = alpha*gap*u^2 - c*u + 1.

If c^2 <= 4 alpha*gap, B has no two distinct roots and d2V/(dsigma dq)
<= 0 at every spot (so on every conftest-box draw tried). Otherwise it is
> 0 exactly for u strictly between the roots
(c -+ sqrt(c^2 - 4 alpha*gap))/(2 alpha*gap), and <= 0 elsewhere: over
the full domain it is positive on about 22% of continuation draws. The
factor signs cannot settle this, since f1*f2 < 0 and f3*f4 <= 0 but
explicit >= 0.
"""

from __future__ import annotations

import math

from .params import ContractParams, MarketParams, RegionError, _intrinsic, _record
from .pricing import _CALL, _EXERCISE_NOW, _INF, _ClosedForm, _closed_form, _evaluate, _out_of_range


@_record
class MixedPartialFactors:
    """Chain-rule pieces of d2V/(dsigma dq), exposed for sign checks.

    d2V/(dsigma dq) is d_dq_premium_dalpha * dalpha_dsigma plus a term equal
    to d_dq_premium_dalphabar * dalphabar_dsigma + explicit_sigma_term,
    computed without their cancelling difference (see the module notes).
    """

    d_dq_premium_dalpha: float
    dalpha_dsigma: float
    d_dq_premium_dalphabar: float
    dalphabar_dsigma: float
    explicit_sigma_term: float


@_record
class StaticsReport:
    """Sensitivities to the amortization rate q (per year), continuation region only.

    ``d_premium_dq`` is dV/dq (premium per unit of current notional, per
    unit of q), ``d_boundary_dq`` the boundary's dS_bar/dq (spot units per
    unit of q), ``d2_premium_dsigma_dq`` the mixed partial d2V/(dsigma dq)
    per unit of sigma and of q, and ``intermediates`` its chain-rule factors.
    """

    d_premium_dq: float
    d_boundary_dq: float
    d2_premium_dsigma_dq: float
    intermediates: MixedPartialFactors


@_record
class LimitReport:
    """Small-q and large-q behavior of the premium.

    Small q: the premium at q = 1e-10 should match the q = 0 vanilla
    perpetual American closed form (same power-law family, exponents
    evaluated at q = 0) within 1e-6 relative.
    Large q: the premium at q = 1e4 tends to the intrinsic value, but
    only at the rate K/(e*alpha) with alpha ~ sqrt(2q)/sigma. The gap
    |premium - intrinsic| peaks at S = K (smooth pasting plus convexity),
    where it is K/(alpha_c-1) * (1-1/alpha_c)^alpha_c for a call and
    K/(1+alpha_p) * (alpha_p/(1+alpha_p))^alpha_p for a put. Since
    (1-1/alpha)^alpha <= 1/e, the gap at every spot lies within the
    envelope large_q_bound = K/(e*(alpha_c-1)) for calls and
    K/(e*alpha_p) for puts, alpha evaluated at q = 1e4; at the money the
    envelope is tight to about 1/(2*alpha).
    """

    premium_small_q: float
    vanilla_premium: float
    small_q_rel_err: float
    small_q_ok: bool
    premium_large_q: float
    intrinsic: float
    large_q_abs_gap: float
    large_q_bound: float
    large_q_ok: bool


SMALL_Q = 1e-10
LARGE_Q = 1e4
SMALL_Q_RTOL = 1e-6


def _d_boundary_dq(f: _ClosedForm, m: MarketParams, strike: float) -> float:
    """-s*K/(sigma^2 gap^2 alpha_bar); ValidationError where that is not a finite float."""
    try:
        dq = -f.sign * strike / (m.vol**2 * f.gap**2 * f.alpha_bar)
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(m, "a q-derivative") from None
    if not abs(dq) < math.inf:
        raise _out_of_range(m, "a q-derivative")
    return dq


def _d_premium_dq(f: _ClosedForm, m: MarketParams, c: ContractParams) -> float:
    """dV/dq = s*V*L/(sigma^2 alpha_bar); RegionError once exercised, and
    ValidationError where dV/dq is not a finite float.

    Where the exponents were solved sigma^2 is a float and alpha_bar >= 1/2
    (>= 3/2 where sigma^2 is the smallest subnormal), so the product is not
    0; the quotient can still overflow.
    """
    alpha_bar, sign, _, _, boundary, regime, premium, log_m, _ = f
    if regime is _EXERCISE_NOW:
        raise RegionError(
            f"spot {m.spot} beyond {c.kind.value} boundary {boundary}: "
            "q-derivatives are defined on the continuation region only"
        )
    dq = sign * premium * log_m / (m.vol**2 * alpha_bar)
    if not abs(dq) < math.inf:
        raise _out_of_range(m, "a q-derivative")
    return dq


def _mixed_partial(m: MarketParams, c: ContractParams) -> tuple:
    """(closed form, dV/dq, d2V/(dsigma dq), MixedPartialFactors) from one evaluation.

    With s = +1 (call) / -1 (put), alpha the kind's own exponent and L the
    log-moneyness of pricing._ClosedForm: dV/dq = s*V*L/(sigma^2 alpha_bar),
    f3 = -(dV/dq)/alpha_bar and explicit = -(2/sigma) dV/dq. The mixed
    partial is f1*f2 + g (see the module notes); ValidationError where it
    is not a finite float. The boundary's derivative is not needed, so
    its overflow refuses only the calls that return it.
    """
    f = _evaluate(m, c)
    dv_dq = _d_premium_dq(f, m, c)
    ab, _, a, gap, _, _, v, log_m, _ = f
    r, sig, q = m.rate, m.vol, c.amort
    try:
        s2ab = sig**2 * ab
        u = 3.0 * r + 2.0 * q
        f1 = v / s2ab * (log_m**2 + 1.0 / (a * gap))
        f2 = -a * gap / (sig * ab)
        f3 = -dv_dq / ab
        f4 = -(2.0 * r**2 + sig**2 * u) / (sig**5 * ab)
        if not abs(f4) < _INF:  # sigma^2*u or sigma^5*alpha_bar overflowed: divide by sigma^2 first
            rs = r / sig
            f4 = -(2.0 * rs * rs + u) / (sig**3 * ab)
        explicit = -2.0 / sig * dv_dq
        # f3*f4 + explicit without their cancelling difference (module notes)
        g = -dv_dq * (u + 0.5 * sig**2) / (sig * s2ab * ab)
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(m, "a q-derivative") from None
    mixed = f1 * f2 + g
    if not abs(mixed) < math.inf:
        raise _out_of_range(m, "a q-derivative")
    return f, dv_dq, mixed, MixedPartialFactors(f1, f2, f3, f4, explicit)


def _finite(m: MarketParams, factors: MixedPartialFactors) -> MixedPartialFactors:
    """factors; ValidationError where one is not a finite float.

    Wherever the mixed partial f1*f2 + g and dV/dq are finite, so are f1,
    f2 and f3 = -(dV/dq)/alpha_bar, so only f4 and the explicit term
    -(2/sigma) dV/dq are checked.
    """
    if not (abs(factors.dalphabar_dsigma) < _INF and abs(factors.explicit_sigma_term) < _INF):
        raise _out_of_range(m, "a chain-rule factor of d2V/(dsigma dq)")
    return factors


def statics_report(m: MarketParams, c: ContractParams) -> StaticsReport:
    """dV/dq, dS_bar/dq and d2V/(dsigma dq) from one closed-form evaluation.

    dV/dq and the mixed partial are computed and checked first (see
    _mixed_partial), then dS_bar/dq, then the chain-rule factors.
    """
    f, dv_dq, mixed, factors = _mixed_partial(m, c)
    return StaticsReport(dv_dq, _d_boundary_dq(f, m, c.strike), mixed, _finite(m, factors))


def d_premium_dq(m: MarketParams, c: ContractParams) -> float:
    """dV/dq = s*V*L/(sigma^2 alpha_bar) in the continuation region; <= 0 for both kinds.

    Its own value wherever it is a float, even where the mixed partial
    of statics_report over- or underflows.
    """
    return _d_premium_dq(_evaluate(m, c), m, c)


def d_boundary_dq(m: MarketParams, c: ContractParams) -> float:
    """dS_bar/dq: -K/(sigma^2 (alpha_c-1)^2 alpha_bar) for calls,
    +K/(sigma^2 (1+alpha_p)^2 alpha_bar) for puts."""
    return _d_boundary_dq(_evaluate(m, c), m, c.strike)


def mixed_partial_factors(m: MarketParams, c: ContractParams) -> MixedPartialFactors:
    """Chain-rule factors of d2V/(dsigma dq) for the given contract; each is a
    finite float, or the call raises ValidationError."""
    return _finite(m, _mixed_partial(m, c)[3])


def d2_premium_dsigma_dq(m: MarketParams, c: ContractParams) -> float:
    return _mixed_partial(m, c)[2]


def limit_suite(m: MarketParams, c: ContractParams) -> LimitReport:
    """Evaluate the premium at q = 1e-10 and q = 1e4 against its limits.

    See LimitReport for the small-q tolerance and the large-q envelope.
    ValidationError where the large-q bound is not a finite float.
    """
    small = _closed_form(m, c.kind, c.strike, SMALL_Q).premium
    vanilla = _closed_form(m, c.kind, c.strike, 0.0).premium
    small_err = abs(small - vanilla) / max(abs(vanilla), 1e-300)
    f = _closed_form(m, c.kind, c.strike, LARGE_Q)
    intr = _intrinsic(c.kind, m.spot, c.strike)
    gap = abs(f.premium - intr)
    bound = c.strike / (math.e * (f.gap if c.kind == _CALL else f.alpha))
    # a put's alpha_p at q = 1e4 is about 2(2r+q)/sigma^2 at a vol far above
    # sqrt(q), so K/(e*alpha_p) can pass the float range; the premium falls
    # with q, so small <= vanilla and the relative error is at most 1
    if not bound < _INF:
        raise _out_of_range(m, "the large-q bound")
    return LimitReport(
        premium_small_q=small,
        vanilla_premium=vanilla,
        small_q_rel_err=small_err,
        small_q_ok=small_err < SMALL_Q_RTOL,
        premium_large_q=f.premium,
        intrinsic=intr,
        large_q_abs_gap=gap,
        large_q_bound=bound,
        large_q_ok=gap <= bound,
    )
