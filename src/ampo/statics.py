"""Comparative statics of AmPO values in the amortization rate q.

The q-derivatives below are stated for the continuation region only
(call spot <= boundary, put spot >= boundary); outside it the functions
refuse with RegionError rather than silently returning the zero
q-derivative of the intrinsic value.

Notation used throughout: with A = (alpha_c - 1) S / (alpha_c K) and
B = (1 + alpha_p) S / (alpha_p K),

    dC0/dq =  C0/(sigma^2 alpha_bar) * log A
    dP0/dq = -P0/(sigma^2 alpha_bar) * log B

and the mixed partial d2V/(dsigma dq) is assembled from chain-rule
factors through (alpha, alpha_bar) plus the explicit sigma-dependence
of the prefactor 1/(sigma^2 alpha_bar):

    d2V/(dsigma dq) = f1*f2 + f3*f4 + explicit, with
    f1 = d/dalpha (dV/dq)        f2 = dalpha/dsigma
    f3 = d/dalpha_bar (dV/dq)    f4 = dalpha_bar/dsigma
    explicit = -(2/sigma) dV/dq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ContractParams, MarketParams, RegionError, intrinsic_value
from .pricing import _CALL, _EXERCISE_NOW, _ClosedForm, _closed_form, _evaluate, _out_of_range


@dataclass(frozen=True)
class MixedPartialFactors:
    """Chain-rule pieces of d2V/(dsigma dq), exposed for sign checks."""

    d_dq_premium_dalpha: float
    dalpha_dsigma: float
    d_dq_premium_dalphabar: float
    dalphabar_dsigma: float
    explicit_sigma_term: float


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    try:
        return -f.sign * strike / (m.vol**2 * f.gap**2 * f.alpha_bar)
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(m, "a q-derivative") from None


def statics_report(m: MarketParams, c: ContractParams) -> StaticsReport:
    """dV/dq, dS_bar/dq and d2V/(dsigma dq) from one closed-form evaluation.

    With s = +1 (call) / -1 (put), alpha the kind's own exponent and L the
    log-moneyness of pricing._ClosedForm: dV/dq = s*V*L/(sigma^2 alpha_bar),
    f3 = -(dV/dq)/alpha_bar and explicit = -(2/sigma) dV/dq.
    """
    f = _evaluate(m, c)
    if f.regime is _EXERCISE_NOW:
        raise RegionError(
            f"spot {m.spot} beyond {c.kind.value} boundary {f.boundary}: "
            "q-derivatives are defined on the continuation region only"
        )
    r, sig, q = m.rate, m.vol, c.amort
    v, s, a, ab, log_m = f.premium, f.sign, f.alpha, f.alpha_bar, f.log_m
    try:
        s2ab = sig**2 * ab
        dv_dq = s * v * log_m / s2ab
        # dalpha_bar/dsigma and the shared numerator 2r^2 + sigma^2 (3r + 2q)
        num = 2.0 * r**2 + sig**2 * (3.0 * r + 2.0 * q)
        f1 = v / s2ab * (log_m**2 + 1.0 / (a * f.gap))
        f2 = (2.0 * s * r - num / s2ab) / sig**3
        f3 = -dv_dq / ab
        f4 = -num / (sig**5 * ab)
        explicit = -2.0 / sig * dv_dq
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(m, "a q-derivative") from None
    return StaticsReport(
        dv_dq,
        _d_boundary_dq(f, m, c.strike),
        f1 * f2 + f3 * f4 + explicit,
        MixedPartialFactors(f1, f2, f3, f4, explicit),
    )


def d_premium_dq(m: MarketParams, c: ContractParams) -> float:
    """dV/dq = s*V*L/(sigma^2 alpha_bar) in the continuation region; <= 0 for both kinds."""
    return statics_report(m, c).d_premium_dq


def d_boundary_dq(m: MarketParams, c: ContractParams) -> float:
    """dS_bar/dq: -K/(sigma^2 (alpha_c-1)^2 alpha_bar) for calls,
    +K/(sigma^2 (1+alpha_p)^2 alpha_bar) for puts."""
    return _d_boundary_dq(_evaluate(m, c), m, c.strike)


def mixed_partial_factors(m: MarketParams, c: ContractParams) -> MixedPartialFactors:
    """Chain-rule factors of d2V/(dsigma dq) for the given contract."""
    return statics_report(m, c).intermediates


def d2_premium_dsigma_dq(m: MarketParams, c: ContractParams) -> float:
    return statics_report(m, c).d2_premium_dsigma_dq


def limit_suite(m: MarketParams, c: ContractParams) -> LimitReport:
    """Evaluate the premium at q = 1e-10 and q = 1e4 against its limits.

    See LimitReport for the small-q tolerance and the large-q envelope.
    """
    small = _closed_form(m, c.kind, c.strike, SMALL_Q).premium
    vanilla = _closed_form(m, c.kind, c.strike, 0.0).premium
    small_err = abs(small - vanilla) / max(abs(vanilla), 1e-300)
    f = _closed_form(m, c.kind, c.strike, LARGE_Q)
    intr = intrinsic_value(c.kind, m.spot, c.strike)
    gap = abs(f.premium - intr)
    bound = c.strike / (math.e * (f.gap if c.kind == _CALL else f.alpha))
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
