"""Analytic Greeks of the AmPO closed forms, plus a dated Black-Scholes
reference pricer used by the effective-maturity comparisons.

The perpetual price has no explicit time dependence, so the explicit
Theta is identically zero; the holder's position still decays through
the amortizing notional, captured by the economic Theta -q*V.

The dated call is evaluated through _dated_call(m, strike), which hoists
the terms that depend only on the market and the strike and evaluates
each distinct maturity once per evaluator: a grid's effective-maturity
solves share one evaluator, so the bracket ends and first Newton point
that every q's solve asks for are computed once per grid.
"""

from __future__ import annotations

import math

from .params import ContractParams, MarketParams, ValidationError, _check_strike, _record, _require_positive
from .pricing import _EXERCISE_NOW, _ClosedForm, _evaluate, _out_of_range


@_record
class GreeksReport:
    """Sensitivities of the premium (per unit of current notional).

    ``delta`` is dV/dS and ``gamma`` d2V/dS2; ``theta_explicit`` is dV/dt
    (zero for the perpetual price) and ``theta_economic`` the decay -q*V,
    both per year; ``vega`` is dV/dsigma per unit of sigma.
    """

    delta: float
    gamma: float
    theta_explicit: float
    theta_economic: float
    vega: float


@_record
class DatedGreeksReport:
    """Black-Scholes European call with a fixed maturity, per unit notional.

    ``premium`` and its ``delta`` (dC/dS) and ``gamma`` (d2C/dS2);
    ``theta`` is dC/dt in calendar time, per year; ``vega`` is dC/dsigma
    per unit of sigma.
    """

    premium: float
    delta: float
    gamma: float
    theta: float
    vega: float


def _delta(f: _ClosedForm, m: MarketParams) -> float:
    """s*alpha*V/S; s once exercised (smooth pasting makes both branches meet)."""
    if f.regime is _EXERCISE_NOW:
        return f.sign
    return f.sign * f.alpha * f.premium / m.spot


def _gamma(f: _ClosedForm, m: MarketParams) -> float:
    """alpha*(alpha - s)*V/S^2, divided by S twice so S^2 cannot overflow; zero once
    exercised. ValidationError where alpha*(alpha - s) overflows."""
    if f.regime is _EXERCISE_NOW:
        return 0.0
    gamma = f.alpha * f.gap * (f.premium / m.spot) / m.spot
    if not gamma < math.inf:
        raise _out_of_range(m, "Gamma")
    return gamma


def _vega(f: _ClosedForm, m: MarketParams) -> float:
    """The closed form's Vega, zero once exercised; ValidationError where it
    is not a finite float."""
    vega = f.vega
    if not abs(vega) < math.inf:
        raise _out_of_range(m, "Vega")
    return vega


def greeks_report(m: MarketParams, c: ContractParams) -> GreeksReport:
    """Delta, Gamma, both Thetas and Vega from one closed-form evaluation.

    The premium is a power law V = c*S^(s*alpha) in the spot, with s = +1
    (alpha = alpha_c) for a call and s = -1 (alpha = alpha_p) for a put,
    so each Greek is V times a factor; L is the log-moneyness of
    pricing._ClosedForm. Once exercised Delta = s and Gamma = Vega = 0.
    """
    f = _evaluate(m, c)
    return GreeksReport(_delta(f, m), _gamma(f, m), 0.0, _theta_economic(f, c), _vega(f, m))


def delta(m: MarketParams, c: ContractParams) -> float:
    """dV/dS = s*alpha*V/S in continuation, s = +1 once exercised (call), -1 (put).

    Smooth pasting makes both branches meet at the boundary.
    """
    return _delta(_evaluate(m, c), m)


def gamma(m: MarketParams, c: ContractParams) -> float:
    """d2V/dS2 = alpha*(alpha - s)*V/S^2; zero in the exercise region (payoff is linear there)."""
    return _gamma(_evaluate(m, c), m)


def vega(m: MarketParams, c: ContractParams) -> float:
    """dV/dsigma per unit of sigma (see _vega); zero in the exercise region."""
    return _vega(_evaluate(m, c), m)


def theta_economic(m: MarketParams, c: ContractParams) -> float:
    """Position decay from amortization: -q * premium."""
    return _theta_economic(_evaluate(m, c), c)


def _theta_economic(f: _ClosedForm, c: ContractParams) -> float:
    """-q*V; ValidationError where that product overflows a float."""
    theta = -c.amort * f.premium
    if not theta > -math.inf:
        raise ValidationError(
            f"amort {c.amort!r} out of range at premium {f.premium!r}: "
            "the economic Theta -amort*premium overflows a float"
        )
    return theta


def dated_bs_call(m: MarketParams, strike: float, maturity: float) -> DatedGreeksReport:
    """European call under Black-Scholes with maturity T, zero dividends.

    The normal CDF goes through math.erfc, relative-accurate in both tails.
    ValidationError names the dated call where a field is not a finite
    float (at a vol whose sigma^2 overflows, every field is nan).
    """
    (maturity,) = _require_positive(("maturity", maturity))
    strike = _check_strike(strike)
    terms = _dated_call(m, strike)(maturity)
    for name, value in zip(DatedGreeksReport.__slots__, terms):
        if not abs(value) < math.inf:
            raise _dated_out_of_range(m, strike, maturity, f"its {name} is {value!r}")
    return DatedGreeksReport(*terms)


_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _dated_out_of_range(m: MarketParams, strike: float, t: float, why: str) -> ValidationError:
    """The error for a dated call that leaves the float range, and `why`."""
    return ValidationError(
        f"dated call at spot {m.spot!r}, strike {strike!r}, rate {m.rate!r}, vol {m.vol!r} "
        f"and maturity {t!r} out of range: {why}"
    )


def _dated_call(m: MarketParams, strike: float):
    """t -> dated_bs_call's (premium, delta, gamma, theta, vega) at a checked
    strike > 0, for t > 0.

    The terms that depend on the market and the strike alone are computed
    once, and each distinct t once: its terms are kept in a dict local to
    the evaluator, dropped with it. Every operation is the one-shot
    formula's, in its order, so each float has the same bits whichever
    evaluator computes it. Where S/K underflows or overflows, the
    log-moneyness is log S - log K; where the per-t arithmetic raises
    (sigma*sqrt(t) underflowing to 0), ValidationError names the dated call.
    """
    s, k, r, sig = m.spot, strike, m.rate, m.vol
    log_m = math.log(s / k) if 0.0 < s / k < math.inf else math.log(s) - math.log(k)
    try:
        drift = r + 0.5 * sig**2
    except OverflowError:
        # every field is then nan, which dated_bs_call refuses; the
        # effective-maturity solve never sees it, as _exponents refuses the vol
        drift = math.nan
    s_sig, held = s * sig, {}

    def at(t: float) -> tuple[float, float, float, float, float]:
        terms = held.get(t)
        if terms is not None:
            return terms
        try:
            sqt = math.sqrt(t)
            sig_sqt = sig * sqt
            d1 = (log_m + drift * t) / sig_sqt
            d2 = d1 - sig_sqt
            # erfc keeps the lower tail relative-accurate; 1 + erf(x) cancels there
            nd1 = 0.5 * math.erfc(-d1 / _SQRT2)
            nd2 = 0.5 * math.erfc(-d2 / _SQRT2)
            disc_k = k * math.exp(-r * t)
            prem = s * nd1 - disc_k * nd2
            pdf1 = math.exp(-0.5 * d1 * d1) / _SQRT_2PI
            theta = -s * pdf1 * sig / (2.0 * sqt) - r * disc_k * nd2
            terms = prem, nd1, pdf1 / (s_sig * sqt), theta, s * pdf1 * sqt
        except ArithmeticError:
            raise _dated_out_of_range(m, k, t, "its terms overflow or underflow a float") from None
        held[t] = terms
        return terms

    return at
