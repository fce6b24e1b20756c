"""Analytic Greeks of the AmPO closed forms, plus a dated Black-Scholes
reference pricer used by the effective-maturity comparisons.

The perpetual price has no explicit time dependence, so the explicit
Theta is identically zero; the holder's position still decays through
the amortizing notional, captured by the economic Theta -q*V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ContractParams, MarketParams, ValidationError
from .pricing import _EXERCISE_NOW, _ClosedForm, _evaluate, _out_of_range


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _norm_cdf(x: float) -> float:
    # erfc keeps the lower tail relative-accurate; 1 + erf(x) cancels there
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


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


def _vega(f: _ClosedForm, m: MarketParams, q: float) -> float:
    """2*V*L*n/(sigma^3*alpha_bar), n = (alpha_c - 2)r - q (call) or
    (2 + alpha_p)r + q (put), L the log-moneyness; zero once exercised."""
    if f.regime is _EXERCISE_NOW:
        return 0.0
    n = (f.alpha - 2.0 * f.sign) * m.rate - f.sign * q
    try:
        return 2.0 * f.premium * f.log_m * n / (m.vol**3 * f.alpha_bar)
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(m, "Vega") from None


def greeks_report(m: MarketParams, c: ContractParams) -> GreeksReport:
    """Delta, Gamma, both Thetas and Vega from one closed-form evaluation.

    The premium is a power law V = c*S^(s*alpha) in the spot, with s = +1
    (alpha = alpha_c) for a call and s = -1 (alpha = alpha_p) for a put,
    so each Greek is V times a factor; L is the log-moneyness of
    pricing._ClosedForm. Once exercised Delta = s and Gamma = Vega = 0.
    """
    f = _evaluate(m, c)
    q = c.amort
    return GreeksReport(_delta(f, m), _gamma(f, m), 0.0, -q * f.premium, _vega(f, m, q))


def delta(m: MarketParams, c: ContractParams) -> float:
    """dV/dS = s*alpha*V/S in continuation, s = +1 once exercised (call), -1 (put).

    Smooth pasting makes both branches meet at the boundary.
    """
    return greeks_report(m, c).delta


def gamma(m: MarketParams, c: ContractParams) -> float:
    """d2V/dS2 = alpha*(alpha - s)*V/S^2; zero in the exercise region (payoff is linear there)."""
    return greeks_report(m, c).gamma


def vega(m: MarketParams, c: ContractParams) -> float:
    """dV/dsigma per unit of sigma (see _vega); zero in the exercise region."""
    return greeks_report(m, c).vega


def theta_explicit(m: MarketParams, c: ContractParams) -> float:
    """dV/dt of the perpetual price: identically zero."""
    return 0.0


def theta_economic(m: MarketParams, c: ContractParams) -> float:
    """Position decay from amortization: -q * premium."""
    return -c.amort * _evaluate(m, c).premium


def dated_bs_call(m: MarketParams, strike: float, maturity: float) -> DatedGreeksReport:
    """European call under Black-Scholes with maturity T, zero dividends.

    The normal CDF goes through math.erfc, relative-accurate in both tails.
    """
    if maturity <= 0:
        raise ValidationError(f"maturity must be > 0, got {maturity}")
    if strike <= 0:
        raise ValidationError(f"strike must be > 0, got {strike}")
    return DatedGreeksReport(*_dated_terms(m, strike, maturity))


def _dated_terms(m: MarketParams, strike: float, t: float) -> tuple[float, ...]:
    """dated_bs_call's (premium, delta, gamma, theta, vega) for checked strike > 0 and t > 0."""
    s, k, r, sig = m.spot, strike, m.rate, m.vol
    sqt = math.sqrt(t)
    d1 = (math.log(s / k) + (r + 0.5 * sig**2) * t) / (sig * sqt)
    d2 = d1 - sig * sqt
    nd1, nd2 = _norm_cdf(d1), _norm_cdf(d2)
    disc_k = k * math.exp(-r * t)
    prem = s * nd1 - disc_k * nd2
    pdf1 = _norm_pdf(d1)
    theta = -s * pdf1 * sig / (2.0 * sqt) - r * disc_k * nd2
    return prem, nd1, pdf1 / (s * sig * sqt), theta, s * pdf1 * sqt
