"""Closed-form valuation of amortizing perpetual options (AmPOs).

An AmPO is a perpetual American option whose claimable notional decays
deterministically at a constant amortization rate q, so N_t = N0*e^{-q t}.
Per unit of current notional the contract behaves like a dividend-paying
perpetual American option, and premium, exercise boundary and regime all
admit power-law closed forms in the spot.

Conventions: all rates and the volatility are annualized, times are in
years, and premia are per unit of current notional.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .params import (
    AmortizationSchedule,
    ContractParams,
    EquivalentPerpetual,
    Exponents,
    MarketParams,
    OptionKind,
    Quote,
    Regime,
    ValidationError,
    _require_finite,
    intrinsic_value,
)


# enum members bound once: a class attribute lookup costs more than a global
_CALL = OptionKind.CALL
_EXERCISE_NOW = Regime.EXERCISE_NOW
_CONTINUATION = Regime.CONTINUATION
_INF = math.inf


def compute_exponents(m: MarketParams, q: float) -> Exponents:
    """Power-law exponents (alpha_c, alpha_p, alpha_bar) for amortization rate q.

    alpha_c = sqrt((r/sigma^2 + 1/2)^2 + 2(r+q)/sigma^2) - r/sigma^2 + 1/2
    alpha_p = sqrt((r/sigma^2 + 1/2)^2 + 2(r+q)/sigma^2) + r/sigma^2 - 1/2

    alpha_c and -alpha_p are the roots of
    (1/2)sigma^2 b^2 + (r - sigma^2/2) b - (2r+q) = 0, so their product is
    alpha_c*alpha_p = 2(2r+q)/sigma^2 (Vieta). The exponent whose radical
    form adds like-signed terms is taken from the radical and the other
    from the product: r/sigma^2 - 1/2 cancels against the radical in
    alpha_c when r >= sigma^2/2 (small vol) and in alpha_p otherwise.

    q = 0 is accepted here (it is needed by the limit diagnostics) even
    though pricing itself requires q > 0; the q = r = 0 case degenerates
    to alpha_c = 1, alpha_p = 0 and is not valid for pricing.
    The solve of the last _evaluate is reused when m and q are its objects.
    """
    last_m, _, last_q, ex, _ = _last
    if m is last_m and q is last_q:
        return Exponents(*ex)
    return Exponents(*_exponents(m, q))


def _exponents(m: MarketParams, q: float) -> tuple[float, float, float]:
    """compute_exponents as a plain (alpha_c, alpha_p, alpha_bar) tuple."""
    if not 0.0 <= q < _INF:
        _require_finite("amort", q)
        raise ValidationError(f"amort must be >= 0, got {q}")
    try:
        s2 = m.vol**2
        x = m.rate / s2
        radical = math.sqrt((x + 0.5) ** 2 + 2.0 * (m.rate + q) / s2)
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(m, "the exponent solve") from None
    product = 2.0 * (2.0 * m.rate + q) / s2
    if x >= 0.5:
        alpha_p = radical + x - 0.5
        alpha_c = product / alpha_p
    else:
        alpha_c = radical - x + 0.5
        alpha_p = product / alpha_c
    alpha_bar = 0.5 * (alpha_c + alpha_p)
    # both exponents are >= 0, so their mean is finite iff both are
    if not alpha_bar < _INF:
        raise _out_of_range(m, "the exponent solve")
    return alpha_c, alpha_p, alpha_bar


def _out_of_range(m: MarketParams, what: str) -> ValidationError:
    """The error for a vol at which `what` overflows or underflows a float."""
    return ValidationError(
        f"vol {m.vol!r} out of range at rate {m.rate!r}: {what} overflows or underflows a float"
    )


class _ClosedForm(NamedTuple):
    """One evaluation of the closed form; every Greek and q-derivative is
    the premium times a factor built from (alpha, alpha_bar, log_m).

    With sign s = +1 for a call and -1 for a put and alpha the kind's own
    exponent (alpha_c or alpha_p), the continuation premium is the power
    law V = K/gap * exp(s*alpha*L), where gap = alpha - s and L = log_m is
    the log-moneyness log(gap*S/(alpha K)); L = 0 on the boundary.
    """

    alpha_bar: float
    sign: float
    alpha: float
    gap: float
    boundary: float
    regime: Regime
    premium: float
    log_m: float


def _kind_sign(kind: OptionKind, alpha: float, gap: float) -> float:
    """Sign s of the kind, after checking gap = alpha_c - 1 > 0 (call) or alpha_p > 0 (put)."""
    if kind == _CALL:
        sign, name, value = 1.0, "alpha_c - 1", gap
    else:
        sign, name, value = -1.0, "alpha_p", alpha
    if not value > 0.0:
        raise ValidationError(
            f"{kind.value} closed form undefined: {name} = {value} <= 0 "
            "(rate + amort is 0 or too small to resolve)"
        )
    return sign


def _log_moneyness(spot: float, strike: float, alpha: float, gap: float) -> float:
    return math.log(gap * spot / (alpha * strike))


def _power_law(sign: float, strike: float, alpha: float, gap: float, log_m: float) -> float:
    return strike / gap * math.exp(sign * alpha * log_m)


def _closed_form(m: MarketParams, kind: OptionKind, strike: float, q: float, ex=None) -> _ClosedForm:
    """alpha_bar, sign, own exponent, alpha - s, boundary, regime, premium and L at rate q >= 0.

    ex is _exponents(m, q) when the caller has it (a straddle's two kinds).
    The power law is evaluated only in the continuation region, where
    s*L <= 0 keeps it bounded by K/(alpha - s); beyond the boundary the
    premium is the intrinsic value.
    """
    alpha_c, alpha_p, alpha_bar = _exponents(m, q) if ex is None else ex
    if kind == _CALL:
        # alpha_c - 1 = 2(r+q)/sigma^2 / (radical + r/sigma^2 + 1/2) with the
        # radical alpha_bar; the plain difference cancels as alpha_c -> 1
        s2 = m.vol**2
        alpha = alpha_c
        gap = 2.0 * (m.rate + q) / s2 / (alpha_bar + m.rate / s2 + 0.5)
    else:
        alpha, gap = alpha_p, alpha_p + 1.0
    sign = _kind_sign(kind, alpha, gap)
    boundary = alpha * strike / gap
    log_m = _log_moneyness(m.spot, strike, alpha, gap)
    exercised = m.spot > boundary if kind == _CALL else m.spot < boundary
    if exercised:
        regime = _EXERCISE_NOW
        premium = intrinsic_value(kind, m.spot, strike)
    else:
        regime = _CONTINUATION
        premium = _power_law(sign, strike, alpha, gap, log_m)
        # below K for a put and S for a call, unless K/gap overflowed
        if not premium < _INF:
            raise _out_of_range(m, "the premium")
    return _ClosedForm(alpha_bar, sign, alpha, gap, boundary, regime, premium, log_m)


# (market, contract, contract.amort, exponents, closed form) of the last
# _evaluate; the sentinel matches no argument, not even None
_NOTHING = object()
_last = (_NOTHING, _NOTHING, _NOTHING, None, None)


def _evaluate(m: MarketParams, c: ContractParams) -> _ClosedForm:
    """_closed_form of the contract, shared by consecutive calls on the same objects.

    One entry: the last (m, c) evaluated, matched by identity. Both are
    frozen and the entry holds them, so a match means the same inputs
    (mutating one through object.__setattr__ is unsupported). The entry is
    read once and replaced whole, so a thread never mixes two entries, and
    an evaluation that raises leaves it as it was.
    """
    global _last
    last_m, last_c, _, _, f = _last
    if m is last_m and c is last_c:
        return f
    kind, strike, q = c.kind, c.strike, c.amort
    ex = _exponents(m, q)
    f = _closed_form(m, kind, strike, q, ex)
    _last = (m, c, q, ex, f)
    return f


def exercise_boundary(m: MarketParams, c: ContractParams) -> float:
    """Optimal exercise boundary: alpha_c*K/(alpha_c-1) call, alpha_p*K/(1+alpha_p) put."""
    return _evaluate(m, c).boundary


def premium_from_exponent(
    kind: OptionKind, spot: float, strike: float, alpha: float
) -> float:
    """Continuation-region premium given the relevant exponent.

    Call: K/(alpha-1) * ((alpha-1)S/(alpha K))^alpha, needs alpha > 1.
    Put:  K/(1+alpha) * (alpha K/((1+alpha)S))^alpha, needs alpha > 0.
    Powers go through exp(alpha*log(.)) so non-integer exponents of
    positive arguments are handled without sign pitfalls.
    """
    gap = alpha - 1.0 if kind == _CALL else alpha + 1.0
    sign = _kind_sign(kind, alpha, gap)
    return _power_law(sign, strike, alpha, gap, _log_moneyness(spot, strike, alpha, gap))


def price(m: MarketParams, c: ContractParams) -> Quote:
    """Premium, boundary and regime for an AmPO.

    In the continuation region the closed form applies; beyond the
    boundary the option is exercised immediately and the quote carries
    the intrinsic value. A spot exactly on the boundary is classified
    Continuation (the two branches agree there by value matching).
    """
    f = _evaluate(m, c)
    return Quote(f.premium, f.boundary, f.regime)


def to_equivalent_perpetual(c: ContractParams, m: MarketParams) -> EquivalentPerpetual:
    """Map an AmPO to the vanilla perpetual American with the same value.

    The per-unit-notional value function solves

        (1/2) sigma^2 S^2 V'' + r S V' - (2r + q) V = 0

    in the continuation region: amortization adds q to the discounting
    while leaving the risk-neutral drift at r. The matching vanilla
    perpetual therefore carries effective rate 2r+q and dividend yield
    r+q; their difference is the original rate r, so the drift of the
    underlying is unchanged.
    """
    return EquivalentPerpetual(
        rate_eff=2.0 * m.rate + c.amort,
        dividend_eff=m.rate + c.amort,
        payoff_kind=c.kind,
        strike=c.strike,
    )


def ode_coefficients(m: MarketParams, q: float) -> tuple[float, float]:
    """(drift rate, discount rate) of the valuation ODE, i.e. (r, 2r+q)."""
    return m.rate, 2.0 * m.rate + q


def notional_at(s: AmortizationSchedule, t: float) -> float:
    """Notional at time t under exponential decay: N0 * e^{-q t}."""
    _require_finite("t", t)
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    return s.initial_notional * math.exp(-s.amort * t)
