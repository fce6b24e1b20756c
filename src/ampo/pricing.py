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
    _INF,
    _intrinsic,
    _require_nonnegative,
)


# enum members bound once: a class attribute lookup costs more than a global
_CALL = OptionKind.CALL
_EXERCISE_NOW = Regime.EXERCISE_NOW
_CONTINUATION = Regime.CONTINUATION
_TUPLE_NEW = tuple.__new__


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
    return Exponents(*_solved(m, q if type(q) is float else _require_nonnegative("amort", q)))


def _solved(m: MarketParams, q: float) -> tuple[float, float, float]:
    """_exponents(m, q), read from the last _evaluate when m and q are its objects."""
    last_m, _, last_q, ex, _ = _last
    if m is last_m and q is last_q:
        return ex
    return _exponents(m, q)


def _exponents(m: MarketParams, q: float) -> tuple[float, float, float]:
    """compute_exponents as a plain (alpha_c, alpha_p, alpha_bar) tuple, at a float q."""
    if not 0.0 <= q < _INF:  # q is negative, nan or infinite
        _require_nonnegative("amort", q)
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
    the log-moneyness log(gap*S/(alpha K)); L = 0 on the boundary. vega is
    dV/dsigma = -s*(V*L)*alpha*gap/(sigma*alpha_bar), 0.0 once exercised,
    and not checked here: it may be inf or nan where the premium is not.
    """

    alpha_bar: float
    sign: float
    alpha: float
    gap: float
    boundary: float
    regime: Regime
    premium: float
    log_m: float
    vega: float


def _refuse_kind(kind: OptionKind, alpha: float, gap: float) -> None:
    """Raise the error for a kind whose exponent fails its condition:
    gap = alpha_c - 1 > 0 for a call, alpha_p > 0 for a put."""
    name, value = ("alpha_c - 1", gap) if kind is _CALL else ("alpha_p", alpha)
    raise ValidationError(
        f"{kind.value} closed form undefined: {name} = {value} <= 0 "
        "(rate + amort is 0 or too small to resolve)"
    )


def _kernel(m: MarketParams, kind: OptionKind, strike: float, q: float, ex, spot: float) -> tuple:
    """The closed form of one kind at rate q >= 0 and `spot`, as the flat tuple
    (alpha_bar, s, alpha, gap, boundary, regime, premium, L, vega) of _ClosedForm.

    ex is _exponents(m, q); only m.rate and m.vol are read from m, so any
    spot of a market can be evaluated. The power law is evaluated only in
    the continuation region, where s*L <= 0 keeps it bounded by
    K/(alpha - s); a power s*alpha*L that rounds above 0 next to the
    boundary is taken as 0. Beyond the boundary the premium is the
    intrinsic value.
    """
    alpha_c, alpha_p, alpha_bar = ex
    call = kind is _CALL
    if call:
        # alpha_c - 1 = 2(r+q)/sigma^2 / (radical + r/sigma^2 + 1/2) with the
        # radical alpha_bar; the plain difference cancels as alpha_c -> 1
        s2 = m.vol**2
        sign, alpha = 1.0, alpha_c
        gap = 2.0 * (m.rate + q) / s2 / (alpha_bar + m.rate / s2 + 0.5)
    else:
        sign, alpha, gap = -1.0, alpha_p, alpha_p + 1.0
    if not (gap > 0.0 if call else alpha > 0.0):
        _refuse_kind(kind, alpha, gap)
    # where alpha*K overflows, the boundary itself need not
    ak = alpha * strike
    boundary = ak / gap if ak < _INF else alpha / gap * strike
    try:
        log_m = math.log(gap * spot / ak)
    except (ValueError, ZeroDivisionError):  # the quotient or alpha*K underflowed to 0
        log_m = _INF
    if not log_m < _INF:  # that, or gap*S overflowed and the quotient is inf or nan
        log_m = _split_log(spot, strike, gap, alpha)
    if (spot > boundary) if call else (spot < boundary):
        intrinsic = _intrinsic(kind, spot, strike)
        return alpha_bar, sign, alpha, gap, boundary, _EXERCISE_NOW, intrinsic, log_m, 0.0
    # s*L <= 0 here, so a positive power is the boundary's rounding (at
    # vol 1e-20 it can overflow exp): value matching gives K/gap there
    power = sign * alpha * log_m
    premium = strike / gap * math.exp(power if power < 0.0 else 0.0)
    # below K for a put and S for a call, unless K/gap overflowed
    if not premium < _INF:
        raise _out_of_range(m, "the premium")
    # d(ln V)/d(alpha) = s*L and d(alpha)/d(sigma) = -alpha*gap/(sigma*alpha_bar)
    # (the exponent quadratic differentiated in sigma), so no term cancels
    vega = -sign * (premium * log_m) * alpha * gap / (m.vol * alpha_bar)
    return alpha_bar, sign, alpha, gap, boundary, _CONTINUATION, premium, log_m, vega


def _split_log(spot: float, strike: float, gap: float, alpha: float) -> float:
    """L = log(gap*S/(alpha*K)) summed from logs, where the quotient leaves the float range.

    gap/alpha itself overflows where alpha is below about 1/max float (a put
    at q/sigma^2 near 1e-308), so its log is split there too.
    """
    ratio = gap / alpha
    log_ratio = math.log(ratio) if ratio < _INF else math.log(gap) - math.log(alpha)
    return math.log(spot) - math.log(strike) + log_ratio


def _closed_form(m: MarketParams, kind: OptionKind, strike: float, q: float):
    """_kernel at m.spot as a _ClosedForm, on its own solve of the exponents."""
    # what _ClosedForm._make does, without its method call and length check
    return _TUPLE_NEW(_ClosedForm, _kernel(m, kind, strike, q, _exponents(m, q), m.spot))


# (market, contract, contract.amort, exponents, closed form) of the last
# _evaluate; the sentinel matches no argument, not even None
_NOTHING = object()
_last = (_NOTHING, _NOTHING, _NOTHING, None, None)


def _evaluate(m: MarketParams, c: ContractParams) -> _ClosedForm:
    """_closed_form of the contract, shared by consecutive calls on the same objects.

    One entry: the last (m, c) evaluated. Every memo entry of the package
    matches its inputs by identity and nothing else: both inputs are frozen
    and the entry holds them, so the same objects mean the same values
    (mutating one through object.__setattr__ is unsupported), while equal
    values in distinct objects miss and are evaluated afresh. On the same
    objects the entry is read whole. A miss makes one _kernel call at
    m.spot: on the same contract object and a market holding the entry's
    rate and vol objects, such as replace(m, spot=s), only the spot
    differs, so it reuses the entry's exponents, and otherwise it solves
    them. The entry is read once and replaced whole, so a thread never
    mixes two entries, and an evaluation that raises leaves it as it was.
    """
    global _last
    last_m, last_c, q, ex, f = _last
    if c is last_c and m is last_m:
        return f
    if not (c is last_c and m.rate is last_m.rate and m.vol is last_m.vol):
        q = c.amort
        ex = _exponents(m, q)
    f = _TUPLE_NEW(_ClosedForm, _kernel(m, c.kind, c.strike, q, ex, m.spot))
    _last = (m, c, q, ex, f)
    return f


def exercise_boundary(m: MarketParams, c: ContractParams) -> float:
    """Optimal exercise boundary: alpha_c*K/(alpha_c-1) call, alpha_p*K/(1+alpha_p) put."""
    return _evaluate(m, c).boundary


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
    underlying is unchanged. Where 2r+q overflows a float the mapping is
    refused with ValidationError; r+q is then finite too, since
    r+q <= 2r+q.
    """
    rate_eff = 2.0 * m.rate + c.amort
    if not rate_eff < _INF:
        raise ValidationError(f"effective rate 2*rate + amort overflows a float at rate {m.rate!r}")
    return EquivalentPerpetual(
        rate_eff=rate_eff,
        dividend_eff=m.rate + c.amort,
        payoff_kind=c.kind,
        strike=c.strike,
    )


def notional_at(s: AmortizationSchedule, t: float) -> float:
    """Notional at time t under exponential decay: N0 * e^{-q t}."""
    return s.initial_notional * math.exp(-s.amort * _require_nonnegative("t", t))
