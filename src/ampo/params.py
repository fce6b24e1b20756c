"""Core parameter types, result records, and error hierarchy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class AmpoError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AmpoError, ValueError):
    """Invalid input parameter."""


class RegionError(AmpoError, ValueError):
    """Operation requested outside the continuation region it is defined on."""


class ConvergenceError(AmpoError, RuntimeError):
    """Numerical oracle failed its convergence check."""


class NoSolutionError(AmpoError, RuntimeError):
    """A solver could not bracket or locate a solution."""


class OptionKind(str, Enum):
    CALL = "call"
    PUT = "put"


class Regime(str, Enum):
    CONTINUATION = "continuation"
    EXERCISE_NOW = "exercise_now"


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def _member(kind_enum: type[Enum], kind) -> Enum:
    """`kind` as a member of `kind_enum`; ValidationError if it names none."""
    try:
        return kind_enum(kind)
    except ValueError:
        names = ", ".join(k.value for k in kind_enum)
        raise ValidationError(f"kind must be one of {names}") from None


def _check_terms(strike: float, amort: float) -> None:
    """Contract terms: strike and amortization rate finite and > 0."""
    _require_finite("strike", strike)
    _require_finite("amort", amort)
    if strike <= 0:
        raise ValidationError(f"strike must be > 0, got {strike}")
    if amort <= 0:
        raise ValidationError(f"amort must be > 0, got {amort}")


@dataclass(frozen=True)
class MarketParams:
    """Market state: spot price, risk-free rate, and volatility.

    Rates and volatility are annualized; the rate is continuously
    compounded. ``rate == 0`` is allowed, ``vol == 0`` is not.
    """

    spot: float
    rate: float
    vol: float

    def __post_init__(self):
        for name in ("spot", "rate", "vol"):
            _require_finite(name, getattr(self, name))
        if self.spot <= 0:
            raise ValidationError(f"spot must be > 0, got {self.spot}")
        if self.vol <= 0:
            raise ValidationError(f"vol must be > 0, got {self.vol}")
        if self.rate < 0:
            raise ValidationError(f"rate must be >= 0, got {self.rate}")


@dataclass(frozen=True)
class ContractParams:
    """Contract terms: strike, amortization rate, and call/put kind."""

    strike: float
    amort: float
    kind: OptionKind

    def __post_init__(self):
        _check_terms(self.strike, self.amort)
        if not isinstance(self.kind, OptionKind):
            object.__setattr__(self, "kind", _member(OptionKind, self.kind))


@dataclass(frozen=True)
class Exponents:
    """Power-law exponents governing the closed-form valuations.

    ``alpha_bar`` is the arithmetic mean of the call and put exponents
    and equals the radical shared by both closed forms.
    """

    alpha_c: float
    alpha_p: float
    alpha_bar: float


@dataclass(frozen=True)
class Quote:
    """Price of an AmPO.

    ``premium`` is per unit of current notional, ``boundary`` the spot
    of optimal exercise (same units as spot and strike), and ``regime``
    whether the spot lies in the continuation or the exercise region.
    """

    premium: float
    boundary: float
    regime: Regime


@dataclass(frozen=True)
class EquivalentPerpetual:
    """Vanilla dividend-paying perpetual American option with the same value.

    ``rate_eff - dividend_eff`` always equals the original market rate,
    so the risk-neutral drift of the underlying is unchanged.
    """

    rate_eff: float
    dividend_eff: float
    payoff_kind: OptionKind
    strike: float


@dataclass(frozen=True)
class AmortizationSchedule:
    """Deterministic exponential notional decay at a constant rate."""

    initial_notional: float
    amort: float

    def __post_init__(self):
        _require_finite("initial_notional", self.initial_notional)
        _require_finite("amort", self.amort)
        if self.initial_notional <= 0:
            raise ValidationError(
                f"initial_notional must be > 0, got {self.initial_notional}"
            )
        if self.amort <= 0:
            raise ValidationError(f"amort must be > 0, got {self.amort}")


def intrinsic_value(kind: OptionKind, spot: float, strike: float) -> float:
    """Immediate-exercise payoff per unit notional."""
    if kind == OptionKind.CALL:
        return max(spot - strike, 0.0)
    return max(strike - spot, 0.0)
