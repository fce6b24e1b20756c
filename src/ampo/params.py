"""Core parameter types, result records, and error hierarchy.

Every record of the package, here and in the other modules, is made by
_record: a frozen, slotted class whose methods behave as those
dataclass(frozen=True, slots=True) generates, and which keeps the
dataclass protocol (dataclasses.fields, replace, asdict, astuple,
is_dataclass). Defining a record imports no dataclasses; its metadata is
built when one of those functions first reads it.

An accepted number is held as its float from its check on. An exact
float is held as the object given, so its identity (and -0.0) survives;
any other number (an int, a bool, a Fraction, a float subclass) as the
float of value + 0.0, the arithmetic that accepts it. Each check returns
that float and each record stores it (_store, only where it is not the
object given), so no code past the checks handles anything but floats, and
every number a record holds or a function returns is a float. A positive
input is one whose float is positive, since the closed forms compute with
the float: Fraction(1, 10**400) is refused like 0. Every input that must
be > 0 is checked by _require_positive, and any other is refused by name.

The input checks on hot paths (MarketParams, _check_terms, _check_strike,
and oracle's per-spot, effective-term and point checks) accept their
common case with one comparison chain, such as
type(x) is float and 0.0 < x < _INF: only an exact float in range passes
it. Everything else (an int, a bool, a Fraction, a Decimal, a float
subclass, nan, an infinity, -0.0 where > 0 is asked, or any value out of
range) goes on to the full checks, so the inputs accepted, and every
message in its order, are the full checks' alone.
"""

from __future__ import annotations

import math
from reprlib import recursive_repr
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


_INF = math.inf


def _require_finite(name: str, value: float) -> float:
    """The float `value` is held as; ValidationError where that is not finite.

    That float is `value` itself where it is an exact float, and else the
    float of value + 0.0, which refuses what float arithmetic refuses, such
    as a decimal.Decimal or a str.
    """
    try:
        x = value if type(value) is float else float(value + 0.0)
    except TypeError:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an int beyond the float range
        x = _INF
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return x


def _require_positive(*named: tuple[str, float]) -> list[float]:
    """Each (name, value) finite, then each value > 0 as a float, in the order
    given; the values as their floats."""
    floats = [_require_finite(name, value) for name, value in named]
    for (name, value), x in zip(named, floats):
        # an exact value <= 0 rounds to a float <= 0, so this is also the exact test
        if not x > 0.0:
            raise ValidationError(f"{name} must be > 0, got {value}")
    return floats


def _require_nonnegative(name: str, value: float) -> float:
    """`value` as its float, finite and >= 0; a negative value whose float is
    -0.0 is refused."""
    x = _require_finite(name, value)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return x


def _require_iterable(name: str, values):
    """An iterator over `values`; ValidationError if they cannot be iterated."""
    try:
        return iter(values)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence of numbers, got {values!r}") from None


def _member(kind_enum: type[Enum], kind) -> Enum:
    """`kind` as a member of `kind_enum`; ValidationError if it names none."""
    try:
        return kind_enum(kind)
    except ValueError:
        names = ", ".join(k.value for k in kind_enum)
        raise ValidationError(f"kind must be one of {names}") from None


class _Record:
    """The methods every record shares, each as dataclass(frozen=True, slots=True)
    generates it; a record's __match_args__ names its fields in order. Any
    assignment or deletion is refused, not only a field's."""

    __slots__ = ()

    def __getstate__(self):
        return [getattr(self, name) for name in self.__match_args__]

    def __setstate__(self, state):
        _store(self, **dict(zip(self.__match_args__, state)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__getstate__()))

    @recursive_repr()
    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Metadata:
    """A record's __dataclass_fields__ or __dataclass_params__, built on first read.

    Both are taken from a dataclass(frozen=True, slots=True, init=False)
    with the record's annotations and defaults, and stored on the record
    class in place of this descriptor, so dataclasses is imported only when
    something first reads them. Two threads that race here store equal values.
    """

    def __init__(self, name: str):
        self.name = name

    def __get__(self, record, owner):
        from dataclasses import dataclass
        cls = next(c for c in owner.__mro__ if vars(c).get(self.name) is self)
        names, defaults = cls.__match_args__, cls.__init__.__defaults__ or ()
        namespace = dict(zip(names[len(names) - len(defaults):], defaults), __annotations__=cls.__annotations__)
        twin = dataclass(frozen=True, slots=True, init=False)(type(cls.__name__, (), namespace))
        cls.__dataclass_fields__, cls.__dataclass_params__ = twin.__dataclass_fields__, twin.__dataclass_params__
        return getattr(cls, self.name)


_METADATA = {name: _Metadata(name) for name in ("__dataclass_fields__", "__dataclass_params__")}


def _record(cls):
    """`cls` as a frozen, slotted record class that keeps the dataclass protocol.

    Its fields are its own annotations, in order, and a class attribute of
    a field's name is that field's default. The record class has one slot
    per field, __match_args__ naming them, and _Record's methods. Its
    __dataclass_fields__ and __dataclass_params__ are built on first read
    (_Metadata), so dataclasses.fields, replace, asdict, astuple and
    is_dataclass work on records while defining one imports no dataclasses.

    The __init__ written here takes the fields as arguments, with their
    defaults, stores each with its slot descriptor's __set__, bound once
    per class, and then calls __post_init__ where the class has one: about
    half the cost of dataclass(frozen=True)'s, which stores each field
    through object.__setattr__. Like dataclasses, it writes the function's
    source and execs it.
    """
    names = tuple(vars(cls).get("__annotations__", {}))
    namespace = dict(vars(cls), **_METADATA, __qualname__=cls.__qualname__, __slots__=names, __match_args__=names)
    del namespace["__dict__"], namespace["__weakref__"]
    defaults = {name: namespace.pop(name) for name in names if name in namespace}
    cls = type(cls.__name__, (_Record,), namespace)
    scope, params, body = {}, [], []
    for name in names:
        scope[f"_set_{name}"] = getattr(cls, name).__set__
        body.append(f"_set_{name}(self, {name})")
        if name in defaults:
            scope[f"_default_{name}"] = defaults[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    if hasattr(cls, "__post_init__"):
        scope["_post_init"] = cls.__post_init__
        body.append("_post_init(self)")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


def _store(record, **checked: float) -> None:
    """Store each checked field of a frozen record in place of the value given."""
    for name, value in checked.items():
        object.__setattr__(record, name, value)


def _check_strike(strike: float) -> float:
    """A strike as ContractParams checks it, as a positive input; its float."""
    if not (type(strike) is float and 0.0 < strike < _INF):
        (strike,) = _require_positive(("strike", strike))
    return strike


def _check_terms(strike: float, amort: float) -> tuple[float, float]:
    """Contract terms: strike and amortization rate, each a positive input; their floats."""
    if not (type(strike) is type(amort) is float and 0.0 < strike < _INF and 0.0 < amort < _INF):
        strike, amort = _require_positive(("strike", strike), ("amort", amort))
    return strike, amort


@_record
class MarketParams:
    """Market state: spot price, risk-free rate, and volatility.

    Rates and volatility are annualized; the rate is continuously
    compounded. ``rate == 0`` is allowed, ``vol == 0`` is not.
    """

    spot: float
    rate: float
    vol: float

    def __post_init__(self):
        spot, rate, vol = self.spot, self.rate, self.vol
        if not (type(spot) is type(rate) is type(vol) is float
                and 0.0 < spot < _INF and 0.0 <= rate < _INF and 0.0 < vol < _INF):
            # finite in the order spot, rate, vol; then spot, vol and rate in range
            _require_finite("spot", spot)
            _require_finite("rate", rate)
            spot, vol = _require_positive(("spot", spot), ("vol", vol))
            _store(self, spot=spot, rate=_require_nonnegative("rate", rate), vol=vol)


@_record
class ContractParams:
    """Contract terms: strike, amortization rate, and call/put kind."""

    strike: float
    amort: float
    kind: OptionKind

    def __post_init__(self):
        strike, amort = _check_terms(self.strike, self.amort)
        if strike is not self.strike or amort is not self.amort:
            _store(self, strike=strike, amort=amort)
        if not isinstance(self.kind, OptionKind):
            _store(self, kind=_member(OptionKind, self.kind))


@_record
class Exponents:
    """Power-law exponents governing the closed-form valuations.

    ``alpha_bar`` is the arithmetic mean of the call and put exponents
    and equals the radical shared by both closed forms.
    """

    alpha_c: float
    alpha_p: float
    alpha_bar: float


@_record
class Quote:
    """Price of an AmPO.

    ``premium`` is per unit of current notional, ``boundary`` the spot
    of optimal exercise (same units as spot and strike), and ``regime``
    whether the spot lies in the continuation or the exercise region.
    """

    premium: float
    boundary: float
    regime: Regime


@_record
class EquivalentPerpetual:
    """Vanilla dividend-paying perpetual American option with the same value.

    ``rate_eff - dividend_eff`` always equals the original market rate,
    so the risk-neutral drift of the underlying is unchanged.
    """

    rate_eff: float
    dividend_eff: float
    payoff_kind: OptionKind
    strike: float


@_record
class AmortizationSchedule:
    """Deterministic exponential notional decay at a constant rate."""

    initial_notional: float
    amort: float

    def __post_init__(self):
        n0, q = _require_positive(("initial_notional", self.initial_notional), ("amort", self.amort))
        _store(self, initial_notional=n0, amort=q)


def intrinsic_value(kind: OptionKind, spot: float, strike: float) -> float:
    """Immediate-exercise payoff per unit notional.

    spot and strike are positive inputs and kind an OptionKind or its
    value, checked as MarketParams and ContractParams check them.
    """
    if not (type(spot) is type(strike) is float and 0.0 < spot < _INF and 0.0 < strike < _INF):
        spot, strike = _require_positive(("spot", spot), ("strike", strike))
    return _intrinsic(_member(OptionKind, kind), spot, strike)


def _intrinsic(kind: OptionKind, spot: float, strike: float) -> float:
    """intrinsic_value of inputs already checked."""
    if kind == OptionKind.CALL:
        return max(spot - strike, 0.0)
    return max(strike - spot, 0.0)
