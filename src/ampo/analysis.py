"""Case studies built on the closed forms.

Three analyses: the effective maturity of an AmPO (the dated ATM call
maturity with the same premium) and the notional surviving to it; Gamma
and time-decay ratios against that effectively dated call; and
budget-constrained positional Vega over the amortization rate, with an
optimizer for the best q per strategy. Each study keeps the last grid
it evaluated in its own module-level entry, so repeated calls on one
market, strike and q grid solve nothing again: the maturities in
_maturities (effective_notional_curve, ratio_study, effective_maturity),
the exponents and legs of optimize_q's scan in _scan, and positional
Vega's last point in _point. Each entry matches its inputs by identity,
as pricing._evaluate's does: the market, the strike, and the grid's q's
(_maturities), the q_range's ends and grid size (_scan) or the q
(_point). Equal values in distinct objects miss and are evaluated afresh.
"""

from __future__ import annotations

import math
import operator
from enum import Enum

from .greeks import _dated_call, _gamma
from .params import MarketParams, NoSolutionError, OptionKind, ValidationError
from .params import _check_strike, _check_terms, _member, _record, _require_finite
from .params import _require_iterable, _require_positive, _store
from .pricing import _CALL, _INF, _NOTHING, _closed_form, _exponents, _kernel, _out_of_range


class StrategyKind(str, Enum):
    CALL_ONLY = "call"
    PUT_ONLY = "put"
    STRADDLE = "straddle"


@_record
class StrategySpec:
    """A budget-constrained position: ``kind`` call, put or straddle, and
    ``budget`` the premium spent, so the notional held is budget / premium."""

    kind: StrategyKind
    budget: float

    def __post_init__(self):
        _store(self, budget=_require_positive(("budget", self.budget))[0])
        if not isinstance(self.kind, StrategyKind):
            _store(self, kind=_member(StrategyKind, self.kind))


@_record
class MaturityResult:
    """Effective maturity at amortization rate ``q`` (per year).

    ``effective_maturity`` is the dated ATM call's maturity T in years
    with the AmPO call's premium, and ``effective_notional`` the fraction
    e^{-qT} of the notional that survives to T.
    """

    q: float
    effective_maturity: float
    effective_notional: float


@_record
class RatioPoint:
    """AmPO call against its effectively dated call at ``q`` (per year).

    ``gamma_ratio`` is AmPO Gamma / dated Gamma and ``theta_ratio`` the
    AmPO decay q*C0 over the dated |Theta| (both per year); both are
    dimensionless.
    """

    q: float
    gamma_ratio: float
    theta_ratio: float


@_record
class OptimizationResult:
    """Best amortization rate for a strategy's positional Vega.

    ``q_star`` is the best q (per year) and ``positional_vega_at_star``
    budget * Vega / premium there, per unit of sigma. ``curve`` holds the
    scan's (q, positional Vega) points. ``boundary_maximum`` flags an
    argmax at an end of the q range and ``multimodal`` several interior
    peaks (q_star is then the scan's argmax).
    """

    q_star: float
    positional_vega_at_star: float
    curve: list[tuple[float, float]]
    boundary_maximum: bool
    multimodal: bool


_SUPREMUM_RTOL = 1e-12
_MAX_EVALS = 100


def _safeguarded_newton(fdf, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] with f(lo) < 0 <= f(hi) (the "rtsafe" scheme).

    fdf(x) returns (f, f'). Newton steps are kept while they stay inside
    the shrinking bracket and at least halve the step before last;
    otherwise the bracket is bisected. Stops once a step falls below
    1e-13 + 4.4e-16*|x|, and raises NoSolutionError after _MAX_EVALS
    evaluations.
    """
    x = 0.5 * (lo + hi)
    step_old = step = hi - lo
    for _ in range(_MAX_EVALS):
        f, df = fdf(x)
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        # the Newton point x - f/df lies strictly inside (lo, hi) iff the
        # product is negative; written without the division so df = 0 or
        # a NaN falls through to bisection
        inside = ((x - hi) * df - f) * ((x - lo) * df - f) < 0.0
        if inside and abs(2.0 * f) <= abs(step_old * df):
            step_old, step = step, f / df
            x -= step
        else:
            step_old, step = step, 0.5 * (hi - lo)
            x = lo + step
        if abs(step) <= 1e-13 + 4.4e-16 * abs(x):
            return x
    raise NoSolutionError(
        f"effective-maturity root finding did not converge in {_MAX_EVALS} evaluations"
    )


def effective_maturity(m: MarketParams, strike: float, q: float) -> MaturityResult:
    """Maturity T at which the dated call premium equals the AmPO call premium.

    Solved by bracketing plus a safeguarded Newton (dC/dT = -theta) to
    a step in T below 1e-13 + 4.4e-16*T; also returns the notional
    fraction e^{-qT} surviving to T. The grid (q,) is kept like any
    other grid (see _maturity_points).
    """
    return effective_notional_curve(m, strike, (q,))[0]


def _solve_maturity(m: MarketParams, dated, q: float, target: float) -> MaturityResult:
    """effective_maturity for the AmPO call premium `target`, where dated is
    greeks._dated_call(m, strike).

    The problem is homogeneous of degree 1 in (spot, strike), and every
    test on the way is relative to the spot or a step in T, so T is the
    same at every scale: a premium within 1e-12 relative of the spot is
    refused as at the dated call's supremum. A premium of 0.0 is refused
    too: the dated premium is 0.0 over a range of T there, so no T is the
    effective maturity.
    """
    if target == 0.0:
        raise NoSolutionError(f"AmPO call premium underflows to 0.0 at q = {q}: no maturity matches it")
    if target >= m.spot * (1.0 - _SUPREMUM_RTOL):
        raise NoSolutionError(
            f"AmPO premium {target} meets or exceeds the dated-call supremum {m.spot}"
        )

    def gap(t: float) -> tuple[float, float]:
        premium, _, _, theta, _ = dated(t)
        return premium - target, -theta

    lo, hi = 1e-9, 1.0
    while gap(hi)[0] < 0.0:
        hi *= 2.0
        if hi > 1e7:
            raise NoSolutionError("failed to bracket the effective maturity")
    g_lo = gap(lo)[0]
    if g_lo > 0.0:
        raise NoSolutionError(
            f"effective-maturity root finding failed: the dated premium at T = {lo} "
            f"already exceeds the AmPO premium by {g_lo}"
        )
    # gap(lo) = 0 where the dated premium at T = lo is the premium itself
    t = lo if g_lo == 0.0 else _safeguarded_newton(gap, lo, hi)
    return MaturityResult(q=q, effective_maturity=t, effective_notional=math.exp(-q * t))


# The last grid each study evaluated, as (market, strike, key, held):
# _maturities is keyed by the grid's q's and holds _maturity_points'
# (q, call closed form, MaturityResult) per q; _scan is keyed by
# optimize_q's (lo, hi, n) and holds _positional_vega_curve's (grid,
# exponents per q, {kind: (premium, Vega) leg per q}). The sentinel
# matches no market.
_maturities = _scan = (_NOTHING, None, (), None)


def _held(entry: tuple, m: MarketParams, strike: float, key: tuple):
    """What `entry` holds when m, strike and each element of key are its objects, else None."""
    last_m, last_strike, last_key, held = entry
    if (
        m is last_m
        and strike is last_strike
        and len(key) == len(last_key)
        and all(map(operator.is_, key, last_key))
    ):
        return held
    return None


def _maturity_points(m: MarketParams, strike: float, q_grid):
    """(q, AmPO call closed form, MaturityResult) per q of the grid, in its order.

    The strike is checked first, as ContractParams checks it, so an
    empty grid is refused at a bad strike too. A grid held in _maturities
    yields its stored points and solves nothing. Otherwise each point is
    solved, all of them on one dated-call evaluator (greeks._dated_call),
    so a maturity that several q's solves ask for, such as a bracket end,
    is evaluated once; the entry is replaced once the last point is
    consumed, so a call that raises, or is not consumed, stores nothing;
    racing threads lose sharing, never values. The grid is read into a
    tuple first, so a list changed in place misses, and a grid whose
    iteration raises raises its own error before any point is solved.
    """
    global _maturities
    strike = _check_strike(strike)
    qs = tuple(_require_iterable("q_grid", q_grid))
    points = _held(_maturities, m, strike, qs)
    if points is not None:
        yield from points
        return
    points, dated = [], _dated_call(m, strike)
    for q in qs:
        _, q = _check_terms(strike, q)
        f = _closed_form(m, _CALL, strike, q)
        point = q, f, _solve_maturity(m, dated, q, f.premium)
        points.append(point)
        yield point
    _maturities = (m, strike, qs, points)


def effective_notional_curve(m: MarketParams, strike: float, q_grid) -> list[MaturityResult]:
    return [res for _, _, res in _maturity_points(m, strike, q_grid)]


def ratio_study(m: MarketParams, strike: float, q_grid) -> list[RatioPoint]:
    """Per q: AmPO Gamma / dated Gamma, and q*C0 / |dated Theta|.

    The dated peer is the call with the matching effective maturity;
    both sides are evaluated at the initial spot at time zero, the only
    instant the two contracts are directly comparable. Where the last
    call on the same market, strike and grid (effective_notional_curve,
    say) solved the points, they are read from _maturities: no exponent,
    closed form or maturity is computed again. Where the dated Gamma or
    Theta underflows to 0, or the Gamma ratio overflows, the ratio is
    refused by name (NoSolutionError).
    """
    strike = _check_strike(strike)  # before the evaluator reads it
    out, dated = [], _dated_call(m, strike)
    for q, f, res in _maturity_points(m, strike, q_grid):
        t = res.effective_maturity
        _, _, dated_gamma, dated_theta, _ = dated(t)
        g_ratio = _gamma(f, m) / dated_gamma if dated_gamma else math.inf
        if not g_ratio < math.inf:
            size = "underflows to 0" if dated_gamma == 0.0 else f"is {dated_gamma!r}"
            raise NoSolutionError(
                f"dated call Gamma {size} at q = {q} (T = {t}): the Gamma ratio is undefined"
            )
        if not dated_theta:
            raise NoSolutionError(
                f"dated call Theta underflows to 0 at q = {q} (T = {t}): "
                "the Theta ratio is undefined"
            )
        t_ratio = q * f.premium / abs(dated_theta)
        out.append(RatioPoint(q=q, gamma_ratio=g_ratio, theta_ratio=t_ratio))
    return out


def _premium_floor(strike: float) -> float:
    """The premium below which a strategy is degenerate: 1e-14 of the strike,
    so the floor scales with (spot, strike) as the premium does, and at
    least the smallest float, so a premium of 0 is refused."""
    return 1e-14 * strike or 5e-324


_STRATEGY_KINDS = {
    StrategyKind.CALL_ONLY: (OptionKind.CALL,),
    StrategyKind.PUT_ONLY: (OptionKind.PUT,),
    StrategyKind.STRADDLE: (OptionKind.CALL, OptionKind.PUT),
}


# The last point positional_vega evaluated: (market, strike, q, exponents,
# legs), legs each kind's (premium, Vega) there, filled one kind at a time.
# The sentinel matches no market.
_point = (_NOTHING, None, None, None, None)


def positional_vega(m: MarketParams, strike: float, s: StrategySpec, q: float) -> float:
    """Vega of a budget-constrained position: budget * vega / premium.

    The straddle holds equal notional of the ATM call and put at the same
    q, so its ratio uses the combined premium and vega; where budget * vega
    overflows the ratio is taken as budget * (vega / premium), so a finite
    result stays finite. Each leg is the premium and Vega of pricing._kernel,
    as on optimize_q's scan, so the value at a q is the scan's there, bit
    for bit. The last point is kept (_point), so the call, put and
    straddle at one q solve the exponents once and the straddle computes
    no leg. The entry is replaced whole on a miss, and a
    leg is added only once computed, so racing threads lose sharing, never
    values.
    """
    global _point
    kinds, budget = _STRATEGY_KINDS[s.kind], s.budget
    last_m, last_strike, last_q, ex, legs = _point
    if not (m is last_m and strike is last_strike and q is last_q):
        strike, q = _check_terms(strike, q)
        ex, legs = _exponents(m, q), {}
        _point = (m, strike, q, ex, legs)
    prem, veg, floor = 0.0, 0.0, _premium_floor(strike)
    for kind in kinds:
        leg = legs.get(kind)
        if leg is None:
            _, _, _, _, _, _, premium, _, vega = _kernel(m, kind, strike, q, ex, m.spot)
            if not abs(vega) < _INF:
                raise _out_of_range(m, "Vega")
            leg = legs[kind] = (premium, vega)
        prem += leg[0]
        veg += leg[1]
    if prem < floor:
        raise NoSolutionError(f"degenerate strategy: premium {prem} below {floor}")
    scaled = budget * veg
    return scaled / prem if math.isfinite(scaled) else budget * (veg / prem)


def _positional_vega_curve(m: MarketParams, strike: float, kinds, budget: float,
                           lo: float, hi: float, n: int):
    """optimize_q's grid of n points from lo to hi, and positional_vega of
    the kinds' combined position at each of its q's.

    The exponents are solved once per q for all kinds, and each kind's
    leg once per q for every strategy: a grid held in _scan reads them
    from there, and the legs computed are added to its dict once the call
    succeeds, so a put after a call on the same grid solves no exponent,
    and a straddle after both computes nothing but the ratios. A new grid
    replaces the entry once the call succeeds. The grid is keyed by
    (lo, hi, n) rather than by its q's, which each call builds afresh.
    Every q is at least the first, a checked q > 0: the terms are
    checked at the first q, in _check_terms' order, and a later q that
    overflowed to inf fails _exponents' own check. A point that fails
    raises at once, before any later q is evaluated.
    """
    global _scan
    key = lo, hi, n
    held = _held(_scan, m, strike, key)
    if held is None:  # a new grid: no leg is stored either
        qs = tuple([lo + (hi - lo) * i / (n - 1) for i in range(n)])
        strike, _ = _check_terms(strike, qs[0])
        exs, stored = [], {}
    else:
        qs, exs, stored = held
    # each kind's stored leg, or the new one this call fills: at q number
    # i a new leg holds i entries, a stored one all of them
    new = {kind: [] for kind in kinds if kind not in stored}
    legs = [(kind, stored.get(kind) or new[kind]) for kind in kinds]
    spot, floor = m.spot, _premium_floor(strike)
    out = []
    for i, q in enumerate(qs):
        if held is None:
            ex = _exponents(m, q)
            exs.append(ex)
        elif new:
            ex = exs[i]
        prem = veg = 0.0
        for kind, leg in legs:
            if i < len(leg):
                premium, vega = leg[i]
            else:
                _, _, _, _, _, _, premium, _, vega = _kernel(m, kind, strike, q, ex, spot)
                if not abs(vega) < _INF:
                    raise _out_of_range(m, "Vega")
                leg.append((premium, vega))
            prem += premium
            veg += vega
        if prem < floor:
            raise NoSolutionError(f"degenerate strategy: premium {prem} below {floor}")
        scaled = budget * veg
        out.append(scaled / prem if math.isfinite(scaled) else budget * (veg / prem))
    if held is None:
        _scan = (m, strike, key, (qs, exs, new))
    else:
        stored.update(new)
    return qs, out


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section search for the maximizer of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimize_q(
    m: MarketParams,
    strike: float,
    s: StrategySpec,
    q_range: tuple[float, float],
    grid_points: int = 201,
) -> OptimizationResult:
    """Best amortization rate for the strategy's positional Vega.

    A coarse scan (>= 200 points) locates the structure; golden-section
    refinement to 1e-6 in q runs only when the scan shows a single
    interior peak. The scan is one pass of _positional_vega_curve, sharing
    its exponents and legs with the other strategies' scans of the same
    grid (_scan), and each golden step is a positional_vega call, which
    keeps only its one-point entry (_point), so a refinement never evicts
    the scan the next strategy reuses. Both take each leg from
    pricing._kernel, so every value is positional_vega's at its q. An edge argmax is flagged
    as a boundary maximum and several interior peaks as multimodal
    (returning the grid argmax). A maximum that is not finite (the budget
    times Vega past the float range) raises NoSolutionError.
    """
    try:
        lo, hi = (_require_finite("q_range", q) for q in q_range)
        in_range = 0.0 < lo < hi
    except (TypeError, ValueError):  # a ValidationError is a ValueError
        in_range = False
    if not in_range:
        raise ValidationError(f"q_range must satisfy 0 < lo < hi < inf, got {q_range}")
    try:
        n = max(operator.index(grid_points), 200)
    except TypeError:
        raise ValidationError(f"grid_points must be an integer, got {grid_points!r}") from None
    f = lambda q: positional_vega(m, strike, s, q)
    qs, vs = _positional_vega_curve(m, strike, _STRATEGY_KINDS[s.kind], s.budget, lo, hi, n)
    imax = max(range(n), key=vs.__getitem__)
    edge = imax in (0, n - 1)
    peaks = 0 if edge else sum(
        1 for i in range(1, n - 1) if vs[i] >= vs[i - 1] and vs[i] >= vs[i + 1]
    )
    q_star, v_star = qs[imax], vs[imax]
    if peaks == 1:
        q_star = _golden_section_max(f, qs[imax - 1], qs[imax + 1], 1e-6)
        v_star = f(q_star)
    if not math.isfinite(v_star):
        raise NoSolutionError(
            f"positional Vega overflows a float at budget {s.budget}: "
            f"its maximum over q is {v_star}"
        )
    return OptimizationResult(
        q_star=q_star,
        positional_vega_at_star=v_star,
        curve=list(zip(qs, vs)),
        boundary_maximum=edge,
        multimodal=not edge and peaks != 1,
    )
