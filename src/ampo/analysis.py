"""Case studies built on the closed forms.

Three analyses: the effective maturity of an AmPO (the dated ATM call
maturity with the same premium) and the notional surviving to it; Gamma
and time-decay ratios against that effectively dated call; and
budget-constrained positional Vega over the amortization rate, with an
optimizer for the best q per strategy. Consecutive calls on one market,
strike and q grid share their exponents, legs and maturities through
one module-level entry (_sweep).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

from .greeks import _dated_terms, _gamma
from .params import MarketParams, NoSolutionError, OptionKind, ValidationError
from .params import _check_terms, _member, _require_finite, _require_iterable
from .params import intrinsic_value
from .pricing import _CALL, _NOTHING, _closed_form, _exponents, _kind_sign, _out_of_range


class StrategyKind(str, Enum):
    CALL_ONLY = "call"
    PUT_ONLY = "put"
    STRADDLE = "straddle"


@dataclass(frozen=True)
class StrategySpec:
    """A budget-constrained position: ``kind`` call, put or straddle, and
    ``budget`` the premium spent, so the notional held is budget / premium."""

    kind: StrategyKind
    budget: float

    def __post_init__(self):
        _require_finite("budget", self.budget)
        if self.budget <= 0:
            raise ValidationError(f"budget must be > 0, got {self.budget}")
        if not isinstance(self.kind, StrategyKind):
            object.__setattr__(self, "kind", _member(StrategyKind, self.kind))


@dataclass(frozen=True)
class MaturityResult:
    """Effective maturity at amortization rate ``q`` (per year).

    ``effective_maturity`` is the dated ATM call's maturity T in years
    with the AmPO call's premium, and ``effective_notional`` the fraction
    e^{-qT} of the notional that survives to T.
    """

    q: float
    effective_maturity: float
    effective_notional: float


@dataclass(frozen=True)
class RatioPoint:
    """AmPO call against its effectively dated call at ``q`` (per year).

    ``gamma_ratio`` is AmPO Gamma / dated Gamma and ``theta_ratio`` the
    AmPO decay q*C0 over the dated |Theta| (both per year); both are
    dimensionless.
    """

    q: float
    gamma_ratio: float
    theta_ratio: float


@dataclass(frozen=True)
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


_PREMIUM_TOL = 1e-10
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
    1e-10 in premium; also returns the notional fraction e^{-qT}
    surviving to T. The grid (q,) shares its solve like any other grid
    (see _columns).
    """
    return effective_notional_curve(m, strike, (q,))[0]


def _solve_maturity(m: MarketParams, strike: float, q: float, target: float) -> MaturityResult:
    """effective_maturity for the AmPO call premium `target`."""
    if target >= m.spot - _PREMIUM_TOL:
        raise NoSolutionError(
            f"AmPO premium {target} meets or exceeds the dated-call supremum {m.spot}"
        )

    def gap(t: float) -> tuple[float, float]:
        premium, _, _, theta, _ = _dated_terms(m, strike, t)
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
    # gap(lo) = 0 where the AmPO premium underflows to 0.0
    t = lo if g_lo == 0.0 else _safeguarded_newton(gap, lo, hi)
    return MaturityResult(q=q, effective_maturity=t, effective_notional=math.exp(-q * t))


# The last q grid evaluated on the last market, shared by the case
# studies: (market, strike, grid, columns). The columns map "exponents"
# to _exponents per q, "maturity" to the MaturityResult per q, and each
# OptionKind to its (premium, Vega term) leg per q; each is filled whole
# by the first call that needs it. The sentinel matches no market.
_sweep = (_NOTHING, None, (), {})


def _columns(m: MarketParams, strike: float, qs: tuple) -> dict:
    """The shared entry's columns when it holds (m, strike, qs), else a new empty dict.

    The market matches by identity (it is frozen and the entry holds it),
    the strike and each q by type and then value, so a hit reads what
    these same terms computed. Types come first: only types whose values
    passed every check are ever stored, so == is not asked of others.
    """
    last_m, last_strike, last_qs, cols = _sweep
    n = len(qs)
    if (
        m is last_m
        and type(strike) is type(last_strike)
        and n == len(last_qs)
        and (
            type(qs[0]) is type(last_qs[0])  # one q, without map's set-up cost
            if n == 1
            else all(map(operator.is_, map(type, qs), map(type, last_qs)))
        )
        and strike == last_strike
        and qs == last_qs
    ):
        return cols
    return {}


def _keep(m: MarketParams, strike: float, qs: tuple, cols: dict, new: dict) -> None:
    """Store a successful call's new columns: into `cols` on a hit, as a new entry on a miss.

    Called only once the call has succeeded, so one that raises stores
    nothing. An entry always holds a column, so only a miss has an empty
    `cols`. A column list is complete when stored and never changed, so a
    thread that read `cols` sees each column whole or not at all. No lock
    is needed: a call writes only into the dict it read or into an entry
    of its own terms, so threads racing here lose sharing, never values.
    """
    global _sweep
    if cols:
        cols.update(new)
    else:
        _sweep = (m, strike, qs, new)


def _maturity_points(m: MarketParams, strike: float, q_grid):
    """(q, AmPO call closed form, MaturityResult) per q of the grid, in its order.

    Reads the shared exponents and maturities, and fills the ones it
    solves into the entry after the last point is consumed. The grid is
    copied into a tuple first; if iterating it raises, the points before
    come first, as a lazy loop gives them, and nothing is shared.
    """
    it = _require_iterable("q_grid", q_grid)
    qs, failed = [], None
    try:
        qs.extend(it)
    except Exception as exc:
        failed = exc
    qs = tuple(qs)
    cols = {} if failed is not None else _columns(m, strike, qs)
    exs, mats = cols.get("exponents"), cols.get("maturity")
    new = {}
    if exs is None:
        new["exponents"] = new_exs = []
    if mats is None:
        new["maturity"] = new_mats = []
    for i, q in enumerate(qs):
        if exs is None:
            _check_terms(strike, q)
            ex = _exponents(m, q)
            new_exs.append(ex)
        else:
            ex = exs[i]
        f = _closed_form(m, _CALL, strike, q, ex)
        if mats is None:
            res = _solve_maturity(m, strike, q, f.premium)
            new_mats.append(res)
        else:
            res = mats[i]
        yield q, f, res
    if failed is not None:
        raise failed
    if new:
        _keep(m, strike, qs, cols, new)


def effective_notional_curve(m: MarketParams, strike: float, q_grid) -> list[MaturityResult]:
    return [res for _, _, res in _maturity_points(m, strike, q_grid)]


def ratio_study(m: MarketParams, strike: float, q_grid) -> list[RatioPoint]:
    """Per q: AmPO Gamma / dated Gamma, and q*C0 / |dated Theta|.

    The dated peer is the call with the matching effective maturity;
    both sides are evaluated at the initial spot at time zero, the only
    instant the two contracts are directly comparable. The maturities
    and exponents are read from the shared entry where a call on the
    same market, strike and grid (effective_notional_curve, say) solved
    them.
    """
    out = []
    for q, f, res in _maturity_points(m, strike, q_grid):
        _, _, dated_gamma, dated_theta, _ = _dated_terms(m, strike, res.effective_maturity)
        g_ratio = _gamma(f, m) / dated_gamma if dated_gamma else math.inf
        if not g_ratio < math.inf:
            size = "underflows to 0" if dated_gamma == 0.0 else f"is {dated_gamma!r}"
            raise NoSolutionError(
                f"dated call Gamma {size} at q = {q} "
                f"(T = {res.effective_maturity}): the Gamma ratio is undefined"
            )
        t_ratio = q * f.premium / abs(dated_theta)
        out.append(RatioPoint(q=q, gamma_ratio=g_ratio, theta_ratio=t_ratio))
    return out


_STRATEGY_KINDS = {
    StrategyKind.CALL_ONLY: (OptionKind.CALL,),
    StrategyKind.PUT_ONLY: (OptionKind.PUT,),
    StrategyKind.STRADDLE: (OptionKind.CALL, OptionKind.PUT),
}


def positional_vega(m: MarketParams, strike: float, s: StrategySpec, q: float) -> float:
    """Vega of a budget-constrained position: budget * vega / premium.

    The straddle holds equal notional of the ATM call and put at the same
    q (one exponent solve), so its ratio uses the combined premium and vega.
    One point of the per-market kernel _positional_vega_curve, which also
    drives optimize_q's scan; where budget * vega overflows the ratio is
    taken as budget * (vega / premium), so a finite result stays finite.
    The grid (q,) is shared like any other: after the call and the put at
    one q, the straddle there solves and prices nothing.
    """
    return _positional_vega_curve(m, strike, _STRATEGY_KINDS[s.kind], s.budget, (q,))[0]


def _positional_vega_curve(
    m: MarketParams, strike: float, kinds, budget: float, qs: tuple, share: bool = True
) -> list[float]:
    """budget * vega / premium of the kinds' combined position at each q in qs.

    The exponents are solved once per q for all kinds, and each kind's
    leg, its premium and Vega term, once per q for every strategy: with
    `share` both are read from the shared entry (see _columns) and the
    ones computed are added to it once the call succeeds, so a put after
    a call on the same grid solves no exponent, and a straddle after both
    computes nothing but the ratios and does not read the market's terms.
    A leg inlines _closed_form's and _vega's arithmetic in their order, so
    every value and error is theirs. An exercised leg's Vega term is 0.0:
    the sum of terms starts at +0.0, so adding it changes no bit. The
    terms are checked per q, in _check_terms' order, and a point that
    fails raises at once, before any later q is evaluated.
    """
    cols = _columns(m, strike, qs) if share else {}
    exs = cols.get("exponents")
    # each kind's stored leg, or the new one this call fills: at q number
    # i a new leg holds i entries, a stored one all of them
    legs, new = [], {}
    for kind in kinds:
        leg = cols.get(kind)
        if leg is None:
            leg = new[kind] = []
        legs.append((kind, leg))
    if new:
        spot, rate, vol = m.spot, m.rate, m.vol
        try:
            s2 = vol**2
            x = rate / s2
            vol3 = vol**3
        except (OverflowError, ZeroDivisionError):
            raise _out_of_range(m, "positional Vega") from None
    if exs is None:  # a new grid: no leg is stored either
        new["exponents"] = new_exs = []
        try:
            strike_ok = 0.0 < strike + 0.0 < math.inf
        except (TypeError, OverflowError):
            strike_ok = False
    out = []
    for i, q in enumerate(qs):
        if exs is None:
            try:
                in_range = strike_ok and 0.0 < q < math.inf
            except TypeError:
                in_range = False
            if not in_range:
                _check_terms(strike, q)  # raises
            alpha_c, alpha_p, alpha_bar = ex = _exponents(m, q)
            new_exs.append(ex)
        elif new:
            alpha_c, alpha_p, alpha_bar = exs[i]
        prem = veg = 0.0
        for kind, leg in legs:
            if i < len(leg):
                premium, term = leg[i]
            else:
                call = kind is _CALL
                if call:
                    sign, alpha = 1.0, alpha_c
                    # alpha_c - 1 without cancellation, as in _closed_form
                    gap = 2.0 * (rate + q) / s2 / (alpha_bar + x + 0.5)
                    resolved = gap > 0.0
                else:
                    sign, alpha, gap = -1.0, alpha_p, alpha_p + 1.0
                    resolved = alpha > 0.0
                if not resolved:
                    _kind_sign(kind, alpha, gap)  # raises
                boundary = alpha * strike / gap
                log_m = math.log(gap * spot / (alpha * strike))
                if (spot > boundary) if call else (spot < boundary):
                    # Vega is zero once exercised
                    premium, term = intrinsic_value(kind, spot, strike), 0.0
                else:
                    premium = strike / gap * math.exp(sign * alpha * log_m)
                    n = (alpha - 2.0 * sign) * rate - sign * q
                    try:
                        term = 2.0 * premium * log_m * n / (vol3 * alpha_bar)
                    except ZeroDivisionError:
                        raise _out_of_range(m, "positional Vega") from None
                leg.append((premium, term))
            prem += premium
            veg += term
        if prem < 1e-12:
            raise NoSolutionError(f"degenerate strategy: premium {prem} below 1e-12")
        scaled = budget * veg
        out.append(scaled / prem if math.isfinite(scaled) else budget * (veg / prem))
    if share and new:
        _keep(m, strike, qs, cols, new)
    return out


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
    interior peak. The scan is one pass of the per-market kernel behind
    positional_vega, sharing its exponents and legs with the other
    strategies' scans of the same grid, and each golden step one point
    of that kernel that neither reads nor replaces the shared entry, so
    every value is positional_vega's at its q and a refinement never
    evicts the scan the next strategy reuses. An edge argmax is flagged
    as a boundary maximum and several interior peaks as multimodal
    (returning the grid argmax). A maximum that is not finite (the budget
    times Vega past the float range) raises NoSolutionError.
    """
    try:
        lo, hi = q_range
        in_range = 0.0 < lo < hi < math.inf
    except (TypeError, ValueError):
        in_range = False
    if not in_range:
        raise ValidationError(f"q_range must satisfy 0 < lo < hi < inf, got {q_range}")
    try:
        n = max(operator.index(grid_points), 200)
    except TypeError:
        raise ValidationError(f"grid_points must be an integer, got {grid_points!r}") from None
    qs = tuple([lo + (hi - lo) * i / (n - 1) for i in range(n)])
    kinds = _STRATEGY_KINDS[s.kind]
    # a golden step neither reads nor replaces the shared scan
    f = lambda q: _positional_vega_curve(m, strike, kinds, s.budget, (q,), share=False)[0]
    vs = _positional_vega_curve(m, strike, kinds, s.budget, qs)
    curve = list(zip(qs, vs))
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
        curve=curve,
        boundary_maximum=edge,
        multimodal=not edge and peaks != 1,
    )
