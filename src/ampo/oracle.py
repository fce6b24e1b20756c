"""Independent numerical ground truth for the closed forms.

Three tools: a free-boundary CRR lattice that prices the equivalent
dividend-paying perpetual American option, a residual checker for the
valuation ODE, and a generic finite-difference engine used by the Greek
and statics test suites. validate_checks runs all three against the
closed form of one contract; `ampo validate` prints its records.

The lattice is perpetual, not truncated in time: on a fixed log-spot
grid its value is the fixed point of one CRR step with early exercise,
which the Brennan-Schwartz sweep solves exactly in two passes
(Brennan & Schwartz 1977, J. Finance 32:449; proved correct for the
American put by Jaillet, Lamberton & Lapeyre 1990, Acta Appl. Math.
21:263). Its first pass starts just below the smaller root of its
recurrence's quadratic and stops at the recurrence's floating-point
fixed point, keeping only that ratio and a bound on the node where a
walk from the far end reaches it. The second takes the exercise boundary
below that node from Brennan and Schwartz's exercise condition, which
that ratio turns into a closed form, confirms it with two float tests and
bisects only where rounding could move it; so most nodes are never
visited, with the same floats as a full walk. The ratios above that
node, near the far continuation end, are rebuilt on first read.
`LatticeConfig.steps` sets the grid resolution. The sweep uses only the
lattice's own step constants and the payoff, never the closed form.
"""

from __future__ import annotations

import math
import sys

from .params import (
    ContractParams,
    ConvergenceError,
    EquivalentPerpetual,
    MarketParams,
    OptionKind,
    Regime,
    RegionError,
    ValidationError,
    _INF,
    _check_terms,
    _member,
    _record,
    _require_finite,
    _require_iterable,
    _require_positive,
)
from .greeks import delta, gamma, vega
from .pricing import (
    _CONTINUATION,
    _closed_form,
    _evaluate,
    _kernel,
    _out_of_range,
    _solved,
    price,
    to_equivalent_perpetual,
)

# the grid spans at most 12 log-spot units beyond the spot and the
# strike, and its time step discounts by at most e^{-14/steps}
_REACH = 12.0
_DISCOUNT = 14.0
_LOG_MAX = math.log(sys.float_info.max)


@_record
class LatticeConfig:
    """Lattice settings.

    `steps` is the grid resolution: the log-spot spacing is 12/steps, or
    finer where the discount rate is large against the variance.
    With `convergence` set, lattice_price raises ConvergenceError when
    halving `steps` moves the price by more than that relative amount.
    `horizon` is validated but not used, since the lattice is perpetual;
    it stays so that callers which still set it (perfbench/workloads.py)
    keep working. `horizon` and `convergence` are positive inputs, and
    `steps` an int (not a bool).
    """

    horizon: float = 200.0
    steps: int = 4000
    convergence: float | None = None

    def __post_init__(self):
        _require_positive(("horizon", self.horizon))
        if not isinstance(self.steps, int) or isinstance(self.steps, bool):
            raise ValidationError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValidationError(f"steps must be >= 2, got {self.steps}")
        if self.convergence is not None:
            _require_positive(("convergence tolerance", self.convergence))


@_record
class OracleReport:
    """Lattice price against the closed form, premia per unit of current notional.

    ``oracle_price`` is the lattice premium, ``analytic_price`` the closed
    form's, ``rel_error`` |oracle - analytic| / analytic (dimensionless),
    and ``boundary_estimate`` the lattice's exercise boundary in spot units.
    """

    oracle_price: float
    analytic_price: float
    rel_error: float
    boundary_estimate: float


# pass 1 starts _START_MARGIN*u*r1/(1 - rho) below the recurrence's root r1,
# u = 2^-53: its rounding drifts by at most about 3u*r1/(1 - rho), and r1 by
# about u*r1/(2(1 - rho)) more
_START_MARGIN = 16.0
_UNIT_ROUNDOFF = 2.0**-53


def _fixed_point_start(to_exercise: float, to_continuation: float) -> tuple[int, float]:
    """(i_max, start) of pass 1, as _perpetual_sweep's docstring derives them.

    (0, 0.0), the walk from 0, where the bounds do not hold. With
    s = sqrt(1 - 4*tc*te), r1 = 2te/(1 + s) and rho = tc*r1^2/te = r1/r2 =
    (1 - s)/(1 + s). They need rho >= 1/2, so that te and tc are at least
    1/9 and nothing underflows, and s >= 2^-14, so that the rounding of
    1 - 4*tc*te moves s and 1 - rho = 2s/(1 + s) by under 2^-26 relative.
    """
    d = 1.0 - 4.0 * to_continuation * to_exercise
    if not 2.0**-28 <= d <= 1.0 / 9.0:
        return 0, 0.0
    s = math.sqrt(d)
    gap = 2.0 * s / (1.0 + s)
    start = 2.0 * to_exercise / (1.0 + s) * (1.0 - _START_MARGIN * _UNIT_ROUNDOFF / gap)
    # rho^j <= k/(1 + k) puts the exact iterate within (M - 4)u*r1/gap of r1,
    # M = _START_MARGIN; the other 4u*r1/gap cover the float walk's lag and the
    # rounding of r1, and the + 1 that of the logs
    k = (_START_MARGIN - 4.0) * _UNIT_ROUNDOFF / (gap * gap)
    return math.ceil(math.log1p(1.0 / k) / -math.log1p(-gap)) + 1, start


def _first_pass(
    to_exercise: float, to_continuation: float, first: int, ratio: float
) -> tuple[int, float]:
    """(top, B): pass 1 from `ratio` at node `first` until the map returns its input.

    top is the node where it does, or 0 if it does not by node 1.
    """
    for k in range(first, 0, -1):
        following = to_exercise / (1.0 - to_continuation * ratio)
        if following == ratio:
            return k, ratio
        ratio = following
    return 0, ratio


def _flip_node(
    spot: float, strike: float, x: float, u: float, step: float, ratio: float, at_spot: int,
    span: float,
) -> int | None:
    """The first node k >= 1 where pass 2's exercise test fails, or None where rounding could move it.

    With B = ratio and a = u - B for the put (step > 0) or 1/u - B for the
    call, the exact test at node k holds iff a*S_{k-1} > K(1 - B) (put) or
    a*S_{k-1} < K(1 - B) (call), so the guess is the first node past the
    root S_{k-1} = K(1 - B)/a. The float test payoff(k) < B*payoff(k - 1)
    is off from the exact one by at most e1*S_{k-1} + e2*K, with
    e1 = (span + 16)*u0*(u + 1), e2 = 8*u0, u0 = 2^-53 and span the largest
    |(k - at_spot)*dx| on the grid, given an exp within one ulp and S_k and
    K in the normal range; the margins cover the rounding of a and 1 - B
    too. So the two agree outside an interval of S around the root whose
    ends are in the ratio (1 - B + e2)(a + e1)/((1 - B - e2)(a - e1)).
    Where that is below 1 + (u - 1)/4, under one grid step after this
    check's own rounding, at most one node lies inside it, next to the
    root, and the float test flips exactly once: a guess that it confirms
    at k - 1 and k is the node a bisection finds. None elsewhere, a <= e1
    included (a call whose 1/u is below, at or just above B).
    """
    # the grid reaches at most e^(reach + dx) <= e^18 beyond the spot and the
    # strike, so these keep every S_k normal
    if not (1e-280 < min(spot, strike) and max(spot, strike) < 1e280):
        return None
    held = 1.0 - ratio
    slope = (u if step > 0.0 else 1.0 / u) - ratio
    e1 = (span + 16.0) * _UNIT_ROUNDOFF * (u + 1.0)
    e2 = 8.0 * _UNIT_ROUNDOFF
    if not (
        held > e2
        and slope > e1
        and (held + e2) * (slope + e1) < (held - e2) * (slope - e1) * (1.0 + 0.25 * (u - 1.0))
    ):
        return None
    return math.floor((math.log(held / slope) - x) / step) + at_spot + 2


def _bisect_flip(payoff, ratio: float, top: int) -> int:
    """The first node of 1..top where payoff(k) < ratio*payoff(k - 1), or top + 1, by bisection."""
    lo, hi = 1, top + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if payoff(mid) < ratio * payoff(mid - 1):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _perpetual_sweep(
    kind: OptionKind,
    spot: float,
    strike: float,
    growth: float,
    discount_rate: float,
    vol: float,
    steps: int,
) -> tuple[float, float]:
    """(value at the spot, exercise-boundary estimate) of the perpetual lattice.

    The grid is S_j = S*u^j with u = e^dx and CRR time step
    dt = (dx/sigma)^2, which fixes the up-probability p and the one-step
    discount b = e^{-R*dt}, R = discount_rate. dx is 12/steps, or less
    where R*dt would exceed 14/steps: the continuation value falls by
    about sqrt(2R*dt) per node, which must stay small when R is large
    against sigma^2. The grid spans log(S/K) from min(log(S/K), 0) - reach
    to max(log(S/K), 0) + reach, reach = steps*dx.

    The perpetual value is the fixed point
    V_j = max(g_j, b*(p*V_{j+1} + (1-p)*V_{j-1})) with payoff g. Nodes
    are numbered k = 0..n-1 from the deep-exercise end, so a call is the
    put's picture mirrored, with c the probability of a step toward
    continuation (k+1). Pass 1 runs from the far continuation end, where
    V = 0, and reduces each node to V_k = B_k*V_{k-1}; pass 2 runs from
    node 0, where V = g, and sets V_k = max(g_k, B_k*V_{k-1}) until the
    first continuation node. The boundary estimate is the geometric
    midpoint of the last exercised node and that one.

    B_k = b(1-c)/(1 - bc*B_{k+1}) is a fixed map, so once it returns the
    float it was given, every B_k below is that B and pass 1 stops, keeping
    only B and a node `top` at or below the one where B is first reached,
    nothing per node. On 1..top node k is exercised iff g_k >= B*g_{k-1},
    for the put iff (u - B)*S_{k-1} <= K*(1 - B), for the call iff
    (1/u - B)*S_{k-1} >= K*(1 - B): one flip as k rises, so the exercised
    nodes form a prefix. Pass 2 guesses its end from that condition
    (_flip_node), confirms the guess with the float test at the last
    exercised node and the first held one, and bisects for the end
    instead where the guess is refused or not confirmed; then it walks on
    above `top`. The B_k above `top`
    are rebuilt, from node n-1 by the same recurrence, only when pass 2
    first reads one, which the walk or the spot reaches on few grids.
    Any `top` at or below the first node with B gives the same floats,
    since the rebuilt ratios between the two are B as well.

    Pass 1 starts next to B, not at 0. With te = b(1-c) and tc = bc, the
    float map fl(te/fl(1 - fl(tc*B))) is monotone non-decreasing: each
    correctly rounded step is, and 1 - tc*B >= 1/2 below r1, the smaller
    root of tc*B^2 - B + te = 0. So the walk from 0 rises to the smallest
    float fixed point B, and so does a walk from any float at or below B.
    One step rounds by at most about 3u relative (u = 2^-53), and the
    slope below r1 is at most rho = tc*r1^2/te < 1, so the walk from 0
    stays within about 3u*r1/(1 - rho) of the exact iterate
    r1 - (r2 - r1)*rho^(j+1)/(1 - rho^(j+1)), and every float below
    r1*(1 - 3u/(1 - rho)) is moved up by the map: the start
    r1*(1 - 16u/(1 - rho)) is at or below B. The exact iterate bounds the
    steps i_max after which the walk from 0 is at or above the start; from
    there, by monotonicity, it stays at or above the walk from the start,
    so it reaches B within i_max + k steps if the walk from the start takes
    k. `top` is node n-1-(i_max + k). Where that is below 1, or where
    1 - rho < 2^-13 (near the double root) or rho < 1/2 puts the bounds
    out of reach, pass 1 walks from 0 as it always did.

    A limit: where dx is below about 1e-14, a grid step is below the
    rounding of the float exercise test, which can then flip more than
    once. The bisection assumes one flip, so its boundary node can differ
    from a full walk's by a few: in tests/test_oracle.py's case (a call at
    dx about 1e-15) the boundaries differ by 2.6e-15 relative and the
    prices agree bit for bit. A walk instead would visit every node, about
    1e14 of them for a spot far from the strike at such a dx.
    """
    dx = min(_REACH / steps, vol * math.sqrt(_DISCOUNT / (steps * discount_rate)))
    reach = steps * dx
    dt = (dx / vol) ** 2
    # p < 1 iff growth*dt < dx; checked first so exp(growth*dt) cannot overflow
    if not growth * dt < dx:
        raise ValidationError(
            f"lattice up-probability outside (0, 1): rate*dt = {growth * dt:.3e} "
            f">= dx = {dx:.3e}; raise steps or vol"
        )
    u = math.exp(dx)
    if u == 1.0:
        raise ValidationError(
            f"lattice spacing dx = {dx:.3e} at vol {vol!r} is below float resolution; "
            "raise vol"
        )
    p = (math.exp(growth * dt) - 1.0 / u) / (u - 1.0 / u)
    b = math.exp(-discount_rate * dt)
    # node j is the spot times e^(j*dx), |j*dx| <= |x| + reach + dx, so that
    # factor must be a float; a ratio that over- or underflows refuses too
    # (of the floats: a Fraction spot over a Fraction strike would stay exact)
    moneyness = float(spot) / float(strike)
    x = math.log(moneyness) if 0.0 < moneyness < math.inf else math.inf
    if not abs(x) + reach + dx < _LOG_MAX:
        raise ValidationError(
            f"spot-to-strike ratio {spot!r}/{strike!r} out of the lattice's range: "
            f"its grid would reach past e^{_LOG_MAX:.4g} or e^-{_LOG_MAX:.4g} times the spot"
        )
    below = math.ceil((max(x, 0.0) + reach) / dx)
    above = math.ceil((reach - min(x, 0.0)) / dx)
    if kind == OptionKind.PUT:
        sign, step, at_spot, c = -1.0, dx, below, p
    else:
        sign, step, at_spot, c = 1.0, -dx, above, 1.0 - p
    n = below + above + 1

    to_exercise, to_continuation = b * (1.0 - c), b * c
    i_max, start = _fixed_point_start(to_exercise, to_continuation)
    top, ratio = _first_pass(to_exercise, to_continuation, n - 1 - i_max, start)
    if top == 0 and i_max:
        # the bound left no node to land on: walk from the far end instead
        top, ratio = _first_pass(to_exercise, to_continuation, n - 1, 0.0)
    late = None

    def transient() -> list[float]:
        # pass 1 again, kept this time: B_k for k > top is late[n - 1 - k]
        nonlocal late
        if late is None:
            late, ratio_k = [], 0.0
            for _ in range(n - 1 - top):
                ratio_k = to_exercise / (1.0 - to_continuation * ratio_k)
                late.append(ratio_k)
        return late

    def payoff(k: int) -> float:
        return sign * (spot * math.exp((k - at_spot) * step) - strike)

    # lo is the first node of 1..top not exercised, or top + 1: the exercise
    # condition's guess where the test confirms it, else the bisection's
    lo = _flip_node(spot, strike, x, u, step, ratio, at_spot, n * dx)
    if lo is not None:
        lo = min(max(lo, 1), top + 1)
        value = payoff(lo - 1)
        if (lo > 1 and value < ratio * payoff(lo - 2)) or (
            lo <= top and not payoff(lo) < ratio * value
        ):
            lo = None
    if lo is None:
        lo = _bisect_flip(payoff, ratio, top)
        value = payoff(lo - 1)
    # lo <= top is a node found not exercised; above top walk on
    k = lo
    while top < k < n:
        g = payoff(k)
        if g < transient()[n - 1 - k] * value:
            break
        value, k = g, k + 1
    if k == 1:
        raise ConvergenceError(
            "lattice never reaches the exercise region: its first interior node "
            f"is not exercised (log-spot reach {reach:.3g}, spacing {dx:.3g})"
        )
    boundary = spot * math.exp((k - 0.5 - at_spot) * step)
    if at_spot < k:
        return payoff(at_spot), boundary
    # B once per node up to the spot's node or top; once one more factor B
    # leaves the value as it is, so do all the rest (an underflowed price,
    # say), which is tested once per 64 nodes to keep the loop itself bare
    first, stop = k, min(at_spot, top) + 1
    while first < stop and value * ratio != value:
        last = min(stop, first + 64)
        for _ in range(first, last):
            value *= ratio
        first = last
    for j in range(max(k, top + 1), at_spot + 1):
        value *= transient()[n - 1 - j]
    return value, boundary


def lattice_price(
    e: EquivalentPerpetual, m: MarketParams, cfg: LatticeConfig
) -> OracleReport:
    """Perpetual CRR lattice price and boundary of the equivalent perpetual American.

    The reported analytic price comes from the closed form for the
    original contract, reconstructed from the effective rates (the
    amortization rate is dividend_eff - rate, with rate preserved as
    rate_eff - dividend_eff). With cfg.convergence set, the lattice is
    solved again at cfg.steps // 2 and ConvergenceError is raised when
    the relative price change exceeds it. A spot-to-strike ratio whose
    grid would leave the float range raises ValidationError.
    """
    if not (type(e.rate_eff) is type(e.dividend_eff) is type(e.strike) is float
            and abs(e.rate_eff) < _INF and abs(e.dividend_eff) < _INF and abs(e.strike) < _INF):
        for name in ("rate_eff", "dividend_eff", "strike"):
            _require_finite(name, getattr(e, name))
    rate = e.rate_eff - e.dividend_eff
    # 2r+q and r+q round by half an ulp each: the rate is off by up to an ulp of rate_eff
    if abs(rate - m.rate) > 1e-12 * max(1.0, abs(m.rate)) + 2.0 * math.ulp(e.rate_eff):
        raise ValidationError(
            f"market rate {m.rate} inconsistent with effective rates "
            f"({e.rate_eff}, {e.dividend_eff})"
        )
    amort = e.dividend_eff - rate
    if amort <= 0:
        raise ValidationError(f"implied amort must be > 0, got {amort}")
    # the terms as ContractParams checks them: an int or Fraction amort may overflow a float
    _check_terms(e.strike, amort)
    kind = e.payoff_kind if isinstance(e.payoff_kind, OptionKind) else _member(OptionKind, e.payoff_kind)
    analytic = _closed_form(m, kind, e.strike, amort).premium

    def solve(steps: int) -> tuple[float, float]:
        return _perpetual_sweep(
            e.payoff_kind, m.spot, e.strike, rate, e.rate_eff, m.vol, steps
        )

    oracle, boundary = solve(cfg.steps)
    if cfg.convergence is not None:
        half, _ = solve(cfg.steps // 2)
        drift = abs(oracle - half) / max(abs(oracle), 1e-12)
        if drift > cfg.convergence:
            raise ConvergenceError(
                f"lattice not converged: halving steps moves the price by "
                f"{drift:.3e} (> {cfg.convergence:.3e})"
            )
    return OracleReport(
        oracle_price=oracle,
        analytic_price=analytic,
        rel_error=abs(oracle - analytic) / max(analytic, 1e-12),
        boundary_estimate=boundary,
    )


def pde_residual(
    m: MarketParams,
    c: ContractParams,
    spots,
    premium_scale: float = 1.0,
) -> list[float]:
    """Relative residual of the valuation ODE at each continuation spot.

    Evaluates (1/2) sigma^2 S^2 V'' + r*S*V' - (2r+q)*V with the
    analytic value and derivatives, normalized by (2r+q)*V. The exponents
    are solved once per call, or read from the last _evaluate when m and
    c.amort are its objects, and each spot is one _kernel evaluation; V,
    Delta and Gamma are the closed form's, _delta's and _gamma's floats.
    Each spot is checked as MarketParams checks it, without building one,
    before it is evaluated. `premium_scale` multiplies the zeroth-order
    value only; scaling it by 1.01 should surface a relative residual near
    0.01, a sanity check that the checker is live.
    """
    _require_finite("premium_scale", premium_scale)
    drift, discount = m.rate, 2.0 * m.rate + c.amort
    kind, strike = c.kind, c.strike
    q, ex = c.amort, _solved(m, c.amort)
    half_var = 0.5 * m.vol**2
    out = []
    for s in _require_iterable("spots", spots):
        spot = s
        if not (type(s) is float and 0.0 < s < _INF):
            _require_finite("spot", s)
            spot = float(s)
            _require_positive(("spot", spot))
        _, sign, alpha, gap, _, regime, premium, _, _ = _kernel(m, kind, strike, q, ex, spot)
        if regime is not _CONTINUATION:
            raise RegionError(f"spot {s} is outside the continuation region")
        v = premium_scale * premium
        dv = sign * alpha * premium / spot
        d2v = alpha * gap * (premium / spot) / spot
        if not d2v < math.inf:
            raise _out_of_range(m, "Gamma")
        curvature = half_var * spot * spot * d2v
        if not curvature < math.inf:
            # sigma^2*S*S overflows before Gamma scales it down (vol 1e60, S 3e122)
            curvature = half_var * (spot * (spot * d2v))
        resid = curvature + drift * spot * dv - discount * v
        out.append(abs(resid) / max(abs(discount * v), 1e-300))
    return out


def finite_difference(
    f, x: float, order: int = 1, mode: str = "central", step: float = 1e-6
) -> float:
    """Second-order-accurate finite difference of a scalar function.

    `step` is relative to |x| (absolute when x == 0) and must be finite and
    > 0, as must the stencil's denominator (2h or h^2); x must be finite.
    `mode="forward"` keeps the whole stencil on [x, +inf), useful near a
    kink to the left.
    """
    if order not in (1, 2):
        raise ValidationError(f"order must be 1 or 2, got {order}")
    if mode not in ("central", "forward"):
        raise ValidationError(f"mode must be 'central' or 'forward', got {mode!r}")
    if not (type(x) is float and abs(x) < _INF):
        _require_finite("x", x)
    try:
        in_range = 0.0 < step < math.inf
    except TypeError:
        in_range = False
    if not in_range:
        raise ValidationError(f"step must be finite and > 0, got {step!r}")
    h = step * (abs(x) if x != 0.0 else 1.0)
    den = 2.0 * h if order == 1 else h * h
    if not 0.0 < den < math.inf:
        raise ValidationError(
            f"step {step!r} at x = {x!r} gives a difference denominator of {den!r}"
        )
    if mode == "central":
        if order == 1:
            return (f(x + h) - f(x - h)) / den
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / den
    if order == 1:
        return (-3.0 * f(x) + 4.0 * f(x + h) - f(x + 2.0 * h)) / den
    return (2.0 * f(x) - 5.0 * f(x + h) + 4.0 * f(x + 2.0 * h) - f(x + 3.0 * h)) / den


def validate_checks(
    m: MarketParams, c: ContractParams, cfg: LatticeConfig, perturb: float = 1.0
) -> list[dict]:
    """Check the closed form against the lattice, the ODE and finite differences.

    One {"check", "value", "limit", "passed"} record per check: lattice_price
    (relative error, limit 5e-3) and lattice_boundary (0.02) on cfg, or one
    failed lattice_convergence record holding the ConvergenceError's message.
    In the continuation region: pde_residual (the worst of ten spots up to the
    boundary, premium times `perturb`; 1e-8), then fd_delta, fd_gamma and
    fd_vega (central first differences against delta, gamma and vega,
    relative to the Greek or, where it is smaller, to 1e-12 of its natural
    size V/S, V/S^2 or V/sigma; 1e-5). fd_delta and fd_vega difference
    price(...).premium at a bumped spot or vol; fd_gamma differences the
    analytic delta at a bumped spot, which keeps its digits where
    Gamma*S^2/V is tiny and needs no (h*S)^2 denominator. The residual reads the contract's solve, and price and
    delta re-price a bumped spot from the contract's exponents
    (pricing._evaluate), so the exponents are solved four times in all:
    for the contract, the lattice's analytic price and the two vols. A
    bumped spot or vol is a MarketParams, checked as any other; a put
    whose boundary underflows to 0 raises ValidationError.
    """
    _require_finite("perturb", perturb)
    f = _evaluate(m, c)
    checks = []

    def check(name: str, value: float, limit: float) -> None:
        checks.append({"check": name, "value": value, "limit": limit, "passed": value < limit})

    try:
        rep = lattice_price(to_equivalent_perpetual(c, m), m, cfg)
        check("lattice_price", rep.rel_error, 5e-3)
        if not f.boundary > 0.0:
            raise ValidationError(f"the {c.kind.value} boundary at strike {c.strike!r} "
                                  "underflows to 0: lattice_boundary is undefined")
        check("lattice_boundary", abs(rep.boundary_estimate - f.boundary) / f.boundary, 0.02)
    except ConvergenceError as exc:
        checks.append({"check": "lattice_convergence", "value": str(exc),
                       "limit": cfg.convergence, "passed": False})
    if f.regime != Regime.CONTINUATION:
        return checks

    lo, hi = sorted((m.spot, f.boundary))
    # from half the spot to just below the call's boundary, or from just
    # above the put's boundary to 1.5 times the spot
    a, b = (0.5 * lo, hi * 0.999) if c.kind == OptionKind.CALL else (lo * 1.001, 1.5 * hi)
    spots = [a + (b - a) * i / 9 for i in range(10)]
    if not spots[-1] < math.inf:  # (b - a) * i overflows past about 2e307
        b = min(b, sys.float_info.max)
        spots = [a + (b - a) * (i / 9) for i in range(10)]
    check("pde_residual", max(pde_residual(m, c, spots, premium_scale=perturb)), 1e-8)

    prem_of_spot = lambda s: price(MarketParams(s, m.rate, m.vol), c).premium
    delta_of_spot = lambda s: delta(MarketParams(s, m.rate, m.vol), c)
    prem_of_vol = lambda sig: price(MarketParams(m.spot, m.rate, sig), c).premium

    # the truncation error of the spot differences grows like (alpha*h)^2
    margin = abs(f.boundary - m.spot) / m.spot
    h = min(1e-4, 1e-3 / f.alpha, max(margin / 4.0, 1e-7))
    # with each Greek its natural size, so the error's floor scales with the contract
    v = f.premium
    fd_checks = (
        ("fd_delta", delta(m, c), finite_difference(prem_of_spot, m.spot, 1, "central", h), v / m.spot),
        ("fd_gamma", gamma(m, c), finite_difference(delta_of_spot, m.spot, 1, "central", h),
         v / m.spot / m.spot),
        ("fd_vega", vega(m, c), finite_difference(prem_of_vol, m.vol, 1, "central", 1e-4), v / m.vol),
    )
    for name, analytic, fd, size in fd_checks:
        # 5e-324 where the premium, and with it the Greek, underflows to 0
        check(name, abs(analytic - fd) / max(abs(analytic), 1e-12 * size, 5e-324), 1e-5)
    return checks
