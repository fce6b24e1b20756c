"""Independent numerical ground truth for the closed forms.

Three tools: a free-boundary CRR lattice that prices the equivalent
dividend-paying perpetual American option, a residual checker for the
valuation ODE, and a generic finite-difference engine used by the Greek
and statics test suites. validate_checks runs all three against the
closed form of one contract; `ampo validate` prints its records.

The lattice is perpetual, not truncated in time: on a fixed log-spot
grid its value is the fixed point of one CRR step with early exercise.
Its continuation values follow a three-point recurrence with constant
coefficients (Brennan & Schwartz 1977, J. Finance 32:449; proved correct
for the American put by Jaillet, Lamberton & Lapeyre 1990, Acta Appl.
Math. 21:263), which is solved in closed form: the ratio of neighbouring
values from the roots of its quadratic, the exercise boundary from the
exercise condition in logs, and the value at the spot as one power of the
smaller root times a factor for the grid's far end. Apart from a few
nodes near that end, tested one by one, the work is the same at any
`LatticeConfig.steps`, which sets the grid resolution. The solve
uses only the lattice's own step constants and the payoff, never the
closed form.
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
    _store,
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
    keep working. `horizon` and `convergence` are positive inputs, held
    as their floats, and `steps` an int (not a bool).
    """

    horizon: float = 200.0
    steps: int = 4000
    convergence: float | None = None

    def __post_init__(self):
        _store(self, horizon=_require_positive(("horizon", self.horizon))[0])
        if not isinstance(self.steps, int) or isinstance(self.steps, bool):
            raise ValidationError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValidationError(f"steps must be >= 2, got {self.steps}")
        if self.convergence is not None:
            _store(self, convergence=_require_positive(("convergence tolerance", self.convergence))[0])


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


def _log(v: float) -> float:
    """log(v), or -inf where v is 0."""
    return math.log(v) if v > 0.0 else -math.inf


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
    continuation (k+1). The payoff is g_k = -/+K*expm1(log(S_k/K)), finite
    where S_k passes the largest float but S_k - K does not. From the far
    end, where V = 0, the continuation value is V_k = B_k*V_{k-1} with
    B_k = te/(1 - tc*B_{k+1}), te = b(1-c), tc = bc, and from node 0,
    where V = g, nodes are exercised up to the first k with
    g_k < B_k*g_{k-1}. That recurrence has constant coefficients, so it is
    solved in closed form: with r1 = 2te/(1 + s) the smaller root of
    tc*B^2 - B + te = 0, s^2 = 1 - 4*tc*te and
    rho = r1/r2 = 4*tc*te/(1 + s)^2, B_k = r1*(1 - rho^m)/(1 - rho^(m+1))
    at m = n - k nodes from the far end.

    Where B_k is r1, node k is exercised iff (u - r1)*S_{k-1} <= K(1 - r1)
    for the put, (1/u - r1)*S_{k-1} >= K(1 - r1) for the call: so the
    exercised nodes form a prefix, whose end comes from that condition in
    logs. Near the far end B_k is below r1 and may exercise a few nodes
    more, which are tested one by one with the exact B_k. The value past
    the last exercised node k0 is g_{k0} times the product of the B_k up
    to the spot's node, which telescopes to
    r1^(at - k0)*(1 - rho^(n - at))/(1 - rho^(n - k0)). The boundary
    estimate is the geometric midpoint of node k0 and the next.
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
    x = math.log(spot / strike) if 0.0 < spot / strike < math.inf else math.inf
    if not abs(x) + reach + dx < _LOG_MAX:
        raise ValidationError(
            f"spot-to-strike ratio {spot!r}/{strike!r} out of the lattice's range: "
            f"its grid would reach past e^{_LOG_MAX:.4g} or e^-{_LOG_MAX:.4g} times the spot"
        )
    below = math.ceil((max(x, 0.0) + reach) / dx)
    above = math.ceil((reach - min(x, 0.0)) / dx)
    if kind == OptionKind.PUT:
        sign, step, at_spot, c, grow = -1.0, dx, below, p, u
    else:
        sign, step, at_spot, c, grow = 1.0, -dx, above, 1.0 - p, 1.0 / u
    n = below + above + 1

    def payoff(k: int) -> float:
        return sign * strike * math.expm1(x + (k - at_spot) * step)

    to_exercise, to_continuation = b * (1.0 - c), b * c
    # s^2 = 1 - 4*tc*te = (1 - b^2) + (b(1 - 2c))^2, summed without cancellation
    s = math.sqrt(-math.expm1(-2.0 * discount_rate * dt) + (b * (1.0 - 2.0 * c)) ** 2)
    r1 = 2.0 * to_exercise / (1.0 + s)
    # rho is 1 at the double root, where (1 - rho^i)/(1 - rho^j) tends to i/j:
    # a log rho of -1e-300 gives that ratio of expm1s without dividing 0 by 0
    log_rho = min(_log(4.0 * to_continuation * to_exercise) - 2.0 * math.log1p(s), -1e-300)
    held, slope = 1.0 - r1, grow - r1
    # k is the first node not exercised where B_k is r1; where held or slope is
    # not positive no node is: r1 >= 1 holds every node, since g_k < g_{k-1},
    # and so does a call's 1/u <= r1
    k = 1
    if held > 0.0 and slope > 0.0:
        t = (math.log(held / slope) - x) / step
        k = min(max(math.floor(min(max(t, -n), n)) + at_spot + 2, 1), n)
    # then the far end's B_k, below r1 where rho^(n - k) is above 2^-53
    while k < n and (n - k) * log_rho > -37.0:
        ratio = r1 * math.expm1((n - k) * log_rho) / math.expm1((n - k + 1) * log_rho)
        if payoff(k) < ratio * payoff(k - 1):
            break
        k += 1
    if k == 1:
        raise ConvergenceError(
            "lattice never reaches the exercise region: its first interior node "
            f"is not exercised (log-spot reach {reach:.3g}, spacing {dx:.3g})"
        )
    boundary = spot * math.exp((k - 0.5 - at_spot) * step)
    if at_spot < k:
        return payoff(at_spot), boundary
    # g_{k0}*r1^(at - k0)*far in logs, so that no factor over- or underflows
    # alone; far is at least 1e-300, and the value at most K or about S
    k0 = k - 1
    far = math.expm1((n - at_spot) * log_rho) / math.expm1((n - k0) * log_rho)
    log_value = (_log(abs(math.expm1(x + (k0 - at_spot) * step))) + math.log(strike)
                 + (at_spot - k0) * _log(r1) + math.log(far))
    return math.exp(min(log_value, _LOG_MAX)), boundary


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
    rate_eff, dividend_eff, strike = e.rate_eff, e.dividend_eff, e.strike
    if not (type(rate_eff) is type(dividend_eff) is type(strike) is float
            and abs(rate_eff) < _INF and abs(dividend_eff) < _INF and abs(strike) < _INF):
        rate_eff, dividend_eff, strike = (
            _require_finite(name, getattr(e, name)) for name in ("rate_eff", "dividend_eff", "strike")
        )
    rate = rate_eff - dividend_eff
    # 2r+q and r+q round by half an ulp each: the rate is off by up to an ulp of rate_eff
    if abs(rate - m.rate) > 1e-12 * max(1.0, abs(m.rate)) + 2.0 * math.ulp(rate_eff):
        raise ValidationError(
            f"market rate {m.rate} inconsistent with effective rates "
            f"({e.rate_eff}, {e.dividend_eff})"
        )
    amort = dividend_eff - rate
    if amort <= 0:
        raise ValidationError(f"implied amort must be > 0, got {amort}")
    strike, amort = _check_terms(strike, amort)
    kind = e.payoff_kind if isinstance(e.payoff_kind, OptionKind) else _member(OptionKind, e.payoff_kind)
    analytic = _closed_form(m, kind, strike, amort).premium
    oracle, boundary = _perpetual_sweep(kind, m.spot, strike, rate, rate_eff, m.vol, cfg.steps)
    if cfg.convergence is not None:
        half, _ = _perpetual_sweep(kind, m.spot, strike, rate, rate_eff, m.vol, cfg.steps // 2)
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
    premium_scale = _require_finite("premium_scale", premium_scale)
    drift, discount = m.rate, 2.0 * m.rate + c.amort
    kind, strike = c.kind, c.strike
    q, ex = c.amort, _solved(m, c.amort)
    half_var = 0.5 * m.vol**2
    out = []
    for s in _require_iterable("spots", spots):
        spot = s
        if not (type(s) is float and 0.0 < s < _INF):
            (spot,) = _require_positive(("spot", _require_finite("spot", s)))
        _, sign, alpha, gap, _, regime, premium, _, _ = _kernel(m, kind, strike, q, ex, spot)
        if regime is not _CONTINUATION:
            raise RegionError(f"spot {spot} is outside the continuation region")
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
    """Central finite difference of a scalar function, order 1 or 2.

    Both stencils are second-order accurate. `step` is relative to |x|
    (absolute when x == 0) and must be finite and > 0, as must the
    stencil's denominator (2h or h^2); x must be finite. `mode` accepts
    only "central"; it stays so that callers which pass it positionally
    (perfbench/workloads.py) keep working.
    """
    if order not in (1, 2):
        raise ValidationError(f"order must be 1 or 2, got {order}")
    if mode != "central":
        raise ValidationError(f"mode must be 'central', got {mode!r}")
    if not (type(x) is float and abs(x) < _INF):
        x = _require_finite("x", x)
    try:
        h = step if type(step) is float else _require_finite("step", step)
    except ValidationError:
        h = math.nan
    if not 0.0 < h < _INF:
        raise ValidationError(f"step must be finite and > 0, got {step!r}")
    h *= abs(x) if x != 0.0 else 1.0
    den = 2.0 * h if order == 1 else h * h
    if not 0.0 < den < math.inf:
        raise ValidationError(
            f"step {step!r} at x = {x!r} gives a difference denominator of {den!r}"
        )
    if order == 1:
        return (f(x + h) - f(x - h)) / den
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / den


def validate_checks(
    m: MarketParams, c: ContractParams, cfg: LatticeConfig, perturb: float = 1.0
) -> list[dict]:
    """Check the closed form against the lattice, the ODE and finite differences.

    One {"check", "value", "limit", "passed"} record per check: lattice_price
    (relative error, limit 5e-3) and lattice_boundary (0.02; where the closed
    form's boundary alpha*K/gap overflows, |estimate/K*(gap/alpha) - 1|) on
    cfg, or one failed lattice_convergence record holding the
    ConvergenceError's message.
    In the continuation region: pde_residual (the worst of ten spots up to the
    boundary, premium times `perturb`; 1e-8), then fd_delta, fd_gamma and
    fd_vega (central first differences against delta, gamma and vega,
    relative to the Greek or, where it is smaller, to 1e-12 of its natural
    size V/S, V/S^2 or V/sigma; 1e-5). fd_delta and fd_vega difference
    price(...).premium at a bumped spot or vol; fd_gamma differences the
    analytic delta at a bumped spot, which keeps its digits where
    Gamma*S^2/V is tiny and needs no (h*S)^2 denominator. The residual
    reads the contract's solve, and price and delta re-price a bumped spot
    from the contract's exponents (pricing._evaluate), so the exponents are
    solved four times in all: for the contract, the lattice's analytic
    price and the two vols. A bumped spot or vol is a MarketParams, checked
    as any other; a put whose boundary underflows to 0 raises
    ValidationError.
    """
    perturb = _require_finite("perturb", perturb)
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
        err = (abs(rep.boundary_estimate - f.boundary) / f.boundary if f.boundary < _INF
               else abs(rep.boundary_estimate / c.strike * (f.gap / f.alpha) - 1.0))
        check("lattice_boundary", err, 0.02)
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
        ("fd_delta", delta(m, c), finite_difference(prem_of_spot, m.spot, step=h), v / m.spot),
        ("fd_gamma", gamma(m, c), finite_difference(delta_of_spot, m.spot, step=h), v / m.spot / m.spot),
        ("fd_vega", vega(m, c), finite_difference(prem_of_vol, m.vol, step=1e-4), v / m.vol),
    )
    for name, analytic, fd, size in fd_checks:
        # 5e-324 where the premium, and with it the Greek, underflows to 0
        check(name, abs(analytic - fd) / max(abs(analytic), 1e-12 * size, 5e-324), 1e-5)
    return checks
