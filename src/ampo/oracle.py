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
21:263). Its first pass stops at its recurrence's floating-point fixed
point and the second bisects below it for the exercise boundary, so most
nodes are never visited, with the same floats as a full walk.
`LatticeConfig.steps` sets the grid resolution. The sweep uses only the
lattice's own step constants and the payoff, never the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .params import (
    ContractParams,
    ConvergenceError,
    EquivalentPerpetual,
    MarketParams,
    OptionKind,
    Regime,
    RegionError,
    ValidationError,
    _require_finite,
)
from .greeks import _delta, _gamma, _vega
from .pricing import _closed_form, _evaluate, _exponents, ode_coefficients, to_equivalent_perpetual

# the grid spans at most 12 log-spot units beyond the spot and the
# strike, and its time step discounts by at most e^{-14/steps}
_REACH = 12.0
_DISCOUNT = 14.0


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice settings.

    `steps` is the grid resolution: the log-spot spacing is 12/steps, or
    finer where the discount rate is large against the variance.
    With `convergence` set, lattice_price raises ConvergenceError when
    halving `steps` moves the price by more than that relative amount.
    `horizon` is validated but not used, since the lattice is perpetual;
    it stays so that callers which still set it (perfbench/workloads.py)
    keep working. `horizon` and `convergence` must be finite and `steps`
    an int (not a bool).
    """

    horizon: float = 200.0
    steps: int = 4000
    convergence: float | None = None

    def __post_init__(self):
        _require_finite("horizon", self.horizon)
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be > 0, got {self.horizon}")
        if not isinstance(self.steps, int) or isinstance(self.steps, bool):
            raise ValidationError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValidationError(f"steps must be >= 2, got {self.steps}")
        if self.convergence is not None:
            _require_finite("convergence tolerance", self.convergence)
            if self.convergence <= 0:
                raise ValidationError(
                    f"convergence tolerance must be > 0, got {self.convergence}"
                )


@dataclass(frozen=True)
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


class _AtSpot(NamedTuple):
    """The market fields the closed form and its Greeks read, moved to one checked spot."""

    spot: float
    rate: float
    vol: float


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
    float it was given at some node `top`, every B_k with k <= top is
    that B and pass 1 stops. On 1..top node k is exercised iff
    g_k >= B*g_{k-1}, for the put iff (u - B)*S_{k-1} <= K*(1 - B) (the
    call mirrored): one flip as k rises, so the exercised nodes form a
    prefix and pass 2 bisects for its end, then walks on above `top`.
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
    x = math.log(spot / strike)
    below = math.ceil((max(x, 0.0) + reach) / dx)
    above = math.ceil((reach - min(x, 0.0)) / dx)
    if kind == OptionKind.PUT:
        sign, step, at_spot, c = -1.0, dx, below, p
    else:
        sign, step, at_spot, c = 1.0, -dx, above, 1.0 - p
    n = below + above + 1

    ratios = [0.0] * n
    to_exercise, to_continuation = b * (1.0 - c), b * c
    ratio, top = 0.0, 0
    for k in range(n - 1, 0, -1):
        following = to_exercise / (1.0 - to_continuation * ratio)
        if following == ratio:
            ratios[1 : k + 1] = [ratio] * k
            top = k
            break
        ratio = ratios[k] = following

    def payoff(k: int) -> float:
        return sign * (spot * math.exp((k - at_spot) * step) - strike)

    lo, hi = 1, top + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if payoff(mid) < ratio * payoff(mid - 1):
            hi = mid
        else:
            lo = mid + 1
    value, k = payoff(lo - 1), lo
    while k < n:
        g = payoff(k)
        if g < ratios[k] * value:
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
    for j in range(k, at_spot + 1):
        value *= ratios[j]
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
    the relative price change exceeds it.
    """
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
    contract = ContractParams(strike=e.strike, amort=amort, kind=e.payoff_kind)
    analytic = _closed_form(m, contract.kind, contract.strike, amort).premium

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

    Evaluates (1/2) sigma^2 S^2 V'' + drift*S*V' - discount*V with the
    analytic value and derivatives, all from one closed-form evaluation
    per spot on one exponent solve (the exponents do not depend on the
    spot), normalized by discount*V. Each spot is checked as MarketParams
    checks it, without building one. The coefficients come from
    ode_coefficients. `premium_scale` multiplies the zeroth-order value
    only; scaling it by 1.01 should surface a relative residual near 0.01,
    a sanity check that the checker is live.
    """
    drift, discount = ode_coefficients(m, c.amort)
    ex = _exponents(m, c.amort)
    out = []
    for s in spots:
        spot = float(s)
        _require_finite("spot", spot)
        if spot <= 0:
            raise ValidationError(f"spot must be > 0, got {spot}")
        ms = _AtSpot(spot, m.rate, m.vol)
        f = _closed_form(ms, c.kind, c.strike, c.amort, ex)
        if f.regime != Regime.CONTINUATION:
            raise RegionError(f"spot {s} is outside the continuation region")
        v = premium_scale * f.premium
        dv = _delta(f, ms)
        d2v = _gamma(f, ms)
        curvature = 0.5 * m.vol**2 * s * s * d2v
        if not curvature < math.inf:
            # sigma^2*S*S overflows before Gamma scales it down (vol 1e60, S 3e122)
            curvature = 0.5 * m.vol**2 * (s * (s * d2v))
        resid = curvature + drift * s * dv - discount * v
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
    _require_finite("x", x)
    if not 0.0 < step < math.inf:
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
    fd_vega (central differences of the premium against the Greeks; 1e-5).
    """
    f = _evaluate(m, c)
    checks = []

    def check(name: str, value: float, limit: float) -> None:
        checks.append({"check": name, "value": value, "limit": limit, "passed": value < limit})

    try:
        rep = lattice_price(to_equivalent_perpetual(c, m), m, cfg)
        check("lattice_price", rep.rel_error, 5e-3)
        check("lattice_boundary", abs(rep.boundary_estimate - f.boundary) / f.boundary, 0.02)
    except ConvergenceError as exc:
        checks.append({"check": "lattice_convergence", "value": str(exc),
                       "limit": cfg.convergence, "passed": False})
    if f.regime != Regime.CONTINUATION:
        return checks

    lo, hi = sorted((m.spot, f.boundary))
    if c.kind == OptionKind.CALL:
        spots = [0.5 * lo + (hi * 0.999 - 0.5 * lo) * i / 9 for i in range(10)]
    else:
        spots = [lo * 1.001 + (1.5 * hi - lo * 1.001) * i / 9 for i in range(10)]
    check("pde_residual", max(pde_residual(m, c, spots, premium_scale=perturb)), 1e-8)

    def prem_of_spot(s: float) -> float:
        return _closed_form(_AtSpot(s, m.rate, m.vol), c.kind, c.strike, c.amort).premium

    def prem_of_vol(sig: float) -> float:
        return _closed_form(_AtSpot(m.spot, m.rate, sig), c.kind, c.strike, c.amort).premium

    # the truncation error of the spot differences grows like (alpha*h)^2
    margin = abs(f.boundary - m.spot) / m.spot
    h = min(1e-4, 1e-3 / f.alpha, max(margin / 4.0, 1e-7))
    fd_checks = (
        ("fd_delta", _delta(f, m), finite_difference(prem_of_spot, m.spot, 1, "central", h)),
        ("fd_gamma", _gamma(f, m), finite_difference(prem_of_spot, m.spot, 2, "central", h)),
        ("fd_vega", _vega(f, m, c.amort), finite_difference(prem_of_vol, m.vol, 1, "central", 1e-4)),
    )
    for name, analytic, fd in fd_checks:
        check(name, abs(analytic - fd) / max(abs(analytic), 1e-12), 1e-5)
    return checks
