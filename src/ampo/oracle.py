"""Independent numerical ground truth for the closed forms.

Three tools: a free-boundary CRR lattice that prices the equivalent
dividend-paying perpetual American option by backward induction with
early exercise, a residual checker for the valuation ODE, and a generic
finite-difference engine used by the Greek and statics test suites.

The perpetual horizon is truncated: with effective discount rate R > 0
the truncation bias decays like e^{-R T} K, so inducting over
T = min(horizon, 14/R) keeps it far below the 0.5% price tolerance
(e^{-14} < 1e-6 of the strike) while minimizing the time step a fixed
step budget buys. Raw CRR values oscillate with the step count, so the
lattice prices an (N, N+1) pair and averages.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .params import (
    ContractParams,
    ConvergenceError,
    EquivalentPerpetual,
    MarketParams,
    OptionKind,
    Regime,
    RegionError,
    ValidationError,
)
from .greeks import delta as greek_delta
from .greeks import gamma as greek_gamma
from .pricing import ode_coefficients, price


@dataclass(frozen=True)
class LatticeConfig:
    horizon: float = 200.0
    steps: int = 4000
    convergence: float | None = None
    richardson: bool = False

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be > 0, got {self.horizon}")
        if self.steps < 2:
            raise ValidationError(f"steps must be >= 2, got {self.steps}")
        if self.convergence is not None and self.convergence <= 0:
            raise ValidationError(
                f"convergence tolerance must be > 0, got {self.convergence}"
            )


@dataclass(frozen=True)
class OracleReport:
    oracle_price: float
    analytic_price: float
    rel_error: float
    boundary_estimate: float


def _induct(
    kind: OptionKind,
    spot: float,
    strike: float,
    growth: float,
    discount_rate: float,
    vol: float,
    horizon: float,
    steps: int,
    probe_levels: tuple[int, ...] = (),
):
    """One CRR backward induction; returns (root value, probe snapshots).

    Log prices are clipped at +-600 before exponentiation so deep lattice
    wings saturate instead of overflowing. Probe snapshots record
    (spot, value, intrinsic) arrays at the requested time levels for the
    boundary estimator.
    """
    import numpy as np  # deferred: only the lattice needs numpy

    dt = horizon / steps
    logu = vol * math.sqrt(dt)
    u = math.exp(logu)
    d = 1.0 / u
    disc = math.exp(-discount_rate * dt)
    p = (math.exp(growth * dt) - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise ValidationError(
            f"lattice up-probability {p} outside (0, 1); refine the step size"
        )
    # all prices the lattice can visit, on the 2*steps+1 point log grid
    offsets = np.arange(2 * steps + 1) - steps
    s_all = np.exp(np.clip(math.log(spot) + offsets * logu, -600.0, 600.0))
    if kind == OptionKind.CALL:
        intr_all = np.maximum(s_all - strike, 0.0)
    else:
        intr_all = np.maximum(strike - s_all, 0.0)
    probe_set = frozenset(probe_levels)
    probes = {}
    vals = intr_all[0::2].copy()
    for i in range(steps - 1, -1, -1):
        sl = slice(steps - i, steps + i + 1, 2)
        cont = disc * (p * vals[1 : i + 2] + (1.0 - p) * vals[: i + 1])
        vals = np.maximum(cont, intr_all[sl])
        if i in probe_set:
            probes[i] = (s_all[sl], vals.copy(), intr_all[sl])
    return float(vals[0]), probes


def _boundary_from_probes(kind: OptionKind, probes: dict) -> float:
    """Exercise-boundary estimate via power-law fit plus smooth pasting.

    Continuation values follow V = c S^m locally; averaging aligned nodes
    across adjacent probe levels damps the odd/even oscillation, a log-log
    line fit recovers (c, m), and tangency of c S^m with the payoff gives
    log S_bar = (log c + log|m|) / (1 - m). Returns NaN when too few
    clean continuation nodes are available.
    """
    import numpy as np  # deferred: only the lattice needs numpy

    levels = sorted(probes)
    i0 = levels[0]
    n0 = i0 + 1
    s, _, intr = probes[i0]
    vals = [probes[i][1][(i - i0) // 2 : (i - i0) // 2 + n0] for i in levels]
    v = np.mean(vals, axis=0)
    good = (v > intr + np.maximum(0.02 * v, 1e-9)) & (v > 0)
    idx = np.where(good)[0]
    if len(idx) < 4:
        return math.nan
    if kind == OptionKind.CALL:
        frontier = s[idx[-1]]
        sel = idx[s[idx] >= 0.45 * frontier]
    else:
        frontier = s[idx[0]]
        sel = idx[s[idx] <= 2.2 * frontier]
    if len(sel) < 4:
        return math.nan
    slope, icept = np.polyfit(np.log(s[sel]), np.log(v[sel]), 1)
    if kind == OptionKind.CALL and slope <= 1.0:
        return math.nan
    if kind == OptionKind.PUT and slope >= 0.0:
        return math.nan
    return math.exp((icept + math.log(abs(slope))) / (1.0 - slope))


def _pair_average(
    e: EquivalentPerpetual, m: MarketParams, horizon: float, steps: int, probes=False
):
    growth = e.rate_eff - e.dividend_eff
    base = max(4, steps // 20)
    levels = tuple(base + 2 * k for k in range(5)) if probes else ()
    v1, pr = _induct(
        e.payoff_kind, m.spot, e.strike, growth, e.rate_eff, m.vol, horizon, steps, levels
    )
    v2, _ = _induct(
        e.payoff_kind, m.spot, e.strike, growth, e.rate_eff, m.vol, horizon, steps + 1
    )
    return 0.5 * (v1 + v2), pr


def lattice_price(
    e: EquivalentPerpetual, m: MarketParams, cfg: LatticeConfig
) -> OracleReport:
    """Free-boundary lattice price of the equivalent perpetual American.

    The reported analytic price comes from the closed form for the
    original contract, reconstructed from the effective rates (the
    amortization rate is dividend_eff - rate, with rate preserved as
    rate_eff - dividend_eff).
    """
    rate = e.rate_eff - e.dividend_eff
    if abs(rate - m.rate) > 1e-12 * max(1.0, abs(m.rate)):
        raise ValidationError(
            f"market rate {m.rate} inconsistent with effective rates "
            f"({e.rate_eff}, {e.dividend_eff})"
        )
    amort = e.dividend_eff - rate
    if amort <= 0:
        raise ValidationError(f"implied amort must be > 0, got {amort}")
    contract = ContractParams(strike=e.strike, amort=amort, kind=e.payoff_kind)
    analytic = price(m, contract).premium

    horizon = min(cfg.horizon, 14.0 / e.rate_eff)
    full, probes = _pair_average(e, m, horizon, cfg.steps, probes=True)
    oracle = full
    if cfg.convergence is not None or cfg.richardson:
        half, _ = _pair_average(e, m, horizon, cfg.steps // 2)
        if cfg.convergence is not None:
            drift = abs(full - half) / max(abs(full), 1e-12)
            if drift > cfg.convergence:
                raise ConvergenceError(
                    f"lattice not converged: halving steps moves the price by "
                    f"{drift:.3e} (> {cfg.convergence:.3e})"
                )
        if cfg.richardson:
            oracle = full + (full - half)
    boundary = _boundary_from_probes(e.payoff_kind, probes)
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
    analytic value and derivatives, normalized by discount*V. The
    coefficients come from ode_coefficients. `premium_scale` multiplies
    the zeroth-order value only; scaling it by 1.01 should surface a
    relative residual near 0.01, a sanity check that the checker is live.
    """
    drift, discount = ode_coefficients(m, c.amort)
    out = []
    for s in spots:
        ms = dataclasses.replace(m, spot=float(s))
        quote = price(ms, c)
        if quote.regime != Regime.CONTINUATION:
            raise RegionError(f"spot {s} is outside the continuation region")
        v = premium_scale * quote.premium
        dv = greek_delta(ms, c)
        d2v = greek_gamma(ms, c)
        resid = 0.5 * m.vol**2 * s * s * d2v + drift * s * dv - discount * v
        out.append(abs(resid) / max(abs(discount * v), 1e-300))
    return out


def finite_difference(
    f, x: float, order: int = 1, mode: str = "central", step: float = 1e-6
) -> float:
    """Second-order-accurate finite difference of a scalar function.

    `step` is relative to |x| (absolute when x == 0). `mode="forward"`
    keeps the whole stencil on [x, +inf), useful near a kink to the left.
    """
    if order not in (1, 2):
        raise ValidationError(f"order must be 1 or 2, got {order}")
    if mode not in ("central", "forward"):
        raise ValidationError(f"mode must be 'central' or 'forward', got {mode!r}")
    h = step * (abs(x) if x != 0.0 else 1.0)
    if mode == "central":
        if order == 1:
            return (f(x + h) - f(x - h)) / (2.0 * h)
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    if order == 1:
        return (-3.0 * f(x) + 4.0 * f(x + h) - f(x + 2.0 * h)) / (2.0 * h)
    return (2.0 * f(x) - 5.0 * f(x + h) + 4.0 * f(x + 2.0 * h) - f(x + 3.0 * h)) / (
        h * h
    )
