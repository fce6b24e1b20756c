"""Pricing and analytics for amortizing perpetual options.

Names resolve on first use (PEP 562): `import ampo` loads no submodule,
and the first access to an exported name, or to a submodule such as
`ampo.oracle`, imports the module that defines it and caches the value
here, so each later lookup is a plain module attribute.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "MaturityResult", "OptimizationResult", "RatioPoint", "StrategyKind",
        "StrategySpec", "effective_maturity", "effective_notional_curve",
        "optimize_q", "positional_vega", "ratio_study",
    ),
    "greeks": (
        "DatedGreeksReport", "GreeksReport", "dated_bs_call", "delta", "gamma",
        "greeks_report", "theta_economic", "vega",
    ),
    "oracle": (
        "LatticeConfig", "OracleReport", "finite_difference", "lattice_price",
        "pde_residual", "validate_checks",
    ),
    "params": (
        "AmortizationSchedule", "AmpoError", "ContractParams", "ConvergenceError",
        "EquivalentPerpetual", "Exponents", "MarketParams", "NoSolutionError",
        "OptionKind", "Quote", "Regime", "RegionError", "ValidationError",
        "intrinsic_value",
    ),
    "pricing": (
        "compute_exponents", "exercise_boundary", "notional_at", "price",
        "to_equivalent_perpetual",
    ),
    "statics": (
        "LimitReport", "MixedPartialFactors", "StaticsReport", "d_boundary_dq",
        "d_premium_dq", "d2_premium_dsigma_dq", "limit_suite",
        "mixed_partial_factors", "statics_report",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
