"""Property tests over the whole valid input domain, far beyond the
conftest box: rate 0 or 1e-6..2, vol 1e-4..5, amort 1e-8..1e5, spot
1e-3..1e5 and strike 1e-2..1e4, each drawn log-uniformly."""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ampo import (
    AmpoError,
    ContractParams,
    MarketParams,
    NoSolutionError,
    OptionKind,
    Regime,
    StrategyKind,
    StrategySpec,
    compute_exponents,
    dated_bs_call,
    delta,
    effective_maturity,
    greeks_report,
    intrinsic_value,
    limit_suite,
    pde_residual,
    positional_vega,
    price,
    statics_report,
    vega,
)
from ampo import oracle
from test_oracle import _NEAR_DOUBLE_ROOT, _REBUILT, _linear_sweep

EPS = sys.float_info.epsilon


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _floats(values):
    for v in values:
        if isinstance(v, tuple):
            yield from _floats(v)
        elif isinstance(v, float):
            yield v


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
    kind=st.sampled_from(OptionKind),
)
def test_closed_forms_over_full_domain(rate, vol, q, spot, strike, kind):
    m = MarketParams(spot=spot, rate=rate, vol=vol)
    c = ContractParams(strike=strike, amort=q, kind=kind)
    records = {}
    for fn in (price, greeks_report, statics_report, limit_suite):
        try:
            record = fn(m, c)
        except AmpoError:
            # only AmpoError may leave the library, and only where the
            # contract says so: statics off the continuation region, and
            # the q = 0 limit at rate 0 where the exponents degenerate
            if fn is statics_report:
                assert price(m, c).regime == Regime.EXERCISE_NOW
            else:
                assert fn is limit_suite and rate == 0.0
            continue
        values = list(_floats(dataclasses.astuple(record)))
        assert all(math.isfinite(v) for v in values), (fn.__name__, record)
        records[fn] = record

    # the premium exp(s*alpha*L) carries about alpha ulps: L is the log of
    # a ratio that rounds once, so it is off by about an ulp, times alpha
    ex = compute_exponents(m, q)
    alpha = ex.alpha_c if kind == OptionKind.CALL else ex.alpha_p
    tol = 16.0 * EPS * (1.0 + alpha)

    # comparative statics in q on the continuation region: the premium
    # falls with q, and the boundary moves toward the strike
    statics = records.get(statics_report)
    if statics is not None:
        assert statics.d_premium_dq <= 0.0
        if kind == OptionKind.CALL:
            assert statics.d_boundary_dq < 0.0
        else:
            assert statics.d_boundary_dq > 0.0
        doubled = price(m, dataclasses.replace(c, amort=2.0 * q)).premium
        assert doubled <= records[price].premium * (1.0 + tol)

    # value matching and smooth pasting at the boundary, to the same tolerance
    on = dataclasses.replace(m, spot=price(m, c).boundary)
    quote = price(on, c)
    assert quote.regime == Regime.CONTINUATION
    intrinsic = intrinsic_value(kind, on.spot, strike)
    assert abs(quote.premium - intrinsic) <= tol * intrinsic
    target = 1.0 if kind == OptionKind.CALL else -1.0
    assert abs(delta(on, c) - target) <= tol


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
)
def test_effective_maturity_over_full_domain(rate, vol, q, spot, strike):
    # either NoSolutionError or a positive maturity whose dated call
    # matches the AmPO premium to 1e-10, and to 1e-7 relative where the
    # premium is a normal float; no other exception may escape. The solve
    # stops on a step in T, so the relative residual grows with the
    # elasticity of the dated premium, about log(1/premium): its worst was
    # 2.1e-8 over 60,000 random draws from this domain. Subnormal premia
    # carry no relative precision.
    m = MarketParams(spot=spot, rate=rate, vol=vol)
    try:
        res = effective_maturity(m, strike, q)
    except NoSolutionError:
        return
    assert res.effective_maturity > 0.0
    call = ContractParams(strike=strike, amort=q, kind=OptionKind.CALL)
    dated = dated_bs_call(m, strike, res.effective_maturity)
    target = price(m, call).premium
    assert abs(dated.premium - target) <= 1e-10
    if target >= sys.float_info.min:
        assert abs(dated.premium - target) <= 1e-7 * target


def _positional_vega_from_views(m, strike, spec, q):
    # the documented ratio from the public views, summed call then put;
    # budget * (vega / premium) only where budget * vega overflows
    legs = ("call", "put") if spec.kind is StrategyKind.STRADDLE else (spec.kind.value,)
    prem = veg = 0.0
    for kind in legs:
        c = ContractParams(strike=strike, amort=q, kind=kind)
        prem += price(m, c).premium
        veg += vega(m, c)
    if prem < 1e-12:
        raise NoSolutionError(f"degenerate strategy: premium {prem} below 1e-12")
    scaled = spec.budget * veg
    return scaled / prem if math.isfinite(scaled) else spec.budget * (veg / prem)


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except AmpoError as e:
        return type(e), str(e)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
    # budgets of 1e305-1e307 make budget * vega overflow where the ratio is finite
    budget=st.one_of(log_uniform(1e-3, 1e3), log_uniform(1e305, 1e307)),
)
def test_positional_vega_over_full_domain(rate, vol, q, spot, strike, budget):
    # the kernel's value is the views' ratio bit for bit, or both raise the
    # same AmpoError; nothing else may escape
    m = MarketParams(spot=spot, rate=rate, vol=vol)
    for kind in StrategyKind:
        spec = StrategySpec(kind=kind, budget=budget)
        got = _outcome(positional_vega, m, strike, spec, q)
        assert got == _outcome(_positional_vega_from_views, m, strike, spec, q), kind


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
    kind=st.sampled_from(OptionKind),
)
def test_pde_residual_over_full_domain(rate, vol, q, spot, strike, kind):
    # at a continuation spot the closed form solves the valuation ODE to
    # 1e-8 relative, or the checker raises an AmpoError; nothing else escapes
    m = MarketParams(spot=spot, rate=rate, vol=vol)
    c = ContractParams(strike=strike, amort=q, kind=kind)
    try:
        if price(m, c).regime != Regime.CONTINUATION:
            return
        residual = pde_residual(m, c, [spot])[0]
    except AmpoError:
        return
    assert residual < 1e-8, residual


def _grid_nodes(spot, strike, discount_rate, vol, steps):
    # the node count n of oracle._perpetual_sweep's grid
    dx = min(12.0 / steps, vol * math.sqrt(14.0 / (steps * discount_rate)))
    x = math.log(spot / strike)
    return math.ceil((max(x, 0.0) + steps * dx) / dx) + math.ceil((steps * dx - min(x, 0.0)) / dx) + 1


def _sweep_outcome(sweep, args):
    try:
        value, boundary = sweep(*args)
    except AmpoError as e:
        return type(e), str(e)
    return value.hex(), boundary.hex()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    rate=st.one_of(st.just(0.0), log_uniform(1e-6, 2.0)),
    vol=log_uniform(1e-4, 5.0),
    q=log_uniform(1e-8, 1e5),
    spot=log_uniform(1e-3, 1e5),
    strike=log_uniform(1e-2, 1e4),
    kind=st.sampled_from(OptionKind),
    steps=st.sampled_from([2, 3, 5, 50, 500, 2000, 4000, 8000]),
)
# the smallest steps, each kind
@example(rate=0.05, vol=0.5, q=0.1, spot=100.0, strike=100.0, kind=OptionKind.PUT, steps=2)
@example(rate=0.05, vol=0.5, q=0.1, spot=100.0, strike=100.0, kind=OptionKind.CALL, steps=3)
@example(rate=0.05, vol=0.5, q=0.1, spot=100.0, strike=100.0, kind=OptionKind.PUT, steps=5)
# near the double root, 1 - 4*tc*te about 6e-7 and 2e-6 (_NEAR_DOUBLE_ROOT)
@example(**_NEAR_DOUBLE_ROOT[0])
@example(**_NEAR_DOUBLE_ROOT[1])
# the spot lies above the node pass 1 reports, so pass 2 reads rebuilt ratios
@example(**_REBUILT[0])
@example(**_REBUILT[1])
def test_sweep_equals_linear_sweep_over_full_domain(rate, vol, q, spot, strike, kind, steps):
    # the same floats as a walk over every node, or the same AmpoError; grids
    # of more than 40,000 nodes are left out only because the reference
    # keeps a list of one ratio per node
    discount_rate = 2.0 * rate + q
    assume(_grid_nodes(spot, strike, discount_rate, vol, steps) <= 40_000)
    args = (kind, spot, strike, rate, discount_rate, vol, steps)
    assert _sweep_outcome(oracle._perpetual_sweep, args) == _sweep_outcome(_linear_sweep, args)


def _walk(to_exercise, to_continuation, ratio):
    # pass 1's recurrence from `ratio` until it returns its input: (steps, ratio)
    steps = 0
    while True:
        following = to_exercise / (1.0 - to_continuation * ratio)
        if following == ratio:
            return steps, ratio
        ratio, steps = following, steps + 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    # b = e^{-R*dt} with R*dt up to 14/steps, c within 1/2 of 1/2; the double
    # root is at b = 1, c = 1/2
    discount=log_uniform(1e-8, 7.0),
    tilt=st.one_of(
        st.floats(-0.4999, 0.4999),
        log_uniform(1e-12, 0.1),
        log_uniform(1e-12, 0.1).map(lambda t: -t),
    ),
)
def test_fixed_point_start_is_below_the_fixed_point_and_bounds_the_walk(discount, tilt):
    # the walk from the start lands on the walk from 0's fixed point, and the
    # walk from 0 takes at most i_max more steps than it to get there
    b, c = math.exp(-discount), 0.5 + tilt
    to_exercise, to_continuation = b * (1.0 - c), b * c
    i_max, start = oracle._fixed_point_start(to_exercise, to_continuation)
    assume(i_max)
    steps, fixed = _walk(to_exercise, to_continuation, 0.0)
    k, landed = _walk(to_exercise, to_continuation, start)
    assert landed == fixed
    assert steps <= i_max + k


def test_a_failing_property_reports_its_example(tmp_path):
    # on a failure hypothesis imports libcst to offer a patch, and that
    # import warns; the suite's filterwarnings must let the example through
    # instead of ending the run with INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1
