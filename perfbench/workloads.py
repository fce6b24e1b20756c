"""The four workloads: seeded inputs, one op each, and the output checks.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned. Ops call only the public ``ampo`` API
(``cli`` runs the console front end in a fresh interpreter). Checks run
after the op's timer has stopped and call the library directly, never
through the tracer, so they add nothing to the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ampo
import ampo.cli
from ampo import (
    ContractParams,
    ConvergenceError,
    LatticeConfig,
    MarketParams,
    OptionKind,
    Regime,
    StrategyKind,
    StrategySpec,
)

import inputs
from inputs import STRIKE

# Span name -> public function. The benchmark calls ampo only through these.
API = {
    "pricing.price": ampo.price,
    "pricing.compute_exponents": ampo.compute_exponents,
    "pricing.to_equivalent_perpetual": ampo.to_equivalent_perpetual,
    "greeks.greeks_report": ampo.greeks_report,
    "greeks.delta": ampo.delta,
    "greeks.gamma": ampo.gamma,
    "greeks.vega": ampo.vega,
    "statics.statics_report": ampo.statics_report,
    "analysis.effective_notional_curve": ampo.effective_notional_curve,
    "analysis.ratio_study": ampo.ratio_study,
    "analysis.positional_vega": ampo.positional_vega,
    "analysis.optimize_q": ampo.optimize_q,
    "oracle.lattice_price": ampo.lattice_price,
    "oracle.pde_residual": ampo.pde_residual,
    "oracle.finite_difference": ampo.finite_difference,
}


def construct(c: inputs.Contract) -> tuple[MarketParams, ContractParams]:
    return (
        MarketParams(spot=c.spot, rate=c.rate, vol=c.vol),
        ContractParams(strike=STRIKE, amort=c.amort, kind=OptionKind(c.kind)),
    )


def capture_main(argv: list[str]) -> tuple[int, str]:
    """ampo.cli.main(argv) in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ampo.cli.main(argv)
    return code, out.getvalue()


class Api:
    """The public functions, each wrapped in a span when a tracer is given."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        for name, fn in API.items():
            setattr(self, name.split(".", 1)[1], tracer.wrap(name, fn) if tracer else fn)
        self.construct = tracer.wrap("params.construct", construct) if tracer else construct
        self.run_cli = tracer.wrap("cli.invoke", run_child) if tracer else run_child
        self._mains = {}

    def main(self, sub: str, argv: list[str]) -> tuple[int, str]:
        if self.tracer is None:
            return capture_main(argv)
        if sub not in self._mains:
            self._mains[sub] = self.tracer.wrap(f"cli.main.{sub}", capture_main)
        return self._mains[sub](argv)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-12)


def central(f, x: float, h: float, order: int = 1) -> float:
    """Central difference independent of ampo.finite_difference."""
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


class Workload:
    name = ""
    tail = 0.5  # quantile reported as tail_ms
    cycle = 1  # a run stops only after a whole cycle of ops
    refined = 0  # optimize_q results refined by golden section (studies only)

    @property
    def min_ops(self) -> int:
        """Enough ops for ten samples beyond the tail quantile, in whole cycles."""
        n = math.ceil(10.0 / (1.0 - self.tail) - 1e-9)
        return -(-n // self.cycle) * self.cycle

    def op(self, api: Api, i: int):
        raise NotImplementedError

    def check(self, api: Api, i: int, res) -> list[str]:
        """Problems with the result of op i; empty when it is correct."""
        raise NotImplementedError

    def golden(self) -> list[str]:
        """Problems with the fixed reference values this workload covers."""
        return []

    def self_test(self) -> list[str]:
        """Perturbed results the checks failed to flag; empty when they are live."""
        raise NotImplementedError


# ---------------------------------------------------------------- book

EPS = 1e-12  # rounding slack, relative to the strike or to 1
FD_EVERY = 50  # every 50th contract with a 1% boundary margin gets FD checks
FD_TOL = 1e-5


class Book(Workload):
    """Independent contracts: price + exponents + Greeks (+ statics if continuation)."""

    name = "book"
    tail = 0.99
    size = 20_000

    def __init__(self, seed: int, api: Api):
        self.pairs = [api.construct(c) for c in inputs.book(seed, self.size)]
        self.op(api, 0)

    def op(self, api, i):
        m, c = self.pairs[i % self.size]
        quote = api.price(m, c)
        ex = api.compute_exponents(m, c.amort)
        greeks = api.greeks_report(m, c)
        statics = api.statics_report(m, c) if quote.regime is Regime.CONTINUATION else None
        return quote, ex, greeks, statics

    def check(self, api, i, res):
        quote, ex, greeks, statics = res
        k = i % self.size
        m, c = self.pairs[k]
        call = c.kind is OptionKind.CALL
        p = []
        intr = ampo.intrinsic_value(c.kind, m.spot, c.strike)
        a_c, a_p = inputs.exponents(m.rate, m.vol, c.amort)
        if rel_err(ex.alpha_c, a_c) > EPS or rel_err(ex.alpha_p, a_p) > EPS:
            p.append("exponents differ from the closed form")
        if not quote.premium >= intr - EPS * c.strike:
            p.append(f"premium {quote.premium} below intrinsic {intr}")
        exercised = m.spot > quote.boundary if call else m.spot < quote.boundary
        if exercised != (quote.regime is Regime.EXERCISE_NOW):
            p.append(f"regime {quote.regime.value} inconsistent with boundary")
        if quote.regime is Regime.EXERCISE_NOW and quote.premium != intr:
            p.append("exercise-region premium is not the intrinsic value")
        if not greeks.gamma >= 0.0:
            p.append(f"gamma {greeks.gamma} < 0")
        if not abs(greeks.delta) <= 1.0 + EPS:
            p.append(f"|delta| {abs(greeks.delta)} > 1")
        if statics is not None:
            if not statics.d_premium_dq <= 0.0:
                p.append(f"dV/dq {statics.d_premium_dq} > 0")
            if not (statics.d_boundary_dq < 0.0 if call else statics.d_boundary_dq > 0.0):
                p.append(f"dS/dq {statics.d_boundary_dq} has the wrong sign")
            if k % FD_EVERY == 0 and self._fd_margin(m, c, quote):
                p += self._fd_problems(m, c, greeks, statics)
        return p

    @staticmethod
    def _fd_margin(m, c, quote) -> bool:
        """Spot at least 1% of the boundary inside the continuation region."""
        gap = quote.boundary - m.spot if c.kind is OptionKind.CALL else m.spot - quote.boundary
        return gap >= 0.01 * quote.boundary

    @staticmethod
    def _fd_problems(m, c, greeks, statics):
        def prem(**kw):
            mk = {k: v for k, v in kw.items() if k in ("spot", "vol")}
            ck = {k: v for k, v in kw.items() if k == "amort"}
            return ampo.price(dataclasses.replace(m, **mk), dataclasses.replace(c, **ck)).premium

        def bd_q(q):
            return ampo.exercise_boundary(m, dataclasses.replace(c, amort=q))

        pairs = (
            ("delta", greeks.delta, central(lambda s: prem(spot=s), m.spot, 1e-4 * m.spot)),
            ("gamma", greeks.gamma, central(lambda s: prem(spot=s), m.spot, 1e-4 * m.spot, 2)),
            ("vega", greeks.vega, central(lambda v: prem(vol=v), m.vol, 1e-4 * m.vol)),
            ("dV/dq", statics.d_premium_dq, central(lambda q: prem(amort=q), c.amort, 1e-5 * c.amort)),
            ("dS/dq", statics.d_boundary_dq, central(bd_q, c.amort, 1e-5 * c.amort)),
        )
        return [
            f"FD {name}: rel err {rel_err(a, f):.2e} > {FD_TOL}"
            for name, a, f in pairs
            if not rel_err(a, f) <= FD_TOL
        ]

    @staticmethod
    def _golden_problems(quote, greeks) -> list[str]:
        want = (
            ("premium", quote.premium, 25.0),
            ("boundary", quote.boundary, 50.0),
            ("delta", greeks.delta, -0.25),
            ("gamma", greeks.gamma, 0.005),
            ("theta_economic", greeks.theta_economic, -2.5),
        )
        return [f"golden put {n} = {g!r}, want {w}" for n, g, w in want if not rel_err(g, w) <= 1e-12]

    def _golden_inputs(self):
        m = MarketParams(spot=100.0, rate=0.05, vol=0.5)
        c = ContractParams(strike=100.0, amort=0.1, kind=OptionKind.PUT)
        return m, c

    def golden(self):
        m, c = self._golden_inputs()
        return self._golden_problems(ampo.price(m, c), ampo.greeks_report(m, c))

    def self_test(self):
        missed = []
        m, c = self._golden_inputs()
        quote, greeks = ampo.price(m, c), ampo.greeks_report(m, c)
        if not self._golden_problems(dataclasses.replace(quote, premium=quote.premium * 1.01), greeks):
            missed.append("golden premium x 1.01")
        raw = Api()
        for k in range(0, self.size, FD_EVERY):
            res = self.op(raw, k)
            quote, _, greeks, statics = res
            if statics is None or not self._fd_margin(*self.pairs[k], quote) or self.check(raw, k, res):
                continue
            bad = (quote, res[1], dataclasses.replace(greeks, delta=greeks.delta * 1.01), statics)
            if not self.check(raw, k, bad):
                missed.append("FD delta x 1.01")
            bad = (quote, res[1], greeks, dataclasses.replace(statics, d_premium_dq=-statics.d_premium_dq))
            if not self.check(raw, k, bad):
                missed.append("dV/dq sign flip")
            break
        else:
            missed.append("no contract eligible for the FD self-test")
        return missed


# ---------------------------------------------------------------- studies

QS20 = [0.05 + 0.95 * i / 19 for i in range(20)]
QS100 = [0.01 + 0.99 * i / 99 for i in range(100)]
Q_RANGE = (0.001, 1.0)
SPECS = tuple(StrategySpec(kind=k, budget=100.0) for k in StrategyKind)
PUT = [s.kind for s in SPECS].index(StrategyKind.PUT_ONLY)
PUT_Q_STAR = (0.1426, 0.005)


class Studies(Workload):
    """Per market: maturity curve, ratio study, the examples-3 grid and optimal q."""

    name = "studies"
    tail = 0.95
    size = 2048

    def __init__(self, seed: int, api: Api):
        self.markets = [MarketParams(spot=100.0, rate=r, vol=s) for r, s in inputs.markets(seed, self.size)]
        self.op(api, 0)

    def op(self, api, i):
        m = self.markets[i % self.size]
        curve = api.effective_notional_curve(m, STRIKE, QS20)
        ratios = api.ratio_study(m, STRIKE, QS20)
        grid = [[api.positional_vega(m, STRIKE, s, q) for s in SPECS] for q in QS100]
        opts = [api.optimize_q(m, STRIKE, s, Q_RANGE) for s in SPECS]
        return curve, ratios, grid, opts

    def check(self, api, i, res):
        curve, ratios, grid, opts = res
        m = self.markets[i % self.size]
        p = []
        for pt in curve:
            call = ContractParams(strike=STRIKE, amort=pt.q, kind=OptionKind.CALL)
            gap = ampo.dated_bs_call(m, STRIKE, pt.effective_maturity).premium - ampo.price(m, call).premium
            if not abs(gap) <= 1e-10:
                p.append(f"effective maturity at q={pt.q}: premium residual {gap:.2e}")
        if [pt.q for pt in ratios] != QS20 or not all(
            math.isfinite(pt.gamma_ratio) and math.isfinite(pt.theta_ratio) for pt in ratios
        ):
            p.append("ratio study grid or values are off")
        if not all(math.isfinite(v) for row in grid for v in row):
            p.append("non-finite positional vega")
        for spec, res_q in zip(SPECS, opts):
            scan_max = max(v for _, v in res_q.curve)
            if not res_q.positional_vega_at_star >= scan_max:
                p.append(f"{spec.kind.value} optimum {res_q.positional_vega_at_star} below scan max {scan_max}")
            self.refined += not (res_q.boundary_maximum or res_q.multimodal)
        if i % self.size == 0:
            q_star = opts[PUT].q_star
            if not abs(q_star - PUT_Q_STAR[0]) <= PUT_Q_STAR[1]:
                p.append(f"market A put q* = {q_star}, want {PUT_Q_STAR[0]} +- {PUT_Q_STAR[1]}")
        return p

    def self_test(self):
        missed = []
        raw = Api()
        saved = self.refined
        curve, ratios, grid, opts = res = self.op(raw, 0)
        if self.check(raw, 0, res):
            missed.append("unperturbed market A fails its checks")
        bad_pt = dataclasses.replace(curve[0], effective_maturity=curve[0].effective_maturity * 1.01)
        if not self.check(raw, 0, ([bad_pt, *curve[1:]], ratios, grid, opts)):
            missed.append("effective maturity x 1.01")
        put = opts[PUT]
        for label, bad in (
            ("put optimum value x 0.99",
             dataclasses.replace(put, positional_vega_at_star=put.positional_vega_at_star * 0.99)),
            ("put q* + 0.01", dataclasses.replace(put, q_star=put.q_star + 0.01)),
        ):
            if not self.check(raw, 0, (curve, ratios, grid, [bad if o is put else o for o in opts])):
                missed.append(label)
        self.refined = saved
        return missed


# ---------------------------------------------------------------- validate

LATTICE = LatticeConfig(horizon=200.0, steps=4000, convergence=5e-3)
LIMITS = {"price": 5e-3, "boundary": 0.02, "residual": 1e-8, "fd": 1e-5}


def residual_spots(m: MarketParams, c: ContractParams, boundary: float) -> list[float]:
    """The ten continuation spots `ampo validate` checks the ODE at."""
    lo, hi = min(m.spot, boundary), max(m.spot, boundary)
    if c.kind is OptionKind.CALL:
        return [0.5 * lo + (hi * 0.999 - 0.5 * lo) * i / 9 for i in range(10)]
    return [lo * 1.001 + (1.5 * hi - lo * 1.001) * i / 9 for i in range(10)]


class Validate(Workload):
    """Per contract, the checks `ampo validate` makes, through the public API."""

    name = "validate"
    tail = 0.90
    size = 512

    def __init__(self, seed: int, api: Api):
        self.pairs = [api.construct(c) for c in inputs.validate_contracts(seed, self.size)]
        self.refusals = 0  # lattice_price calls that raised ConvergenceError
        self.warm = self.op(api, 0)

    def op(self, api, i):
        m, c = self.pairs[i % self.size]
        try:
            rep = api.lattice_price(api.to_equivalent_perpetual(c, m), m, LATTICE)
        except ConvergenceError as exc:
            rep = exc  # `ampo validate` records this as a failed check and goes on
        quote = api.price(m, c)
        resid = api.pde_residual(m, c, residual_spots(m, c, quote.boundary))

        def prem_of_spot(s):
            return api.price(dataclasses.replace(m, spot=s), c).premium

        def prem_of_vol(v):
            return api.price(dataclasses.replace(m, vol=v), c).premium

        h = min(1e-4, max(abs(quote.boundary - m.spot) / m.spot / 4.0, 1e-7))
        fd = (
            (api.delta(m, c), api.finite_difference(prem_of_spot, m.spot, 1, "central", h)),
            (api.gamma(m, c), api.finite_difference(prem_of_spot, m.spot, 2, "central", h)),
            (api.vega(m, c), api.finite_difference(prem_of_vol, m.vol, 1, "central", 1e-4)),
        )
        return rep, quote, resid, fd

    def check(self, api, i, res):
        rep, quote, resid, fd = res
        if isinstance(rep, ConvergenceError):
            self.refusals += 1
            p = self.refusal_problems(*self.pairs[i % self.size])
        else:
            p = self._lattice_problems(rep, quote)
        if not max(resid) < LIMITS["residual"]:
            p.append(f"ODE residual {max(resid):.2e}")
        for name, (analytic, approx) in zip(("delta", "gamma", "vega"), fd):
            if not rel_err(analytic, approx) < LIMITS["fd"]:
                p.append(f"FD {name} rel err {rel_err(analytic, approx):.2e}")
        return p

    @staticmethod
    def _lattice_problems(rep, quote) -> list[str]:
        p = []
        if not rep.rel_error < LIMITS["price"]:
            p.append(f"lattice price rel err {rep.rel_error:.2e}")
        bd_err = abs(rep.boundary_estimate - quote.boundary) / quote.boundary
        if not bd_err < LIMITS["boundary"]:
            p.append(f"lattice boundary rel err {bd_err:.2e}")
        return p

    @classmethod
    def refusal_problems(cls, m, c) -> list[str]:
        """A ConvergenceError is correct only if halving the steps really moves
        the price by more than the tolerance, and the full-step price still
        meets the criterion-3 tolerances."""
        e = ampo.to_equivalent_perpetual(c, m)
        full = ampo.lattice_price(e, m, dataclasses.replace(LATTICE, convergence=None))
        half = ampo.lattice_price(e, m, dataclasses.replace(LATTICE, steps=LATTICE.steps // 2, convergence=None))
        drift = abs(full.oracle_price - half.oracle_price) / full.oracle_price
        p = cls._lattice_problems(full, ampo.price(m, c))
        if not drift > LATTICE.convergence:
            p.append(f"ConvergenceError although halving the steps moves the price by {drift:.2e}")
        return p

    def self_test(self):
        missed = []
        rep, quote, resid, fd = self.warm
        m, c = self.pairs[0]
        if self.check(None, 0, self.warm):
            missed.append("warm-up contract fails its checks")
        scaled = ampo.pde_residual(m, c, residual_spots(m, c, quote.boundary), premium_scale=1.01)
        if not self.check(None, 0, (rep, quote, scaled, fd)):
            missed.append("ODE residual with premium x 1.01")
        off = dataclasses.replace(rep, rel_error=abs(1.01 * rep.oracle_price - rep.analytic_price) / rep.analytic_price)
        if not self.check(None, 0, (off, quote, resid, fd)):
            missed.append("lattice price x 1.01")
        bad_fd = ((fd[0][0] * 1.01, fd[0][1]), *fd[1:])
        if not self.check(None, 0, (rep, quote, resid, bad_fd)):
            missed.append("delta x 1.01")
        if not self.check(None, 0, (ConvergenceError("injected"), quote, resid, fd)):
            missed.append("ConvergenceError on a contract that converges")
        self.refusals = 0
        return missed


# ---------------------------------------------------------------- cli


def run_child(argv: list[str], env: dict, cwd: Path) -> tuple[int, bytes, bytes, int]:
    """Run argv to completion; (exit code, stdout, stderr, peak RSS in KiB).

    stderr is read after stdout closes, so it must stay under the pipe
    buffer; the CLI writes at most one error line there.
    """
    p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with p.stdout, p.stderr:
        out = p.stdout.read()
        err = p.stderr.read()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, err, usage.ru_maxrss


def cli_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "AMPO_OUTPUT"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def parse_output(sub: str, text: str):
    if sub in ("examples1", "examples2", "examples3"):
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)


CLI_SUBS = ("price", "greeks", "statics", "examples1", "examples2", "examples3", "optimize", "validate")


class Cli(Workload):
    """The README's eight invocations, each in a fresh `python -m ampo.cli`."""

    name = "cli"
    tail = 0.60
    cycle = 8
    size = 64  # cycles

    def __init__(self, seed: int, api: Api, root: Path):
        self.root = root
        self.env = cli_env(root)
        cycles = inputs.cli_cycles(seed, self.size)
        self.pairs = [api.construct(contract) for contract, _ in cycles]
        self.flat = [(k, sub, argv) for k, (_, cyc) in enumerate(cycles) for sub, argv in cyc]
        self.peak_rss_kib = 0  # largest CLI process so far

    def op(self, api, i):
        k, sub, argv = self.flat[i % len(self.flat)]
        res = (api or Api()).run_cli([sys.executable, "-m", "ampo.cli", *argv], self.env, self.root)
        self.peak_rss_kib = max(self.peak_rss_kib, res[3])
        return res

    def check(self, api, i, res):
        k, sub, argv = self.flat[i % len(self.flat)]
        code, out, err, _ = res
        # exit 1 is `ampo validate` reporting a failed check; compare() judges it
        if code not in ((0, 1) if sub == "validate" else (0,)):
            return [f"{sub}: exit {code}: {err.decode(errors='replace').strip()}"]
        text = out.decode()
        in_code, in_text = (api or Api()).main(sub, argv)
        p = [] if (in_code, in_text) == (code, text) else [f"{sub}: output differs from in-process main"]
        return p + self.compare(k, sub, text)

    def compare(self, k: int, sub: str, text: str) -> list[str]:
        """Parse the output and compare it with the library's own results."""
        try:
            rec = parse_output(sub, text)
        except (ValueError, csv.Error) as exc:
            return [f"{sub}: output does not parse: {exc}"]
        m, c = self.pairs[k]
        m100 = dataclasses.replace(m, spot=100.0)
        want: dict = {}
        if sub == "price":
            quote, ex = ampo.price(m, c), ampo.compute_exponents(m, c.amort)
            want = {"premium": quote.premium, "boundary": quote.boundary, "regime": quote.regime.value,
                    **dataclasses.asdict(ex)}
        elif sub == "greeks":
            want = dataclasses.asdict(ampo.greeks_report(m, c))
        elif sub == "statics":
            rep = ampo.statics_report(m, c)
            want = {"d_premium_dq": rep.d_premium_dq, "d_boundary_dq": rep.d_boundary_dq,
                    "d2_premium_dsigma_dq": rep.d2_premium_dsigma_dq,
                    **dataclasses.asdict(rep.intermediates)}
        elif sub == "optimize":
            spec = StrategySpec(kind=StrategyKind(rec.get("kind")), budget=100.0)
            res = ampo.optimize_q(m100, STRIKE, spec, Q_RANGE)
            want = {"q_star": res.q_star, "positional_vega_at_star": res.positional_vega_at_star,
                    "boundary_maximum": res.boundary_maximum, "multimodal": res.multimodal}
        elif sub == "validate":
            rows = rec.get("rows", [])
            failing = [r["check"] for r in rows if r["passed"] is not True]
            if failing == ["lattice_convergence"]:
                return Validate.refusal_problems(m, c)
            if failing or len(rows) < 6:
                return [f"validate: failing or missing checks: {rows}"]
            return []
        else:
            return self._compare_rows(sub, rec, m100)
        got = {key: rec.get(key) for key in want}
        return [] if got == want else [f"{sub}: {got} != library {want}"]

    @staticmethod
    def _compare_rows(sub: str, rows: list[dict], m: MarketParams) -> list[str]:
        qs = [float(r["q"]) for r in rows]
        if sub == "examples1":
            want = [[p.effective_maturity, p.effective_notional]
                    for p in ampo.effective_notional_curve(m, STRIKE, qs)]
            cols = ("effective_maturity", "effective_notional")
        elif sub == "examples2":
            want = [[p.gamma_ratio, p.theta_ratio] for p in ampo.ratio_study(m, STRIKE, qs)]
            cols = ("gamma_ratio", "theta_ratio")
        else:
            want = [[ampo.positional_vega(m, STRIKE, s, q) for s in SPECS] for q in qs]
            cols = tuple(f"{s.kind.value}_positional_vega" for s in SPECS)
        got = [[float(r[col]) for col in cols] for r in rows]
        if not rows or got != want:
            return [f"{sub}: CSV rows differ from the library"]
        return []

    def self_test(self):
        missed = []
        warm = code, out, err, _ = self.op(None, 0)
        if self.check(None, 0, warm):
            missed.append("warm-up invocation fails its checks")
        rec = json.loads(out)
        rec["premium"] *= 1.01
        if not self.compare(0, "price", json.dumps(rec, indent=2)):
            missed.append("price premium x 1.01")
        if not self.check(None, 0, (code, out.replace(b"\"premium\": ", b"\"premium\": 1"), err, 0)):
            missed.append("stdout edited")
        if not self.check(None, 0, (1, out, err, 0)):
            missed.append("exit code 1")
        return missed


WORKLOADS = {w.name: w for w in (Book, Studies, Validate, Cli)}


# ---------------------------------------------------------------- census


def import_probes(root: Path, rounds: int) -> dict[str, float]:
    """Median ms of interpreter start and of each heavy import, in fresh interpreters.

    The scipy probe imports numpy first, so it times scipy.optimize alone;
    the ampo probe times the whole cold import, numpy and scipy included.
    """
    env = cli_env(root)
    timer = "import time; t = time.perf_counter(); {}; print(time.perf_counter() - t)"
    probes = {
        "cli.import_numpy_ms": timer.format("import numpy"),
        "cli.import_scipy_optimize_ms": "import numpy; " + timer.format("import scipy.optimize"),
        "cli.import_ampo_ms": timer.format("import ampo"),
    }
    samples: dict[str, list[float]] = {"cli.interpreter_ms": [], **{k: [] for k in probes}}
    for _ in range(rounds):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], env, root)
        samples["cli.interpreter_ms"].append(time.perf_counter() - t0)
        for key, code in probes.items():
            rc, out, err, _ = run_child([sys.executable, "-c", code], env, root)
            if rc != 0:
                raise RuntimeError(f"{key} probe failed: {err.decode(errors='replace')}")
            samples[key].append(float(out))
    return {k: 1e3 * statistics.median(v) for k, v in samples.items()}


def census(api: Api, called: set[str], root: Path, rounds: int) -> dict:
    """Time, on fixed inputs at market A, every layer the workload never called.

    This gives every traced run a measured number for every layer. A
    layer the workload did call is left alone, so its numbers come from
    the workload's own calls only. Returns the import probes and the
    number of refined optimize_q results the census produced.
    """
    m = MarketParams(spot=100.0, rate=0.05, vol=0.5)
    pair = [(m, ContractParams(strike=100.0, amort=0.1, kind=k)) for k in OptionKind]
    todo = set(API) | {"params.construct"} | {f"cli.main.{sub}" for sub in CLI_SUBS}
    todo -= called
    reps = 100
    if "params.construct" in todo:
        for _ in range(reps):
            api.construct(inputs.Contract(100.0, 0.05, 0.5, 0.1, "put"))
    for name in ("pricing.price", "greeks.greeks_report", "statics.statics_report",
                 "greeks.delta", "greeks.gamma", "greeks.vega", "pricing.to_equivalent_perpetual"):
        if name in todo:
            fn = getattr(api, name.split(".", 1)[1])
            for k in range(reps):
                mk, ck = pair[k % 2]
                fn(ck, mk) if name == "pricing.to_equivalent_perpetual" else fn(mk, ck)
    if "pricing.compute_exponents" in todo:
        for k in range(reps):
            api.compute_exponents(m, 0.1)
    if "analysis.effective_notional_curve" in todo:
        api.effective_notional_curve(m, STRIKE, QS20)
    if "analysis.ratio_study" in todo:
        api.ratio_study(m, STRIKE, QS20)
    if "analysis.positional_vega" in todo:
        for q in QS100:
            for spec in SPECS:
                api.positional_vega(m, STRIKE, spec, q)
    refined = 0
    if "analysis.optimize_q" in todo:
        for spec in SPECS:
            res = api.optimize_q(m, STRIKE, spec, Q_RANGE)
            refined += not (res.boundary_maximum or res.multimodal)
    mp, cp = pair[1]
    if "oracle.lattice_price" in todo:
        api.lattice_price(ampo.to_equivalent_perpetual(cp, mp), mp, LATTICE)
    if "oracle.pde_residual" in todo:
        for _ in range(10):
            api.pde_residual(mp, cp, residual_spots(mp, cp, 50.0))
    if "oracle.finite_difference" in todo:
        for _ in range(10):
            api.finite_difference(lambda s: api.price(dataclasses.replace(mp, spot=s), cp).premium,
                                  mp.spot, 1, "central", 1e-4)
    argv = ["--kind", "put", "--amort", "0.1", "--output", "json"]
    mains = {
        "price": ["price", *argv], "greeks": ["greeks", *argv], "statics": ["statics", *argv],
        "examples1": ["examples", "1", "--output", "csv"], "examples2": ["examples", "2", "--output", "csv"],
        "examples3": ["examples", "3", "--output", "csv"],
        "optimize": ["optimize", "--kind", "put", "--output", "json"], "validate": ["validate", *argv],
    }
    for sub in CLI_SUBS:
        if f"cli.main.{sub}" in todo:
            api.main(sub, mains[sub])
    return {"refined": refined, **import_probes(root, rounds)}
