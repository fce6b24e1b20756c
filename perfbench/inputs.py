"""Seeded inputs for the benchmark workloads.

Everything here is plain Python: no ampo import, so an edit to the
package cannot change what the benchmark feeds it. The contract
distribution is a copy of ``tests/conftest.py::sample_set`` (rate 2-15%,
vol 10-60%, amortization 5-150%, strike 100), with the exercise boundary
and premium recomputed from the paper's closed forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

RATE_RANGE = (0.02, 0.15)
VOL_RANGE = (0.1, 0.6)
AMORT_RANGE = (0.05, 1.5)
STRIKE = 100.0
KINDS = ("call", "put")

# Market A of the paper: the put at q = 0.1 has premium 25 and boundary 50.
MARKET_A = (0.05, 0.5)

# Share of book contracts whose spot lies in the exercise region.
BOOK_EXERCISE_EVERY = 5
# Put positional Vega over q in (0.001, 1) has an interior optimum when
# sigma^2 / r lies in this band (found by scanning the sampling box).
INTERIOR_BAND = (4.5, 7.0)


@dataclass(frozen=True)
class Contract:
    spot: float
    rate: float
    vol: float
    amort: float
    kind: str


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"ampo-bench/{workload}/{seed}")


def exponents(r: float, sig: float, q: float) -> tuple[float, float]:
    """(alpha_c, alpha_p) of the closed forms."""
    x = r / sig**2
    rad = math.sqrt((x + 0.5) ** 2 + 2.0 * (r + q) / sig**2)
    return rad - x + 0.5, rad + x - 0.5


def boundary(r: float, sig: float, q: float, kind: str) -> float:
    a_c, a_p = exponents(r, sig, q)
    if kind == "call":
        return a_c * STRIKE / (a_c - 1.0)
    return a_p * STRIKE / (1.0 + a_p)


def premium(c: Contract) -> float:
    """Continuation-region premium from the closed form."""
    a_c, a_p = exponents(c.rate, c.vol, c.amort)
    if c.kind == "call":
        return STRIKE / (a_c - 1.0) * ((a_c - 1.0) * c.spot / (a_c * STRIKE)) ** a_c
    return STRIKE / (1.0 + a_p) * (a_p * STRIKE / ((1.0 + a_p) * c.spot)) ** a_p


def sample_contract(
    rng: random.Random, spot_margin: float = 0.0, premium_floor: float = 0.0
) -> Contract:
    """Same draws as the test suite's sample_set: a continuation-region spot."""
    while True:
        r = rng.uniform(*RATE_RANGE)
        sig = rng.uniform(*VOL_RANGE)
        q = rng.uniform(*AMORT_RANGE)
        kind = rng.choice(KINDS)
        bd = boundary(r, sig, q, kind)
        if kind == "call":
            spot = rng.uniform(0.7 * bd, bd * (1.0 - spot_margin))
        else:
            spot = rng.uniform(bd * (1.0 + spot_margin), min(1.6 * bd, 1.6 * STRIKE))
        c = Contract(spot, r, sig, q, kind)
        if premium_floor and premium(c) < premium_floor:
            continue
        return c


def book(seed: int, n: int) -> list[Contract]:
    """n independent contracts; every 5th spot sits in the exercise region."""
    rng = rng_for("book", seed)
    out = []
    for i in range(n):
        c = sample_contract(rng)
        if i % BOOK_EXERCISE_EVERY == BOOK_EXERCISE_EVERY - 1:
            bd = boundary(c.rate, c.vol, c.amort, c.kind)
            if c.kind == "call":
                spot = rng.uniform(1.001 * bd, 1.4 * bd)
            else:
                spot = rng.uniform(0.5 * bd, 0.999 * bd)
            c = Contract(spot, c.rate, c.vol, c.amort, c.kind)
        out.append(c)
    return out


def markets(seed: int, n: int) -> list[tuple[float, float]]:
    """(rate, vol) pairs at S = K = 100, starting with market A.

    Even positions come from the band where the put's positional Vega
    peaks inside (0.001, 1), so golden-section refinement runs on at
    least half the markets; odd positions are uniform over the box.
    """
    rng = rng_for("studies", seed)
    out = [MARKET_A]
    while len(out) < n:
        if len(out) % 2 == 0:
            x = rng.uniform(*INTERIOR_BAND)
            lo = max(RATE_RANGE[0], VOL_RANGE[0] ** 2 / x)
            hi = min(RATE_RANGE[1], VOL_RANGE[1] ** 2 / x)
            r = rng.uniform(lo, hi)
            out.append((r, math.sqrt(x * r)))
        else:
            out.append((rng.uniform(*RATE_RANGE), rng.uniform(*VOL_RANGE)))
    return out


def validate_contracts(seed: int, n: int) -> list[Contract]:
    """Contracts the `ampo validate` checks apply to: premium >= 2.5 and a
    1% spot margin from the boundary for the finite-difference stencils."""
    rng = rng_for("validate", seed)
    return [sample_contract(rng, spot_margin=0.01, premium_floor=2.5) for _ in range(n)]


STRATEGIES = ("call", "put", "straddle")


def _num(x: float) -> str:
    return repr(float(x))


def cli_cycles(seed: int, n: int) -> list[tuple[Contract, list[tuple[str, list[str]]]]]:
    """n cycles of the README's eight invocations, each on its own contract.

    Every cycle holds the same eight subcommands in the same order; the
    seed picks the market, the contract and the optimized strategy.
    Machine-readable output (json/csv) is requested so results can be
    compared with the library exactly.
    """
    rng = rng_for("cli", seed)
    cycles = []
    for i in range(n):
        c = sample_contract(rng, spot_margin=0.01, premium_floor=2.5)
        market = ["--rate", _num(c.rate), "--vol", _num(c.vol)]
        quote = ["--kind", c.kind, "--spot", _num(c.spot), "--strike", _num(STRIKE),
                 *market, "--amort", _num(c.amort)]
        cycles.append((c, [
            ("price", ["price", *quote, "--output", "json"]),
            ("greeks", ["greeks", *quote, "--output", "json"]),
            ("statics", ["statics", *quote, "--output", "json"]),
            ("examples1", ["examples", "1", *market, "--q-min", "0.05", "--q-max", "1.0",
                           "--q-steps", "20", "--output", "csv"]),
            ("examples2", ["examples", "2", *market, "--output", "csv"]),
            ("examples3", ["examples", "3", *market, "--budget", "100", "--output", "csv"]),
            ("optimize", ["optimize", "--kind", STRATEGIES[i % 3], *market,
                          "--q-min", "0.001", "--q-max", "1.0", "--output", "json"]),
            ("validate", ["validate", *quote, "--output", "json"]),
        ]))
    return cycles
