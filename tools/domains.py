"""The seeded input domains of the suite and the tools, each declared once.

The closed forms are functions of (rate, vol, q, spot, strike), and the
suite checks them on three domains:

- the box, where the sign claims and the oracle tolerances were verified:
  rate 2-15%, vol 10-60%, q 5-150% and spot 50-200, each uniform, at
  strike 100;
- the full domain: rate 0 or 1e-6..2, vol 1e-4..5, q 1e-8..1e5, spot
  1e-3..1e5 and strike 1e-2..1e4, each log-uniform;
- the whole accepted range: spot, strike and q 1e-300..1e300, vol
  1e-80..1e60 and rate 0 or 1e-300..1e10, each log-uniform.

A draw function per domain takes a `random.Random` and nothing else. The
order in which it draws is part of its contract: the seeded tests and
tools/outcomes.py's digests depend on it, and tests/test_tools.py pins
each domain's first draw. Hypothesis strategies over the same bounds are
built in tests/test_properties.py.

`EDGES` holds the values every input check must treat as its full checks
do, one per type and edge: +-0.0, the subnormals, +-the largest float,
+-inf and nan, ints and bools, an int and Fractions past the float range,
Decimals, float subclasses and a str. tools/outcomes.py draws from them
for its mixed-type domain, and tests/test_properties.py for its
comparison-chain properties.

Hypothesis also draws some floats from the literals of the non-test
modules a run imports, this one included, so a new literal here moves the
properties' examples though no strategy changed.
"""

from __future__ import annotations

import math
import random
import sys
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

# the share of full-domain and whole-range draws at rate 0
ZERO_RATE = 0.1
BOX = dict(rate=(0.02, 0.15), vol=(0.1, 0.6), q=(0.05, 1.5), spot=(50.0, 200.0))
BOX_STRIKE = 100.0
FULL = dict(rate=(1e-6, 2.0), vol=(1e-4, 5.0), q=(1e-8, 1e5), spot=(1e-3, 1e5), strike=(1e-2, 1e4))
# the whole range of spot, strike and q, and of any other positive input
WIDE = (1e-300, 1e300)
WHOLE = dict(rate=(1e-300, 1e10), vol=(1e-80, 1e60), q=WIDE, spot=WIDE, strike=WIDE)


class SubFloat(float):
    """A float subclass: equal to its float, but not an exact float."""


EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 0.05, 100.0, sys.float_info.max, -sys.float_info.max,
    math.inf, -math.inf, math.nan,
    0, 1, -1, 10**400, True, False,
    Fraction(1, 10**400), Fraction(-1, 10**400), Fraction(1, 3),
    Decimal("1.5"), Decimal(0), Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"),
    SubFloat(0.5), SubFloat(-0.0), SubFloat(math.inf), SubFloat(math.nan),
    "1.0",
)


# one draw of every input, whatever the order of the domain's draws
Point = namedtuple("Point", "rate vol q spot strike")


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rate(rng: random.Random, bounds: tuple[float, float]) -> float:
    return 0.0 if rng.random() < ZERO_RATE else log_uniform(rng, *bounds)


def box(rng: random.Random) -> Point:
    """Draws rate, vol, q, spot."""
    rate, vol, q, spot = (rng.uniform(*BOX[name]) for name in ("rate", "vol", "q", "spot"))
    return Point(rate, vol, q, spot, BOX_STRIKE)


def full(rng: random.Random) -> Point:
    """Draws rate, vol, q, spot, strike."""
    rate = _rate(rng, FULL["rate"])
    vol, q, spot, strike = (log_uniform(rng, *FULL[name]) for name in ("vol", "q", "spot", "strike"))
    return Point(rate, vol, q, spot, strike)


def whole(rng: random.Random) -> Point:
    """Draws spot, strike, q, vol, rate."""
    spot, strike, q, vol = (log_uniform(rng, *WHOLE[name]) for name in ("spot", "strike", "q", "vol"))
    return Point(_rate(rng, WHOLE["rate"]), vol, q, spot, strike)


DRAWS = {"box": box, "full": full, "whole": whole}
