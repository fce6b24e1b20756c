import random

import pytest

from ampo import ContractParams, MarketParams, OptionKind, exercise_boundary, price
from domains import BOX, BOX_STRIKE as STRIKE
# hypothesis draws some floats from the literals of every imported non-test
# module, so each tools/ module a test imports is imported here too: the
# properties then draw the same examples alone and in the whole suite
import golden  # noqa: F401
import outcomes  # noqa: F401


def sample_set(rng: random.Random, kind=None, spot_margin=0.0, premium_floor=0.0):
    """Random (MarketParams, ContractParams) from the box of tools/domains.py,
    over which the sign claims and oracle tolerances were verified, with a
    spot drawn inside the continuation region near the boundary.

    spot_margin keeps the spot a relative distance away from the
    boundary (needed by finite-difference stencils); premium_floor
    rejects near-worthless contracts (needed for relative lattice
    tolerances).
    """
    while True:
        r, sig, q = (rng.uniform(*BOX[name]) for name in ("rate", "vol", "q"))
        k = kind if kind is not None else rng.choice(list(OptionKind))
        c = ContractParams(strike=STRIKE, amort=q, kind=k)
        probe = MarketParams(spot=STRIKE, rate=r, vol=sig)
        bd = exercise_boundary(probe, c)
        if k == OptionKind.CALL:
            spot = rng.uniform(0.7 * bd, bd * (1.0 - spot_margin))
        else:
            spot = rng.uniform(bd * (1.0 + spot_margin), min(1.6 * bd, 1.6 * STRIKE))
        m = MarketParams(spot=spot, rate=r, vol=sig)
        if premium_floor and price(m, c).premium < premium_floor:
            continue
        return m, c


@pytest.fixture
def market_a() -> MarketParams:
    return MarketParams(spot=100.0, rate=0.05, vol=0.5)


@pytest.fixture
def call_a() -> ContractParams:
    return ContractParams(strike=100.0, amort=0.1, kind=OptionKind.CALL)


@pytest.fixture
def put_a() -> ContractParams:
    return ContractParams(strike=100.0, amort=0.1, kind=OptionKind.PUT)


# one (number, description, passed, detail) entry per acceptance criterion
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, description, passed, detail))
    assert passed, f"criterion {number} ({description}) failed: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} {status} - {description}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
