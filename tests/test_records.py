"""The record contract: every exported record is a frozen, slotted dataclass
whose generated __init__ behaves as a dataclass's own."""

import copy
import dataclasses
import inspect
import pickle

import pytest

import ampo
from ampo import (
    AmortizationSchedule,
    ContractParams,
    LatticeConfig,
    MarketParams,
    StrategySpec,
    compute_exponents,
    dated_bs_call,
    effective_maturity,
    greeks_report,
    lattice_price,
    limit_suite,
    mixed_partial_factors,
    optimize_q,
    price,
    ratio_study,
    statics_report,
    to_equivalent_perpetual,
)


def _samples():
    m = MarketParams(spot=100.0, rate=0.05, vol=0.5)
    put = ContractParams(strike=100.0, amort=0.1, kind="put")
    spec = StrategySpec(kind="put", budget=100.0)
    return [
        m,
        put,
        compute_exponents(m, 0.1),
        price(m, put),
        to_equivalent_perpetual(put, m),
        AmortizationSchedule(initial_notional=1.0, amort=0.1),
        greeks_report(m, put),
        dated_bs_call(m, 100.0, 1.0),
        statics_report(m, put),
        mixed_partial_factors(m, put),
        limit_suite(m, put),
        LatticeConfig(steps=200),
        lattice_price(to_equivalent_perpetual(put, m), m, LatticeConfig(steps=200)),
        spec,
        effective_maturity(m, 100.0, 0.1),
        ratio_study(m, 100.0, [0.1])[0],
        optimize_q(m, 100.0, spec, (0.01, 1.0)),
    ]


SAMPLES = _samples()


def _hash_or_error(rec):
    # a record with a list field (OptimizationResult.curve) is unhashable
    try:
        return hash(rec)
    except TypeError as e:
        return str(e)


def test_every_exported_record_has_a_sample():
    exported = {
        obj for name in ampo.__all__
        if isinstance(obj := getattr(ampo, name), type) and dataclasses.is_dataclass(obj)
    }
    assert {type(rec) for rec in SAMPLES} == exported
    assert len(exported) == 17


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda rec: type(rec).__name__)
def test_record_is_a_frozen_slotted_dataclass(rec):
    cls = type(rec)
    assert cls.__dataclass_params__.frozen
    assert "__slots__" in cls.__dict__
    assert not hasattr(rec, "__dict__")
    for f in dataclasses.fields(rec):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, f.name, getattr(rec, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, f.name)


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda rec: type(rec).__name__)
def test_record_round_trips_and_rebuilds_equal(rec):
    cls, fields = type(rec), dataclasses.fields(rec)
    values = {f.name: getattr(rec, f.name) for f in fields}
    assert list(inspect.signature(cls).parameters) == list(values)
    positional, keyword = cls(*values.values()), cls(**values)
    for rebuilt in (positional, keyword, dataclasses.replace(rec)):
        assert rebuilt == rec and rebuilt is not rec
        assert _hash_or_error(rebuilt) == _hash_or_error(rec)
        assert repr(rebuilt) == repr(rec)
    assert dataclasses.asdict(keyword) == dataclasses.asdict(rec)
    assert list(dataclasses.asdict(rec)) == list(values)
    assert dataclasses.astuple(positional) == dataclasses.astuple(rec)
    assert [f.name for f in dataclasses.fields(cls)] == list(values)
    # the defaults a record declares are the ones its __init__ fills in
    required = {f.name: values[f.name] for f in fields if f.default is dataclasses.MISSING}
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    assert cls(**required) == cls(**required, **defaults)


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda rec: type(rec).__name__)
def test_record_pickles_and_copies_equal(rec):
    pickled = [pickle.loads(pickle.dumps(rec, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (*pickled, copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is type(rec) and twin == rec


def test_lattice_config_defaults():
    assert LatticeConfig() == LatticeConfig(200.0, 4000, None)
    assert LatticeConfig(200.0, 50) == LatticeConfig(steps=50)


def test_replace_validates_and_post_init_converts_kinds():
    m = MarketParams(spot=100.0, rate=0.05, vol=0.5)
    with pytest.raises(ampo.ValidationError, match="spot must be > 0"):
        dataclasses.replace(m, spot=-1.0)
    c = dataclasses.replace(ContractParams(strike=100.0, amort=0.1, kind="put"), kind="call")
    assert c.kind is ampo.OptionKind.CALL
    s = StrategySpec("straddle", 1.0)
    assert s.kind is ampo.StrategyKind.STRADDLE
    with pytest.raises(TypeError):
        MarketParams(100.0, 0.05)
    with pytest.raises(TypeError):
        MarketParams(100.0, 0.05, 0.5, spot=1.0)
