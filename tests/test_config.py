"""Every config dataclass checks its own fields against the marks on their
defaults, and the CLI config trees take those marks from the dataclasses."""

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactile_force import cli
from tactile_force.errors import (
    Between, ConfigError, Count, Fraction, Items, NonNegative, Optional, Positive, PositiveCount,
    Range, check_config_value, config_tree,
)
from tactile_force.mechanics import PushParams
from tactile_force.net import LossConfig, NetworkConfig, TrainingConfig
from tactile_force.sensor import SurfaceGeometry, default_electrode_layout
from tactile_force.synthetic import SensorForwardModel

# each config dataclass, with values for its fields that have no default
CONFIGS = {
    TrainingConfig: {},
    NetworkConfig: {},
    LossConfig: {},
    SensorForwardModel: {"layout": default_electrode_layout()},
    PushParams: {"m": 1.0, "inertia": 0.01},
    SurfaceGeometry: {},
}

NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_NUMBERS = st.sampled_from([True, False, None, "1", [1.0]])
NOT_INTEGERS = st.one_of(NOT_NUMBERS, NOT_FINITE, st.floats(allow_nan=False, allow_infinity=False),
                         st.just(10**400))
# values outside each kind of mark, by the mark's type
OUTSIDE = {
    Positive: st.one_of(NOT_NUMBERS, NOT_FINITE, st.floats(max_value=0.0), st.integers(max_value=0)),
    NonNegative: st.one_of(NOT_NUMBERS, NOT_FINITE, st.floats(max_value=-1e-300),
                           st.integers(max_value=-1)),
    Fraction: st.one_of(NOT_NUMBERS, NOT_FINITE, st.floats(max_value=-1e-300),
                        st.floats(min_value=1.0, exclude_min=True), st.integers(max_value=-1),
                        st.integers(min_value=2)),
    Count: st.one_of(NOT_INTEGERS, st.integers(max_value=-1)),
    PositiveCount: st.one_of(NOT_INTEGERS, st.integers(max_value=0)),
    float: st.one_of(NOT_NUMBERS, NOT_FINITE),
    int: NOT_INTEGERS,
    str: st.one_of(st.integers(), st.none(), st.lists(st.text(max_size=3), max_size=2)),
}
# values inside each kind of mark
INSIDE = {
    Positive: st.floats(min_value=1e-300, max_value=1e300),
    NonNegative: st.floats(min_value=0.0, max_value=1e300),
    Fraction: st.floats(min_value=0.0, max_value=1.0),
    Count: st.integers(min_value=0, max_value=2**40),
    PositiveCount: st.integers(min_value=1, max_value=2**40),
    float: st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10, 10)),
    int: st.integers(min_value=-2**40, max_value=2**40),
}


def marked_fields():
    """(dataclass, field name, mark) for every field with a mark, an Items
    mark for a field that may hold any number of items."""
    for cls in CONFIGS:
        for name, mark in config_tree(cls, exclude=("layout",)).items():
            yield cls, name, mark.example if isinstance(mark, Optional) else mark


MARKED = list(marked_fields())
IDS = [f"{cls.__name__}.{name}" for cls, name, _ in MARKED]


def outside(mark):
    """Values a field with this mark must refuse: for an Items mark, a
    non-list, a list with one item outside its first item's mark, or a list
    of fewer items than its least."""
    if isinstance(mark, Items):
        items = st.lists(INSIDE[type(mark[0])], max_size=3)
        least = mark.least
        too_short = st.lists(INSIDE[type(mark[0])], max_size=least - 1) if least else st.nothing()
        return st.one_of(st.sampled_from([5, "8", None, {"a": 1}]), too_short, st.tuples(
            items, OUTSIDE[type(mark[0])], items).map(lambda t: [*t[0], t[1], *t[2]]))
    return OUTSIDE[type(mark)]


@pytest.mark.parametrize("cls", list(CONFIGS))
def test_defaults_construct(cls):
    config = cls(**CONFIGS[cls])
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            assert getattr(config, f.name) == f.default


@pytest.mark.parametrize("cls, name, mark", MARKED, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_value_outside_its_mark_is_a_config_error_naming_the_field(cls, name, mark, data):
    value = data.draw(outside(mark))
    with pytest.raises(ConfigError, match=re.escape(f"field '{name}")):
        cls(**{**CONFIGS[cls], name: value})


@pytest.mark.parametrize("cls, name, mark", [m for m in MARKED if type(m[2]) in INSIDE],
                         ids=[i for i, m in zip(IDS, MARKED) if type(m[2]) in INSIDE])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_value_inside_its_mark_constructs(cls, name, mark, data):
    value = data.draw(INSIDE[type(mark)])
    assert getattr(cls(**{**CONFIGS[cls], name: value}), name) == value


def field_mark(f: dataclasses.Field):
    """A field's mark as its dataclass states it: its default, or the
    "mark" of its metadata for a field without one."""
    return f.metadata["mark"] if f.default is dataclasses.MISSING else f.default


def same_mark(tree_value, f: dataclasses.Field) -> bool:
    """A tree value is the field's mark itself, held in an Optional for a
    field without a default."""
    if f.default is dataclasses.MISSING:
        if not isinstance(tree_value, Optional):
            return False
        tree_value = tree_value.example
    return tree_value is field_mark(f)


# each CLI tree block, the dataclass it is read into, its key of each of
# the dataclass's fields, and the fields the block does not hold
BLOCKS = [
    (cli.TRAIN_CONFIG["training"], TrainingConfig, {}, {"seed"}),
    (cli.TRAIN_CONFIG["network"], NetworkConfig, {}, {"seed"}),
    (cli.TRAIN_CONFIG["loss"], LossConfig, {}, {"mode"}),
    (cli.SIMULATE_CONFIG["sensor"], SensorForwardModel, {}, {"layout"}),
    (cli.SIMULATE_CONFIG["params"], PushParams, {}, set()),
    (cli.SIMULATE_CONFIG["geometry"], SurfaceGeometry,
     {"r": "radius_m", "half_cylinder_length": "half_cylinder_length_m"}, set()),
]


@pytest.mark.parametrize("block, cls, keys, left_out", BLOCKS,
                         ids=["training", "network", "loss", "sensor", "params", "geometry"])
def test_cli_tree_blocks_take_defaults_and_marks_from_their_dataclass(block, cls, keys, left_out):
    fields = [f for f in dataclasses.fields(cls) if f.name not in left_out]
    assert sorted(block) == sorted(keys.get(f.name, f.name) for f in fields)
    for f in fields:
        assert same_mark(block[keys.get(f.name, f.name)], f), f.name


@given(st.floats(0.0, 1e3), st.floats(0.0, 1e3))
def test_range_refuses_a_low_end_above_its_high_end(low, high):
    default = Range((NonNegative(0.5), NonNegative(10.0)))
    if low > high:
        with pytest.raises(ConfigError, match="'r' must not have its low end above its high end"):
            check_config_value("r", [low, high], default)
    else:
        check_config_value("r", [low, high], default)


@given(st.one_of(st.floats(), NOT_NUMBERS))
def test_between_takes_a_finite_number_in_its_closed_interval(value):
    default = Between(30.0, 0.0, 90.0)
    if isinstance(value, float) and 0.0 <= value <= 90.0:
        check_config_value("a", value, default)
    else:
        with pytest.raises(ConfigError, match=re.escape("'a' must be a number in [0, 90]")):
            check_config_value("a", value, default)
