"""Exception hierarchy shared across the package.

Each class carries the process exit code and the message prefix the CLI
reports it with: configuration/usage problems exit 2, data-integrity
problems (every class without its own code) exit 3, numerical failures
exit 4.
"""

import dataclasses
import math
import numbers


class TactileForceError(Exception):
    """Base class for all package errors."""

    exit_code = 3
    prefix = "data error"


class ConfigError(TactileForceError):
    """Invalid or incomplete configuration (missing field, bad value)."""

    exit_code = 2
    prefix = "config error"


class SchemaError(TactileForceError):
    """Input data does not match the expected schema or shape."""


class DegenerateInputError(TactileForceError):
    """Input is in a degenerate configuration the operation cannot resolve."""


class OutOfBoundsError(TactileForceError):
    """A spatial point falls outside the configured grid bounds."""


class LayoutCollisionError(TactileForceError):
    """Two electrodes bin to the same voxel under the given grid."""


class DataIntegrityError(TactileForceError):
    """Dataset violates an integrity constraint (e.g. trial split overlap)."""


class NumericalError(TactileForceError):
    """Numerical failure: non-finite state, gradient, or loss."""

    exit_code = 4
    prefix = "numerical failure"


class Positive(float):
    """A config default whose field must hold a positive number."""


class NonNegative(float):
    """A config default whose field must hold a number of at least 0."""


class Between(float):
    """A config default whose field must hold a number in [low, high]."""

    def __new__(cls, value, low: float, high: float):
        self = super().__new__(cls, value)
        self.low, self.high = low, high
        return self


class Fraction(Between):
    """A config default whose field must hold a number in [0, 1]."""

    def __new__(cls, value):
        return super().__new__(cls, value, 0.0, 1.0)


class Count(int):
    """A config default whose field must hold an integer of at least 0."""


class PositiveCount(int):
    """A config default whose field must hold an integer of at least 1."""


class Range(tuple):
    """A (low, high) default whose field must hold two items, each passing
    against low, with the low end not above the high end."""


class Items(tuple):
    """A default whose field may hold any number of items, but at least
    `least`, each passing against the default's first item."""

    def __new__(cls, items, least: int = 0):
        self = super().__new__(cls, items)
        self.least = least
        return self


class Required:
    """A record field that must be present, checked against `example` as
    against a default; Required(None) only checks that it is present."""

    def __init__(self, example):
        self.example = example


class Optional(Required):
    """A record field that may be absent or null, reading as None, and is
    otherwise checked against `example` as against a default."""


def _finite(value) -> bool:
    """A number, not a bool, that converts to a finite float: a JSON
    integer too large for a float is not one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and _finite(value)


# what a config field may hold, by the type of its default, tried in order
_KINDS = (
    (bool, "true or false", lambda v: isinstance(v, bool)),
    (Count, "at least 0 (an integer)", lambda v: _integer(v) and v >= 0),
    (PositiveCount, "at least 1 (an integer)", lambda v: _integer(v) and v >= 1),
    (numbers.Integral, "an integer", _integer),
    (Positive, "a positive finite number", lambda v: _finite(v) and v > 0),
    (NonNegative, "a finite number of at least 0", lambda v: _finite(v) and v >= 0),
    (numbers.Real, "a finite number", _finite),
    (str, "a string", lambda v: isinstance(v, str)),
)


def check_config_value(name: str, value, default) -> None:
    """Raise a ConfigError naming the field unless `value` has the type of the
    field's `default`. An int passes for a float, but a bool is not a number,
    and a number, an integer too, must convert to a finite float (positive
    for a Positive default, at least 0 for a NonNegative, in [low, high] for
    a Between such as a Fraction), and a Count or PositiveCount be an integer
    of at least 0 or 1. A sequence default takes a list whose items each
    pass against the default's first item: an Items default one of any
    length, but at least its `least`, and any other one of the default's
    length, a Range one whose first item is not above its second."""
    if isinstance(default, Between):
        if not (_finite(value) and default.low <= value <= default.high):
            raise ConfigError(f"field {name!r} must be a number in "
                              f"[{default.low:g}, {default.high:g}], got {value!r}")
        return
    for kind, what, accepts in _KINDS:
        if isinstance(default, kind):
            if not accepts(value):
                raise ConfigError(f"field {name!r} must be {what}, got {value!r}")
            return
    if isinstance(value, (str, dict)) or not hasattr(value, "__len__"):
        raise ConfigError(f"field {name!r} must be a list, got {value!r}")
    if isinstance(default, Items):
        if len(value) < default.least:
            raise ConfigError(f"field {name!r} must hold at least {default.least} item(s), got {value!r}")
    elif len(value) != len(default):
        raise ConfigError(f"field {name!r} must hold {len(default)} items, got {value!r}")
    for i, item in enumerate(value):
        check_config_value(f"{name}[{i}]", item, default[0])
    if isinstance(default, Range) and value[0] > value[1]:
        raise ConfigError(f"field {name!r} must not have its low end above its high end, "
                          f"got {value!r}")


def read_config(config, defaults: dict, name: str = "") -> dict:
    """`config`, a JSON object, read over the tree of `defaults`: an absent
    key takes its default, a key the tree lacks is an error naming its
    dotted key, a dict default is read the same way (an absent block as {}),
    a None default leaves the value to its own reader, a Required default
    must be present and is checked against its example, an Optional one
    reads as None when absent or null and is otherwise checked so, and any
    other value must pass check_config_value against its default. Every
    absent key is filled in, so reading the result again gives it back."""
    if not isinstance(config, dict):
        raise ConfigError(f"{f'field {name!r}' if name else 'the file'} must be an object, got {config!r}")
    prefix = name + "." if name else ""
    for key in config:
        if key not in defaults:
            raise ConfigError(f"unknown key {prefix + key!r}; expected one of {', '.join(defaults)}")
    values = {}
    for key, default in defaults.items():
        if isinstance(default, Optional) and config.get(key) is None:
            default = None
        elif isinstance(default, Required):
            if key not in config:
                raise ConfigError(f"missing field {prefix + key!r}")
            default = default.example
        value = config.get(key, {} if isinstance(default, dict) else default)
        if isinstance(default, dict):
            value = read_config(value, default, prefix + key)
        elif key in config and default is not None:
            check_config_value(prefix + key, value, default)
        values[key] = value
    return values


def _mark(f: dataclasses.Field):
    """The mark of a dataclass field: its default, or for a field without
    one, the "mark" of its metadata (MISSING if neither)."""
    return f.metadata.get("mark", f.default)


def check_fields(config) -> None:
    """Raise a ConfigError naming the field unless every field of the
    dataclass instance `config` that has a mark passes check_config_value
    against it; the config dataclasses call it from __post_init__, so a
    direct construction is checked as a config file is."""
    for f in dataclasses.fields(config):
        mark = _mark(f)
        if mark is not dataclasses.MISSING:
            check_config_value(f.name, getattr(config, f.name), mark)


def config_tree(cls, exclude=()) -> dict:
    """The read_config tree of the fields of the dataclass `cls` but
    `exclude`: each field's mark, Optional for a field without a default."""
    return {f.name: _mark(f) if f.default is not dataclasses.MISSING else Optional(_mark(f))
            for f in dataclasses.fields(cls) if f.name not in exclude}
