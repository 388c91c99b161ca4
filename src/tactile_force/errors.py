"""Exception hierarchy shared across the package.

Each class carries the process exit code and the message prefix the CLI
reports it with: configuration/usage problems exit 2, data-integrity
problems (every class without its own code) exit 3, numerical failures
exit 4.
"""

import dataclasses
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


# the value types a config field may take, tried in order against its default
_KINDS = (
    (bool, "true or false"),
    (numbers.Integral, "an integer"),
    (numbers.Real, "a number"),
    (str, "a string"),
    (dict, "an object"),
)


def check_config_value(name: str, value, default) -> None:
    """Raise a ConfigError naming the field unless `value` has the type of the
    field's `default`. An int passes for a float, but a bool is not a number.
    A sequence default takes a list whose items each pass against the
    default's first item."""
    for kind, what in _KINDS:
        if isinstance(default, kind):
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise ConfigError(f"field {name!r} must be {what}, got {value!r}")
            return
    if isinstance(value, (str, dict)) or not hasattr(value, "__len__"):
        raise ConfigError(f"field {name!r} must be a list, got {value!r}")
    for i, item in enumerate(value):
        check_config_value(f"{name}[{i}]", item, default[0])


def config_from_dict(cls, d: dict):
    """The config dataclass `cls` from a dict: absent fields take the class
    defaults, an unknown key is an error, not a silently ignored setting,
    and each value is type-checked against its field's default."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise ConfigError(f"{cls.__name__}: unknown key(s) {unknown}")
    for name, value in d.items():
        f = fields[name]
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        check_config_value(name, value, default)
    return cls(**d)
