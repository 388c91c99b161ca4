"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration/usage problems
exit 2, data-integrity problems exit 3, numerical failures exit 4.
"""

import dataclasses


class TactileForceError(Exception):
    """Base class for all package errors."""


class ConfigError(TactileForceError):
    """Invalid or incomplete configuration (missing field, bad value)."""


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


def config_from_dict(cls, d: dict):
    """The config dataclass `cls` from a dict: absent fields take the class
    defaults, and an unknown key is an error, not a silently ignored setting."""
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"{cls.__name__}: unknown key(s) {unknown}")
    return cls(**d)
