"""Sensor surface geometry, electrode layout, and contact detection.

The sensor frame convention used throughout the package: origin at the base of
the cylindrical core, z along the cylinder axis toward the rounded tip, x
outward through the curved sensing face. All lengths are meters.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, SchemaError, check_config_value

N_ELECTRODES = 19

# Pressure-gate defaults: in contact when p_dc stays above 10 units for the
# last 10 timesteps.
CONTACT_PRESSURE_THRESHOLD = 10.0
CONTACT_WINDOW = 10

DEFAULT_RADIUS_M = 0.007
DEFAULT_HALF_CYLINDER_LENGTH_M = 0.015


@dataclass(frozen=True)
class SurfaceGeometry:
    """Sensing surface model: cylinder of radius r capped by a spherical section.

    The cylinder wall spans z in [0, half_cylinder_length]; the cap is the
    section of the sphere of radius r centered at (0, 0, half_cylinder_length)
    with z above the cylinder end.
    """

    r: float = DEFAULT_RADIUS_M
    half_cylinder_length: float = DEFAULT_HALF_CYLINDER_LENGTH_M

    def __post_init__(self):
        if self.r <= 0:
            raise SchemaError(f"radius must be positive, got {self.r}")
        if self.half_cylinder_length < 0:
            raise SchemaError(
                f"half_cylinder_length must be non-negative, got {self.half_cylinder_length}"
            )

    @property
    def cap_center(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.half_cylinder_length])

    def tight_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the surface."""
        r, length = self.r, self.half_cylinder_length
        return np.array([-r, -r, 0.0]), np.array([r, r, length + r])

    @classmethod
    def from_config(cls, config: dict) -> "SurfaceGeometry":
        try:
            r, length = config["radius_m"], config["half_cylinder_length_m"]
        except KeyError as exc:
            raise SchemaError(f"geometry config missing field {exc.args[0]!r}") from exc
        check_config_value("geometry.radius_m", r, DEFAULT_RADIUS_M)
        check_config_value("geometry.half_cylinder_length_m", length, DEFAULT_HALF_CYLINDER_LENGTH_M)
        return cls(r=float(r), half_cylinder_length=float(length))


@dataclass(frozen=True)
class ContactState:
    """Contact point and outward unit normal on the sensor surface, frame B."""

    s_c: np.ndarray
    s_n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s_c", np.asarray(self.s_c, dtype=float))
        object.__setattr__(self, "s_n", np.asarray(self.s_n, dtype=float))
        if self.s_c.shape != (3,) or self.s_n.shape != (3,):
            raise SchemaError("contact point and normal must be 3-vectors")


def surface_point_and_normal(geometry: SurfaceGeometry, query: np.ndarray) -> ContactState:
    """Project a query point onto the sensing surface.

    Returns the closest surface point and the outward normal there: radial
    from the axis on the cylinder wall, radial from the cap center on the
    spherical cap. Queries on the axis have no defined normal and raise
    DegenerateInputError. Projection is idempotent: surface points map to
    themselves.
    """
    q = np.asarray(query, dtype=float)
    if q.shape != (3,):
        raise SchemaError(f"query must be a 3-vector, got shape {q.shape}")
    length = geometry.half_cylinder_length

    if q[2] > length:
        d = q - geometry.cap_center
        dist = float(np.linalg.norm(d))
        if dist < 1e-15:
            raise DegenerateInputError("query coincides with the cap center; normal undefined")
        n = d / dist
        return ContactState(s_c=geometry.cap_center + geometry.r * n, s_n=n)

    rho = math.hypot(q[0], q[1])
    if rho < 1e-15:
        raise DegenerateInputError("query lies on the cylinder axis; normal undefined")
    n = np.array([q[0] / rho, q[1] / rho, 0.0])
    z = min(max(q[2], 0.0), length)
    return ContactState(s_c=np.array([geometry.r * n[0], geometry.r * n[1], z]), s_n=n)


class ContactDetection(enum.Enum):
    """Tri-state contact decision.

    INSUFFICIENT_HISTORY flags that the window was not filled, as opposed to a
    confident NO_CONTACT. Only CONTACT is truthy.
    """

    CONTACT = "contact"
    NO_CONTACT = "no_contact"
    INSUFFICIENT_HISTORY = "insufficient_history"

    def __bool__(self) -> bool:
        return self is ContactDetection.CONTACT


def detect_contact(
    pressure_history: Sequence[float],
    threshold: float = CONTACT_PRESSURE_THRESHOLD,
    window: int = CONTACT_WINDOW,
) -> ContactDetection:
    """Pressure-gate contact test: the last `window` p_dc values must all
    exceed `threshold`."""
    history = np.asarray(pressure_history, dtype=float)
    if history.ndim != 1:
        raise SchemaError("pressure history must be a 1-D sequence")
    if window < 1:
        raise SchemaError(f"window must be >= 1, got {window}")
    if history.size < window:
        return ContactDetection.INSUFFICIENT_HISTORY
    if np.all(history[-window:] > threshold):
        return ContactDetection.CONTACT
    return ContactDetection.NO_CONTACT


@dataclass(frozen=True)
class ElectrodeLayout:
    """Positions and unit orientations of the 19 electrodes in frame B."""

    positions: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        nrm = np.asarray(self.normals, dtype=float)
        if pos.shape != (N_ELECTRODES, 3) or nrm.shape != (N_ELECTRODES, 3):
            raise SchemaError(
                f"layout requires {N_ELECTRODES}x3 positions and normals, "
                f"got {pos.shape} and {nrm.shape}"
            )
        norms = np.linalg.norm(nrm, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise SchemaError("electrode normals must be unit length")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "normals", nrm)

    @classmethod
    def from_dict(cls, data: dict) -> "ElectrodeLayout":
        try:
            return cls(positions=np.array(data["positions"]), normals=np.array(data["normals"]))
        except KeyError as exc:
            raise SchemaError(f"layout missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"layout must map positions and normals to {N_ELECTRODES}x3 numbers: {exc}"
            ) from exc

    def to_dict(self) -> dict:
        return {"positions": self.positions.tolist(), "normals": self.normals.tolist()}


# Synthetic default layout (real electrode coordinates are proprietary): five
# angular columns on the curved sensing face, three heights each, plus four
# electrodes on the cap. Angles are measured from +x in the xy-plane; heights
# are fractions of the cylinder length; cap electrodes are given by polar
# angle from +z and azimuth from +x.
_CYLINDER_PHI_DEG = (-60.0, -30.0, 0.0, 30.0, 60.0)
_CYLINDER_Z_FRAC = (2.0 / 15.0, 7.0 / 15.0, 12.0 / 15.0)
_CAP_POLAR_AZIMUTH_DEG = ((25.0, 0.0), (55.0, 45.0), (55.0, -45.0), (55.0, 0.0))


def default_electrode_layout(geometry: SurfaceGeometry | None = None) -> ElectrodeLayout:
    """Build the synthetic default layout scaled to the given geometry."""
    geometry = geometry or SurfaceGeometry()
    r, length = geometry.r, geometry.half_cylinder_length
    positions, normals = [], []
    for phi_deg in _CYLINDER_PHI_DEG:
        phi = math.radians(phi_deg)
        n = np.array([math.cos(phi), math.sin(phi), 0.0])
        for z_frac in _CYLINDER_Z_FRAC:
            positions.append(np.array([r * n[0], r * n[1], z_frac * length]))
            normals.append(n)
    for polar_deg, azim_deg in _CAP_POLAR_AZIMUTH_DEG:
        polar, azim = math.radians(polar_deg), math.radians(azim_deg)
        n = np.array(
            [
                math.sin(polar) * math.cos(azim),
                math.sin(polar) * math.sin(azim),
                math.cos(polar),
            ]
        )
        positions.append(geometry.cap_center + r * n)
        normals.append(n)
    return ElectrodeLayout(positions=np.array(positions), normals=np.array(normals))
