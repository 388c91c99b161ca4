"""Sensor surface geometry, electrode layout, and contact detection.

The sensor frame convention used throughout the package: origin at the base of
the cylindrical core, z along the cylinder axis toward the rounded tip, x
outward through the curved sensing face. All lengths are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateInputError, NonNegative, Positive, Required, SchemaError, check_fields, read_config,
)

N_ELECTRODES = 19

# The pressure gate: in contact when p_dc has stayed above 10 units for the
# last 10 timesteps.
CONTACT_PRESSURE_THRESHOLD = 10.0
CONTACT_WINDOW = 10

# a layout record: each electrode's position and unit normal
LAYOUT_RECORD = {key: Required(((0.0, 0.0, 0.0),) * N_ELECTRODES) for key in ("positions", "normals")}


@dataclass(frozen=True)
class SurfaceGeometry:
    """Sensing surface model: cylinder of radius r capped by a spherical section.

    The cylinder wall spans z in [0, half_cylinder_length]; the cap is the
    section of the sphere of radius r centered at (0, 0, half_cylinder_length)
    with z above the cylinder end.
    """

    r: float = Positive(0.007)
    half_cylinder_length: float = NonNegative(0.015)

    __post_init__ = check_fields

    @property
    def cap_center(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.half_cylinder_length])

    def tight_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the surface."""
        r, length = self.r, self.half_cylinder_length
        return np.array([-r, -r, 0.0]), np.array([r, r, length + r])


@dataclass(frozen=True)
class ContactState:
    """Contact points and outward unit normals on the sensor surface, frame
    B, one row per contact: s_c and s_n are (n, 3); a single contact is one
    row."""

    s_c: np.ndarray
    s_n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s_c", np.asarray(self.s_c, dtype=float))
        object.__setattr__(self, "s_n", np.asarray(self.s_n, dtype=float))
        if self.s_c.ndim != 2 or self.s_c.shape[1] != 3 or self.s_n.shape != self.s_c.shape:
            raise SchemaError("contact points and normals must be (n, 3) arrays of one shape, got "
                              f"{self.s_c.shape} and {self.s_n.shape}")

    def __len__(self) -> int:
        return len(self.s_c)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The norm of each row of an (n, k) array, as an (n, 1) column, rounded
    as np.linalg.norm rounds a single vector (the square root of its dot
    product with itself)."""
    return np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]


def surface_point_and_normal(geometry: SurfaceGeometry, query: np.ndarray) -> ContactState:
    """Project each row of an (n, 3) array of query points onto the sensing
    surface.

    Returns the closest surface points and the outward normals there: radial
    from the axis on the cylinder wall, radial from the cap center on the
    spherical cap (a query above the cylinder end). A query on the axis has
    no defined normal and raises DegenerateInputError naming its row.
    Projection is idempotent: surface points map to themselves.
    """
    q = np.asarray(query, dtype=float)
    if q.ndim != 2 or q.shape[1] != 3:
        raise SchemaError(f"queries must be an (n, 3) array, got shape {q.shape}")
    length = geometry.half_cylinder_length
    cap = q[:, 2] > length
    # from the cap center on the cap, from the axis at the query's height on the wall
    d = q - geometry.cap_center
    d[~cap, 2] = 0.0
    dist = np.where(cap[:, None], row_norms(d), np.hypot(d[:, :1], d[:, 1:2]))
    on_axis = np.flatnonzero(dist < 1e-15)
    if on_axis.size:
        raise DegenerateInputError(f"query {on_axis[0]} lies on the surface's axis; normal undefined")
    n = d / dist
    s_c = geometry.r * n
    s_c[cap] += geometry.cap_center
    s_c[~cap, 2] = np.clip(q[~cap, 2], 0.0, length)
    return ContactState(s_c=s_c, s_n=n)


def detect_contact(pressure) -> np.ndarray:
    """The pressure gate over a 1-D p_dc trace, one flag per step: step i is
    in contact when it and the CONTACT_WINDOW - 1 steps before it all exceed
    CONTACT_PRESSURE_THRESHOLD (a NaN never does), so no step of the first
    window is."""
    above = np.asarray(pressure, dtype=float) > CONTACT_PRESSURE_THRESHOLD
    # after a window of steps below the threshold, the window ending at step i is row i + 1
    padded = np.concatenate([np.zeros(CONTACT_WINDOW, dtype=bool), above])
    return sliding_window_view(padded, CONTACT_WINDOW)[1:].all(axis=1)


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
    def from_dict(cls, data, name: str = "") -> "ElectrodeLayout":
        """The layout of a LAYOUT_RECORD at the dotted key `name` ("" for a file)."""
        values = read_config(data, LAYOUT_RECORD, name)
        return cls(positions=values["positions"], normals=values["normals"])

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
