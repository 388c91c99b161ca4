"""Point-wise geometry of the sensor surface and the voxel grid, kept as
test oracles: a point-in-volume test for the sensing surface and the centre
of a grid cell."""

from __future__ import annotations

import math

import numpy as np

from tactile_force.sensor import SurfaceGeometry
from tactile_force.voxel import GridSpec


def contains(geometry: SurfaceGeometry, point, tol: float = 1e-12) -> bool:
    """True if the point is on or inside the surface volume."""
    p = np.asarray(point, dtype=float)
    rho = math.hypot(p[0], p[1])
    if 0.0 - tol <= p[2] <= geometry.half_cylinder_length + tol:
        return rho <= geometry.r + tol
    if p[2] > geometry.half_cylinder_length:
        return float(np.linalg.norm(p - geometry.cap_center)) <= geometry.r + tol
    return False


def cell_center(spec: GridSpec, index) -> np.ndarray:
    """The centre of grid cell `index` (ix, iy, iz)."""
    return spec.bounds_min + (np.array(index) + 0.5) * spec.cell_size
