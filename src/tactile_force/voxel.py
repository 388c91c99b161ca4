"""Two-channel voxel encoding of electrode values and the contact point.

Channel 0 scatters the 19 electrode values into the cells containing their
positions; channel 1 is a one-hot marker for the cell containing the contact
point (all zeros when not in contact). Data is stored channels-first:
shape (2, nx, ny, nz). A batch of grids is stored as what it holds, a
VoxelInputs: each sample's 19 electrode values and its contact cell, with
the electrode cells held once; it becomes a dense array only on request.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LayoutCollisionError, OutOfBoundsError, PositiveCount, Required, SchemaError, read_config,
)
from .sensor import N_ELECTRODES, ElectrodeLayout, SurfaceGeometry

DEFAULT_DIMS = (8, 8, 4)

CHANNEL_ELECTRODES = 0
CHANNEL_CONTACT = 1
N_CHANNELS = 2

# a grid record: its dims and the box they cover
GRID_RECORD = {"dims": Required(tuple(map(PositiveCount, DEFAULT_DIMS))),
               "bounds": {"min": Required((0.0, 0.0, 0.0)), "max": Required((0.0, 0.0, 0.0))}}


@dataclass(frozen=True)
class GridSpec:
    """Voxel grid dimensions and the axis-aligned box they cover (meters)."""

    dims: tuple[int, int, int]
    bounds_min: np.ndarray
    bounds_max: np.ndarray

    def __post_init__(self):
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise SchemaError(f"dims must be three positive counts, got {self.dims}")
        lo = np.asarray(self.bounds_min, dtype=float)
        hi = np.asarray(self.bounds_max, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise SchemaError("bounds must be 3-vectors")
        if np.any(hi <= lo):
            raise SchemaError("bounds_max must exceed bounds_min on every axis")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "bounds_min", lo)
        object.__setattr__(self, "bounds_max", hi)

    @property
    def cell_size(self) -> np.ndarray:
        return (self.bounds_max - self.bounds_min) / np.array(self.dims)

    @classmethod
    def for_geometry(
        cls, geometry: SurfaceGeometry | None = None, dims: tuple[int, int, int] = DEFAULT_DIMS
    ) -> "GridSpec":
        """Grid covering the sensor bounding box plus a one-cell margin.

        The margin (one tight-box cell per side) keeps cap and edge contacts
        away from the clamped boundary cells.
        """
        geometry = geometry or SurfaceGeometry()
        lo, hi = geometry.tight_bounds()
        margin = (hi - lo) / np.array(dims)
        return cls(dims=dims, bounds_min=lo - margin, bounds_max=hi + margin)

    @classmethod
    def from_config(cls, config, name: str = "grid") -> "GridSpec":
        """The grid of a GRID_RECORD at the dotted key `name`."""
        values = read_config(config, GRID_RECORD, name)
        return cls(dims=tuple(values["dims"]), bounds_min=values["bounds"]["min"],
                   bounds_max=values["bounds"]["max"])

    def to_config(self) -> dict:
        return {
            "dims": list(self.dims),
            "bounds": {"min": self.bounds_min.tolist(), "max": self.bounds_max.tolist()},
        }


def outside(points: np.ndarray, spec: GridSpec) -> np.ndarray:
    """True for each point of a (..., 3) array that is not within the grid
    bounds; a non-finite point is never within them."""
    p = np.asarray(points, dtype=float)
    return ~np.all((p >= spec.bounds_min) & (p <= spec.bounds_max), axis=-1)


def cell_indices(points: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Floor-based cell indices, shape (..., 3), of in-bounds points; the max
    corner maps to the last cell."""
    idx = np.floor((np.asarray(points, dtype=float) - spec.bounds_min) / spec.cell_size)
    return np.minimum(idx.astype(int), np.array(spec.dims) - 1)


def voxel_index(point: np.ndarray, spec: GridSpec) -> tuple[int, int, int]:
    """Floor-based cell index of a point; the max corner maps to the last cell."""
    p = np.asarray(point, dtype=float)
    if p.shape != (3,):
        raise SchemaError(f"point must be a 3-vector, got shape {p.shape}")
    if outside(p, spec):
        raise OutOfBoundsError(f"point {p.tolist()} outside grid bounds")
    return tuple(int(i) for i in cell_indices(p, spec))


def electrode_cells(layout: ElectrodeLayout, spec: GridSpec) -> tuple[np.ndarray, ...]:
    """The cell of every electrode as index arrays (x, y, z) in electrode
    order. Raises if an electrode falls outside the bounds or two electrodes
    share a cell."""
    seen: dict[tuple[int, int, int], int] = {}
    for i, pos in enumerate(layout.positions):
        try:
            idx = voxel_index(pos, spec)
        except OutOfBoundsError as exc:
            raise OutOfBoundsError(f"electrode {i} at {pos.tolist()} outside bounds") from exc
        if idx in seen:
            raise LayoutCollisionError(
                f"electrodes {seen[idx]} and {i} both bin to voxel {idx}"
            )
        seen[idx] = i
    return tuple(np.array(axis) for axis in zip(*seen))


def encode(
    e: np.ndarray,
    s_c: np.ndarray | None,
    layout: ElectrodeLayout,
    spec: GridSpec,
) -> np.ndarray:
    """Build the (2, nx, ny, nz) grid from electrode values and contact point.

    s_c = None means no contact: channel 1 stays all-zero. Raises if an
    electrode position or the contact point falls outside the bounds, or if
    two electrodes share a voxel.
    """
    e = np.asarray(e, dtype=float)
    if e.shape != (N_ELECTRODES,):
        raise SchemaError(f"expected {N_ELECTRODES} electrode values, got shape {e.shape}")
    grid = np.zeros((N_CHANNELS,) + spec.dims)
    grid[(CHANNEL_ELECTRODES,) + electrode_cells(layout, spec)] = e
    if s_c is not None:
        grid[(CHANNEL_CONTACT,) + voxel_index(np.asarray(s_c, dtype=float), spec)] = 1.0
    return grid


class VoxelInputs:
    """A batch of voxel grids of shape `grid` as the two things they hold:
    `e`, shape (N, 19), each sample's electrode values in layout order, and
    `contact`, shape (N,), each sample's one-hot contact cell. Cells are
    flat indices into the grid; the electrode cells, `electrodes`, are the
    same for every sample and held once. Every other cell is zero.

    It stands in for the dense (N,) + grid array. A slice or a 1-D index
    array selects samples and gives a VoxelInputs, which for a slice views
    this one's arrays; `shape`, `ndim` and `size` are the dense array's,
    `nbytes` counts the bytes held; np.asarray gives the dense array, and
    any other key (a tuple or an integer) indexes it.
    """

    def __init__(self, e: np.ndarray, contact: np.ndarray, electrodes: np.ndarray,
                 grid: tuple[int, ...]):
        self.e = np.asarray(e, dtype=float)
        self.contact = np.asarray(contact, dtype=np.intp)
        self.electrodes = np.asarray(electrodes, dtype=np.intp)
        self.grid = tuple(int(d) for d in grid)
        n = len(self.contact)
        if self.electrodes.ndim != 1 or self.contact.ndim != 1 or self.e.shape != (
                n, self.electrodes.size):
            raise SchemaError(
                f"expected (samples, electrodes) values and (samples,) contact cells "
                f"for {self.electrodes.size} electrode cells, got {self.e.shape} and "
                f"{self.contact.shape}"
            )
        if np.unique(self.electrodes).size != self.electrodes.size:
            raise SchemaError("two electrodes share a cell")
        size = math.prod(self.grid)
        cells = np.concatenate([self.electrodes, self.contact])
        if cells.size and not (0 <= cells.min() and cells.max() < size):
            raise SchemaError(f"cell index outside a grid of {size} cells")

    @property
    def shape(self) -> tuple[int, ...]:
        return (len(self.e),) + self.grid

    @property
    def ndim(self) -> int:
        return 1 + len(self.grid)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.e.nbytes + self.contact.nbytes + self.electrodes.nbytes

    def __len__(self) -> int:
        return len(self.e)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return np.asarray(self[[key]])[0]
        if isinstance(key, tuple):
            return np.asarray(self)[key]
        if isinstance(key, slice):  # a run of checked samples needs no new check
            out = copy.copy(self)
            out.e, out.contact = self.e[key], self.contact[key]
            return out
        return VoxelInputs(self.e[key], self.contact[key], self.electrodes, self.grid)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        n = len(self)
        dense = np.zeros((n, math.prod(self.grid)))
        dense[:, self.electrodes] = self.e
        dense[np.arange(n), self.contact] += 1.0
        return dense.astype(float if dtype is None else dtype, copy=False).reshape(self.shape)
