"""Planar push mechanics: support friction as a particle sum and
least-squares recovery of the contact force from observed motion.

Conventions. Planar quantities (velocities, accelerations, contact offsets,
forces) are expressed in a CM-centered frame aligned with the world axes;
the ParticleGrid stores body-fixed particle offsets and the friction
operations rotate them by the current pose angle. The recovered contact
force is in that planar frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonNegative, Positive, PositiveCount, SchemaError, check_fields

STATIONARY_SPEED_TOL = 1e-9  # m/s; below this a particle contributes no friction
GRAVITY = 9.81  # m/s^2


@dataclass(frozen=True)
class ForceVector:
    """A planar force: a float 2-vector in the CM-centered planar frame."""

    components: np.ndarray


@dataclass(frozen=True)
class PushParams:
    """Pushed-object parameters.

    m: mass (kg); inertia: moment about the CM (kg m^2); mu_s: support
    friction coefficient; n: friction particle count; k: weight on the
    linear-acceleration residual in the force objective.
    """

    m: float = field(metadata={"mark": Positive(1.0)})
    inertia: float = field(metadata={"mark": Positive(1.0)})
    mu_s: float = NonNegative(0.1)
    n: int = PositiveCount(80)
    k: float = Positive(10.0)

    __post_init__ = check_fields


def checked_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """`value` as a float array of the given shape with finite entries; any
    other value is a SchemaError naming the field."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape or not np.isfinite(arr).all():
        what = f"{shape[0]} finite numbers" if shape else "a finite number"
        raise SchemaError(f"field {name!r} must be {what}, got {value!r}")
    return arr


_MOTION_SHAPES = {"pose": (3,), "v": (2,), "omega": (), "v_dot": (2,), "omega_dot": ()}


@dataclass(frozen=True)
class PlanarMotion:
    """SE(2) object state: pose (x, y, theta) plus velocities and accelerations."""

    pose: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(2))
    omega: float = 0.0
    v_dot: np.ndarray = field(default_factory=lambda: np.zeros(2))
    omega_dot: float = 0.0

    def __post_init__(self):
        try:
            pose = np.asarray(self.pose, dtype=float)
            v = np.asarray(self.v, dtype=float)
            v_dot = np.asarray(self.v_dot, dtype=float)
            omega, omega_dot = float(self.omega), float(self.omega_dot)
            valid = (pose.shape == (3,) and v.shape == (2,) and v_dot.shape == (2,)
                     and all(map(math.isfinite, (*pose.tolist(), *v.tolist(), omega,
                                                 *v_dot.tolist(), omega_dot))))
        except (TypeError, ValueError):
            valid = False
        if not valid:
            # name the first bad field; checking them one by one up front
            # would slow every step of inference
            for name, shape in _MOTION_SHAPES.items():
                checked_array(name, getattr(self, name), shape)
            raise SchemaError("motion state is invalid")
        object.__setattr__(self, "pose", pose)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "v_dot", v_dot)
        object.__setattr__(self, "omega_dot", omega_dot)

    @property
    def theta(self) -> float:
        return float(self.pose[2])


def _most_square_factors(n: int) -> tuple[int, int]:
    """Factor n = a * b with a <= b and b - a minimal."""
    a = int(math.isqrt(n))
    while n % a != 0:
        a -= 1
    return a, n // a


@dataclass(frozen=True)
class ParticleGrid:
    """Support-contact particles: body-frame offsets from the CM, each
    carrying the same share m*g/n of the normal load. `offsets` holds the
    same offsets as complex numbers x + iy."""

    particles: np.ndarray
    per_particle_normal_force: float
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.particles, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] == 0:
            raise SchemaError(f"particles must be an (n, 2) array with n >= 1, got {p.shape}")
        if self.per_particle_normal_force <= 0:
            raise SchemaError("per-particle normal force must be positive")
        object.__setattr__(self, "particles", p)
        object.__setattr__(self, "offsets", p[:, 0] + 1j * p[:, 1])

    @property
    def n(self) -> int:
        return self.particles.shape[0]

    @classmethod
    def uniform_rectangle(cls, half_extents: np.ndarray, params: PushParams) -> "ParticleGrid":
        """Cell-centroid lattice over a rectangular contact region.

        The region is split into nx * ny = n cells with the lattice counts
        chosen as the most-square factor pair, the larger count along the
        longer side; each cell contributes one particle at its centroid.
        """
        hx, hy = (float(half_extents[0]), float(half_extents[1]))
        if hx <= 0 or hy <= 0:
            raise SchemaError("half extents must be positive")
        a, b = _most_square_factors(params.n)
        nx, ny = (b, a) if hx >= hy else (a, b)
        xs = (np.arange(nx) + 0.5) / nx * 2 * hx - hx
        ys = (np.arange(ny) + 0.5) / ny * 2 * hy - hy
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        particles = np.column_stack([gx.ravel(), gy.ravel()])
        return cls(particles=particles, per_particle_normal_force=params.m * GRAVITY / params.n)


@dataclass(frozen=True)
class FrictionWrench:
    """Support friction resultant in the planar frame.

    `static` marks the regime where every particle sat below the stationary
    speed tolerance, for which the friction model is undefined and the wrench
    is reported as zero.
    """

    force: np.ndarray
    moment: float
    static: bool


def friction_wrench(
    grid: ParticleGrid, motion: PlanarMotion, params: PushParams
) -> FrictionWrench:
    """Coulomb friction force and moment summed over the particle grid.

    With planar vectors as complex numbers, the offsets r rotate into the
    planar frame as r e^{i theta}, a particle moves at v + i omega r, and its
    unit velocity u adds -mu_s f_n u to the force and -mu_s f_n Im(conj(r) u),
    the cross product r x u, to the moment. Particles slower than the
    stationary tolerance contribute nothing; if all are stationary the
    wrench is zero and flagged static.
    """
    theta = motion.theta
    r = grid.offsets * complex(math.cos(theta), math.sin(theta))
    vel = r * complex(0.0, motion.omega)
    vel += complex(*motion.v.tolist())
    speed = np.abs(vel)
    if not speed.min() > STATIONARY_SPEED_TOL:  # some particle at rest
        moving = speed > STATIONARY_SPEED_TOL
        if not moving.any():
            return FrictionWrench(force=np.zeros(2), moment=0.0, static=True)
        r, vel, speed = r[moving], vel[moving], speed[moving]
    unit = vel / speed
    scale = -params.mu_s * grid.per_particle_normal_force
    total = complex(unit.sum())
    moment = scale * np.vdot(r, unit).imag
    return FrictionWrench(force=np.array((scale * total.real, scale * total.imag)),
                          moment=float(moment), static=False)


@dataclass(frozen=True)
class InferenceResult:
    """Inferred contact force with the objective value at the solution and
    the friction regime flag."""

    force: ForceVector
    objective: float
    static_friction: bool


def _objective(f, c, a, b: float, k: float) -> float:
    """k ||f - a||^2 + (c x f - b)^2 for 2-vectors f, c, a."""
    (fx, fy), (cx, cy), (ax, ay) = f, c, a
    rx, ry = fx - ax, fy - ay
    residual_ang = cx * fy - cy * fx - b
    return float(k * (rx * rx + ry * ry) + residual_ang * residual_ang)


def _solve_closed_form(c, a, b: float, k: float) -> tuple[float, float]:
    """The minimizer f of `_objective` for 2-vectors c, a."""
    # Normal equations of the quadratic: (k I + p p^T) f = k a + b p, with
    # p = perp(c) = (-c_y, c_x). The matrix is a rank-one update of k I, so
    # (Sherman-Morrison) f = a + (b - p.a) / (k + p.p) p.
    (cx, cy), (ax, ay) = c, a
    s = (b - (cx * ay - cy * ax)) / (k + (cy * cy + cx * cx))
    return ax - s * cy, ay + s * cx


def force_targets(
    motion: PlanarMotion, grid: ParticleGrid, params: PushParams
) -> tuple[np.ndarray, float, bool]:
    """Targets (a, b) of the force objective and the static-friction flag.

    The friction wrench (f_f, n_f) depends only on the observed motion, so
    it shifts the Newton-Euler targets: a = m v_dot - f_f and
    b = I omega_dot - n_f. With mu_s = 0 the wrench is zero and the targets
    are those of a frictionless push.
    """
    wrench = friction_wrench(grid, motion, params)
    (ax, ay), (fx, fy) = motion.v_dot.tolist(), wrench.force.tolist()
    a = np.array((params.m * ax - fx, params.m * ay - fy))
    b = params.inertia * motion.omega_dot - wrench.moment
    return a, b, wrench.static


def infer_force_with_friction(
    motion: PlanarMotion,
    c: np.ndarray,
    grid: ParticleGrid,
    params: PushParams,
) -> InferenceResult:
    """Recover the contact force including the support friction wrench.

    Minimizes k ||f + f_f - m v_dot||^2 + (c x f + n_f - I omega_dot)^2
    over f in closed form; c is the contact point relative to the CM, in the
    planar frame.
    """
    a, b, static = force_targets(motion, grid, params)
    c, a = np.asarray(c, dtype=float).tolist(), a.tolist()
    f = _solve_closed_form(c, a, b, params.k)
    return InferenceResult(
        force=ForceVector(np.array(f)),
        objective=_objective(f, c, a, b, params.k),
        static_friction=static,
    )
