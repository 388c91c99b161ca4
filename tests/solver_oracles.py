"""Reference implementations of the planar mechanics, kept as test oracles.

`mechanics.infer_force_with_friction` minimizes the quadratic force
objective in closed form. Three solvers here minimize the same objective by
other means: a LAPACK solve of its 2x2 normal equations, gradient descent
with backtracking, and a coarse-to-fine scan that uses only objective
evaluations. Each takes the targets (a, b) from `mechanics.force_targets`
and the contact point c and weight k.

`friction_wrench_reference` and `push_step_reference` are the
particle-friction sum and one step of the push integrator written with a
rotation matrix and per-particle (n, 2) arrays, against which the complex-offset
kernel of `mechanics.friction_wrench` and `synthetic.simulate_push` is
checked.
"""

import math

import numpy as np

from tactile_force.mechanics import (
    STATIONARY_SPEED_TOL,
    FrictionWrench,
    ParticleGrid,
    PlanarMotion,
    PushParams,
    _objective,
)


def perp(r: np.ndarray) -> np.ndarray:
    """90-degree counterclockwise rotation: (x, y) -> (-y, x)."""
    return np.array([-r[1], r[0]])


def cross2(a: np.ndarray, b: np.ndarray) -> float:
    """Scalar 2-D cross product a_x b_y - a_y b_x."""
    return float(a[0] * b[1] - a[1] * b[0])


def rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def friction_wrench_reference(
    grid: ParticleGrid, motion: PlanarMotion, params: PushParams
) -> FrictionWrench:
    """Coulomb friction force and moment summed over the particle grid.

    Particle offsets are rotated by the pose angle into the planar frame.
    Particles slower than the stationary tolerance contribute nothing; if all
    are stationary the wrench is zero and flagged static.
    """
    offsets = grid.particles @ rot2(motion.theta).T
    vels = motion.v[None, :] + motion.omega * np.column_stack([-offsets[:, 1], offsets[:, 0]])
    speeds = np.linalg.norm(vels, axis=1)
    moving = speeds > STATIONARY_SPEED_TOL
    if not np.any(moving):
        return FrictionWrench(force=np.zeros(2), moment=0.0, static=True)
    unit = vels[moving] / speeds[moving, None]
    scale = params.mu_s * grid.per_particle_normal_force
    force = -scale * unit.sum(axis=0)
    r_m = offsets[moving]
    moment = -scale * float(np.sum(r_m[:, 0] * unit[:, 1] - r_m[:, 1] * unit[:, 0]))
    return FrictionWrench(force=force, moment=moment, static=False)


def push_step_reference(
    grid: ParticleGrid,
    params: PushParams,
    pose: np.ndarray,
    v: np.ndarray,
    omega: float,
    f_applied: np.ndarray,
    contact_body: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One semi-implicit Euler step of `synthetic.simulate_push`, written
    with 2- and 3-vector arrays and `friction_wrench_reference`: the pose,
    velocity and angular velocity after the step."""
    motion_now = PlanarMotion(pose=pose, v=v, omega=omega)
    wrench = friction_wrench_reference(grid, motion_now, params)
    c_now = rot2(pose[2]) @ contact_body
    v_dot = (f_applied + wrench.force) / params.m
    omega_dot = (cross2(c_now, f_applied) + wrench.moment) / params.inertia

    v_new = v + dt * v_dot
    omega_new = omega + dt * omega_dot
    if np.allclose(f_applied, 0.0):
        ke_old = 0.5 * params.m * float(v @ v) + 0.5 * params.inertia * omega**2
        ke_new = 0.5 * params.m * float(v_new @ v_new) + 0.5 * params.inertia * omega_new**2
        if ke_new > ke_old:  # friction overshoot at near-rest: capture
            v_new = np.zeros(2)
            omega_new = 0.0
    v, omega = v_new, omega_new
    pose = pose + dt * np.array([v[0], v[1], omega])
    return pose, v, omega


def _solve_normal_equations(c: np.ndarray, a: np.ndarray, b: float, k: float) -> np.ndarray:
    """The normal equations (k I + p p^T) f = k a + b p, p = perp(c), solved
    as a general 2x2 system."""
    p = perp(c)
    return np.linalg.solve(k * np.eye(2) + np.outer(p, p), k * a + b * p)


def _solve_iterative(
    c: np.ndarray,
    a: np.ndarray,
    b: float,
    k: float,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Gradient descent with Armijo backtracking on the force objective."""
    p = perp(c)
    f = np.array(a, dtype=float)  # warm start at the friction-corrected Newton target
    obj = _objective(f, c, a, b, k)
    grad_scale = max(1.0, k * float(np.linalg.norm(a)) + abs(b) * float(np.linalg.norm(p)))
    step0 = 1.0 / (2.0 * (k + float(p @ p)))  # inverse of the largest curvature
    for _ in range(max_iter):
        grad = 2.0 * k * (f - a) + 2.0 * (cross2(c, f) - b) * p
        gnorm2 = float(grad @ grad)
        if math.sqrt(gnorm2) <= tol * grad_scale:
            break
        step = step0 * 4.0
        while True:
            trial = f - step * grad
            trial_obj = _objective(trial, c, a, b, k)
            if trial_obj <= obj - 0.5 * step * gnorm2 or step < 1e-20:
                break
            step *= 0.5
        if step < 1e-20 or trial_obj >= obj:  # stalled at float precision
            break
        f, obj = trial, trial_obj
    return f


def _solve_grid(
    c: np.ndarray,
    a: np.ndarray,
    b: float,
    k: float,
    points_per_axis: int = 21,
    rounds: int = 14,
) -> np.ndarray:
    """Coarse-to-fine scan of the objective over a force box.

    Independent oracle: uses only objective evaluations, no normal-equations
    algebra. The initial box is wide enough to contain the minimizer (the
    minimizer cannot beat f = a without staying within the bound below).
    """
    p = perp(c)
    half_width = float(np.linalg.norm(a)) + (abs(b) + np.linalg.norm(p) * np.linalg.norm(a)) / math.sqrt(k) + 1.0
    center = np.array(a, dtype=float)
    for _ in range(rounds):
        xs = np.linspace(center[0] - half_width, center[0] + half_width, points_per_axis)
        ys = np.linspace(center[1] - half_width, center[1] + half_width, points_per_axis)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        lin = k * ((gx - a[0]) ** 2 + (gy - a[1]) ** 2)
        ang = (c[0] * gy - c[1] * gx - b) ** 2
        idx = np.unravel_index(np.argmin(lin + ang), gx.shape)
        center = np.array([gx[idx], gy[idx]])
        # keep a two-cell margin around the best cell while shrinking
        half_width = 2.0 * (2.0 * half_width / (points_per_axis - 1))
    return center
