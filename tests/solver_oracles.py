"""Reference solvers for the force objective, kept as test oracles.

`mechanics.infer_force_with_friction` minimizes the quadratic force
objective in closed form. These three minimize the same objective by other
means: a LAPACK solve of its 2x2 normal equations, gradient descent with
backtracking, and a coarse-to-fine scan that uses only objective
evaluations. Each takes the targets (a, b) from `mechanics.force_targets`
and the contact point c and weight k.
"""

import math

import numpy as np

from tactile_force.mechanics import _objective, cross2, perp


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
