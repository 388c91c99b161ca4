"""The F/T sample generator one sample at a time, with its own surface
projection, rotation and forward sensor model for a single contact, kept as
the test oracle of the array code in tactile_force.sensor and
tactile_force.synthetic.

Each sample draws, in order, its contact's azimuth and polar angle or
height, its force's cone angle and cone azimuth, its magnitude and, when the
sensor is noisy, the noise of its readings.
"""

from __future__ import annotations

import math

import numpy as np

from tactile_force import synthetic
from tactile_force.errors import DegenerateInputError
from tactile_force.sensor import SurfaceGeometry
from sample_oracles import SampleRecord


def surface_point_and_normal(geometry: SurfaceGeometry, q) -> tuple[np.ndarray, np.ndarray]:
    """The closest surface point to the 3-vector q and the outward normal there."""
    q = np.asarray(q, dtype=float)
    length = geometry.half_cylinder_length
    if q[2] > length:
        d = q - geometry.cap_center
        dist = float(np.linalg.norm(d))
        if dist < 1e-15:
            raise DegenerateInputError("query coincides with the cap center; normal undefined")
        n = d / dist
        return geometry.cap_center + geometry.r * n, n
    rho = math.hypot(q[0], q[1])
    if rho < 1e-15:
        raise DegenerateInputError("query lies on the cylinder axis; normal undefined")
    n = np.array([q[0] / rho, q[1] / rho, 0.0])
    z = min(max(q[2], 0.0), length)
    return np.array([geometry.r * n[0], geometry.r * n[1], z]), n


def rotation_aligning(target_x, roll: float = 0.0) -> np.ndarray:
    """Rotation whose first column is target_x, with a roll about it."""
    c1 = np.asarray(target_x, dtype=float)
    c1 = c1 / np.linalg.norm(c1)
    helper = np.array([0.0, 0.0, 1.0]) if abs(c1[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
    c2 = np.cross(helper, c1)
    c2 /= np.linalg.norm(c2)
    c3 = np.cross(c1, c2)
    cr, sr = math.cos(roll), math.sin(roll)
    return np.column_stack([c1, cr * c2 + sr * c3, -sr * c2 + cr * c3])


def sensor_forward(model, s_c, s_n, f_3d, rng=None) -> np.ndarray:
    """The 19 readings of one contact and sensor-frame force."""
    f = np.asarray(f_3d, dtype=float)
    n = s_n
    offsets = model.layout.positions - s_c[None, :]
    weights = np.exp(-np.sum(offsets**2, axis=1) / synthetic.DECAY_LENGTH_M**2)

    normal_feat = -float(f @ n)
    shear_vec = f - float(f @ n) * n
    shear_mag = float(np.linalg.norm(shear_vec))
    tangential = offsets - (offsets @ n)[:, None] * n[None, :]
    t_norms = np.linalg.norm(tangential, axis=1)
    safe = t_norms > 1e-12
    t_hat = np.zeros_like(tangential)
    t_hat[safe] = tangential[safe] / t_norms[safe, None]

    e = synthetic.SENSOR_GAIN * weights * (
        synthetic.NORMAL_SENSITIVITY * normal_feat
        + synthetic.SHEAR_SENSITIVITY * shear_mag
        + synthetic.DIRECTIONAL_SHEAR_SENSITIVITY * (t_hat @ shear_vec)
        + synthetic.ANISOTROPIC_SHEAR_SENSITIVITY * (model._tangents @ shear_vec)
    )
    if rng is not None and model.noise_scale > 0:
        e = e + rng.normal(scale=model.noise_scale, size=e.shape)
    return e


def cone_direction(rng, axis, max_angle: float) -> np.ndarray:
    """Random unit vector within max_angle (radians) of axis."""
    phi = rng.uniform(0.0, max_angle)
    azim = rng.uniform(0.0, 2 * math.pi)
    frame = rotation_aligning(axis)
    local = np.array([math.cos(phi), math.sin(phi) * math.cos(azim), math.sin(phi) * math.sin(azim)])
    return frame @ local


def surface_contact(geometry: SurfaceGeometry, rng, cap_only: bool):
    """Random contact (point, normal) on the sensing side of the surface."""
    azim = rng.uniform(math.radians(-75), math.radians(75))
    if cap_only:
        polar = rng.uniform(math.radians(5), math.radians(70))
        query = geometry.cap_center + np.array(
            [math.sin(polar) * math.cos(azim), math.sin(polar) * math.sin(azim), math.cos(polar)]
        )
    else:
        z = rng.uniform(0.05, 0.95) * geometry.half_cylinder_length
        query = np.array([math.cos(azim), math.sin(azim), 0.0]) + np.array([0.0, 0.0, z])
    return surface_point_and_normal(geometry, query)


def make_ft_samples(model, geometry, source_tag, n_trials, samples_per_trial, seed, force_range,
                    cone_angle_deg=60.0, cap_only=False) -> list[SampleRecord]:
    """synthetic.make_ft_samples, one sample at a time."""
    rng = np.random.default_rng(seed)
    records = []
    for trial in range(n_trials):
        trial_id = f"{source_tag}_{trial:04d}"
        r_wb = synthetic.random_rotation(rng)
        for _ in range(samples_per_trial):
            s_c, s_n = surface_contact(geometry, rng, cap_only)
            direction = cone_direction(rng, -s_n, math.radians(cone_angle_deg))
            f_3d = rng.uniform(*force_range) * direction
            e = sensor_forward(model, s_c, s_n, f_3d, rng=rng)
            records.append(SampleRecord(trial_id=trial_id, source_tag=source_tag, e=e, s_c=s_c,
                                        s_n=s_n, f_3d=f_3d, r_wb=r_wb))
    return records
