"""Synthetic data generation: simulated planar pushes with exact ground
truth, and a forward sensor model mapping contact state and force to
electrode readings.

Planar episodes are integrated with semi-implicit Euler and store the exact
accelerations used at every step, so re-running the force inference on the
stored motion recovers the applied force to solver precision. The forward
sensor model is an invertible stand-in for real hardware: each electrode
responds through a Gaussian kernel around the contact point to the normal
force component, the shear magnitude, and the shear component along the
electrode-specific tangential direction. The directional term is what makes
distinct forces produce distinct readings; without it the shear direction
would be unobservable and force regression ill-posed.

A seed fixes every sample. An F/T trial draws its wrist pose, then five
uniform numbers per sample, in sample order: the contact's azimuth, its
polar angle on the cap (cap_only) or its height on the cylinder, the
force's angle from the inward normal and its azimuth about it, and its
magnitude; a noisy sensor then draws the noise of the trial's readings,
sample by sample. The trial's contacts, forces and readings are then
computed as (n, .) arrays, with one sensor_forward call per trial, into the
columns of the generator's one SampleSet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SampleSet
from .errors import (
    Between, NonNegative, NumericalError, Range, SchemaError, check_config_value, check_fields,
)
from .mechanics import (
    ParticleGrid,
    PlanarMotion,
    PushParams,
    friction_wrench,
)
from .net.losses import SOURCE_PLANAR
from .sensor import (
    N_ELECTRODES,
    ContactState,
    ElectrodeLayout,
    SurfaceGeometry,
    detect_contact,
    row_norms,
    surface_point_and_normal,
)

DEFAULT_BOX_MASS_KG = 0.65
DEFAULT_BOX_HALF_EXTENTS_M = (0.1, 0.075)
DEFAULT_DT_S = 1e-3
DEFAULT_PUSH_MAGNITUDE_RANGE_N = (0.1, 2.0)
# a push schedule: idle steps at either end, and segments of a random length
# in [40, 120) steps, each pushing within 45 degrees of +x
PUSH_IDLE_STEPS = 20
PUSH_SEGMENT_STEPS = (40, 120)
PUSH_DIRECTION_JITTER_DEG = 45.0


def force_range_mark(low: float, high: float) -> Range:
    """The mark of a force range defaulting to [low, high] N: two forces of
    at least 0 N, the low end not above the high end."""
    return Range((NonNegative(low), NonNegative(high)))


def cone_angle_mark(degrees: float) -> Between:
    """The mark of a force cone's half angle defaulting to `degrees`: at
    most a right angle from the inward normal, so that every force presses."""
    return Between(degrees, 0.0, 90.0)


# Static pressure synthesized from the force magnitude; 400 units/N keeps
# pushes in the 0.1-2 N range comfortably above the contact threshold of 10.
PRESSURE_UNITS_PER_NEWTON = 400.0


def box_inertia(m: float, half_extents) -> float:
    """Moment of inertia of a uniform-density rectangle about its center."""
    hx, hy = float(half_extents[0]), float(half_extents[1])
    return m * (hx**2 + hy**2) / 3.0


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix via a normalized quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_aligning(target_x: np.ndarray, roll=0.0) -> np.ndarray:
    """Rotations whose first columns are the rows of target_x, (n, 3), each
    with its roll about that axis (one per row, or one for all): (n, 3, 3)."""
    c1 = np.asarray(target_x, dtype=float)
    c1 = c1 / row_norms(c1)
    helper = np.where(np.abs(c1[:, 2:]) < 0.9, [0.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    c2 = np.cross(helper, c1)
    c2 /= row_norms(c2)
    c3 = np.cross(c1, c2)
    roll = np.reshape(roll, (-1, 1))
    cr, sr = np.cos(roll), np.sin(roll)
    return np.stack([c1, cr * c2 + sr * c3, -sr * c2 + cr * c3], axis=2)


@dataclass(frozen=True)
class PushEpisode:
    """One simulated pushing trial with per-step ground truth.

    Planar arrays are expressed in the CM-centered world-aligned frame;
    contact_points are offsets from the CM (already rotated by the pose).
    """

    trial_id: str
    params: PushParams
    half_extents: tuple[float, float]
    times: np.ndarray
    poses: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    v_dot: np.ndarray
    omega_dot: np.ndarray
    contact_points: np.ndarray
    applied_forces: np.ndarray
    static_flags: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.times.shape[0]

    def motion_at(self, i: int) -> PlanarMotion:
        return PlanarMotion(
            pose=self.poses[i],
            v=self.v[i],
            omega=float(self.omega[i]),
            v_dot=self.v_dot[i],
            omega_dot=float(self.omega_dot[i]),
        )

    def step_dicts(self) -> list[dict]:
        """Rows for the episode JSON-lines file: each step's time, motion,
        contact point and applied force, as JSON values."""
        return [
            {"t": float(self.times[i]), "pose": self.poses[i].tolist(), "v": self.v[i].tolist(),
             "omega": float(self.omega[i]), "v_dot": self.v_dot[i].tolist(),
             "omega_dot": float(self.omega_dot[i]), "contact_point": self.contact_points[i].tolist(),
             "f_true": self.applied_forces[i].tolist()}
            for i in range(self.n_steps)
        ]


def simulate_push(
    params: PushParams,
    half_extents,
    applied_forces: np.ndarray,
    contact_body: np.ndarray,
    dt: float = DEFAULT_DT_S,
    initial_v=(0.0, 0.0),
    initial_omega: float = 0.0,
    trial_id: str = "trial",
) -> PushEpisode:
    """Integrate the planar dynamics under a per-step applied force schedule.

    applied_forces is (steps, 2) in the planar frame; contact_body is the
    body-fixed contact offset from the CM, rotated by the pose each step.
    The body starts at pose (0, 0, 0). Semi-implicit Euler: the acceleration
    from the current state advances the velocity first, then the pose. When
    no force is applied and the friction step would overshoot (gain energy),
    the body is captured at rest instead.
    """
    if not dt > 0:
        raise SchemaError(f"dt must be positive, got {dt}")
    applied_forces = np.asarray(applied_forces, dtype=float)
    if applied_forces.ndim != 2 or applied_forces.shape[1] != 2:
        raise SchemaError("applied_forces must be (steps, 2)")
    steps = applied_forces.shape[0]
    bx, by = np.asarray(contact_body, dtype=float).tolist()
    grid = ParticleGrid.uniform_rectangle(half_extents, params)
    m, inertia = params.m, params.inertia

    x = y = theta = 0.0
    vx, vy = map(float, initial_v)
    omega = float(initial_omega)

    times = np.arange(steps) * dt
    poses = np.zeros((steps, 3))
    vs = np.zeros((steps, 2))
    omegas = np.zeros(steps)
    v_dots = np.zeros((steps, 2))
    omega_dots = np.zeros(steps)
    contacts = np.zeros((steps, 2))
    statics = np.zeros(steps, dtype=bool)

    for i, (fx, fy) in enumerate(applied_forces.tolist()):
        poses[i], vs[i], omegas[i] = (x, y, theta), (vx, vy), omega
        wrench = friction_wrench(grid, PlanarMotion(pose=poses[i], v=vs[i], omega=omega), params)
        wfx, wfy = wrench.force.tolist()
        cos, sin = math.cos(theta), math.sin(theta)
        cx, cy = cos * bx - sin * by, sin * bx + cos * by
        ax, ay = (fx + wfx) / m, (fy + wfy) / m
        alpha = (cx * fy - cy * fx + wrench.moment) / inertia

        v_dots[i], omega_dots[i] = (ax, ay), alpha
        contacts[i] = cx, cy
        statics[i] = wrench.static

        vx_new, vy_new, omega_new = vx + dt * ax, vy + dt * ay, omega + dt * alpha
        if not (math.isfinite(vx_new) and math.isfinite(vy_new) and math.isfinite(omega_new)):
            raise NumericalError(f"integration diverged at step {i}")
        if abs(fx) <= 1e-8 and abs(fy) <= 1e-8:
            ke_old = 0.5 * m * (vx * vx + vy * vy) + 0.5 * inertia * omega**2
            ke_new = 0.5 * m * (vx_new * vx_new + vy_new * vy_new) + 0.5 * inertia * omega_new**2
            if ke_new > ke_old:  # friction overshoot at near-rest: capture
                vx_new = vy_new = omega_new = 0.0
        vx, vy, omega = vx_new, vy_new, omega_new
        x, y, theta = x + dt * vx, y + dt * vy, theta + dt * omega

    return PushEpisode(
        trial_id=trial_id,
        params=params,
        half_extents=(float(half_extents[0]), float(half_extents[1])),
        times=times,
        poses=poses,
        v=vs,
        omega=omegas,
        v_dot=v_dots,
        omega_dot=omega_dots,
        contact_points=contacts,
        applied_forces=applied_forces,
        static_flags=statics,
    )


def electrode_tangents(layout: ElectrodeLayout) -> np.ndarray:
    """Fixed per-electrode tangent directions (anisotropy axes).

    Deterministic function of the layout, alternating per electrode between
    the azimuthal tangent (normal crossed with the sensor axis) and the
    axial tangent (sensor axis projected onto the electrode's tangent
    plane), so the fixed axes jointly span both shear directions at any
    contact. Degenerate cases near the tip fall back to +x-based axes.
    """
    z_axis = np.array([0.0, 0.0, 1.0])
    x_axis = np.array([1.0, 0.0, 0.0])
    tangents = np.empty_like(layout.normals)
    for i, n in enumerate(layout.normals):
        if i % 2 == 0:
            t = np.cross(n, z_axis)
            if np.linalg.norm(t) < 1e-6:
                t = np.cross(n, x_axis)
        else:
            t = z_axis - (z_axis @ n) * n
            if np.linalg.norm(t) < 1e-6:
                t = x_axis - (x_axis @ n) * n
        tangents[i] = t / np.linalg.norm(t)
    return tangents


@dataclass(frozen=True)
class SensorForwardModel:
    """Synthetic map from (contact, force) to the 19 electrode readings.

    Each electrode i at position p_i responds through a Gaussian spatial
    kernel w_i = exp(-||p_i - s_c||^2 / decay^2) to four force features: the
    normal component -f.n, the shear magnitude, the shear projected on the
    tangential unit vector from the contact toward the electrode, and the
    shear projected on the electrode's own fixed anisotropy axis (skin-like
    directional sensitivity). The two projected terms are what make distinct
    forces produce distinct readings; with both sensitivities zero the shear
    direction about the normal is unobservable and force regression from
    readings alone is ill-posed. Noise is only added when an rng is
    supplied, keeping the map itself a pure function.
    """

    layout: ElectrodeLayout
    noise_scale: float = NonNegative(0.0)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "_tangents", electrode_tangents(self.layout))


# The stand-in sensor's response, fixed like the hardware it stands for: the
# gain, the kernel's decay length (m) and the weights of the four features
SENSOR_GAIN, DECAY_LENGTH_M = 10.0, 0.007
NORMAL_SENSITIVITY, SHEAR_SENSITIVITY = 0.5, 0.1
DIRECTIONAL_SHEAR_SENSITIVITY, ANISOTROPIC_SHEAR_SENSITIVITY = 0.5, 2.5


def sensor_forward(
    model: SensorForwardModel,
    contact: ContactState,
    f_3d: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Electrode readings, (n, 19), for n contacts and their sensor-frame
    forces, (n, 3). With an rng and a positive noise_scale, the noise of
    all n readings is drawn after the caller's other draws, row by row."""
    f = np.asarray(f_3d, dtype=float)
    if f.shape != contact.s_n.shape:
        raise SchemaError(f"{len(contact)} contacts for forces of shape {f.shape}")
    # every product is a batched matmul, which rounds each row as a single
    # contact's vector products do
    n, n_col = contact.s_n, contact.s_n[:, :, None]
    offsets = model.layout.positions - contact.s_c[:, None, :]
    weights = np.exp(-np.sum(offsets**2, axis=2) / DECAY_LENGTH_M**2)

    f_n = (f[:, None, :] @ n_col)[:, 0]
    shear_vec = f - f_n * n
    shear_col = shear_vec[:, :, None]
    shear_mag = row_norms(shear_vec)
    tangential = offsets - (offsets @ n_col) * n[:, None, :]
    t_norms = np.linalg.norm(tangential, axis=2, keepdims=True)
    t_hat = np.divide(tangential, t_norms, out=np.zeros_like(tangential), where=t_norms > 1e-12)

    e = SENSOR_GAIN * weights * (
        (NORMAL_SENSITIVITY * -f_n + SHEAR_SENSITIVITY * shear_mag)
        + DIRECTIONAL_SHEAR_SENSITIVITY * (t_hat @ shear_col)[:, :, 0]
        + ANISOTROPIC_SHEAR_SENSITIVITY * (model._tangents @ shear_col)[:, :, 0]
    )
    if rng is not None and model.noise_scale > 0:
        e = e + rng.normal(scale=model.noise_scale, size=e.shape)
    return e


# A sample's five uniform draws, in the order a seed fixes: the contact's
# azimuth (within 75 degrees of +x), its polar angle from the cap center or
# its height as a fraction of the cylinder, the force direction's angle from
# the cone axis and its azimuth about it, and a last draw (an F/T sample's
# magnitude, a planar trial's roll)
CONTACT_AZIMUTH_RANGE = (math.radians(-75), math.radians(75))
CAP_POLAR_RANGE = (math.radians(5), math.radians(70))
HEIGHT_FRACTION_RANGE = (0.05, 0.95)


def _draw(rng, size, cap_only: bool, cone_angle_deg: float, last_range) -> np.ndarray:
    """The five draws of `size` samples, one row each, in the order above,
    returned one draw per row."""
    polar_or_height = CAP_POLAR_RANGE if cap_only else HEIGHT_FRACTION_RANGE
    lows = (CONTACT_AZIMUTH_RANGE[0], polar_or_height[0], 0.0, 0.0, last_range[0])
    highs = (CONTACT_AZIMUTH_RANGE[1], polar_or_height[1], math.radians(cone_angle_deg),
             2 * math.pi, last_range[1])
    return rng.uniform(lows, highs, size=(size, 5)).T


def _surface_contacts(geometry: SurfaceGeometry, azim, polar_or_height, cap_only: bool
                      ) -> ContactState:
    """Contacts on the sensing side of the surface at the drawn azimuths and
    polar angles on the cap, or height fractions on the cylinder."""
    if cap_only:
        polar = polar_or_height
        query = geometry.cap_center + np.stack(
            [np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim), np.cos(polar)], axis=1
        )
    else:
        z = polar_or_height * geometry.half_cylinder_length
        query = np.stack([np.cos(azim), np.sin(azim), z], axis=1)
    return surface_point_and_normal(geometry, query)


def _cone_directions(axes: np.ndarray, angle, azim) -> np.ndarray:
    """Unit vectors at the drawn angles (radians) from the rows of axes and
    azimuths about them."""
    local = np.stack([np.cos(angle), np.sin(angle) * np.cos(azim), np.sin(angle) * np.sin(azim)],
                     axis=1)
    return (rotation_aligning(axes) @ local[:, :, None])[:, :, 0]


def make_ft_samples(
    model: SensorForwardModel,
    geometry: SurfaceGeometry,
    source_tag: str,
    n_trials: int,
    samples_per_trial: int,
    seed: int,
    force_range: tuple[float, float],
    cone_angle_deg: float = 60.0,
    cap_only: bool = False,
) -> SampleSet:
    """Force-torque style samples: random surface contacts with forces drawn
    within a cone of the inward normal, one sensor pose per trial.

    Each trial draws its wrist pose, then every sample's five draws in
    sample order, then the noise of all its readings, and computes its
    contacts, forces and readings as arrays, in one sensor_forward call.
    A force_range or cone_angle_deg off its mark is a ConfigError naming it."""
    check_config_value("force_range", force_range, force_range_mark(0.0, 0.0))
    check_config_value("cone_angle_deg", cone_angle_deg, cone_angle_mark(0.0))
    rng = np.random.default_rng(seed)
    n = n_trials * samples_per_trial
    e, s_c, s_n, f_3d = (np.empty((n, width)) for width in (N_ELECTRODES, 3, 3, 3))
    r_wb = np.empty((n_trials, 3, 3))
    for trial in range(n_trials):
        rows = slice(trial * samples_per_trial, (trial + 1) * samples_per_trial)
        r_wb[trial] = random_rotation(rng)  # one wrist pose per trial
        azim, polar_or_height, angle, cone_azim, magnitude = _draw(
            rng, samples_per_trial, cap_only, cone_angle_deg, force_range)
        contacts = _surface_contacts(geometry, azim, polar_or_height, cap_only)
        s_c[rows], s_n[rows] = contacts.s_c, contacts.s_n
        f_3d[rows] = magnitude[:, None] * _cone_directions(-contacts.s_n, angle, cone_azim)
        e[rows] = sensor_forward(model, contacts, f_3d[rows], rng=rng)
    trial_ids = [f"{source_tag}_{trial:04d}" for trial in range(n_trials)]
    return SampleSet(trial_id=np.repeat(np.array(trial_ids, dtype=str), samples_per_trial),
                     source_tag=np.full(n, source_tag), e=e, s_c=s_c, s_n=s_n, f_3d=f_3d,
                     r_wb=np.repeat(r_wb, samples_per_trial, axis=0))


def piecewise_force_schedule(
    rng: np.random.Generator,
    steps: int,
    magnitude_range: tuple[float, float] = DEFAULT_PUSH_MAGNITUDE_RANGE_N,
) -> np.ndarray:
    """Piecewise-constant pushes along +x with angular jitter, with
    PUSH_IDLE_STEPS of idle padding at both ends."""
    forces = np.zeros((steps, 2))
    i = PUSH_IDLE_STEPS
    while i < steps - PUSH_IDLE_STEPS:
        seg = int(rng.integers(*PUSH_SEGMENT_STEPS))
        mag = rng.uniform(*magnitude_range)
        ang = math.radians(rng.uniform(-PUSH_DIRECTION_JITTER_DEG, PUSH_DIRECTION_JITTER_DEG))
        forces[i : min(i + seg, steps - PUSH_IDLE_STEPS)] = mag * np.array(
            [math.cos(ang), math.sin(ang)]
        )
        i += seg
    return forces


def make_planar_trials(
    model: SensorForwardModel,
    geometry: SurfaceGeometry,
    n_trials: int,
    steps: int,
    seed: int,
    params: PushParams | None = None,
    half_extents=DEFAULT_BOX_HALF_EXTENTS_M,
    dt: float = DEFAULT_DT_S,
    magnitude_range: tuple[float, float] = DEFAULT_PUSH_MAGNITUDE_RANGE_N,
) -> tuple[list[PushEpisode], SampleSet]:
    """Simulate pushing trials and derive sensor samples from each step.

    The sensor touches the box at a fixed spot per trial; its orientation is
    built so the nominal +x push direction maps within 15 degrees of the
    contact's outward normal. Each sample's f_3d is the force on the box,
    rotated into the sensor frame, so a head-on push labels a force that
    points out of the sensing face, not into it as an F/T sample's does.
    The contact gate runs once over the trial's synthesized static pressure
    trace, so the first steps of each push are dropped until its window
    fills. Each sample's step is its row in the trial's episode file. A
    magnitude_range off its mark is a ConfigError naming it.
    """
    check_config_value("magnitude_range", magnitude_range, force_range_mark(0.0, 0.0))
    master = np.random.default_rng(seed)
    episodes: list[PushEpisode] = []
    # each trial's id, pose, contact point and normal, and number of samples;
    # each sample's readings, force and step
    ids, poses, points, normals, counts, e_rows, f_rows, labelled = ([] for _ in range(8))
    for trial in range(n_trials):
        rng = np.random.default_rng(master.integers(2**63))
        trial_id = f"{SOURCE_PLANAR}_{trial:04d}"
        if params is None:
            trial_params = PushParams(
                m=DEFAULT_BOX_MASS_KG, inertia=box_inertia(DEFAULT_BOX_MASS_KG, half_extents)
            )
        else:
            trial_params = params
        hx, hy = half_extents
        contact_body = np.array([-hx, rng.uniform(-0.6 * hy, 0.6 * hy)])
        forces = piecewise_force_schedule(rng, steps, magnitude_range=magnitude_range)
        episode = simulate_push(
            trial_params, half_extents, forces, contact_body, dt=dt, trial_id=trial_id
        )

        azim, height, angle, cone_azim, roll = _draw(rng, 1, False, 15.0, (0.0, 2 * math.pi))
        contact = _surface_contacts(geometry, azim, height, cap_only=False)
        tilt = _cone_directions(contact.s_n, angle, cone_azim)
        sensor_to_object = rotation_aligning(tilt, roll)[0]
        r_wb = sensor_to_object.T  # planar frame is world-aligned

        # one product per step: a batched one rounds some rows differently
        f_3d = [sensor_to_object @ np.array([fx, fy, 0.0])
                for fx, fy in episode.applied_forces.tolist()]
        magnitudes = np.array([float(np.linalg.norm(f)) for f in f_3d])
        in_contact = detect_contact(PRESSURE_UNITS_PER_NEWTON * magnitudes)
        # every pushed step draws its noise, in step order; the gate picks the samples
        before = len(labelled)
        for i in np.flatnonzero(magnitudes).tolist():
            e = sensor_forward(model, contact, f_3d[i][None], rng=rng)
            if in_contact[i]:
                e_rows.append(e)
                f_rows.append(f_3d[i])
                labelled.append(i)
        ids.append(trial_id)
        poses.append(r_wb)
        points.append(contact.s_c[0])
        normals.append(contact.s_n[0])
        counts.append(len(labelled) - before)
        episodes.append(episode)
    n = len(labelled)

    def per_sample(rows, shape):  # each trial's row, once for each of its samples
        return np.repeat(np.array(rows, dtype=float).reshape((-1,) + shape), counts, axis=0)

    return episodes, SampleSet(
        trial_id=np.repeat(np.array(ids, dtype=str), counts), source_tag=np.full(n, SOURCE_PLANAR),
        e=np.array(e_rows).reshape(n, N_ELECTRODES), s_c=per_sample(points, (3,)),
        s_n=per_sample(normals, (3,)), f_3d=np.array(f_rows).reshape(n, 3),
        r_wb=per_sample(poses, (3, 3)), step=np.array(labelled, dtype=np.int64),
    )

