"""Tests for the push simulator, the forward sensor model, and dataset splits.

The central check: re-running the force inference on each simulated step's
stored motion recovers the applied force, validating the friction model and
the least-squares recovery against the integrator as an independent oracle.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic_oracles
from solver_oracles import push_step_reference
from sample_oracles import sample_set
from tactile_force.dataset import make_dataset
from tactile_force.errors import ConfigError, DataIntegrityError, NumericalError, SchemaError
from tactile_force.mechanics import (
    ParticleGrid,
    PushParams,
    infer_force_with_friction,
)
from tactile_force import synthetic
from tactile_force.sensor import (
    ContactState,
    SurfaceGeometry,
    default_electrode_layout,
    detect_contact,
)
from tactile_force.synthetic import (
    PRESSURE_UNITS_PER_NEWTON,
    SensorForwardModel,
    box_inertia,
    make_ft_samples,
    make_planar_trials,
    piecewise_force_schedule,
    random_rotation,
    sensor_forward,
    simulate_push,
)


def default_params(mu_s=0.1, n=80):
    return PushParams(
        m=0.65, inertia=box_inertia(0.65, (0.1, 0.075)), mu_s=mu_s, n=n
    )


@pytest.fixture
def forward_model():
    return SensorForwardModel(layout=default_electrode_layout())


class TestSimulatePush:
    def test_equilibrium_stays_at_rest(self):
        params = default_params()
        episode = simulate_push(
            params, (0.1, 0.075), np.zeros((100, 2)), np.array([-0.1, 0.0])
        )
        np.testing.assert_array_equal(episode.v, 0.0)
        np.testing.assert_array_equal(episode.omega, 0.0)
        np.testing.assert_array_equal(episode.poses, 0.0)
        assert episode.static_flags.all()

    def test_constant_force_through_cm_frictionless(self):
        # closed form: v(t) = f t / m
        params = default_params(mu_s=0.0)
        steps, dt, f = 500, 1e-3, np.array([0.5, 0.0])
        episode = simulate_push(
            params, (0.1, 0.075), np.tile(f, (steps, 1)), np.zeros(2), dt=dt
        )
        expected = f[0] * episode.times[-1] / params.m
        # stored v at step i reflects i integration steps
        np.testing.assert_allclose(episode.v[-1, 0], expected, rtol=1e-6)
        np.testing.assert_allclose(episode.v[:, 1], 0.0, atol=1e-12)

    def test_roundtrip_inference_recovers_applied_force(self):
        rng = np.random.default_rng(21)
        params = default_params(mu_s=0.15)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        forces = piecewise_force_schedule(rng, 300)
        episode = simulate_push(params, (0.1, 0.075), forces, np.array([-0.1, 0.02]))
        checked = 0
        for i in range(episode.n_steps):
            if episode.static_flags[i]:
                continue
            result = infer_force_with_friction(
                episode.motion_at(i), episode.contact_points[i], grid, params
            )
            np.testing.assert_allclose(
                result.force.components, episode.applied_forces[i], atol=1e-3
            )
            checked += 1
        assert checked > 100

    def test_stored_trajectory_satisfies_integrator_relations(self):
        # stored arrays must obey the semi-implicit update identities
        rng = np.random.default_rng(31)
        params = default_params(mu_s=0.12)
        dt = 1e-3
        forces = piecewise_force_schedule(rng, 250)
        episode = simulate_push(
            params, (0.1, 0.075), forces, np.array([-0.1, 0.01]), dt=dt
        )
        for i in range(episode.n_steps - 1):
            if np.allclose(forces[i], 0.0):
                continue  # rest-capture steps may clamp the update
            v_next = episode.v[i] + dt * episode.v_dot[i]
            omega_next = episode.omega[i] + dt * episode.omega_dot[i]
            np.testing.assert_allclose(episode.v[i + 1], v_next, atol=1e-12)
            np.testing.assert_allclose(episode.omega[i + 1], omega_next, atol=1e-12)
            pose_next = episode.poses[i] + dt * np.array(
                [v_next[0], v_next[1], omega_next]
            )
            np.testing.assert_allclose(episode.poses[i + 1], pose_next, atol=1e-12)

    def test_energy_dissipates_without_applied_force(self):
        params = default_params(mu_s=0.2)
        episode = simulate_push(
            params,
            (0.1, 0.075),
            np.zeros((400, 2)),
            np.zeros(2),
            initial_v=(0.3, -0.1),
            initial_omega=2.0,
        )
        ke = (
            0.5 * params.m * np.sum(episode.v**2, axis=1)
            + 0.5 * params.inertia * episode.omega**2
        )
        assert np.all(np.diff(ke) <= 1e-12)
        assert ke[-1] < ke[0] * 0.9  # friction actually drains energy

    def test_non_finite_state_raises_with_step_index(self):
        params = default_params()
        forces = np.zeros((10, 2))
        forces[3, 0] = np.nan
        with pytest.raises(NumericalError, match="step 3"):
            simulate_push(params, (0.1, 0.075), forces, np.zeros(2))

    def test_bad_dt_rejected(self):
        for dt in (0.0, -1e-3, float("nan")):
            with pytest.raises(SchemaError):
                simulate_push(default_params(), (0.1, 0.075), np.zeros((5, 2)), np.zeros(2), dt=dt)

    def test_matches_reference_integrator(self):
        """From each stored state, the rotation-matrix reference step gives
        the next stored pose and velocities, through pushes, coasting with
        rest capture, and rest."""
        rng = np.random.default_rng(17)
        params = default_params(mu_s=0.2, n=48)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        forces = piecewise_force_schedule(rng, 400)
        forces[200:260] = 0.0  # a coast to rest mid-episode
        contact, dt = np.array([-0.1, 0.03]), 2e-3
        episode = simulate_push(params, (0.1, 0.075), forces, contact, dt=dt)
        largest = 0.0
        for i in range(episode.n_steps - 1):
            pose, v, omega = push_step_reference(
                grid, params, episode.poses[i], episode.v[i], episode.omega[i], forces[i], contact, dt
            )
            largest = max(largest, np.abs(pose - episode.poses[i + 1]).max(),
                          np.abs(v - episode.v[i + 1]).max(), abs(omega - episode.omega[i + 1]))
        assert largest <= 1e-14, f"largest difference from the reference step: {largest:.3g}"
        assert episode.static_flags.any() and not episode.static_flags.all()


# the stand-in sensor's response constants, each read by sensor_forward
RESPONSE = ("SENSOR_GAIN", "DECAY_LENGTH_M", "NORMAL_SENSITIVITY", "SHEAR_SENSITIVITY",
            "DIRECTIONAL_SHEAR_SENSITIVITY", "ANISOTROPIC_SHEAR_SENSITIVITY")


def reading_by_electrode(layout, s_c, s_n, f, response):
    """SensorForwardModel's documented map for one contact, one electrode at
    a time, with the response values in `response` (keyed by RESPONSE's
    names)."""
    normal = -float(f @ s_n)
    shear = f - float(f @ s_n) * s_n
    e = np.zeros(len(layout.positions))
    for i, (p, axis) in enumerate(zip(layout.positions, synthetic.electrode_tangents(layout))):
        offset = p - s_c
        tangential = offset - float(offset @ s_n) * s_n
        length = np.linalg.norm(tangential)
        toward = tangential / length if length > 1e-12 else np.zeros(3)
        kernel = math.exp(-float(offset @ offset) / response["DECAY_LENGTH_M"] ** 2)
        e[i] = response["SENSOR_GAIN"] * kernel * (
            response["NORMAL_SENSITIVITY"] * normal
            + response["SHEAR_SENSITIVITY"] * np.linalg.norm(shear)
            + response["DIRECTIONAL_SHEAR_SENSITIVITY"] * float(toward @ shear)
            + response["ANISOTROPIC_SHEAR_SENSITIVITY"] * float(axis @ shear)
        )
    return e


def one_contact(s_c, s_n) -> ContactState:
    """A single contact: a one-row ContactState."""
    return ContactState(s_c=[s_c], s_n=[s_n])


class TestSensorForward:
    """sensor_forward reads n contacts and n forces as rows; a single
    contact is a one-row call."""

    @pytest.mark.parametrize("name", RESPONSE)
    def test_each_response_constant_weights_its_own_term(self, forward_model, monkeypatch, name):
        """The reading follows the documented map at the module's response
        constants, and still does with any one of them changed: each
        constant is read in its own place, and each one matters."""
        layout = forward_model.layout
        response = {key: getattr(synthetic, key) for key in RESPONSE}
        changed = {**response, name: 1.7 * response[name]}
        rng = np.random.default_rng(31)
        idx = [0, 6, 13]
        contacts = ContactState(s_c=layout.positions[idx] + 1e-3 * rng.normal(size=(3, 3)),
                                s_n=layout.normals[idx])
        f = -contacts.s_n + 0.6 * rng.normal(size=(3, 3))
        before = sensor_forward(forward_model, contacts, f)
        with monkeypatch.context() as patch:
            patch.setattr(synthetic, name, changed[name])
            after = sensor_forward(forward_model, contacts, f)
        for row, (s_c, s_n) in enumerate(zip(contacts.s_c, contacts.s_n)):
            np.testing.assert_allclose(before[row], reading_by_electrode(
                layout, s_c, s_n, f[row], response), rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(after[row], reading_by_electrode(
                layout, s_c, s_n, f[row], changed), rtol=1e-12, atol=1e-15)
            assert np.abs(after[row] - before[row]).max() > 1e-6

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_rows_match_the_single_contact_oracle(self, seed, n):
        """Each row reads as the single-contact oracle reads its contact and
        force alone, within 1e-15 of the largest reading."""
        forward_model = SensorForwardModel(layout=default_electrode_layout())
        rng = np.random.default_rng(seed)
        layout = forward_model.layout
        idx = rng.integers(0, 19, size=n)
        contacts = ContactState(s_c=layout.positions[idx] + 1e-3 * rng.normal(size=(n, 3)),
                                s_n=layout.normals[idx])
        f = rng.normal(size=(n, 3))
        e = sensor_forward(forward_model, contacts, f)
        expected = np.stack([synthetic_oracles.sensor_forward(forward_model, s_c, s_n, force)
                             for s_c, s_n, force in zip(contacts.s_c, contacts.s_n, f)])
        assert e.shape == (n, 19)
        np.testing.assert_allclose(e, expected, rtol=0, atol=1e-15 * np.abs(expected).max())

    def test_zero_force_zero_reading(self, forward_model):
        contact = one_contact([0.007, 0.0, 0.0075], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            sensor_forward(forward_model, contact, np.zeros((1, 3))), np.zeros((1, 19))
        )

    def test_doubling_force_doubles_reading(self, forward_model):
        contact = one_contact([0.007, 0.0, 0.0075], [1.0, 0.0, 0.0])
        rng = np.random.default_rng(23)
        f = rng.normal(size=(1, 3))
        e1 = sensor_forward(forward_model, contact, f)
        e2 = sensor_forward(forward_model, contact, 2.0 * f)
        np.testing.assert_allclose(e2, 2.0 * e1, atol=1e-12)

    def test_nearest_electrode_strongest_for_pure_normal_force(self, forward_model):
        layout = forward_model.layout
        idx = [1, 7, 16]
        contacts = ContactState(s_c=layout.positions[idx], s_n=layout.normals[idx])
        e = sensor_forward(forward_model, contacts, -2.0 * contacts.s_n)  # pure presses
        assert np.argmax(np.abs(e), axis=1).tolist() == idx

    def test_deterministic_without_rng(self, forward_model):
        contact = one_contact([0.005, 0.002, 0.01], [0.8, 0.6, 0.0])
        f = np.array([[0.5, -0.2, 1.0]])
        np.testing.assert_array_equal(
            sensor_forward(forward_model, contact, f),
            sensor_forward(forward_model, contact, f),
        )

    def test_injective_on_coarse_grid(self, forward_model):
        """Distinct (contact, force) pairs give separated readings."""
        layout = forward_model.layout
        s_c, s_n, forces = [], [], []
        for idx in (0, 5, 10, 16):
            n = layout.normals[idx]
            tangent = np.cross(n, [0.0, 0.0, 1.0])
            if np.linalg.norm(tangent) < 1e-6:
                tangent = np.cross(n, [0.0, 1.0, 0.0])
            tangent /= np.linalg.norm(tangent)
            bitangent = np.cross(n, tangent)
            for a in (-1.0, 0.0, 1.0):
                for b in (-1.0, 0.0, 1.0):
                    for c in (1.0, 2.0):
                        s_c.append(layout.positions[idx])
                        s_n.append(n)
                        forces.append(-c * n + a * tangent + b * bitangent)
        readings = sensor_forward(forward_model, ContactState(s_c=s_c, s_n=s_n), np.array(forces))
        for i in range(len(readings)):
            for j in range(i + 1, len(readings)):
                assert np.linalg.norm(readings[i] - readings[j]) > 1e-6

    def test_noise_requires_rng_and_is_seeded(self):
        model = SensorForwardModel(layout=default_electrode_layout(), noise_scale=0.1)
        contact = one_contact([0.007, 0.0, 0.0075], [1.0, 0.0, 0.0])
        f = np.array([[-1.0, 0.0, 0.0]])
        clean = sensor_forward(model, contact, f)
        noisy_a = sensor_forward(model, contact, f, rng=np.random.default_rng(5))
        noisy_b = sensor_forward(model, contact, f, rng=np.random.default_rng(5))
        assert not np.array_equal(clean, noisy_a)
        np.testing.assert_array_equal(noisy_a, noisy_b)
        # the noise of n rows is drawn row by row, after any other draw
        np.testing.assert_array_equal(
            noisy_a, clean + np.random.default_rng(5).normal(scale=0.1, size=(1, 19)))

    @pytest.mark.parametrize("f_shape", [(3,), (2, 3), (1, 2)])
    def test_forces_not_one_row_per_contact_is_a_schema_error(self, forward_model, f_shape):
        contact = one_contact([0.007, 0.0, 0.0075], [1.0, 0.0, 0.0])
        with pytest.raises(SchemaError, match="1 contacts for forces of shape"):
            sensor_forward(forward_model, contact, np.ones(f_shape))


class TestGenerators:
    @given(seed=st.integers(0, 2**32 - 1), n_trials=st.integers(1, 3),
           samples_per_trial=st.integers(1, 30), cap_only=st.booleans(),
           cone_angle_deg=st.floats(0.0, 90.0), low=st.floats(0.01, 10.0),
           width=st.floats(0.0, 10.0), noise_scale=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_every_ft_sample_presses_into_the_surface(
        self, seed, n_trials, samples_per_trial, cap_only, cone_angle_deg, low, width, noise_scale
    ):
        """Every F/T record lies on the surface (on the cap for cap_only, on
        the cylinder wall otherwise), its force points into the surface,
        within its cone of the inward normal and its force range."""
        geometry = SurfaceGeometry()
        model = SensorForwardModel(layout=default_electrode_layout(), noise_scale=noise_scale)
        force_range = (low, low + width)
        records = make_ft_samples(model, geometry, "ball_ft", n_trials, samples_per_trial, seed,
                                  force_range, cone_angle_deg, cap_only)
        assert len(records) == n_trials * samples_per_trial
        s_c, s_n, f = records.s_c, records.s_n, records.f_3d
        r, length = geometry.r, geometry.half_cylinder_length
        if cap_only:
            assert (s_c[:, 2] > length).all()
            np.testing.assert_allclose(np.linalg.norm(s_c - geometry.cap_center, axis=1), r,
                                       rtol=1e-12)
        else:
            assert ((0.0 <= s_c[:, 2]) & (s_c[:, 2] <= length)).all()
            np.testing.assert_allclose(np.hypot(s_c[:, 0], s_c[:, 1]), r, rtol=1e-12)
        magnitude = np.linalg.norm(f, axis=1)
        pressing = -np.einsum("ni,ni->n", f, s_n)
        assert (pressing > 0.0).all()
        angle = np.degrees(np.arctan2(np.linalg.norm(np.cross(f, s_n), axis=1), pressing))
        assert (angle <= cone_angle_deg + 1e-9).all()
        assert ((magnitude >= low * (1 - 1e-12)) & (magnitude <= (low + width) * (1 + 1e-12))).all()

    @given(seed=st.integers(0, 2**32 - 1), n_trials=st.integers(0, 3),
           samples_per_trial=st.integers(0, 25), cap_only=st.booleans(),
           cone_angle_deg=st.floats(0.0, 90.0),
           force_range=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(0.0, 5.0),
                                                                   st.floats(5.0, 10.0))))
    @settings(max_examples=60, deadline=None)
    def test_ft_samples_match_the_per_sample_oracle(
        self, seed, n_trials, samples_per_trial, cap_only, cone_angle_deg, force_range
    ):
        """The array generator gives the per-sample oracle's records in its
        order and trials: r_wb bit-equal, every other field within 1e-15 of
        the field's largest magnitude, also for trials of no sample and a
        [0, 0] force range."""
        geometry = SurfaceGeometry()
        model = SensorForwardModel(layout=default_electrode_layout())
        args = (model, geometry, "rigid_ft", n_trials, samples_per_trial, seed, force_range,
                cone_angle_deg, cap_only)
        records, expected = make_ft_samples(*args), synthetic_oracles.make_ft_samples(*args)
        assert records.trial_id.tolist() == [r.trial_id for r in expected]
        assert records.source_tag.tolist() == [r.source_tag for r in expected]
        if not expected:
            return
        for name in ("e", "s_c", "s_n", "f_3d", "r_wb"):
            got = getattr(records, name)
            want = np.stack([getattr(r, name) for r in expected])
            if name == "r_wb":
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max(),
                                           err_msg=name)

    def test_one_sensor_forward_call_per_ft_trial(self, forward_model, monkeypatch):
        calls = []

        def counted(model, contact, f_3d, rng=None):
            calls.append(len(contact))
            return sensor_forward(model, contact, f_3d, rng)

        monkeypatch.setattr(synthetic, "sensor_forward", counted)
        records = make_ft_samples(forward_model, SurfaceGeometry(), "rigid_ft", n_trials=4,
                                  samples_per_trial=7, seed=2, force_range=(0.5, 5.0))
        assert len(records) == 28 and calls == [7, 7, 7, 7]

    def test_noise_is_drawn_after_each_trials_uniform_draws(self):
        """A noisy trial draws its pose, its samples' uniform draws, then the
        noise of its readings row by row, added to the clean readings."""
        geometry, layout = SurfaceGeometry(), default_electrode_layout()
        records = make_ft_samples(SensorForwardModel(layout=layout, noise_scale=0.05), geometry,
                                  "rigid_ft", 2, 6, 9, (0.5, 5.0))
        clean_model = SensorForwardModel(layout=layout)
        rng = np.random.default_rng(9)
        for trial in (records[:6], records[6:]):
            r_wb = synthetic.random_rotation(rng)
            rng.uniform(size=(6, 5))
            noise = rng.normal(scale=0.05, size=(6, 19))
            contacts = ContactState(s_c=trial.s_c, s_n=trial.s_n)
            clean = sensor_forward(clean_model, contacts, trial.f_3d)
            np.testing.assert_array_equal(trial.e, clean + noise)
            np.testing.assert_array_equal(trial.r_wb, np.broadcast_to(r_wb, (6, 3, 3)))

    def test_planar_trials_consistent_forces(self, forward_model):
        geometry = SurfaceGeometry()
        episodes, records = make_planar_trials(
            forward_model, geometry, n_trials=2, steps=200, seed=11
        )
        assert len(episodes) == 2
        by_trial = {e.trial_id: e for e in episodes}
        for r in records[:50]:
            episode = by_trial[r.trial_id]
            # sensor-frame ground truth is the rotated planar force
            f_c = episode.applied_forces[r.step]
            expected = r.r_wb.T @ np.array([f_c[0], f_c[1], 0.0])
            np.testing.assert_allclose(r.f_3d, expected, atol=1e-9)
            # world frame recovers the planar force exactly
            back = r.r_wb @ r.f_3d
            np.testing.assert_allclose(back[2], 0.0, atol=1e-9)
            np.testing.assert_allclose(back[:2], f_c, atol=1e-9)

    def test_planar_trial_is_gated_once_over_its_pressure_trace(self, forward_model, monkeypatch):
        traces = []

        def spy(pressure):
            traces.append(np.array(pressure))
            return detect_contact(pressure)

        monkeypatch.setattr(synthetic, "detect_contact", spy)
        episodes, records = make_planar_trials(
            forward_model, SurfaceGeometry(), n_trials=2, steps=200, seed=11
        )
        assert [trace.shape for trace in traces] == [(200,), (200,)]
        for trace, episode in zip(traces, episodes):
            # the static pressure of each step's force, whose norm the rotation keeps
            np.testing.assert_allclose(
                trace, PRESSURE_UNITS_PER_NEWTON * np.linalg.norm(episode.applied_forces, axis=1),
                rtol=1e-12,
            )
            # a sample for every step the gate passes, and for no other
            labelled = records.step[records.trial_id == episode.trial_id].tolist()
            assert labelled == np.flatnonzero(detect_contact(trace)).tolist()

    @pytest.mark.parametrize("argument, value, named", [
        ("force_range", (5.0, 1.0), "'force_range' must not have its low end above its high end"),
        ("force_range", (-1.0, 1.0), "'force_range[0]' must be a finite number of at least 0"),
        ("force_range", (1.0, math.inf), "'force_range[1]' must be a finite number of at least 0"),
        ("force_range", (1.0,), "'force_range' must hold 2 items"),
        ("cone_angle_deg", 120.0, "'cone_angle_deg' must be a number in [0, 90]"),
        ("cone_angle_deg", -5.0, "'cone_angle_deg' must be a number in [0, 90]"),
        ("cone_angle_deg", math.nan, "'cone_angle_deg' must be a number in [0, 90]"),
    ])
    def test_ft_argument_off_its_mark_is_a_config_error_naming_it(
        self, forward_model, argument, value, named
    ):
        """A force range must be two forces of at least 0 N, low to high,
        and a cone at most a right angle, past which forces pull the skin."""
        args = {"force_range": (0.5, 5.0), "cone_angle_deg": 45.0, argument: value}
        with pytest.raises(ConfigError, match=re.escape(f"field {named}")):
            make_ft_samples(forward_model, SurfaceGeometry(), "rigid_ft", n_trials=2,
                            samples_per_trial=5, seed=0, **args)

    @pytest.mark.parametrize("value, named", [
        ((2.0, 0.1), "'magnitude_range' must not have its low end above its high end"),
        ((-0.5, 1.0), "'magnitude_range[0]' must be a finite number of at least 0"),
        ((0.1, 2.0, 3.0), "'magnitude_range' must hold 2 items"),
    ])
    def test_planar_magnitude_range_off_its_mark_is_a_config_error_naming_it(
        self, forward_model, value, named
    ):
        with pytest.raises(ConfigError, match=re.escape(f"field {named}")):
            make_planar_trials(forward_model, SurfaceGeometry(), n_trials=1, steps=100, seed=0,
                               magnitude_range=value)

    def test_random_rotation_is_proper(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rot = random_rotation(rng)
            np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
            assert math.isclose(np.linalg.det(rot), 1.0, abs_tol=1e-12)


class TestMakeDataset:
    def _records(self, n_trials, per_trial=1, extra=()):
        """per_trial samples of each of n_trials trials, then the rows of `extra`."""
        rng = np.random.default_rng(17)
        rows = [dict(trial_id=f"trial_{t:03d}", source_tag="rigid_ft", e=rng.normal(size=19),
                     s_c=np.zeros(3), s_n=np.array([1.0, 0.0, 0.0]),
                     f_3d=rng.normal(size=3) + 2.0, r_wb=np.eye(3))
                for t in range(n_trials) for _ in range(per_trial)]
        return sample_set(rows + list(extra))

    def test_ten_single_sample_trials_split_8_1_1(self):
        splits = make_dataset(self._records(10), seed=0)
        assert len(splits.train) == 8
        assert len(splits.val) == 1
        assert len(splits.test) == 1

    def test_no_trial_in_two_splits(self):
        splits = make_dataset(self._records(12, per_trial=5), seed=1)
        names = ["train", "val", "test"]
        ids = {name: {r.trial_id for r in splits.split(name)} for name in names}
        for a in names:
            for b in names:
                if a != b:
                    assert not (ids[a] & ids[b])

    def test_deterministic_under_seed(self):
        records = self._records(10, per_trial=3)
        a = make_dataset(records, seed=42)
        b = make_dataset(records, seed=42)
        assert a.trial_assignment == b.trial_assignment

    def test_filters_non_force_samples(self):
        non_force = dict(source_tag="rigid_ft", e=np.zeros(19), s_c=np.zeros(3),
                         s_n=np.array([1.0, 0.0, 0.0]), r_wb=np.eye(3))
        records = self._records(5, per_trial=2, extra=[
            {**non_force, "trial_id": "trial_000", "f_3d": np.zeros(3)},
            {**non_force, "trial_id": "trial_001", "f_3d": np.ones(3), "in_contact": False},
        ])
        splits = make_dataset(records, seed=3)
        assert splits.n_filtered_out == 2
        total = len(splits.train) + len(splits.val) + len(splits.test)
        assert total == 10
        for name in ("train", "val", "test"):
            for r in splits.split(name):
                assert r.in_contact and np.linalg.norm(r.f_3d) > 0

    def test_fractions_summing_above_one_rejected(self):
        """Train and val fractions must leave the test split some trials."""
        with pytest.raises(ConfigError, match="'split.train' and 'split.val' sum to 1.8"):
            make_dataset(self._records(20), 0.9, 0.9, seed=0)

    def test_too_few_trials_rejected(self):
        with pytest.raises(DataIntegrityError):
            make_dataset(self._records(2), seed=0)

    def test_three_trials_one_each(self):
        splits = make_dataset(self._records(3, per_trial=4), seed=5)
        assert len(splits.trial_assignment["train"]) == 1
        assert len(splits.trial_assignment["val"]) == 1
        assert len(splits.trial_assignment["test"]) == 1
