"""Tests for the push simulator, the forward sensor model, and dataset splits.

The central check: re-running the force inference on each simulated step's
stored motion recovers the applied force, validating the friction model and
the least-squares recovery against the integrator as an independent oracle.
"""

import math

import numpy as np
import pytest

from solver_oracles import push_step_reference
from geometry_oracles import contains
from tactile_force.dataset import SampleRecord, make_dataset
from tactile_force.errors import DataIntegrityError, NumericalError, SchemaError
from tactile_force.mechanics import (
    ParticleGrid,
    PushParams,
    infer_force_with_friction,
)
from tactile_force import synthetic
from tactile_force.sensor import (
    CONTACT_WINDOW,
    ContactState,
    SurfaceGeometry,
    default_electrode_layout,
    detect_contact,
)
from tactile_force.synthetic import (
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


class TestSensorForward:
    def test_zero_force_zero_reading(self, forward_model):
        contact = ContactState(
            s_c=np.array([0.007, 0.0, 0.0075]), s_n=np.array([1.0, 0.0, 0.0])
        )
        np.testing.assert_array_equal(
            sensor_forward(forward_model, contact, np.zeros(3)), np.zeros(19)
        )

    def test_doubling_force_doubles_reading(self, forward_model):
        contact = ContactState(
            s_c=np.array([0.007, 0.0, 0.0075]), s_n=np.array([1.0, 0.0, 0.0])
        )
        rng = np.random.default_rng(23)
        f = rng.normal(size=3)
        e1 = sensor_forward(forward_model, contact, f)
        e2 = sensor_forward(forward_model, contact, 2.0 * f)
        np.testing.assert_allclose(e2, 2.0 * e1, atol=1e-12)

    def test_nearest_electrode_strongest_for_pure_normal_force(self, forward_model):
        layout = forward_model.layout
        for idx in (1, 7, 16):
            contact = ContactState(s_c=layout.positions[idx], s_n=layout.normals[idx])
            f = -2.0 * contact.s_n  # pure press along the inward normal
            e = sensor_forward(forward_model, contact, f)
            dists = np.linalg.norm(layout.positions - contact.s_c[None, :], axis=1)
            assert np.argmax(np.abs(e)) == np.argmin(dists) == idx

    def test_deterministic_without_rng(self, forward_model):
        contact = ContactState(
            s_c=np.array([0.005, 0.002, 0.01]), s_n=np.array([0.8, 0.6, 0.0])
        )
        f = np.array([0.5, -0.2, 1.0])
        np.testing.assert_array_equal(
            sensor_forward(forward_model, contact, f),
            sensor_forward(forward_model, contact, f),
        )

    def test_injective_on_coarse_grid(self, forward_model):
        """Distinct (contact, force) pairs give separated readings."""
        layout = forward_model.layout
        geometry = SurfaceGeometry()
        readings = []
        rng = np.random.default_rng(29)
        for idx in (0, 5, 10, 16):
            contact = ContactState(s_c=layout.positions[idx], s_n=layout.normals[idx])
            n = contact.s_n
            tangent = np.cross(n, [0.0, 0.0, 1.0])
            if np.linalg.norm(tangent) < 1e-6:
                tangent = np.cross(n, [0.0, 1.0, 0.0])
            tangent /= np.linalg.norm(tangent)
            bitangent = np.cross(n, tangent)
            for a in (-1.0, 0.0, 1.0):
                for b in (-1.0, 0.0, 1.0):
                    for c in (1.0, 2.0):
                        f = -c * n + a * tangent + b * bitangent
                        readings.append(sensor_forward(forward_model, contact, f))
        readings = np.array(readings)
        for i in range(len(readings)):
            for j in range(i + 1, len(readings)):
                assert np.linalg.norm(readings[i] - readings[j]) > 1e-6

    def test_noise_requires_rng_and_is_seeded(self):
        model = SensorForwardModel(layout=default_electrode_layout(), noise_scale=0.1)
        contact = ContactState(
            s_c=np.array([0.007, 0.0, 0.0075]), s_n=np.array([1.0, 0.0, 0.0])
        )
        f = np.array([-1.0, 0.0, 0.0])
        clean = sensor_forward(model, contact, f)
        noisy_a = sensor_forward(model, contact, f, rng=np.random.default_rng(5))
        noisy_b = sensor_forward(model, contact, f, rng=np.random.default_rng(5))
        assert not np.array_equal(clean, noisy_a)
        np.testing.assert_array_equal(noisy_a, noisy_b)


class TestGenerators:
    def test_ft_samples_live_on_surface_within_cone(self, forward_model):
        geometry = SurfaceGeometry()
        records = make_ft_samples(
            forward_model, geometry, "ball_ft", n_trials=3, samples_per_trial=20,
            seed=7, force_range=(0.1, 5.0), cone_angle_deg=60.0, cap_only=True,
        )
        assert len(records) == 60
        for r in records:
            assert contains(geometry, r.s_c, tol=1e-9)
            assert r.s_c[2] > geometry.half_cylinder_length  # cap contacts only
            angle = math.degrees(
                math.acos(
                    np.clip(r.f_3d @ (-r.s_n) / np.linalg.norm(r.f_3d), -1.0, 1.0)
                )
            )
            assert angle <= 60.0 + 1e-9
            assert 0.1 <= np.linalg.norm(r.f_3d) <= 5.0

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
            f_c = episode.applied_forces[
                int(round(r.motion["t"] / (episode.times[1] - episode.times[0])))
            ]
            expected = episode.sensor_to_object @ np.array([f_c[0], f_c[1], 0.0])
            np.testing.assert_allclose(r.f_3d, expected, atol=1e-9)
            # world frame recovers the planar force exactly
            back = r.r_wb @ r.f_3d
            np.testing.assert_allclose(back[2], 0.0, atol=1e-9)
            np.testing.assert_allclose(back[:2], f_c, atol=1e-9)

    def test_planar_contact_detection_reads_only_its_window(self, forward_model, monkeypatch):
        lengths = []

        def spy(history, *args, **kwargs):
            lengths.append(len(history))
            return detect_contact(history, *args, **kwargs)

        monkeypatch.setattr(synthetic, "detect_contact", spy)
        make_planar_trials(forward_model, SurfaceGeometry(), n_trials=1, steps=200, seed=11)
        assert len(lengths) == 200
        assert max(lengths) == CONTACT_WINDOW  # not the whole, growing history

    def test_random_rotation_is_proper(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rot = random_rotation(rng)
            np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
            assert math.isclose(np.linalg.det(rot), 1.0, abs_tol=1e-12)


class TestMakeDataset:
    def _records(self, n_trials, per_trial=1):
        rng = np.random.default_rng(17)
        records = []
        for t in range(n_trials):
            for _ in range(per_trial):
                records.append(
                    SampleRecord(
                        trial_id=f"trial_{t:03d}",
                        source_tag="rigid_ft",
                        e=rng.normal(size=19),
                        s_c=np.zeros(3),
                        s_n=np.array([1.0, 0.0, 0.0]),
                        f_3d=rng.normal(size=3) + 2.0,
                        r_wb=np.eye(3),
                    )
                )
        return records

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
        records = self._records(5, per_trial=2)
        records.append(
            SampleRecord(
                trial_id="trial_000", source_tag="rigid_ft", e=np.zeros(19),
                s_c=np.zeros(3), s_n=np.array([1.0, 0.0, 0.0]),
                f_3d=np.zeros(3), r_wb=np.eye(3),
            )
        )
        records.append(
            SampleRecord(
                trial_id="trial_001", source_tag="rigid_ft", e=np.zeros(19),
                s_c=np.zeros(3), s_n=np.array([1.0, 0.0, 0.0]),
                f_3d=np.ones(3), r_wb=np.eye(3), in_contact=False,
            )
        )
        splits = make_dataset(records, seed=3)
        assert splits.n_filtered_out == 2
        total = len(splits.train) + len(splits.val) + len(splits.test)
        assert total == 10
        for name in ("train", "val", "test"):
            for r in splits.split(name):
                assert r.in_contact and np.linalg.norm(r.f_3d) > 0

    def test_too_few_trials_rejected(self):
        with pytest.raises(DataIntegrityError):
            make_dataset(self._records(2), seed=0)

    def test_three_trials_one_each(self):
        splits = make_dataset(self._records(3, per_trial=4), seed=5)
        assert len(splits.trial_assignment["train"]) == 1
        assert len(splits.trial_assignment["val"]) == 1
        assert len(splits.trial_assignment["test"]) == 1
