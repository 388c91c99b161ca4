"""Tests for surface projection, the electrode layout, and the contact gate."""

import json
import math

import numpy as np
import pytest

from geometry_oracles import contains
from tactile_force.dataset import load_json
from tactile_force.errors import DegenerateInputError, SchemaError
from tactile_force.sensor import (
    ContactDetection,
    ElectrodeLayout,
    SurfaceGeometry,
    default_electrode_layout,
    detect_contact,
    surface_point_and_normal,
)


def sample_surface_points(geometry, n_phi=180, n_z=120, n_cap=120):
    """Dense surface sampling oracle: cylinder wall plus spherical cap."""
    points = []
    phis = np.linspace(-math.pi, math.pi, n_phi, endpoint=False)
    for z in np.linspace(0.0, geometry.half_cylinder_length, n_z):
        for phi in phis:
            points.append([geometry.r * math.cos(phi), geometry.r * math.sin(phi), z])
    for polar in np.linspace(0.0, math.pi / 2, n_cap // 2):
        for phi in phis:
            d = np.array(
                [
                    math.sin(polar) * math.cos(phi),
                    math.sin(polar) * math.sin(phi),
                    math.cos(polar),
                ]
            )
            points.append(geometry.cap_center + geometry.r * d)
    return np.array(points)


class TestSurfaceProjection:
    def test_point_on_cylinder_wall_is_fixed(self):
        geo = SurfaceGeometry()
        q = np.array([geo.r, 0.0, geo.half_cylinder_length / 2])
        state = surface_point_and_normal(geo, q)
        np.testing.assert_allclose(state.s_c, q, atol=1e-12)
        np.testing.assert_allclose(state.s_n, [1.0, 0.0, 0.0], atol=1e-12)

    def test_radial_projection_from_outside(self):
        geo = SurfaceGeometry()
        q = np.array([2 * geo.r, 0.0, geo.half_cylinder_length / 2])
        state = surface_point_and_normal(geo, q)
        np.testing.assert_allclose(state.s_c, [geo.r, 0.0, q[2]], atol=1e-12)
        np.testing.assert_allclose(state.s_n, [1.0, 0.0, 0.0], atol=1e-12)

    def test_closest_point_matches_dense_sampling_oracle(self):
        geo = SurfaceGeometry()
        surface = sample_surface_points(geo)
        rng = np.random.default_rng(7)
        # sampling resolution bounds how much the oracle distance can undershoot
        resolution = geo.r * 2 * math.pi / 180 + geo.r * math.pi / 2 / 60
        for _ in range(25):
            q = rng.uniform([-2 * geo.r, -2 * geo.r, -0.005], [2 * geo.r, 2 * geo.r, 0.03])
            if math.hypot(q[0], q[1]) < 1e-6:
                continue
            state = surface_point_and_normal(geo, q)
            projected_dist = np.linalg.norm(q - state.s_c)
            oracle_dist = np.min(np.linalg.norm(surface - q[None, :], axis=1))
            assert projected_dist <= oracle_dist + resolution
            assert contains(geo, state.s_c, tol=1e-9)

    def test_cap_projection_radial_from_cap_center(self):
        geo = SurfaceGeometry()
        q = geo.cap_center + np.array([0.001, 0.002, 0.004])
        state = surface_point_and_normal(geo, q)
        np.testing.assert_allclose(
            np.linalg.norm(state.s_c - geo.cap_center), geo.r, rtol=1e-12
        )
        d = q - geo.cap_center
        np.testing.assert_allclose(state.s_n, d / np.linalg.norm(d), atol=1e-12)

    def test_idempotent(self):
        geo = SurfaceGeometry()
        rng = np.random.default_rng(13)
        for _ in range(50):
            q = rng.uniform([-0.02, -0.02, -0.01], [0.02, 0.02, 0.03])
            if math.hypot(q[0], q[1]) < 1e-6:
                continue
            first = surface_point_and_normal(geo, q)
            second = surface_point_and_normal(geo, first.s_c)
            np.testing.assert_allclose(second.s_c, first.s_c, atol=1e-9)
            np.testing.assert_allclose(second.s_n, first.s_n, atol=1e-9)

    def test_normals_unit_and_outward(self):
        geo = SurfaceGeometry()
        rng = np.random.default_rng(17)
        for _ in range(100):
            q = rng.uniform([-0.03, -0.03, -0.01], [0.03, 0.03, 0.04])
            if math.hypot(q[0], q[1]) < 1e-6:
                continue
            state = surface_point_and_normal(geo, q)
            assert math.isclose(np.linalg.norm(state.s_n), 1.0, abs_tol=1e-9)
            if state.s_c[2] <= geo.half_cylinder_length:  # cylinder body
                foot = np.array([0.0, 0.0, state.s_c[2]])
                assert float(state.s_n @ (state.s_c - foot)) > 0.0

    def test_on_axis_query_degenerate(self):
        geo = SurfaceGeometry()
        with pytest.raises(DegenerateInputError):
            surface_point_and_normal(geo, np.array([0.0, 0.0, 0.005]))

    def test_geometry_validation(self):
        with pytest.raises(SchemaError):
            SurfaceGeometry(r=-1.0)
        with pytest.raises(SchemaError):
            SurfaceGeometry(half_cylinder_length=-0.1)


class TestDetectContact:
    def test_ten_values_above_threshold(self):
        assert detect_contact([11.0] * 10) is ContactDetection.CONTACT
        assert bool(detect_contact([11.0] * 10))

    def test_window_violated_by_last_value(self):
        history = [50.0] * 9 + [0.0]
        assert detect_contact(history) is ContactDetection.NO_CONTACT

    def test_alternating_never_contacts(self):
        history = [5.0, 15.0] * 10
        assert detect_contact(history) is ContactDetection.NO_CONTACT

    def test_short_history_flagged_distinctly(self):
        result = detect_contact([100.0] * 9)
        assert result is ContactDetection.INSUFFICIENT_HISTORY
        assert not bool(result)
        assert result is not ContactDetection.NO_CONTACT

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            history = rng.uniform(0, 30, size=15)
            low = detect_contact(history, threshold=5.0)
            high = detect_contact(history, threshold=12.0)
            if high is ContactDetection.CONTACT:
                assert low is ContactDetection.CONTACT

    def test_exact_threshold_is_not_contact(self):
        # gate requires strictly exceeding the threshold
        assert detect_contact([10.0] * 10) is ContactDetection.NO_CONTACT


class TestElectrodeLayout:
    def test_default_layout_count_and_normals(self):
        layout = default_electrode_layout()
        assert layout.positions.shape == (19, 3)
        norms = np.linalg.norm(layout.normals, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_default_layout_on_or_inside_geometry(self):
        geo = SurfaceGeometry()
        layout = default_electrode_layout(geo)
        for p in layout.positions:
            assert contains(geo, p, tol=1e-9)

    def test_layout_json_roundtrip(self, tmp_path):
        layout = default_electrode_layout()
        path = tmp_path / "layout.json"
        path.write_text(json.dumps(layout.to_dict()))
        loaded = ElectrodeLayout.from_dict(load_json(path, "layout"))  # as the CLI reads it
        np.testing.assert_allclose(loaded.positions, layout.positions)
        np.testing.assert_allclose(loaded.normals, layout.normals)

    def test_wrong_count_rejected(self):
        with pytest.raises(SchemaError):
            ElectrodeLayout(positions=np.zeros((18, 3)), normals=np.zeros((18, 3)))

    def test_non_unit_normals_rejected(self):
        positions = default_electrode_layout().positions
        with pytest.raises(SchemaError):
            ElectrodeLayout(positions=positions, normals=positions)
