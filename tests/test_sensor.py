"""Tests for surface projection, the electrode layout, and the contact gate."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic_oracles
from geometry_oracles import contains
from tactile_force.dataset import load_json
from tactile_force.errors import ConfigError, DegenerateInputError, SchemaError
from tactile_force.sensor import (
    CONTACT_PRESSURE_THRESHOLD,
    CONTACT_WINDOW,
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
    """surface_point_and_normal projects the rows of an (n, 3) array; a
    single query is a one-row call."""

    def test_point_on_cylinder_wall_is_fixed(self):
        geo = SurfaceGeometry()
        q = np.array([[geo.r, 0.0, geo.half_cylinder_length / 2]])
        state = surface_point_and_normal(geo, q)
        np.testing.assert_allclose(state.s_c, q, atol=1e-12)
        np.testing.assert_allclose(state.s_n, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_radial_projection_from_outside(self):
        geo = SurfaceGeometry()
        q = np.array([[2 * geo.r, 0.0, geo.half_cylinder_length / 2]])
        state = surface_point_and_normal(geo, q)
        np.testing.assert_allclose(state.s_c, [[geo.r, 0.0, q[0, 2]]], atol=1e-12)
        np.testing.assert_allclose(state.s_n, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_closest_point_matches_dense_sampling_oracle(self):
        geo = SurfaceGeometry()
        surface = sample_surface_points(geo)
        rng = np.random.default_rng(7)
        # sampling resolution bounds how much the oracle distance can undershoot
        resolution = geo.r * 2 * math.pi / 180 + geo.r * math.pi / 2 / 60
        q = rng.uniform([-2 * geo.r, -2 * geo.r, -0.005], [2 * geo.r, 2 * geo.r, 0.03], size=(25, 3))
        state = surface_point_and_normal(geo, q)
        for query, s_c in zip(q, state.s_c):
            projected_dist = np.linalg.norm(query - s_c)
            oracle_dist = np.min(np.linalg.norm(surface - query[None, :], axis=1))
            assert projected_dist <= oracle_dist + resolution
            assert contains(geo, s_c, tol=1e-9)

    def test_cap_projection_radial_from_cap_center(self):
        geo = SurfaceGeometry()
        q = geo.cap_center + np.array([[0.001, 0.002, 0.004]])
        state = surface_point_and_normal(geo, q)
        np.testing.assert_allclose(
            np.linalg.norm(state.s_c - geo.cap_center, axis=1), geo.r, rtol=1e-12
        )
        d = q - geo.cap_center
        np.testing.assert_allclose(state.s_n, d / np.linalg.norm(d), atol=1e-12)

    def test_idempotent(self):
        geo = SurfaceGeometry()
        rng = np.random.default_rng(13)
        q = rng.uniform([-0.02, -0.02, -0.01], [0.02, 0.02, 0.03], size=(50, 3))
        first = surface_point_and_normal(geo, q)
        second = surface_point_and_normal(geo, first.s_c)
        np.testing.assert_allclose(second.s_c, first.s_c, atol=1e-9)
        np.testing.assert_allclose(second.s_n, first.s_n, atol=1e-9)

    def test_normals_unit_and_outward(self):
        geo = SurfaceGeometry()
        rng = np.random.default_rng(17)
        state = surface_point_and_normal(
            geo, rng.uniform([-0.03, -0.03, -0.01], [0.03, 0.03, 0.04], size=(100, 3)))
        np.testing.assert_allclose(np.linalg.norm(state.s_n, axis=1), 1.0, atol=1e-9)
        body = state.s_c[:, 2] <= geo.half_cylinder_length  # cylinder body
        feet = state.s_c[body] * [0.0, 0.0, 1.0]
        assert (np.einsum("ni,ni->n", state.s_n[body], state.s_c[body] - feet) > 0.0).all()

    @given(st.lists(st.tuples(*[st.floats(-0.03, 0.04, allow_subnormal=False)] * 3),
                    min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_single_point_oracle(self, queries):
        """Each row projects as the single-point oracle projects it, within
        an ulp of the radius."""
        geo = SurfaceGeometry()
        q = np.array(queries)
        q = q[np.hypot(q[:, 0], q[:, 1]) > 1e-9]
        if q.size == 0:
            return
        state = surface_point_and_normal(geo, q)
        for query, s_c, s_n in zip(q, state.s_c, state.s_n):
            o_c, o_n = synthetic_oracles.surface_point_and_normal(geo, query)
            np.testing.assert_allclose(s_c, o_c, rtol=0, atol=1e-15 * geo.r)
            np.testing.assert_allclose(s_n, o_n, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("query", [[0.0, 0.0, 0.005], [0.0, 0.0, 0.015 + 1e-17]])
    def test_on_axis_query_degenerate_naming_its_row(self, query):
        geo = SurfaceGeometry()
        with pytest.raises(DegenerateInputError, match="query 1 "):
            surface_point_and_normal(geo, np.array([[0.007, 0.0, 0.005], query]))

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 3, 1)])
    def test_query_not_rows_of_three_is_a_schema_error(self, shape):
        with pytest.raises(SchemaError, match="queries must be an"):
            surface_point_and_normal(SurfaceGeometry(), np.ones(shape))

    def test_geometry_validation(self):
        with pytest.raises(ConfigError, match="'r'"):
            SurfaceGeometry(r=-1.0)
        with pytest.raises(ConfigError, match="'half_cylinder_length'"):
            SurfaceGeometry(half_cylinder_length=-0.1)


T, W = CONTACT_PRESSURE_THRESHOLD, CONTACT_WINDOW
# values the gate must count as above the threshold, and values it must not
ABOVE = (float(np.nextafter(T, np.inf)), 2 * T, math.inf)
NOT_ABOVE = (T, float(np.nextafter(T, -np.inf)), 0.0, -math.inf, math.nan)
# runs of values from one side, so that whole windows above the threshold
# are drawn as often as broken ones
PRESSURE_TRACES = st.lists(
    st.sampled_from((ABOVE, NOT_ABOVE)).flatmap(
        lambda side: st.lists(st.sampled_from(side), min_size=1, max_size=2 * W)),
    max_size=6,
).map(lambda runs: [p for run in runs for p in run][:40])


class TestDetectContact:
    @settings(max_examples=300, deadline=None)
    @given(PRESSURE_TRACES)
    def test_matches_the_window_oracle(self, trace):
        """Step i is in contact when it and the W - 1 steps before it all
        strictly exceed the threshold: never within the first window, never
        on a value equal to it, and never on a NaN."""
        flags = detect_contact(trace)
        assert flags.dtype == bool and flags.shape == (len(trace),)
        for i in range(len(trace)):
            expected = i >= W - 1 and all(trace[j] > T for j in range(i - W + 1, i + 1))
            assert flags[i] == expected, (i, trace)


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
