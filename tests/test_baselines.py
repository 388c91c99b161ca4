"""Tests for the per-axis linear electrode model."""

import json

import numpy as np
import pytest

from tactile_force.baselines import (
    LinearModel,
    electrode_features,
    linear_fit,
    linear_predict,
)
from tactile_force.errors import ConfigError, DegenerateInputError, SchemaError
from tactile_force.sensor import default_electrode_layout


@pytest.fixture
def layout():
    return default_electrode_layout()


class TestLinearPredict:
    def test_zero_input(self, layout):
        model = LinearModel(scale=np.array([1.0, 2.0, 3.0]), layout=layout)
        np.testing.assert_array_equal(linear_predict(model, np.zeros(19)), np.zeros(3))

    def test_homogeneity(self, layout):
        model = LinearModel(scale=np.array([0.5, -1.0, 2.0]), layout=layout)
        rng = np.random.default_rng(3)
        e = rng.normal(size=19)
        np.testing.assert_allclose(
            linear_predict(model, 2.0 * e), 2.0 * linear_predict(model, e), atol=1e-12
        )

    def test_additivity(self, layout):
        model = LinearModel(scale=np.array([1.0, 1.0, 1.0]), layout=layout)
        rng = np.random.default_rng(5)
        e1, e2 = rng.normal(size=19), rng.normal(size=19)
        np.testing.assert_allclose(
            linear_predict(model, e1 + e2),
            linear_predict(model, e1) + linear_predict(model, e2),
            atol=1e-12,
        )

    def test_single_electrode_recovers_its_orientation(self, layout):
        model = LinearModel(scale=np.ones(3), layout=layout)
        e = np.zeros(19)
        e[7] = 1.0
        np.testing.assert_allclose(linear_predict(model, e), layout.normals[7], atol=1e-15)


class TestLinearFit:
    def test_recovers_known_scale_exactly(self, layout):
        rng = np.random.default_rng(11)
        true_scale = np.array([2.5, -0.8, 1.3])
        e = rng.normal(size=(100, 19))
        f = true_scale * electrode_features(layout, e)
        fitted = linear_fit(e, f, layout)
        np.testing.assert_allclose(fitted.scale, true_scale, atol=1e-9)

    def test_residuals_orthogonal_to_features(self, layout):
        rng = np.random.default_rng(13)
        e = rng.normal(size=(200, 19))
        features = electrode_features(layout, e)
        f = np.array([1.5, 0.5, -2.0]) * features + rng.normal(scale=0.1, size=(200, 3))
        fitted = linear_fit(e, f, layout)
        residuals = f - fitted.scale * features
        for axis in range(3):
            assert abs(float(features[:, axis] @ residuals[:, axis])) < 1e-9

    def test_single_sample_degenerate(self, layout):
        with pytest.raises(DegenerateInputError):
            linear_fit(np.ones((1, 19)), np.ones((1, 3)), layout)

    def test_zero_variance_axis_degenerate(self, layout):
        e = np.zeros((10, 19))  # all-zero features on every axis
        f = np.random.default_rng(17).normal(size=(10, 3))
        with pytest.raises(DegenerateInputError, match="axis"):
            linear_fit(e, f, layout)

    def test_order_invariance(self, layout):
        rng = np.random.default_rng(19)
        e = rng.normal(size=(50, 19))
        f = rng.normal(size=(50, 3))
        base = linear_fit(e, f, layout)
        perm = rng.permutation(50)
        shuffled = linear_fit(e[perm], f[perm], layout)
        np.testing.assert_allclose(base.scale, shuffled.scale, atol=1e-12)

    def test_shape_validation(self, layout):
        with pytest.raises(SchemaError):
            linear_fit(np.ones((5, 18)), np.ones((5, 3)), layout)

    def test_json_roundtrip(self, layout, tmp_path):
        model = LinearModel(scale=np.array([1.0, -2.0, 0.5]), layout=layout)
        path = tmp_path / "linear.json"
        model.to_json(path)
        loaded = LinearModel.from_json(path)
        np.testing.assert_array_equal(loaded.scale, model.scale)
        np.testing.assert_array_equal(loaded.layout.positions, layout.positions)
        np.testing.assert_array_equal(loaded.layout.normals, layout.normals)

    def test_json_without_layout_rejected(self, layout, tmp_path):
        path = tmp_path / "linear.json"
        path.write_text(json.dumps({"S": [1.0, 1.0, 1.0]}))
        with pytest.raises(ConfigError, match="'layout'"):
            LinearModel.from_json(path)
