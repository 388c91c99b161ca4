"""Unit values and algebraic properties of the force-regression losses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactile_force.errors import ConfigError, SchemaError
from tactile_force.net.losses import KNOWN_SOURCES, PSI, LossConfig, batch_loss_and_grad
from tactile_force.synthetic import random_rotation

from loss_oracles import (
    _combined_loss_and_grad,
    alpha_weight,
    combined_loss,
    cosine_distance,
    loss_projected,
    loss_scaled_3d,
)

XY_PLANE = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


class TestScaled3d:
    def test_exact_prediction(self):
        f = np.array([0.4, -1.2, 2.0])
        assert loss_scaled_3d(f, f) == 0.0

    def test_zero_prediction_normalizes_to_one(self):
        assert loss_scaled_3d(np.array([2.0, 0.0, 0.0]), np.zeros(3)) == 1.0

    def test_hand_value(self):
        value = loss_scaled_3d(np.array([1.0, 2.0, 2.0]), np.array([1.0, 0.0, 0.0]))
        assert math.isclose(value, 2.0 * math.sqrt(2.0) / 3.0, abs_tol=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        f3d = rng.normal(size=3)
        fp = rng.normal(size=3)
        base = loss_scaled_3d(f3d, fp)
        for _ in range(20):
            rot = random_rotation(rng)
            assert math.isclose(loss_scaled_3d(rot @ f3d, rot @ fp), base, abs_tol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        f3d, fp = rng.normal(size=3), rng.normal(size=3)
        base = loss_scaled_3d(f3d, fp)
        for c in (0.1, 2.0, 750.0):
            assert math.isclose(loss_scaled_3d(c * f3d, c * fp), base, rel_tol=1e-12)

    def test_zero_ground_truth_rejected(self):
        with pytest.raises(SchemaError):
            loss_scaled_3d(np.zeros(3), np.ones(3))


class TestProjected:
    def test_exact_prediction(self):
        f = np.array([1.0, 2.0, 0.5])
        assert loss_projected(f, f, np.eye(3), XY_PLANE) == 0.0

    def test_out_of_plane_error_invisible(self):
        f3d = np.array([1.0, 0.0, 0.0])
        f_p = f3d + np.array([0.0, 0.0, 3.0])  # error along the plane normal
        assert loss_projected(f3d, f_p, np.eye(3), XY_PLANE) == 0.0

    def test_hand_value_squared_norm(self):
        value = loss_projected(
            np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.eye(3), XY_PLANE
        )
        assert math.isclose(value, 2.0, abs_tol=1e-12)  # ||(1, -1)||^2 / 1


class TestCosineDistance:
    def test_aligned(self):
        n = np.array([0.0, 0.0, 1.0])
        assert cosine_distance(n, np.array([0.0, 0.0, 3.0])) == 0.0

    def test_anti_aligned(self):
        n = np.array([0.0, 0.0, 1.0])
        assert cosine_distance(n, np.array([0.0, 0.0, -0.5])) == 1.0

    def test_perpendicular(self):
        n = np.array([0.0, 0.0, 1.0])
        assert math.isclose(cosine_distance(n, np.array([2.0, 0.0, 0.0])), 0.5, abs_tol=1e-15)

    def test_zero_force_rejected(self):
        with pytest.raises(SchemaError):
            cosine_distance(np.array([0.0, 0.0, 1.0]), np.zeros(3))


class TestAlphaWeight:
    def test_aligned_gives_two_to_beta(self):
        n = np.array([1.0, 0.0, 0.0])
        for beta in (0.5, 1.0, 3.0):
            assert math.isclose(alpha_weight(n, np.array([4.0, 0.0, 0.0]), beta), 2.0**beta)

    def test_anti_aligned_gives_one(self):
        n = np.array([1.0, 0.0, 0.0])
        assert alpha_weight(n, np.array([-4.0, 0.0, 0.0]), beta=2.5) == 1.0

    def test_perpendicular_beta_one(self):
        n = np.array([1.0, 0.0, 0.0])
        value = alpha_weight(n, np.array([0.0, 1.0, 0.0]), beta=1.0)
        assert math.isclose(value, math.sqrt(2.0), abs_tol=1e-12)

    def test_monotone_decreasing_in_angle(self):
        n = np.array([0.0, 0.0, 1.0])
        angles = np.linspace(0.0, math.pi, 50)
        values = [
            alpha_weight(n, np.array([math.sin(a), 0.0, math.cos(a)]), beta=1.5)
            for a in angles
        ]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_beta_zero_disables_weighting(self):
        rng = np.random.default_rng(7)
        n = np.array([0.0, 1.0, 0.0])
        for _ in range(10):
            assert alpha_weight(n, rng.normal(size=3), beta=0.0) == 1.0


class TestCombinedLoss:
    def test_rigid_ft_aligned_beta_zero_equals_scaled(self):
        f3d = np.array([1.0, 2.0, 2.0])
        f_p = np.array([1.0, 0.0, 0.0])
        s_n = f3d / np.linalg.norm(f3d)
        value = combined_loss(
            f3d, f_p, s_n, np.eye(3), "rigid_ft", LossConfig(beta=0.0)
        )
        assert math.isclose(value, loss_scaled_3d(f3d, f_p), abs_tol=1e-15)

    def test_planar_uses_projected(self):
        f3d = np.array([1.0, 0.0, 0.0])
        f_p = np.array([0.0, 1.0, 0.0])
        s_n = np.array([1.0, 0.0, 0.0])
        config = LossConfig(beta=1.0)
        value = combined_loss(f3d, f_p, s_n, np.eye(3), "planar_pushing", config)
        expected = alpha_weight(s_n, f3d, 1.0) * loss_projected(
            f3d, f_p, np.eye(3), PSI
        )
        assert math.isclose(value, expected, abs_tol=1e-12)

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            combined_loss(
                np.ones(3), np.ones(3), np.array([1.0, 0.0, 0.0]),
                np.eye(3), "mystery", LossConfig(),
            )

    def test_batch_mean_matches_hand_computation(self):
        config = LossConfig(beta=1.0)
        f3d = np.array([[1.0, 2.0, 2.0], [2.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        preds = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        s_n = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        r_wb = np.stack([np.eye(3)] * 3)
        tags = np.array(["rigid_ft", "ball_ft", "planar_pushing"])
        expected = np.mean(
            [
                combined_loss(f3d[i], preds[i], s_n[i], r_wb[i], tags[i], config)
                for i in range(3)
            ]
        )
        loss, _, skipped = batch_loss_and_grad(preds, f3d, s_n, r_wb, tags, config)
        assert skipped == 0
        assert math.isclose(loss, expected, abs_tol=1e-12)

    def test_magnitude_floor_excludes_and_counts(self):
        config = LossConfig(beta=0.0)
        f3d = np.array([[1.0, 0.0, 0.0], [0.005, 0.0, 0.0]])  # second below 0.01 N
        preds = np.zeros((2, 3))
        s_n = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        r_wb = np.stack([np.eye(3)] * 2)
        tags = np.array(["rigid_ft", "rigid_ft"])
        loss, grads, skipped = batch_loss_and_grad(preds, f3d, s_n, r_wb, tags, config)
        assert skipped == 1
        assert math.isclose(loss, 1.0, abs_tol=1e-12)
        np.testing.assert_array_equal(grads[1], 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        config = LossConfig(beta=1.3)
        for tag in ("rigid_ft", "planar_pushing", "ball_ft"):
            f3d = rng.normal(size=3) + np.array([0.0, 0.0, 2.0])
            pred = rng.normal(size=3)
            s_n = rng.normal(size=3)
            s_n /= np.linalg.norm(s_n)
            r_wb = random_rotation(rng)
            _, grads, _ = batch_loss_and_grad(
                pred[None], f3d[None], s_n[None], r_wb[None], np.array([tag]), config
            )
            h = 1e-7
            for j in range(3):
                bumped_p = pred.copy()
                bumped_p[j] += h
                bumped_m = pred.copy()
                bumped_m[j] -= h
                num = (
                    combined_loss(f3d, bumped_p, s_n, r_wb, tag, config)
                    - combined_loss(f3d, bumped_m, s_n, r_wb, tag, config)
                ) / (2 * h)
                assert math.isclose(num, grads[0, j], rel_tol=1e-5, abs_tol=1e-8)

    def test_doubling_plain_loss_scale_doubles_gradient(self):
        config = LossConfig(mode="plain_l2")
        rng = np.random.default_rng(13)
        f3d = rng.normal(size=(4, 3)) + 2.0
        pred = rng.normal(size=(4, 3))
        s_n = np.tile(np.array([1.0, 0.0, 0.0]), (4, 1))
        r_wb = np.stack([np.eye(3)] * 4)
        tags = np.array(["rigid_ft"] * 4)
        _, g1, _ = batch_loss_and_grad(pred, f3d, s_n, r_wb, tags, config)
        _, g2, _ = batch_loss_and_grad(pred, 2 * f3d - pred, s_n, r_wb, tags, config)
        # plain loss gradient is linear in the residual; doubling it doubles g
        np.testing.assert_allclose(g2, 2.0 * g1, atol=1e-12)


def loop_batch_loss(pred, f3d, s_n, r_wb, tags, config):
    """The per-sample reference for batch_loss_and_grad: a loop over samples."""
    grads = np.zeros_like(pred)
    losses, skipped = [], 0
    for i in range(len(pred)):
        if float(np.linalg.norm(f3d[i])) < config.magnitude_floor:
            skipped += 1
            continue
        loss, grads[i] = _combined_loss_and_grad(
            f3d[i], pred[i], s_n[i], r_wb[i], str(tags[i]), config
        )
        losses.append(loss)
    if not losses:
        raise SchemaError("every sample in the batch fell below the magnitude floor")
    return float(np.mean(losses)), grads / len(losses), skipped


@st.composite
def loss_batches(draw):
    """Batches over all three sources, with samples below the magnitude floor
    and exact fits, for the case-by-source mode (beta 0 and 1) and plain_l2."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = np.array([draw(st.sampled_from([0.003, 0.5, 1.0, 5.0])) for _ in range(n)])
    f3d = rng.normal(size=(n, 3)) * scale[:, None]
    pred = rng.normal(size=(n, 3))
    fit = np.array([draw(st.booleans()) for _ in range(n)])
    pred[fit] = f3d[fit]
    s_n = rng.normal(size=(n, 3))
    s_n /= np.linalg.norm(s_n, axis=1, keepdims=True)
    r_wb = np.stack([random_rotation(rng) for _ in range(n)])
    tags = np.array([draw(st.sampled_from(KNOWN_SOURCES)) for _ in range(n)])
    config = LossConfig(beta=draw(st.sampled_from([0.0, 1.0])),
                        mode=draw(st.sampled_from(["case_by_source", "plain_l2"])))
    return pred, f3d, s_n, r_wb, tags, config


class TestBatchLossMatchesPerSampleLoop:
    @settings(max_examples=150, deadline=None)
    @given(loss_batches())
    def test_loss_gradient_and_skipped_count(self, batch):
        try:
            expected = loop_batch_loss(*batch)
        except SchemaError:
            with pytest.raises(SchemaError, match="magnitude floor"):
                batch_loss_and_grad(*batch)
            return
        loss, grads, skipped = batch_loss_and_grad(*batch)
        assert skipped == expected[2]
        assert abs(loss - expected[0]) <= 1e-12
        np.testing.assert_allclose(grads, expected[1], rtol=0, atol=1e-12)

    def test_unknown_tag_named_unless_skipped(self):
        f3d = np.array([[1.0, 0.0, 0.0], [0.001, 0.0, 0.0], [0.0, 2.0, 0.0]])
        args = (np.zeros((3, 3)), f3d, np.tile([0.0, 0.0, 1.0], (3, 1)), np.stack([np.eye(3)] * 3))
        with pytest.raises(ConfigError, match="'mystery'"):
            batch_loss_and_grad(*args, np.array(["rigid_ft", "ball_ft", "mystery"]), LossConfig())
        # a sample below the floor is skipped before its tag is read
        _, _, skipped = batch_loss_and_grad(
            *args, np.array(["rigid_ft", "mystery", "ball_ft"]), LossConfig())
        assert skipped == 1

    def test_all_below_floor_raises(self):
        f3d = np.full((4, 3), 1e-3)
        with pytest.raises(SchemaError, match="magnitude floor"):
            batch_loss_and_grad(
                np.zeros((4, 3)), f3d, np.tile([0.0, 0.0, 1.0], (4, 1)),
                np.stack([np.eye(3)] * 4), np.array(["rigid_ft"] * 4), LossConfig(),
            )
