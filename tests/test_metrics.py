"""Tests for the error metrics and box-plot summaries."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from tactile_force.errors import SchemaError
from tactile_force.metrics import (
    direction_error_pct,
    evaluate_pairs,
    magnitude_error_l1,
    magnitude_error_pct,
    summarize,
    summarize_rows,
)


class TestDirectionError:
    def test_identical_directions(self):
        f = np.array([1.0, 2.0, -0.5])
        assert direction_error_pct(f, 3.0 * f) == 0.0

    def test_opposite_directions(self):
        f = np.array([0.5, -1.0, 2.0])
        assert direction_error_pct(f, -f) == 100.0

    def test_perpendicular(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 4.0])
        assert math.isclose(direction_error_pct(a, b), 50.0, abs_tol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=3)
        p = rng.normal(size=3)
        base = direction_error_pct(f, p)
        for c in (0.01, 7.0):
            assert math.isclose(direction_error_pct(f, c * p), base, abs_tol=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(SchemaError):
            direction_error_pct(np.zeros(3), np.ones(3))


class TestMagnitudeError:
    def test_equal_magnitudes(self):
        assert magnitude_error_pct(np.array([3.0, 0.0, 0.0]), np.array([0.0, 3.0, 0.0])) == 0.0

    def test_three_to_one(self):
        value = magnitude_error_pct(np.array([3.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert math.isclose(value, 50.0, abs_tol=1e-12)

    def test_zero_prediction_saturates(self):
        assert magnitude_error_pct(np.array([1.0, 0.0, 0.0]), np.zeros(3)) == 100.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.normal(size=3), rng.normal(size=3)
            v1 = magnitude_error_pct(a, b)
            assert math.isclose(v1, magnitude_error_pct(b, a), abs_tol=1e-12)
            assert 0.0 <= v1 <= 100.0

    def test_l1_hand_values(self):
        a = np.array([2.5, 0.0, 0.0])
        b = np.array([0.0, 1.5, 0.0])
        assert math.isclose(magnitude_error_l1(a, b), 1.0, abs_tol=1e-12)
        assert magnitude_error_l1(a, a) == 0.0
        assert math.isclose(
            magnitude_error_l1(b, a), magnitude_error_l1(a, b), abs_tol=1e-15
        )


class TestSummarize:
    def test_constant_list(self):
        summary = summarize([4.2] * 10)
        assert summary.median == summary.q1 == summary.q3 == 4.2
        assert summary.whisker_low == summary.whisker_high == 4.2
        assert summary.n_samples == 10

    def test_hand_computed_outlier_case(self):
        # quartiles by linear interpolation: q1=2, q3=4, iqr=2;
        # 100 > 4 + 1.5*2 = 7 so the top whisker stays at 4
        summary = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
        assert summary.q1 == 2.0
        assert summary.median == 3.0
        assert summary.q3 == 4.0
        assert summary.whisker_high == 4.0
        assert summary.whisker_low == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=31)
        a = summarize(values)
        b = summarize(rng.permutation(values))
        assert a == b

    def test_quartile_order(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = summarize(rng.normal(size=rng.integers(1, 50)))
            assert s.q1 <= s.median <= s.q3
            assert s.whisker_low <= s.q1 and s.q3 <= s.whisker_high

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            summarize([])


class TestEvaluatePairs:
    def test_zero_vectors_excluded_and_counted(self):
        f3d = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        preds = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        rows, excluded = evaluate_pairs(f3d, preds, ["rigid_ft", "rigid_ft"])
        assert len(rows) == 1
        assert excluded == 1

    def test_summary_matches_recomputation(self):
        rng = np.random.default_rng(11)
        f3d = rng.normal(size=(40, 3)) + np.array([0.0, 0.0, 3.0])
        preds = f3d + rng.normal(scale=0.2, size=(40, 3))
        rows, _ = evaluate_pairs(f3d, preds, ["ball_ft"] * 40)
        summary = summarize_rows(rows)
        expected = summarize([r.direction_pct for r in rows])
        assert summary["direction_pct"] == asdict(expected)
        assert summary["n_samples"] == 40

    def test_direction_median_in_degrees_is_1_8_times_the_percentage(self):
        """A 100 % direction error is a half turn, so the summary's degree
        median is 1.8 times its percentage median, and reads the angle
        between the forces in degrees."""
        angles = np.radians([3.0, 10.0, 25.0, 40.0, 90.0])
        f3d = np.tile([1.0, 0.0, 0.0], (5, 1))
        preds = np.stack([np.cos(angles), np.sin(angles), np.zeros(5)], axis=1)
        summary = summarize_rows(evaluate_pairs(f3d, preds, ["rigid_ft"] * 5)[0])
        assert summary["direction_median_deg"] == 1.8 * summary["direction_pct"]["median"]
        assert math.isclose(summary["direction_median_deg"], 25.0, rel_tol=1e-12)
