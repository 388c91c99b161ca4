"""Tests for the particle-friction model and least-squares force recovery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solver_oracles import (
    _solve_grid,
    _solve_iterative,
    _solve_normal_equations,
    cross2,
    friction_wrench_reference,
    perp,
    rot2,
)
from tactile_force.cli import _read_push_params
from tactile_force.errors import ConfigError
from tactile_force.mechanics import (
    GRAVITY,
    ParticleGrid,
    PlanarMotion,
    PushParams,
    _objective,
    _solve_closed_form,
    force_targets,
    friction_wrench,
    infer_force_with_friction,
)
from tactile_force.synthetic import DEFAULT_BOX_HALF_EXTENTS_M, box_inertia


def four_particle_friction_oracle(positions, motion, params):
    """Direct per-particle summation of the friction force and moment."""
    scale = params.mu_s * params.m * GRAVITY / len(positions)
    c, s = math.cos(motion.theta), math.sin(motion.theta)
    force = np.zeros(2)
    moment = 0.0
    for r_body in positions:
        r = np.array([c * r_body[0] - s * r_body[1], s * r_body[0] + c * r_body[1]])
        v = motion.v + motion.omega * np.array([-r[1], r[0]])
        speed = np.linalg.norm(v)
        if speed <= 1e-9:
            continue
        unit = v / speed
        force -= scale * unit
        moment -= scale * (r[0] * unit[1] - r[1] * unit[0])
    return force, moment


def make_motion(v=(0.0, 0.0), omega=0.0, v_dot=(0.0, 0.0), omega_dot=0.0, theta=0.0):
    return PlanarMotion(
        pose=np.array([0.0, 0.0, theta]),
        v=np.array(v, dtype=float),
        omega=omega,
        v_dot=np.array(v_dot, dtype=float),
        omega_dot=omega_dot,
    )


def infer_frictionless(motion, c, params):
    """Force inference with the support friction switched off (mu_s = 0)."""
    params = dataclasses.replace(params, mu_s=0.0)
    grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
    return infer_force_with_friction(motion, c, grid, params)


class TestPointVelocity:
    """friction_wrench opposes each particle's velocity v + omega * perp(r):
    one particle with unit load and mu_s = 1 feels minus its unit velocity."""

    @staticmethod
    def unit_friction(motion, r):
        params = PushParams(m=1.0, inertia=0.01, mu_s=1.0, n=1)
        grid = ParticleGrid(particles=np.array([r], dtype=float), per_particle_normal_force=1.0)
        return friction_wrench(grid, motion, params).force

    def test_pure_translation(self):
        motion = make_motion(v=(1.0, 0.0))
        np.testing.assert_allclose(self.unit_friction(motion, [0.3, -0.7]), [-1.0, 0.0])

    def test_unit_rotation(self):
        motion = make_motion(omega=1.0)
        np.testing.assert_allclose(self.unit_friction(motion, [1.0, 0.0]), [0.0, -1.0])

    def test_hand_evaluated_combination(self):
        motion = make_motion(v=(2.0, -1.0), omega=3.0)
        velocity = np.array([2.0 - 0.6, -1.0 + 1.5])
        np.testing.assert_allclose(
            self.unit_friction(motion, [0.5, 0.2]), -velocity / np.linalg.norm(velocity)
        )


class TestParticleGrid:
    def test_uniform_lattice_cell_centroids(self):
        params = PushParams(m=1.0, inertia=0.01, n=80)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        assert grid.n == 80
        # 80 = 10 x 8 with the longer count on the longer side
        assert len(np.unique(np.round(grid.particles[:, 0], 12))) == 10
        assert len(np.unique(np.round(grid.particles[:, 1], 12))) == 8
        assert np.all(np.abs(grid.particles[:, 0]) < 0.1)
        assert np.all(np.abs(grid.particles[:, 1]) < 0.075)

    def test_normal_forces_sum_to_weight(self):
        params = PushParams(m=0.65, inertia=0.005, n=80)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        total = grid.per_particle_normal_force * grid.n
        np.testing.assert_allclose(total, params.m * GRAVITY, rtol=1e-9)

    def test_param_validation(self):
        with pytest.raises(ConfigError, match="'m'"):
            PushParams(m=0.0, inertia=0.01)
        with pytest.raises(ConfigError, match="'mu_s'"):
            PushParams(m=1.0, inertia=0.01, mu_s=-0.1)
        with pytest.raises(ConfigError, match="'k'"):
            PushParams(m=1.0, inertia=0.01, k=0.0)

    def test_params_reader_takes_class_defaults_and_rejects_other_keys(self):
        # a params file as simulate writes it carries the box half extents
        params = PushParams(m=0.65, inertia=0.0034, mu_s=0.2, n=16, k=5.0)
        blob = {**dataclasses.asdict(params), "box_half_extents": [0.1, 0.075]}
        assert _read_push_params("params", blob) == (params, (0.1, 0.075))
        assert _read_push_params("params", {"m": 0.65, "inertia": 0.0034}) == (
            PushParams(m=0.65, inertia=0.0034), DEFAULT_BOX_HALF_EXTENTS_M
        )
        # an absent inertia is that of a uniform box of mass m
        assert _read_push_params("params", {"m": 1, "box_half_extents": [0.2, 0.1]})[0] == (
            PushParams(m=1.0, inertia=box_inertia(1.0, (0.2, 0.1)))
        )
        for bad, field in (
            ({"m": "heavy", "inertia": 0.01}, "'m'"),
            ({"inertia": 0.01}, "'m'"),
            ({"m": 1.0, "inertia": 0.01, "n": 80.5}, "'n'"),
            ({"m": "0.65", "inertia": True}, "'m'"),
            ({"m": 0.65, "inertia": True}, "'inertia'"),
            ({"m": 1.0, "mu": 0.0}, "'mu'"),
            ({"m": 1.0, "g": 9.81}, "unknown key 'g'"),
            ({"m": float("nan")}, "'m'"),
            ({"m": 1.0, "box_half_extents": [0.1]}, "'box_half_extents'"),
        ):
            with pytest.raises(ConfigError, match=f"^params: .*{field}"):
                _read_push_params("params", bad)


class TestFriction:
    def test_pure_translation_force(self):
        params = PushParams(m=1.0, inertia=0.01, mu_s=0.1)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        f = friction_wrench(grid, make_motion(v=(1.0, 0.0)), params).force
        np.testing.assert_allclose(f, [-0.981, 0.0], atol=1e-12)

    def test_pure_rotation_symmetric_grid_cancels(self):
        params = PushParams(m=1.0, inertia=0.01, mu_s=0.2, n=80)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)  # 180deg symmetric
        f = friction_wrench(grid, make_motion(omega=2.0), params).force
        np.testing.assert_allclose(f, [0.0, 0.0], atol=1e-9)

    def test_pure_translation_symmetric_grid_zero_moment(self):
        params = PushParams(m=1.0, inertia=0.01, mu_s=0.2, n=80)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        assert abs(friction_wrench(grid, make_motion(v=(0.3, -0.2)), params).moment) < 1e-9

    def test_rotation_moment_opposes(self):
        params = PushParams(m=1.0, inertia=0.01, mu_s=0.1, n=16)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        assert friction_wrench(grid, make_motion(omega=1.5), params).moment < 0.0
        assert friction_wrench(grid, make_motion(omega=-1.5), params).moment > 0.0

    def test_four_particle_summation_oracle(self):
        params = PushParams(m=0.65, inertia=0.004, mu_s=0.1, n=4)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.1), params)  # 2x2 square
        motion = make_motion(v=(1.0, 0.0), omega=0.5)
        expected_f, expected_n = four_particle_friction_oracle(
            grid.particles, motion, params
        )
        wrench = friction_wrench(grid, motion, params)
        np.testing.assert_allclose(wrench.force, expected_f, atol=1e-12)
        np.testing.assert_allclose(wrench.moment, expected_n, atol=1e-12)

    def test_rotated_pose_matches_oracle(self):
        params = PushParams(m=0.65, inertia=0.004, mu_s=0.15, n=12)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.06), params)
        motion = make_motion(v=(0.4, -0.3), omega=1.2, theta=0.7)
        expected_f, expected_n = four_particle_friction_oracle(
            grid.particles, motion, params
        )
        wrench = friction_wrench(grid, motion, params)
        np.testing.assert_allclose(wrench.force, expected_f, atol=1e-12)
        np.testing.assert_allclose(wrench.moment, expected_n, atol=1e-12)

    def test_static_regime_flag(self):
        params = PushParams(m=1.0, inertia=0.01, mu_s=0.1)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        wrench = friction_wrench(grid, make_motion(), params)
        assert wrench.static
        np.testing.assert_array_equal(wrench.force, [0.0, 0.0])
        assert wrench.moment == 0.0

    def test_magnitude_bounded_by_coulomb_limit(self):
        rng = np.random.default_rng(5)
        params = PushParams(m=0.8, inertia=0.004, mu_s=0.25, n=36)
        grid = ParticleGrid.uniform_rectangle((0.09, 0.05), params)
        limit = params.mu_s * params.m * GRAVITY
        for _ in range(200):
            motion = make_motion(
                v=rng.normal(size=2), omega=rng.normal(), theta=rng.normal()
            )
            f = friction_wrench(grid, motion, params).force
            assert np.linalg.norm(f) <= limit + 1e-12

    def test_doubling_particles_converges(self):
        # refinement shrinks the change between successive discretizations
        motions = make_motion(v=(0.3, 0.1), omega=2.0)
        half_extents = (0.1, 0.075)

        def wrench_at(n):
            params = PushParams(m=0.65, inertia=0.004, mu_s=0.1, n=n)
            grid = ParticleGrid.uniform_rectangle(half_extents, params)
            w = friction_wrench(grid, motions, params)
            return np.array([w.force[0], w.force[1], w.moment])

        coarse_change = np.linalg.norm(wrench_at(80) - wrench_at(40))
        fine_change = np.linalg.norm(wrench_at(160) - wrench_at(80))
        assert fine_change < coarse_change


@st.composite
def grid_and_params(draw):
    """Push params and a grid of 1-100 particles: a uniform_rectangle
    lattice, or points drawn on a 1 mm lattice (repeats allowed) so that
    distinct particles sit at least 1 mm apart."""
    n = draw(st.integers(1, 100))
    params = PushParams(m=draw(st.floats(0.1, 5.0)), inertia=0.01,
                        mu_s=draw(st.floats(0.05, 1.0)), n=n)
    if draw(st.booleans()):
        half_extents = (draw(st.floats(0.01, 0.2)), draw(st.floats(0.01, 0.2)))
        return ParticleGrid.uniform_rectangle(half_extents, params), params
    cells = draw(st.lists(st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
                          min_size=n, max_size=n))
    grid = ParticleGrid(particles=1e-3 * np.array(cells, dtype=float),
                        per_particle_normal_force=params.m * GRAVITY / n)
    return grid, params


class TestComplexKernel:
    """The complex-offset friction_wrench against the rotation-matrix
    reference, in the moving, all-static and partly static regimes."""

    @staticmethod
    def assert_matches_reference(grid, motion, params):
        got = friction_wrench(grid, motion, params)
        want = friction_wrench_reference(grid, motion, params)
        tol = 1e-12 * params.mu_s * params.m * GRAVITY
        assert got.static == want.static
        assert np.abs(got.force - want.force).max() <= tol
        assert abs(got.moment - want.moment) <= tol
        return got

    @settings(max_examples=300, deadline=None)
    @given(gp=grid_and_params(), theta=st.floats(-10.0, 10.0),
           v=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), omega=st.floats(-10.0, 10.0))
    def test_moving(self, gp, theta, v, omega):
        grid, params = gp
        self.assert_matches_reference(grid, make_motion(v=v, omega=omega, theta=theta), params)

    @settings(max_examples=100, deadline=None)
    @given(gp=grid_and_params(), theta=st.floats(-10.0, 10.0),
           v=st.tuples(st.floats(-6e-10, 6e-10), st.floats(-6e-10, 6e-10)))
    def test_all_static(self, gp, theta, v):
        """Every particle slower than the stationary tolerance."""
        grid, params = gp
        wrench = self.assert_matches_reference(grid, make_motion(v=v, theta=theta), params)
        assert wrench.static and wrench.moment == 0.0
        np.testing.assert_array_equal(wrench.force, [0.0, 0.0])

    @settings(max_examples=300, deadline=None)
    @given(gp=grid_and_params(), theta=st.floats(-10.0, 10.0), data=st.data(),
           omega=st.floats(0.5, 10.0) | st.floats(-10.0, -0.5))
    def test_partly_static(self, gp, theta, data, omega):
        """The rotation centre sits on particle j: v = -omega perp(r_j), so
        particle j (and any repeat of it) is at rest and the others move."""
        grid, params = gp
        j = data.draw(st.integers(0, grid.n - 1))
        r_j = rot2(theta) @ grid.particles[j]
        motion = make_motion(v=-omega * perp(r_j), omega=omega, theta=theta)
        wrench = self.assert_matches_reference(grid, motion, params)
        assert not wrench.static or np.all(grid.particles == grid.particles[j])


class TestForceInference:
    def test_moment_term_vanishes_at_origin_contact(self):
        params = PushParams(m=1.0, inertia=0.01, k=10.0)
        motion = make_motion(v_dot=(1.0, 0.0))
        result = infer_frictionless(motion, np.zeros(2), params)
        np.testing.assert_allclose(result.force.components, [1.0, 0.0], atol=1e-12)

    def test_zero_motion_zero_force(self):
        params = PushParams(m=1.0, inertia=0.01)
        result = infer_frictionless(make_motion(), np.array([0.05, 0.02]), params)
        np.testing.assert_allclose(result.force.components, [0.0, 0.0], atol=1e-12)

    def test_normal_equations_against_grid_oracle(self):
        params = PushParams(m=0.65, inertia=0.004, k=10.0)
        motion = make_motion(v_dot=(0.2, 0.0), omega_dot=1.5)
        c = np.array([0.0, 0.1])
        closed = infer_frictionless(motion, c, params)
        a, b = params.m * motion.v_dot, params.inertia * motion.omega_dot
        oracle = _solve_grid(c, a, b, params.k)
        np.testing.assert_allclose(closed.force.components, oracle, atol=1e-3)

    def test_zero_friction_matches_frictionless(self):
        params = PushParams(m=0.65, inertia=0.004, mu_s=0.0, n=16)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        motion = make_motion(v=(0.5, 0.2), omega=0.3, v_dot=(1.0, -0.4), omega_dot=2.0)
        c = np.array([0.08, -0.03])
        a, b, static = force_targets(motion, grid, params)
        np.testing.assert_array_equal(a, params.m * motion.v_dot)
        assert b == params.inertia * motion.omega_dot and not static
        with_f = infer_force_with_friction(motion, c, grid, params)
        without = _solve_iterative(
            c, params.m * motion.v_dot, params.inertia * motion.omega_dot, params.k
        )
        np.testing.assert_allclose(with_f.force.components, without, atol=1e-6)

    def test_equilibrium_push_cancels_friction(self):
        # steady sliding: inferred force exactly balances kinetic friction
        params = PushParams(m=1.0, inertia=0.01, mu_s=0.1, n=80, k=10.0)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        motion = make_motion(v=(1.0, 0.0))
        result = infer_force_with_friction(motion, np.zeros(2), grid, params)
        np.testing.assert_allclose(result.force.components, [0.981, 0.0], atol=1e-9)

    def test_three_solvers_agree_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            params = PushParams(
                m=rng.uniform(0.2, 2.0),
                inertia=rng.uniform(1e-3, 1e-2),
                mu_s=rng.uniform(0.0, 0.3),
                k=rng.uniform(1.0, 20.0),
                n=int(rng.integers(4, 100)),
            )
            grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
            motion = make_motion(
                v=rng.normal(size=2),
                omega=rng.normal(),
                v_dot=rng.normal(size=2),
                omega_dot=rng.normal(),
                theta=rng.normal(),
            )
            c = rng.uniform(-0.15, 0.15, size=2)
            closed = infer_force_with_friction(motion, c, grid, params).force.components
            a, b, _ = force_targets(motion, grid, params)
            np.testing.assert_allclose(closed, _solve_iterative(c, a, b, params.k), atol=1e-6)
            np.testing.assert_allclose(closed, _solve_grid(c, a, b, params.k), atol=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(c=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           a=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           b=st.floats(-1e3, 1e3), k=st.floats(1e-2, 1e4))
    def test_closed_form_matches_lapack_solve(self, c, a, b, k):
        """The rank-one formula solves the 2x2 normal equations as LAPACK
        does, to 1e-12 of the size of the terms a and s p that make up f."""
        c, a = np.array(c), np.array(a)
        closed = _solve_closed_form(c, a, b, k)
        reference = _solve_normal_equations(c, a, b, k)
        p = perp(c)
        scale = np.linalg.norm(a) + abs(b) * np.linalg.norm(p) / (k + p @ p)
        assert np.linalg.norm(closed - reference) <= 1e-12 * scale

    def test_closed_form_is_local_minimum(self):
        rng = np.random.default_rng(9)
        params = PushParams(m=0.65, inertia=0.004, mu_s=0.1, k=10.0, n=16)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
        motion = make_motion(v=(0.3, 0.1), omega=0.5, v_dot=(0.4, -0.2), omega_dot=1.0)
        c = np.array([0.06, -0.02])
        result = infer_force_with_friction(motion, c, grid, params)
        a, b, _ = force_targets(motion, grid, params)
        f = result.force.components
        base = _objective(f, c, a, b, params.k)
        assert base == result.objective
        for _ in range(100):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            perturbed = _objective(f + 1e-3 * direction, c, a, b, params.k)
            assert base <= perturbed + 1e-15


class TestHelpers:
    def test_perp_and_cross(self):
        np.testing.assert_array_equal(perp(np.array([2.0, 3.0])), [-3.0, 2.0])
        assert cross2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert cross2(np.array([0.5, 0.2]), np.array([0.5, 0.2])) == 0.0
