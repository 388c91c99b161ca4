"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and runtimes. Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
from loss_oracles import batch_loss
from solver_oracles import _solve_grid, _solve_iterative
from tactile_force.baselines import linear_fit, linear_predict
from tactile_force.dataset import SampleSet, make_dataset, featurize_voxel
from sample_oracles import sample_set
from tactile_force.mechanics import (
    GRAVITY,
    ParticleGrid,
    PushParams,
    force_targets,
    friction_wrench,
    infer_force_with_friction,
)
from tactile_force.metrics import direction_error_pct, magnitude_error_pct
from tactile_force.net import (
    LossConfig,
    NetworkConfig,
    TrainingConfig,
    build_voxel_net,
    train,
)
from tactile_force.net.layers import LayerNormReLU
from tactile_force.sensor import SurfaceGeometry, default_electrode_layout
from tactile_force.synthetic import (
    SensorForwardModel,
    box_inertia,
    make_ft_samples,
    piecewise_force_schedule,
    simulate_push,
)
from tactile_force.voxel import GridSpec
from tactile_force.mechanics import PlanarMotion


def report(criterion: str, detail: str) -> None:
    print(f"\n[PASS] {criterion}: {detail}")


class TestCriterion1RoundTrip:
    def test_force_inference_round_trip(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(101)
        episodes = 0
        non_static_steps = 0
        worst = 0.0
        while episodes < 100:
            mass = rng.uniform(0.2, 2.0)
            half_extents = (rng.uniform(0.04, 0.15), rng.uniform(0.04, 0.15))
            params = PushParams(
                m=mass,
                inertia=box_inertia(mass, half_extents),
                mu_s=rng.uniform(0.0, 0.3),
                n=int(rng.integers(16, 121)),
            )
            forces = piecewise_force_schedule(rng, 200, magnitude_range=(0.1, 2.0))
            contact = np.array([-half_extents[0], rng.uniform(-0.5, 0.5) * half_extents[1]])
            episode = simulate_push(params, half_extents, forces, contact)
            grid = ParticleGrid.uniform_rectangle(half_extents, params)
            for i in range(episode.n_steps):
                if episode.static_flags[i]:
                    continue
                result = infer_force_with_friction(
                    episode.motion_at(i), episode.contact_points[i], grid, params
                )
                err = float(
                    np.linalg.norm(result.force.components - episode.applied_forces[i])
                )
                worst = max(worst, err)
                assert err < 1e-3, f"episode {episodes} step {i}: error {err}"
                non_static_steps += 1
            episodes += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
        report(
            "criterion 1 (force-inference round trip)",
            f"{episodes} episodes, {non_static_steps} non-static steps, "
            f"worst error {worst:.2e} N < 1e-3, {elapsed:.1f}s < 60s",
        )


class TestCriterion2SolverAgreement:
    def test_three_solvers_agree_on_1000_instances(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(202)
        worst_iter, worst_grid = 0.0, 0.0
        for _ in range(1000):
            params = PushParams(
                m=rng.uniform(0.2, 2.0),
                inertia=rng.uniform(1e-3, 1e-2),
                mu_s=rng.uniform(0.0, 0.3),
                k=rng.uniform(1.0, 20.0),
                n=int(rng.integers(4, 100)),
            )
            grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)
            motion = PlanarMotion(
                pose=rng.normal(size=3),
                v=rng.normal(size=2),
                omega=rng.normal(),
                v_dot=rng.normal(size=2),
                omega_dot=rng.normal(),
            )
            c = rng.uniform(-0.15, 0.15, size=2)
            closed = infer_force_with_friction(motion, c, grid, params).force.components
            a, b, _ = force_targets(motion, grid, params)
            worst_iter = max(
                worst_iter,
                float(np.linalg.norm(closed - _solve_iterative(c, a, b, params.k))),
            )
            worst_grid = max(
                worst_grid,
                float(np.linalg.norm(closed - _solve_grid(c, a, b, params.k))),
            )
        elapsed = time.monotonic() - t0
        assert worst_iter < 1e-6, f"closed vs iterative disagreement {worst_iter}"
        assert worst_grid < 1e-3, f"closed vs grid disagreement {worst_grid}"
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
        report(
            "criterion 2 (solver agreement)",
            f"1000 instances: closed-vs-iterative {worst_iter:.2e} N < 1e-6, "
            f"closed-vs-grid {worst_grid:.2e} N < 1e-3, {elapsed:.1f}s < 60s",
        )


class TestCriterion3GradientCorrectness:
    def test_finite_difference_check_every_parameter(self):
        """Central differences at step 1e-5 in float64 against the analytic
        gradient of combined_loss composed with the reduced network.

        The relative-error denominator is floored at 1e-6: below that scale
        a central difference of an O(1) loss at h = 1e-5 measures only float
        rounding (quantum ~ eps * loss / h ~ 5e-11), so the floor asserts
        agreement to 1e-10 absolute there, the strongest claim the
        finite-difference oracle supports. Gradients above the floor are
        checked at the full 1e-4 relative tolerance.
        """
        t0 = time.monotonic()
        config = NetworkConfig(
            conv3d_channels=(2, 2), conv2d_channels=2, fc_widths=(4,), seed=0
        )
        model = build_voxel_net(config, input_shape=(2, 8, 8, 4), dtype=np.float64)
        rng = np.random.default_rng(100)
        x = rng.normal(size=(3, 2, 8, 8, 4))

        # the check point must be kink-free: no ReLU input within reach of h,
        # the fused layers' gain * xhat + offset
        margin = math.inf
        out = x
        for layer in model.layers:
            out = layer.forward(out)
            if isinstance(layer, LayerNormReLU):
                relu_in = layer._xhat * layer._in_rows(layer.gain.value)
                relu_in += layer._in_rows(layer.offset.value)
                margin = min(margin, float(np.min(np.abs(relu_in))))
        assert margin > 1e-3, f"ReLU margin {margin} too small for valid differences"

        f3d = rng.normal(size=(3, 3)) + np.array([0.0, 0.0, 2.0])
        s_n = np.tile(np.array([0.0, 0.0, 1.0]), (3, 1))
        r_wb = np.stack([np.eye(3)] * 3)
        tags = np.array(["rigid_ft", "planar_pushing", "ball_ft"])
        loss_config = LossConfig(beta=1.0)

        def loss_at():
            pred = model.forward(x)
            return batch_loss(pred, f3d, s_n, r_wb, tags, loss_config)[0]

        model.zero_grad()
        pred = model.forward(x)
        _, grad, _ = batch_loss(pred, f3d, s_n, r_wb, tags, loss_config)
        model.backward(grad)

        h = 1e-5
        worst = 0.0
        n_params = 0
        for p in model.parameters():
            flat, gflat = p.value.ravel(), p.grad.ravel()
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                lp = loss_at()
                flat[i] = old - h
                lm = loss_at()
                flat[i] = old
                numeric = (lp - lm) / (2 * h)
                rel = abs(numeric - gflat[i]) / max(abs(numeric) + abs(gflat[i]), 1e-6)
                worst = max(worst, rel)
                n_params += 1
        elapsed = time.monotonic() - t0
        assert worst < 1e-4, f"worst relative error {worst}"
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
        report(
            "criterion 3 (gradient correctness)",
            f"all {n_params} parameters: worst relative error {worst:.2e} < 1e-4, "
            f"{elapsed:.1f}s < 120s",
        )


class TestCriterion4EndToEndLearnability:
    def test_voxel_net_beats_targets_and_linear_baseline(self):
        """Train the full voxel network on 12k zero-noise synthetic samples
        and require median direction error < 5% and median magnitude error
        < 10% on the held-out trial split, with the linear baseline strictly
        worse on at least one median. Fully seeded and deterministic."""
        t0 = time.monotonic()
        geometry = SurfaceGeometry()
        layout = default_electrode_layout(geometry)
        sensor = SensorForwardModel(layout=layout)  # zero noise by default
        records = make_ft_samples(
            sensor, geometry, "rigid_ft", n_trials=60, samples_per_trial=200,
            seed=1, force_range=(0.5, 5.0), cone_angle_deg=45.0,
        )
        assert len(records) >= 5000
        splits = make_dataset(records, seed=4)
        spec = GridSpec.for_geometry(geometry)
        train_set = featurize_voxel(splits.train, layout, spec)
        val_set = featurize_voxel(splits.val, layout, spec)
        test_set = featurize_voxel(splits.test, layout, spec)

        net = build_voxel_net(
            NetworkConfig(conv2d_channels=128, fc_widths=(256, 128, 64), seed=0),
            input_shape=(2,) + spec.dims,
        )
        train(
            net, train_set, val_set, LossConfig(beta=1.0),
            TrainingConfig(
                max_epochs=160, batch_size=128, base_lr=2e-3,
                decay_factor=0.9999, seed=0,
            ),
        )
        preds = np.concatenate(
            [net.forward(test_set.inputs[i : i + 512])
             for i in range(0, len(test_set.inputs), 512)]
        )
        net_dir = float(np.median(
            [direction_error_pct(test_set.f_3d[i], preds[i]) for i in range(len(preds))]
        ))
        net_mag = float(np.median(
            [magnitude_error_pct(test_set.f_3d[i], preds[i]) for i in range(len(preds))]
        ))

        linear = linear_fit(
            np.stack([r.e for r in splits.train]),
            np.stack([r.f_3d for r in splits.train]),
            layout,
        )
        lin_preds = np.stack([linear_predict(linear, r.e) for r in splits.test])
        lin_dir = float(np.median(
            [direction_error_pct(test_set.f_3d[i], lin_preds[i]) for i in range(len(lin_preds))]
        ))
        lin_mag = float(np.median(
            [magnitude_error_pct(test_set.f_3d[i], lin_preds[i]) for i in range(len(lin_preds))]
        ))

        elapsed = time.monotonic() - t0
        assert net_dir < 5.0, f"network direction median {net_dir:.2f}% >= 5%"
        assert net_mag < 10.0, f"network magnitude median {net_mag:.2f}% >= 10%"
        assert lin_dir > net_dir or lin_mag > net_mag, (
            f"linear baseline ({lin_dir:.2f}%, {lin_mag:.2f}%) not strictly worse"
        )
        assert elapsed < 900.0, f"runtime {elapsed:.0f}s exceeds 15 min"
        report(
            "criterion 4 (end-to-end learnability)",
            f"{len(records)} samples: voxel net direction {net_dir:.2f}% < 5, "
            f"magnitude {net_mag:.2f}% < 10; linear baseline {lin_dir:.2f}% / "
            f"{lin_mag:.2f}% strictly worse; {elapsed:.0f}s < 900s",
        )


def one_row_loss(f_3d, prediction, s_n, beta):
    """The production batch loss of a single rigid-ft sample."""
    loss, _, skipped = batch_loss(
        np.array([prediction], dtype=float), np.array([f_3d], dtype=float),
        np.array([s_n], dtype=float), np.eye(3)[None], np.array(["rigid_ft"]),
        LossConfig(beta=beta),
    )
    assert skipped == 0
    return loss


class TestCriterion5LossUnitValues:
    def test_loss_values_exact(self):
        # beta 0: the weight is 1, so the loss is the scaled loss alone
        scaled = one_row_loss([1.0, 2.0, 2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.0)
        assert abs(scaled - 2.0 * math.sqrt(2.0) / 3.0) <= 1e-12

        # a zero prediction scales to exactly 1, leaving the weight alpha alone
        n = [0.0, 0.0, 1.0]
        for beta in (0.5, 1.0, 2.0):
            assert one_row_loss([0.0, 0.0, 4.0], [0.0, 0.0, 0.0], n, beta) == 2.0**beta
            assert one_row_loss([0.0, 0.0, -4.0], [0.0, 0.0, 0.0], n, beta) == 1.0

        # perpendicular: cosine distance 0.5, so alpha = 2^(beta/2) at beta 1
        assert one_row_loss([3.0, 0.0, 0.0], [0.0, 0.0, 0.0], n, 1.0) == 2.0 ** 0.5
        assert direction_error_pct(np.array([1.0, 1.0, 0.0]), np.array([-1.0, -1.0, 0.0])) == 100.0
        assert magnitude_error_pct(np.array([3.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])) == 50.0
        report(
            "criterion 5 (loss-function unit values)",
            "scaled 2*sqrt(2)/3, alpha endpoints 2^beta and 1, perpendicular "
            "cosine distance 0.5, antipodal direction 100, (3,1) magnitude 50: all exact",
        )


class TestCriterion6FrictionSymmetries:
    def test_symmetries_and_coulomb_bound(self):
        params = PushParams(m=0.9, inertia=0.005, mu_s=0.2, n=80)
        grid = ParticleGrid.uniform_rectangle((0.1, 0.075), params)  # 180deg symmetric

        rotation = PlanarMotion(pose=np.zeros(3), v=np.zeros(2), omega=2.0)
        f_rot = float(np.linalg.norm(friction_wrench(grid, rotation, params).force))
        assert f_rot < 1e-9

        translation = PlanarMotion(pose=np.zeros(3), v=np.array([0.4, -0.1]), omega=0.0)
        n_trans = friction_wrench(grid, translation, params).moment
        assert abs(n_trans) < 1e-9

        rng = np.random.default_rng(606)
        limit = params.mu_s * params.m * GRAVITY
        worst = 0.0
        for _ in range(10_000):
            motion = PlanarMotion(
                pose=np.array([0.0, 0.0, rng.normal()]),
                v=rng.normal(size=2) * rng.choice([0.0, 0.01, 1.0]),
                omega=rng.normal() * rng.choice([0.0, 0.1, 1.0]),
            )
            worst = max(worst, float(np.linalg.norm(friction_wrench(grid, motion, params).force)))
            assert worst <= limit + 1e-12
        report(
            "criterion 6 (friction-model symmetries)",
            f"pure rotation |f_f| {f_rot:.1e} < 1e-9, pure translation "
            f"|n_f| {abs(n_trans):.1e} < 1e-9, max |f_f| {worst:.4f} <= mu*m*g "
            f"= {limit:.4f} over 10^4 states",
        )


class TestCriterion8DatasetIntegrity:
    def test_split_filter_determinism(self):
        geometry = SurfaceGeometry()
        layout = default_electrode_layout(geometry)
        model = SensorForwardModel(layout=layout)
        records = make_ft_samples(
            model, geometry, "rigid_ft", n_trials=8, samples_per_trial=12,
            seed=1, force_range=(0.5, 5.0), cone_angle_deg=30.0,
        )
        ball = make_ft_samples(
            model, geometry, "ball_ft", n_trials=8, samples_per_trial=12,
            seed=2, force_range=(0.1, 3.0), cone_angle_deg=60.0, cap_only=True,
        )
        # adversarial rows the filter must drop
        adversarial = sample_set([
            dict(trial_id="rigid_ft_0000", source_tag="rigid_ft", e=np.zeros(19),
                 s_c=records.s_c[0], s_n=records.s_n[0], f_3d=np.zeros(3), r_wb=np.eye(3)),
            dict(trial_id="ball_ft_0000", source_tag="ball_ft", e=np.zeros(19),
                 s_c=records.s_c[0], s_n=records.s_n[0], f_3d=np.ones(3), r_wb=np.eye(3),
                 in_contact=False),
        ])
        records = SampleSet.concatenate([records, ball, adversarial])
        splits_a = make_dataset(records, seed=77)
        splits_b = make_dataset(records, seed=77)
        assert splits_a.trial_assignment == splits_b.trial_assignment
        ids = {
            name: {r.trial_id for r in splits_a.split(name)}
            for name in ("train", "val", "test")
        }
        for a in ids:
            for b in ids:
                if a != b:
                    assert not (ids[a] & ids[b]), f"trial leak between {a} and {b}"
        kept = SampleSet.concatenate([splits_a.train, splits_a.val, splits_a.test])
        assert kept.in_contact.all() and (np.linalg.norm(kept.f_3d, axis=1) > 0).all()
        assert splits_a.n_filtered_out == 2
        report(
            "criterion 8 (dataset integrity)",
            f"{len(ids['train'])}/{len(ids['val'])}/{len(ids['test'])} trials per "
            "split with no overlap, 2 non-force samples filtered, split "
            "deterministic under fixed seed",
        )
