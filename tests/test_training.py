"""Learning-rate schedule, optimizer determinism, the flat parameter buffer,
and a learnability smoke test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from tactile_force.errors import ConfigError, DataIntegrityError, NumericalError
from tactile_force.net import (
    AdamOptimizer,
    LossConfig,
    LearningRateSchedule,
    Model,
    NetworkConfig,
    Parameter,
    TrainingConfig,
    build_mlp_net,
    build_voxel_net,
    load_checkpoint,
    save_checkpoint,
    train,
)
from tactile_force.net import training as training_module
from tactile_force.net.layers import DEFAULT_DTYPE, Dense, Layer, LayerNormReLU
from tactile_force.net.network import FLAT_INPUT_WIDTH, OUTPUT_DIM
from tactile_force.net.training import (
    LR_FLOOR, WARMUP_DOUBLING_ITERS, WARMUP_EPOCHS, ArraySamples, batch_loss_and_grad,
    evaluate_loss,
)


def small_mlp(input_dim, hidden_widths, seed, dtype=DEFAULT_DTYPE):
    """The layers build_mlp_net draws from `seed`, on `input_dim` inputs:
    the tests of training run on toy inputs narrower than the flat (e, s_c)
    vector a built MLP reads."""
    rng = np.random.default_rng(seed)
    layers, dim = [], input_dim
    for i, width in enumerate(hidden_widths):
        layers += [Dense(dim, width, rng, name=f"fc_{i}", dtype=dtype),
                   LayerNormReLU((width,), name=f"ln_fc_{i}", dtype=dtype)]
        dim = width
    return Model(layers + [Dense(dim, OUTPUT_DIM, rng, name="fc_out", dtype=dtype)], build={})


def make_samples(inputs, f_3d):
    n = inputs.shape[0]
    s_n = f_3d / np.linalg.norm(f_3d, axis=1, keepdims=True)
    return ArraySamples(
        inputs=inputs,
        f_3d=f_3d,
        s_n=s_n,
        r_wb=np.stack([np.eye(3)] * n),
        source_tags=np.array(["rigid_ft"] * n),
    )


class TestSchedule:
    def test_first_iteration_doubles(self):
        sched = LearningRateSchedule(TrainingConfig(base_lr=1e-4))
        assert math.isclose(sched.step(epoch=0), 2e-4)

    def test_iteration_fifty_still_first_doubling(self):
        sched = LearningRateSchedule(TrainingConfig(base_lr=1e-4))
        rate = None
        for _ in range(50):
            rate = sched.step(epoch=0)
        assert math.isclose(rate, 2e-4)  # ceil(50/50) == 1
        assert math.isclose(sched.step(epoch=0), 4e-4)  # ceil(51/50) == 2

    def test_decay_after_warmup(self):
        sched = LearningRateSchedule(TrainingConfig(base_lr=1e-4))
        for _ in range(10):
            sched.step(epoch=0)
        rate_end = sched.rate
        first = sched.step(epoch=2)
        second = sched.step(epoch=2)
        assert math.isclose(first, rate_end * 0.95)
        assert math.isclose(second, rate_end * 0.95**2)

    @pytest.mark.parametrize("epoch", range(WARMUP_EPOCHS + 1))
    def test_warmup_lasts_warmup_epochs(self, epoch):
        """Every epoch before WARMUP_EPOCHS doubles the rate each
        WARMUP_DOUBLING_ITERS iterations; the first one after decays it."""
        config = TrainingConfig(base_lr=1e-4, decay_factor=0.9)
        sched = LearningRateSchedule(config)
        for _ in range(WARMUP_DOUBLING_ITERS + 1):
            previous = sched.step(epoch=0)
        rate = sched.step(epoch=epoch)
        if epoch < WARMUP_EPOCHS:
            assert math.isclose(rate, config.base_lr * 2.0 ** math.ceil(
                (WARMUP_DOUBLING_ITERS + 2) / WARMUP_DOUBLING_ITERS))
        else:
            assert math.isclose(rate, previous * config.decay_factor)

    def test_floor(self):
        sched = LearningRateSchedule(TrainingConfig(base_lr=1e-4))
        sched.step(epoch=0)
        for _ in range(600):
            rate = sched.step(epoch=5)
        assert rate == LR_FLOOR


def train_on_linear_map(seed, dtype):
    """Train a small MLP in `dtype` on 200 samples of a linear map drawn
    from `seed`, validating on 50 more; data, parameters and batch order all
    follow the seed."""
    rng = np.random.default_rng(seed)
    mix = rng.normal(size=(6, 3))
    forces = rng.normal(size=(250, 3)) * 2.0 + np.array([0.0, 0.0, 3.0])
    inputs = forces @ mix.T
    samples = make_samples(inputs, forces)
    train_set = samples.take(np.arange(200))
    val_set = samples.take(np.arange(200, 250))
    model = small_mlp(6, (32, 16), seed=seed, dtype=dtype)
    config = TrainingConfig(
        max_epochs=50, batch_size=32, base_lr=6e-3, decay_factor=0.9995, seed=seed
    )
    return train(model, train_set, val_set, LossConfig(beta=0.0), config)


class TestTrain:
    def test_learnability_on_linear_map(self):
        # 200 samples from a fixed linear map: the loss should collapse. The
        # last-epoch bound is one seed's: over seeds 0-7 it fails on three
        # at either dtype, so it runs on the float64 build it was set on
        report = train_on_linear_map(seed=0, dtype=np.float64)
        assert report.val_losses[-1] < 0.1 * report.val_losses[0]
        assert min(report.val_losses) == report.best_val_loss

    def test_float32_learns_the_linear_map_as_well_as_float64(self):
        """Over seeds 0-7, the median best validation loss of float32
        training is at most 1.1 times that of float64 training."""
        best = {dtype: np.median([train_on_linear_map(seed, dtype).best_val_loss
                                  for seed in range(8)])
                for dtype in (np.float32, np.float64)}
        assert best[np.float32] <= 1.1 * best[np.float64], best

    def test_deterministic_loss_curves(self):
        rng = np.random.default_rng(1)
        forces = rng.normal(size=(80, 3)) + np.array([0.0, 0.0, 2.0])
        inputs = forces @ rng.normal(size=(5, 3)).T
        samples = make_samples(inputs, forces)
        tr, va = samples.take(np.arange(60)), samples.take(np.arange(60, 80))

        def run():
            model = small_mlp(5, (8,), seed=3)
            report = train(
                model, tr, va, LossConfig(beta=1.0),
                TrainingConfig(max_epochs=5, batch_size=16, seed=3),
            )
            return report.train_losses, report.val_losses

        first, second = run(), run()
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_empty_validation_rejected(self):
        rng = np.random.default_rng(2)
        forces = rng.normal(size=(10, 3)) + 2.0
        samples = make_samples(forces, forces)
        model = small_mlp(3, (4,), seed=0)
        with pytest.raises(ConfigError):
            train(
                model, samples, samples.take(np.array([], dtype=int)),
                LossConfig(), TrainingConfig(max_epochs=1),
            )

    def test_nan_validation_aborts_with_diagnostic(self):
        rng = np.random.default_rng(3)
        forces = rng.normal(size=(20, 3)) + 2.0
        samples = make_samples(forces, forces)
        model = small_mlp(3, (4,), seed=0)
        # poison one weight so the forward pass explodes
        weight = model.parameters()[0].value
        weight[:] = np.finfo(weight.dtype).max
        with pytest.raises((NumericalError, FloatingPointError)):
            train(
                model, samples.take(np.arange(15)), samples.take(np.arange(15, 20)),
                LossConfig(), TrainingConfig(max_epochs=2, batch_size=8),
            )

    def test_step_failure_names_epoch_and_iteration(self):
        rng = np.random.default_rng(3)
        forces = rng.normal(size=(20, 3)) + 2.0
        samples = make_samples(forces, forces)
        model = small_mlp(3, (4,), seed=0)
        weight = model.parameters()[0].value
        weight[:] = np.finfo(weight.dtype).max
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as info:
            train(
                model, samples.take(np.arange(15)), samples.take(np.arange(15, 20)),
                LossConfig(), TrainingConfig(max_epochs=2, batch_size=8),
            )
        assert str(info.value) == (
            "epoch 0 iteration 0: non-finite network output, first from layer fc_0"
        )

    def test_non_finite_output_names_epoch_iteration_and_layer(self):
        rng = np.random.default_rng(3)
        forces = rng.normal(size=(20, 3)) + 2.0
        samples = make_samples(forces, forces)
        model = small_mlp(3, (4,), seed=0)
        model.layers[-1].weight.value[0, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as info:
            train(
                model, samples.take(np.arange(15)), samples.take(np.arange(15, 20)),
                LossConfig(), TrainingConfig(max_epochs=2, batch_size=8),
            )
        assert str(info.value) == (
            "epoch 0 iteration 0: non-finite network output, first from layer fc_out"
        )

    def test_best_parameters_restored(self):
        rng = np.random.default_rng(4)
        forces = rng.normal(size=(60, 3)) + np.array([0.0, 0.0, 2.0])
        inputs = forces @ rng.normal(size=(4, 3)).T
        samples = make_samples(inputs, forces)
        tr, va = samples.take(np.arange(45)), samples.take(np.arange(45, 60))
        model = small_mlp(4, (8,), seed=1)
        report = train(
            model, tr, va, LossConfig(beta=0.0),
            TrainingConfig(max_epochs=8, batch_size=16, base_lr=5e-3, seed=1),
        )
        final_val, _ = evaluate_loss(model, va, LossConfig(beta=0.0))
        assert math.isclose(final_val, report.best_val_loss, rel_tol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainingConfig(base_lr=-1.0)


def floor_samples(n, below=()):
    """n samples of forces near (2, 2, 2) N, those at the indices `below`
    at 1e-3 N, under the magnitude floor."""
    forces = np.random.default_rng(5).normal(size=(n, 3)) + 2.0
    forces[list(below)] = 1e-3
    return make_samples(forces, forces)


class TestBelowFloorBatches:
    """A batch whose every sample is below the magnitude floor is skipped
    whatever the shuffle puts in it, and a set with no sample above the
    floor fails naming the set."""

    def test_a_batch_all_below_the_floor_takes_no_step_at_any_seed(self):
        """9 samples at batch 4: the lone sample of the last batch is the one
        below the floor in the epochs whose shuffle puts it last."""
        epochs, skipped_batches = 3, 0
        for seed in range(10):
            config = TrainingConfig(max_epochs=epochs, batch_size=4, seed=seed)
            report = train(small_mlp(3, (4,), seed=0), floor_samples(9, [4]), floor_samples(5),
                           LossConfig(), config)
            rng = np.random.default_rng(seed)  # train's shuffle
            lone = sum(rng.permutation(9)[-1] == 4 for _ in range(epochs))
            assert report.skipped_train == epochs
            assert report.iterations == 3 * epochs - lone
            assert all(map(math.isfinite, report.train_losses + report.val_losses))
            skipped_batches += lone
        assert skipped_batches > 0

    def test_evaluate_loss_skips_a_batch_all_below_the_floor(self):
        samples, model = floor_samples(5, [4]), small_mlp(3, (4,), seed=0)
        loss, skipped = evaluate_loss(model, samples, LossConfig(), batch_size=4)
        assert skipped == 1
        assert loss == evaluate_loss(model, samples.take(np.arange(4)), LossConfig())[0]

    @pytest.mark.parametrize("name", ["training", "validation"])
    def test_a_set_with_no_sample_above_the_floor_is_named(self, name):
        usable, below = floor_samples(6), floor_samples(6, range(6))
        sets = (below, usable) if name == "training" else (usable, below)
        with pytest.raises(DataIntegrityError,
                           match=f"^{name} set: no sample above the magnitude floor of 0.01 N$"):
            train(small_mlp(3, (4,), seed=0), *sets, LossConfig(),
                  TrainingConfig(max_epochs=2, batch_size=4))


class TestBatches:
    """train() builds the loss targets of both sets once, before its first
    step, and cuts each epoch's shuffle of the training set into batches."""

    def test_batch_k_of_epoch_j_is_a_slice_of_the_seeds_jth_permutation(self, monkeypatch):
        """Seen through a spy on batch_loss_and_grad's targets and on the
        model's inputs, which here are the forces themselves: batch k of
        epoch j holds the rows order_j[k*b:(k+1)*b] of the j-th permutation
        of np.random.default_rng(seed), and each epoch's validation reads
        its set in order."""
        n, batch_size, epochs, seed = 21, 4, 3, 7
        tr, va = floor_samples(n, [5]), floor_samples(6)
        seen, inputs = [], []

        def spy(predictions, targets):
            seen.append(targets.f.copy())
            return batch_loss_and_grad(predictions, targets)

        monkeypatch.setattr(training_module, "batch_loss_and_grad", spy)
        model = small_mlp(3, (4,), seed=0)
        forward = model.forward
        model.forward = lambda x: (inputs.append(np.array(x)), forward(x))[1]
        train(model, tr, va, LossConfig(),
              TrainingConfig(max_epochs=epochs, batch_size=batch_size, seed=seed))
        rng, expected = np.random.default_rng(seed), []
        for _ in range(epochs):
            order = rng.permutation(n)
            expected += [tr.f_3d[order[k : k + batch_size]] for k in range(0, n, batch_size)]
            expected += [va.f_3d[k : k + batch_size] for k in range(0, len(va), batch_size)]
        assert len(seen) == len(inputs) == len(expected)
        for got, x, want in zip(seen, inputs, expected):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(x, want)

    @pytest.mark.parametrize("name", ["training", "validation"])
    def test_an_unknown_tag_fails_before_the_first_step(self, name):
        usable, odd = floor_samples(6), floor_samples(6)
        odd.source_tags = np.array(["rigid_ft", "ball_ft", "mystery"] * 2)
        sets = (odd, usable) if name == "training" else (usable, odd)
        model = small_mlp(3, (4,), seed=0)
        before = model.values.copy()
        with pytest.raises(ConfigError, match="^unknown source tag 'mystery'$"):
            train(model, *sets, LossConfig(), TrainingConfig(max_epochs=2, batch_size=4))
        np.testing.assert_array_equal(model.values, before)


class ReferenceAdam:
    """Per-tensor Adam (decay 0.9/0.999, eps 1e-8) over a list of arrays,
    updated in place: the oracle the flat, in-place AdamOptimizer is held
    to bit for bit."""

    def __init__(self, values, beta1=0.9, beta2=0.999, eps=1e-8):
        self.values = values
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(v) for v in values]
        self.v = [np.zeros_like(v) for v in values]

    def step(self, grads, lr):
        self.t += 1
        for i, (value, g) in enumerate(zip(self.values, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g**2
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            value -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


class Holder(Layer):
    """A layer that only holds parameters."""

    def __init__(self, params):
        self.params = params

    def parameters(self):
        return self.params


def assert_parameters_view_buffers(model):
    """Every parameter's value and grad is the view of its own slice of the
    model's buffers, in parameters() order: a write to the buffer shows
    through each view, at its place."""
    params = model.parameters()
    assert all(
        np.shares_memory(p.value, model.values) and np.shares_memory(p.grad, model.grads)
        for p in params
    )
    saved = model.values.copy()
    ramp = np.arange(model.values.size, dtype=float)
    model.values[...], model.grads[...] = ramp, -ramp
    np.testing.assert_array_equal(np.concatenate([p.value.ravel() for p in params]), ramp)
    np.testing.assert_array_equal(np.concatenate([p.grad.ravel() for p in params]), -ramp)
    model.values[...], model.grads[...] = saved, 0.0


def tiny_training_run(model, seed=0):
    rng = np.random.default_rng(seed)
    forces = rng.normal(size=(40, 3)) + np.array([0.0, 0.0, 2.0])
    inputs = rng.normal(size=(40, FLAT_INPUT_WIDTH))
    samples = make_samples(inputs, forces)
    return train(
        model, samples.take(np.arange(30)), samples.take(np.arange(30, 40)), LossConfig(),
        TrainingConfig(max_epochs=2, batch_size=8, base_lr=1e-2, seed=seed),
    )


class TestParameterBuffer:
    def test_parameters_view_the_buffer_after_build_load_and_train(self, tmp_path):
        voxel = build_voxel_net(
            NetworkConfig(conv3d_channels=(2, 2), conv2d_channels=2, fc_widths=(4,)),
            input_shape=(2, 8, 8, 4),
        )
        mlp = build_mlp_net((8, 4), seed=2)
        for model in (voxel, mlp):
            assert model.values.size == sum(p.value.size for p in model.parameters())
            assert_parameters_view_buffers(model)
        path = tmp_path / "mlp.npz"
        save_checkpoint(path, mlp)
        loaded, _ = load_checkpoint(path)
        assert_parameters_view_buffers(loaded)
        np.testing.assert_array_equal(loaded.values, mlp.values)
        tiny_training_run(loaded)
        assert_parameters_view_buffers(loaded)

    def test_loaded_model_moves_when_trained(self, tmp_path):
        path = tmp_path / "mlp.npz"
        save_checkpoint(path, build_mlp_net((8,), seed=4))
        model, _ = load_checkpoint(path)
        x = np.random.default_rng(9).normal(size=(3, FLAT_INPUT_WIDTH))
        before, out_before = model.values.copy(), model.forward(x)
        tiny_training_run(model, seed=1)
        assert np.all(np.concatenate([p.value.ravel() for p in model.parameters()]) == model.values)
        assert not np.array_equal(model.values, before)
        assert not np.array_equal(model.forward(x), out_before)

    @settings(max_examples=60, deadline=None)
    @given(
        shapes=st.lists(array_shapes(min_dims=1, max_dims=4, max_side=5), min_size=1, max_size=5),
        rates=st.lists(st.floats(1e-8, 1.0), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_flat_adam_is_bit_equal_to_per_tensor_reference(self, shapes, rates, seed, dtype):
        """In float32 and in float64, against a reference in the same dtype."""
        rng = np.random.default_rng(seed)
        params = [Parameter(f"p{i}", rng.normal(size=shape).astype(dtype))
                  for i, shape in enumerate(shapes)]
        model = Model([Holder(params)], build={})
        reference = ReferenceAdam([p.value.copy() for p in params])
        optimizer = AdamOptimizer(model)
        for lr in rates:
            grads = [(rng.normal(size=s) * 10.0 ** rng.uniform(-6, 3)).astype(dtype)
                     for s in shapes]
            for p, g in zip(params, grads):
                p.grad[...] = g
            optimizer.step(lr)
            reference.step(grads, lr)
        for p, expected in zip(params, reference.values):
            assert p.value.dtype == expected.dtype == model.values.dtype == dtype
            assert optimizer.m.dtype == optimizer.v.dtype == dtype
            np.testing.assert_array_equal(p.value, expected)


def test_an_epoch_gathers_the_inputs_and_targets_alone(monkeypatch):
    """A training step reads a batch's inputs and loss targets, so each
    epoch's gather of its shuffle copies the inputs and no other field."""
    gathered = []
    take = ArraySamples.take

    def spy(self, idx):
        taken = take(self, idx)
        if not isinstance(idx, slice):
            gathered.append(taken)
        return taken

    rng = np.random.default_rng(3)
    samples = make_samples(rng.normal(size=(40, 6)), rng.normal(size=(40, 3)) + 2.0)
    train_set, val_set = samples.take(np.arange(30)), samples.take(np.arange(30, 40))
    monkeypatch.setattr(ArraySamples, "take", spy)
    train(small_mlp(6, (4,), seed=0), train_set, val_set, LossConfig(),
          TrainingConfig(max_epochs=3, batch_size=8))
    assert len(gathered) == 3
    for epoch in gathered:
        assert epoch.inputs.shape == (30, 6)
        assert (epoch.f_3d, epoch.s_n, epoch.r_wb, epoch.source_tags) == (None,) * 4
