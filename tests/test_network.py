"""Tests of the assembled models: shapes, determinism, and batch invariance."""

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tactile_force.cli import TRAIN_CONFIG, _train_configs
from tactile_force.dataset import (
    featurization_record, featurize_flat, featurize_voxel, featurizer,
)
from tactile_force.errors import ConfigError, NumericalError, SchemaError, read_config
from tactile_force.net import (
    Dense,
    LayerNormReLU,
    LossConfig,
    Model,
    NetworkConfig,
    ReLU,
    TrainingConfig,
    build_mlp_net,
    build_voxel_net,
    load_checkpoint,
    save_checkpoint,
)
from tactile_force.net.layers import Layer
from tactile_force.net.network import FLAT_INPUT_WIDTH, KIND_MLP, KIND_VOXEL
from loss_oracles import batch_loss
from reference_net import (
    REFERENCE_RTOL, backward_with_term_magnitudes, build_reference_voxel_net,
)
from geometry_oracles import cell_center
from sample_oracles import sample_set
from test_net_layers import random_layout, voxel_records
from tactile_force.sensor import N_ELECTRODES, SurfaceGeometry, default_electrode_layout
from tactile_force.voxel import CHANNEL_CONTACT, DEFAULT_DIMS, N_CHANNELS, GridSpec, VoxelInputs


def tiny_net(seed=0):
    cfg = NetworkConfig(conv3d_channels=(2, 2), conv2d_channels=2, fc_widths=(4,), seed=seed)
    return cfg, build_voxel_net(cfg, input_shape=(2, 8, 8, 4))


class TestForward:
    def test_default_shapes(self):
        net = build_voxel_net(NetworkConfig(seed=0), input_shape=(N_CHANNELS, *DEFAULT_DIMS))
        out = net.forward(np.zeros((3, N_CHANNELS, *DEFAULT_DIMS)))
        assert out.shape == (3, 3)
        assert np.all(np.isfinite(out))
        # the former default grid: each convolution would drop its last slice
        with pytest.raises(ConfigError, match="multiples of 8 and z of 4"):
            build_voxel_net(NetworkConfig(seed=0), input_shape=(N_CHANNELS, 15, 15, 7))

    def test_zero_weights_affine_collapse(self):
        _, net = tiny_net()
        for p in net.parameters():
            if p.name.endswith(".gain"):
                p.value[...] = 1.0
            else:
                p.value[...] = 0.0
        bias = np.array([0.3, -0.7, 1.1])
        net.layers[-1].bias.value[...] = bias
        out = net.forward(np.zeros((2, 2, 8, 8, 4)))
        np.testing.assert_allclose(out, np.tile(bias, (2, 1)), atol=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2, 8, 8, 4))
        _, net1 = tiny_net(seed=5)
        _, net2 = tiny_net(seed=5)
        np.testing.assert_array_equal(net1.forward(x), net2.forward(x))

    def test_batch_composition_invariance(self):
        _, net = tiny_net(seed=2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 2, 8, 8, 4))
        full = net.forward(x)
        alone = net.forward(x[2:3])
        np.testing.assert_allclose(alone[0], full[2], atol=1e-12)

    def test_shape_mismatch_names_layer(self):
        _, net = tiny_net()
        with pytest.raises(SchemaError, match="conv3d_0"):
            net.forward(np.zeros((1, 3, 8, 8, 4)))


    @pytest.mark.parametrize("kind, poisoned", [
        ("voxel", "ln_fc_0"), ("voxel", "fc_out"),
        ("mlp", "ln_fc_1"), ("mlp", "fc_out"),
    ])
    def test_non_finite_output_names_first_non_finite_layer(self, kind, poisoned):
        """A layer that puts one +inf in its output, after which no fused
        layer norm and ReLU turns it back into finite numbers, is named, not
        the layer the network output comes from."""
        rng = np.random.default_rng(8)
        net = {"voxel": lambda: tiny_net(seed=2)[1],
               "mlp": lambda: build_mlp_net((5, 4), seed=2)}[kind]()
        x = rng.normal(size=(3, 2, 8, 8, 4) if kind == "voxel" else (3, FLAT_INPUT_WIDTH))
        layer = next(layer for layer in net.layers if layer.name == poisoned)
        forward = layer.forward

        def poisoned_forward(x, forward=forward):
            out = forward(x).copy()
            out[np.unravel_index(rng.integers(out.size), out.shape)] = np.inf
            return out

        layer.forward = poisoned_forward
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as info:
            net.forward(x)
        assert str(info.value) == f"non-finite network output, first from layer {poisoned}"

    @pytest.mark.parametrize("parameter, bad", [("conv3d_1.weight", np.nan),
                                                ("fc_0.weight", np.inf)])
    def test_non_finite_weight_is_named_not_zeroed(self, parameter, bad):
        """A non-finite weight before a layer norm and a ReLU makes the output
        non-finite, naming the layer that holds it, instead of coming out as
        finite zeros."""
        _, net = tiny_net(seed=3)
        next(p for p in net.parameters() if p.name == parameter).value.flat[0] = bad
        x = np.random.default_rng(9).normal(size=(2, 2, 8, 8, 4))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as info:
            net.forward(x)
        layer = parameter.partition(".")[0]
        assert str(info.value) == f"non-finite network output, first from layer {layer}"


def contact_records(e, cells, spec):
    """One sample per cell of `cells`, flat indices into the grid, with its
    contact point at that cell's centre and electrode values e (one row, or
    one row per cell)."""
    e = np.broadcast_to(e, (len(cells), N_ELECTRODES))
    return sample_set(dict(trial_id=f"t{i}", source_tag="rigid_ft", e=e[i],
                           s_c=cell_center(spec, np.unravel_index(cell, spec.dims)),
                           s_n=[0.0, 0.0, 1.0], f_3d=[0.0, 0.0, 1.0], r_wb=np.eye(3))
                      for i, cell in enumerate(cells))


# 1-16 cells per axis, with the powers of two that tile drawn more often
grid_axis = st.one_of(st.integers(1, 16), st.sampled_from([4, 8, 16]))


class TestReachability:
    @settings(max_examples=200, deadline=None)
    @given(dims=st.tuples(grid_axis, grid_axis, grid_axis), n_conv3d=st.integers(1, 2),
           seed=st.integers(0, 2**32 - 1))
    @example(dims=DEFAULT_DIMS, n_conv3d=2, seed=None)  # the default layout on the default grid
    def test_every_cell_reaches_the_output(self, dims, n_conv3d, seed):
        """build_voxel_net rejects the grid, or raising any one electrode
        value, and putting the contact in any sampled cell instead of none,
        changes the output. The net's fused layer norms and ReLUs are
        bypassed, so that nothing reaches the output through their mean and
        variance alone; every weight and value is positive, so a ReLU would
        pass its input, and whatever reaches the output raises it. seed None
        takes the default layout on the default grid bounds, others a random
        layout with one electrode at the centre of each of 19 distinct
        cells."""
        config = NetworkConfig(conv3d_channels=(2, 3)[:n_conv3d], conv2d_channels=3,
                               fc_widths=(4,))
        try:
            net = build_voxel_net(config, (N_CHANNELS, *dims))
        except ConfigError:
            assert seed is not None, "the default grid is rejected"
            return
        net.layers = [layer for layer in net.layers if not isinstance(layer, LayerNormReLU)]
        rng = np.random.default_rng(seed)
        net.values[...] = rng.uniform(0.5, 1.5, size=net.values.size)
        geometry = SurfaceGeometry()
        if seed is None:
            spec, layout = GridSpec.for_geometry(geometry, dims), default_electrode_layout(geometry)
        else:
            spec = GridSpec(dims, np.zeros(3), rng.uniform(0.5, 2.0, size=3))
            layout = random_layout(spec, rng)
        e = rng.uniform(0.5, 1.5, size=N_ELECTRODES)
        contacts = np.append(rng.choice(math.prod(dims), 24), math.prod(dims) - 1)

        raised = e + np.eye(N_ELECTRODES)  # row j raises electrode j by 1
        records = contact_records(np.vstack([e, raised]), contacts[:1].repeat(1 + N_ELECTRODES),
                                  spec)
        out = net.forward(featurize_voxel(records, layout, spec).inputs)
        assert np.all(out[1:] > out[0])

        inputs = featurize_voxel(contact_records(e, contacts, spec), layout, spec).inputs
        none = np.asarray(inputs[:1])
        none[:, CHANNEL_CONTACT] = 0.0  # no contact, through the dense path
        assert np.all(net.forward(inputs) > net.forward(none))


@st.composite
def reference_cases(draw):
    """A voxel net of 1-3 3-D convolutions on a grid it tiles whose 2-D
    output is 1 or 2 cells along x and along y and whose depth at the 2-D
    convolution is 1 or 2, random parameter values, and a batch of 1-4
    samples, featurized or dense."""
    n = draw(st.integers(1, 3))
    xy, z = 2 ** (n + 1), 2**n
    dims = (xy * draw(st.integers(1, 2)), xy * draw(st.integers(1, 2)), z * draw(st.integers(1, 2)))
    config = NetworkConfig(conv3d_channels=(3, 4, 2)[:n], conv2d_channels=5, fc_widths=(6, 4),
                           seed=draw(st.integers(0, 99)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = draw(st.integers(1, 4))
    if draw(st.booleans()):
        spec = GridSpec(dims, np.zeros(3), rng.uniform(0.5, 2.0, size=3))
        points = rng.uniform(spec.bounds_min, spec.bounds_max, size=(batch, 3))
        inputs = featurize_voxel(voxel_records(points, rng), random_layout(spec, rng), spec).inputs
    else:
        inputs = rng.normal(size=(batch, N_CHANNELS) + dims)
    return config, (N_CHANNELS, *dims), inputs, rng


class TestReferenceNet:
    @settings(max_examples=60, deadline=None)
    @given(reference_cases())
    def test_outputs_and_gradients_match_the_logical_layout_net(self, case):
        """The window-major net and tests/reference_net.py's logical-layout
        net, built from one seed, hold the same parameters in the same order,
        and give the same outputs and parameter gradients to within
        REFERENCE_RTOL, since only summation orders differ."""
        config, input_shape, inputs, rng = case
        net = build_voxel_net(config, input_shape, np.float64)
        reference = build_reference_voxel_net(config, input_shape)
        assert [p.name for p in net.parameters()] == [p.name for p in reference.parameters()]
        np.testing.assert_array_equal(net.values, reference.values)
        net.values[...] = reference.values[...] = rng.normal(size=net.values.size)
        out, expected = net.forward(inputs), reference.forward(inputs)
        assert np.max(np.abs(out - expected)) <= REFERENCE_RTOL * np.max(np.abs(expected))
        grad_out = rng.normal(size=out.shape)
        net.backward(grad_out)
        magnitudes = backward_with_term_magnitudes(reference, grad_out)
        for p, q in zip(net.parameters(), reference.parameters()):
            bound = REFERENCE_RTOL * np.max(magnitudes[q.name])
            assert np.max(np.abs(p.grad - q.grad)) <= bound, p.name


class TestLayout:
    def test_activations_and_gradients_are_contiguous_rows(self):
        """On a featurized batch every layer's output and input gradient is a
        C-contiguous (batch, features) array; the first layer returns no
        input gradient."""
        rng = np.random.default_rng(11)
        config = NetworkConfig(conv3d_channels=(2, 3), conv2d_channels=4, fc_widths=(5,))
        net = build_voxel_net(config, (N_CHANNELS, 16, 8, 8))  # a 2x1 2-D output
        spec = GridSpec((16, 8, 8), np.zeros(3), np.ones(3))
        points = rng.uniform(spec.bounds_min, spec.bounds_max, size=(6, 3))
        inputs = featurize_voxel(voxel_records(points, rng), random_layout(spec, rng), spec).inputs
        seen = []
        for layer in net.layers:
            for name in ("forward", "backward"):
                def record(x, call=getattr(layer, name), name=name, layer=layer):
                    out = call(x)
                    seen.append((layer.name, name, x, out))
                    return out
                setattr(layer, name, record)
        net.backward(rng.normal(size=net.forward(inputs).shape))
        assert len(seen) == 2 * len(net.layers)
        for layer, name, _, out in seen:
            if (layer, name) == ("conv3d_0", "backward"):
                assert out is None
            else:
                assert out.ndim == 2 and len(out) == 6 and out.flags.c_contiguous, (layer, name)

        # every layer checks its input's width
        for layer, name, x, _ in seen[1 : len(net.layers)]:
            if name == "forward":
                wrong = np.zeros((len(x), x.shape[1] + 1))
                with pytest.raises(SchemaError, match=f"layer {layer}: expected input shape"):
                    next(l for l in net.layers if l.name == layer).forward(wrong)


class TestBackward:
    def test_gradient_linear_in_loss_scale(self):
        _, net = tiny_net(seed=3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 2, 8, 8, 4))
        grad_out = rng.normal(size=(3, 3))

        net.zero_grad()
        net.forward(x)
        net.backward(grad_out)
        grads_once = [p.grad.copy() for p in net.parameters()]

        net.zero_grad()
        net.forward(x)
        net.backward(2.0 * grad_out)
        for p, g in zip(net.parameters(), grads_once):
            np.testing.assert_allclose(p.grad, 2.0 * g, atol=1e-12)

    def test_zero_gradient_at_exact_fit(self):
        # collapse the network to a constant output equal to the target
        _, net = tiny_net(seed=4)
        target = np.array([0.5, -1.0, 2.0])
        for p in net.parameters():
            if p.name.endswith(".gain"):
                p.value[...] = 1.0
            else:
                p.value[...] = 0.0
        net.layers[-1].bias.value[...] = target
        x = np.random.default_rng(3).normal(size=(2, 2, 8, 8, 4))
        config = LossConfig(beta=0.0)
        net.zero_grad()
        pred = net.forward(x)
        loss, grad, _ = batch_loss(
            pred,
            np.tile(target, (2, 1)),
            np.tile(np.array([0.0, 0.0, 1.0]), (2, 1)),
            np.stack([np.eye(3)] * 2),
            np.array(["rigid_ft"] * 2),
            config,
        )
        net.backward(grad)
        assert loss == 0.0
        total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in net.parameters()))
        assert total < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["voxel", "mlp"])
    def test_one_non_finite_gradient_entry_names_its_layer(self, kind, bad):
        """Whichever layer returns a gradient with one non-finite entry, at a
        random place, backward stops there and names that layer."""
        rng = np.random.default_rng(5)
        build = {"voxel": lambda: tiny_net(seed=1)[1],
                 "mlp": lambda: build_mlp_net((5, 4), seed=1)}[kind]
        x = rng.normal(size=(3, 2, 8, 8, 4) if kind == "voxel" else (3, FLAT_INPUT_WIDTH))
        first = 1 if kind == "voxel" else 0  # a voxel net's first layer returns no gradient
        for i in range(first, len(build().layers)):
            net = build()
            layer = net.layers[i]
            backward = layer.backward

            def poisoned(grad_out, backward=backward):
                grad = backward(grad_out).copy()
                grad[np.unravel_index(rng.integers(grad.size), grad.shape)] = bad
                return grad

            layer.backward = poisoned
            net.forward(x)
            with pytest.raises(NumericalError) as info:
                net.backward(rng.normal(size=(3, 3)))
            assert str(info.value) == f"non-finite gradient flowing out of layer {layer.name}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_where_relu_mask_is_off_names_that_relu(self, bad):
        """A ReLU passes a non-finite gradient on even where its input was
        not positive, so it is reported instead of zeroed."""
        rng = np.random.default_rng(6)
        net = Model([Dense(4, 3, rng, name="fc"), ReLU(name="relu_out")], {"kind": "test"})
        net.values[...] = -1.0  # every output negative: the mask is off everywhere
        assert not np.any(net.forward(np.abs(rng.normal(size=(2, 4)))))
        grad_out = np.ones((2, 3))
        grad_out[1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as info:
            net.backward(grad_out)
        assert str(info.value) == "non-finite gradient flowing out of layer relu_out"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_where_fused_mask_is_off_names_that_layer(self, bad):
        """The fused layer norm and ReLU does the same: its output is 0
        everywhere, and one non-finite gradient entry still comes out."""
        rng = np.random.default_rng(6)
        norm = LayerNormReLU((3,), name="ln_out")
        net = Model([Dense(4, 3, rng, name="fc"), norm], {"kind": "test"})
        norm.offset.value[...] = -10.0  # below every normalized value: the mask is off
        assert not np.any(net.forward(rng.normal(size=(2, 4))))
        grad_out = np.ones((2, 3))
        grad_out[1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as info:
            net.backward(grad_out)
        assert str(info.value) == "non-finite gradient flowing out of layer ln_out"

    @pytest.mark.parametrize("kind", ["voxel", "mlp"])
    def test_non_finite_parameter_gradient_alone_names_the_parameter(self, kind):
        """A parameter gradient that is not finite while every gradient the
        layers return is finite is an error too, naming the parameter."""
        rng = np.random.default_rng(7)
        if kind == "voxel":
            net, x = tiny_net(seed=1)[1], rng.normal(size=(3, 2, 8, 8, 4))
        else:
            net, x = build_mlp_net((5, 4), seed=1), rng.normal(size=(3, FLAT_INPUT_WIDTH))
        layer = net.layers[-3]  # the last hidden dense layer: fc_0 or fc_1
        backward = layer.backward

        def overflowing(grad_out):
            grad = backward(grad_out)
            layer.weight.grad.flat[-1] = np.inf
            return grad

        layer.backward = overflowing
        net.forward(x)
        with pytest.raises(NumericalError) as info:
            net.backward(rng.normal(size=(3, 3)))
        assert str(info.value) == f"non-finite gradient of parameter {layer.weight.name}"


BUILDS = {
    "voxel": lambda: tiny_net(seed=3)[1],
    "mlp": lambda: build_mlp_net((5, 4), seed=3),
    "mlp_baseline": lambda: build_mlp_net((5, 4), seed=3, layer_norm=False),
}


def held_arrays(x) -> list[np.ndarray]:
    """The arrays a batch holds: a dense array, or a VoxelInputs' values
    and contact cells."""
    return [x.e, x.contact] if isinstance(x, VoxelInputs) else [x]


class TestInPlaceContract:
    @pytest.mark.parametrize("kind, featurized", [
        ("voxel", True), ("voxel", False), ("mlp", False), ("mlp_baseline", False),
    ])
    def test_model_leaves_its_arguments_and_outputs_alone(self, kind, featurized):
        """The fused layers work in place on arrays no caller holds: forward
        leaves its input as it was, backward its argument, and neither a
        later forward nor backward changes an output already returned. 12
        inputs go in batches of 5, so the last batch of 2 reuses a prefix of
        the arrays the layers keep, and each batch gives what a fresh model
        gives on it alone."""
        rng = np.random.default_rng(12)
        net = BUILDS[kind]()
        if kind != "voxel":
            inputs = rng.normal(size=(12, FLAT_INPUT_WIDTH))
        elif featurized:
            spec = GridSpec((8, 8, 4), np.zeros(3), np.ones(3))
            points = rng.uniform(spec.bounds_min, spec.bounds_max, size=(12, 3))
            inputs = featurize_voxel(voxel_records(points, rng), random_layout(spec, rng),
                                     spec).inputs
        else:
            inputs = rng.normal(size=(12, 2, 8, 8, 4))
        returned = []
        for start in (0, 5, 10):
            x = inputs[start : start + 5]
            x_before = [a.copy() for a in held_arrays(x)]
            out = net.forward(x)
            np.testing.assert_array_equal(out, BUILDS[kind]().forward(x))
            grad = rng.normal(size=out.shape)
            grad_before = grad.copy()
            net.backward(grad)
            assert np.array_equal(grad, grad_before)
            assert all(map(np.array_equal, held_arrays(x), x_before))
            returned.append((out, out.copy()))
        assert len(returned[-1][0]) == 2
        for out, before in returned:
            assert np.array_equal(out, before)


class Returns(Layer):
    """Runs `layer` and notes, in `returned`, the dtype of each array its
    forward and backward return."""

    def __init__(self, layer: Layer, returned: list):
        self.layer, self.name, self.returned = layer, layer.name, returned

    def parameters(self):
        return self.layer.parameters()

    def forward(self, x):
        out = self.layer.forward(x)
        self.returned.append((self.name, "forward", out.dtype))
        return out

    def backward(self, grad_out):
        grad = self.layer.backward(grad_out)
        if grad is not None:  # a voxel net's first layer returns none
            self.returned.append((self.name, "backward", grad.dtype))
        return grad


class TestDtype:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["voxel_featurized", "voxel_dense", "mlp", "mlp_baseline"]),
           batch=st.integers(1, 9), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_every_array_a_layer_returns_is_in_the_model_dtype(self, kind, batch, dtype, seed):
        """On float64 inputs (a VoxelInputs batch, its dense grids, or flat
        rows) and the float64 loss gradient, every layer's output and
        returned gradient, and every parameter gradient, is in the dtype the
        net was built in: no layer upcasts a float32 net to float64, and
        the loss stays float64."""
        rng = np.random.default_rng(seed)
        if kind.startswith("voxel"):
            config = NetworkConfig(conv3d_channels=(2, 3), conv2d_channels=4, fc_widths=(5,),
                                   seed=seed % 100)
            net = build_voxel_net(config, (N_CHANNELS, 8, 8, 4), dtype)
            spec = GridSpec((8, 8, 4), np.zeros(3), np.ones(3))
            points = rng.uniform(spec.bounds_min, spec.bounds_max, size=(batch, 3))
            inputs = featurize_voxel(voxel_records(points, rng), random_layout(spec, rng),
                                     spec).inputs
            inputs = np.asarray(inputs) if kind == "voxel_dense" else inputs
        else:
            net = build_mlp_net((6, 4), seed=seed % 100, layer_norm=kind == "mlp", dtype=dtype)
            inputs = rng.normal(size=(batch, FLAT_INPUT_WIDTH))
        returned = []
        n_layers = len(net.layers)
        net.layers = [Returns(layer, returned) for layer in net.layers]
        out = net.forward(inputs)
        f_3d = rng.normal(size=(batch, 3)) + [0.0, 0.0, 2.0]
        _, grad, _ = batch_loss(out, f_3d, np.tile([0.0, 0.0, 1.0], (batch, 1)),
                                np.tile(np.eye(3), (batch, 1, 1)),
                                np.array(["rigid_ft"] * batch), LossConfig())
        assert grad.dtype == np.float64
        net.backward(grad)
        assert len(returned) == 2 * n_layers - kind.startswith("voxel")
        assert all(returned_dtype == dtype for *_, returned_dtype in returned), returned
        assert net.values.dtype == net.grads.dtype == dtype
        for p in net.parameters():
            assert p.value.dtype == p.grad.dtype == dtype
            assert np.shares_memory(p.grad, net.grads), p.name


class TestConfig:
    def test_kernel_stride_fixed_at_two(self):
        # kernel = stride = 2 by construction, so neither is a setting
        with pytest.raises(ConfigError, match="'network.kernel'"):
            read_config({"network": {"kernel": 3, "conv2d_channels": 16}}, TRAIN_CONFIG)
        with pytest.raises(ConfigError, match="'network.stride'"):
            read_config({"network": {"stride": 1}}, TRAIN_CONFIG)

    @pytest.mark.parametrize("block", ["network", "training", "loss"])
    def test_train_config_builds_dataclass_defaults_and_rejects_unknown_keys(self, block):
        assert _train_configs({}, 0) == [NetworkConfig(), TrainingConfig(), LossConfig()]
        with pytest.raises(ConfigError, match=f"'{block}.bogus'"):
            read_config({block: {"bogus": 1}}, TRAIN_CONFIG)

    @pytest.mark.parametrize("cls, key, value, field", [
        (TrainingConfig, "base_lr", 1, None),  # an int passes for a float
        (TrainingConfig, "batch_size", 64.0, "batch_size"),
        (TrainingConfig, "max_epochs", True, "max_epochs"),  # a bool is not a number
        (LossConfig, "beta", False, "beta"),
        (LossConfig, "mode", 3, "mode"),
        (NetworkConfig, "conv3d_channels", (4, 8), None),
        (NetworkConfig, "fc_widths", 5, "fc_widths"),
        (NetworkConfig, "fc_widths", [16, None], "fc_widths[1]"),
    ])
    def test_constructor_checks_value_types_against_defaults(self, cls, key, value, field):
        if field is None:
            cls(**{key: value})
        else:
            with pytest.raises(ConfigError, match=re.escape(f"field {field!r} must be")):
                cls(**{key: value})

    def test_config_roundtrip(self):
        cfg = NetworkConfig(conv3d_channels=(4, 8), conv2d_channels=16, fc_widths=(32,), seed=9)
        again = NetworkConfig(**dataclasses.asdict(cfg))
        assert again == cfg

    def test_mlp_requires_hidden_layer(self):
        with pytest.raises(ConfigError):
            build_mlp_net(())


class TestCheckpoint:
    def test_default_initial_parameters_are_pinned(self):
        """Names, order and seed-0 values of the default voxel net's
        parameters: a layer rewrite must keep the RNG draw order that
        training from a seed, and the parameter order of stored
        checkpoints, depend on. Pinned in float64, the dtype they are drawn
        in; a float32 build is these cast (the next test)."""
        digest = hashlib.sha256()
        net = build_voxel_net(NetworkConfig(seed=0), (N_CHANNELS, *DEFAULT_DIMS), np.float64)
        for p in net.parameters():
            digest.update(p.name.encode())
            digest.update(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "09ce888a64e95e080c6e75e832dd0855b3012f1d653eebdc2d262d17dc82ba5d"
        )

    @pytest.mark.parametrize("build", [
        lambda **dtype: build_voxel_net(NetworkConfig(seed=0), (N_CHANNELS, *DEFAULT_DIMS), **dtype),
        lambda **dtype: build_mlp_net((8, 4), seed=1, **dtype),
        lambda **dtype: build_mlp_net((8, 4), seed=1, layer_norm=False, **dtype),
    ], ids=["voxel", "mlp", "mlp_baseline"])
    def test_a_float32_build_is_the_float64_build_cast(self, build):
        """A net is built in float32 unless given another dtype, from the
        values it draws in float64, cast exactly."""
        single, double = build(), build(dtype=np.float64)
        assert single.values.dtype == single.grads.dtype == np.float32
        assert double.values.dtype == double.grads.dtype == np.float64
        assert np.array_equal(single.values, double.values.astype(np.float32))

    def test_voxel_roundtrip(self, tmp_path):
        cfg, net = tiny_net(seed=6)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 8, 8, 4))
        expected = net.forward(x)
        path = tmp_path / "ckpt.npz"
        geometry = SurfaceGeometry()
        spec = GridSpec.for_geometry(geometry, dims=(8, 8, 4))
        layout = default_electrode_layout(geometry)
        featurization = featurization_record(layout, geometry, spec.to_config())
        save_checkpoint(
            path, net, featurization=featurization,
            loss_config=LossConfig(), metadata={"best_epoch": 3},
        )
        loaded, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.forward(x), expected)
        assert meta["metadata"]["best_epoch"] == 3
        assert meta["kind"] == KIND_VOXEL
        assert meta["featurization"] == featurization
        assert loaded.build == net.build

    def test_mlp_roundtrip(self, tmp_path):
        net = build_mlp_net((8, 4), seed=1, layer_norm=False)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, FLAT_INPUT_WIDTH))
        expected = net.forward(x)
        path = tmp_path / "mlp.npz"
        save_checkpoint(path, net)
        loaded, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.forward(x), expected)
        assert meta["kind"] == KIND_MLP
        assert "featurization" not in meta
        assert loaded.build == net.build

    @settings(max_examples=30, deadline=None)
    @given(model=st.sampled_from(["voxel", "no_voxel", "mlp_baseline"]), n_conv3d=st.integers(1, 2),
           scale=st.tuples(*[st.integers(1, 2)] * 3), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_save_load_and_featurize_give_the_same_parameters_and_predictions(
        self, tmp_path_factory, model, n_conv3d, scale, seed, dtype
    ):
        """Each family train writes (the voxel net on a random grid it
        tiles, the --no-voxel MLP and the MLP baseline), in float32 or
        float64, loads in its dtype with its parameters, and on the features
        its checkpoint's record builds predicts what it predicted on the
        features it was built for, bit for bit."""
        rng = np.random.default_rng(seed)
        xy, z = 2 ** (n_conv3d + 1), 2**n_conv3d
        spec = GridSpec((xy * scale[0], xy * scale[1], z * scale[2]), np.zeros(3),
                        rng.uniform(0.5, 2.0, size=3))
        layout = random_layout(spec, rng)
        records = voxel_records(rng.uniform(spec.bounds_min, spec.bounds_max, size=(5, 3)), rng)
        if model == "voxel":
            config = NetworkConfig(conv3d_channels=(3, 4)[:n_conv3d], conv2d_channels=5,
                                   fc_widths=(6,), seed=seed % 100)
            net = build_voxel_net(config, (N_CHANNELS, *spec.dims), dtype)
            featurization = featurization_record(layout, SurfaceGeometry(), spec.to_config())
            inputs = featurize_voxel(records, layout, spec).inputs
        else:
            net = build_mlp_net((7, 5), seed=seed % 100, layer_norm=model == "no_voxel", dtype=dtype)
            featurization, inputs = None, featurize_flat(records).inputs
        net.values[...] = rng.normal(size=net.values.size)
        path = tmp_path_factory.mktemp("checkpoint") / "checkpoint.npz"
        save_checkpoint(path, net, featurization=featurization)
        loaded, meta = load_checkpoint(path)
        assert loaded.values.dtype == dtype and "dtype" not in json.dumps(meta)
        assert np.array_equal(loaded.values, net.values)
        rebuilt = featurizer(meta.get("featurization"))(records).inputs
        assert np.array_equal(loaded.forward(rebuilt), net.forward(inputs))

    def test_a_net_is_saved_only_with_the_featurization_it_reads(self, tmp_path):
        """A voxel net needs the record of its own grid, and an MLP, which
        reads the flat features, takes none."""
        _, voxel = tiny_net()
        geometry, layout = SurfaceGeometry(), default_electrode_layout()
        other = GridSpec.for_geometry(geometry, dims=(16, 16, 8)).to_config()
        for net, featurization in [(voxel, None),
                                   (voxel, featurization_record(layout, geometry, other)),
                                   (build_mlp_net((4,)), featurization_record(layout, geometry))]:
            with pytest.raises(ValueError, match="featurization record"):
                save_checkpoint(tmp_path / "checkpoint.npz", net, featurization=featurization)
        assert not (tmp_path / "checkpoint.npz").exists()
