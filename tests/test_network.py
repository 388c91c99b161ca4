"""Tests of the assembled models: shapes, determinism, and batch invariance."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tactile_force.dataset import SampleRecord, featurization_record, featurize_voxel
from tactile_force.errors import ConfigError, NumericalError, SchemaError
from tactile_force.net import (
    Dense,
    LayerNorm,
    LossConfig,
    Model,
    NetworkConfig,
    ReLU,
    TrainingConfig,
    batch_loss_and_grad,
    build_mlp_net,
    build_voxel_net,
    load_checkpoint,
    save_checkpoint,
)
from tactile_force.net.checkpoint import KIND_MLP, KIND_VOXEL
from reference_net import build_reference_voxel_net
from geometry_oracles import cell_center
from test_net_layers import random_layout, voxel_records
from tactile_force.sensor import N_ELECTRODES, SurfaceGeometry, default_electrode_layout
from tactile_force.voxel import CHANNEL_CONTACT, DEFAULT_DIMS, N_CHANNELS, GridSpec


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
        ("voxel", "ln_fc_0"), ("voxel", "relu_fc_0"), ("voxel", "fc_out"),
        ("mlp", "ln_fc_1"), ("mlp", "relu_fc_1"), ("mlp", "fc_out"),
    ])
    def test_non_finite_output_names_first_non_finite_layer(self, kind, poisoned):
        """A layer that puts one +inf in its output, after which no layer
        norm and ReLU turns it back into finite numbers, is named, not the
        layer the network output comes from."""
        rng = np.random.default_rng(8)
        net = {"voxel": lambda: tiny_net(seed=2)[1],
               "mlp": lambda: build_mlp_net(6, (5, 4), seed=2)}[kind]()
        x = rng.normal(size=(3, 2, 8, 8, 4) if kind == "voxel" else (3, 6))
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
    """One record per cell of `cells`, flat indices into the grid, with its
    contact point at that cell's centre and electrode values e."""
    return [SampleRecord(trial_id=f"t{i}", source_tag="rigid_ft", e=e,
                         s_c=cell_center(spec, np.unravel_index(cell, spec.dims)),
                         s_n=[0.0, 0.0, 1.0], f_3d=[0.0, 0.0, 1.0], r_wb=np.eye(3))
            for i, cell in enumerate(cells)]


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
        changes the output. The net's layer norms are bypassed, so that
        nothing reaches the output through their mean and variance alone;
        every weight and value is positive, so every ReLU passes its input
        and whatever reaches the output raises it. seed None takes the
        default layout on the default grid bounds, others a random layout
        with one electrode at the centre of each of 19 distinct cells."""
        config = NetworkConfig(conv3d_channels=(2, 3)[:n_conv3d], conv2d_channels=3,
                               fc_widths=(4,))
        try:
            net = build_voxel_net(config, (N_CHANNELS, *dims))
        except ConfigError:
            assert seed is not None, "the default grid is rejected"
            return
        net.layers = [layer for layer in net.layers if not isinstance(layer, LayerNorm)]
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
        records = contact_records(e, contacts[:1], spec)
        records += [dataclasses.replace(records[0], e=row) for row in raised]
        out = net.forward(featurize_voxel(records, layout, spec).inputs)
        assert np.all(out[1:] > out[0])

        inputs = featurize_voxel(contact_records(e, contacts, spec), layout, spec).inputs
        none = np.asarray(inputs[:1])
        none[:, CHANNEL_CONTACT] = 0.0  # no contact, through the dense path
        assert np.all(net.forward(inputs) > net.forward(none))


# the bound on |net - reference|, relative to the reference array's largest magnitude
REFERENCE_RTOL = 1e-12


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
        net = build_voxel_net(config, input_shape)
        reference = build_reference_voxel_net(config, input_shape)
        assert [p.name for p in net.parameters()] == [p.name for p in reference.parameters()]
        np.testing.assert_array_equal(net.values, reference.values)
        net.values[...] = reference.values[...] = rng.normal(size=net.values.size)
        out, expected = net.forward(inputs), reference.forward(inputs)
        assert np.max(np.abs(out - expected)) <= REFERENCE_RTOL * np.max(np.abs(expected))
        grad_out = rng.normal(size=out.shape)
        net.backward(grad_out)
        reference.backward(grad_out)
        for p, q in zip(net.parameters(), reference.parameters()):
            bound = REFERENCE_RTOL * np.max(np.abs(q.grad))
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

        # every layer but the ReLUs, which take any shape, checks its input's width
        for layer, name, x, _ in seen[1 : len(net.layers)]:
            if name == "forward" and not layer.startswith("relu"):
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
        loss, grad, _ = batch_loss_and_grad(
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
                 "mlp": lambda: build_mlp_net(6, (5, 4), seed=1)}[kind]
        x = rng.normal(size=(3, 2, 8, 8, 4) if kind == "voxel" else (3, 6))
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


class TestConfig:
    def test_kernel_stride_fixed_at_two(self):
        # kernel = stride = 2 by construction, so neither is a setting
        with pytest.raises(ConfigError, match="kernel"):
            NetworkConfig.from_dict({"kernel": 3, "conv2d_channels": 16})
        with pytest.raises(ConfigError, match="stride"):
            NetworkConfig.from_dict({"stride": 1})

    @pytest.mark.parametrize("cls", [NetworkConfig, TrainingConfig, LossConfig])
    def test_from_dict_takes_dataclass_defaults_and_rejects_unknown_keys(self, cls):
        assert cls.from_dict({}).to_dict() == cls().to_dict()
        with pytest.raises(ConfigError, match="bogus"):
            cls.from_dict({"bogus": 1})

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
    def test_from_dict_checks_value_types_against_defaults(self, cls, key, value, field):
        if field is None:
            cls.from_dict({key: value})
        else:
            with pytest.raises(ConfigError, match=re.escape(f"field {field!r} must be")):
                cls.from_dict({key: value})

    def test_config_roundtrip(self):
        cfg = NetworkConfig(conv3d_channels=(4, 8), conv2d_channels=16, fc_widths=(32,), seed=9)
        again = NetworkConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_mlp_requires_hidden_layer(self):
        with pytest.raises(ConfigError):
            build_mlp_net(22, ())


class TestCheckpoint:
    def test_default_initial_parameters_are_pinned(self):
        """Names, order and seed-0 values of the default voxel net's
        parameters: a layer rewrite must keep the RNG draw order that
        training from a seed, and the parameter order of stored
        checkpoints, depend on."""
        digest = hashlib.sha256()
        net = build_voxel_net(NetworkConfig(seed=0), input_shape=(N_CHANNELS, *DEFAULT_DIMS))
        for p in net.parameters():
            digest.update(p.name.encode())
            digest.update(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "09ce888a64e95e080c6e75e832dd0855b3012f1d653eebdc2d262d17dc82ba5d"
        )

    def test_voxel_roundtrip(self, tmp_path):
        cfg, net = tiny_net(seed=6)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 8, 8, 4))
        expected = net.forward(x)
        path = tmp_path / "ckpt.npz"
        geometry = SurfaceGeometry()
        spec = GridSpec.for_geometry(geometry, dims=(8, 8, 4))
        layout = default_electrode_layout(geometry)
        featurization = featurization_record(True, layout, geometry, spec.to_config())
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
        net = build_mlp_net(22, (8, 4), seed=1, layer_norm=False)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 22))
        expected = net.forward(x)
        path = tmp_path / "mlp.npz"
        save_checkpoint(path, net, featurization={"kind": "flat"})
        loaded, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.forward(x), expected)
        assert meta["kind"] == KIND_MLP
        assert meta["featurization"] == {"kind": "flat"}
        assert loaded.build == net.build
