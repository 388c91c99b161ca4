"""Tests of the assembled models: shapes, determinism, and batch invariance."""

import hashlib
import re

import numpy as np
import pytest

from tactile_force.dataset import featurization_record
from tactile_force.errors import ConfigError, NumericalError, SchemaError
from tactile_force.net import (
    Dense,
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
from tactile_force.sensor import ElectrodeLayout, SurfaceGeometry
from tactile_force.voxel import GridSpec


def tiny_net(seed=0):
    cfg = NetworkConfig(conv3d_channels=(2, 2), conv2d_channels=2, fc_widths=(4,), seed=seed)
    return cfg, build_voxel_net(cfg, input_shape=(2, 4, 4, 4))


class TestForward:
    def test_default_shapes(self):
        net = build_voxel_net(NetworkConfig(seed=0), input_shape=(2, 15, 15, 7))
        out = net.forward(np.zeros((3, 2, 15, 15, 7)))
        assert out.shape == (3, 3)
        assert np.all(np.isfinite(out))

    def test_zero_weights_affine_collapse(self):
        _, net = tiny_net()
        for p in net.parameters():
            if p.name.endswith(".gain"):
                p.value[...] = 1.0
            else:
                p.value[...] = 0.0
        bias = np.array([0.3, -0.7, 1.1])
        net.layers[-1].bias.value[...] = bias
        out = net.forward(np.zeros((2, 2, 4, 4, 4)))
        np.testing.assert_allclose(out, np.tile(bias, (2, 1)), atol=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2, 4, 4, 4))
        _, net1 = tiny_net(seed=5)
        _, net2 = tiny_net(seed=5)
        np.testing.assert_array_equal(net1.forward(x), net2.forward(x))

    def test_batch_composition_invariance(self):
        _, net = tiny_net(seed=2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 2, 4, 4, 4))
        full = net.forward(x)
        alone = net.forward(x[2:3])
        np.testing.assert_allclose(alone[0], full[2], atol=1e-12)

    def test_shape_mismatch_names_layer(self):
        _, net = tiny_net()
        with pytest.raises(SchemaError, match="conv3d_0"):
            net.forward(np.zeros((1, 3, 4, 4, 4)))


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
        x = rng.normal(size=(3, 2, 4, 4, 4) if kind == "voxel" else (3, 6))
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


class TestBackward:
    def test_gradient_linear_in_loss_scale(self):
        _, net = tiny_net(seed=3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 2, 4, 4, 4))
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
        x = np.random.default_rng(3).normal(size=(2, 2, 4, 4, 4))
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
        x = rng.normal(size=(3, 2, 4, 4, 4) if kind == "voxel" else (3, 6))
        for i in range(len(build().layers)):
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
        (LossConfig, "psi", [[1, 0], [0, 1], [0, 0]], None),
        (LossConfig, "psi", [[1, 0], [0, 1], [0, "a"]], "psi[2][1]"),
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
        for p in build_voxel_net(NetworkConfig(seed=0)).parameters():
            digest.update(p.name.encode())
            digest.update(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "fd9298f41aa4e065df7ea3fa102245f9d605744596b330a36d214047b81ba0fd"
        )

    def test_voxel_roundtrip(self, tmp_path):
        cfg, net = tiny_net(seed=6)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 4, 4, 4))
        expected = net.forward(x)
        path = tmp_path / "ckpt.npz"
        geometry = SurfaceGeometry()
        spec = GridSpec.for_geometry(geometry, dims=(4, 4, 4))
        # the default layout does not fit 4x4x4 cells: one electrode per cell
        layout = ElectrodeLayout(
            positions=[spec.cell_center(np.unravel_index(i, spec.dims)) for i in range(19)],
            normals=np.tile([0.0, 0.0, 1.0], (19, 1)),
        )
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
