"""Finite-difference gradient checks for every layer type, a hand-unrolled
convolution oracle that the first layer, on dense grids and featurized
voxel inputs, and the reference net's logical-layout convolutions are held
to, and the plain LayerNorm and ReLU that the in-place ones are held to bit
for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tactile_force.dataset import SampleRecord, featurize_voxel
from tactile_force.errors import SchemaError
from tactile_force.net import NetworkConfig, build_mlp_net, build_voxel_net
from tactile_force.net.layers import Conv, Dense, LayerNorm, ReLU, VoxelConv3d
from tactile_force.net.network import window_major_orders
from tactile_force.sensor import (
    N_ELECTRODES, ElectrodeLayout, SurfaceGeometry, default_electrode_layout,
)
from tactile_force.voxel import GridSpec
from geometry_oracles import cell_center
from reference_net import CollapseDepth, Conv3d, Flatten

FD_STEP = 1e-6
FD_TOL = 1e-5


def fd_layer_check(layer, x, seed=7, n_checks=40):
    """Compare analytic parameter/input gradients against central differences
    under a fixed random quadratic head. Returns the worst relative error."""
    head = np.random.default_rng(seed).normal(size=layer.forward(x).shape)

    def loss():
        return 0.5 * float(np.sum(head * layer.forward(x) ** 2))

    for p in layer.parameters():
        p.grad[...] = 0.0
    out = layer.forward(x)
    grad_x = layer.backward(head * out)
    worst = 0.0
    rng = np.random.default_rng(seed + 1)

    def probe(array, grads):
        nonlocal worst
        flat, gflat = array.ravel(), grads.ravel()
        count = min(n_checks, flat.size)
        for i in rng.choice(flat.size, size=count, replace=False):
            old = flat[i]
            flat[i] = old + FD_STEP
            lp = loss()
            flat[i] = old - FD_STEP
            lm = loss()
            flat[i] = old
            num = (lp - lm) / (2 * FD_STEP)
            worst = max(
                worst, abs(num - gflat[i]) / max(1e-10, abs(num) + abs(gflat[i]))
            )

    for p in layer.parameters():
        probe(p.value, p.grad)
    if grad_x is not None:  # a first layer computes no input gradient
        probe(x, grad_x)
    return worst


def voxel_records(points, rng):
    return [SampleRecord(trial_id=f"t{i}", source_tag="rigid_ft", e=rng.normal(size=N_ELECTRODES),
                         s_c=p, s_n=[0.0, 0.0, 1.0], f_3d=[0.0, 0.0, 1.0], r_wb=np.eye(3))
            for i, p in enumerate(points)]


def random_layout(spec, rng):
    """A collision-free electrode layout: each electrode at the centre of
    its own random cell of the grid."""
    cells = rng.choice(math.prod(spec.dims), N_ELECTRODES, replace=False)
    return ElectrodeLayout(
        positions=[cell_center(spec, np.unravel_index(i, spec.dims)) for i in cells],
        normals=np.tile([0.0, 0.0, 1.0], (N_ELECTRODES, 1)),
    )


def first_layer(grid, out_ch, rng):
    """The first layer of a net with one 3-D convolution on `grid`, (c, x,
    y, z), and the row order of its output."""
    orders = window_major_orders(grid[1:], (grid[0], out_ch, 1))
    return VoxelConv3d(out_ch, grid, orders[0], rng), orders[1]


def to_logical(rows, order, feature_shape):
    """Window-major rows as the (batch,) + feature_shape array they stand
    for; `order` is the flat logical index of each row feature."""
    out = np.empty((len(rows), rows.shape[1]))
    out[:, order] = rows
    return out.reshape((len(rows),) + tuple(feature_shape))


def _window_cell(window, offset, k):
    """Input cell index of kernel offset `offset` in output window `window`."""
    return tuple(k * p + d for p, d in zip(window, offset))


def loop_conv(x, w, b):
    """Valid kernel = stride convolution of any rank by explicit loops; the
    kernel size and rank are read off the weight (out_ch, in_ch, k, ..., k)."""
    k, ndim = w.shape[-1], w.ndim - 2
    out = np.zeros((x.shape[0], w.shape[0]) + tuple(d // k for d in x.shape[2:]))
    for bi, o, *window in np.ndindex(out.shape):
        acc = b[o]
        for i, *offset in np.ndindex((x.shape[1],) + (k,) * ndim):
            acc += w[(o, i, *offset)] * x[(bi, i) + _window_cell(window, offset, k)]
        out[(bi, o, *window)] = acc
    return out


def loop_conv_weight_grad(x, w, grad_out):
    """d loss / d weight of loop_conv, by explicit loops."""
    k, ndim = w.shape[-1], w.ndim - 2
    dw = np.zeros(w.shape)
    for bi, o, *window in np.ndindex(grad_out.shape):
        for i, *offset in np.ndindex((x.shape[1],) + (k,) * ndim):
            dw[(o, i, *offset)] += (
                grad_out[(bi, o, *window)] * x[(bi, i) + _window_cell(window, offset, k)]
            )
    return dw


def loop_conv_input_grad(x, w, grad_out):
    """d loss / d input of loop_conv, by explicit loops."""
    k, ndim = w.shape[-1], w.ndim - 2
    dx = np.zeros(x.shape)
    for bi, o, *window in np.ndindex(grad_out.shape):
        for i, *offset in np.ndindex((x.shape[1],) + (k,) * ndim):
            dx[(bi, i) + _window_cell(window, offset, k)] += (
                grad_out[(bi, o, *window)] * w[(o, i, *offset)]
            )
    return dx


class TestGradients:
    def test_dense(self):
        rng = np.random.default_rng(0)
        layer = Dense(6, 4, rng)
        assert fd_layer_check(layer, rng.normal(size=(5, 6))) < FD_TOL

    def test_conv3d(self):
        rng = np.random.default_rng(1)
        layer = Conv(2, 3, 9, rng, name="conv3d_1")
        assert fd_layer_check(layer, rng.normal(size=(4, 9 * 2 * 8))) < FD_TOL

    def test_conv2d(self):
        rng = np.random.default_rng(3)
        layer = Conv(3, 4, 6, rng, name="conv2d", ndim=2, depth=2)
        assert fd_layer_check(layer, rng.normal(size=(4, 6 * 3 * 2 * 4))) < FD_TOL

    def test_layer_norm(self):
        rng = np.random.default_rng(5)
        layer = LayerNorm((3, 4), order=rng.permutation(12))
        # non-unit gain/offset so their gradients are exercised
        layer.gain.value = rng.normal(size=(3, 4))
        layer.offset.value = rng.normal(size=(3, 4))
        assert fd_layer_check(layer, rng.normal(size=(5, 12))) < FD_TOL

    def test_relu_away_from_kinks(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 8))
        x[np.abs(x) < 0.2] = 0.5  # keep central differences off the kink
        assert fd_layer_check(ReLU(), x) < FD_TOL

    def test_collapse_depth(self):
        rng = np.random.default_rng(7)
        assert fd_layer_check(CollapseDepth(), rng.normal(size=(3, 2, 4, 4, 2))) < FD_TOL

    def test_flatten(self):
        rng = np.random.default_rng(8)
        assert fd_layer_check(Flatten(), rng.normal(size=(3, 2, 4))) < FD_TOL

    def test_voxel_conv3d_on_featurized_inputs(self):
        """Weight and bias through the VoxelInputs path, on a grid whose
        windows cover every electrode cell."""
        rng = np.random.default_rng(9)
        geometry = SurfaceGeometry()
        spec = GridSpec.for_geometry(geometry, dims=(8, 8, 4))
        points = rng.uniform(spec.bounds_min, spec.bounds_max, size=(4, 3))
        inputs = featurize_voxel(voxel_records(points, rng), default_electrode_layout(geometry),
                                 spec).inputs
        layer, _ = first_layer((2, 8, 8, 4), 3, rng)
        layer.bias.value = rng.normal(size=3)
        assert fd_layer_check(layer, inputs, n_checks=100) < FD_TOL


class TestConvForward:
    def test_hand_unrolled_conv_oracle(self):
        """Single-channel first layer on a dense 4x4x4 grid against explicit
        loops."""
        rng = np.random.default_rng(10)
        layer, order = first_layer((1, 4, 4, 4), 1, rng)
        x = np.zeros((1, 1, 4, 4, 4))
        x[0, 0, 1, 2, 3] = 2.5  # single active voxel
        out = to_logical(layer.forward(x), order, (1, 2, 2, 2))
        w = layer.weight.value[0, 0]
        b = layer.bias.value[0]
        expected = np.full((2, 2, 2), b)
        for px in range(2):
            for py in range(2):
                for pz in range(2):
                    acc = 0.0
                    for dx in range(2):
                        for dy in range(2):
                            for dz in range(2):
                                acc += (
                                    w[dx, dy, dz]
                                    * x[0, 0, 2 * px + dx, 2 * py + dy, 2 * pz + dz]
                                )
                    expected[px, py, pz] += acc
        np.testing.assert_allclose(out[0, 0], expected, atol=1e-15)

    def test_dense_random_grid_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        layer, order = first_layer((2, 8, 4, 4), 3, rng)
        x = rng.normal(size=(2, 2, 8, 4, 4))
        out = to_logical(layer.forward(x), order, (3, 4, 2, 2))
        np.testing.assert_allclose(
            out, loop_conv(x, layer.weight.value, layer.bias.value), atol=1e-12
        )

    def test_shape_errors_name_layer(self):
        rng = np.random.default_rng(12)
        layer, _ = first_layer((2, 8, 8, 4), 3, rng)
        with pytest.raises(SchemaError, match="conv3d_0"):
            layer.forward(rng.normal(size=(1, 3, 8, 8, 4)))
        conv = Conv(2, 3, 4, rng, name="conv3d_1")
        for width in (0, 63, 65, 128):
            with pytest.raises(SchemaError, match=r"layer conv3d_1: expected input shape "
                                                  r"\(batch, \(64,\)\)"):
                conv.forward(np.zeros((2, width)))

    @pytest.mark.parametrize("layer, shape", [
        ("Conv3d", (4, 2, 7, 7, 5)), ("Conv3d", (3, 2, 5, 6, 4)), ("Conv3d", (1, 2, 0, 4, 4)),
        ("VoxelConv3d", (2, 2, 4, 4, 3)), ("Conv2d", (2, 2, 5, 4)), ("Conv2d", (2, 2, 4, 3)),
    ])
    def test_untiled_dims_rejected_naming_layer(self, layer, shape):
        """A convolution takes only the input it was built for: the first
        layer its grid, as a dense array ("Conv3d") or featurized inputs
        ("VoxelConv3d"), and a later one, here a 2-D convolution built for a
        4x4 grid of 2 channels, rows of its width."""
        rng = np.random.default_rng(13)
        if layer == "Conv2d":
            conv = Conv(2, 3, 4, rng, name="conv_x", ndim=2)
            x = rng.normal(size=shape).reshape(shape[0], -1)
        else:
            conv = VoxelConv3d(3, (2, 8, 8, 4), window_major_orders((8, 8, 4), (2, 3, 1))[0],
                               rng, name="conv_x")
            x = rng.normal(size=shape)
        if layer == "VoxelConv3d":
            spec = GridSpec(shape[2:], np.zeros(3), np.ones(3))
            x = featurize_voxel(voxel_records([spec.bounds_max] * shape[0], rng),
                                random_layout(spec, rng), spec).inputs
        with pytest.raises(SchemaError, match=r"layer conv_x: expected input shape"):
            conv.forward(x)


@st.composite
def featurized_batches(draw):
    """featurize_voxel inputs on a random grid that one 3-D convolution
    tiles, 4 or 8 cells along x and y and 2-8 along z, with a random
    collision-free electrode layout (electrodes at the centres of distinct
    cells) and random contacts, the grid's max corner among them."""
    dims = (4 * draw(st.integers(1, 2)), 4 * draw(st.integers(1, 2)), 2 * draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = GridSpec(dims, np.zeros(3), rng.uniform(0.5, 2.0, size=3))
    layout = random_layout(spec, rng)
    points = rng.uniform(spec.bounds_min, spec.bounds_max, size=(draw(st.integers(1, 4)), 3))
    if draw(st.booleans()):
        points[0] = spec.bounds_max
    inputs = featurize_voxel(voxel_records(points, rng), layout, spec).inputs
    return inputs, draw(st.integers(1, 3)), rng


class TestVoxelConv3d:
    @settings(max_examples=100, deadline=None)
    @given(featurized_batches())
    def test_featurized_inputs_match_dense_conv_and_loop_oracle(self, batch):
        """One layer on a featurized batch and on its dense grids, the
        reference net's logical-layout convolution, and explicit loops agree
        on the output and on the weight and bias gradients."""
        inputs, out_ch, rng = batch
        x = np.asarray(inputs)
        seed = int(rng.integers(2**32))
        voxel, order = first_layer(x.shape[1:], out_ch, np.random.default_rng(seed))
        reference = Conv3d(x.shape[1], out_ch, np.random.default_rng(seed))
        voxel.bias.value = reference.bias.value = rng.normal(size=out_ch)
        w, b = reference.weight.value, reference.bias.value
        out_shape = (out_ch,) + tuple(d // 2 for d in x.shape[2:])
        grad_out = rng.normal(size=(len(x), math.prod(out_shape)))
        grad_logical = to_logical(grad_out, order, out_shape)

        outs, weight_grads, bias_grads = [], [], []
        for batch_input in (inputs, x):
            voxel.weight.grad[...] = voxel.bias.grad[...] = 0.0
            outs.append(to_logical(voxel.forward(batch_input), order, out_shape))
            assert voxel.backward(grad_out) is None
            weight_grads.append(voxel.weight.grad.copy())
            bias_grads.append(voxel.bias.grad.copy())
        reference_out = reference.forward(x)
        grad_x = reference.backward(grad_logical)
        for out in outs:
            for expected in (reference_out, loop_conv(x, w, b)):
                np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        for weight_grad in weight_grads:
            for grad in (reference.weight.grad, loop_conv_weight_grad(x, w, grad_logical)):
                np.testing.assert_allclose(weight_grad, grad, rtol=0, atol=1e-12)
        for bias_grad in bias_grads:
            for grad in (reference.bias.grad, grad_logical.sum(axis=(0, 2, 3, 4))):
                np.testing.assert_allclose(bias_grad, grad, rtol=0, atol=1e-12)
        # the reference's input gradient, which the first layer skips
        np.testing.assert_allclose(grad_x, loop_conv_input_grad(x, w, grad_logical),
                                   rtol=0, atol=1e-12)


def conv2d_rows(x, depth):
    """A 2-D convolution's logical input, (batch, c * depth, x, y) with
    channel c * depth + z, as its window-major rows: windows in (x, y)
    order, each window's cells in (dx, dy, z, c) order."""
    b, cz, sx, sy = x.shape
    split = x.reshape(b, cz // depth, depth, sx // 2, 2, sy // 2, 2)
    return split.transpose(0, 3, 5, 4, 6, 2, 1).reshape(b, -1)


class TestConv2d:
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("dims", [(4, 6), (6, 2), (2, 4)])
    def test_matches_loop_oracles(self, dims, depth):
        """The 2-D convolution over a depth of 1 or 2 folded into its
        channels, on rows built from a logical input by one transpose."""
        rng = np.random.default_rng(15)
        windows = dims[0] // 2 * (dims[1] // 2)
        layer = Conv(3, 4, windows, rng, name="conv2d", ndim=2, depth=depth)
        layer.bias.value = rng.normal(size=4)
        x = rng.normal(size=(2, 3 * depth) + dims)
        out = layer.forward(conv2d_rows(x, depth))
        out = out.reshape(2, dims[0] // 2, dims[1] // 2, 4).transpose(0, 3, 1, 2)
        grad_out = rng.normal(size=out.shape)
        grad_x = layer.backward(np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(2, -1))
        w = layer.weight.value
        np.testing.assert_allclose(out, loop_conv(x, w, layer.bias.value), rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.weight.grad, loop_conv_weight_grad(x, w, grad_out),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.bias.grad, grad_out.sum(axis=(0, 2, 3)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad_x, conv2d_rows(loop_conv_input_grad(x, w, grad_out), depth),
                                   rtol=0, atol=1e-12)


class TestLayerNormBehavior:
    def test_normalizes_per_sample(self):
        rng = np.random.default_rng(13)
        layer = LayerNorm((10,))
        x = rng.normal(loc=5.0, scale=3.0, size=(4, 10))
        out = layer.forward(x)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-3)

    def test_sample_independence(self):
        rng = np.random.default_rng(14)
        layer = LayerNorm((6,))
        x = rng.normal(size=(3, 6))
        alone = layer.forward(x[:1])
        together = layer.forward(x)
        np.testing.assert_allclose(alone[0], together[0], atol=1e-12)


class TestReLU:
    def test_zero_subgradient_at_kink(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        out = layer.forward(x)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0]])


class ReferenceLayerNorm(LayerNorm):
    """LayerNorm written plainly, one fresh array per operation, with gain
    and offset gathered into row order and their gradients scattered back
    by an explicit index: the oracle the in-place LayerNorm is held to bit
    for bit."""

    def _perm(self):
        return np.arange(math.prod(self.feature_shape))[self._order]

    def forward(self, x):
        self._check_input(x, (math.prod(self.feature_shape),))
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        self._inv_std = 1.0 / np.sqrt(var + self.eps)
        self._xhat = (x - mu) * self._inv_std
        perm = self._perm()
        return self.gain.value.ravel()[perm] * self._xhat + self.offset.value.ravel()[perm]

    def backward(self, grad_out):
        perm = self._perm()
        np.add.at(self.gain.grad.reshape(-1), perm, (grad_out * self._xhat).sum(axis=0))
        np.add.at(self.offset.grad.reshape(-1), perm, grad_out.sum(axis=0))
        g = grad_out * self.gain.value.ravel()[perm]
        mean_g = g.mean(axis=1, keepdims=True)
        mean_gx = (g * self._xhat).mean(axis=1, keepdims=True)
        return (g - mean_g - self._xhat * mean_gx) * self._inv_std


class ReferenceReLU(ReLU):
    """ReLU by np.where: the oracle ReLU is held to. Like ReLU, it keeps a
    NaN input; unlike ReLU, its backward drops a non-finite gradient where
    the mask is off."""

    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask | np.isnan(x), x, 0.0)

    def backward(self, grad_out):
        return np.where(self._mask, grad_out, 0.0)


# batch 1-6, then 1-4 feature axes
batch_shapes = st.tuples(
    st.integers(1, 6), st.lists(st.integers(1, 4), min_size=1, max_size=4)
).map(lambda t: (t[0], *t[1]))

# normal values mixed with exact zeros of either sign, NaN and +-inf
relu_values = st.one_of(st.floats(-10, 10), st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))


@st.composite
def layer_norm_cases(draw):
    """A LayerNorm of 1-4 feature axes, its features in logical order or in
    a random row order, on (batch, features) rows of batch 1-6, with random
    gain, offset, starting gradients and output gradient."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(batch_shapes)
    feature_shape, rows = shape[1:], (shape[0], math.prod(shape[1:]))
    scale, shift = draw(st.sampled_from([1e-3, 1.0, 1e3])), rng.normal()
    x = rng.normal(size=rows) * scale + shift
    order = rng.permutation(rows[1]) if draw(st.booleans()) else None
    params = [rng.normal(size=feature_shape) for _ in range(4)]
    return x, rng.normal(size=rows), feature_shape, order, params


def norm_pair(feature_shape, order, params):
    """A LayerNorm and a ReferenceLayerNorm with the same row order, gain,
    offset and starting gradients."""
    pair = (LayerNorm(feature_shape, order=order), ReferenceLayerNorm(feature_shape, order=order))
    for layer in pair:
        for p, value, grad in zip(layer.parameters(), params[:2], params[2:]):
            p.value[...], p.grad[...] = value, grad
    return pair


class TestInPlaceLayersMatchReference:
    @settings(max_examples=80, deadline=None)
    @given(layer_norm_cases())
    def test_layer_norm_is_bit_equal_to_reference(self, case):
        x, grad_out, feature_shape, order, params = case
        layer, reference = norm_pair(feature_shape, order, params)
        x_before, grad_before = x.copy(), grad_out.copy()
        out, expected = layer.forward(x), reference.forward(x)
        assert np.array_equal(out, expected)
        assert np.array_equal(layer.backward(grad_out), reference.backward(grad_out))
        assert np.array_equal(layer.gain.grad, reference.gain.grad)
        assert np.array_equal(layer.offset.grad, reference.offset.grad)
        # neither pass writes into its argument
        assert np.array_equal(x, x_before) and np.array_equal(grad_out, grad_before)

    @settings(max_examples=80, deadline=None)
    @given(arrays(np.float64, batch_shapes, elements=relu_values), st.booleans())
    def test_relu_is_equal_to_reference_by_value(self, x, channels_last):
        """Equal by value, NaN where the input is NaN: a masked-off gradient
        of either sign times 0 keeps its sign where np.where gives 0.0."""
        if channels_last:
            x = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)
        layer, reference = ReLU(), ReferenceReLU()
        grad_out = np.random.default_rng(x.size).normal(size=x.shape)
        x_before = x.copy()
        out, expected = layer.forward(x), reference.forward(x)
        assert np.array_equal(out, expected, equal_nan=True)
        assert np.array_equal(np.isnan(out), np.isnan(x))
        assert not np.signbit(out[out == 0]).any()  # -0.0 comes out as 0.0
        assert np.array_equal(layer.backward(grad_out), reference.backward(grad_out))
        assert np.array_equal(x, x_before, equal_nan=True)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_whole_net_is_bit_equal_with_reference_layers(self, n_conv3d, batch, seed):
        """Whole nets are compared too, on grids whose depth at the 2-D
        convolution is above one cell and whose 2-D output is one or two
        cells along x and y, so that the LayerNorms' row orders are
        permutations."""
        rng = np.random.default_rng(seed)
        # grids that tile: x and y multiples of 2^(n+1), z of 2^n, depth 2 or 3 at the 2-D conv
        dims = (*(2 ** (n_conv3d + 1) * rng.integers(1, 3, 2)), 2**n_conv3d * rng.integers(2, 4))
        dims = tuple(int(d) for d in dims)
        config = NetworkConfig(conv3d_channels=(3, 4)[:n_conv3d], conv2d_channels=5,
                               fc_widths=(6,), seed=seed % 100)
        x = rng.normal(size=(batch, 2) + dims)
        grad_out = rng.normal(size=(batch, 3))
        mlp_x = rng.normal(size=(batch, 7))
        for build, inputs in [(lambda: build_voxel_net(config, (2,) + dims), x),
                              (lambda: build_mlp_net(7, (8, 5), seed=seed % 100), mlp_x)]:
            model, reference = build(), build()
            for layer in reference.layers:
                if type(layer) is LayerNorm:
                    layer.__class__ = ReferenceLayerNorm
                elif type(layer) is ReLU:
                    layer.__class__ = ReferenceReLU
            model.values[...] = rng.normal(size=model.values.size)
            reference.values[...] = model.values
            assert np.array_equal(model.forward(inputs), reference.forward(inputs))
            model.backward(grad_out)
            reference.backward(grad_out)
            assert np.array_equal(model.grads, reference.grads)
