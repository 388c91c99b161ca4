"""The voxel net in its logical layout, as the oracle the window-major net
is held to.

Activations are (batch, channels, x, y[, z]) arrays. A convolution builds
one row per window with a space-to-depth transpose, ordered like its
weight's (in_ch, dx, dy[, dz]) axes, and scatters its input gradient back
the same way; the depth is folded into the channels by a transpose, and the
2-D output is flattened in (c, x, y) order for the first fully connected
layer. Layers are built in the production net's order from the same seed,
so both nets start from the same parameter values and list them in the
same order.

It also holds the unfused, row-order LayerNorm and ReLU that the fused
in-place layers.LayerNormReLU is held to, and the bound on how far the
production layers may drift from their references: REFERENCE_RTOL times
the summed |terms| of each result.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from tactile_force.net import Conv, Dense, LayerNormReLU, Model, NetworkConfig, ReLU
from tactile_force.net.layers import KERNEL, LAYER_NORM_EPS, Layer, Parameter, _fan_in_uniform

# the bound on |net - reference|, relative to the largest magnitude of the
# reference output, or of the summed terms of a reference gradient
REFERENCE_RTOL = 1e-12


class _ConvNd(Layer):
    """Valid N-D convolution with kernel = stride = KERNEL, as one matmul on
    the space-to-depth rows of its input. Subclasses set ndim."""

    def __init__(self, in_channels, out_channels, rng, name=None):
        self.name = name or f"conv{self.ndim}d"
        self.in_channels, self.out_channels = in_channels, out_channels
        fan_in = in_channels * KERNEL**self.ndim
        self.weight = Parameter(
            f"{self.name}.weight",
            _fan_in_uniform(rng, (out_channels, in_channels) + (KERNEL,) * self.ndim, fan_in),
        )
        self.bias = Parameter(f"{self.name}.bias", np.zeros(out_channels))
        self._rows = None
        self._in_shape = None

    def parameters(self):
        return [self.weight, self.bias]

    def _space_to_depth(self, x):
        """A view of x with axes (b, o_1, ..., o_ndim, in_ch, k, ..., k)."""
        b, c, *dims = x.shape
        split = x.reshape(b, c, *(n for d in dims for n in (d // KERNEL, KERNEL)))
        return split.transpose(0, *range(2, split.ndim, 2), 1, *range(3, split.ndim, 2))

    def _weight_matrix(self):
        return self.weight.value.reshape(self.out_channels, -1)

    def forward(self, x):
        out_spatial = tuple(d // KERNEL for d in x.shape[2:])
        w = self._weight_matrix()
        self._rows = self._space_to_depth(x).reshape(-1, w.shape[1])
        self._in_shape = x.shape
        out = self._rows @ w.T + self.bias.value
        return np.moveaxis(out.reshape((x.shape[0],) + out_spatial + (self.out_channels,)), -1, 1)

    def backward(self, grad_out):
        g = np.moveaxis(grad_out, 1, -1).reshape(-1, self.out_channels)
        self.weight.grad += (g.T @ self._rows).reshape(self.weight.value.shape)
        self.bias.grad += g.sum(axis=0)
        grad_x = np.empty(self._in_shape)
        windows = self._space_to_depth(grad_x)  # a view: this fills grad_x
        windows[...] = (g @ self._weight_matrix()).reshape(windows.shape)
        return grad_x


class Conv3d(_ConvNd):
    """Weight shape (out_ch, in_ch, k, k, k)."""

    ndim = 3


class Conv2d(_ConvNd):
    """Weight shape (out_ch, in_ch, k, k)."""

    ndim = 2


class CollapseDepth(Layer):
    """(batch, c, x, y, z) -> (batch, c*z, x, y): fold depth into channels."""

    def __init__(self, name="collapse_depth"):
        self.name = name
        self._shape = None

    def forward(self, x):
        self._shape = x.shape
        b, c, sx, sy, sz = x.shape
        return np.transpose(x, (0, 1, 4, 2, 3)).reshape(b, c * sz, sx, sy)

    def backward(self, grad_out):
        b, c, sx, sy, sz = self._shape
        return np.transpose(grad_out.reshape(b, c, sz, sx, sy), (0, 1, 3, 4, 2))


class Flatten(Layer):
    def __init__(self, name="flatten"):
        self.name = name
        self._shape = None

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._shape)


class LogicalLayerNorm(Layer):
    """Per-sample normalization over every feature axis of its input, with
    gain and offset of the feature shape, written plainly."""

    def __init__(self, feature_shape, eps, name):
        self.name = name
        self.eps = eps
        self.gain = Parameter(f"{name}.gain", np.ones(feature_shape))
        self.offset = Parameter(f"{name}.offset", np.zeros(feature_shape))
        self._axes = tuple(range(1, 1 + len(feature_shape)))

    def parameters(self):
        return [self.gain, self.offset]

    def forward(self, x):
        mu = x.mean(axis=self._axes, keepdims=True)
        var = x.var(axis=self._axes, keepdims=True)
        self._inv_std = 1.0 / np.sqrt(var + self.eps)
        self._xhat = (x - mu) * self._inv_std
        return self.gain.value * self._xhat + self.offset.value

    def backward(self, grad_out):
        axes = self._axes
        self.gain.grad += (grad_out * self._xhat).sum(axis=0)
        self.offset.grad += grad_out.sum(axis=0)
        g = grad_out * self.gain.value
        mean_g = g.mean(axis=axes, keepdims=True)
        mean_gx = (g * self._xhat).mean(axis=axes, keepdims=True)
        return (g - mean_g - self._xhat * mean_gx) * self._inv_std


class ReferenceLayerNorm(Layer):
    """LayerNorm on (batch, features) rows written plainly, one fresh array
    per operation, with gain and offset gathered into row order and their
    gradients scattered back by an explicit index: the norm half of the
    unfused pair that layers.LayerNormReLU is held to. `order` is the flat
    logical index of each row feature, as there."""

    def __init__(self, feature_shape, eps=LAYER_NORM_EPS, name="ln", order=None):
        self.name = name
        self.eps = eps
        self.feature_shape = tuple(feature_shape)
        self.gain = Parameter(f"{name}.gain", np.ones(self.feature_shape))
        self.offset = Parameter(f"{name}.offset", np.zeros(self.feature_shape))
        n = math.prod(self.feature_shape)
        self._perm = np.arange(n) if order is None else np.asarray(order)

    def parameters(self):
        return [self.gain, self.offset]

    def forward(self, x):
        self._check_input(x, self._perm.shape)
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        self._inv_std = 1.0 / np.sqrt(var + self.eps)
        self._xhat = (x - mu) * self._inv_std
        perm = self._perm
        return self.gain.value.ravel()[perm] * self._xhat + self.offset.value.ravel()[perm]

    def backward(self, grad_out):
        perm = self._perm
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


def unfused(layer: LayerNormReLU) -> list[Layer]:
    """The ReferenceLayerNorm and ReferenceReLU pair that `layer` fuses,
    with its names and row order, LAYER_NORM_EPS and fresh parameters."""
    order = np.arange(math.prod(layer.feature_shape))[layer._order]
    return [ReferenceLayerNorm(layer.feature_shape, LAYER_NORM_EPS, layer.name, order),
            ReferenceReLU(name=layer.name.replace("ln_", "relu_", 1))]


def with_reference_layers(model: Model) -> Model:
    """A copy of `model` with each LayerNormReLU unfused and each plain
    ReLU a ReferenceReLU, holding the same parameter values."""
    layers = []
    for layer in copy.deepcopy(model.layers):
        if isinstance(layer, LayerNormReLU):
            layers += unfused(layer)
        elif type(layer) is ReLU:
            layers.append(ReferenceReLU(name=layer.name))
        else:
            layers.append(layer)
    reference = Model(layers, model.build)
    reference.values[...] = model.values
    return reference


def backward_with_term_magnitudes(reference: Model, grad_out) -> dict[str, np.ndarray]:
    """Run the reference net's backward pass for grad_out and return, by
    parameter name, the sum of |terms| whose plain sum is each entry of that
    parameter's gradient, in the layer's own layout: the gradient's formula
    over the absolute values of the layer's input and of the gradient
    reaching it. Summation-order noise scales with this, not with the
    gradient, which can cancel to near 0."""
    reference.zero_grad()
    magnitudes = {}
    grad = grad_out
    for layer in reversed(reference.layers):
        g = np.abs(grad)
        if isinstance(layer, (_ConvNd, Conv)):
            if isinstance(layer, _ConvNd):
                g = np.moveaxis(g, 1, -1)
            g = g.reshape(-1, layer.out_channels)  # one row per window
            magnitudes[layer.weight.name] = g.T @ np.abs(layer._rows)
            magnitudes[layer.bias.name] = g.sum(axis=0)
        elif isinstance(layer, Dense):
            magnitudes[layer.weight.name] = np.abs(layer._x).T @ g
            magnitudes[layer.bias.name] = g.sum(axis=0)
        elif isinstance(layer, (LogicalLayerNorm, ReferenceLayerNorm)):
            magnitudes[layer.gain.name] = (g * np.abs(layer._xhat)).sum(axis=0)
            magnitudes[layer.offset.name] = g.sum(axis=0)
        grad = layer.backward(grad)
    return magnitudes


class DenseInput(Layer):
    """Turns a VoxelInputs batch into its dense grids; no parameters."""

    name = "dense_input"

    def forward(self, x):
        return np.asarray(x, dtype=float)

    def backward(self, grad_out):
        return None


def build_reference_voxel_net(config: NetworkConfig, input_shape) -> Model:
    """The logical-layout twin, in float64, of
    network.build_voxel_net(config, input_shape, np.float64), for grids that
    build accepts."""
    c, sx, sy, sz = input_shape
    rng = np.random.default_rng(config.seed)
    eps = LAYER_NORM_EPS
    layers: list[Layer] = [DenseInput()]
    for i, out_ch in enumerate(config.conv3d_channels):
        layers.append(Conv3d(c, out_ch, rng, name=f"conv3d_{i}"))
        sx, sy, sz, c = sx // KERNEL, sy // KERNEL, sz // KERNEL, out_ch
        layers.append(LogicalLayerNorm((c, sx, sy, sz), eps, name=f"ln_conv3d_{i}"))
        layers.append(ReLU(name=f"relu_conv3d_{i}"))
    layers.append(CollapseDepth())
    layers.append(Conv2d(c * sz, config.conv2d_channels, rng, name="conv2d"))
    sx, sy, c = sx // KERNEL, sy // KERNEL, config.conv2d_channels
    layers.append(LogicalLayerNorm((c, sx, sy), eps, name="ln_conv2d"))
    layers.append(ReLU(name="relu_conv2d"))
    layers.append(Flatten())
    dim = c * sx * sy
    for i, width in enumerate(config.fc_widths):
        layers.append(Dense(dim, width, rng, name=f"fc_{i}", dtype=np.float64))
        layers.append(LogicalLayerNorm((width,), eps, name=f"ln_fc_{i}"))
        layers.append(ReLU(name=f"relu_fc_{i}"))
        dim = width
    layers.append(Dense(dim, 3, rng, name="fc_out", dtype=np.float64))
    return Model(layers, {"kind": "reference_voxel_net"})
