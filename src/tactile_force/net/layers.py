"""Differentiable layers with hand-written forward/backward passes.

Every layer caches what its backward pass needs during forward, accumulates
parameter gradients into Parameter.grad, and returns the gradient with
respect to its input; VoxelConv3d, a first layer that reads a VoxelInputs
batch, returns None for it instead.
A layer owns its parameter arrays until a Model packs them into its flat
value and gradient buffers; from then on each Parameter.value and .grad is
a view of its slice there, so layers only ever write them in place.
All math is float64 numpy. Convolutions are "valid" (no padding) with
kernel = stride, on inputs whose spatial dims are multiples of the kernel,
so their windows never overlap and cover every cell: a dense convolution is
a space-to-depth reshape and one matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import SchemaError
from ..voxel import VoxelInputs

LAYER_NORM_EPS = 1e-5  # the default epsilon of every LayerNorm


@dataclass
class Parameter:
    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=float)
        self.grad = np.zeros_like(self.value)


class Layer:
    """Base layer: subclasses implement forward/backward and list parameters."""

    name = "layer"

    def parameters(self) -> list[Parameter]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_input(self, x: np.ndarray, expected_tail: tuple[int, ...]) -> None:
        if x.shape[1:] != expected_tail:
            raise SchemaError(
                f"layer {self.name}: expected input shape (batch, {expected_tail}), "
                f"got {x.shape}"
            )


def _fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Dense(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "dense"):
        self.name = name
        self.in_dim, self.out_dim = in_dim, out_dim
        self.weight = Parameter(f"{name}.weight", _fan_in_uniform(rng, (in_dim, out_dim), in_dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_dim))
        self._x = None

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x):
        self._check_input(x, (self.in_dim,))
        self._x = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out):
        self.weight.grad += self._x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T


class _ConvNd(Layer):
    """Valid N-D convolution with kernel = stride, as one matmul.

    Windows do not overlap and tile the input, so it reshapes
    (space-to-depth) into one row of in_ch * k^ndim values per sample and
    window, ordered like the weight's (in_ch, dx, dy, ...) axes. Forward
    multiplies the rows by the weight matrix and backward takes two more
    matmuls. The input gradient is the inverse reshape. Subclasses set ndim.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        name: str | None = None,
    ):
        self.name = name or f"conv{self.ndim}d"
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kernel = kernel
        fan_in = in_channels * kernel**self.ndim
        self.weight = Parameter(
            f"{self.name}.weight",
            _fan_in_uniform(rng, (out_channels, in_channels) + (kernel,) * self.ndim, fan_in),
        )
        self.bias = Parameter(f"{self.name}.bias", np.zeros(out_channels))
        self._rows = None
        self._in_shape = None

    def parameters(self):
        return [self.weight, self.bias]

    def _out_spatial(self, shape):
        """The output spatial dims for an input of `shape`, after checking it."""
        if len(shape) != 2 + self.ndim or shape[1] != self.in_channels:
            raise SchemaError(
                f"layer {self.name}: expected (batch, {self.in_channels}, "
                f"{self.ndim} spatial dims), got {shape}"
            )
        k = self.kernel
        if any(d < 1 or d % k for d in shape[2:]):
            raise SchemaError(
                f"layer {self.name}: spatial dims {shape[2:]} are not positive "
                f"multiples of kernel {k}"
            )
        return tuple(d // k for d in shape[2:])

    def _space_to_depth(self, x):
        """A view of x with axes (b, o_1, ..., o_ndim, in_ch, k, ..., k):
        each window's values, ordered like the weight's axes."""
        b, c, *dims = x.shape
        k = self.kernel
        split = x.reshape(b, c, *(n for d in dims for n in (d // k, k)))
        return split.transpose(0, *range(2, split.ndim, 2), 1, *range(3, split.ndim, 2))

    def _weight_matrix(self):
        # (out_ch, in_ch * k^ndim), columns ordered like the weight's (in_ch, dx, dy, ...)
        return self.weight.value.reshape(self.out_channels, -1)

    def forward(self, x):
        out_spatial = self._out_spatial(x.shape)
        w = self._weight_matrix()
        self._rows = self._space_to_depth(x).reshape(-1, w.shape[1])
        self._in_shape = x.shape
        out = self._rows @ w.T + self.bias.value
        return np.moveaxis(out.reshape((x.shape[0],) + out_spatial + (self.out_channels,)), -1, 1)

    def backward(self, grad_out):
        g = np.moveaxis(grad_out, 1, -1).reshape(-1, self.out_channels)  # (b * windows, out_ch)
        self.weight.grad += (g.T @ self._rows).reshape(self.weight.value.shape)
        self.bias.grad += g.sum(axis=0)
        grad_x = np.empty(self._in_shape)
        # reshapes that only split axes, and transposes, are views: this fills grad_x
        windows = self._space_to_depth(grad_x)
        windows[...] = (g @ self._weight_matrix()).reshape(windows.shape)
        return grad_x


class Conv3d(_ConvNd):
    """Valid 3-D convolution, weight shape (out_ch, in_ch, k, k, k)."""

    ndim = 3


class VoxelConv3d(Conv3d):
    """Valid 3-D convolution with kernel = stride that reads a VoxelInputs
    batch as the electrode values and one contact cell it holds; for a
    network's first layer only. A dense input takes the Conv3d path.

    Windows do not overlap, so each cell feeds exactly one output window
    through one weight column (c, dx, dy, dz). The electrode cells are the
    same for every sample, so their part is e @ A, with A holding each
    electrode's weight column at its window; the contact part adds the
    contact cell's column at its window. The weight gradient gathers
    e.T @ grad_out at the electrode windows and grad_out at the contact
    windows. backward returns None: the input is data, so no input gradient
    is computed.
    """

    def _windows(self, cells, grid, out_spatial):
        """The window and weight column of each of `cells`, flat indices
        into `grid`."""
        k = self.kernel
        c, *pos = np.unravel_index(cells, grid)
        window = np.ravel_multi_index([p // k for p in pos], out_spatial)
        column = np.ravel_multi_index([c] + [p % k for p in pos],
                                      (self.in_channels,) + (k,) * self.ndim)
        return window, column

    def forward(self, x):
        if not isinstance(x, VoxelInputs):
            self._cells = None
            return super().forward(x)
        out_spatial = self._out_spatial(x.shape)
        b, n, w = len(x), x.electrodes.size, self._weight_matrix()
        e_window, e_column = self._windows(x.electrodes, x.grid, out_spatial)
        window, column = self._windows(x.contact, x.grid, out_spatial)
        a = np.zeros((n, self.out_channels, math.prod(out_spatial)))
        a[np.arange(n), :, e_window] = w[:, e_column].T
        out = (x.e @ a.reshape(n, -1)).reshape(b, self.out_channels, -1)
        out += self.bias.value[:, None]
        sample = np.arange(b)
        out[sample, :, window] += w[:, column].T  # one contact, so one window, per sample
        self._cells = (x.e, e_window, e_column, sample, window, column)
        return out.reshape((b, self.out_channels) + out_spatial)

    def backward(self, grad_out):
        if self._cells is None:
            return super().backward(grad_out)
        e, e_window, e_column, sample, window, column = self._cells
        g = grad_out.reshape(len(e), self.out_channels, -1)
        at_electrodes = np.einsum("bj,boj->jo", e, g[:, :, e_window])  # e.T @ g, gathered
        picked = np.concatenate([at_electrodes, g[sample, :, window]])
        dw = np.zeros((self.in_channels * self.kernel**self.ndim, self.out_channels))
        np.add.at(dw, np.concatenate([e_column, column]), picked)  # columns repeat
        self.weight.grad += dw.T.reshape(self.weight.value.shape)
        self.bias.grad += g.sum(axis=(0, 2))
        return None


class Conv2d(_ConvNd):
    """Valid 2-D convolution, weight shape (out_ch, in_ch, k, k)."""

    ndim = 2


class LayerNorm(Layer):
    """Per-sample normalization over all feature axes, with elementwise
    gain and offset of the feature shape.

    Forward allocates two full-size arrays: the centred input, scaled in
    place into xhat, and the squared deviations, whose mean is the variance
    in np.var's own operation order and which then take the output.
    Backward allocates the input gradient, updated in place, and one
    scratch array."""

    def __init__(self, feature_shape: tuple[int, ...], eps: float = LAYER_NORM_EPS,
                 name: str = "ln"):
        self.name = name
        self.feature_shape = tuple(feature_shape)
        self.eps = eps
        self.gain = Parameter(f"{name}.gain", np.ones(self.feature_shape))
        self.offset = Parameter(f"{name}.offset", np.zeros(self.feature_shape))
        self._xhat = None
        self._inv_std = None

    def parameters(self):
        return [self.gain, self.offset]

    @property
    def _axes(self):
        return tuple(range(1, 1 + len(self.feature_shape)))

    def forward(self, x):
        self._check_input(x, self.feature_shape)
        axes = self._axes
        xhat = x - x.mean(axis=axes, keepdims=True)
        squares = np.square(xhat)
        self._inv_std = 1.0 / np.sqrt(squares.mean(axis=axes, keepdims=True) + self.eps)
        xhat *= self._inv_std
        self._xhat = xhat
        np.multiply(self.gain.value, xhat, out=squares)
        squares += self.offset.value
        return squares

    def backward(self, grad_out):
        axes, xhat = self._axes, self._xhat
        scratch = grad_out * xhat
        self.gain.grad += scratch.sum(axis=0)
        self.offset.grad += grad_out.sum(axis=0)
        g = grad_out * self.gain.value
        mean_g = g.mean(axis=axes, keepdims=True)
        mean_gx = np.multiply(g, xhat, out=scratch).mean(axis=axes, keepdims=True)
        g -= mean_g
        g -= np.multiply(xhat, mean_gx, out=scratch)
        g *= self._inv_std
        return g


class ReLU(Layer):
    """max(0, x); a NaN input stays NaN, so a non-finite value inside a net
    reaches its output. The subgradient at exactly zero is taken as zero. A
    non-finite gradient arriving where the mask is off stays non-finite
    (0 * inf is NaN), so it is not silently dropped."""

    def __init__(self, name: str = "relu"):
        self.name = name
        self._mask = None

    def forward(self, x):
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out):
        return grad_out * self._mask


class CollapseDepth(Layer):
    """(batch, c, x, y, z) -> (batch, c*z, x, y): fold depth into channels."""

    def __init__(self, name: str = "collapse_depth"):
        self.name = name
        self._shape = None

    def forward(self, x):
        if x.ndim != 5:
            raise SchemaError(f"layer {self.name}: expected a 5-D input, got shape {x.shape}")
        self._shape = x.shape
        b, c, sx, sy, sz = x.shape
        return np.transpose(x, (0, 1, 4, 2, 3)).reshape(b, c * sz, sx, sy)

    def backward(self, grad_out):
        b, c, sx, sy, sz = self._shape
        return np.transpose(grad_out.reshape(b, c, sz, sx, sy), (0, 1, 3, 4, 2))


class Flatten(Layer):
    def __init__(self, name: str = "flatten"):
        self.name = name
        self._shape = None

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._shape)
