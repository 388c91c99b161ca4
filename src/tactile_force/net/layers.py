"""Differentiable layers with hand-written forward/backward passes.

Every layer caches what its backward pass needs during forward, accumulates
parameter gradients into Parameter.grad, and returns the gradient with
respect to its input; VoxelConv3d, the first layer of a voxel net, returns
None for it instead. Conv, VoxelConv3d and Dense return fresh arrays and
keep their input, not their output; LayerNormReLU, the layer norm and ReLU
that follow each of them, works in place on those fresh arrays and keeps
its own output, mask and scratch arrays from step to step.
A layer owns its parameter arrays until a Model packs them into its flat
value and gradient buffers; from then on each Parameter.value and .grad is
a view of its slice there, so layers only ever write them in place.
A layer is built in one floating dtype, float32 unless its builder is given
another: its parameters are drawn in float64 and cast to it, and every
array it makes, activations, gradients and kept buffers, is of the dtype of
its parameters. A layer does not cast its input; a Model casts it once.

Activations and their gradients are C-contiguous (batch, features) rows.
In a voxel net the features of a grid are window-major: the cells of each
window of the next convolution are adjacent, channels innermost, and the
windows come in the order the convolution after that reads them
(network.window_major_orders). Convolutions are "valid", with kernel =
stride = KERNEL, on grids they tile, so each is a reshape of its input into
one row per window and one matmul. Parameters keep their logical shapes
(a layer norm's gain after a 3-D convolution is (channels, x, y, z)); a
layer whose features come in another order reaches them through one fixed
index permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import SchemaError
from ..voxel import VoxelInputs

KERNEL = 2  # kernel and stride of every convolution: windows never overlap
LAYER_NORM_EPS = 1e-5  # the epsilon of every layer norm
DEFAULT_DTYPE = np.float32  # the dtype a layer, and a net, is built in unless given another


@dataclass
class Parameter:
    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.asarray(self.value)
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


def _fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
                    dtype=np.float64) -> np.ndarray:
    """Drawn in float64 whatever the dtype, so a net's parameters in any
    dtype are its float64 ones cast to it."""
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype, copy=False)


def _row_order(order: np.ndarray | None):
    """The index that takes a parameter's flat logical values into row
    order, from the logical index of each row feature: a slice, so a view,
    where the two orders agree."""
    if order is None or np.array_equal(order, np.arange(len(order))):
        return slice(None)
    return np.asarray(order)


class Dense(Layer):
    """x @ weight + bias; `order`, if given, is the weight row (the logical
    input feature) of each input column."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "dense",
                 order: np.ndarray | None = None, dtype=DEFAULT_DTYPE):
        self.name = name
        self.in_dim, self.out_dim = in_dim, out_dim
        self.weight = Parameter(f"{name}.weight",
                                _fan_in_uniform(rng, (in_dim, out_dim), in_dim, dtype))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_dim, dtype))
        self._order = _row_order(order)
        self._x = None

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x):
        self._check_input(x, (self.in_dim,))
        self._x = x
        return x @ self.weight.value[self._order] + self.bias.value

    def backward(self, grad_out):
        self.weight.grad[self._order] += self._x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value[self._order].T


class Conv(Layer):
    """Valid convolution with kernel = stride = KERNEL on window-major rows.

    The input holds `windows` windows of k = in_channels * depth *
    KERNEL^ndim adjacent values each, in (dx, dy, dz or z, c) order, so one
    reshape gives one row per window, forward is one matmul, and the output
    is (batch, windows * out_channels), channels innermost. The weight keeps
    its logical shape: (out_ch, in_ch, dx, dy, dz) in 3-D, and in 2-D, over
    a grid of depth `depth` folded into the channels as c * depth + z,
    (out_ch, in_ch * depth, dx, dy). Its matrix takes the columns in row
    order, and its gradient is added through the same transposed view.
    """

    def __init__(self, in_channels: int, out_channels: int, windows: int,
                 rng: np.random.Generator, name: str, ndim: int = 3, depth: int = 1,
                 dtype=DEFAULT_DTYPE):
        self.name = name
        self.out_channels, self.windows = out_channels, windows
        self.window_size = in_channels * depth * KERNEL**ndim
        self.weight = Parameter(f"{name}.weight", _fan_in_uniform(
            rng, (out_channels, in_channels * depth) + (KERNEL,) * ndim, self.window_size, dtype))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_channels, dtype))
        # the weight's axes split as (out_ch, in_ch, depth, dx, dy[, dz]), then in row order
        self._split = (out_channels, in_channels, depth) + (KERNEL,) * ndim
        self._axes = (0, *range(3, 3 + ndim), 2, 1)
        self._rows = None

    def parameters(self):
        return [self.weight, self.bias]

    def _columns(self, array):
        """A weight-shaped array as a view with its input axes in row order."""
        return array.reshape(self._split).transpose(self._axes)

    def _matrix(self):
        return self._columns(self.weight.value).reshape(self.out_channels, -1)

    def _add_grads(self, dw, grad_out):
        """Add dw, (out_ch, window_size) in row order, to the weight's
        gradient, and grad_out summed over samples and windows to the
        bias's (summing whole rows first, which numpy does fastest)."""
        columns = self._columns(self.weight.grad)
        columns += dw.reshape(columns.shape)
        self.bias.grad += grad_out.sum(axis=0).reshape(-1, self.out_channels).sum(axis=0)

    def forward(self, x):
        self._check_input(x, (self.windows * self.window_size,))
        self._rows = x.reshape(-1, self.window_size)
        out = self._rows @ self._matrix().T
        out += self.bias.value
        return out.reshape(len(x), -1)

    def backward(self, grad_out):
        g = grad_out.reshape(-1, self.out_channels)  # (batch * windows, out_ch)
        self._add_grads(g.T @ self._rows, grad_out)
        return (g @ self._matrix()).reshape(len(grad_out), -1)


class VoxelConv3d(Conv):
    """A voxel net's first layer: a 3-D convolution of a grid of shape
    `grid`, (channels, x, y, z), that reads a VoxelInputs batch as the
    electrode values and one contact cell it holds.

    `cells` is the flat grid index of each row feature: every window's cells
    adjacent in (dx, dy, dz, c) order. A dense input is gathered into rows
    by it and takes the Conv path. For a VoxelInputs batch, windows do not
    overlap, so each cell feeds exactly one output window through one weight
    column. The electrode cells are the same for every sample, so their part
    is e @ A, with A holding each electrode's weight column at its window;
    the contact part adds the contact cell's column at its window. The weight
    gradient gathers e.T @ grad_out at the electrode windows and grad_out at
    the contact windows. backward returns None: the input is data, so no
    input gradient is needed. A batch's e, which VoxelInputs holds in
    float64, is cast to the layer's dtype.
    """

    def __init__(self, out_channels: int, grid: tuple[int, int, int, int], cells: np.ndarray,
                 rng: np.random.Generator, name: str = "conv3d_0", dtype=DEFAULT_DTYPE):
        c, *dims = grid
        super().__init__(c, out_channels, math.prod(dims) // KERNEL**3, rng, name, dtype=dtype)
        self.grid = tuple(grid)
        self._cells = np.asarray(cells)
        # each grid cell's window and weight column
        self._window, self._column = np.divmod(np.argsort(self._cells), self.window_size)
        self._inputs = None

    def forward(self, x):
        self._check_input(x, self.grid)
        if not isinstance(x, VoxelInputs):
            self._inputs = None
            return super().forward(x.reshape(len(x), -1)[:, self._cells])
        b, n, w = len(x), x.electrodes.size, self._matrix()
        e = x.e.astype(w.dtype, copy=False)
        e_window, e_column = self._window[x.electrodes], self._column[x.electrodes]
        window, column = self._window[x.contact], self._column[x.contact]
        a = np.zeros((n, self.windows, self.out_channels), w.dtype)
        a[np.arange(n), e_window] = w[:, e_column].T
        out = (e @ a.reshape(n, -1)).reshape(b, self.windows, self.out_channels)
        out += self.bias.value
        sample = np.arange(b)
        out[sample, window] += w[:, column].T  # one contact, so one window, per sample
        self._inputs = (e, e_window, e_column, sample, window, column)
        return out.reshape(b, -1)

    def backward(self, grad_out):
        if self._inputs is None:
            super().backward(grad_out)
            return None
        e, e_window, e_column, sample, window, column = self._inputs
        g = grad_out.reshape(len(e), self.windows, self.out_channels)
        # e.T @ g, gathered: one (1, b) @ (b, out) product per electrode
        at_electrodes = (e.T[:, None, :] @ np.take(g, e_window, axis=1).transpose(1, 0, 2))[:, 0]
        picked = np.concatenate([at_electrodes, g[sample, window]])
        dw = np.zeros((self.window_size, self.out_channels), g.dtype)
        np.add.at(dw, np.concatenate([e_column, column]), picked)  # columns repeat
        self._add_grads(dw.T, grad_out)
        return None


class LayerNormReLU(Layer):
    """relu(gain * xhat + offset), xhat the per-sample normalization of
    (batch, features) rows, with elementwise gain and offset of the logical
    `feature_shape`; `order`, if given, is the flat logical index of each
    row feature. A NaN input stays NaN, so a non-finite value inside a net
    reaches its output. The subgradient at exactly zero is taken as zero,
    and a non-finite gradient arriving where the output is zero stays
    non-finite (0 * inf is NaN), so it is not silently dropped.

    It works in place: forward normalizes the array it is given into xhat
    and keeps it, and backward updates the gradient it is given and returns
    it. That is safe because in a net it always follows a Conv, VoxelConv3d
    or Dense and precedes a Conv or Dense. Those return a fresh array that
    nothing else holds (they keep their input, not their output), both the
    activation this layer gets and the input gradient of the layer after
    it. The output, its mask and one scratch array are kept from step to
    step and reused, as a prefix, for every batch no larger than the
    largest each has served, so a step maps no fresh pages for them; the
    mask and scratch are sized by backward, so evaluating batches larger
    than the training batch allocates only the output. Row means are BLAS
    mat-vecs and sums of squares and products einsums, so no pass makes a
    temporary copy of the rows."""

    def __init__(self, feature_shape: tuple[int, ...], name: str = "ln",
                 order: np.ndarray | None = None, dtype=DEFAULT_DTYPE):
        self.name = name
        self.feature_shape = tuple(feature_shape)
        self.gain = Parameter(f"{name}.gain", np.ones(self.feature_shape, dtype))
        self.offset = Parameter(f"{name}.offset", np.zeros(self.feature_shape, dtype))
        self._order = _row_order(order)
        n = math.prod(self.feature_shape)
        self._mean_weights = np.full(n, 1.0 / n, dtype)  # x @ these is the row mean
        self._xhat = self._inv_std = None
        # the kept arrays: the output grown by forward, the mask and scratch by backward
        self._out, self._scratch = np.empty((0, n), dtype), np.empty((0, n), dtype)
        self._mask = np.empty((0, n), dtype=bool)

    def parameters(self):
        return [self.gain, self.offset]

    def _in_rows(self, array):
        """A gain- or offset-shaped array as a vector in row order."""
        return array.reshape(-1)[self._order]

    def forward(self, x):
        self._check_input(x, self._mean_weights.shape)
        b, n = x.shape
        if b > len(self._out):
            self._out = np.empty((b, n), self._out.dtype)
        x -= (x @ self._mean_weights)[:, None]
        inv_std = np.einsum("ij,ij->i", x, x)
        inv_std /= n
        inv_std += LAYER_NORM_EPS
        np.divide(1.0, np.sqrt(inv_std, out=inv_std), out=inv_std)
        x *= inv_std[:, None]
        self._xhat, self._inv_std = x, inv_std
        out = np.multiply(x, self._in_rows(self.gain.value), out=self._out[:b])
        out += self._in_rows(self.offset.value)
        return np.maximum(out, 0.0, out=out)

    def backward(self, grad_out):
        g, xhat = grad_out, self._xhat
        b = len(g)
        if b > len(self._mask):
            self._mask = np.empty(g.shape, dtype=bool)
            self._scratch = np.empty(g.shape, self._scratch.dtype)
        g *= np.greater(self._out[:b], 0.0, out=self._mask[:b])
        self.gain.grad.reshape(-1)[self._order] += np.einsum("ij,ij->j", g, xhat)
        self.offset.grad.reshape(-1)[self._order] += g.sum(axis=0)
        g *= self._in_rows(self.gain.value)
        mean_g = g @ self._mean_weights
        mean_gx = np.einsum("ij,ij->i", g, xhat)
        mean_gx /= len(self._mean_weights)
        g -= mean_g[:, None]
        g -= np.multiply(xhat, mean_gx[:, None], out=self._scratch[:b])
        g *= self._inv_std[:, None]
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
