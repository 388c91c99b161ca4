"""Force regression models assembled from the layer primitives.

The voxel model follows the fixed pattern: a stack of 3-D convolutions, one
2-D convolution over the depth axis folded into channels, then fully
connected layers down to the 3-vector force output, with layer norm and
ReLU after every convolutional and fully connected layer except the output.
All convolutions use kernel = stride = KERNEL, and every activation is a
window-major (batch, features) array. Each layer norm and its ReLU are one
in-place LayerNormReLU, which the builders only ever put between a
convolution or dense layer and the next one, as its in-place contract
requires; the MLP baseline (layer_norm=False) has plain ReLUs.

A net is built in one dtype, float32 unless the builder is given another,
which the builder gives every layer. The loss and metrics stay float64:
they cast a net's predictions when they read them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError, Count, Items, NumericalError, PositiveCount, check_fields
from ..sensor import N_ELECTRODES
from ..voxel import VoxelInputs
from .layers import (
    DEFAULT_DTYPE, KERNEL, Conv, Dense, Layer, LayerNormReLU, Parameter, ReLU, VoxelConv3d,
)

OUTPUT_DIM = 3
FLAT_INPUT_WIDTH = N_ELECTRODES + 3  # an MLP's input: (e, s_c)

KIND_VOXEL = "voxel_net"
KIND_MLP = "mlp_net"


@dataclass(frozen=True)
class NetworkConfig:
    """Voxel network hyperparameters: channel counts and fully connected
    widths (every convolution has kernel = stride = KERNEL)."""

    conv3d_channels: tuple[int, ...] = Items((PositiveCount(8), PositiveCount(16)), least=1)
    conv2d_channels: int = PositiveCount(32)
    fc_widths: tuple[int, ...] = Items((PositiveCount(128), PositiveCount(64)))
    seed: int = Count(0)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "conv3d_channels", tuple(int(c) for c in self.conv3d_channels))
        object.__setattr__(self, "fc_widths", tuple(int(w) for w in self.fc_widths))


def _all_finite(array: np.ndarray) -> bool:
    # min and max are NaN if any entry is, and read without writing a mask
    return bool(np.isfinite(array.min()) and np.isfinite(array.max()))


class Model:
    """Sequential container over layers whose parameters live in two flat
    buffers, `values` and `grads`, of the dtype the layers were built in:
    each Parameter's value and grad are reshaped views of one slice, in
    parameters() order (the order of checkpoints). Write a parameter in
    place; rebinding it detaches it. forward casts a dense input, and
    backward the gradient it is given, to that dtype, once each; a
    VoxelInputs batch is passed on as it is, and the first layer casts its e.

    `build` is the JSON-able record that rebuilds the model: its kind
    ("voxel_net" or "mlp_net") and the arguments build_voxel_net or
    build_mlp_net was called with, but a voxel net's input shape, which a
    checkpoint takes from its featurization record, and the dtype, which it
    takes from its tensors.
    """

    def __init__(self, layers: list[Layer], build: dict):
        self.layers = layers
        self.build = build
        params = self.parameters()
        self.values = np.concatenate([p.value.ravel() for p in params])
        self.grads = np.zeros_like(self.values)
        start = 0
        for p in params:
            end = start + p.value.size
            p.value = self.values[start:end].reshape(p.value.shape)
            p.grad = self.grads[start:end].reshape(p.value.shape)
            start = end

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def forward(self, x: np.ndarray | VoxelInputs) -> np.ndarray:
        x = x if isinstance(x, VoxelInputs) else np.asarray(x, dtype=self.values.dtype)
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        if not np.all(np.isfinite(out)):
            self._raise_non_finite(x)
        return out

    def _raise_non_finite(self, x) -> None:
        """Walk the layers again on x and name the first whose output is not
        finite; it is not checked per layer on the way to a finite output."""
        out = x
        for layer in self.layers:
            out = layer.forward(out)
            if not np.all(np.isfinite(out)):
                break
        raise NumericalError(f"non-finite network output, first from layer {layer.name}")

    def backward(self, grad_out: np.ndarray) -> None:
        """Accumulate every parameter's gradient; grad_out is left as it is.
        The input is data: its gradient is not returned, and a voxel net's
        first layer does not return it (it returns None).

        Finiteness is checked once, on the gradient buffer and the first
        layer's returned gradient: a non-finite gradient out of any later
        layer reaches some bias or offset gradient, which sums it over the
        batch."""
        grad = grad_out = np.asarray(grad_out, dtype=self.values.dtype)
        with np.errstate(invalid="ignore"):  # reported below, naming the layer
            for layer in reversed(self.layers):
                grad = layer.backward(grad)
        if not (_all_finite(self.grads) and (grad is None or _all_finite(grad))):
            self._raise_non_finite_gradient(grad_out)

    def _raise_non_finite_gradient(self, grad_out) -> None:
        """Zero the gradients, walk the layers back again and name the first
        whose returned gradient is not finite or, if every one is, the first
        parameter whose gradient was not."""
        bad = next((p for p in self.parameters() if not _all_finite(p.grad)), None)
        self.zero_grad()
        grad = grad_out
        with np.errstate(invalid="ignore"):
            for layer in reversed(self.layers):
                grad = layer.backward(grad)
                if grad is not None and not _all_finite(grad):
                    raise NumericalError(f"non-finite gradient flowing out of layer {layer.name}")
        raise NumericalError(f"non-finite gradient of parameter {bad.name}")

    def set_state(self, state: list[np.ndarray]) -> None:
        """Write one array per parameter, in parameters() order, in place."""
        params = self.parameters()
        if len(state) != len(params):
            raise ConfigError(
                f"state has {len(state)} tensors, model has {len(params)} parameters"
            )
        for p, value in zip(params, state):
            if p.value.shape != value.shape:
                raise ConfigError(
                    f"parameter {p.name}: shape {p.value.shape} != stored {value.shape}"
                )
            p.value[...] = value


def window_major_orders(dims: tuple[int, int, int], channels: tuple[int, ...]) -> list[np.ndarray]:
    """The row order of every grid a voxel net on a grid of `dims` (x, y, z)
    reads or writes, the input first and the 2-D convolution's output last:
    for each, the flat logical (c, x, y, z) index of every row feature.
    `channels` holds the grids' channel counts, so the net has
    len(channels) - 2 3-D convolutions.

    The 2-D convolution's output positions are in (x, y) order. Going down,
    each position becomes the cells of the window that computed it, in
    (dx, dy, dz) order, or (dx, dy, z) over the whole depth for the 2-D
    convolution. Channels are innermost throughout."""
    n = len(channels) - 2
    sx, sy, sz = dims
    grids = [(sx // KERNEL**i, sy // KERNEL**i, sz // KERNEL**i) for i in range(n + 1)]
    grids.append((sx // KERNEL ** (n + 1), sy // KERNEL ** (n + 1), 1))
    pos = np.indices(grids[-1]).reshape(3, -1)
    orders = []
    for level in range(n + 1, -1, -1):
        cells = np.ravel_multi_index(pos, grids[level])
        orders.append((cells[:, None] + cells.size * np.arange(channels[level])).ravel())
        if level:
            window = tuple(a // b for a, b in zip(grids[level - 1], grids[level]))
            offsets = np.indices(window).reshape(3, 1, -1)
            pos = (pos[:, :, None] * np.reshape(window, (3, 1, 1)) + offsets).reshape(3, -1)
    return orders[::-1]


def build_voxel_net(config: NetworkConfig, input_shape: tuple[int, int, int, int],
                    dtype=DEFAULT_DTYPE) -> Model:
    """Assemble the voxel force network for an input of shape (channels, x,
    y, z), in `dtype`. Every convolution must tile its input exactly, so
    that each cell reaches the output: with n 3-D convolutions, x and y
    must be positive multiples of 2^(n+1) (the 2-D one halves them once
    more) and z of 2^n; any other grid is a ConfigError."""
    c, sx, sy, sz = input_shape
    n = len(config.conv3d_channels)
    xy, z = KERNEL ** (n + 1), KERNEL ** n
    if min(sx, sy, sz) < 1 or sx % xy or sy % xy or sz % z:
        raise ConfigError(
            f"voxel grid {sx}x{sy}x{sz} is not tiled by the net's convolutions: with {n} 3-D "
            f"convolutions x and y must be positive multiples of {xy} and z of {z}"
        )
    orders = window_major_orders(
        (sx, sy, sz), (c, *config.conv3d_channels, config.conv2d_channels))
    rng = np.random.default_rng(config.seed)
    layers: list[Layer] = []
    for i, out_ch in enumerate(config.conv3d_channels):
        sx, sy, sz = sx // KERNEL, sy // KERNEL, sz // KERNEL
        # the first layer reads the voxel inputs, whose gradient nothing needs
        if i == 0:
            layers.append(VoxelConv3d(out_ch, input_shape, orders[0], rng, dtype=dtype))
        else:
            layers.append(Conv(c, out_ch, sx * sy * sz, rng, name=f"conv3d_{i}", dtype=dtype))
        c = out_ch
        layers.append(LayerNormReLU((c, sx, sy, sz), name=f"ln_conv3d_{i}", order=orders[i + 1],
                                    dtype=dtype))
    sx, sy = sx // KERNEL, sy // KERNEL
    layers.append(Conv(c, config.conv2d_channels, sx * sy, rng, name="conv2d", ndim=2, depth=sz,
                       dtype=dtype))
    c = config.conv2d_channels
    layers.append(LayerNormReLU((c, sx, sy), name="ln_conv2d", order=orders[-1], dtype=dtype))
    # fc_0's weight rows are the (c, x, y) flattening, read in ln_conv2d's row order
    layers += _dense_tail(c * sx * sy, config.fc_widths, rng, layer_norm=True, dtype=dtype,
                          order=orders[-1])
    return Model(layers, {"kind": KIND_VOXEL, "args": {"config": asdict(config)}})


def build_mlp_net(hidden_widths: tuple[int, ...], seed: int = 0, layer_norm: bool = True,
                  dtype=DEFAULT_DTYPE) -> Model:
    """Plain fully connected force regressor on the flat (e, s_c) vector of
    FLAT_INPUT_WIDTH values, in `dtype`."""
    if not hidden_widths:
        raise ConfigError("hidden_widths must hold at least one width")
    widths = [int(w) for w in hidden_widths]
    layers = _dense_tail(FLAT_INPUT_WIDTH, widths, np.random.default_rng(seed), layer_norm, dtype)
    return Model(layers, {"kind": KIND_MLP,
                          "args": dict(hidden_widths=widths, seed=seed, layer_norm=layer_norm)})


def _dense_tail(dim: int, widths, rng: np.random.Generator, layer_norm: bool, dtype,
                order: np.ndarray | None = None) -> list[Layer]:
    """A Dense layer per width on `dim` inputs, each followed by its
    LayerNormReLU (a plain ReLU without layer_norm), then the fc_out layer;
    `order` is fc_0's weight row order."""
    layers: list[Layer] = []
    for i, width in enumerate(widths):
        layers.append(Dense(dim, width, rng, name=f"fc_{i}", order=order, dtype=dtype))
        layers.append(LayerNormReLU((width,), name=f"ln_fc_{i}", dtype=dtype) if layer_norm
                      else ReLU(name=f"relu_fc_{i}"))
        dim, order = width, None
    return layers + [Dense(dim, OUTPUT_DIM, rng, name="fc_out", dtype=dtype)]
