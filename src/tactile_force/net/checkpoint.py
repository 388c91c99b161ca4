"""Model checkpoints: a single .npz holding parameter tensors plus a JSON
metadata blob.

The blob is self-describing: the model's build record ("kind" and "args",
enough to rebuild the layers), for a voxel net the featurization record
that builds its inputs and whose grid gives its input shape, the loss
config, and free-form training metadata (training stats, ablation flags,
sources). An MLP reads the flat (e, s_c) vector, so it has no
featurization record. The tensors are of the dtype the model was built in,
float32 or float64, and it is rebuilt in theirs, which the blob does not
restate.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from ..errors import (
    ConfigError, Count, Items, PositiveCount, Required, SchemaError, config_tree, read_config,
)
from ..files import atomic_open, open_input
from ..voxel import N_CHANNELS, GridSpec
from .losses import LossConfig
from .layers import DEFAULT_DTYPE
from .network import KIND_MLP, KIND_VOXEL, Model, NetworkConfig, build_mlp_net, build_voxel_net

# the dtypes a model is saved in; all its tensors share one
TENSOR_DTYPES = (np.float32, np.float64)

# a checkpoint's metadata blob of each kind of model; the featurization's
# grid and layout, and "metadata", have their own readers
CHECKPOINT_META = {
    KIND_VOXEL: {"kind": "", "args": Required({"config": Required(config_tree(NetworkConfig))}),
                 "featurization": Required({"grid": Required(None), "layout": Required(None)}),
                 "loss_config": None, "metadata": Required(None)},
    KIND_MLP: {"kind": "", "args": Required({"hidden_widths": Required(Items((PositiveCount(1),))),
                                             "seed": Required(Count(0)),
                                             "layer_norm": Required(True)}),
               "loss_config": None, "metadata": Required(None)},
}


def save_checkpoint(
    path,
    model: Model,
    *,
    featurization: dict | None = None,
    loss_config: LossConfig | None = None,
    metadata: dict | None = None,
) -> None:
    """Write the model parameters, its build record and, for a voxel net,
    the featurization record of its grid, which an MLP must not be given."""
    grid = None if featurization is None else (N_CHANNELS, *featurization["grid"]["dims"])
    if grid != (model.layers[0].grid if model.build["kind"] == KIND_VOXEL else None):
        raise ValueError("a voxel net is saved with the featurization record of its grid, an MLP "
                         "with none")
    meta = {
        **model.build,
        **({"featurization": featurization} if grid else {}),
        "loss_config": asdict(loss_config) if loss_config else None,
        "metadata": metadata or {},
    }
    arrays = {f"param_{i:04d}": p.value for i, p in enumerate(model.parameters())}
    with atomic_open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild the model from a checkpoint; returns (model, metadata dict).

    A voxel net is rebuilt on its featurization record's grid, and any
    model in the dtype of its tensors. A checkpoint whose metadata blob is
    not the JSON of the CHECKPOINT_META of its kind with an object
    "metadata", or whose tensors are not param_0000 to param_{n-1}, all
    float32 or all float64, or do not fit the net it records, is a
    ConfigError naming the file and the dotted key or tensor, and so is a
    file that cannot be opened or is not a .npz.
    """
    with open_input(path, "checkpoint", ConfigError, "rb") as fh:
        try:
            data = np.load(fh)
        except (OSError, ValueError, EOFError) as exc:  # not a numpy file, a pickle, empty
            raise ConfigError(f"checkpoint {path}: not a .npz file") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):  # a .npy array
            raise ConfigError(f"checkpoint {path}: not a .npz file")
        with data:
            if "meta" not in data.files:
                raise ConfigError(f"checkpoint {path}: missing field 'meta'")
            try:
                meta = json.loads(bytes(data["meta"]).decode())
            except ValueError as exc:  # not UTF-8 JSON, or a pickled array
                raise ConfigError(f"checkpoint {path}: field 'meta' is not a JSON blob: "
                                  f"{exc}") from exc
            names, state = [f"param_{i:04d}" for i in range(len(data.files) - 1)], []
            for name in names:
                if name not in data.files:
                    raise ConfigError(f"checkpoint {path}: missing tensor {name!r} of "
                                      f"{names[0]} to {names[-1]}")
                try:
                    state.append(data[name])
                except ValueError as exc:  # a pickled array
                    raise ConfigError(f"checkpoint {path}: tensor {name!r}: {exc}") from exc
                if state[-1].dtype not in TENSOR_DTYPES or state[-1].dtype != state[0].dtype:
                    raise ConfigError(f"checkpoint {path}: tensor {name!r} has dtype "
                                      f"{state[-1].dtype}: a checkpoint's tensors are all "
                                      f"float32 or all float64 ({names[0]} is {state[0].dtype})")
    dtype = state[0].dtype if state else DEFAULT_DTYPE
    try:
        kind = meta.get("kind") if isinstance(meta, dict) else None
        if kind not in CHECKPOINT_META:
            raise ConfigError(f"field 'kind' must be {KIND_VOXEL!r} or {KIND_MLP!r}, got {kind!r}")
        meta = read_config(meta, CHECKPOINT_META[kind])
        if not isinstance(meta["metadata"], dict):
            raise ConfigError(f"field 'metadata' must be an object, got {meta['metadata']!r}")
        if kind == KIND_VOXEL:
            spec = GridSpec.from_config(meta["featurization"]["grid"], "featurization.grid")
            config = NetworkConfig(**meta["args"]["config"])
            model = build_voxel_net(config, (N_CHANNELS, *spec.dims), dtype)
        else:
            model = build_mlp_net(**meta["args"], dtype=dtype)
        model.set_state(state)
    except (ConfigError, SchemaError) as exc:  # GridSpec raises SchemaError on its dims and bounds
        raise ConfigError(f"checkpoint {path}: {exc}") from exc
    return model, meta
