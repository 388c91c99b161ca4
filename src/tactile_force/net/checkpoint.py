"""Model checkpoints: a single .npz holding parameter tensors plus a JSON
metadata blob.

The blob is self-describing: the model's build record ("kind" and "args",
enough to rebuild the layers), the featurization record that built its
inputs, the loss config, and free-form training metadata (training stats,
ablation flags, sources).
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import ConfigError, PositiveCount, Required, config_tree, read_config
from ..files import atomic_open
from .losses import LossConfig
from .network import KIND_MLP, KIND_VOXEL, Model, NetworkConfig, build_mlp_net, build_voxel_net

# a checkpoint's metadata blob; "args" is read over BUILD_ARGS, "featurization" by its own reader
CHECKPOINT_META = {"kind": Required(""), "args": Required(None), "featurization": Required(None),
                   "loss_config": None, "metadata": Required(None)}
# the build arguments of each kind of model
BUILD_ARGS = {
    KIND_VOXEL: {"config": Required(config_tree(NetworkConfig)),
                 "input_shape": Required((PositiveCount(1),) * 4)},
    KIND_MLP: {"input_dim": Required(PositiveCount(1)), "hidden_widths": Required([PositiveCount(1)]),
               "seed": Required(0), "layer_norm": Required(True),
               "layer_norm_eps": Required(NetworkConfig.layer_norm_eps)},
}


def save_checkpoint(
    path,
    model: Model,
    *,
    featurization: dict,
    loss_config: LossConfig | None = None,
    metadata: dict | None = None,
) -> None:
    """Write the model parameters, its build record and its featurization."""
    meta = {
        **model.build,
        "featurization": featurization,
        "loss_config": loss_config.to_dict() if loss_config else None,
        "metadata": metadata or {},
    }
    arrays = {f"param_{i:04d}": p.value for i, p in enumerate(model.parameters())}
    with atomic_open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild the model from a checkpoint; returns (model, metadata dict).

    The metadata's "featurization" entry describes the model's inputs. A
    checkpoint whose metadata is not a CHECKPOINT_META, with BUILD_ARGS and
    an object "metadata", is a ConfigError naming the file and the dotted
    key, and so is a missing file or one that is not a .npz.
    """
    try:
        data = np.load(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"checkpoint file not found: {path}") from exc
    except (OSError, ValueError) as exc:  # not a numpy file, or a pickle numpy will not load
        raise ConfigError(f"checkpoint {path} is not a .npz file") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):  # a .npy array
        raise ConfigError(f"checkpoint {path} is not a .npz file")
    with data:
        if "meta" not in data.files:
            raise ConfigError(f"checkpoint {path} missing field 'meta'")
        meta = json.loads(bytes(data["meta"]).decode())
        n_params = sum(1 for k in data.files if k.startswith("param_"))
        state = [data[f"param_{i:04d}"] for i in range(n_params)]
    try:
        meta = read_config(meta, CHECKPOINT_META)
        kind = meta["kind"]
        if kind not in BUILD_ARGS:
            raise ConfigError(f"unknown checkpoint kind {kind!r}")
        if not isinstance(meta["metadata"], dict):
            raise ConfigError(f"field 'metadata' must be an object, got {meta['metadata']!r}")
        args = read_config(meta["args"], BUILD_ARGS[kind], "args")
        if kind == KIND_VOXEL:
            model = build_voxel_net(NetworkConfig(**args["config"]), tuple(args["input_shape"]))
        else:
            model = build_mlp_net(**args)
        model.set_state(state)
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from exc
    return model, meta
