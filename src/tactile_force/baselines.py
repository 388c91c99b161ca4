"""The per-axis linear electrode model, the reference the learned models
are compared against.

The linear model predicts each force axis as a scale factor times the
electrode-weighted sum of electrode orientations along that axis; the scale
factors are fit by per-axis least squares through the origin. The other
baseline, the MLP that stands in for earlier feed-forward approaches, is a
network: net.network.build_mlp_net builds it, and `train --model
mlp-baseline` trains it with an unweighted squared-error loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import load_json
from .errors import DegenerateInputError, Required, SchemaError, read_config
from .files import write_text_atomic
from .sensor import N_ELECTRODES, ElectrodeLayout

AXES = ("x", "y", "z")
# a linear model file: the per-axis scale factors and the layout they were fitted on
LINEAR_MODEL_RECORD = {"S": Required((0.0, 0.0, 0.0)), "layout": Required(None)}


@dataclass(frozen=True)
class LinearModel:
    """Per-axis scale factors over electrode-orientation features."""

    scale: np.ndarray  # (3,), per-axis factors
    layout: ElectrodeLayout

    def to_json(self, path) -> None:
        """Write {"S", "layout"}: the scale factors and the layout whose
        electrode orientations they multiply."""
        write_text_atomic(path, json.dumps({"S": self.scale.tolist(), "layout": self.layout.to_dict()}))

    @classmethod
    def from_json(cls, path) -> "LinearModel":
        """The model in a linear model file; a bad file is a ConfigError naming it."""
        def read(data):
            values = read_config(data, LINEAR_MODEL_RECORD)
            return cls(scale=np.array(values["S"], dtype=float),
                       layout=ElectrodeLayout.from_dict(values["layout"], "layout"))

        return load_json(path, "linear model", read)


def electrode_features(layout: ElectrodeLayout, e: np.ndarray) -> np.ndarray:
    """Per-axis sums of electrode values weighted by electrode orientations."""
    e = np.asarray(e, dtype=float)
    if e.shape[-1] != N_ELECTRODES:
        raise SchemaError(f"expected {N_ELECTRODES} electrode values, got shape {e.shape}")
    return e @ layout.normals


def linear_predict(model: LinearModel, e: np.ndarray) -> np.ndarray:
    """Predicted 3-D force: scale * per-axis electrode-orientation sum."""
    return model.scale * electrode_features(model.layout, e)


def linear_fit(
    e_samples: np.ndarray, f_samples: np.ndarray, layout: ElectrodeLayout
) -> LinearModel:
    """Fit the per-axis scale factors by least squares through the origin.

    Requires at least 3 samples and nonzero feature variance on every axis;
    a constant feature column leaves that axis unidentifiable.
    """
    e_samples = np.asarray(e_samples, dtype=float)
    f_samples = np.asarray(f_samples, dtype=float)
    if e_samples.ndim != 2 or f_samples.shape != (e_samples.shape[0], 3):
        raise SchemaError(f"expected (n, {N_ELECTRODES}) electrode samples and (n, 3) forces")
    if e_samples.shape[0] < 3:
        raise DegenerateInputError(
            f"need at least 3 samples to fit, got {e_samples.shape[0]}"
        )
    features = electrode_features(layout, e_samples)  # (n, 3)
    scale = np.empty(3)
    for axis in range(3):
        x = features[:, axis]
        if np.var(x) < 1e-18:
            raise DegenerateInputError(
                f"zero feature variance on axis {AXES[axis]}; fit is degenerate"
            )
        scale[axis] = float(x @ f_samples[:, axis]) / float(x @ x)
    return LinearModel(scale=scale, layout=layout)
