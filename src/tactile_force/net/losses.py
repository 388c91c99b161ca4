"""Force regression losses and the adaptive alignment weight.

Two losses apply, by sample source: a scaled l2 distance that normalizes by
the ground-truth magnitude, and a projected variant that measures the error
only within the support-surface plane (used for planar-pushing ground truth,
which carries no out-of-plane information; note it squares the projected
norm while the scaled loss does not). Both can be multiplied by a weight
2^(beta * (1 - D)) that emphasizes samples whose force direction aligns with
the surface normal, where D is the normalized angular distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, SchemaError, check_fields

MAGNITUDE_FLOOR_N = 0.01  # samples with weaker ground truth are excluded

SOURCE_RIGID_FT = "rigid_ft"
SOURCE_BALL_FT = "ball_ft"
SOURCE_PLANAR = "planar_pushing"
KNOWN_SOURCES = (SOURCE_RIGID_FT, SOURCE_BALL_FT, SOURCE_PLANAR)

LOSS_MODE_CASE = "case_by_source"
LOSS_MODE_PLAIN = "plain_l2"

# Psi: two orthonormal columns spanning the support plane in the world frame.
# Every planar push runs on a horizontal, world-aligned surface: the xy-plane.
PSI = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


@dataclass(frozen=True)
class LossConfig:
    """Loss selection knobs.

    beta weights the alignment emphasis (0 disables it: the weight becomes
    identically 1). mode "case_by_source" picks the projected loss for
    planar-pushing samples and the scaled 3-D loss otherwise; "plain_l2" is
    an unweighted squared-error mode used by the reference MLP baseline.
    Samples below MAGNITUDE_FLOOR_N are excluded in either mode.
    """

    beta: float = 1.0
    mode: str = LOSS_MODE_CASE

    def __post_init__(self):
        check_fields(self)
        if self.mode not in (LOSS_MODE_CASE, LOSS_MODE_PLAIN):
            raise ConfigError(f"unknown loss mode {self.mode!r}")


def batch_loss_and_grad(
    predictions: np.ndarray,
    f_3d: np.ndarray,
    s_n: np.ndarray,
    r_wb: np.ndarray,
    source_tags: np.ndarray,
    config: LossConfig,
) -> tuple[float, np.ndarray, int]:
    """Mean loss over the included samples of a batch.

    Samples whose ground-truth magnitude falls below the floor are excluded
    and counted. Returns (mean loss, gradient w.r.t. predictions, n_skipped);
    the gradient rows of skipped samples are zero, and a batch whose every
    sample is skipped has loss 0 and a zero gradient. One vectorized pass over
    the batch, checked against the per-sample oracle in
    tests/loss_oracles.py.
    """
    predictions = np.asarray(predictions, dtype=float)
    n = predictions.shape[0]
    if n == 0:
        raise SchemaError("empty batch")
    f_3d = np.asarray(f_3d, dtype=float)
    norm = np.linalg.norm(f_3d, axis=1)
    keep = ~(norm < MAGNITUDE_FLOOR_N)
    n_kept = int(np.count_nonzero(keep))
    if n_kept == 0:
        return 0.0, np.zeros_like(predictions), n
    f, norm = f_3d[keep], norm[keep]
    diff = predictions[keep] - f
    if config.mode == LOSS_MODE_PLAIN:
        losses, grads = np.einsum("ij,ij->i", diff, diff), 2.0 * diff
    else:
        tags = np.asarray(source_tags)[keep]
        known = np.isin(tags, KNOWN_SOURCES)
        if not known.all():
            raise ConfigError(f"unknown source tag {str(tags[~known][0])!r}")
        losses, grads = _case_loss_and_grad(
            f, diff, norm, np.asarray(s_n, dtype=float)[keep],
            np.asarray(r_wb, dtype=float)[keep], tags == SOURCE_PLANAR, config,
        )
    out = np.zeros_like(predictions)
    out[keep] = grads / n_kept
    return float(np.mean(losses)), out, n - n_kept


def _case_loss_and_grad(f, diff, norm, s_n, r_wb, planar, config):
    """Per-row weighted loss and gradient of the case-by-source mode, with
    diff = prediction - ground truth and norm = |ground truth| > 0."""
    # scaled 3-D loss |diff| / |f|; at an exact fit the norm kink, subgradient 0
    dist = np.linalg.norm(diff, axis=1)
    fit = dist < 1e-300
    scaled = np.where(fit, 0.0, dist / norm)
    scaled_grad = diff / (np.where(fit, 1.0, dist) * norm)[:, None]
    scaled_grad[fit] = 0.0
    # projected loss |PSI^T R_wb diff|^2 / |f|
    u = np.einsum("nij,nj->ni", r_wb, diff) @ PSI
    projected = np.einsum("ni,ni->n", u, u) / norm
    projected_grad = 2.0 * np.einsum("nji,nj->ni", r_wb, u @ PSI.T) / norm[:, None]
    cos = np.clip(np.einsum("ni,ni->n", s_n, f) / norm, -1.0, 1.0)
    weight = 2.0 ** (config.beta * (1.0 - np.arccos(cos) / math.pi))
    losses = weight * np.where(planar, projected, scaled)
    grads = weight[:, None] * np.where(planar[:, None], projected_grad, scaled_grad)
    return losses, grads
