"""Force regression losses and the adaptive alignment weight.

Two losses apply, by sample source: a scaled l2 distance that normalizes by
the ground-truth magnitude, and a projected variant that measures the error
only within the support-surface plane (used for planar-pushing ground truth,
which carries no out-of-plane information; note it squares the projected
norm while the scaled loss does not). Both can be multiplied by a weight
2^(beta * (1 - D)) that emphasizes samples whose force direction aligns with
the surface normal, where D is the normalized angular distance.

Every factor but the error prediction - ground truth depends on the ground
truth alone: the magnitude and the floor, the weight, the source's case and
the plane projection. `loss_targets` builds them once per sample set and
loss config, which is also where an unknown source tag fails, before any
step; `batch_loss_and_grad` reads a batch's slice of them.
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


@dataclass
class LossTargets:
    """The per-sample factors of the loss that depend only on the ground
    truth, built once per sample set by `loss_targets` and sliced for each
    batch with `take`.

    f is the ground truth, (n, 3); keep marks the samples at or above
    MAGNITUDE_FLOOR_N, the only ones the loss counts; norm is |f|, and 1
    below the floor so that no division there fails; weight is the
    alignment weight (1 in plain_l2 mode); proj holds PSI^T R_wb, (2, 3),
    which maps a sensor-frame error to its in-plane part, for the samples
    that take the projected loss alone, and proj_row is each sample's row
    of proj, -1 for the others; plain selects plain_l2. `take` shares proj.
    """

    f: np.ndarray
    keep: np.ndarray
    norm: np.ndarray
    weight: np.ndarray
    proj_row: np.ndarray
    proj: np.ndarray
    plain: bool

    def __len__(self) -> int:
        return len(self.f)

    def take(self, idx) -> "LossTargets":
        return LossTargets(self.f[idx], self.keep[idx], self.norm[idx], self.weight[idx],
                           self.proj_row[idx], self.proj, self.plain)


def loss_targets(
    f_3d: np.ndarray,
    s_n: np.ndarray,
    r_wb: np.ndarray,
    source_tags: np.ndarray,
    config: LossConfig,
) -> LossTargets:
    """The loss targets of a sample set under `config`. Every factor is
    computed row by row, so the targets of a slice of a set equal the
    slice of its targets. In case_by_source mode a sample above the floor
    whose source tag is unknown is a ConfigError naming the tag; a sample
    below it is skipped before its tag is read."""
    f = np.asarray(f_3d, dtype=float)
    n = len(f)
    norm = np.linalg.norm(f, axis=1)
    keep = ~(norm < MAGNITUDE_FLOOR_N)
    norm = np.where(keep, norm, 1.0)
    proj_row = np.full(n, -1)
    if config.mode == LOSS_MODE_PLAIN:
        return LossTargets(f, keep, norm, np.ones(n), proj_row, np.empty((0, 2, 3)), True)
    tags = np.asarray(source_tags)
    unknown = keep & ~np.isin(tags, KNOWN_SOURCES)
    if unknown.any():
        raise ConfigError(f"unknown source tag {str(tags[unknown][0])!r}")
    cos = np.clip(np.einsum("ni,ni->n", np.asarray(s_n, dtype=float), f) / norm, -1.0, 1.0)
    weight = 2.0 ** (config.beta * (1.0 - np.arccos(cos) / math.pi))
    planar = tags == SOURCE_PLANAR
    proj_row[planar] = np.arange(np.count_nonzero(planar))
    proj = np.einsum("ji,njk->nik", PSI, np.asarray(r_wb, dtype=float)[planar])
    return LossTargets(f, keep, norm, weight, proj_row, proj, False)


def batch_loss_and_grad(
    predictions: np.ndarray, targets: LossTargets
) -> tuple[float, np.ndarray, int]:
    """Mean loss over the samples of a batch above the magnitude floor.

    Samples below the floor are excluded and counted. Returns (mean loss,
    gradient w.r.t. predictions, n_skipped); the gradient rows of skipped
    samples are zero, and a batch whose every sample is skipped has loss 0
    and a zero gradient. One vectorized pass over the batch, checked
    against the per-sample oracle in tests/loss_oracles.py.
    """
    predictions = np.asarray(predictions, dtype=float)
    n = predictions.shape[0]
    if n == 0:
        raise SchemaError("empty batch")
    if len(targets) != n:
        raise SchemaError(f"{n} predictions for the targets of {len(targets)} samples")
    keep = targets.keep
    n_kept = int(np.count_nonzero(keep))
    if n_kept == 0:
        return 0.0, np.zeros_like(predictions), n
    diff = predictions - targets.f
    if targets.plain:
        base, base_grad = np.einsum("ij,ij->i", diff, diff), 2.0 * diff
    else:
        base, base_grad = _case_loss_and_grad(diff, targets)
    losses = targets.weight * base
    grads = np.multiply(targets.weight[:, None], base_grad, out=np.zeros_like(predictions),
                        where=keep[:, None])
    grads /= n_kept
    # the sum of the included rows alone, so the mean rounds as their np.mean
    return float(losses[keep].sum() / n_kept), grads, n - n_kept


def _case_loss_and_grad(diff, targets):
    """Per-row unweighted loss and gradient of the case-by-source mode, with
    diff = prediction - ground truth."""
    norm = targets.norm
    # scaled 3-D loss |diff| / |f|; at an exact fit the norm kink, subgradient 0
    dist = np.linalg.norm(diff, axis=1)
    fit = dist < 1e-300
    losses = np.where(fit, 0.0, dist / norm)
    grads = diff / (np.where(fit, 1.0, dist) * norm)[:, None]
    grads[fit] = 0.0
    # projected loss |PSI^T R_wb diff|^2 / |f|, on the planar rows alone
    rows = np.flatnonzero(targets.proj_row >= 0)
    if rows.size:
        norm, proj = norm[rows], targets.proj[targets.proj_row[rows]]
        u = np.einsum("nij,nj->ni", proj, diff[rows])
        losses[rows] = np.einsum("ni,ni->n", u, u) / norm
        grads[rows] = 2.0 * np.einsum("nji,nj->ni", proj, u) / norm[:, None]
    return losses, grads
