"""Force regression losses and the adaptive alignment weight.

Two per-sample losses are available: a scaled l2 distance that normalizes by
the ground-truth magnitude, and a projected variant that measures the error
only within the support-surface plane (used for planar-pushing ground truth,
which carries no out-of-plane information; note it squares the projected
norm while the scaled loss does not). Both can be multiplied by a weight
2^(beta * (1 - D)) that emphasizes samples whose force direction aligns with
the surface normal, where D is the normalized angular distance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import ConfigError, SchemaError, config_from_dict

MAGNITUDE_FLOOR_N = 0.01  # samples with weaker ground truth are excluded

SOURCE_RIGID_FT = "rigid_ft"
SOURCE_BALL_FT = "ball_ft"
SOURCE_PLANAR = "planar_pushing"
KNOWN_SOURCES = (SOURCE_RIGID_FT, SOURCE_BALL_FT, SOURCE_PLANAR)

LOSS_MODE_CASE = "case_by_source"
LOSS_MODE_PLAIN = "plain_l2"


def _default_psi() -> np.ndarray:
    # horizontal support surface: the world xy-plane
    return np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


@dataclass(frozen=True)
class LossConfig:
    """Loss selection knobs.

    beta weights the alignment emphasis (0 disables it: the weight becomes
    identically 1). psi holds two orthonormal columns spanning the support
    plane in the world frame. mode "case_by_source" picks the projected loss
    for planar-pushing samples and the scaled 3-D loss otherwise; "plain_l2"
    is an unweighted squared-error mode used by the reference MLP baseline.
    """

    beta: float = 1.0
    psi: np.ndarray = field(default_factory=_default_psi)
    magnitude_floor: float = MAGNITUDE_FLOOR_N
    mode: str = LOSS_MODE_CASE

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if psi.shape != (3, 2):
            raise ConfigError(f"psi must be 3x2, got {psi.shape}")
        if not np.allclose(psi.T @ psi, np.eye(2), atol=1e-9):
            raise ConfigError("psi columns must be orthonormal")
        if self.mode not in (LOSS_MODE_CASE, LOSS_MODE_PLAIN):
            raise ConfigError(f"unknown loss mode {self.mode!r}")
        object.__setattr__(self, "psi", psi)

    def to_dict(self) -> dict:
        return {**asdict(self), "psi": self.psi.tolist()}

    from_dict = classmethod(config_from_dict)


def loss_scaled_3d(f_3d: np.ndarray, f_p: np.ndarray) -> float:
    """||f_3d - f_p|| / ||f_3d||."""
    f_3d = np.asarray(f_3d, dtype=float)
    f_p = np.asarray(f_p, dtype=float)
    norm = float(np.linalg.norm(f_3d))
    if norm == 0.0:
        raise SchemaError("scaled loss undefined for zero ground-truth force")
    return float(np.linalg.norm(f_3d - f_p)) / norm


def _grad_scaled_3d(f_3d: np.ndarray, f_p: np.ndarray) -> tuple[float, np.ndarray]:
    norm = float(np.linalg.norm(f_3d))
    diff = f_3d - f_p
    dist = float(np.linalg.norm(diff))
    if dist < 1e-300:  # exact fit: the norm kink, subgradient 0
        return 0.0, np.zeros(3)
    return dist / norm, -diff / (dist * norm)


def loss_projected(
    f_3d: np.ndarray, f_p: np.ndarray, r_wb: np.ndarray, psi: np.ndarray
) -> float:
    """||psi^T R_wb (f_3d - f_p)||^2 / ||f_3d||: in-plane squared error."""
    f_3d = np.asarray(f_3d, dtype=float)
    norm = float(np.linalg.norm(f_3d))
    if norm == 0.0:
        raise SchemaError("projected loss undefined for zero ground-truth force")
    u = np.asarray(psi, dtype=float).T @ (np.asarray(r_wb, dtype=float) @ (f_3d - np.asarray(f_p, dtype=float)))
    return float(u @ u) / norm


def _grad_projected(
    f_3d: np.ndarray, f_p: np.ndarray, r_wb: np.ndarray, psi: np.ndarray
) -> tuple[float, np.ndarray]:
    norm = float(np.linalg.norm(f_3d))
    u = psi.T @ (r_wb @ (f_3d - f_p))
    return float(u @ u) / norm, -2.0 * (r_wb.T @ (psi @ u)) / norm


def cosine_distance(s_n: np.ndarray, f_3d: np.ndarray) -> float:
    """Angle between the surface normal and the force, normalized to [0, 1]."""
    s_n = np.asarray(s_n, dtype=float)
    f_3d = np.asarray(f_3d, dtype=float)
    norm = float(np.linalg.norm(f_3d))
    if norm == 0.0:
        raise SchemaError("cosine distance undefined for zero force")
    cos = float(np.clip(s_n @ f_3d / norm, -1.0, 1.0))
    return math.acos(cos) / math.pi


def alpha_weight(s_n: np.ndarray, f_3d: np.ndarray, beta: float) -> float:
    """2^(beta * (1 - D)): maximal for normal-aligned forces, 1 when opposed."""
    return 2.0 ** (beta * (1.0 - cosine_distance(s_n, f_3d)))


def combined_loss(
    f_3d: np.ndarray,
    f_p: np.ndarray,
    s_n: np.ndarray,
    r_wb: np.ndarray,
    source_tag: str,
    config: LossConfig,
) -> float:
    """Alignment-weighted per-sample loss with the source-dependent case split."""
    loss, _ = _combined_loss_and_grad(
        np.asarray(f_3d, float),
        np.asarray(f_p, float),
        np.asarray(s_n, float),
        np.asarray(r_wb, float),
        source_tag,
        config,
    )
    return loss


def _combined_loss_and_grad(
    f_3d: np.ndarray,
    f_p: np.ndarray,
    s_n: np.ndarray,
    r_wb: np.ndarray,
    source_tag: str,
    config: LossConfig,
) -> tuple[float, np.ndarray]:
    if config.mode == LOSS_MODE_PLAIN:
        diff = f_p - f_3d
        return float(diff @ diff), 2.0 * diff
    if source_tag not in KNOWN_SOURCES:
        raise ConfigError(f"unknown source tag {source_tag!r}")
    if source_tag == SOURCE_PLANAR:
        base, grad = _grad_projected(f_3d, f_p, r_wb, config.psi)
    else:
        base, grad = _grad_scaled_3d(f_3d, f_p)
    weight = alpha_weight(s_n, f_3d, config.beta)
    return weight * base, weight * grad


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
    the gradient rows of skipped samples are zero. One vectorized pass over
    the batch; per sample it computes what combined_loss does.
    """
    predictions = np.asarray(predictions, dtype=float)
    n = predictions.shape[0]
    if n == 0:
        raise SchemaError("empty batch")
    f_3d = np.asarray(f_3d, dtype=float)
    norm = np.linalg.norm(f_3d, axis=1)
    keep = ~(norm < config.magnitude_floor)
    n_kept = int(np.count_nonzero(keep))
    if n_kept == 0:
        raise SchemaError("every sample in the batch fell below the magnitude floor")
    f, norm = f_3d[keep], norm[keep]
    diff = predictions[keep] - f
    if config.mode == LOSS_MODE_PLAIN:
        losses, grads = np.einsum("ij,ij->i", diff, diff), 2.0 * diff
    else:
        tags = np.asarray(source_tags)[keep]
        known = np.isin(tags, KNOWN_SOURCES)
        if not known.all():
            raise ConfigError(f"unknown source tag {str(tags[~known][0])!r}")
        if np.any(norm == 0.0):
            raise SchemaError("loss undefined for zero ground-truth force")
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
    # projected loss |psi^T R_wb diff|^2 / |f|
    u = np.einsum("nij,nj->ni", r_wb, diff) @ config.psi
    projected = np.einsum("ni,ni->n", u, u) / norm
    projected_grad = 2.0 * np.einsum("nji,nj->ni", r_wb, u @ config.psi.T) / norm[:, None]
    cos = np.clip(np.einsum("ni,ni->n", s_n, f) / norm, -1.0, 1.0)
    weight = 2.0 ** (config.beta * (1.0 - np.arccos(cos) / math.pi))
    losses = weight * np.where(planar, projected, scaled)
    grads = weight[:, None] * np.where(planar[:, None], projected_grad, scaled_grad)
    return losses, grads
