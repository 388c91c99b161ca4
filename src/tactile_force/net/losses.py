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
from dataclasses import dataclass, field

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
        return {
            "beta": self.beta,
            "psi": self.psi.tolist(),
            "magnitude_floor": self.magnitude_floor,
            "mode": self.mode,
        }

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
    the gradient rows of skipped samples are zero.
    """
    predictions = np.asarray(predictions, dtype=float)
    n = predictions.shape[0]
    if n == 0:
        raise SchemaError("empty batch")
    grads = np.zeros_like(predictions)
    losses = []
    skipped = 0
    for i in range(n):
        if float(np.linalg.norm(f_3d[i])) < config.magnitude_floor:
            skipped += 1
            continue
        loss, grad = _combined_loss_and_grad(
            f_3d[i], predictions[i], s_n[i], r_wb[i], str(source_tags[i]), config
        )
        losses.append(loss)
        grads[i] = grad
    if not losses:
        raise SchemaError("every sample in the batch fell below the magnitude floor")
    return float(np.mean(losses)), grads / len(losses), skipped
