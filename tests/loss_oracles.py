"""Per-sample force-regression losses, kept as the oracle of the batch loss.

`net.losses.batch_loss_and_grad` computes the loss and gradient of a whole
batch in one vectorized pass. The functions here compute them one sample at
a time, term by term as the loss is defined: the scaled 3-D loss, the
projected in-plane loss over the support plane `PSI`, the cosine distance
and the alignment weight, and their source-dependent combination.
"""

from __future__ import annotations

import math

import numpy as np

from tactile_force.errors import ConfigError, SchemaError
from tactile_force.net.losses import (
    KNOWN_SOURCES, LOSS_MODE_PLAIN, PSI, SOURCE_PLANAR, LossConfig,
)


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
        base, grad = _grad_projected(f_3d, f_p, r_wb, PSI)
    else:
        base, grad = _grad_scaled_3d(f_3d, f_p)
    weight = alpha_weight(s_n, f_3d, config.beta)
    return weight * base, weight * grad
