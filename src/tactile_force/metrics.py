"""Evaluation metrics: direction and magnitude errors plus box-plot summaries."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SchemaError


def direction_error_pct(f_3d: np.ndarray, f_p: np.ndarray) -> float:
    """Angle between the two forces as a percentage of a half turn: [0, 100]."""
    f_3d = np.asarray(f_3d, dtype=float)
    f_p = np.asarray(f_p, dtype=float)
    dot = float(f_3d @ f_p)
    sq = float(f_3d @ f_3d) * float(f_p @ f_p)
    if sq == 0.0:
        raise SchemaError("direction error undefined for a zero vector")
    # sqrt of the squared-norm product keeps antipodal pairs exactly at -1
    cos = float(np.clip(dot / math.sqrt(sq), -1.0, 1.0))
    return 100.0 * math.acos(cos) / math.pi


def magnitude_error_pct(f_3d: np.ndarray, f_p: np.ndarray) -> float:
    """Symmetric absolute percentage difference of the magnitudes: [0, 100]."""
    n1 = float(np.linalg.norm(np.asarray(f_3d, dtype=float)))
    n2 = float(np.linalg.norm(np.asarray(f_p, dtype=float)))
    if n1 + n2 == 0.0:
        raise SchemaError("magnitude error undefined when both forces are zero")
    return 100.0 * abs(n1 - n2) / (n1 + n2)


def magnitude_error_l1(f_3d: np.ndarray, f_p: np.ndarray) -> float:
    """Absolute difference of the magnitudes, in newtons."""
    n1 = float(np.linalg.norm(np.asarray(f_3d, dtype=float)))
    n2 = float(np.linalg.norm(np.asarray(f_p, dtype=float)))
    return abs(n1 - n2)


@dataclass(frozen=True)
class ErrorSummary:
    """Box-plot statistics: quartiles plus whiskers at the inlier extrema
    within 1.5x the interquartile range."""

    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    n_samples: int


def summarize(values) -> ErrorSummary:
    """Quartiles by linear interpolation; whiskers at the extreme inliers."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise SchemaError("cannot summarize an empty list")
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    iqr = q3 - q1
    inliers = values[(values >= q1 - 1.5 * iqr) & (values <= q3 + 1.5 * iqr)]
    return ErrorSummary(
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        whisker_low=float(inliers.min()),
        whisker_high=float(inliers.max()),
        n_samples=int(values.size),
    )


@dataclass(frozen=True)
class EvaluationRow:
    direction_pct: float
    magnitude_pct: float
    magnitude_l1: float
    source_tag: str


def evaluate_pairs(
    f_3d: np.ndarray, f_p: np.ndarray, source_tags
) -> tuple[list[EvaluationRow], int]:
    """Per-sample metric rows; zero-vector pairs are excluded and counted."""
    f_3d = np.asarray(f_3d, dtype=float)
    f_p = np.asarray(f_p, dtype=float)
    rows: list[EvaluationRow] = []
    excluded = 0
    for i in range(f_3d.shape[0]):
        try:
            rows.append(
                EvaluationRow(
                    direction_pct=direction_error_pct(f_3d[i], f_p[i]),
                    magnitude_pct=magnitude_error_pct(f_3d[i], f_p[i]),
                    magnitude_l1=magnitude_error_l1(f_3d[i], f_p[i]),
                    source_tag=str(source_tags[i]),
                )
            )
        except SchemaError:
            excluded += 1
    return rows, excluded


# a direction error of 100 % is a half turn, 180 degrees
DEGREES_PER_DIRECTION_PCT = 1.8


def summarize_rows(rows: list[EvaluationRow]) -> dict:
    """Summary dict per metric over a list of evaluation rows, with the
    median direction error also in degrees, the paper's unit."""
    direction = summarize([r.direction_pct for r in rows])
    return {
        "direction_pct": asdict(direction),
        "direction_median_deg": DEGREES_PER_DIRECTION_PCT * direction.median,
        "magnitude_pct": asdict(summarize([r.magnitude_pct for r in rows])),
        "magnitude_l1": asdict(summarize([r.magnitude_l1 for r in rows])),
        "n_samples": len(rows),
    }
