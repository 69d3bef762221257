"""Binary ranking metrics implemented from first principles.

Average precision is the precision-sum-over-recall-steps definition on
descending scores (ties broken by original index for determinism); AUC is
the Mann-Whitney rank statistic with midranks, i.e. the probability that a
random positive outscores a random negative counting ties as half.
"""

from __future__ import annotations

import numpy as np

from .errors import EvaluationError


def binary_labels(labels) -> np.ndarray:
    """``labels`` as int64 classes; a label other than 0 and 1 raises
    EvaluationError instead of being scored as another class."""
    labels = np.asarray(labels)
    other = labels[(labels != 0) & (labels != 1)]
    if other.size:
        raise EvaluationError(f"labels must be 0 or 1, got {other.tolist()[0]!r}")
    return labels.astype(np.int64)


def _check_inputs(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise EvaluationError(
            f"labels and scores must be matching 1-D arrays, got {labels.shape} and {scores.shape}")
    if labels.size == 0:
        raise EvaluationError("cannot score an empty set")
    if np.isnan(scores).any():
        raise EvaluationError("scores contain NaN")
    return binary_labels(labels), scores


# a score above this counts as a positive prediction
ACCURACY_THRESHOLD = 0.5


def accuracy(labels, scores) -> float:
    labels, scores = _check_inputs(labels, scores)
    return float(np.mean((scores > ACCURACY_THRESHOLD).astype(np.int64) == labels))


def average_precision(labels, scores) -> float:
    labels, scores = _check_inputs(labels, scores)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise EvaluationError("average precision undefined without positives")
    hits = labels[np.argsort(-scores, kind="stable")]  # ties in index order
    cum_pos = np.cumsum(hits)
    ranks = np.arange(1, labels.size + 1)
    return float((cum_pos[hits == 1] / ranks[hits == 1]).sum() / n_pos)


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group sharing the mean of its ranks."""
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def roc_auc(labels, scores) -> float:
    labels, scores = _check_inputs(labels, scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC undefined for a single-class set")
    ranks = _midranks(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def spearman(x, y) -> float:
    """Spearman rank correlation (midranks for ties)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise EvaluationError(f"need two matching 1-D samples, got {x.shape} and {y.shape}")
    if np.isnan(x).any() or np.isnan(y).any():
        raise EvaluationError("samples contain NaN")
    rx = _midranks(x)
    ry = _midranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)
