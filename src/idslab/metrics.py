"""Confusion matrices and classifier performance metrics.

All scores are computed in double precision; rounding happens only when a
report row is formatted (4 decimals, like the result tables).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "ClassScore",
    "UndefinedMetricError",
    "confusion",
    "accuracy",
    "per_class_prf",
    "aggregate_f1",
    "report_row",
]


class UndefinedMetricError(ValueError):
    """Metric or score undefined for its input (an empty confusion matrix,
    a table without the required column kinds)."""


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ConfusionMatrix:
    """k x k counts; rows are true classes, columns predicted classes."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if (counts < 0).any():
            raise ValueError("confusion matrix entries must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def k(self):
        return self.counts.shape[0]

    @property
    def total(self):
        return int(self.counts.sum())


def confusion(pred, truth, k):
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size and (pred.min() < 0 or pred.max() >= k or truth.min() < 0 or truth.max() >= k):
        raise ValueError(f"labels out of range [0, {k})")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    return ConfusionMatrix(counts)


def accuracy(cm):
    if cm.total == 0:
        raise UndefinedMetricError("accuracy of an empty matrix")
    return float(np.trace(cm.counts)) / cm.total


def per_class_prf(cm, c):
    """One-vs-rest precision/recall/F1 for class c; 0 on zero denominators."""
    if not 0 <= c < cm.k:
        raise ValueError(f"class {c} out of range")
    tp = float(cm.counts[c, c])
    predicted = float(cm.counts[:, c].sum())
    actual = float(cm.counts[c, :].sum())
    precision = tp / predicted if predicted > 0 else 0.0
    recall = tp / actual if actual > 0 else 0.0
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return ClassScore(precision=precision, recall=recall, f1=f1)


def aggregate_f1(cm, weighting="macro"):
    """Mean per-class F1, unweighted (macro) or by true-class support."""
    if cm.total == 0:
        raise UndefinedMetricError("aggregate F1 of an empty matrix")
    f1s = np.array([per_class_prf(cm, c).f1 for c in range(cm.k)])
    if weighting == "macro":
        return float(f1s.mean())
    if weighting == "weighted":
        support = cm.counts.sum(axis=1).astype(np.float64)
        return float((f1s * support).sum() / support.sum())
    raise ValueError(f"unknown weighting: {weighting!r}")


def report_row(dataset, model, cm):
    """One performance-report CSV row: dataset,model,accuracy,f1s..."""
    per_class = [per_class_prf(cm, c).f1 for c in range(cm.k)]
    cells = [
        dataset,
        model,
        f"{accuracy(cm):.4f}",
        f"{aggregate_f1(cm, 'macro'):.4f}",
        f"{aggregate_f1(cm, 'weighted'):.4f}",
        *(f"{f:.4f}" for f in per_class),
    ]
    return ",".join(cells)
