"""Fidelity scoring of synthetic tables against real tables.

Tables are dicts of column name -> numpy array (object dtype for
categorical columns, float for the rest).  Four scores, all in [0, 1]:

* cs_score       - mean chi-squared p-value over categorical columns
* ks_score       - mean (1 - KS D statistic) over continuous columns
* ks_score_extended - ordinal-rank transform of categoricals, then KS on all
* detection_score   - 1 - mean ROC AUC of a cross-validated real/synth
                      logistic-regression discriminator
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from .baselines import train_logreg
from .metrics import UndefinedMetricError

__all__ = [
    "FidelityReport",
    "UndefinedMetricError",
    "cs_test",
    "ks_test",
    "ks_test_extended",
    "roc_auc",
    "detection_score",
    "chi2_sf",
    "records_to_table",
    "fidelity_report",
]

# Columns treated as categorical for CSTest; everything else (including 0/1
# indicator features) is scored by KSTest.
CATEGORICAL_COLUMNS = ("protocol_type", "service", "flag", "class")

MIN_EXPECTED = 5.0  # chi-squared validity rule; rarer categories are pooled


@dataclass(frozen=True)
class FidelityReport:
    cstest: float
    kstest: float
    kstest_extended: float
    detection: float

    def csv_row(self, name):
        return (
            f"{name},{self.cstest:.4f},{self.kstest:.4f},"
            f"{self.kstest_extended:.4f},{self.detection:.4f}"
        )


def records_to_table(records, labels):
    """Column view of raw records plus the class-symbol column."""
    table = {}
    for col, spec in enumerate(ds.FEATURE_SCHEMA):
        values = [r.values[col] for r in records]
        if spec.kind == ds.CATEGORICAL:
            table[spec.name] = np.array(values, dtype=object)
        else:
            table[spec.name] = np.array(values, dtype=np.float64)
    table["class"] = np.array([lab.symbol for lab in labels], dtype=object)
    return table


def _categorical_cols(table):
    return [c for c in table if c in CATEGORICAL_COLUMNS]


def _continuous_cols(table):
    return [c for c in table if c not in CATEGORICAL_COLUMNS]


# --- regularized incomplete gamma (chi-squared survival function) ----------

_MAX_ITER = 500
_TINY = 1e-300


def _gamma_p_series(a, x):
    """Lower regularized P(a, x) by series; for x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a, x):
    """Upper regularized Q(a, x) by Lentz continued fraction; for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(stat, dof):
    """Survival function of the chi-squared distribution, Q(dof/2, stat/2)."""
    if dof <= 0:
        raise ValueError("dof must be positive")
    if stat < 0:
        raise ValueError("statistic must be non-negative")
    if stat == 0.0:
        return 1.0
    a = 0.5 * dof
    x = 0.5 * stat
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


# --- CSTest ----------------------------------------------------------------

def _pooled_counts(real_col, synth_col):
    """2 x m contingency counts over the category union, rare ones pooled."""
    cats = sorted(set(real_col) | set(synth_col), key=str)
    real = np.array([np.sum(real_col == c) for c in cats], dtype=np.float64)
    synth = np.array([np.sum(synth_col == c) for c in cats], dtype=np.float64)
    # pool smallest-expected categories until the chi-squared rule holds
    while len(real) > 2:
        n = real.sum() + synth.sum()
        col_tot = real + synth
        expected = np.minimum(real.sum(), synth.sum()) * col_tot / n
        worst = int(np.argmin(expected))
        if expected[worst] >= MIN_EXPECTED:
            break
        keep = np.arange(len(real)) != worst
        pool_to = int(np.argmin(np.where(keep, expected, np.inf)))
        real[pool_to] += real[worst]
        synth[pool_to] += synth[worst]
        real = real[keep]
        synth = synth[keep]
    return real, synth


def _chi2_p_value(real_counts, synth_counts):
    table = np.stack([real_counts, synth_counts])
    # drop empty categories (zero column total contributes nothing)
    table = table[:, table.sum(axis=0) > 0]
    m = table.shape[1]
    if m < 2:
        return 1.0  # single shared category: distributions identical
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    stat = float(((table - expected) ** 2 / expected).sum())
    return chi2_sf(stat, m - 1)


def cs_test(real_table, synth_table, categorical_cols=None):
    """Mean two-sample chi-squared p-value over categorical columns."""
    cols = categorical_cols if categorical_cols is not None else _categorical_cols(real_table)
    if not cols:
        raise UndefinedMetricError("no categorical columns for CSTest")
    p_values = []
    for col in cols:
        real, synth = _pooled_counts(real_table[col], synth_table[col])
        p_values.append(_chi2_p_value(real, synth))
    return float(np.mean(p_values))


# --- KSTest ----------------------------------------------------------------

def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov D: sup distance of empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, points, side="right") / a.size
    cdf_b = np.searchsorted(b, points, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_test(real_table, synth_table, continuous_cols=None):
    """Mean (1 - D) over continuous columns."""
    cols = continuous_cols if continuous_cols is not None else _continuous_cols(real_table)
    if not cols:
        raise UndefinedMetricError("no continuous columns for KSTest")
    scores = [1.0 - ks_statistic(real_table[c], synth_table[c]) for c in cols]
    return float(np.mean(scores))


def _rank_map(real_col, synth_col):
    """Category -> ordinal rank: descending real-table frequency, lexical
    tie-break; synthetic-only categories appended after."""
    cats, counts = np.unique(real_col.astype(str), return_counts=True)
    order = sorted(range(len(cats)), key=lambda i: (-counts[i], cats[i]))
    mapping = {cats[i]: rank for rank, i in enumerate(order)}
    extras = sorted(set(map(str, synth_col)) - set(mapping))
    for cat in extras:
        mapping[cat] = len(mapping)
    return mapping


def ks_test_extended(real_table, synth_table, categorical_cols=None):
    """KS over ALL columns after mapping categoricals to frequency ranks."""
    cat_cols = categorical_cols if categorical_cols is not None else _categorical_cols(real_table)
    real_num, synth_num = {}, {}
    for col in real_table:
        if col in cat_cols:
            mapping = _rank_map(real_table[col], synth_table[col])
            real_num[col] = np.array([mapping[str(v)] for v in real_table[col]], dtype=np.float64)
            synth_num[col] = np.array([mapping[str(v)] for v in synth_table[col]], dtype=np.float64)
        else:
            real_num[col] = real_table[col]
            synth_num[col] = synth_table[col]
    return ks_test(real_num, synth_num, continuous_cols=list(real_num))


# --- detection -------------------------------------------------------------

def roc_auc(scores, flags):
    """ROC AUC via the Mann-Whitney statistic with midranks for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=np.int64)
    n_pos = int((flags == 1).sum())
    n_neg = int((flags == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC AUC needs both flag values")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum = float(ranks[flags == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _stratified_folds(flags, n_folds, rng):
    """Deterministic stratified fold assignment per row."""
    assignment = np.empty(flags.size, dtype=np.int64)
    for value in (0, 1):
        idx = np.flatnonzero(flags == value)
        idx = idx[rng.permutation(idx.size)]
        assignment[idx] = np.arange(idx.size) % n_folds
    return assignment


def detection_score(real_records, synth_records, folds=5, seed=0,
                    l2=1e-4, epochs=300, lr=1e-2):
    """1 - mean ROC AUC of a k-fold logistic real/synth discriminator.

    Both record lists are encoded with one transformer fit on their
    concatenation, so the discriminator sees a common feature space.
    """
    if not real_records or not synth_records:
        raise ValueError("both tables must be nonempty")
    n = len(real_records) + len(synth_records)
    if n < folds:
        raise ValueError(f"{n} rows cannot fill {folds} folds")
    transformer = ds.fit_transformer(list(real_records) + list(synth_records))
    X = transformer.encode_matrix(list(real_records) + list(synth_records))
    flags = np.concatenate(
        [np.zeros(len(real_records), dtype=np.int64), np.ones(len(synth_records), dtype=np.int64)]
    )
    rng = np.random.default_rng(seed)
    fold_of = _stratified_folds(flags, folds, rng)
    aucs = []
    for fold in range(folds):
        train_mask = fold_of != fold
        X_train, y_train = X[train_mask], flags[train_mask]
        X_val, y_val = X[~train_mask], flags[~train_mask]
        mu = X_train.mean(axis=0)
        sd = X_train.std(axis=0)
        sd[sd == 0.0] = 1.0
        clf = train_logreg(
            (X_train - mu) / sd, y_train, n_classes=2,
            l2=l2, epochs=epochs, lr=lr, seed=seed + fold,
        )
        probs = clf.predict_proba((X_val - mu) / sd)[:, 1]
        aucs.append(roc_auc(probs, y_val))
    return 1.0 - float(np.mean(aucs))


def fidelity_report(real_records, real_labels, synth_records, synth_labels,
                    seed=0, detection_kwargs=None):
    """Bundle all four scores for one synthetic dataset."""
    real_table = records_to_table(real_records, real_labels)
    synth_table = records_to_table(synth_records, synth_labels)
    return FidelityReport(
        cstest=cs_test(real_table, synth_table),
        kstest=ks_test(real_table, synth_table),
        kstest_extended=ks_test_extended(real_table, synth_table),
        detection=detection_score(
            real_records, synth_records, seed=seed, **(detection_kwargs or {})
        ),
    )
