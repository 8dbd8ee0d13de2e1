"""Fidelity scoring of synthetic tables against real tables.

Tables are dicts of column name -> numpy array (object dtype for
categorical columns, float for the rest).  Four scores, all in [0, 1]:

* cs_test          - mean chi-squared p-value over categorical columns
* ks_test          - mean (1 - KS D statistic) over continuous columns
* ks_test_extended - categoricals as ranks by real frequency, then KS on all
* detection_score  - 1 - mean ROC AUC of a cross-validated real/synth
                     logistic-regression discriminator; its folds train
                     together, one pass over the encoded rows per epoch

Both categorical tests code a real/synthetic column pair once, as indices
into the union of its categories sorted by name: CSTest counts the codes,
KSTest-extended ranks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from .baselines import _fit_softmax
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
DETECTION_FOLDS = 5  # folds of the detection score; each side needs as many rows


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
    """Feature columns of a Records (or RawRecord rows) plus the class-symbol column."""
    table = {spec.name: col for spec, col in zip(ds.FEATURE_SCHEMA, ds.as_records(records).columns)}
    table["class"] = np.array(ds.CLASS_SYMBOLS, dtype=object)[np.asarray(labels, dtype=np.int64)]
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

def _category_codes(real_col, synth_col):
    """Both columns as codes into their category union, sorted by name."""
    cats, codes = np.unique(np.concatenate([real_col, synth_col]).astype(str), return_inverse=True)
    return codes[: len(real_col)], codes[len(real_col) :], len(cats)


def _pooled_counts(real_col, synth_col):
    """2 x m contingency counts over the category union, rare ones pooled."""
    real_codes, synth_codes, k = _category_codes(real_col, synth_col)
    real = np.bincount(real_codes, minlength=k).astype(np.float64)
    synth = np.bincount(synth_codes, minlength=k).astype(np.float64)
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


def ks_test_extended(real_table, synth_table, categorical_cols=None):
    """KS over ALL columns after mapping categoricals to frequency ranks."""
    cat_cols = categorical_cols if categorical_cols is not None else _categorical_cols(real_table)
    real_num, synth_num = {}, {}
    for col in real_table:
        if col in cat_cols:
            # ranks by descending real count, then by name: synthetic-only categories last
            real_codes, synth_codes, k = _category_codes(real_table[col], synth_table[col])
            order = np.lexsort((np.arange(k), -np.bincount(real_codes, minlength=k)))
            rank = np.argsort(order)  # the inverse permutation
            real_num[col], synth_num[col] = rank[real_codes], rank[synth_codes]
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
    sorted_scores = scores[order]
    # each run [i, j] of tied sorted scores shares its midrank
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], scores.size] - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)  # 1-based
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


def _fold_moments(X, train):
    """Per fold, the means and stds of X's columns over the fold's training rows."""
    # std(where=) centres a copy of its operand, hence blocks of about 16 columns.  No
    # block is 1 wide unless X is: numpy sums a lone column in another order.
    blocks = np.array_split(X, -(-X.shape[1] // 16), axis=1)
    return (np.array([np.concatenate([stat(b, axis=0, where=rows[:, None]) for b in blocks])
                      for rows in train]) for stat in (np.mean, np.std))


def detection_score(real_records, synth_records, folds=DETECTION_FOLDS, seed=0,
                    l2=1e-4, epochs=300, lr=1e-2):
    """1 - mean ROC AUC of a k-fold logistic real/synth discriminator.

    Both record sets are encoded with one transformer fit on their
    concatenation, so the discriminator sees a common feature space.  The
    folds, each standardized by its training rows, train together.
    """
    if folds < 2:
        raise ValueError(f"detection needs at least 2 folds, got {folds}")
    if min(len(real_records), len(synth_records)) < folds:
        raise ValueError(
            f"{len(real_records)} real and {len(synth_records)} synthetic rows cannot "
            f"fill {folds} folds: each side needs at least {folds}"
        )
    records = ds.Records.concat([real_records, synth_records])
    X = ds.fit_transformer(records).encode_matrix(records)
    flags = np.concatenate(
        [np.zeros(len(real_records), dtype=np.int64), np.ones(len(synth_records), dtype=np.int64)]
    )
    train = _stratified_folds(flags, folds, np.random.default_rng(seed)) != np.arange(folds)[:, None]
    mu, sd = _fold_moments(X, train)
    sd[sd == 0.0] = 1.0
    _, probs = _fit_softmax(X, flags, 2, train, mu, sd, range(seed, seed + folds), l2, epochs, lr)
    aucs = [roc_auc(p[1, ~rows], flags[~rows]) for p, rows in zip(probs, train)]
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
