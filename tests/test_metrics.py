import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idslab import metrics


def oracle_scores(pred, truth, k):
    """Independent per-sample recount of every metric."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    acc = sum(p == t for p, t in zip(pred, truth)) / n
    per_class = []
    for c in range(k):
        tp = sum(1 for p, t in zip(pred, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, truth) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_class.append((prec, rec, f1))
    macro = sum(f for _, _, f in per_class) / k
    support = [sum(1 for t in truth if t == c) for c in range(k)]
    weighted = sum(f * s for (_, _, f), s in zip(per_class, support)) / n
    return acc, per_class, macro, weighted


class TestConfusion:
    def test_perfect_diagonal(self):
        cm = metrics.confusion([0, 1, 1], [0, 1, 1], 2)
        assert cm.counts.tolist() == [[1, 0], [0, 2]]

    def test_anti_diagonal(self):
        cm = metrics.confusion([1, 0], [0, 1], 2)
        assert cm.counts.tolist() == [[0, 1], [1, 0]]

    def test_total_counts(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 5, 1000)
        truth = rng.integers(0, 5, 1000)
        assert metrics.confusion(pred, truth, 5).total == 1000

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.confusion([0, 1], [0], 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            metrics.confusion([0, 5], [0, 1], 2)


class TestAccuracy:
    def test_perfect(self):
        cm = metrics.confusion([0, 1, 2], [0, 1, 2], 3)
        assert metrics.accuracy(cm) == 1.0

    def test_eq1_arithmetic(self):
        # TP=TN=FP=FN=1 -> 0.5
        cm = metrics.ConfusionMatrix(np.array([[1, 1], [1, 1]]))
        assert metrics.accuracy(cm) == 0.5

    def test_empty_raises(self):
        cm = metrics.ConfusionMatrix(np.zeros((3, 3), dtype=int))
        with pytest.raises(metrics.UndefinedMetricError):
            metrics.accuracy(cm)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 20, (5, 5))
        cm = metrics.ConfusionMatrix(counts)
        perm = rng.permutation(5)
        cm_p = metrics.ConfusionMatrix(counts[np.ix_(perm, perm)])
        assert metrics.accuracy(cm) == pytest.approx(metrics.accuracy(cm_p), abs=1e-15)


class TestPerClass:
    def test_absent_class_zero(self):
        cm = metrics.confusion([0, 0], [0, 0], 2)
        score = metrics.per_class_prf(cm, 1)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_diagonal_ones(self):
        cm = metrics.confusion([0, 1, 2], [0, 1, 2], 3)
        for c in range(3):
            s = metrics.per_class_prf(cm, c)
            assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_binary_matches_eqs_literally(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 2, 200)
        truth = rng.integers(0, 2, 200)
        cm = metrics.confusion(pred, truth, 2)
        tp = cm.counts[1][1]
        fp = cm.counts[0][1]
        fn = cm.counts[1][0]
        s = metrics.per_class_prf(cm, 1)
        assert s.precision == pytest.approx(tp / (tp + fp), abs=1e-15)
        assert s.recall == pytest.approx(tp / (tp + fn), abs=1e-15)
        assert s.f1 == pytest.approx(tp / (tp + 0.5 * (fp + fn)), abs=1e-12)

    def test_harmonic_mean_identity(self):
        rng = np.random.default_rng(3)
        cm = metrics.confusion(rng.integers(0, 5, 500), rng.integers(0, 5, 500), 5)
        for c in range(5):
            s = metrics.per_class_prf(cm, c)
            if s.precision + s.recall > 0:
                hm = 2 * s.precision * s.recall / (s.precision + s.recall)
                assert abs(s.f1 - hm) < 1e-12


class TestAggregate:
    def test_equal_support_macro_equals_weighted(self):
        pred = [0, 1, 0, 1]
        truth = [0, 0, 1, 1]
        cm = metrics.confusion(pred, truth, 2)
        assert metrics.aggregate_f1(cm, "macro") == pytest.approx(
            metrics.aggregate_f1(cm, "weighted"), abs=1e-15
        )

    def test_concentrated_support(self):
        # almost all support in class 0 -> weighted close to class-0 f1
        pred = [0] * 999 + [1]
        truth = [0] * 999 + [0]
        cm = metrics.confusion(pred, truth, 2)
        f1_0 = metrics.per_class_prf(cm, 0).f1
        assert metrics.aggregate_f1(cm, "weighted") == pytest.approx(f1_0, abs=1e-3)

    def test_unknown_weighting(self):
        cm = metrics.confusion([0], [0], 2)
        with pytest.raises(ValueError):
            metrics.aggregate_f1(cm, "micro")


class TestOracleAgreement:
    @pytest.mark.parametrize("k", [2, 5])
    def test_random_instances(self, k):
        rng = np.random.default_rng(42 + k)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            pred = rng.integers(0, k, n)
            truth = rng.integers(0, k, n)
            cm = metrics.confusion(pred, truth, k)
            acc, per_class, macro, weighted = oracle_scores(pred, truth, k)
            assert abs(metrics.accuracy(cm) - acc) < 1e-12
            for c in range(k):
                s = metrics.per_class_prf(cm, c)
                assert abs(s.precision - per_class[c][0]) < 1e-12
                assert abs(s.recall - per_class[c][1]) < 1e-12
                assert abs(s.f1 - per_class[c][2]) < 1e-12
            assert abs(metrics.aggregate_f1(cm, "macro") - macro) < 1e-12
            assert abs(metrics.aggregate_f1(cm, "weighted") - weighted) < 1e-12


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6), data=st.data())
def test_metric_invariants(k, data):
    n = data.draw(st.integers(1, 80))
    labels = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    pred, truth = data.draw(labels), data.draw(labels)
    cm = metrics.confusion(pred, truth, k)
    assert cm.total == n
    assert metrics.accuracy(cm) == float(np.trace(cm.counts)) / cm.total
    assert metrics.accuracy(cm) == sum(p == t for p, t in zip(pred, truth)) / n
    for weighting in ("macro", "weighted"):
        assert 0.0 <= metrics.aggregate_f1(cm, weighting) <= 1.0


def test_report_row_format():
    cm = metrics.confusion([0, 1, 1], [0, 1, 0], 2)
    row = metrics.report_row("real", "drl", cm)
    cells = row.split(",")
    assert cells[:2] == ["real", "drl"]
    assert len(cells) == 2 + 3 + 2
    float(cells[2])  # parse check
