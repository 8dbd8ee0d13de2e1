import mpmath
import numpy as np
import pytest

from idslab import synth_eval as se

from conftest import make_surrogate_records


def ks_oracle(a, b):
    """O(n^2) sup distance between empirical CDFs, evaluated at every point."""
    a = list(map(float, a))
    b = list(map(float, b))
    best = 0.0
    for x in a + b:
        fa = sum(v <= x for v in a) / len(a)
        fb = sum(v <= x for v in b) / len(b)
        best = max(best, abs(fa - fb))
    return best


def auc_oracle(scores, flags):
    """All-pairs counting, ties worth 1/2."""
    pos = [s for s, f in zip(scores, flags) if f == 1]
    neg = [s for s, f in zip(scores, flags) if f == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def chi2_sf_oracle(stat, dof):
    return float(mpmath.gammainc(dof / 2, stat / 2, mpmath.inf, regularized=True))


class TestChi2Helper:
    def test_matches_incomplete_gamma_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            dof = int(rng.integers(1, 101))
            stat = float(rng.uniform(0, 300))
            assert abs(se.chi2_sf(stat, dof) - chi2_sf_oracle(stat, dof)) < 1e-8

    def test_zero_stat(self):
        assert se.chi2_sf(0.0, 5) == 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            se.chi2_sf(1.0, 0)
        with pytest.raises(ValueError):
            se.chi2_sf(-1.0, 3)


class TestCsTest:
    def test_identical_tables_score_one(self):
        col = np.array(["a"] * 50 + ["b"] * 30 + ["c"] * 20, dtype=object)
        table = {"service": col}
        assert se.cs_test(table, {"service": col.copy()}) == 1.0

    def test_disjoint_categories_near_zero(self):
        real = {"service": np.array(["a"] * 500, dtype=object)}
        synth = {"service": np.array(["b"] * 500, dtype=object)}
        assert se.cs_test(real, synth) < 1e-6

    def test_three_category_example_matches_oracle(self):
        real = {"flag": np.array(["x"] * 50 + ["y"] * 30 + ["z"] * 20, dtype=object)}
        synth = {"flag": np.array(["x"] * 40 + ["y"] * 40 + ["z"] * 20, dtype=object)}
        # direct chi-squared on the 2x3 table
        table = np.array([[50.0, 30.0, 20.0], [40.0, 40.0, 20.0]])
        expected = np.outer(table.sum(1), table.sum(0)) / table.sum()
        stat = ((table - expected) ** 2 / expected).sum()
        p = chi2_sf_oracle(stat, 2)
        assert abs(se.cs_test(real, synth) - p) < 1e-8

    def test_no_categorical_columns(self):
        with pytest.raises(se.UndefinedMetricError):
            se.cs_test({"duration": np.zeros(3)}, {"duration": np.zeros(3)})

    def test_rare_categories_pooled(self):
        # singleton categories must not force p to 0
        rng = np.random.default_rng(1)
        base = ["a"] * 200 + ["b"] * 200
        real = {"service": np.array(base + [f"rare{i}" for i in range(4)], dtype=object)}
        synth = {"service": np.array(base + [f"other{i}" for i in range(4)], dtype=object)}
        assert se.cs_test(real, synth) > 0.5

    def test_score_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            real = {"f": rng.choice(["a", "b", "c", "d"], 100).astype(object)}
            synth = {"f": rng.choice(["a", "b", "c", "d"], 100).astype(object)}
            score = se.cs_test(real, synth, categorical_cols=["f"])
            assert 0.0 <= score <= 1.0


class TestKsTest:
    def test_identical_tables_score_one(self):
        col = np.random.default_rng(0).normal(size=100)
        assert se.ks_test({"x": col}, {"x": col.copy()}) == 1.0

    def test_disjoint_supports_score_zero(self):
        assert se.ks_test({"x": np.zeros(50)}, {"x": np.ones(50)}) == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(5, 201))
            m = int(rng.integers(5, 201))
            a = np.round(rng.normal(size=n), 1)  # rounding forces ties
            b = np.round(rng.normal(0.3, 1.2, size=m), 1)
            assert se.ks_statistic(a, b) == pytest.approx(ks_oracle(a, b), abs=1e-15)

    def test_no_continuous_columns(self):
        with pytest.raises(se.UndefinedMetricError):
            se.ks_test({"service": np.array(["a"], dtype=object)},
                       {"service": np.array(["a"], dtype=object)})


class TestKsTestExtended:
    def test_all_continuous_equals_ks_test(self):
        rng = np.random.default_rng(4)
        real = {"x": rng.normal(size=80), "y": rng.uniform(size=80)}
        synth = {"x": rng.normal(size=90), "y": rng.uniform(size=90)}
        assert se.ks_test_extended(real, synth) == se.ks_test(real, synth)

    def test_identical_tables_score_one(self):
        records, labels = make_surrogate_records(100, seed=5)
        table = se.records_to_table(records, labels)
        copy = {k: v.copy() for k, v in table.items()}
        assert se.ks_test_extended(table, copy) == 1.0

    def test_mixed_schema_matches_composed_oracle(self):
        real = {
            "service": np.array(["http"] * 5 + ["ftp"] * 3 + ["ssh"] * 2, dtype=object),
            "x": np.arange(10, dtype=float),
        }
        synth = {
            "service": np.array(["ftp"] * 4 + ["http"] * 3 + ["dns"] * 3, dtype=object),
            "x": np.arange(10, dtype=float) + 0.5,
        }
        # oracle: hand-build the rank map (http=0 freq 5, ftp=1 freq 3, ssh=2; dns appended=3)
        rank = {"http": 0, "ftp": 1, "ssh": 2, "dns": 3}
        d_service = ks_oracle([rank[v] for v in real["service"]],
                              [rank[v] for v in synth["service"]])
        d_x = ks_oracle(real["x"], synth["x"])
        expected = np.mean([1 - d_service, 1 - d_x])
        got = se.ks_test_extended(real, synth, categorical_cols=["service"])
        assert got == pytest.approx(expected, abs=1e-15)

    def test_rank_ties_broken_lexically(self):
        real_col = np.array(["b", "a"], dtype=object)  # equal frequency
        synth_col = np.array(["a", "b"], dtype=object)
        mapping = se._rank_map(real_col, synth_col)
        assert mapping["a"] == 0 and mapping["b"] == 1


class TestRocAuc:
    def test_perfect_ordering(self):
        assert se.roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert se.roc_auc([0.5] * 10, [0, 1] * 5) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(se.UndefinedMetricError):
            se.roc_auc([0.1, 0.2], [1, 1])

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(10, 501))
            scores = np.round(rng.normal(size=n), 1)
            flags = rng.integers(0, 2, n)
            if flags.min() == flags.max():
                flags[0] = 1 - flags[0]
            assert se.roc_auc(scores, flags) == pytest.approx(
                auc_oracle(scores, flags), abs=1e-12
            )


class TestDetection:
    def test_shuffled_copy_near_half(self):
        # sample size matters: at small n the discriminator memorizes the
        # duplicated rows and lands below chance on held-out folds
        records, _ = make_surrogate_records(10_000, seed=7)
        rng = np.random.default_rng(8)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        score = se.detection_score(records, shuffled, seed=0, epochs=150)
        assert abs(score - 0.5) < 0.05

    def test_constant_shift_separable(self):
        from idslab import dataset as ds

        records, _ = make_surrogate_records(400, seed=9)
        shifted = []
        for r in records:
            values = list(r.values)
            for i, spec in enumerate(ds.FEATURE_SCHEMA):
                if spec.kind == ds.CONTINUOUS:
                    values[i] = values[i] + 1e4
            shifted.append(ds.RawRecord(values=tuple(values), attack_name=r.attack_name))
        score = se.detection_score(records, shifted, seed=0, epochs=150)
        assert score <= 0.1

    def test_deterministic(self):
        records, _ = make_surrogate_records(200, seed=10)
        other, _ = make_surrogate_records(200, seed=11)
        a = se.detection_score(records, other, seed=3, epochs=60)
        b = se.detection_score(records, other, seed=3, epochs=60)
        assert a == b

    def test_row_permutation_invariant_given_seed(self):
        records, _ = make_surrogate_records(200, seed=12)
        other, _ = make_surrogate_records(200, seed=13)
        baseline = se.detection_score(records, other, seed=5, epochs=60)
        rng = np.random.default_rng(99)
        permuted = [other[i] for i in rng.permutation(len(other))]
        assert abs(se.detection_score(records, permuted, seed=5, epochs=60) - baseline) < 0.05

    def test_too_few_rows(self):
        records, _ = make_surrogate_records(2, seed=14)
        with pytest.raises(ValueError):
            se.detection_score(records[:1], records[1:], folds=5)


def test_fidelity_report_bundle():
    real, real_labels = make_surrogate_records(300, seed=15)
    synth, synth_labels = make_surrogate_records(300, seed=16)
    report = se.fidelity_report(
        real, real_labels, synth, synth_labels, seed=0,
        detection_kwargs={"epochs": 60},
    )
    for score in (report.cstest, report.kstest, report.kstest_extended, report.detection):
        assert 0.0 <= score <= 1.0
    row = report.csv_row("wgan")
    assert row.startswith("wgan,") and len(row.split(",")) == 5
