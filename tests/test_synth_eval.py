import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idslab import dataset as ds
from idslab import gan, nn
from idslab import synth_eval as se

from conftest import make_surrogate_records, reference_logreg, write_surrogate_files


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


def reference_roc_auc(scores, flags):
    """`roc_auc` with the midrank loop it had before vectorisation."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=np.int64)
    n_pos = int((flags == 1).sum())
    n_neg = int((flags == 0).sum())
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[flags == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reference_detection(X, flags, folds, seed, l2, epochs, lr):
    """The per-fold loop `detection_score` ran before the fold kernel:
    each fold's held-out class-1 probabilities and the score."""
    fold_of = se._stratified_folds(flags, folds, np.random.default_rng(seed))
    held_out, aucs = [], []
    for fold in range(folds):
        train_mask = fold_of != fold
        X_train, y_train = X[train_mask], flags[train_mask]
        X_val, y_val = X[~train_mask], flags[~train_mask]
        mu = X_train.mean(axis=0)
        sd = X_train.std(axis=0)
        sd[sd == 0.0] = 1.0
        net = reference_logreg((X_train - mu) / sd, y_train, 2, l2, epochs, lr, seed + fold)
        probs = nn.softmax(((X_val - mu) / sd) @ net.weights[0] + net.biases[0])[:, 1]
        held_out.append(probs)
        aucs.append(reference_roc_auc(probs, y_val))
    return held_out, 1.0 - float(np.mean(aucs))


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


class TestRecordsToTable:
    """The two call shapes of the benchmark worker's KSTest score."""

    def check_table(self, table, records, symbols):
        assert list(table) == [spec.name for spec in ds.FEATURE_SCHEMA] + ["class"]
        assert table["class"].dtype == object and table["class"].tolist() == symbols
        assert table["service"].tolist() == [r.values[2] for r in records]
        assert table["src_bytes"].dtype == np.float64
        assert table["src_bytes"].tolist() == [r.values[4] for r in records]

    def test_parsed_file_with_labels_for(self, tmp_path):
        path = write_surrogate_files(tmp_path, n_train=120, n_test=1)["KDDTrain+.txt"]
        table = se.records_to_table(ds.parse_kdd_file(path), ds.labels_for(ds.parse_kdd_file(path)))
        records = ds.parse_kdd_file(path)
        symbols = [ds.CLASS_SYMBOLS[ds.map_attack_to_class(r.attack_name)] for r in records]
        self.check_table(table, records, symbols)

    def test_sampled_rows_as_lists(self):
        records, labels = make_surrogate_records(200, seed=3)
        t = ds.fit_transformer(records)
        data = ds.EncodedDataset(t.encode_matrix(records), labels)
        cfg = gan.GanConfig(epochs=0, batch_size=50, noise_dim=8, hidden=(16,), seed=0)
        rows = gan.sample_unconditional(gan.train_gan(data, t, cfg)[0], 60, seed=1)
        table = se.records_to_table([r for r, _ in rows], [label for _, label in rows])
        self.check_table(table, [r for r, _ in rows], [ds.CLASS_SYMBOLS[l] for _, l in rows])


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
        real = {"flag": np.array(["b", "a", "c", "c", "c"], dtype=object)}  # a and b tie
        synth = {"flag": np.array(["a"] * 4, dtype=object)}
        # ranks c=0, a=1, b=2: D = 0.6, where a=2, b=1 would give D = 0.8
        ranked = se.ks_test({"flag": [2, 1, 0, 0, 0]}, {"flag": [1] * 4}, continuous_cols=["flag"])
        assert se.ks_test_extended(real, synth) == ranked


def reference_pooled_counts(real_col, synth_col):
    """`_pooled_counts` as a plain-Python coder: the union sorted by str, one `==`
    count per category, then the same pooling."""
    cats = sorted(set(real_col) | set(synth_col), key=str)
    real = np.array([np.sum(real_col == c) for c in cats], dtype=np.float64)
    synth = np.array([np.sum(synth_col == c) for c in cats], dtype=np.float64)
    while len(real) > 2:
        n = real.sum() + synth.sum()
        expected = np.minimum(real.sum(), synth.sum()) * (real + synth) / n
        worst = int(np.argmin(expected))
        if expected[worst] >= se.MIN_EXPECTED:
            break
        keep = np.arange(len(real)) != worst
        pool_to = int(np.argmin(np.where(keep, expected, np.inf)))
        real[pool_to] += real[worst]
        synth[pool_to] += synth[worst]
        real, synth = real[keep], synth[keep]
    return real, synth


def reference_rank_map(real_col, synth_col):
    """Category -> rank by (-real count, name); synthetic-only ones appended by name."""
    cats, counts = np.unique(real_col.astype(str), return_counts=True)
    order = sorted(range(len(cats)), key=lambda i: (-counts[i], cats[i]))
    mapping = {cats[i]: rank for rank, i in enumerate(order)}
    for cat in sorted(set(map(str, synth_col)) - set(mapping)):
        mapping[cat] = len(mapping)
    return mapping


# real-only, shared and synthetic-only names, "B" < "a" and "10" < "2" by str
_REAL_CATS, _SYNTH_CATS = ["tcp", "B", "a", "10", "2"], ["a", "10", "2", "udp", "icmp"]


class TestCategoryCoder:
    @settings(max_examples=200, deadline=None)
    @given(real=st.lists(st.sampled_from(_REAL_CATS), min_size=1, max_size=80),
           synth=st.lists(st.sampled_from(_SYNTH_CATS), min_size=1, max_size=80))
    def test_matches_plain_python_coder(self, real, synth):
        real_table = {"service": np.array(real, dtype=object), "x": np.arange(len(real), 0.0, -1)}
        synth_table = {"service": np.array(synth, dtype=object), "x": np.zeros(len(synth))}
        assert se.cs_test(real_table, synth_table) == se._chi2_p_value(
            *reference_pooled_counts(real_table["service"], synth_table["service"]))
        mapping = reference_rank_map(real_table["service"], synth_table["service"])
        ranked = [{"service": [mapping[v] for v in t["service"]], "x": t["x"]}
                  for t in (real_table, synth_table)]
        assert se.ks_test_extended(real_table, synth_table) == se.ks_test(
            *ranked, continuous_cols=["service", "x"])


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

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 3.0, np.nan]),
                      st.integers(0, 1)),
            min_size=2, max_size=60,
        ).filter(lambda rows: len({f for _, f in rows}) == 2)
    )
    def test_midranks_match_loop(self, data):
        scores, flags = (np.array(col) for col in zip(*data))
        assert se.roc_auc(scores, flags) == reference_roc_auc(scores, flags)


class TestDetection:
    def test_folds_match_per_fold_loop(self, monkeypatch):
        # unequal sides; many encoded surrogate columns are constant (sd 0 -> 1)
        real, _ = make_surrogate_records(230, seed=17)
        synth, _ = make_surrogate_records(170, seed=18)
        both = ds.Records.concat([real, synth])
        X = ds.fit_transformer(both).encode_matrix(both)
        flags = np.repeat([0, 1], [230, 170])
        assert (X.std(axis=0) == 0.0).any()
        fits = []
        fit = se._fit_softmax

        def recording(X, y, k, train, *rest):
            nets, probs = fit(X, y, k, train, *rest)
            fits.append((train, probs))
            return nets, probs

        monkeypatch.setattr(se, "_fit_softmax", recording)
        score = se.detection_score(real, synth, folds=4, seed=2, epochs=120)
        want_probs, want_score = reference_detection(X, flags, 4, 2, 1e-4, 120, 1e-2)
        (train, probs), = fits
        for fold, want in enumerate(want_probs):
            got = probs[fold, 1, ~train[fold]]
            assert np.max(np.abs(got - want)) < 1e-9
        assert abs(score - want_score) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(10, 2000), d=st.integers(1, 70), folds=st.integers(2, 5),
           one_hot=st.booleans(), seed=st.integers(0, 2**16))
    def test_fold_moments_match_whole_matrix(self, n, d, folds, one_hot, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d)) * rng.choice([1.0, 1e3], size=d)
        if one_hot:
            X = (X > 0.5) * 1.0
        train = rng.permutation(n) % folds != np.arange(folds)[:, None]
        mu, sd = se._fold_moments(X, train)
        for fold, rows in enumerate(train):
            want_mu = X.mean(axis=0, where=rows[:, None])
            want_sd = X.std(axis=0, where=rows[:, None])
            assert mu[fold].tobytes() == want_mu.tobytes()
            assert sd[fold].tobytes() == want_sd.tobytes()

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
        more, _ = make_surrogate_records(20, seed=14)
        for real, synth, folds, message in (
            (more[:10], more[10:], 0, "at least 2 folds, got 0"),
            (more[:10], more[10:], 1, "at least 2 folds, got 1"),
            (more, more[:3], 5, "20 real and 3 synthetic rows cannot fill 5 folds"),
            (more[:4], more, 5, "4 real and 20 synthetic rows cannot fill 5 folds"),
        ):
            with pytest.raises(ValueError, match=message):
                se.detection_score(real, synth, folds=folds)
