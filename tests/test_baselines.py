import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from idslab import baselines


def separable_blobs(n=400, seed=0, gap=4.0):
    # bounded noise keeps a true margin of gap - 2 along feature 0
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = rng.uniform(-1.0, 1.0, size=(n, 3))
    X[:, 0] += gap * y
    return X, y


def perceptron_separable(X, y, sweeps=200):
    """Oracle: the perceptron converges iff the data is linearly separable."""
    w = np.zeros(X.shape[1] + 1)
    Xb = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    t = 2 * y - 1
    for _ in range(sweeps):
        errs = 0
        for xi, ti in zip(Xb, t):
            if ti * (w @ xi) <= 0:
                w += ti * xi
                errs += 1
        if errs == 0:
            return True
    return False


class TestLogreg:
    def test_separable_blobs(self):
        X, y = separable_blobs()
        assert perceptron_separable(X, y)
        clf = baselines.train_logreg(X, y, seed=0)
        assert (clf.predict(X) == y).mean() >= 0.99

    def test_single_class(self):
        X = np.random.default_rng(1).normal(size=(30, 4))
        y = np.zeros(30, dtype=np.int64)
        clf = baselines.train_logreg(X, y, n_classes=3, seed=0)
        assert np.all(clf.predict(X) == 0)

    def test_duplicated_rows_same_weights(self):
        # the cross-entropy minimizer is invariant to duplicating every row
        X, y = separable_blobs(n=150, seed=2, gap=2.0)
        a = baselines.train_logreg(X, y, epochs=2000, seed=0)
        b = baselines.train_logreg(
            np.concatenate([X, X]), np.concatenate([y, y]), epochs=2000, seed=0
        )
        for wa, wb in zip(a.net.weights, b.net.weights):
            assert np.max(np.abs(wa - wb)) < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            baselines.train_logreg(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    def test_deterministic(self):
        X, y = separable_blobs(n=100, seed=3)
        a = baselines.train_logreg(X, y, seed=5)
        b = baselines.train_logreg(X, y, seed=5)
        assert np.array_equal(a.predict(X), b.predict(X))
        for wa, wb in zip(a.net.weights, b.net.weights):
            assert np.array_equal(wa, wb)


class TestTree:
    def test_pure_node_is_leaf(self):
        X = np.arange(10, dtype=np.float64).reshape(-1, 1)
        y = np.ones(10, dtype=np.int64)
        clf = baselines.train_tree(X, y)
        assert np.all(clf.predict(X) == 1)

    def test_xor_depth_two(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float64)
        y = np.array([0, 1, 1, 0], dtype=np.int64)
        clf = baselines.train_tree(X, y, max_depth=2)
        assert np.array_equal(clf.predict(X), y)

    def test_beats_stump_on_random_data(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 5))
        y = rng.integers(0, 3, size=200)
        deep = baselines.train_tree(X, y, max_depth=20)
        stump = baselines.train_tree(X, y, max_depth=1)
        assert (deep.predict(X) == y).mean() >= (stump.predict(X) == y).mean()

    def test_row_order_invariant(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 4))
        y = rng.integers(0, 2, size=120)
        perm = rng.permutation(120)
        a = baselines.train_tree(X, y)
        b = baselines.train_tree(X[perm], y[perm])
        grid = rng.normal(size=(300, 4))
        assert np.array_equal(a.predict(grid), b.predict(grid))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            baselines.train_tree(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))


def _gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float((p * p).sum())


def reference_best_split(X, y, k):
    """Oracle: the per-boundary scan, one feature and one boundary at a time."""
    n = y.size
    best = None  # (impurity, feature, threshold)
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        left_counts = np.zeros((n + 1, k))
        np.add.at(left_counts, (np.arange(1, n + 1), ys), 1.0)
        left_counts = np.cumsum(left_counts, axis=0)
        total = left_counts[-1]
        boundaries = np.flatnonzero(xs[1:] > xs[:-1]) + 1
        for i in boundaries:
            lc = left_counts[i]
            rc = total - lc
            imp = (i * _gini(lc) + (n - i) * _gini(rc)) / n
            thr = 0.5 * (xs[i - 1] + xs[i])
            if best is None or imp < best[0] - 1e-15:
                best = (imp, f, thr)
    return best


def reference_proba(root, A):
    """Oracle: walk each row from the root to its leaf."""
    out = []
    for row in A:
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(node.prediction)
    return np.array(out)


def tree_nodes(node):
    """Preorder (feature, threshold, class distribution) of every node."""
    nodes = [(node.feature, node.threshold, node.prediction.tolist())]
    if not node.is_leaf:
        nodes += tree_nodes(node.left) + tree_nodes(node.right)
    return nodes


@st.composite
def split_problems(draw):
    # few distinct values per column, so boundaries and impurities tie often
    n = draw(st.integers(2, 80))
    d = draw(st.integers(1, 8))
    k = draw(st.integers(2, 5))
    cells = draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    X = np.array(cells, dtype=np.float64).reshape(n, d)
    return X, np.array(labels, dtype=np.int64), k


# Features 0 and 2 score 0.4 and 0.3999999999999999: within 1e-15, so the
# lower feature index wins although the later impurity is smaller.
NEAR_TIE = (
    np.array(
        [[0, 1, 1, 1, 0, 0, 2, 0, 1, 2],
         [1, 1, 0, 2, 2, 0, 2, 0, 1, 2],
         [2, 0, 0, 2, 0, 1, 1, 2, 0, 0]],
        dtype=np.float64,
    ).T,
    np.array([0, 1, 0, 0, 1, 0, 1, 1, 1, 1], dtype=np.int64),
    2,
)


class TestSplitSearch:
    @pytest.mark.parametrize("budget", [None, 1], ids=["default-blocks", "one-feature-blocks"])
    @settings(max_examples=300, deadline=None)
    @given(problem=split_problems())
    @example(problem=NEAR_TIE)
    def test_matches_per_boundary_scan(self, budget, problem):
        X, y, k = problem
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(baselines, "_BLOCK_ELEMENTS", budget)
            got = baselines._best_split(X, y, k)
        assert got == reference_best_split(X, y, k)

    def test_deep_fit_grows_identical_tree(self, monkeypatch):
        rng = np.random.default_rng(11)
        X = np.concatenate(
            [rng.integers(0, 4, size=(600, 5)), rng.normal(size=(600, 3)).round(1)], axis=1
        ).astype(np.float64)
        y = rng.integers(0, 4, size=600)
        got = baselines._grow(X, y, 4, 0, 20, 2)
        monkeypatch.setattr(baselines, "_best_split", reference_best_split)
        want = baselines._grow(X, y, 4, 0, 20, 2)
        assert len(tree_nodes(want)) > 100
        assert tree_nodes(got) == tree_nodes(want)

    def test_predict_proba_matches_row_walk(self):
        rng = np.random.default_rng(12)
        X = rng.integers(0, 5, size=(400, 4)).astype(np.float64)
        y = rng.integers(0, 3, size=400)
        clf = baselines.train_tree(X, y)
        root = baselines._grow(X, y, 3, 0, 20, 2)
        # thresholds are midpoints, so grid rows land on both sides and on them
        grid = rng.integers(0, 9, size=(500, 4)) / 2.0 - 0.5
        grid[::7, 1] = np.nan
        for A in (X, grid):
            assert np.array_equal(clf.predict_proba(A), reference_proba(root, A))

    def test_root_split_memory_is_bounded(self):
        # 100 000 x 54 at once would need over 1 GB of class counts
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100_000, 54))
        y = rng.integers(0, 5, size=100_000)
        tracemalloc.start()
        try:
            baselines._best_split(X, y, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestMlp:
    def test_separable_blobs(self):
        X, y = separable_blobs(seed=6)
        assert perceptron_separable(X, y)
        clf = baselines.train_mlp(X, y, seed=0)
        assert (clf.predict(X) == y).mean() >= 0.99

    def test_zero_epochs_uses_initial_head(self):
        X, y = separable_blobs(n=50, seed=7)
        a = baselines.train_mlp(X, y, epochs=0, seed=3)
        b = baselines.train_mlp(X, y, epochs=0, seed=3)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_deterministic_parameters(self):
        X, y = separable_blobs(n=100, seed=8)
        a = baselines.train_mlp(X, y, epochs=3, seed=2)
        b = baselines.train_mlp(X, y, epochs=3, seed=2)
        for wa, wb in zip(a.net.weights, b.net.weights):
            assert np.array_equal(wa, wb)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            baselines.train_mlp(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
