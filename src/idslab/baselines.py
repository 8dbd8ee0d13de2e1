"""Classical classifier baselines: softmax regression, CART, MLP.

All three expose the same predict interface and feed the shared metrics
module, so baseline rows and DRL rows in the reports come off one scoring
path.  Training is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn

__all__ = [
    "Classifier",
    "train_logreg",
    "train_tree",
    "train_mlp",
]


@dataclass
class Classifier:
    _predict_proba: callable = field(repr=False)
    net: object = field(default=None, repr=False)  # fitted DenseNet, if any

    def predict_proba(self, X):
        return self._predict_proba(np.atleast_2d(np.asarray(X, dtype=np.float64)))

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)


def _training_arrays(X, y):
    """X as float64 and y as int64; a ValueError if X has no entries."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    if X.size == 0:
        raise ValueError("empty training data")
    return X, y


def _fit_softmax(X, y, k, train, mu, sd, seeds, l2, epochs, lr):
    """Fit one L2 softmax regression per fold f, on the rows train[f] of
    (X - mu[f]) / sd[f] from init_net seed seeds[f], by full-batch Adam.

    The standardization is folded into the matmuls, logits = X (W/sd) +
    b - (mu/sd) W and dW = (X^T dL - mu (x) sum(dL)) / sd + l2 W, so each
    epoch is one pass over X for every fold and X is never copied.  Logits
    are laid out (fold, class, row).  Returns (nets, probs), probs[f, c, r]
    being fold f's final probability of class c for row r.
    """
    n, d = X.shape
    F = len(seeds)
    nets = [nn.init_net([d, k], ["linear"], seed=s) for s in seeds]
    params = np.stack([net.params for net in nets])  # (F, d*k + k), net layout
    W, b = params[:, : d * k].reshape(F, d, k), params[:, d * k :]
    opt = nn.OptState("adam", lr, m=np.zeros_like(params), v=np.zeros_like(params))
    target, n_train = nn.one_hot(y, k).T, train.sum(axis=1)[:, None, None]

    def predict():
        Ws = W / sd[:, :, None]
        z = (Ws.transpose(0, 2, 1).reshape(F * k, d) @ X.T).reshape(F, k, n)
        z += (b - (mu[:, None, :] @ Ws)[:, 0])[:, :, None]
        return nn.softmax(z, axis=1)

    for _ in range(epochs):
        dL = (predict() - target) / n_train * train[:, None, :]  # held-out rows weigh 0
        db = dL.sum(axis=2)
        XtdL = (dL.reshape(F * k, n) @ X).reshape(F, k, d).transpose(0, 2, 1)
        dW = (XtdL - mu[:, :, None] * db[:, None, :]) / sd[:, :, None] + l2 * W
        nn.update_params(params, np.concatenate([dW.reshape(F, -1), db], axis=1), opt)
    for net, fitted in zip(nets, params):
        net.params[...] = fitted
    return nets, predict()


def train_logreg(X, y, n_classes=None, l2=1e-4, epochs=300, lr=1e-2, seed=0):
    """L2-regularized softmax regression, full-batch Adam."""
    X, y = _training_arrays(X, y)
    k = n_classes if n_classes is not None else int(y.max()) + 1
    n, d = X.shape
    (net,), _ = _fit_softmax(X, y, k, np.ones((1, n), dtype=bool), np.zeros((1, d)),
                             np.ones((1, d)), [seed], l2, epochs, lr)
    W, b = net.weights[0].copy(), net.biases[0].copy()
    return Classifier(_predict_proba=lambda A: nn.softmax(A @ W + b), net=net)


# --- CART ------------------------------------------------------------------

@dataclass
class _Node:
    prediction: np.ndarray  # class distribution at this node
    feature: int = -1
    threshold: float = 0.0
    left: "_Node" = None
    right: "_Node" = None

    @property
    def is_leaf(self):
        return self.left is None


# Sorted values per feature block of the split search.  The block's
# (features, rows, classes) count arrays hold k times as many floats, so
# memory stays bounded at any row count: a node of up to 2 427 rows takes
# all 54 encoded features in one block, a 100 000-row root one feature.
_BLOCK_ELEMENTS = 1 << 17


def _gini_rows(counts, size):
    """Gini impurity 1 - sum(p^2), p = counts / size, of every (feature, boundary)
    class-count vector; `size` holds each boundary's row count."""
    p = counts / size[:, None]
    p *= p
    return 1.0 - p.sum(axis=-1)


def _best_split(X, y, k):
    """Best (impurity, feature, threshold) by Gini gain, or None when no
    feature has two distinct values; ties broken by lowest feature index,
    then lowest threshold.

    Scores every boundary between distinct sorted values of a block of
    features at once (Breiman et al. 1984's sort-and-scan, one cumulative
    class count per boundary), then applies the sequential rule -- take a
    candidate only if it beats the best so far by more than 1e-15 -- in
    feature-major order.  A candidate that rule takes is lower than every
    candidate before it, so only the strict running minima are visited.
    """
    n, d = X.shape
    if n < 2:
        return None
    size = np.arange(1, n, dtype=np.float64)  # rows left of each boundary
    classes = np.arange(k)
    step = max(1, _BLOCK_ELEMENTS // n)
    best = None
    lowest = np.inf  # lowest impurity over the blocks already scanned
    for f0 in range(0, d, step):
        cols = X[:, f0 : f0 + step].T
        order = np.argsort(cols, axis=1, kind="stable")
        xs = np.take_along_axis(cols, order, axis=1)
        counts = np.cumsum(y[order][..., None] == classes, axis=1, dtype=np.float64)
        left = counts[:, :-1]
        right = counts[:, -1:] - left
        imp = (size * _gini_rows(left, size) + (n - size) * _gini_rows(right, n - size)) / n
        imp = np.where(xs[:, 1:] > xs[:, :-1], imp, np.inf).ravel()
        before = np.minimum.accumulate(np.concatenate(([lowest], imp[:-1])))
        lowest = min(lowest, before[-1], imp[-1])
        for j in np.flatnonzero(imp < before).tolist():
            if best is None or imp[j] < best[0] - 1e-15:
                f, i = divmod(j, n - 1)
                best = (imp[j], f0 + f, 0.5 * (xs[f, i] + xs[f, i + 1]))
    return best


def _grow(X, y, k, depth, max_depth, min_split):
    counts = np.bincount(y, minlength=k).astype(np.float64)
    node = _Node(prediction=counts / max(counts.sum(), 1.0))
    if depth >= max_depth or y.size < min_split or np.count_nonzero(counts) <= 1:
        return node
    split = _best_split(X, y, k)
    if split is None:
        return node
    _, f, thr = split
    mask = X[:, f] <= thr
    node.feature = f
    node.threshold = thr
    node.left = _grow(X[mask], y[mask], k, depth + 1, max_depth, min_split)
    node.right = _grow(X[~mask], y[~mask], k, depth + 1, max_depth, min_split)
    return node


def train_tree(X, y, max_depth=20, min_split=2):
    """CART with Gini impurity over midpoint thresholds."""
    X, y = _training_arrays(X, y)
    k = int(y.max()) + 1
    root = _grow(X, y, k, 0, max_depth, min_split)

    def predict_proba(A):
        out = np.empty((A.shape[0], k))
        pending = [(root, np.arange(A.shape[0]))]
        while pending:
            node, rows = pending.pop()
            if node.is_leaf:
                out[rows] = node.prediction
                continue
            go_left = A[rows, node.feature] <= node.threshold
            pending.append((node.left, rows[go_left]))
            pending.append((node.right, rows[~go_left]))
        return out

    return Classifier(_predict_proba=predict_proba)


# --- MLP -------------------------------------------------------------------

def train_mlp(X, y, hidden=(128, 64, 32), epochs=20, batch=256, lr=1e-3, seed=0):
    """ReLU MLP with softmax head, minibatch cross-entropy, Adam; on one BLAS thread."""
    X, y = _training_arrays(X, y)
    k = int(y.max()) + 1
    n, d = X.shape
    sizes = [d, *hidden, k]
    acts = ["relu"] * len(hidden) + ["softmax"]
    net = nn.init_net(sizes, acts, seed=seed)
    grad = nn.pack(net, np.empty_like(net.params))
    opt = nn.OptState.for_net(net, "adam", lr)
    rng = np.random.default_rng(seed)
    with nn.one_blas_thread():
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                probs, tape = nn.forward(net, X[idx])
                # d(mean cross-entropy)/d(probs); softmax backward turns this
                # into (p - onehot)/m on the logits
                target = nn.one_hot(y[idx], k)
                dprobs = -target / np.maximum(probs, 1e-12) / idx.size
                nn.backward(net, tape, dprobs, grad, inputs=False)
                nn.update_params(net.params, grad.params, opt)

    def predict_proba(A):
        with nn.one_blas_thread():
            return nn.forward(net, A)[0]

    return Classifier(_predict_proba=predict_proba, net=net)
