import os
from pathlib import Path

import numpy as np
import pytest

from idslab import dataset as ds
from idslab import nn

# Attack names per class used by the surrogate corpus (subset of the real map).
SURROGATE_ATTACKS = {
    0: ["normal"],
    1: ["neptune", "smurf", "back"],
    2: ["satan", "ipsweep", "nmap"],
    3: ["guess_passwd", "warezmaster"],
    4: ["buffer_overflow", "rootkit"],
}

SERVICES = ["http", "smtp", "ftp", "ftp_data", "telnet", "domain_u", "ecr_i", "private", "other"]
FLAGS = ["SF", "S0", "REJ", "RSTO", "SH"]
PROTOCOLS = ["tcp", "udp", "icmp"]

# class id -> (service weights over SERVICES, flag weights, protocol weights)
_CLASS_PROFILE = {
    0: ([6, 3, 2, 2, 1, 2, 0.2, 1, 1], [8, 0.5, 0.5, 0.2, 0.1], [6, 3, 1]),
    1: ([1, 0.3, 0.2, 0.2, 0.1, 0.2, 5, 4, 1], [1, 7, 1.5, 0.5, 0.2], [5, 1, 4]),
    2: ([1, 0.5, 0.5, 0.5, 0.3, 1, 2, 6, 2], [2, 2, 4, 1, 2], [4, 2, 3]),
    3: ([2, 2, 4, 3, 3, 0.5, 0.1, 1, 1], [6, 0.5, 1, 1.5, 0.3], [8, 1, 0.2]),
    4: ([3, 1, 2, 1, 5, 0.3, 0.1, 1, 1], [7, 0.3, 0.5, 1, 0.5], [9, 0.5, 0.1]),
}

# class id -> means for (duration, src_bytes, dst_bytes, count, srv_count,
# serror_rate, same_srv_rate, dst_host_count)
_CLASS_MEANS = {
    0: (10, 300, 2000, 8, 8, 0.02, 0.9, 80),
    1: (0, 1000, 0, 300, 250, 0.9, 0.05, 255),
    2: (2, 20, 10, 30, 5, 0.3, 0.3, 150),
    3: (60, 150, 500, 2, 2, 0.05, 0.8, 20),
    4: (150, 500, 3000, 1, 1, 0.02, 0.95, 5),
}


def _weighted_choice(rng, items, weights):
    w = np.asarray(weights, dtype=np.float64)
    return items[rng.choice(len(items), p=w / w.sum())]


def make_surrogate_line(rng, class_id, with_difficulty=True):
    """One NSL-KDD-format line (43 fields) for the given class."""
    services_w, flags_w, protos_w = _CLASS_PROFILE[class_id]
    dur, sb, db, cnt, srv, serr, same, dhc = _CLASS_MEANS[class_id]
    fields = ["0"] * 41
    fields[0] = str(max(0, int(rng.normal(dur, dur * 0.5 + 1))))
    fields[1] = _weighted_choice(rng, PROTOCOLS, protos_w)
    fields[2] = _weighted_choice(rng, SERVICES, services_w)
    fields[3] = _weighted_choice(rng, FLAGS, flags_w)
    fields[4] = str(max(0, int(rng.normal(sb, sb * 0.4 + 1))))
    fields[5] = str(max(0, int(rng.normal(db, db * 0.4 + 1))))
    fields[11] = str(int(rng.random() < (0.7 if class_id == 0 else 0.2)))  # logged_in
    fields[22] = str(max(0, int(rng.normal(cnt, cnt * 0.3 + 1))))  # count
    fields[23] = str(max(0, int(rng.normal(srv, srv * 0.3 + 1))))  # srv_count
    fields[24] = f"{np.clip(rng.normal(serr, 0.08), 0, 1):.2f}"  # serror_rate
    fields[28] = f"{np.clip(rng.normal(same, 0.1), 0, 1):.2f}"  # same_srv_rate
    fields[31] = str(max(0, int(rng.normal(dhc, 20))))  # dst_host_count
    fields[33] = f"{np.clip(rng.normal(same, 0.1), 0, 1):.2f}"  # dst_host_same_srv_rate
    attack = _weighted_choice(rng, SURROGATE_ATTACKS[class_id], [1] * len(SURROGATE_ATTACKS[class_id]))
    fields.append(attack)
    if with_difficulty:
        fields.append(str(int(rng.integers(0, 22))))
    return ",".join(fields)


def make_surrogate_records(n, seed=0, class_weights=(0.53, 0.30, 0.10, 0.06, 0.01)):
    rng = np.random.default_rng(seed)
    classes = rng.choice(5, size=n, p=np.asarray(class_weights) / np.sum(class_weights))
    lines = [make_surrogate_line(rng, int(c)) for c in classes]
    records = ds.parse_kdd(lines)
    labels = ds.labels_for(records)
    return records, labels


def reference_logreg(X, y, k, l2=1e-4, epochs=300, lr=1e-2, seed=0):
    """The one-fit softmax-regression loop `train_logreg` ran before the
    fold kernel: (n, k) logits, full-batch Adam through `nn.opt_step`."""
    n, d = X.shape
    net = nn.init_net([d, k], ["linear"], seed=seed)
    opt = nn.OptState.for_net(net, "adam", lr)
    Y = nn.one_hot(y, k)
    for _ in range(epochs):
        logits = X @ net.weights[0] + net.biases[0]
        probs = nn.softmax(logits)
        dlogits = (probs - Y) / n
        grads = [(X.T @ dlogits + l2 * net.weights[0], dlogits.sum(axis=0))]
        nn.opt_step(net, grads, opt)
    return net


def write_surrogate_files(dirpath, n_train=2000, n_test=600, seed=0):
    dirpath = Path(dirpath)
    rng = np.random.default_rng(seed)
    paths = {}
    for name, n, sub in (("KDDTrain+.txt", n_train, 1), ("KDDTest+.txt", n_test, 2)):
        sub_rng = np.random.default_rng(seed + sub)
        classes = sub_rng.choice(5, size=n, p=[0.53, 0.30, 0.10, 0.06, 0.01])
        lines = [make_surrogate_line(sub_rng, int(c)) for c in classes]
        path = dirpath / name
        path.write_text("\n".join(lines) + "\n")
        paths[name] = path
    return paths


@pytest.fixture(scope="session")
def surrogate_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("surrogate")
    paths = write_surrogate_files(root)
    return root, paths


def real_data_dir():
    """Directory holding real KDDTrain+.txt / KDDTest+.txt, if any."""
    candidates = []
    if os.environ.get("IDSLAB_DATA_DIR"):
        candidates.append(Path(os.environ["IDSLAB_DATA_DIR"]))
    candidates += [Path("data"), Path("/root/data/nsl-kdd")]
    for cand in candidates:
        if (cand / "KDDTrain+.txt").exists() and (cand / "KDDTest+.txt").exists():
            return cand
    return None


requires_real_data = pytest.mark.skipif(
    real_data_dir() is None,
    reason="real NSL-KDD files not available (set IDSLAB_DATA_DIR)",
)


@pytest.fixture(scope="session")
def real_data():
    root = real_data_dir()
    if root is None:
        pytest.skip("real NSL-KDD files not available (set IDSLAB_DATA_DIR)")
    train = ds.parse_kdd_file(root / "KDDTrain+.txt")
    test = ds.parse_kdd_file(root / "KDDTest+.txt")
    return train, test
