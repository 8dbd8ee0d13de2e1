"""A surrogate corpus with NSL-KDD's shape, for tests that need more than conftest's.

`write_paper_shaped_files(root, scale, seed)` writes KDDTrain+.txt and KDDTest+.txt:

- the published class counts (Normal, DoS, Probe, R2L, U2R) times `scale`, at least
  one row per class, so R2L is 0.79 % of the training rows but 12.8 % of the test
  rows, and U2R has 52 training rows at scale 1;
- NSL-KDD's category cardinalities: 3 protocols, 70 services (synthetic names) and
  the 11 flags, which encode 121 wide; every category occurs in the training file
  once it has at least 70 Normal rows (scale >= 0.0011);
- a per-class profile for every one of the 37 continuous columns, so all of them vary;
- attack names of the training set, plus, in the test file, the attacks only
  NSL-KDD's test set has.

The class profiles are fixed, so every `seed` draws from one distribution. This
module stays apart from conftest.py: perfbench names its corpus directory after
conftest.py's hash, and that path goes into the run-all bundle.
"""

from pathlib import Path

import numpy as np

from idslab import dataset as ds

TRAIN_COUNTS = (67_343, 45_927, 11_656, 995, 52)  # KDDTrain+, by class id
TEST_COUNTS = (9_711, 7_460, 2_421, 2_885, 67)  # KDDTest+
PROTOCOLS = ("tcp", "udp", "icmp")
SERVICES = tuple(f"service{i:02d}" for i in range(70))
FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "S3", "OTH", "RSTOS0")
_CATEGORIES = {"protocol_type": PROTOCOLS, "service": SERVICES, "flag": FLAGS}

TRAIN_ATTACKS = {
    0: ("normal",),
    1: ("back", "land", "neptune", "pod", "smurf", "teardrop"),
    2: ("ipsweep", "nmap", "portsweep", "satan"),
    3: ("ftp_write", "guess_passwd", "imap", "multihop", "phf", "spy", "warezclient",
        "warezmaster"),
    4: ("buffer_overflow", "loadmodule", "perl", "rootkit"),
}
_TEST_ONLY_ATTACKS = {
    0: (),
    1: ("apache2", "mailbomb", "processtable", "udpstorm"),
    2: ("mscan", "saint"),
    3: ("httptunnel", "named", "sendmail", "snmpgetattack", "snmpguess", "xlock", "xsnoop"),
    4: ("ps", "sqlattack", "xterm"),
}
TEST_ATTACKS = {c: TRAIN_ATTACKS[c] + _TEST_ONLY_ATTACKS[c] for c in TRAIN_ATTACKS}

# the largest value of each integer column that is neither a rate nor log-scaled
_CAPS = {
    "land": 1, "wrong_fragment": 3, "urgent": 3, "hot": 30, "num_failed_logins": 5,
    "logged_in": 1, "num_compromised": 10, "root_shell": 1, "su_attempted": 2, "num_root": 10,
    "num_file_creations": 10, "num_shells": 2, "num_access_files": 5, "is_host_login": 1,
    "is_guest_login": 1, "count": 511, "srv_count": 511, "dst_host_count": 255,
    "dst_host_srv_count": 255,
}


def _profiles():
    """Per feature, a (5, k) array of category weights or a (5,) array of locations in
    (0, 1): each class's mean rate, or its mean as a share of the column's range."""
    rng = np.random.default_rng(2009)  # fixed: the seed of a corpus draws rows only
    profiles = []
    for spec in ds.FEATURE_SCHEMA:
        if spec.kind == ds.CATEGORICAL:
            k = len(_CATEGORIES[spec.name])
            profiles.append(0.2 / k + 0.8 * rng.dirichlet(np.full(k, 0.3), size=ds.N_CLASSES))
        else:  # a shared level plus a class shift of a per-column strength
            level, strength = rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.35)
            profiles.append(np.clip(level + strength * rng.standard_normal(ds.N_CLASSES),
                                    0.02, 0.98))
    return profiles


_PROFILES = _profiles()


def _draw(rng, spec, loc, n):
    """n values of one feature, as text, from one class's profile entry `loc`."""
    if spec.kind == ds.CATEGORICAL:
        return np.array(_CATEGORIES[spec.name])[rng.choice(len(loc), size=n, p=loc)]
    if not spec.integer:  # a rate
        return np.char.mod("%.2f", np.clip(rng.normal(loc, 0.12, n), 0.0, 1.0))
    if spec.log_scaled:  # duration and the byte counts: about e^0 to e^10
        values = np.expm1(np.clip(rng.normal(10.0 * loc, 1.0, n), 0.0, None))
    else:  # a gamma-Poisson count with mean loc * cap, clipped to the cap
        cap = _CAPS[spec.name]
        values = np.minimum(rng.poisson(loc * cap * rng.gamma(1.5, 1 / 1.5, n)), cap)
    return np.floor(values).astype(np.int64).astype(str)


def _lines(rng, counts, attacks, cover):
    """counts[c] NSL-KDD lines of each class c, shuffled; with `cover`, the first
    Normal rows take every category in turn."""
    lines = []
    for c, n in enumerate(counts):
        columns = [_draw(rng, spec, profile[c], n)
                   for spec, profile in zip(ds.FEATURE_SCHEMA, _PROFILES)]
        if cover and c == 0:
            for i, spec in enumerate(ds.FEATURE_SCHEMA):
                if spec.kind == ds.CATEGORICAL:
                    names = _CATEGORIES[spec.name][:n]
                    columns[i][: len(names)] = names
        columns.insert(ds._F20_RAW_INDEX, np.full(n, "0"))  # num_outbound_cmds
        columns.append(np.array(attacks[c])[rng.integers(0, len(attacks[c]), n)])
        columns.append(rng.integers(0, 22, n).astype(str))  # difficulty
        lines += map(",".join, zip(*(col.tolist() for col in columns)))
    return [lines[i] for i in rng.permutation(len(lines))]


def write_paper_shaped_files(root, scale, seed):
    """Write KDDTrain+.txt and KDDTest+.txt under root; returns {name: path}."""
    rng = np.random.default_rng(seed)
    paths = {}
    for name, published, attacks in (("KDDTrain+.txt", TRAIN_COUNTS, TRAIN_ATTACKS),
                                     ("KDDTest+.txt", TEST_COUNTS, TEST_ATTACKS)):
        counts = [max(1, round(count * scale)) for count in published]
        path = paths[name] = Path(root) / name
        path.write_text("".join(f"{line}\n" for line in
                                _lines(rng, counts, attacks, cover=name == "KDDTrain+.txt")))
    return paths
