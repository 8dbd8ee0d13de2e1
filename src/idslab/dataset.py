"""NSL-KDD parsing, attack-class mapping, and reversible record encoding.

Records carry 41 features (the standard 42 minus num_outbound_cmds, which
is constant zero in the published files).  Categorical features become
one-hot groups, continuous features are min-max scaled to [0, 1] with an
optional log1p transform for the heavy-tailed byte/duration counters.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType

import numpy as np

__all__ = [
    "FeatureSpec",
    "RawRecord",
    "Transformer",
    "EncodedDataset",
    "ParseError",
    "UnknownAttackError",
    "DecodeError",
    "FEATURE_SCHEMA",
    "CLASS_NAMES",
    "CLASS_SYMBOLS",
    "parse_kdd",
    "load_attack_map",
    "map_attack_to_class",
    "labels_for",
    "fit_transformer",
    "task_labels",
]

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

# id -> (name, symbol); the numeric ids are shared by the environment action
# space and the GAN condition vector.
CLASS_NAMES = ("Normal", "DoS", "Probe", "R2L", "U2R")
CLASS_SYMBOLS = ("N", "D", "P", "R", "U")
_SYMBOL_TO_ID = {s: i for i, s in enumerate(CLASS_SYMBOLS)}

N_CLASSES = 5


class ParseError(ValueError):
    """Malformed NSL-KDD input line."""


class UnknownAttackError(KeyError):
    """Attack name absent from the shipped mapping file."""


class DecodeError(ValueError):
    """Encoded vector cannot be decoded (e.g. all-zero one-hot group)."""


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str  # CONTINUOUS or CATEGORICAL
    integer: bool = False  # continuous feature holding integer counts
    log_scaled: bool = False  # log1p before min-max
    categories: tuple = ()  # frozen after fit (categorical only)

    def __post_init__(self):
        if self.kind == CATEGORICAL and len(set(self.categories)) != len(self.categories):
            raise ValueError(f"duplicate categories for feature {self.name}")


def _spec(name, kind=CONTINUOUS, integer=False, log_scaled=False):
    return FeatureSpec(name=name, kind=kind, integer=integer, log_scaled=log_scaled)


# The 41 retained features in file order (num_outbound_cmds removed).
FEATURE_SCHEMA = (
    _spec("duration", integer=True, log_scaled=True),
    _spec("protocol_type", CATEGORICAL),
    _spec("service", CATEGORICAL),
    _spec("flag", CATEGORICAL),
    _spec("src_bytes", integer=True, log_scaled=True),
    _spec("dst_bytes", integer=True, log_scaled=True),
    _spec("land", integer=True),
    _spec("wrong_fragment", integer=True),
    _spec("urgent", integer=True),
    _spec("hot", integer=True),
    _spec("num_failed_logins", integer=True),
    _spec("logged_in", integer=True),
    _spec("num_compromised", integer=True),
    _spec("root_shell", integer=True),
    _spec("su_attempted", integer=True),
    _spec("num_root", integer=True),
    _spec("num_file_creations", integer=True),
    _spec("num_shells", integer=True),
    _spec("num_access_files", integer=True),
    _spec("is_host_login", integer=True),
    _spec("is_guest_login", integer=True),
    _spec("count", integer=True),
    _spec("srv_count", integer=True),
    _spec("serror_rate"),
    _spec("srv_serror_rate"),
    _spec("rerror_rate"),
    _spec("srv_rerror_rate"),
    _spec("same_srv_rate"),
    _spec("diff_srv_rate"),
    _spec("srv_diff_host_rate"),
    _spec("dst_host_count", integer=True),
    _spec("dst_host_srv_count", integer=True),
    _spec("dst_host_same_srv_rate"),
    _spec("dst_host_diff_srv_rate"),
    _spec("dst_host_same_src_port_rate"),
    _spec("dst_host_srv_diff_host_rate"),
    _spec("dst_host_serror_rate"),
    _spec("dst_host_srv_serror_rate"),
    _spec("dst_host_rerror_rate"),
    _spec("dst_host_srv_rerror_rate"),
)

N_FEATURES = len(FEATURE_SCHEMA)  # 40 fields here; 41 in the raw file before F20 removal
assert N_FEATURES == 40

# Raw file column index of num_outbound_cmds (0-based, among the 41 feature
# columns of the published files).
_F20_RAW_INDEX = 19


@dataclass(frozen=True)
class RawRecord:
    """One flow record: 40 feature values after F20 removal, plus label info."""

    values: tuple  # str for categorical slots, float for continuous slots
    attack_name: str
    difficulty: int = 0  # parsed, unused

    def __post_init__(self):
        if len(self.values) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} feature values, got {len(self.values)}")


def _coerce_fields(fields, line_no):
    values = []
    for spec, raw in zip(FEATURE_SCHEMA, fields):
        if spec.kind == CATEGORICAL:
            values.append(raw)
        else:
            try:
                values.append(float(raw))
            except ValueError:
                raise ParseError(
                    f"line {line_no}: non-numeric value {raw!r} in field {spec.name}"
                ) from None
    return tuple(values)


def parse_kdd(stream):
    """Parse NSL-KDD text into records, dropping num_outbound_cmds.

    `stream` is an iterable of lines (an open text file works).  Lines must
    have 43 fields (features, label, difficulty) or 42 (no difficulty).
    """
    records = []
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) == 43:
            *feat, attack, difficulty = fields
        elif len(fields) == 42:
            *feat, attack = fields
            difficulty = "0"
        else:
            raise ParseError(f"line {line_no}: expected 42 or 43 fields, got {len(fields)}")
        del feat[_F20_RAW_INDEX]
        try:
            diff = int(difficulty)
        except ValueError:
            raise ParseError(f"line {line_no}: non-integer difficulty {difficulty!r}") from None
        records.append(
            RawRecord(values=_coerce_fields(feat, line_no), attack_name=attack, difficulty=diff)
        )
    return records


def parse_kdd_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kdd(fh)


@functools.cache
def load_attack_map():
    """The shipped attack_name -> class id map (read-only: callers share it)."""
    text = resources.files("idslab").joinpath("data/attack_map.csv").read_text()
    mapping = {}
    for row in csv.DictReader(text.splitlines()):
        if row["class_symbol"] not in _SYMBOL_TO_ID:
            raise ValueError(f"unknown class symbol: {row['class_symbol']!r}")
        mapping[row["attack_name"]] = _SYMBOL_TO_ID[row["class_symbol"]]
    return MappingProxyType(mapping)


def map_attack_to_class(attack_name):
    """Class id of a raw attack name (or of a class symbol)."""
    mapping = load_attack_map()
    if attack_name in mapping:
        return mapping[attack_name]
    if attack_name in _SYMBOL_TO_ID:  # synthetic exports carry symbols
        return _SYMBOL_TO_ID[attack_name]
    raise UnknownAttackError(attack_name)


def labels_for(records):
    """Class ids of the records, as an int64 array."""
    return np.array([map_attack_to_class(r.attack_name) for r in records], dtype=np.int64)


def task_labels(labels, mode):
    """Class ids for a task and its class count.

    Binary collapses Normal -> 0 and any attack -> 1 (k=2); multiclass keeps
    the five class ids (k=5).
    """
    if mode == "binary":
        return (labels != 0).astype(np.int64), 2
    return labels, N_CLASSES


@dataclass
class Transformer:
    """Fitted, reversible record <-> vector codec.

    Immutable after fit; encode/decode are pure.  Continuous features are
    min-max scaled (after optional log1p) and clipped to the fitted range;
    categorical features become one-hot groups in file order.
    """

    specs: tuple  # FeatureSpec with frozen categories
    mins: np.ndarray  # per continuous feature, in spec order
    maxs: np.ndarray
    total_dim: int = field(init=False)
    _layout: list = field(init=False, repr=False)

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        layout = []
        offset = 0
        cont_i = 0
        for spec in self.specs:
            if spec.kind == CONTINUOUS:
                layout.append((spec, offset, 1, cont_i))
                offset += 1
                cont_i += 1
            else:
                width = len(spec.categories)
                layout.append((spec, offset, width, None))
                offset += width
        self._layout = layout
        self.total_dim = offset

    def encode(self, record):
        vec = np.zeros(self.total_dim, dtype=np.float64)
        for (spec, off, width, ci), value in zip(self._layout, record.values):
            if spec.kind == CONTINUOUS:
                x = float(value)
                if spec.log_scaled:
                    x = math.log1p(x)
                lo, hi = self.mins[ci], self.maxs[ci]
                if hi > lo:
                    vec[off] = min(max((x - lo) / (hi - lo), 0.0), 1.0)
                # constant column stays 0
            else:
                try:
                    vec[off + spec.categories.index(value)] = 1.0
                except ValueError:
                    pass  # unseen category: all-zero group
        return vec

    def decode(self, vector):
        if len(vector) != self.total_dim:
            raise ValueError(f"expected length {self.total_dim}, got {len(vector)}")
        values = []
        for spec, off, width, ci in self._layout:
            if spec.kind == CONTINUOUS:
                lo, hi = self.mins[ci], self.maxs[ci]
                x = lo + float(vector[off]) * (hi - lo)
                if spec.log_scaled:
                    x = math.expm1(x)
                if spec.integer:
                    x = float(round(x))
                values.append(x)
            else:
                group = np.asarray(vector[off : off + width])
                if not np.any(group > 0):
                    raise DecodeError(f"all-zero one-hot group for feature {spec.name}")
                values.append(spec.categories[int(np.argmax(group))])
        return RawRecord(values=tuple(values), attack_name="", difficulty=0)

    def encode_matrix(self, records):
        return np.stack([self.encode(r) for r in records]) if records else np.zeros((0, self.total_dim))

    def group_slices(self):
        """(name, slice) per one-hot group, for GAN output heads."""
        return [
            (spec.name, slice(off, off + width))
            for spec, off, width, _ in self._layout
            if spec.kind == CATEGORICAL
        ]

    def continuous_indices(self):
        return np.array(
            [off for spec, off, _, _ in self._layout if spec.kind == CONTINUOUS], dtype=np.intp
        )

    def to_json(self):
        return json.dumps(
            {
                "version": 1,
                "features": [
                    {
                        "name": s.name,
                        "kind": s.kind,
                        "integer": s.integer,
                        "log_scaled": s.log_scaled,
                        "categories": list(s.categories),
                    }
                    for s in self.specs
                ],
                "mins": self.mins.tolist(),
                "maxs": self.maxs.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        if obj.get("version") != 1:
            raise ValueError(f"unsupported transformer version: {obj.get('version')}")
        specs = tuple(
            FeatureSpec(
                name=f["name"],
                kind=f["kind"],
                integer=f["integer"],
                log_scaled=f["log_scaled"],
                categories=tuple(f["categories"]),
            )
            for f in obj["features"]
        )
        return cls(specs=specs, mins=np.array(obj["mins"]), maxs=np.array(obj["maxs"]))


def fit_transformer(records):
    """Fit category vocabularies and continuous ranges from training records."""
    if not records:
        raise ValueError("cannot fit transformer on empty record list")
    specs = []
    mins, maxs = [], []
    for col, spec in enumerate(FEATURE_SCHEMA):
        column = [r.values[col] for r in records]
        if spec.kind == CATEGORICAL:
            cats = tuple(sorted(set(column)))
            specs.append(
                FeatureSpec(
                    name=spec.name, kind=CATEGORICAL, integer=False,
                    log_scaled=False, categories=cats,
                )
            )
        else:
            vals = np.asarray(column, dtype=np.float64)
            if spec.log_scaled:
                vals = np.log1p(vals)
            mins.append(float(vals.min()))
            maxs.append(float(vals.max()))
            specs.append(spec)
    return Transformer(specs=tuple(specs), mins=np.array(mins), maxs=np.array(maxs))


@dataclass
class EncodedDataset:
    """Encoded matrix plus per-row class labels."""

    matrix: np.ndarray  # n x total_dim, float64 in [0, 1]
    labels: np.ndarray  # n class ids (int64)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.matrix.shape[0] != self.labels.shape[0]:
            raise ValueError("matrix/labels length mismatch")

    def __len__(self):
        return self.matrix.shape[0]

    def save(self, path):
        np.savez_compressed(path, matrix=self.matrix, labels=self.labels)

    @classmethod
    def load(cls, path):
        with np.load(path) as z:
            return cls(matrix=z["matrix"], labels=z["labels"])

