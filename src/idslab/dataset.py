"""NSL-KDD parsing, attack-class mapping, and reversible record encoding.

Records carry 41 features (the standard 42 minus num_outbound_cmds, which
is constant zero in the published files) and travel as columns (`Records`).
Categorical features become one-hot groups, continuous features are min-max
scaled to [0, 1] with an optional log1p transform for the heavy-tailed
byte/duration counters; the codec works one feature column at a time.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from itertools import islice, repeat
from types import MappingProxyType

import numpy as np

__all__ = [
    "FeatureSpec",
    "RawRecord",
    "Records",
    "as_records",
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


class UnknownAttackError(ParseError):
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
    """Row view of one record: 40 feature values and its label (see `Records.from_rows`)."""

    values: tuple  # str for categorical slots, float for continuous slots
    attack_name: str
    difficulty: int = 0  # parsed, unused

    def __post_init__(self):
        if len(self.values) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} feature values, got {len(self.values)}")


@dataclass(frozen=True, eq=False)
class Records:
    """Records as columns: one array per FEATURE_SCHEMA feature (object if categorical,
    else float64), attack names, difficulties.  [int] is a RawRecord view, [slice] Records."""

    columns: tuple
    attack_names: np.ndarray  # object
    difficulty: np.ndarray  # int64

    def __len__(self):
        return len(self.attack_names)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return next(iter(self[[index]]))
        columns = tuple(col[index] for col in self.columns)
        return Records(columns, self.attack_names[index], self.difficulty[index])

    def __iter__(self):
        values = zip(*(col.tolist() for col in self.columns))
        return map(RawRecord, values, self.attack_names.tolist(), self.difficulty.tolist())

    @classmethod
    def from_rows(cls, rows):
        """Transpose RawRecord rows into columns."""
        rows = list(rows)
        values = list(zip(*(r.values for r in rows))) or [()] * N_FEATURES
        columns = tuple(np.array(v, dtype=object if spec.kind == CATEGORICAL else np.float64)
                        for spec, v in zip(FEATURE_SCHEMA, values))
        return cls(columns, np.array([r.attack_name for r in rows], dtype=object),
                   np.array([r.difficulty for r in rows], dtype=np.int64))

    @classmethod
    def concat(cls, parts):
        parts = [as_records(p) for p in parts] or [cls.from_rows([])]
        columns = tuple(map(np.concatenate, zip(*(p.columns for p in parts))))
        return cls(columns, np.concatenate([p.attack_names for p in parts]),
                   np.concatenate([p.difficulty for p in parts]))


def as_records(records):
    """`records` if it is a Records, else the Records of its RawRecord rows."""
    return records if isinstance(records, Records) else Records.from_rows(records)


_CHUNK_LINES = 4096  # lines split at a time: bounds the fields held at once
_MAP_FILE = "idslab/data/attack_map.csv"
_RAW_INDEX = tuple(i + (i >= _F20_RAW_INDEX) for i in range(N_FEATURES))


def parse_kdd(stream):
    """Parse NSL-KDD text into Records, dropping num_outbound_cmds.

    `stream` is an iterable of lines (an open text file works).  Lines need 43
    fields (features, label, difficulty) or 42 (no difficulty) and a known
    label.  Chunks of lines are split and their columns converted by float()
    and int(); a ParseError names the first bad line (blank ones counted).
    """
    lines, parts = iter(stream), []
    while chunk := list(islice(lines, _CHUNK_LINES)):
        parts.append(_parse_chunk(chunk, len(parts) * _CHUNK_LINES + 1))
    return Records.concat(parts)


def _parse_chunk(chunk, first_line):
    lines, line_nos = [], []
    for line_no, line in enumerate(chunk, start=first_line):
        line = line.strip()
        commas = line.count(",")
        if commas == 41:
            line += ",0"  # no difficulty column
        elif commas != 42:
            if line:  # blank lines are skipped; a problem on an earlier line comes first
                _parse_chunk(chunk[: line_no - first_line], first_line)
                raise ParseError(f"line {line_no}: expected 42 or 43 fields, got {commas + 1}")
            continue
        lines.append(line)
        line_nos.append(line_no)
    fields = ",".join(lines).split(",") if lines else []
    *features, names, difficulty = (fields[j::43] for j in (*_RAW_INDEX, 41, 42))
    try:
        difficulty = np.fromiter(map(int, difficulty), np.int64, len(lines))
        columns = tuple(np.array(col, dtype=object) if spec.kind == CATEGORICAL
                        else np.fromiter(map(float, col), np.float64, len(col))
                        for spec, col in zip(FEATURE_SCHEMA, features))
    except (ValueError, OverflowError):  # OverflowError: a difficulty beyond int64
        raise _first_bad_value(lines, line_nos) from None
    if unknown := set(names) - load_attack_map().keys() - _SYMBOL_TO_ID.keys():
        i = min(map(names.index, unknown))
        raise UnknownAttackError(f"line {line_nos[i]}: attack name {names[i]!r} is not in {_MAP_FILE}")
    return Records(columns, np.array(names, dtype=object), difficulty)


def _first_bad_value(lines, line_nos):
    """The ParseError of the first value int()/float() rejects, in line order."""
    checks = [(42, lambda raw: np.int64(int(raw)), "non-integer difficulty {!r}")] + [
        (j, float, f"non-numeric value {{!r}} in field {spec.name}")
        for spec, j in zip(FEATURE_SCHEMA, _RAW_INDEX) if spec.kind == CONTINUOUS
    ]
    for line_no, line in zip(line_nos, lines):
        fields = line.split(",")
        for j, convert, message in checks:
            try:
                convert(fields[j])
            except (ValueError, OverflowError):
                return ParseError(f"line {line_no}: " + message.format(fields[j]))


def parse_kdd_file(path):
    """parse_kdd on a file; a ParseError also names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_kdd(fh)
        except ParseError as exc:
            raise type(exc)(f"{path}: {exc}") from None


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
    raise UnknownAttackError(f"attack name {attack_name!r} is not in {_MAP_FILE}")


def labels_for(records):
    """Class ids of the records (a Records or RawRecord rows), as an int64 array."""
    names = as_records(records).attack_names.tolist()
    return np.fromiter(map(map_attack_to_class, names), np.int64, len(names))


def task_labels(labels, mode):
    """Class ids for a task and its class count; the one definition of the tasks.

    Binary collapses Normal -> 0 and any attack -> 1 (k=2); multiclass keeps
    the five class ids (k=5).  Any other mode is a ValueError.
    """
    if mode == "binary":
        return (labels != 0).astype(np.int64), 2
    if mode == "multiclass":
        return labels, N_CLASSES
    raise ValueError(f"mode must be binary or multiclass, got {mode!r}")


@dataclass
class Transformer:
    """Fitted, reversible record <-> vector codec.

    Immutable after fit; encode_matrix/decode_matrix are pure and work a column
    at a time.  Continuous features are min-max scaled (after optional log1p)
    and clipped to the fitted range; categorical ones become one-hot groups.
    """

    specs: tuple  # FeatureSpec with frozen categories
    mins: np.ndarray  # per continuous feature, in spec order
    maxs: np.ndarray
    total_dim: int = field(init=False)
    _layout: list = field(init=False, repr=False)

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        self._layout, offset, cont_i = [], 0, 0  # (spec, offset, width, index into mins)
        for spec in self.specs:
            continuous = spec.kind == CONTINUOUS
            width = 1 if continuous else len(spec.categories)
            self._layout.append((spec, offset, width, cont_i if continuous else None))
            offset += width
            cont_i += continuous
        self.total_dim = offset

    def encode_matrix(self, records):
        """n x total_dim float64 encoding of a Records (or RawRecord rows); a NaN, or
        a value <= -1 in a log1p-scaled feature, is a ValueError naming the feature."""
        columns = as_records(records).columns
        out = np.zeros((len(columns[0]), self.total_dim))
        for (spec, off, width, ci), col in zip(self._layout, columns):
            if spec.kind == CATEGORICAL:
                vocab = dict(zip(spec.categories, range(width)))
                slot = np.fromiter(map(vocab.get, col.tolist(), repeat(-1)), np.intp, len(col))
                rows = np.flatnonzero(slot >= 0)  # an unseen category leaves its group 0
                out[rows, off + slot[rows]] = 1.0
            else:
                _check_scalable(spec, col, finite=False)  # inf clips to the fitted range
                if self.maxs[ci] > self.mins[ci]:  # a constant column stays 0
                    lo, hi = self.mins[ci], self.maxs[ci]
                    x = _math_map(math.log1p, col) if spec.log_scaled else col
                    out[:, off] = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        return out

    def decode_matrix(self, matrix):
        """Records of an n x total_dim matrix: continuous slots scale back (expm1
        if log-scaled, integer features rounded half to even), groups argmax."""
        if np.shape(matrix)[1:] != (self.total_dim,):
            raise ValueError(f"expected n x {self.total_dim} matrix, got shape {np.shape(matrix)}")
        columns = []
        for spec, off, width, ci in self._layout:
            if spec.kind == CONTINUOUS:
                lo, hi = self.mins[ci], self.maxs[ci]
                x = lo + matrix[:, off] * (hi - lo)
                if spec.log_scaled:
                    x = _math_map(math.expm1, x)
                if spec.integer:
                    x = np.rint(x) + 0.0  # as float(round(x)): half to even, no -0.0
            else:
                group = matrix[:, off : off + width]
                if not (group > 0).any(axis=1).all():
                    raise DecodeError(f"all-zero one-hot group for feature {spec.name}")
                x = np.array(spec.categories, dtype=object)[group.argmax(axis=1)]
            columns.append(x)
        n = len(matrix)
        return Records(tuple(columns), np.full(n, "", dtype=object), np.zeros(n, dtype=np.int64))

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
        features = [asdict(spec) for spec in self.specs]
        return json.dumps({"version": 1, "features": features,
                           "mins": self.mins.tolist(), "maxs": self.maxs.tolist()})

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        if obj.get("version") != 1:
            raise ValueError(f"unsupported transformer version: {obj.get('version')}")
        specs = tuple(FeatureSpec(**f | {"categories": tuple(f["categories"])})
                      for f in obj["features"])
        return cls(specs=specs, mins=np.array(obj["mins"]), maxs=np.array(obj["maxs"]))


def _math_map(fn, col):
    """fn on each value: math.log1p/expm1 differ from numpy's in the last bit."""
    return np.fromiter(map(fn, col.tolist()), np.float64, len(col))


def _check_scalable(spec, col, finite):
    """A ValueError naming the feature and record of the first value the codec
    cannot scale: NaN (any non-finite value if `finite`), or one <= -1 under log1p."""
    bad = ~np.isfinite(col) if finite else np.isnan(col)
    if spec.log_scaled:
        bad |= col <= -1.0
    if bad.any():
        i = int(bad.argmax())
        why = "log1p needs values > -1" if col[i] <= -1.0 else "not a finite number"
        raise ValueError(f"feature {spec.name}: cannot scale {float(col[i])!r} "
                         f"in record {i + 1} ({why})")


def fit_transformer(records):
    """Fit category vocabularies and continuous ranges from training records;
    a value the codec cannot scale is a ValueError (see _check_scalable)."""
    records = as_records(records)
    if not len(records):
        raise ValueError("cannot fit transformer on empty record list")
    specs, mins, maxs = [], [], []
    for spec, col in zip(FEATURE_SCHEMA, records.columns):
        if spec.kind == CATEGORICAL:
            specs.append(replace(spec, categories=tuple(sorted(set(col.tolist())))))
        else:
            _check_scalable(spec, col, finite=True)
            vals = _math_map(math.log1p, col) if spec.log_scaled else col
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
        """Read a save() file; a ValueError names path and the matrix or labels array missing."""
        arrays, name = {}, "matrix"
        try:  # np.load takes a non-numpy file for a pickle (ValueError); an npy array is no
            with np.load(path) as z:  # context manager (TypeError)
                for name in ("matrix", "labels"):
                    arrays[name] = z[name]
        except (ValueError, EOFError, KeyError, TypeError):
            raise ValueError(f"{path}: not an encoded dataset: no {name} array") from None
        return cls(**arrays)

