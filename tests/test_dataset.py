import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from idslab import dataset as ds

from conftest import (
    make_surrogate_line,
    make_surrogate_records,
    reference_decode,
    reference_encode_matrix,
    reference_parse,
    requires_real_data,
    write_surrogate_files,
)


GOOD_LINE = (
    "0,tcp,http,SF,181,5450,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,"
    "8,8,0.0,0.0,0.0,0.0,1.0,0.0,0.0,9,9,1.0,0.0,0.11,0.0,0.0,0.0,0.0,0.0,normal,21"
)


class TestParse:
    def test_good_line(self):
        records = ds.parse_kdd([GOOD_LINE])
        assert len(records) == 1
        rec = records[0]
        assert len(rec.values) == 40  # F20 dropped
        assert rec.attack_name == "normal"
        assert rec.difficulty == 21
        assert rec.values[1] == "tcp"
        assert rec.values[4] == 181.0

    def test_no_difficulty_column(self):
        line = GOOD_LINE.rsplit(",", 1)[0]
        rec = ds.parse_kdd([line])[0]
        assert rec.difficulty == 0
        assert rec.attack_name == "normal"

    def test_empty_stream(self):
        assert len(ds.parse_kdd([])) == 0
        assert len(ds.parse_kdd(["", "  "])) == 0

    def test_wrong_field_count(self):
        with pytest.raises(ds.ParseError, match="line 1"):
            ds.parse_kdd(["1,2,3"])

    def test_non_numeric_field(self):
        bad = GOOD_LINE.replace("181", "oops")
        with pytest.raises(ds.ParseError, match="src_bytes"):
            ds.parse_kdd([bad])

    def test_f20_dropped(self):
        # set num_outbound_cmds (raw field 20) to a sentinel; it must not survive
        fields = GOOD_LINE.split(",")
        fields[19] = "999"
        rec = ds.parse_kdd([",".join(fields)])[0]
        assert 999.0 not in rec.values


def bad_field(line, raw_index, value):
    fields = line.split(",")
    fields[raw_index] = value
    return ",".join(fields)


class TestParseStrictness:
    @pytest.mark.parametrize("token", ["1_000", "nan", "inf", "+1e3", "0x10", " 7 ", "1e999", "1,5"])
    def test_numeric_values_follow_float(self, token):
        line = bad_field(GOOD_LINE, 4, token)  # src_bytes
        try:
            want = float(token)
        except ValueError:
            with pytest.raises(ds.ParseError, match=r"line 1: .*(src_bytes|fields)"):
                ds.parse_kdd([line])
        else:
            got = ds.parse_kdd([line]).columns[4][0]
            assert got == want or (math.isnan(got) and math.isnan(want))

    def test_bad_value_deep_in_file_names_file_line_and_field(self, tmp_path):
        lines = [GOOD_LINE] * 15_000
        lines[10] = ""  # blank lines count
        lines[14_999] = bad_field(GOOD_LINE, 22, "12x")  # raw field 22 is "count"
        path = tmp_path / "deep.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.ParseError) as err:
            ds.parse_kdd_file(path)
        assert str(err.value) == f"{path}: line 15000: non-numeric value '12x' in field count"

    @pytest.mark.parametrize(
        "lines",
        [
            [GOOD_LINE, bad_field(GOOD_LINE, 4, "x"), "1,2,3"],
            [GOOD_LINE, "1,2,3", bad_field(GOOD_LINE, 4, "x")],
            [bad_field(bad_field(GOOD_LINE, 42, "d"), 0, "x")],
            [bad_field(bad_field(GOOD_LINE, 30, "y"), 4, "x")],
            ["", "  ", GOOD_LINE, GOOD_LINE + ",extra,fields"],
        ],
    )
    def test_first_problem_matches_reference(self, lines):
        with pytest.raises(ds.ParseError) as want:
            reference_parse(lines)
        with pytest.raises(ds.ParseError) as got:
            ds.parse_kdd(lines)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("chunk_lines", [7, 4096])
    def test_mixed_field_counts_match_reference(self, monkeypatch, chunk_lines):
        monkeypatch.setattr(ds, "_CHUNK_LINES", chunk_lines)  # 7: blank lines end chunks
        rng = np.random.default_rng(1)
        lines = [make_surrogate_line(rng, int(c), with_difficulty=bool(i % 3))
                 for i, c in enumerate(rng.choice(5, size=300))]
        lines[5:5] = ["", "   "]
        lines[13] = ""
        assert_matches_rows(ds.parse_kdd(lines), reference_parse(lines))
        bad = lines[:40] + [bad_field(lines[40], 4, "x")]
        with pytest.raises(ds.ParseError, match="line 41: non-numeric value 'x' in field src_bytes"):
            ds.parse_kdd(bad)

    def test_unknown_attack_names_first_line(self):
        lines = [GOOD_LINE, bad_field(GOOD_LINE, 41, "mystery"), bad_field(GOOD_LINE, 41, "enigma"),
                 bad_field(GOOD_LINE, 41, "mystery")]
        with pytest.raises(ds.UnknownAttackError, match=r"line 2: attack name 'mystery' is not in "
                                                        r"idslab/data/attack_map.csv"):
            ds.parse_kdd(lines)


def assert_matches_rows(records, rows):
    """Columns equal, bit for bit, to the oracle's RawRecord rows."""
    assert len(records) == len(rows)
    for i, (spec, col) in enumerate(zip(ds.FEATURE_SCHEMA, records.columns)):
        want = [r.values[i] for r in rows]
        if spec.kind == ds.CATEGORICAL:
            assert col.tolist() == want
        else:
            assert col.tobytes() == np.array(want, dtype=np.float64).tobytes(), spec.name
    assert records.attack_names.tolist() == [r.attack_name for r in rows]
    assert records.difficulty.tolist() == [r.difficulty for r in rows]


class TestColumnCodecMatchesReference:
    """The column codec against the per-row code it replaced (conftest)."""

    @pytest.fixture(scope="class")
    def corpus(self, surrogate_data):
        _, paths = surrogate_data
        return [path.read_text().splitlines() for path in paths.values()]

    def test_parse(self, corpus):
        for lines in corpus:
            assert_matches_rows(ds.parse_kdd(lines), reference_parse(lines))

    def test_encode(self, corpus):
        # each file's transformer meets the other file's values outside its ranges
        for fit_lines in corpus:
            t = ds.fit_transformer(ds.parse_kdd(fit_lines))
            for lines in corpus:
                want = reference_encode_matrix(t, reference_parse(lines))
                assert t.encode_matrix(ds.parse_kdd(lines)).tobytes() == want.tobytes()

    def test_decode(self, corpus):
        t = ds.fit_transformer(ds.parse_kdd(corpus[0]))
        M = np.random.default_rng(3).random((1000, t.total_dim))
        M[:5] = np.round(M[:5])  # exact 0/1 slots; each group keeps a positive entry
        for _, sl in t.group_slices():
            M[:5, sl.start] = 1.0
        want = [ds.RawRecord(reference_decode(t, row), "") for row in M]
        assert_matches_rows(t.decode_matrix(M), want)


def _value_strategy_with_edges(spec):
    if spec.kind == ds.CATEGORICAL:
        return st.sampled_from(["a", "b", "c_"])  # probes may hold unseen categories
    return st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 2.5, 1e12]), st.floats(-0.5, 1e9))


_EDGE_ROW = st.tuples(*(_value_strategy_with_edges(spec) for spec in ds.FEATURE_SCHEMA)).map(
    lambda values: ds.RawRecord(values=values, attack_name="normal")
)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # 1e12 over a tiny range
@settings(max_examples=100, deadline=None)
@given(fit=st.lists(_EDGE_ROW, min_size=1, max_size=4),
       probe=st.lists(_EDGE_ROW, min_size=1, max_size=8))
def test_encode_matches_reference_property(fit, probe):
    # a small fit leaves constant columns (hi == lo) and probes outside the range
    t = ds.fit_transformer(fit)
    assert t.encode_matrix(probe).tobytes() == reference_encode_matrix(t, probe).tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decode_matches_reference_property(data):
    t = ds.fit_transformer(make_surrogate_records(20, seed=0)[0])
    n_cont = len(t.mins)
    lo = data.draw(hnp.arrays(np.float64, n_cont, elements=st.sampled_from([0.0, -0.0, -4.0, 2.0])))
    span = data.draw(hnp.arrays(np.float64, n_cont, elements=st.sampled_from([0.0, 1.0, 8.0, 20.0])))
    t = ds.Transformer(specs=t.specs, mins=lo, maxs=lo + span)
    # k/16 on an 8-wide range lands on .5 ties; -0.0 on a -0.0 minimum stays -0.0
    slot = st.one_of(st.sampled_from([k / 16 for k in range(-4, 21)] + [-0.0]), st.floats(-0.25, 1.25))
    n = data.draw(st.integers(1, 6))
    M = data.draw(hnp.arrays(np.float64, (n, t.total_dim), elements=slot))
    for _, sl in t.group_slices():
        M[:, sl.start] = np.abs(M[:, sl.start]) + 0.5
    want = [ds.RawRecord(reference_decode(t, row), "") for row in M]
    assert_matches_rows(t.decode_matrix(M), want)


def test_column_path_peak_memory_below_row_path(tmp_path):
    path = write_surrogate_files(tmp_path, n_train=20_000, n_test=1)["KDDTrain+.txt"]
    t = ds.fit_transformer(ds.parse_kdd_file(path))

    def columns():
        t.encode_matrix(ds.parse_kdd_file(path))

    def rows():
        with open(path, encoding="utf-8") as fh:
            reference_encode_matrix(t, reference_parse(fh))

    peaks = []
    for run in (columns, rows):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # half: splitting the whole file at once or building RawRecord rows each
    # costs more (40 and 45 MB, against 21 MB here and 54 MB for the row path)
    assert peaks[0] < 0.5 * peaks[1], peaks


def test_documented_dtypes(fitted):
    records, labels, t = fitted
    for parsed in (records, ds.parse_kdd([])):
        for spec, col in zip(ds.FEATURE_SCHEMA, parsed.columns):
            assert col.dtype == (object if spec.kind == ds.CATEGORICAL else np.float64)
        assert parsed.attack_names.dtype == object
        assert ds.labels_for(parsed).dtype == np.int64
        M = t.encode_matrix(parsed)
        assert M.dtype == np.float64 and M.shape == (len(parsed), t.total_dim)
        for spec, col in zip(ds.FEATURE_SCHEMA, t.decode_matrix(M).columns):
            assert col.dtype == (object if spec.kind == ds.CATEGORICAL else np.float64)
    assert labels.dtype == np.int64


class TestAttackMap:
    def test_normal(self):
        assert ds.map_attack_to_class("normal") == 0

    def test_known_attacks(self):
        assert ds.map_attack_to_class("neptune") == 1
        assert ds.map_attack_to_class("satan") == 2
        assert ds.map_attack_to_class("guess_passwd") == 3
        assert ds.map_attack_to_class("rootkit") == 4

    def test_unknown_raises(self):
        with pytest.raises(ds.UnknownAttackError):
            ds.map_attack_to_class("not_an_attack")

    def test_symbols_accepted(self):
        # synthetic exports carry class symbols in the label slot
        for cid, symbol in enumerate(ds.CLASS_SYMBOLS):
            assert ds.map_attack_to_class(symbol) == cid

    def test_labels_for_matches_per_record_lookup(self):
        records, _ = make_surrogate_records(200, seed=3)
        mapping = ds.load_attack_map()
        labels = ds.labels_for(records)
        assert labels.dtype == np.int64
        assert labels.tolist() == [mapping[r.attack_name] for r in records]

    def test_unknown_symbol_in_map_file(self, monkeypatch):
        class Shipped:
            def joinpath(self, name):
                return self

            def read_text(self):
                return "attack_name,class_symbol\nneptune,D\nodd,X\n"

        monkeypatch.setattr(ds.resources, "files", lambda package: Shipped())
        ds.load_attack_map.cache_clear()
        try:
            with pytest.raises(ValueError, match="'X'"):
                ds.load_attack_map()
        finally:
            ds.load_attack_map.cache_clear()


def encode_one(t, record):
    return t.encode_matrix([record])[0]


def decode_one(t, vector):
    return t.decode_matrix(vector[None, :])[0]


@pytest.fixture(scope="module")
def fitted():
    records, labels = make_surrogate_records(500, seed=7)
    return records, labels, ds.fit_transformer(records)


class TestTransformer:
    def test_total_dim_is_sum_of_parts(self, fitted):
        records, _, t = fitted
        n_cont = sum(1 for s in t.specs if s.kind == ds.CONTINUOUS)
        n_onehot = sum(len(s.categories) for s in t.specs if s.kind == ds.CATEGORICAL)
        assert n_cont == 37  # 40 retained features minus 3 categorical
        assert t.total_dim == n_cont + n_onehot

    def test_roundtrip(self, fitted):
        records, _, t = fitted
        for rec in records[:100]:
            dec = decode_one(t, encode_one(t, rec))
            for spec, orig, back in zip(t.specs, rec.values, dec.values):
                if spec.kind == ds.CATEGORICAL:
                    assert back == orig
                elif spec.integer:
                    assert back == orig
                else:
                    assert abs(back - orig) < 1e-9

    def test_roundtrip_continuous_tolerance(self, fitted):
        # pre-rounding continuous recovery on non-integer features
        records, _, t = fitted
        vec = encode_one(t, records[0])
        dec = decode_one(t, vec)
        rates = [i for i, s in enumerate(t.specs) if not s.integer and s.kind == ds.CONTINUOUS]
        for i in rates:
            assert abs(dec.values[i] - records[0].values[i]) < 1e-9

    def test_entries_in_unit_interval(self, fitted):
        records, _, t = fitted
        M = t.encode_matrix(records)
        assert M.min() >= 0.0 and M.max() <= 1.0

    def test_onehot_groups_sum_to_one(self, fitted):
        records, _, t = fitted
        M = t.encode_matrix(records)
        for _, sl in t.group_slices():
            sums = M[:, sl].sum(axis=1)
            assert np.all((sums == 0.0) | (np.abs(sums - 1.0) < 1e-12))

    def test_encoding_pure(self, fitted):
        records, _, t = fitted
        a = encode_one(t, records[0])
        b = encode_one(t, records[0])
        assert np.array_equal(a, b)

    def test_seen_category_one_hot(self, fitted):
        records, _, t = fitted
        rec = records[0]
        vec = encode_one(t, rec)
        name_to_slice = dict(t.group_slices())
        group = vec[name_to_slice["protocol_type"]]
        assert group.sum() == 1.0

    def test_unseen_category_all_zero(self, fitted):
        records, _, t = fitted
        rec = records[0]
        values = list(rec.values)
        values[2] = "service_never_seen"
        weird = ds.RawRecord(values=tuple(values), attack_name="normal")
        vec = encode_one(t, weird)
        name_to_slice = dict(t.group_slices())
        assert vec[name_to_slice["service"]].sum() == 0.0

    def test_continuous_clipped_to_fit_range(self, fitted):
        records, _, t = fitted
        values = list(records[0].values)
        values[4] = 1e12  # src_bytes far beyond fit max
        vec = encode_one(t, ds.RawRecord(values=tuple(values), attack_name="normal"))
        assert vec.max() <= 1.0

    def test_max_maps_to_one(self):
        records, _ = make_surrogate_records(50, seed=3)
        t = ds.fit_transformer(records)
        counts = [r.values[22] for r in records]  # feature "count"
        values = list(records[0].values)
        values[22] = max(counts)
        vec = encode_one(t, ds.RawRecord(values=tuple(values), attack_name="normal"))
        # locate the "count" slot by diffing against the min encoding
        values[22] = min(counts)
        vec_min = encode_one(t, ds.RawRecord(values=tuple(values), attack_name="normal"))
        moved = np.flatnonzero(vec != vec_min)
        assert len(moved) == 1
        assert vec[moved[0]] == 1.0

    def test_single_record_fit_encodes_zero_continuous(self):
        records, _ = make_surrogate_records(1, seed=5)
        t = ds.fit_transformer(records)
        vec = encode_one(t, records[0])
        cont = t.continuous_indices()
        assert np.all(vec[cont] == 0.0)

    def test_all_zero_group_decode_error(self, fitted):
        _, _, t = fitted
        with pytest.raises(ds.DecodeError, match="protocol_type"):
            decode_one(t, np.zeros(t.total_dim))

    def test_two_ones_argmax_lowest_index(self, fitted):
        _, _, t = fitted
        vec = np.zeros(t.total_dim)
        for _, sl in t.group_slices():
            vec[sl.start] = 1.0
        name_to_slice = dict(t.group_slices())
        sl = name_to_slice["protocol_type"]
        vec[sl.start] = 1.0
        vec[sl.start + 1] = 1.0
        dec = decode_one(t, vec)
        proto_spec = next(s for s in t.specs if s.name == "protocol_type")
        assert dec.values[1] == proto_spec.categories[0]

    def test_linear_inverse(self):
        # scaled 0.5 on a min=0, max=10 linear feature decodes to 5
        base, _ = make_surrogate_records(1, seed=11)
        values = list(base[0].values)
        recs = []
        for v in (0.0, 10.0):
            vv = list(values)
            vv[22] = v  # "count", integer, not log-scaled
            recs.append(ds.RawRecord(values=tuple(vv), attack_name="normal"))
        t = ds.fit_transformer(recs)
        vec = encode_one(t, recs[0])
        moved = np.flatnonzero(encode_one(t, recs[1]) != vec)
        assert len(moved) == 1
        vec[moved[0]] = 0.5
        assert decode_one(t, vec).values[22] == 5.0

    def test_json_roundtrip(self, fitted):
        _, _, t = fitted
        t2 = ds.Transformer.from_json(t.to_json())
        assert t2.total_dim == t.total_dim
        records, _ = make_surrogate_records(20, seed=9)
        for rec in records:
            assert np.array_equal(encode_one(t, rec), encode_one(t2, rec))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            ds.fit_transformer([])

    def test_log_scaling_applied(self, fitted):
        _, _, t = fitted
        assert next(s for s in t.specs if s.name == "src_bytes").log_scaled

    @staticmethod
    def _lines(field, value, row=1):
        """Three copies of GOOD_LINE with raw `field` of line `row` (0-based) set to `value`."""
        lines = [GOOD_LINE] * 3
        fields = GOOD_LINE.split(",")
        fields[field] = value
        lines[row] = ",".join(fields)
        return lines

    # raw fields: 4 is src_bytes (log1p-scaled), 24 serror_rate (not log-scaled)
    @pytest.mark.parametrize("field, value, message", [
        (4, "nan", "feature src_bytes: cannot scale nan in record 2 (not a finite number)"),
        (24, "inf", "feature serror_rate: cannot scale inf in record 2 (not a finite number)"),
        (4, "-5", "feature src_bytes: cannot scale -5.0 in record 2 (log1p needs values > -1)"),
        (4, "-1", "feature src_bytes: cannot scale -1.0 in record 2 (log1p needs values > -1)"),
    ])
    def test_fit_rejects_unscalable_value(self, field, value, message):
        records = ds.parse_kdd(self._lines(field, value))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ds.fit_transformer(records)

    @pytest.mark.parametrize("field, value, message", [
        (24, "nan", "feature serror_rate: cannot scale nan in record 3 (not a finite number)"),
        (4, "-1", "feature src_bytes: cannot scale -1.0 in record 3 (log1p needs values > -1)"),
        (4, "-inf", "feature src_bytes: cannot scale -inf in record 3 (log1p needs values > -1)"),
    ])
    def test_encode_rejects_unscalable_value(self, field, value, message):
        t = ds.fit_transformer(ds.parse_kdd([GOOD_LINE]))
        records = ds.parse_kdd(self._lines(field, value, row=2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            t.encode_matrix(records)

    @pytest.mark.parametrize("field, value", [(4, "inf"), (4, "-0.5"), (24, "-inf"), (24, "-3")])
    def test_encode_clips_values_it_can_scale(self, field, value):
        # beyond the fitted range, but log1p (or no transform) is defined there
        t = ds.fit_transformer(ds.parse_kdd([GOOD_LINE, GOOD_LINE.replace(",181,", ",9,")]))
        vec = t.encode_matrix(ds.parse_kdd(self._lines(field, value)))
        assert np.all((vec >= 0.0) & (vec <= 1.0))


def _value_strategy(spec):
    if spec.kind == ds.CATEGORICAL:
        return st.text(alphabet="abc_", min_size=1, max_size=3)
    if spec.integer:
        return st.integers(0, 10**9 if spec.log_scaled else 10**5).map(float)
    return st.floats(0.0, 1.0)


_RECORD = st.tuples(*(_value_strategy(spec) for spec in ds.FEATURE_SCHEMA)).map(
    lambda values: ds.RawRecord(values=values, attack_name="normal")
)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(_RECORD, min_size=1, max_size=12))
def test_codec_roundtrip_property(records):
    # decode returns categories exactly, rounds integer features to the
    # nearest integer and leaves rates as floats of the min-max inverse
    t = ds.fit_transformer(records)
    for rec in records:
        back = decode_one(t, encode_one(t, rec)).values
        for spec, orig, got in zip(t.specs, rec.values, back):
            if spec.kind == ds.CATEGORICAL or spec.integer:
                assert got == orig
            else:
                assert abs(got - orig) < 1e-9


class TestHistogramAndBinary:
    def test_histogram_sums(self):
        records, labels = make_surrogate_records(300, seed=2)
        counts = np.bincount(labels, minlength=ds.N_CLASSES)
        assert counts.sum() == 300

    def test_empty_histogram(self):
        counts = np.bincount(ds.labels_for([]), minlength=ds.N_CLASSES)
        assert np.array_equal(counts, np.zeros(5, dtype=np.int64))

    def test_to_binary(self):
        y, k = ds.task_labels(np.arange(5), "binary")
        assert k == 2
        assert y.tolist() == [0, 1, 1, 1, 1]

    def test_multiclass_labels_kept(self):
        labels = np.array([4, 0, 2, 1, 3])
        y, k = ds.task_labels(labels, "multiclass")
        assert k == 5
        assert y.tolist() == labels.tolist()


class TestEncodedDataset:
    def test_save_load_roundtrip(self, tmp_path):
        records, labels = make_surrogate_records(80, seed=4)
        t = ds.fit_transformer(records)
        data = ds.EncodedDataset(t.encode_matrix(records), labels)
        path = tmp_path / "enc.npz"
        data.save(path)
        back = ds.EncodedDataset.load(path)
        assert np.array_equal(back.matrix, data.matrix)
        assert np.array_equal(back.labels, data.labels)


@requires_real_data
class TestRealData:
    def test_record_counts(self, real_data):
        train, test = real_data
        assert len(train) == 125_973
        assert len(test) == 22_544

    def test_table_class_counts(self, real_data):
        train, test = real_data
        labels = np.concatenate([ds.labels_for(train), ds.labels_for(test)])
        counts = np.bincount(labels, minlength=ds.N_CLASSES)
        assert counts.tolist() == [77_054, 53_387, 14_077, 3_880, 119]

    def test_protocol_vocabulary(self, real_data):
        train, _ = real_data
        t = ds.fit_transformer(train)
        proto = next(s for s in t.specs if s.name == "protocol_type")
        assert len(proto.categories) == 3
