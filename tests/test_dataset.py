import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idslab import dataset as ds

from conftest import make_surrogate_records, requires_real_data


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
        assert ds.parse_kdd([]) == []
        assert ds.parse_kdd(["", "  "]) == []

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


class TestAttackMap:
    def test_normal(self):
        assert ds.map_attack_to_class("normal").id == 0

    def test_known_attacks(self):
        assert ds.map_attack_to_class("neptune").id == 1
        assert ds.map_attack_to_class("satan").id == 2
        assert ds.map_attack_to_class("guess_passwd").id == 3
        assert ds.map_attack_to_class("rootkit").id == 4

    def test_unknown_raises(self):
        with pytest.raises(ds.UnknownAttackError):
            ds.map_attack_to_class("not_an_attack")

    def test_symbols_accepted(self):
        # synthetic exports carry class symbols in the label slot
        for cid, symbol in enumerate(ds.CLASS_SYMBOLS):
            assert ds.map_attack_to_class(symbol).id == cid

    def test_class_label_bijection(self):
        for cid, symbol in enumerate(["N", "D", "P", "R", "U"]):
            lab = ds.ClassLabel(cid)
            assert lab.symbol == symbol
            assert ds.ClassLabel.from_symbol(symbol).id == cid


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
            dec = t.decode(t.encode(rec))
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
        vec = t.encode(records[0])
        dec = t.decode(vec)
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
        a = t.encode(records[0])
        b = t.encode(records[0])
        assert np.array_equal(a, b)

    def test_seen_category_one_hot(self, fitted):
        records, _, t = fitted
        rec = records[0]
        vec = t.encode(rec)
        name_to_slice = dict(t.group_slices())
        group = vec[name_to_slice["protocol_type"]]
        assert group.sum() == 1.0

    def test_unseen_category_all_zero(self, fitted):
        records, _, t = fitted
        rec = records[0]
        values = list(rec.values)
        values[2] = "service_never_seen"
        weird = ds.RawRecord(values=tuple(values), attack_name="normal")
        vec = t.encode(weird)
        name_to_slice = dict(t.group_slices())
        assert vec[name_to_slice["service"]].sum() == 0.0

    def test_continuous_clipped_to_fit_range(self, fitted):
        records, _, t = fitted
        values = list(records[0].values)
        values[4] = 1e12  # src_bytes far beyond fit max
        vec = t.encode(ds.RawRecord(values=tuple(values), attack_name="normal"))
        assert vec.max() <= 1.0

    def test_max_maps_to_one(self):
        records, _ = make_surrogate_records(50, seed=3)
        t = ds.fit_transformer(records)
        counts = [r.values[22] for r in records]  # feature "count"
        values = list(records[0].values)
        values[22] = max(counts)
        vec = t.encode(ds.RawRecord(values=tuple(values), attack_name="normal"))
        # locate the "count" slot by diffing against the min encoding
        values[22] = min(counts)
        vec_min = t.encode(ds.RawRecord(values=tuple(values), attack_name="normal"))
        moved = np.flatnonzero(vec != vec_min)
        assert len(moved) == 1
        assert vec[moved[0]] == 1.0

    def test_single_record_fit_encodes_zero_continuous(self):
        records, _ = make_surrogate_records(1, seed=5)
        t = ds.fit_transformer(records)
        vec = t.encode(records[0])
        cont = t.continuous_indices()
        assert np.all(vec[cont] == 0.0)

    def test_all_zero_group_decode_error(self, fitted):
        _, _, t = fitted
        with pytest.raises(ds.DecodeError, match="protocol_type"):
            t.decode(np.zeros(t.total_dim))

    def test_two_ones_argmax_lowest_index(self, fitted):
        _, _, t = fitted
        vec = np.zeros(t.total_dim)
        for _, sl in t.group_slices():
            vec[sl.start] = 1.0
        name_to_slice = dict(t.group_slices())
        sl = name_to_slice["protocol_type"]
        vec[sl.start] = 1.0
        vec[sl.start + 1] = 1.0
        dec = t.decode(vec)
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
        vec = t.encode(recs[0])
        moved = np.flatnonzero(t.encode(recs[1]) != vec)
        assert len(moved) == 1
        vec[moved[0]] = 0.5
        assert t.decode(vec).values[22] == 5.0

    def test_json_roundtrip(self, fitted):
        _, _, t = fitted
        t2 = ds.Transformer.from_json(t.to_json())
        assert t2.total_dim == t.total_dim
        records, _ = make_surrogate_records(20, seed=9)
        for rec in records:
            assert np.array_equal(t.encode(rec), t2.encode(rec))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            ds.fit_transformer([])

    def test_log_scaling_applied(self, fitted):
        _, _, t = fitted
        assert next(s for s in t.specs if s.name == "src_bytes").log_scaled


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
        back = t.decode(t.encode(rec)).values
        for spec, orig, got in zip(t.specs, rec.values, back):
            if spec.kind == ds.CATEGORICAL or spec.integer:
                assert got == orig
            else:
                assert abs(got - orig) < 1e-9


class TestHistogramAndBinary:
    def test_histogram_sums(self):
        records, labels = make_surrogate_records(300, seed=2)
        counts = ds.class_histogram(labels)
        assert counts.sum() == 300

    def test_empty_histogram(self):
        assert np.array_equal(ds.class_histogram([]), np.zeros(5, dtype=np.int64))

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
        data = ds.encode_dataset(records, labels, t)
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
        labels = ds.labels_for(train) + ds.labels_for(test)
        counts = ds.class_histogram(labels)
        assert counts.tolist() == [77_054, 53_387, 14_077, 3_880, 119]

    def test_protocol_vocabulary(self, real_data):
        train, _ = real_data
        t = ds.fit_transformer(train)
        proto = next(s for s in t.specs if s.name == "protocol_type")
        assert len(proto.categories) == 3
