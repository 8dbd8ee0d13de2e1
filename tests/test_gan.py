import contextlib

import numpy as np
import pytest

from idslab import dataset as ds, gan, nn, synth_eval
from idslab.dataset import CATEGORICAL, CONTINUOUS, FeatureSpec

from conftest import (
    backward_pairs,
    make_surrogate_records,
    reference_export_text,
    save_old_layout_gan,
)
from test_nn import assert_same


def surrogate_model(n=300, seed=0, epochs=1, **overrides):
    records, labels = make_surrogate_records(n, seed=seed)
    t = ds.fit_transformer(records)
    data = ds.EncodedDataset(t.encode_matrix(records), labels)
    cfg = gan.GanConfig(
        epochs=epochs, batch_size=50, critic_steps=2, noise_dim=16,
        hidden=(32, 32), seed=seed, **overrides,
    )
    model, history = gan.train_gan(data, t, cfg)
    return model, history, data


TOY_MODE = np.array([0, 1, 2, 0, 1])  # the category class c puts 85 % of its mass on


def toy_table(n=2000, seed=0):
    """One 3-category categorical + one continuous column, both drawn from the
    label: class c picks category TOY_MODE[c] with probability 0.85 (0.075 for
    each other one), and its continuous value is N(0.1 + 0.2c, 0.05^2) clipped
    to [0, 1].  Labels are uniform, so every class is present."""
    specs = (
        FeatureSpec(name="color", kind=CATEGORICAL, categories=("a", "b", "c")),
        FeatureSpec(name="amount", kind=CONTINUOUS),
    )
    t = ds.Transformer(specs=specs, mins=np.array([0.0]), maxs=np.array([1.0]))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, size=n)
    other = (TOY_MODE[labels] + rng.integers(1, 3, size=n)) % 3
    cats = np.where(rng.random(n) < 0.85, TOY_MODE[labels], other)
    cont = np.clip(rng.normal(0.1 + 0.2 * labels, 0.05), 0.0, 1.0)
    matrix = np.zeros((n, 4))
    matrix[np.arange(n), cats] = 1.0
    matrix[:, 3] = cont
    return ds.EncodedDataset(matrix=matrix, labels=labels), t, cats, cont


class TestConfig:
    def test_rejects_zero_critic_steps(self):
        with pytest.raises(ValueError):
            gan.GanConfig(critic_steps=0)

    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(ValueError):
            gan.GanConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            gan.GanConfig(gumbel_temperature=-1.0)

    def test_rejects_negative_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            gan.GanConfig(epochs=-1)


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        model, _, _ = surrogate_model(epochs=1)
        path = tmp_path / "gan_model.npz"
        model.save(path)
        back = gan.GanModel.load(path)
        for net, net_back in ((model.generator, back.generator), (model.critic, back.critic)):
            assert net_back.activations == net.activations
            for a, b in zip(net.weights + net.biases, net_back.weights + net_back.biases):
                assert np.array_equal(a, b)
        assert back.transformer.to_json() == model.transformer.to_json()
        assert np.array_equal(back.class_distribution, model.class_distribution)
        assert back.config == model.config
        rows = gan.sample_unconditional(model, 40, seed=3)
        rows_back = gan.sample_unconditional(back, 40, seed=3)
        assert [(r.values, l) for r, l in rows] == [(r.values, l) for r, l in rows_back]

    def test_old_layout_checkpoint_rejected(self, tmp_path):
        # gan_model.npz files written while the generator emitted its own label slots
        model, _, _ = surrogate_model(epochs=1)
        path = tmp_path / "gan_model.npz"
        save_old_layout_gan(model, path)
        w = model.transformer.total_dim
        with pytest.raises(ValueError) as err:
            gan.GanModel.load(path)
        message = str(err.value)
        assert message.startswith(f"{path}: ")
        assert f"are {w + 5} / {w + 10}, expected {w} / {w + 5}" in message
        assert message.endswith("re-run gan-train")


class TestTrain:
    def test_zero_epochs_empty_history(self):
        model, history, _ = surrogate_model(epochs=0)
        assert history == []
        assert isinstance(model, gan.GanModel)
        assert model.generator.out_dim == model.transformer.total_dim
        assert model.critic.in_dim == model.transformer.total_dim + ds.N_CLASSES

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            model, history, _ = surrogate_model(seed=7, epochs=2)
            runs.append((model, history))
        a, b = runs
        assert a[1] == b[1]
        for net_a, net_b in ((a[0].generator, b[0].generator), (a[0].critic, b[0].critic)):
            assert all(np.array_equal(x, y) for x, y in zip(net_a.weights, net_b.weights))
            assert all(np.array_equal(x, y) for x, y in zip(net_a.biases, net_b.biases))

    def test_missing_class_rejected(self):
        records, labels = make_surrogate_records(200, seed=0)
        t = ds.fit_transformer(records)
        data = ds.EncodedDataset(t.encode_matrix(records), labels)
        keep = data.labels != 4
        pruned = ds.EncodedDataset(matrix=data.matrix[keep], labels=data.labels[keep])
        with pytest.raises(ValueError, match="absent"):
            gan.train_gan(pruned, t, gan.GanConfig(epochs=1, batch_size=50))

    def test_empty_data_rejected(self):
        records, _ = make_surrogate_records(10, seed=0)
        t = ds.fit_transformer(records)
        empty = ds.EncodedDataset(
            matrix=np.zeros((0, t.total_dim)), labels=np.zeros(0, dtype=np.int64)
        )
        with pytest.raises(ValueError):
            gan.train_gan(empty, t, gan.GanConfig(epochs=1))

    def test_nan_loss_stops_training(self):
        records, labels = make_surrogate_records(300, seed=0)
        t = ds.fit_transformer(records)
        data = ds.EncodedDataset(t.encode_matrix(records), labels)
        data.matrix[:, 0] = np.nan  # every real batch scores NaN
        cfg = gan.GanConfig(epochs=1, batch_size=50, critic_steps=2, noise_dim=16, hidden=(32, 32))
        with pytest.raises(FloatingPointError, match="gan-train: non-finite critic loss.*step 0"):
            gan.train_gan(data, t, cfg)

    def test_critic_weights_clipped(self):
        model, _, _ = surrogate_model(epochs=2, weight_clip=0.01)
        for w in model.critic.weights:
            assert np.max(np.abs(w)) <= 0.01 + 1e-12
        for b in model.critic.biases:
            assert np.max(np.abs(b)) <= 0.01 + 1e-12

    @staticmethod
    def _one_and_two_passes(dtype):
        """The critic's one-pass loss and gradients, and the two passes' scores and
        gradients, with the critic and its inputs in `dtype`."""
        model, _, data = surrogate_model(epochs=0)
        critic = nn.pack(model.critic, model.critic.params.astype(dtype))
        rng = np.random.default_rng(0)
        m = 40
        cond = nn.one_hot(np.full(m, 2), ds.N_CLASSES, dtype)
        fake = gan._generate_hard(model, np.full(m, 2), rng).astype(dtype)
        real = data.matrix[:m].astype(dtype)
        grad = nn.pack(critic, np.empty_like(critic.params))
        batch = np.concatenate([np.concatenate([fake, real]), np.concatenate([cond, cond])], axis=1)
        loss = gan._critic_loss_and_grads(critic, batch, grad)
        grads = list(zip(grad.weights, grad.biases))

        score_f, tape_f = nn.forward(critic, np.concatenate([fake, cond], axis=1))
        score_r, tape_r = nn.forward(critic, np.concatenate([real, cond], axis=1))
        grads_f, _ = backward_pairs(critic, tape_f, np.full((m, 1), 1.0 / m))
        grads_r, _ = backward_pairs(critic, tape_r, np.full((m, 1), -1.0 / m))
        return m, loss, grads, (score_f, score_r), zip(grads_f, grads_r)

    def test_one_pass_critic_gradient_matches_two_passes(self):
        m, loss, grads, (score_f, score_r), two_pass = self._one_and_two_passes(np.float64)
        assert loss == pytest.approx(score_f.mean() - score_r.mean(), rel=0, abs=1e-12)
        for (dw, db), (gf, gr) in zip(grads, two_pass):
            np.testing.assert_allclose(dw, gf[0] + gr[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(db, gf[1] + gr[1], rtol=0, atol=1e-12)

    def test_one_pass_critic_gradient_matches_two_passes_float32(self):
        # Each value is a float32 sum over the 2m stacked rows, which one pass and
        # two passes add in different orders.  Two orders of an n-term sum differ
        # by at most n * eps * sum|terms| (twice the gamma_n = n * eps / 2 bound of
        # Higham, Accuracy and Stability of Numerical Algorithms, section 4.2);
        # |fake part| + |real part| stands in for sum|terms|.
        m, loss, grads, (score_f, score_r), two_pass = self._one_and_two_passes(np.float32)
        bound = 2 * m * np.finfo(np.float32).eps
        assert grads[0][0].dtype == np.float32
        assert abs(loss - (score_f.mean() - score_r.mean())) <= bound * float(
            np.abs(score_f).mean() + np.abs(score_r).mean())
        for (dw, db), (gf, gr) in zip(grads, two_pass):
            for got, f, r in ((dw, gf[0], gr[0]), (db, gf[1], gr[1])):
                assert np.all(np.abs(got - (f + r)) <= bound * (np.abs(f) + np.abs(r)))

    @pytest.mark.slow
    def test_toy_table_marginals(self):
        # 2-column toy table whose features follow the label: category
        # frequencies within +-0.05, KS D on the continuous column < 0.15, the
        # Wasserstein gap shrinking over training, and per condition the
        # category frequencies within +-0.08 and the continuous mean within
        # +-0.05 of the real rows of that class.  Oracles: direct frequency
        # counts, means and the ECDF sup norm.
        data, t, cats, cont = toy_table(n=2000, seed=1)
        cfg = gan.GanConfig(
            epochs=300, batch_size=100, critic_steps=5, noise_dim=16, seed=0
        )
        model, history = gan.train_gan(data, t, cfg)

        rng = np.random.default_rng(9)
        ids = rng.choice(5, size=5000, p=model.class_distribution)
        vectors = gan._generate_hard(model, ids, rng)
        synth_cat = np.argmax(vectors[:, :3], axis=1)
        synth_cont = vectors[:, 3]

        real_freq = np.bincount(cats, minlength=3) / len(cats)
        synth_freq = np.bincount(synth_cat, minlength=3) / len(synth_cat)
        assert np.max(np.abs(real_freq - synth_freq)) <= 0.05
        assert synth_eval.ks_statistic(cont, synth_cont) < 0.15

        for c in range(5):
            real_c, synth_c = data.labels == c, ids == c
            real_freq_c = np.bincount(cats[real_c], minlength=3) / real_c.sum()
            synth_freq_c = np.bincount(synth_cat[synth_c], minlength=3) / synth_c.sum()
            assert np.max(np.abs(real_freq_c - synth_freq_c)) <= 0.08, c
            assert abs(cont[real_c].mean() - synth_cont[synth_c].mean()) <= 0.05, c

        gaps = [abs(row[1]) for row in history]
        k = 20
        assert np.mean(gaps[-k:]) < np.mean(gaps[:k])


class TestSampleUnconditional:
    def test_zero_rows(self):
        model, _, _ = surrogate_model()
        assert gan.sample_unconditional(model, 0) == []

    def test_labels_follow_empirical_distribution(self):
        model, _, data = surrogate_model(n=400)
        rows = gan.sample_unconditional(model, 3000, seed=4)
        assert len(rows) == 3000
        counts = np.bincount([label for _, label in rows], minlength=5)
        assert all(type(label) is int for _, label in rows)
        shares = counts / 3000
        assert np.max(np.abs(shares - model.class_distribution)) <= 0.03

    def test_fixed_seed_identical(self):
        model, _, _ = surrogate_model()
        a = gan.sample_unconditional(model, 50, seed=2)
        b = gan.sample_unconditional(model, 50, seed=2)
        assert [(r.values, l) for r, l in a] == [(r.values, l) for r, l in b]

    def test_rows_decode_cleanly(self):
        model, _, _ = surrogate_model()
        for record, _ in gan.sample_unconditional(model, 20, seed=0):
            assert len(record.values) == ds.N_FEATURES


class TestSampleConditional:
    def test_counts_per_class(self):
        model, _, _ = surrogate_model(epochs=2)
        total = 0
        for c in range(5):
            rows = gan.sample_conditional(model, c, 20, seed=c)
            assert len(rows) == 20
            total += len(rows)
        assert total == 100

    def test_exactly_n_rows_in_chunks(self, monkeypatch):
        model, _, _ = surrogate_model()
        sizes = []
        generate = gan._generate_hard
        monkeypatch.setattr(gan, "_generate_hard",
                            lambda m, ids, rng: sizes.append(len(ids)) or generate(m, ids, rng))
        assert len(gan.sample_conditional(model, 2, 4500, seed=0)) == 4500
        assert sizes == [2000, 2000, 500]
        sizes.clear()
        assert len(gan.sample_unconditional(model, 2001, seed=0)) == 2001
        assert sizes == [2000, 1]

    def test_deterministic(self):
        model, _, _ = surrogate_model()
        a = gan.sample_conditional(model, 1, 15, seed=3)
        b = gan.sample_conditional(model, 1, 15, seed=3)
        assert [r.values for r in a] == [r.values for r in b]


class TestSampleOneBlasThread:
    def test_keeps_every_bit(self, monkeypatch):
        # the desk generator (133 -> 256 -> 256 -> 54) on full _SAMPLE_ROWS chunks
        records, labels = make_surrogate_records(2000, seed=5)
        t = ds.fit_transformer(records)
        data = ds.EncodedDataset(t.encode_matrix(records), labels)
        model, _ = gan.train_gan(data, t, gan.GanConfig(epochs=0, seed=5))
        generate = gan._generate_hard

        def run():
            vectors = []
            monkeypatch.setattr(gan, "_generate_hard",
                                lambda *args: vectors.append(generate(*args)) or vectors[-1])
            cond = gan.sample_conditional(model, 3, gan._SAMPLE_ROWS, seed=5)
            uncond = gan.sample_unconditional(model, gan._SAMPLE_ROWS, seed=6)
            return vectors, [r.values for r in cond], [(r.values, c) for r, c in uncond]

        one = run()
        with monkeypatch.context() as m:
            m.setattr(nn, "one_blas_thread", contextlib.nullcontext)
            default = run()
        assert [v.shape for v in one[0]] == [(gan._SAMPLE_ROWS, t.total_dim)] * 2
        for a, b in zip(one[0], default[0], strict=True):
            assert_same(a, b)
        assert one[1:] == default[1:]


class TestExport:
    def test_round_trip_counts_and_categoricals(self, tmp_path):
        model, _, _ = surrogate_model()
        rows = gan.sample_unconditional(model, 30, seed=1)
        path = tmp_path / "synth.csv"
        gan.export_synthetic([r for r, _ in rows], [label for _, label in rows], path)
        parsed = ds.parse_kdd_file(path)
        assert len(parsed) == 30
        for (orig, label), back in zip(rows, parsed):
            assert back.attack_name == ds.CLASS_SYMBOLS[label]
            for spec, a, b in zip(model.transformer.specs, orig.values, back.values):
                if spec.kind == CATEGORICAL:
                    assert a == b

    def test_reparse_labels_match_conditions(self, tmp_path):
        model, _, _ = surrogate_model()
        rows = gan.sample_unconditional(model, 25, seed=6)
        path = tmp_path / "synth.csv"
        gan.export_synthetic([r for r, _ in rows], [label for _, label in rows], path)
        parsed = ds.parse_kdd_file(path)
        assert ds.labels_for(parsed).tolist() == [label for _, label in rows]

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        gan.export_synthetic([], [], path)
        assert path.read_text() == ""

    def test_text_matches_reference(self, tmp_path, monkeypatch):
        model, _, _ = surrogate_model()
        rows = gan.sample_unconditional(model, 40, seed=2)
        for record in gan.sample_conditional(model, 3, 5, seed=1):
            rows.append((record, 3))
        values = list(rows[0][0].values)
        for i, v in zip((0, 4, 5, 22, 23, 24), (1e20, -0.0, 0.5, 123456789.0, 1e-7, 2.0**70 + 0.5)):
            values[i] = v
        rows.append((ds.RawRecord(values=tuple(values), attack_name=""), 4))
        monkeypatch.setattr(gan, "_EXPORT_ROWS", 7)  # several blocks, the last one short
        records, labels = [r for r, _ in rows], [label for _, label in rows]
        for given in (records, ds.Records.from_rows(records)):  # rows, then columns
            path = tmp_path / "synth.csv"
            gan.export_synthetic(given, labels, path)
            assert path.read_text() == reference_export_text(rows)
