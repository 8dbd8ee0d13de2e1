import numpy as np
import pytest

from idslab import dataset as ds, gan, nn, synth_eval
from idslab.dataset import CATEGORICAL, CONTINUOUS, FeatureSpec

from conftest import make_surrogate_records


def surrogate_model(n=300, seed=0, epochs=1, **overrides):
    records, labels = make_surrogate_records(n, seed=seed)
    t = ds.fit_transformer(records)
    data = ds.encode_dataset(records, labels, t)
    cfg = gan.GanConfig(
        epochs=epochs, batch_size=50, critic_steps=2, noise_dim=16,
        hidden=(32, 32), seed=seed, **overrides,
    )
    model, history = gan.train_gan(data, t, cfg)
    return model, history, data


def toy_table(n=2000, seed=0, probs=(0.5, 0.3, 0.2)):
    """One 3-category categorical + one uniform continuous column."""
    specs = (
        FeatureSpec(name="color", kind=CATEGORICAL, categories=("a", "b", "c")),
        FeatureSpec(name="amount", kind=CONTINUOUS),
    )
    t = ds.Transformer(specs=specs, mins=np.array([0.0]), maxs=np.array([1.0]))
    rng = np.random.default_rng(seed)
    cats = rng.choice(3, size=n, p=probs)
    cont = rng.random(n)
    matrix = np.zeros((n, 4))
    matrix[np.arange(n), cats] = 1.0
    matrix[:, 3] = cont
    # labels are independent of the features; every class must be present
    labels = rng.integers(0, 5, size=n)
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
        assert [(r.values, l.id) for r, l in rows] == [(r.values, l.id) for r, l in rows_back]


class TestTrain:
    def test_zero_epochs_empty_history(self):
        model, history, _ = surrogate_model(epochs=0)
        assert history == []
        assert isinstance(model, gan.GanModel)
        assert model.generator.weights[-1].shape[1] == model.record_dim

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
        data = ds.encode_dataset(records, labels, t)
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
        data = ds.encode_dataset(records, labels, t)
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

    def test_one_pass_critic_gradient_matches_two_passes(self):
        model, _, data = surrogate_model(epochs=0)
        rng = np.random.default_rng(0)
        m = 40
        cond = nn.one_hot(np.full(m, 2), ds.N_CLASSES)
        fake, _, _ = gan._generate_soft(model, cond, rng)
        real = np.concatenate([data.matrix[:m], cond], axis=1)
        loss, grads = gan._critic_loss_and_grads(model.critic, fake, real, cond)

        score_f, tape_f = nn.forward(model.critic, np.concatenate([fake, cond], axis=1))
        score_r, tape_r = nn.forward(model.critic, np.concatenate([real, cond], axis=1))
        grads_f, _ = nn.backward(model.critic, tape_f, np.full((m, 1), 1.0 / m))
        grads_r, _ = nn.backward(model.critic, tape_r, np.full((m, 1), -1.0 / m))
        assert loss == pytest.approx(score_f.mean() - score_r.mean(), rel=0, abs=1e-12)
        for (dw, db), gf, gr in zip(grads, grads_f, grads_r):
            np.testing.assert_allclose(dw, gf[0] + gr[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(db, gf[1] + gr[1], rtol=0, atol=1e-12)

    @pytest.mark.slow
    def test_toy_table_marginals(self):
        # 2-column toy table: category frequencies within +-0.05, KS D on the
        # continuous column < 0.15, and the Wasserstein gap shrinking over
        # training.  Oracles: direct frequency counts and the ECDF sup norm.
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
        counts = np.zeros(5)
        for _, label in rows:
            counts[label.id] += 1
        shares = counts / 3000
        assert np.max(np.abs(shares - model.class_distribution)) <= 0.03

    def test_fixed_seed_identical(self):
        model, _, _ = surrogate_model()
        a = gan.sample_unconditional(model, 50, seed=2)
        b = gan.sample_unconditional(model, 50, seed=2)
        assert [(r.values, l.id) for r, l in a] == [(r.values, l.id) for r, l in b]

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

    def test_starvation_names_class(self):
        model, _, _ = surrogate_model()
        # rig the generator so the label group always argmaxes to class 0
        w_last = model.generator.weights[-1]
        b_last = model.generator.biases[-1]
        label_slots = slice(model.transformer.total_dim, model.record_dim)
        w_last[:, label_slots] = 0.0
        b_last[label_slots] = 0.0
        b_last[model.transformer.total_dim] = 50.0
        with pytest.raises(gan.SamplingStarvationError, match="U2R"):
            gan.sample_conditional(model, 4, 10, seed=0, attempt_factor=5)

    def test_deterministic(self):
        model, _, _ = surrogate_model()
        a = gan.sample_conditional(model, 1, 15, seed=3)
        b = gan.sample_conditional(model, 1, 15, seed=3)
        assert [r.values for r in a] == [r.values for r in b]


class TestExport:
    def test_round_trip_counts_and_categoricals(self, tmp_path):
        model, _, _ = surrogate_model()
        rows = gan.sample_unconditional(model, 30, seed=1)
        path = tmp_path / "synth.csv"
        gan.export_synthetic(rows, path)
        parsed = ds.parse_kdd_file(path)
        assert len(parsed) == 30
        for (orig, label), back in zip(rows, parsed):
            assert back.attack_name == label.symbol
            for spec, a, b in zip(model.transformer.specs, orig.values, back.values):
                if spec.kind == CATEGORICAL:
                    assert a == b

    def test_reparse_labels_match_conditions(self, tmp_path):
        model, _, _ = surrogate_model()
        rows = gan.sample_unconditional(model, 25, seed=6)
        path = tmp_path / "synth.csv"
        gan.export_synthetic(rows, path)
        parsed = ds.parse_kdd_file(path)
        back_labels = ds.labels_for(parsed)
        assert [l.id for _, l in rows] == [l.id for l in back_labels]

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        gan.export_synthetic([], path)
        assert path.read_text() == ""
