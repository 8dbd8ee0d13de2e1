"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` so the per-criterion lines
reach the terminal.  Criteria 5-9 need the real NSL-KDD files; they print a
SKIP line and skip when no data directory is found (export IDSLAB_DATA_DIR
pointing at KDDTrain+.txt / KDDTest+.txt to enable them).
"""

import numpy as np
import pytest

from idslab import (
    agent,
    cli,
    dataset as ds,
    env as ids_env,
    gan,
    metrics,
    nn,
    synth_eval,
)

from conftest import real_data_dir, write_surrogate_files
from test_metrics import oracle_scores
from test_nn import finite_diff_check
from test_synth_eval import auc_oracle, chi2_sf_oracle, ks_oracle
from test_env import BINARY_TABLE, MULTI_TABLE


def conclude(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print("\n" + line, flush=True)
    assert ok, line


def skip_without_data(num, desc):
    if real_data_dir() is None:
        reason = "real NSL-KDD files not found (set IDSLAB_DATA_DIR)"
        print(f"\nACCEPTANCE {num}: SKIP - {desc} [{reason}]", flush=True)
        pytest.skip(reason)
    return real_data_dir()


# --- shared real-data artifacts (computed once, only when data exists) -----

_cache = {}


def real_encoded():
    """Transformer + encoded train/test fit on the real training split."""
    if "encoded" not in _cache:
        root = real_data_dir()
        train = ds.parse_kdd_file(root / "KDDTrain+.txt")
        test = ds.parse_kdd_file(root / "KDDTest+.txt")
        t = ds.fit_transformer(train)
        train_enc = ds.encode_dataset(train, ds.labels_for(train), t)
        test_enc = ds.encode_dataset(test, ds.labels_for(test), t)
        _cache["encoded"] = (t, train, test, train_enc, test_enc)
    return _cache["encoded"]


def stratified_split(records, labels, fraction, seed):
    """Two disjoint stratified index sets, each `fraction` of the data."""
    ids = np.array([l.id for l in labels])
    rng = np.random.default_rng(seed)
    first, second = [], []
    for c in range(ds.N_CLASSES):
        rows = np.flatnonzero(ids == c)
        rng.shuffle(rows)
        k = max(1, int(round(fraction * len(rows))))
        first.extend(rows[:k])
        second.extend(rows[k : 2 * k])
    return np.sort(np.array(first)), np.sort(np.array(second))


def desk_gan():
    """GAN trained 30 epochs on a 10% stratified subset of real train."""
    if "gan" not in _cache:
        t, train, _, train_enc, _ = real_encoded()
        fit_idx, hold_idx = stratified_split(train, ds.labels_for(train), 0.10, seed=0)
        subset = ds.EncodedDataset(
            matrix=train_enc.matrix[fit_idx], labels=train_enc.labels[fit_idx]
        )
        model, _ = gan.train_gan(subset, t, gan.GanConfig(epochs=30, seed=0))
        _cache["gan"] = (model, fit_idx, hold_idx)
    return _cache["gan"]


def train_ppo_on(data, test_enc, mode, timesteps, seed):
    env_ = ids_env.IdsEnv(data, ids_env.EnvConfig(mode=mode, seed=seed))
    policy = agent.PolicyNet(env_.observation_dim, env_.action_count, seed=seed)
    cfg = agent.PpoConfig(total_timesteps=timesteps, eval_every=timesteps, seed=seed)
    agent.train(env_, policy, cfg)
    return agent.evaluate(policy, test_enc, mode)


def real_multiclass_runs():
    """Best-of-3 multiclass DRL runs on real data (per-class F1 kept)."""
    if "real_multi" not in _cache:
        _, _, _, train_enc, test_enc = real_encoded()
        runs = []
        for seed in range(3):
            cm = train_ppo_on(train_enc, test_enc, "multiclass", 500_000, seed)
            runs.append(cm)
        _cache["real_multi"] = runs
    return _cache["real_multi"]


# --- criteria 1-4: always runnable -----------------------------------------

def test_criterion_1_metrics_oracle():
    desc = "metrics agree with per-sample oracle within 1e-12"
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.choice([2, 5]))
        n = int(rng.integers(1, 60))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        cm = metrics.confusion(pred, truth, k)
        acc, per_class, macro, weighted = oracle_scores(pred, truth, k)
        worst = max(worst, abs(metrics.accuracy(cm) - acc))
        for c in range(k):
            got = metrics.per_class_prf(cm, c)
            for g, o in zip((got.precision, got.recall, got.f1), per_class[c]):
                worst = max(worst, abs(g - o))
        worst = max(worst, abs(metrics.aggregate_f1(cm, "macro") - macro))
        worst = max(worst, abs(metrics.aggregate_f1(cm, "weighted") - weighted))
    conclude(1, desc, worst <= 1e-12, f"max abs error {worst:.2e}")


def test_criterion_2_gradient_checks():
    desc = "backprop matches finite differences (<1e-4) incl. full PPO loss"
    rng = np.random.default_rng(1)
    worst = 0.0
    for act in nn.ACTIVATIONS:
        net = nn.init_net([6, 8, 5], ["relu", act], seed=3)
        batch = rng.normal(size=(7, 6))

        def loss_fn(out):
            coeffs = np.arange(out.size).reshape(out.shape) / out.size
            return float((out * coeffs).sum()), coeffs

        worst = max(worst, finite_diff_check(net, batch, loss_fn, n_samples=100))

    # full PPO loss on a frozen batch
    policy = agent.PolicyNet(5, 3, seed=7)
    cfg = agent.PpoConfig()
    m = 16
    states = rng.normal(size=(m, 5))
    probs, _, values = policy.forward(states)
    actions = rng.integers(0, 3, size=m)
    batch = {
        "states": states,
        "actions": actions,
        "log_probs": np.log(probs[np.arange(m), actions]) + rng.normal(0, 0.2, m),
        "advantages": rng.normal(size=m),
        "returns": rng.normal(size=m),
    }
    _, grads, _ = agent.ppo_loss_and_grads(policy, batch, cfg)
    nets = policy.nets()
    h = 1e-6
    for _ in range(100):
        ni = int(rng.integers(len(nets)))
        net = nets[ni]
        li = int(rng.integers(net.n_layers))
        which = int(rng.integers(2))
        arr = net.weights[li] if which == 0 else net.biases[li]
        g = grads[ni][li][which]
        idx = tuple(rng.integers(s) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        lp = agent.ppo_loss_and_grads(policy, batch, cfg)[0]
        arr[idx] = orig - h
        lm = agent.ppo_loss_and_grads(policy, batch, cfg)[0]
        arr[idx] = orig
        numeric = (lp - lm) / (2 * h)
        scale = max(abs(numeric), abs(g[idx]), 1e-8)
        worst = max(worst, abs(numeric - g[idx]) / scale)
    conclude(2, desc, worst < 1e-4, f"max relative error {worst:.2e}")


def test_criterion_3_statistical_oracles():
    desc = "KS/chi-squared/AUC match independent oracles"
    rng = np.random.default_rng(2)
    ok = True
    detail = []

    worst_ks = 0.0
    for _ in range(50):
        n, m = int(rng.integers(5, 201)), int(rng.integers(5, 201))
        a = np.round(rng.normal(size=n), 1)
        b = np.round(rng.normal(0.4, 1.3, size=m), 1)
        worst_ks = max(worst_ks, abs(synth_eval.ks_statistic(a, b) - ks_oracle(a, b)))
    ok &= worst_ks <= 1e-15
    detail.append(f"KS {worst_ks:.1e}")

    worst_chi = 0.0
    for _ in range(300):
        dof = int(rng.integers(1, 101))
        stat = float(rng.uniform(0.0, 4.0) * dof)
        worst_chi = max(worst_chi, abs(synth_eval.chi2_sf(stat, dof) - chi2_sf_oracle(stat, dof)))
    ok &= worst_chi <= 1e-8
    detail.append(f"chi2 {worst_chi:.1e}")

    worst_auc = 0.0
    for _ in range(30):
        n = int(rng.integers(10, 501))
        scores = np.round(rng.normal(size=n), 2)
        flags = rng.integers(0, 2, size=n)
        if flags.min() == flags.max():
            flags[0] = 1 - flags[0]
        worst_auc = max(worst_auc, abs(synth_eval.roc_auc(scores, flags) - auc_oracle(scores, flags)))
    ok &= worst_auc <= 1e-12
    detail.append(f"AUC {worst_auc:.1e}")
    conclude(3, desc, bool(ok), ", ".join(detail))


def test_criterion_4_reward_table():
    desc = "reward tables exhaustive; termination on missed attack and cap"
    ok = True
    for true, row in BINARY_TABLE.items():
        for action, expected in row.items():
            ok &= ids_env.reward(true, action, "binary") == expected
    for true, row in MULTI_TABLE.items():
        for action, expected in row.items():
            ok &= ids_env.reward(true, action, "multiclass") == expected

    # a one-attack-record dataset: silence ends the episode immediately
    data = ds.EncodedDataset(matrix=np.zeros((1, 3)), labels=np.array([1]))
    env_ = ids_env.IdsEnv(data, ids_env.EnvConfig(mode="binary", episode_cap=50, seed=0))
    env_.reset()
    ok &= env_.step(0).done
    # an all-normal dataset: correct silence runs to the cap
    data = ds.EncodedDataset(matrix=np.zeros((1, 3)), labels=np.array([0]))
    env_ = ids_env.IdsEnv(data, ids_env.EnvConfig(mode="binary", episode_cap=50, seed=0))
    env_.reset()
    for i in range(50):
        result = env_.step(0)
        ok &= result.done == (i == 49)
    conclude(4, desc, bool(ok))


# --- criteria 5-9: need the real NSL-KDD files -----------------------------

TABLE_II = {"Normal": 77_054, "DoS": 53_387, "Probe": 14_077, "R2L": 3_880, "U2R": 119}


def test_criterion_5_dataset_integrity():
    desc = "record counts 125,973/22,544 and combined class counts"
    skip_without_data(5, desc)
    _, train, test, _, _ = real_encoded()
    counts = ds.class_histogram(ds.labels_for(train)) + ds.class_histogram(
        ds.labels_for(test)
    )
    got = {ds.CLASS_NAMES[c]: int(counts[c]) for c in range(ds.N_CLASSES)}
    ok = len(train) == 125_973 and len(test) == 22_544 and got == TABLE_II
    conclude(5, desc, ok, f"train {len(train)}, test {len(test)}, counts {got}")


def test_criterion_6_gan_fidelity():
    desc = "desk-scale GAN fidelity (CSTest/KSTest) and detection sanity"
    skip_without_data(6, desc)
    _, train, _, _, _ = real_encoded()
    labels = ds.labels_for(train)
    model, fit_idx, hold_idx = desk_gan()
    holdout = [train[i] for i in hold_idx]
    holdout_labels = [labels[i] for i in hold_idx]
    rows = gan.sample_unconditional(model, len(holdout), seed=1)
    synth_records = [r for r, _ in rows]
    synth_labels = [l for _, l in rows]
    real_table = synth_eval.records_to_table(holdout, holdout_labels)
    synth_table = synth_eval.records_to_table(synth_records, synth_labels)
    cstest = synth_eval.cs_test(real_table, synth_table)
    kstest = synth_eval.ks_test(real_table, synth_table)

    rng = np.random.default_rng(2)
    sample = [train[i] for i in rng.choice(len(train), size=10_000, replace=False)]
    shuffled = [sample[i] for i in rng.permutation(len(sample))]
    det_same = synth_eval.detection_score(sample, shuffled, seed=0, epochs=150)
    shifted = []
    for r in sample:
        values = list(r.values)
        for i, spec in enumerate(ds.FEATURE_SCHEMA):
            if spec.kind == ds.CONTINUOUS:
                values[i] = values[i] + 1e4
        shifted.append(ds.RawRecord(values=tuple(values), attack_name=r.attack_name))
    det_shift = synth_eval.detection_score(sample, shifted, seed=0, epochs=150)

    ok = (
        cstest >= 0.90
        and kstest >= 0.85
        and abs(det_same - 0.5) <= 0.05
        and det_shift <= 0.1
    )
    conclude(
        6, desc, ok,
        f"CSTest {cstest:.4f}, KSTest {kstest:.4f}, "
        f"detection(shuffled) {det_same:.3f}, detection(shifted) {det_shift:.3f}",
    )


def test_criterion_7_drl_binary():
    desc = "binary DRL on real data: accuracy and attack F1 >= 0.75 (best of 3)"
    skip_without_data(7, desc)
    _, _, _, train_enc, test_enc = real_encoded()
    best = (0.0, 0.0)
    for seed in range(3):
        cm = train_ppo_on(train_enc, test_enc, "binary", 100_000, seed)
        acc = metrics.accuracy(cm)
        f1 = metrics.per_class_prf(cm, 1).f1
        if (acc, f1) > best:
            best = (acc, f1)
    ok = best[0] >= 0.75 and best[1] >= 0.75
    conclude(7, desc, ok, f"best accuracy {best[0]:.4f}, attack F1 {best[1]:.4f}")


def test_criterion_8_drl_multiclass():
    desc = "multiclass DRL on real data: weighted F1 >= 0.55 (best of 3)"
    skip_without_data(8, desc)
    runs = real_multiclass_runs()
    best = max(metrics.aggregate_f1(cm, "weighted") for cm in runs)
    conclude(8, desc, best >= 0.55, f"best weighted F1 {best:.4f}")


def test_criterion_9_minority_uplift():
    desc = "conditional-synthetic DRL lifts R2L F1 by 0.10 and U2R F1 > 0"
    skip_without_data(9, desc)
    t, _, _, _, test_enc = real_encoded()
    model, _, _ = desk_gan()
    rows = []
    for cls in range(ds.N_CLASSES):
        records = gan.sample_conditional(model, cls, 2_000, seed=10 + cls)
        rows.extend((rec, ds.ClassLabel(cls)) for rec in records)
    synth_enc = ds.encode_dataset(
        [r for r, _ in rows], [l for _, l in rows], t
    )
    real_r2l = max(metrics.per_class_prf(cm, 3).f1 for cm in real_multiclass_runs())
    best_r2l, best_u2r = 0.0, 0.0
    for seed in range(3):
        cm = train_ppo_on(synth_enc, test_enc, "multiclass", 500_000, seed)
        best_r2l = max(best_r2l, metrics.per_class_prf(cm, 3).f1)
        best_u2r = max(best_u2r, metrics.per_class_prf(cm, 4).f1)
    ok = best_r2l >= real_r2l + 0.10 and best_u2r > 0.0
    conclude(
        9, desc, ok,
        f"synthetic R2L F1 {best_r2l:.4f} vs real {real_r2l:.4f}, U2R F1 {best_u2r:.4f}",
    )


# --- criterion 10: determinism of the experiment runner --------------------

def test_criterion_10_run_all_determinism(tmp_path, monkeypatch):
    desc = "run-all twice with one config+seed -> byte-identical bundles"
    data_root = real_data_dir()
    scale_note = "real data"
    budget = [
        "--set", "rows=60",
        "--set", "rows_per_class=10",
        "--set", "baseline_rows=200",
        "--set", "gan.epochs=1",
        "--set", "gan.batch_size=50",
        "--set", "gan.noise_dim=16",
        "--set", "gan.hidden=[32,32]",
        "--set", "gan.critic_steps=1",
        "--set", "ppo.total_timesteps=512",
        "--set", "ppo.rollout_length=128",
        "--set", "ppo.eval_every=256",
        "--set", "env.episode_cap=100",
    ]
    if data_root is None:
        data_root = tmp_path / "surrogate"
        data_root.mkdir()
        write_surrogate_files(data_root)
        scale_note = "surrogate data"
    monkeypatch.setenv("IDSLAB_DATA_DIR", str(data_root))
    bundles = []
    for name in ("one", "two"):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        assert cli.main(["run-all"] + budget) == cli.EXIT_OK
        out = root / "runs" / "default"
        bundles.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    same_names = sorted(bundles[0]) == sorted(bundles[1])
    diff = [k for k in bundles[0] if bundles[0][k] != bundles[1].get(k)]
    ok = same_names and not diff
    conclude(10, desc, ok, f"{scale_note}, reduced budget; differing files: {diff or 'none'}")
