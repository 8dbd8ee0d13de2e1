import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idslab import agent, dataset as ds, env as ids_env, nn

from conftest import (
    flatten,
    make_surrogate_records,
    reference_clip_global_norm,
    reference_ppo_loss_and_grads,
)
from test_nn import assert_same, assert_same_grads


def make_buffer(rewards, values, dones, next_value=0.0):
    T = len(rewards)
    return agent.RolloutBuffer(
        states=np.zeros((T, 2)),
        actions=np.zeros(T, dtype=np.int64),
        log_probs=np.zeros(T),
        rewards=np.asarray(rewards, dtype=np.float64),
        dones=np.asarray(dones, dtype=bool),
        values=np.asarray(values, dtype=np.float64),
        next_value=next_value,
    )


def gae_oracle(rewards, values, dones, next_value, gamma, lam):
    """Direct O(T^2) discounted double sum of masked TD residuals."""
    T = len(rewards)
    vnext = list(values[1:]) + [next_value]
    deltas = [
        rewards[t] + gamma * vnext[t] * (1 - dones[t]) - values[t] for t in range(T)
    ]
    adv = []
    for t in range(T):
        total = 0.0
        factor = 1.0
        for j in range(t, T):
            total += factor * deltas[j]
            if dones[j]:
                break
            factor *= gamma * lam
        adv.append(total)
    return adv


class TestGae:
    def test_telescoping_sum(self):
        buf = make_buffer([1, 1, 1], [0, 0, 0], [0, 0, 0])
        adv, ret = agent.compute_gae(buf, gamma=1.0, lam=1.0)
        assert adv.tolist() == [3.0, 2.0, 1.0]
        assert ret.tolist() == [3.0, 2.0, 1.0]

    def test_done_everywhere(self):
        rewards = [0.5, -1.0, 2.0]
        values = [0.2, 0.4, -0.1]
        buf = make_buffer(rewards, values, [1, 1, 1])
        adv, _ = agent.compute_gae(buf, gamma=0.9, lam=0.8)
        assert np.allclose(adv, np.array(rewards) - np.array(values))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        rewards = rng.normal(size=50)
        values = rng.normal(size=50)
        dones = rng.random(50) < 0.15
        next_value = float(rng.normal())
        buf = make_buffer(rewards, values, dones, next_value)
        adv, ret = agent.compute_gae(buf, gamma=0.97, lam=0.93)
        oracle = gae_oracle(rewards, values, dones, next_value, 0.97, 0.93)
        assert np.allclose(adv, oracle, atol=1e-12)
        assert np.allclose(ret, adv + values, atol=1e-12)


class TestPpoConfig:
    @pytest.mark.parametrize(
        "field", ["rollout_length", "minibatch", "update_epochs", "eval_every"]
    )
    def test_rejects_zero_counts(self, field):
        with pytest.raises(ValueError, match=field):
            agent.PpoConfig(**{field: 0})

    def test_rejects_negative_timesteps(self):
        with pytest.raises(ValueError, match="total_timesteps"):
            agent.PpoConfig(total_timesteps=-1)


class TestPolicyNet:
    def test_head_is_distribution(self):
        policy = agent.PolicyNet(6, 5, seed=0)
        probs, values, _ = policy.forward(np.random.default_rng(0).normal(size=(7, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert values.shape == (7,)

    def test_trunk_shape(self):
        policy = agent.PolicyNet(10, 2, seed=1)
        assert [w.shape for w in policy.trunk.weights] == [(10, 128), (128, 64), (64, 32)]

    def test_invalid_activation(self):
        with pytest.raises(ValueError):
            agent.PolicyNet(4, 2, trunk_activation="tanh")

    def test_checkpoint_roundtrip(self, tmp_path):
        policy = agent.PolicyNet(5, 2, trunk_activation="sigmoid", seed=2)
        path = tmp_path / "policy.npz"
        policy.save(path)
        back = agent.PolicyNet.load(path)
        x = np.random.default_rng(1).normal(size=(4, 5))
        p1, v1, _ = policy.forward(x)
        p2, v2, _ = back.forward(x)
        assert np.array_equal(p1, p2) and np.array_equal(v1, v2)


def frozen_batch(policy, m=32, seed=3):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(m, policy.obs_dim))
    actions = rng.integers(0, policy.action_count, m)
    probs, values, _ = policy.forward(states)
    logp = np.log(probs[np.arange(m), actions])
    # perturb old log probs so ratios are not all 1
    old_logp = logp + rng.normal(0, 0.2, m)
    adv = rng.normal(size=m)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    returns = rng.normal(size=m)
    return {
        "states": states,
        "actions": actions,
        "log_probs": old_logp,
        "advantages": adv,
        "returns": returns,
    }


class TestPpoLoss:
    def test_clip_arithmetic_positive_advantage(self):
        # ratio 1.5, eps 0.2, A=+1 -> surrogate min(1.5, 1.2) = 1.2
        cfg = agent.PpoConfig(entropy_coef=0.0, value_coef=0.0)
        assert min(1.5 * 1.0, np.clip(1.5, 0.8, 1.2) * 1.0) == pytest.approx(1.2)

    def test_single_sample_scalar_oracle(self):
        # ratio 0.5, eps 0.2, A=-1: surrogate = min(-0.5, -0.8) = -0.8
        policy = agent.PolicyNet(4, 2, seed=4)
        cfg = agent.PpoConfig(entropy_coef=0.0, value_coef=0.0)
        states = np.zeros((1, 4))
        probs, _, _ = policy.forward(states)
        action = 0
        logp = float(np.log(probs[0, action]))
        target_ratio = 0.5
        batch = {
            "states": states,
            "actions": np.array([action]),
            "log_probs": np.array([logp - np.log(target_ratio)]),
            "advantages": np.array([-1.0]),
            "returns": np.array([0.0]),
        }
        loss, _, stats = agent.ppo_loss_and_grads(policy, batch, cfg)
        assert loss == pytest.approx(-min(-0.5, -0.8), abs=1e-12)  # = 0.8

    def test_zero_advantage_zero_coefs_no_update(self):
        policy = agent.PolicyNet(4, 3, seed=5)
        cfg = agent.PpoConfig(entropy_coef=0.0, value_coef=0.0)
        batch = frozen_batch(policy, seed=6)
        batch["advantages"] = np.zeros_like(batch["advantages"])
        _, grads, _ = agent.ppo_loss_and_grads(policy, batch, cfg)
        for net_grads in grads:
            for dw, db in net_grads:
                assert np.allclose(dw, 0.0) and np.allclose(db, 0.0)

    def test_full_loss_gradient_check(self):
        policy = agent.PolicyNet(5, 3, seed=7)
        cfg = agent.PpoConfig()
        batch = frozen_batch(policy, m=16, seed=8)

        def loss_of_params():
            return agent.ppo_loss_and_grads(policy, batch, cfg)[0]

        _, grads, _ = agent.ppo_loss_and_grads(policy, batch, cfg)
        rng = np.random.default_rng(9)
        nets = policy.nets()
        h = 1e-6
        worst = 0.0
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
            lp = loss_of_params()
            arr[idx] = orig - h
            lm = loss_of_params()
            arr[idx] = orig
            numeric = (lp - lm) / (2 * h)
            scale = max(abs(numeric), abs(g[idx]), 1e-8)
            worst = max(worst, abs(numeric - g[idx]) / scale)
        assert worst < 1e-4

    def test_log_probs_finite(self):
        policy = agent.PolicyNet(4, 2, seed=10)
        rng = np.random.default_rng(11)
        probs, values, _ = policy.forward(rng.normal(size=(20, 4)))
        actions, log_probs = agent.sample_actions(probs, rng)
        assert np.isfinite(log_probs).all() and np.isfinite(values).all()
        assert set(actions.tolist()) <= {0, 1}


def random_buffer(rng, T, obs_dim, action_count):
    buf = make_buffer(rng.normal(size=T), rng.normal(size=T), rng.random(T) < 0.1,
                      next_value=float(rng.normal()))
    buf.states = rng.normal(size=(T, obs_dim))
    buf.actions = rng.integers(0, action_count, size=T)
    buf.log_probs = np.log(rng.uniform(0.1, 0.6, size=T))
    agent.compute_gae(buf, 0.99, 0.95)
    return buf


class TestFusedKernel:
    """ppo_loss_and_grads is a fused kernel; the composition through
    PolicyNet.forward and nn.backward it replaced is the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 256), act=st.sampled_from(agent.TRUNK_ACTIVATIONS),
           k=st.sampled_from([2, 5]), seed=st.integers(0, 2**16))
    def test_matches_reference_bit_for_bit(self, m, act, k, seed):
        policy = agent.PolicyNet(7, k, trunk_activation=act, seed=seed)
        cfg = agent.PpoConfig(trunk_activation=act)
        batch = frozen_batch(policy, m=m, seed=seed)
        loss, grads, stats = agent.ppo_loss_and_grads(policy, batch, cfg)
        ref_loss, ref_grads, ref_stats = reference_ppo_loss_and_grads(policy, batch, cfg)
        assert list(stats) == list(ref_stats)
        assert_same(np.array([loss, *stats.values()]), np.array([ref_loss, *ref_stats.values()]))
        # a second call leaves the gradients the first one returned as they were
        agent.ppo_loss_and_grads(policy, frozen_batch(policy, m=m, seed=seed + 1), cfg)
        for net_grads, ref_net_grads in zip(grads, ref_grads, strict=True):
            assert_same_grads(net_grads, ref_net_grads)

        buf = random_buffer(np.random.default_rng(seed), m, 7, k)
        kept = {name: np.copy(getattr(buf, name)) for name in vars(buf)}
        agent.ppo_update(policy, buf, agent.PpoConfig(minibatch=64), rng=np.random.default_rng(0))
        for name, array in kept.items():
            assert_same(np.asarray(getattr(buf, name)), array)

    def test_stats_are_means_over_minibatches(self):
        # 100 rows in minibatches of 64 and 36: a row-weighted mean would differ
        T, k = 100, 3
        cfg = agent.PpoConfig(rollout_length=T, minibatch=64)
        buf = random_buffer(np.random.default_rng(20), T, 6, k)
        policy = agent.PolicyNet(6, k, seed=21)
        stats = agent.ppo_update(policy, buf, cfg, rng=np.random.default_rng(22))

        # replay with the reference kernel and one optimizer per net
        replay = agent.PolicyNet(6, k, seed=21)
        opts = [nn.OptState.for_net(net, "adam", cfg.learning_rate) for net in replay.nets()]
        rng = np.random.default_rng(22)
        adv = buf.advantages
        norm_adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        per_minibatch = []
        for _ in range(cfg.update_epochs):
            order = rng.permutation(T)
            for idx in (order[:64], order[64:]):
                batch = {"states": buf.states[idx], "actions": buf.actions[idx],
                         "log_probs": buf.log_probs[idx], "advantages": norm_adv[idx],
                         "returns": buf.returns[idx]}
                _, grads, minibatch_stats = reference_ppo_loss_and_grads(replay, batch, cfg)
                reference_clip_global_norm(grads, cfg.max_grad_norm)
                for net, g, opt in zip(replay.nets(), grads, opts):
                    nn.update_params(net.params, flatten(g), opt)
                per_minibatch.append(minibatch_stats)
        assert_same(policy.params, replay.params)
        for key in per_minibatch[0]:
            assert stats[key] == float(np.mean([s[key] for s in per_minibatch]))
        losses = [s["loss"] for s in per_minibatch]
        assert stats["loss"] != float(np.average(losses, weights=[64, 36] * cfg.update_epochs))

    def test_clipping_the_vector_scales_the_gradient_nets(self):
        policy = agent.PolicyNet(6, 3, seed=23)
        policy.grad[...] = np.random.default_rng(24).normal(size=policy.grad.size)
        kept = [[w.copy() for w in g.weights] for g in policy.grads]
        norm = nn.clip_global_norm(policy.grad, 0.5)
        assert norm > 0.5
        for g, weights in zip(policy.grads, kept, strict=True):
            for w, before in zip(g.weights, weights, strict=True):
                assert np.shares_memory(w, policy.grad)
                assert_same(w, before * (0.5 / norm))


class _FixedUniform:
    """Stands in for a Generator whose random() always returns u."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


class TestSampleActions:
    def test_never_draws_zero_probability(self):
        rng = np.random.default_rng(12)
        n, k = 4000, 5
        probs = rng.random((n, k)) * (rng.random((n, k)) < 0.5)
        probs[np.arange(n), rng.integers(0, k, n)] += 0.1  # every row has mass
        probs[:2] = [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0]]
        probs /= probs.sum(axis=1, keepdims=True)
        actions, log_probs = agent.sample_actions(probs, rng)
        assert actions.shape == (n,)
        assert (probs[np.arange(n), actions] > 0).all()
        assert np.allclose(log_probs, np.log(probs[np.arange(n), actions]))

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    def test_extreme_uniforms_stay_on_support(self, u):
        probs = np.array([[0.3, 0.7, 0.0, 0.0], [0.0, 0.0, 0.6, 0.4], [0.0, 1.0, 0.0, 0.0]])
        actions, log_probs = agent.sample_actions(probs, _FixedUniform(u))
        assert ((actions >= 0) & (actions < 4)).all()
        assert (probs[np.arange(3), actions] > 0).all()
        assert np.isfinite(log_probs).all()

    def test_frequencies_chi_square(self):
        p = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
        n = 20_000
        actions, _ = agent.sample_actions(np.tile(p, (n, 1)), np.random.default_rng(13))
        counts = np.bincount(actions, minlength=p.size)
        stat = float(((counts - n * p) ** 2 / (n * p)).sum())
        assert stat < 33.38  # chi-square, 4 degrees of freedom, upper tail 1e-6

    def test_act_returns_one_sample(self):
        policy = agent.PolicyNet(4, 3, seed=14)
        probs, _, _ = policy.forward(np.zeros((1, 4)))
        actions, log_probs = agent.sample_actions(probs, np.random.default_rng(15))
        assert actions.shape == (1,) and actions[0] in (0, 1, 2)
        assert log_probs[0] == pytest.approx(np.log(probs[0, actions[0]]))

    def test_forward_rejects_a_single_observation(self):
        policy = agent.PolicyNet(4, 3, seed=14)
        with pytest.raises(ValueError, match="2-D batch"):
            policy.forward(np.zeros(4))


def toy_env(mode="binary", n=800, seed=0, episode_cap=1000):
    records, labels = make_surrogate_records(n, seed=seed)
    t = ds.fit_transformer(records)
    data = ds.EncodedDataset(t.encode_matrix(records), labels)
    env = ids_env.IdsEnv(data, ids_env.EnvConfig(mode=mode, episode_cap=episode_cap, seed=seed))
    return env, data, t


class TestTrain:
    def test_zero_timesteps_noop(self):
        env, data, _ = toy_env()
        policy = agent.PolicyNet(env.observation_dim, 2, seed=0)
        before = [w.copy() for w in policy.trunk.weights]
        cfg = agent.PpoConfig(total_timesteps=0)
        evaluations, _ = agent.train(env, policy, cfg, eval_data=data)
        assert evaluations == []
        assert all(np.array_equal(a, b) for a, b in zip(before, policy.trunk.weights))

    def test_deterministic_per_seed(self):
        logs = []
        for _ in range(2):
            env, data, _ = toy_env(seed=3)
            policy = agent.PolicyNet(env.observation_dim, 2, seed=3)
            cfg = agent.PpoConfig(
                total_timesteps=1024, rollout_length=256, eval_every=512, seed=3
            )
            evaluations, _ = agent.train(env, policy, cfg, eval_data=data)
            logs.append((evaluations, [w.copy() for w in policy.trunk.weights]))
        assert logs[0][0] == logs[1][0]
        assert all(np.array_equal(a, b) for a, b in zip(logs[0][1], logs[1][1]))

    @pytest.mark.slow
    def test_learns_separable_binary_task(self):
        # two-feature dataset built so a linear decision boundary scores 1.0;
        # a logistic oracle on the same data confirms that before asserting
        # on PPO
        from idslab.baselines import train_logreg

        rng = np.random.default_rng(5)
        n = 2000
        y = rng.integers(0, 2, size=n)
        centers = np.array([[0.2, 0.2], [0.8, 0.8]])
        X = centers[y] + rng.normal(scale=0.08, size=(n, 2))
        X = np.clip(X, 0.0, 1.0)
        data = ds.EncodedDataset(matrix=X, labels=y)
        env = ids_env.IdsEnv(
            data, ids_env.EnvConfig(mode="binary", episode_cap=1000, seed=5)
        )
        oracle = train_logreg(data.matrix, y, epochs=200, seed=0)
        oracle_acc = float((oracle.predict(data.matrix) == y).mean())
        assert oracle_acc >= 0.95, "toy task unexpectedly hard"

        policy = agent.PolicyNet(env.observation_dim, 2, seed=5)
        cfg = agent.PpoConfig(total_timesteps=20_480, eval_every=20_480, seed=5)
        agent.train(env, policy, cfg)
        cm = agent.evaluate(policy, data, "binary")
        from idslab import metrics

        assert metrics.accuracy(cm) >= 0.95


    def test_one_blas_thread_keeps_every_bit(self, monkeypatch):
        # the real trunk on the 54-wide encoding at minibatch 64: the trunk's
        # layer-1 input gradient is a matmul OpenBLAS splits over threads
        cfg = agent.PpoConfig(rollout_length=2048, minibatch=64, total_timesteps=2048,
                              eval_every=2048, seed=6)

        def run():
            env, data, _ = toy_env(mode="multiclass", n=3000, seed=6)
            assert env.observation_dim == 54
            policy = agent.PolicyNet(env.observation_dim, env.action_count, seed=6)
            evaluations, updates = agent.train(env, policy, cfg, eval_data=data)
            updates = [[t, *stats.values()] for t, stats in updates]
            return policy.params, np.array(evaluations, dtype=np.float64), np.array(updates)

        one = run()
        with monkeypatch.context() as m:
            m.setattr(nn, "one_blas_thread", contextlib.nullcontext)
            default = run()
        assert len(one[1]) == 1 and len(one[2]) == 1
        for a, b in zip(one, default, strict=True):
            assert_same(a, b)


class TestDiagnostics:
    def test_update_stats(self):
        env, data, _ = toy_env(seed=4)
        policy = agent.PolicyNet(env.observation_dim, 2, seed=4)
        cfg = agent.PpoConfig(total_timesteps=512, rollout_length=256, eval_every=512, seed=4)
        _, updates = agent.train(env, policy, cfg)
        assert [t for t, _ in updates] == [256, 512]
        for _, stats in updates:
            assert sorted(stats) == sorted(agent.UPDATE_STATS)
            assert all(np.isfinite(v) for v in stats.values())
            assert stats["explained_variance"] <= 1.0

    def test_explained_variance(self):
        returns = np.array([1.0, 2.0, 3.0, 4.0])
        assert agent.explained_variance(returns, returns) == 1.0
        assert agent.explained_variance(np.zeros(4), returns) == 0.0
        assert agent.explained_variance(np.zeros(4), np.ones(4)) == 0.0  # Var(returns) = 0

    def test_approx_kl_zero_at_old_policy(self):
        policy = agent.PolicyNet(5, 3, seed=16)
        batch = frozen_batch(policy, seed=17)
        probs, _, _ = policy.forward(batch["states"])
        batch["log_probs"] = np.log(probs[np.arange(32), batch["actions"]])
        _, _, stats = agent.ppo_loss_and_grads(policy, batch, agent.PpoConfig())
        assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-12)


class TestNonFinite:
    def test_nan_weight_stops_update(self):
        policy = agent.PolicyNet(4, 2, seed=18)
        policy.trunk.weights[0][0, 0] = np.nan
        value_weights = [w.copy() for w in policy.value_head.weights]
        rng = np.random.default_rng(19)
        buf = make_buffer(rng.normal(size=8), rng.normal(size=8), np.zeros(8))
        buf.states = rng.normal(size=(8, 4))
        agent.compute_gae(buf, 0.99, 0.95)
        with pytest.raises(FloatingPointError, match=r"drl-train.*epoch 0, minibatch 0"):
            agent.ppo_update(policy, buf, agent.PpoConfig(minibatch=4))
        # the poisoned loss never reached an optimizer step
        assert all(np.array_equal(a, b) for a, b in zip(value_weights, policy.value_head.weights))


class TestEvaluate:
    def test_uniform_head_single_column(self):
        env, data, _ = toy_env(n=300)
        policy = agent.PolicyNet(env.observation_dim, 2, seed=0)
        # force a fixed head: all logits equal -> argmax is action 0 everywhere
        for w, b in zip(policy.policy_head.weights, policy.policy_head.biases):
            w[:] = 0.0
            b[:] = 0.0
        cm = agent.evaluate(policy, data, "binary")
        assert cm.counts[:, 1].sum() == 0

    def test_matrix_total_is_record_count(self):
        env, data, _ = toy_env(n=400)
        policy = agent.PolicyNet(env.observation_dim, 2, seed=1)
        cm = agent.evaluate(policy, data, "binary")
        assert cm.total == 400

    def test_pure(self):
        env, data, _ = toy_env(n=200)
        policy = agent.PolicyNet(env.observation_dim, 5, seed=2)
        a = agent.evaluate(policy, data, "multiclass")
        b = agent.evaluate(policy, data, "multiclass")
        assert np.array_equal(a.counts, b.counts)

    def test_unknown_mode_raises(self):
        # a 2-action policy is not scored against the five classes
        env, data, _ = toy_env(n=50)
        policy = agent.PolicyNet(env.observation_dim, 2, seed=4)
        with pytest.raises(ValueError, match="'Binary'"):
            agent.evaluate(policy, data, "Binary")

    def test_dimension_mismatch(self):
        _, data, _ = toy_env(n=50)
        policy = agent.PolicyNet(7, 2, seed=3)
        with pytest.raises(ValueError):
            agent.evaluate(policy, data, "binary")

