import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idslab import dataset as ds, env as ids_env

from conftest import make_surrogate_records


def make_env(n=200, mode="binary", episode_cap=1000, seed=0, data_seed=1):
    records, labels = make_surrogate_records(n, seed=data_seed)
    t = ds.fit_transformer(records)
    data = ds.EncodedDataset(t.encode_matrix(records), labels)
    config = ids_env.EnvConfig(mode=mode, episode_cap=episode_cap, seed=seed)
    return ids_env.IdsEnv(data, config), data


# index i of this dataset holds a record of class i
_ONE_PER_CLASS = ds.EncodedDataset(matrix=np.zeros((5, 2)), labels=np.arange(5))


def step_replay(labels, indices, actions, episode_cap):
    """Plain-Python reference: the dones of scoring the records one step at
    a time, and the running episode's step count after the last step."""
    dones, count = [], 0
    for index, action in zip(indices, actions):
        count += 1
        done = (labels[index] != 0 and action == 0) or count == episode_cap
        dones.append(bool(done))
        if done:
            count = 0
    return dones, count


# Expected reward tables, exhaustive: reward[true_class][action]
BINARY_TABLE = {
    0: {0: 0, 1: -1},
    1: {0: -1, 1: 1},
    2: {0: -1, 1: 1},
    3: {0: -1, 1: 1},
    4: {0: -1, 1: 1},
}
MULTI_TABLE = {
    true: {
        action: (
            (1 if action == true else -1)
            if true != 0
            else (0 if action == 0 else -1)
        )
        for action in range(5)
    }
    for true in range(5)
}


class TestRewardTable:
    def test_binary_exhaustive(self):
        for true, row in BINARY_TABLE.items():
            for action, expected in row.items():
                assert ids_env.reward(true, action, "binary") == expected

    def test_multiclass_exhaustive(self):
        for true, row in MULTI_TABLE.items():
            for action, expected in row.items():
                assert ids_env.reward(true, action, "multiclass") == expected

    def test_paper_cells(self):
        assert ids_env.reward(1, 1, "binary") == 1  # DoS, alert
        assert ids_env.reward(0, 0, "multiclass") == 0  # normal, silence
        assert ids_env.reward(1, 2, "multiclass") == -1  # DoS called Probe

    def test_out_of_range_action(self):
        with pytest.raises(ValueError):
            ids_env.reward(0, 2, "binary")
        with pytest.raises(ValueError):
            ids_env.reward(0, 5, "multiclass")


class TestConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ids_env.EnvConfig(mode="ternary")

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            ids_env.EnvConfig(episode_cap=0)

    def test_action_counts(self):
        for mode, k in (("binary", 2), ("multiclass", 5)):
            assert ids_env.IdsEnv(_ONE_PER_CLASS, ids_env.EnvConfig(mode=mode)).action_count == k


class TestEpisodes:
    def test_state_shape(self):
        env, data = make_env()
        states = data.matrix[env.draw(10)]
        assert env.observation_dim == data.matrix.shape[1]
        assert states.shape == (10, env.observation_dim)

    def test_empty_dataset(self):
        data = ds.EncodedDataset(matrix=np.zeros((0, 4)), labels=np.zeros(0))
        with pytest.raises(ValueError):
            ids_env.IdsEnv(data, ids_env.EnvConfig())

    def test_cap_one_ends_immediately(self):
        env, _ = make_env(episode_cap=1)
        _, dones = env.score(env.draw(20), np.ones(20, dtype=np.int64))
        assert dones.all()

    def test_missed_attack_terminates(self):
        env, data = make_env(mode="binary", seed=3)
        # silence every step: the episode must end at the first attack record
        indices = env.draw(env.config.episode_cap)
        rewards, dones = env.score(indices, np.zeros(indices.size, dtype=np.int64))
        attacks = np.flatnonzero(data.labels[indices] != 0)
        if not attacks.size:
            pytest.fail("no attack drawn within the cap")
        first = attacks[0]
        assert dones[first] and rewards[first] == -1
        assert not dones[:first].any() and (rewards[:first] == 0).all()

    def test_new_episode_after_done(self):
        env, _ = make_env(episode_cap=1)
        _, first = env.score(env.draw(1), [1])
        _, second = env.score(env.draw(1), [1])  # a fresh episode, ended by the cap
        assert first[0] and second[0]

    def test_episode_length_bounded(self):
        env, _ = make_env(mode="binary", episode_cap=50, seed=4)
        cap = env.config.episode_cap
        # always alert: never misses an attack, so only the cap ends the episode
        _, dones = env.score(env.draw(cap + 1), np.ones(cap + 1, dtype=np.int64))
        assert np.flatnonzero(dones).tolist() == [49]

    def test_oracle_policy_cumulative_reward(self):
        # always-correct policy: cumulative reward = number of attacks seen
        env, data = make_env(mode="multiclass", episode_cap=10_000, seed=5)
        indices = env.draw(10_000)
        true = data.labels[indices]
        rewards, dones = env.score(indices, true)
        assert rewards.sum() == (true != 0).sum()
        assert np.flatnonzero(dones).tolist() == [9_999]

    def test_determinism_per_seed(self):
        results = []
        for _ in range(2):
            env, _ = make_env(mode="binary", seed=12)
            indices = env.draw(300)
            rewards, dones = env.score(indices, np.arange(300) % 2)
            results.append((indices.tolist(), rewards.tolist(), dones.tolist()))
        assert results[0] == results[1]

    def test_reward_independent_of_future_draws(self):
        # the reward scores the given record; later draws do not change it
        env, data = make_env(mode="binary", seed=6)
        index = env.draw(1)
        env.draw(100)
        expected = ids_env.reward(int(data.labels[index[0]]), 1, "binary")
        assert env.score(index, [1])[0].tolist() == [expected]


class TestVectorCore:
    @pytest.mark.parametrize("mode", ["binary", "multiclass"])
    def test_rewards_match_reward_cells(self, mode):
        env, data = make_env(mode=mode, seed=8)
        rng = np.random.default_rng(8)
        indices = rng.integers(0, len(data), 500)
        actions = rng.integers(0, env.action_count, 500)
        rewards, _ = env.score(indices, actions)
        expected = [ids_env.reward(int(data.labels[i]), int(a), mode) for i, a in zip(indices, actions)]
        assert rewards.tolist() == expected

    @pytest.mark.parametrize("mode", ["binary", "multiclass"])
    @pytest.mark.parametrize("episode_cap", [1, 7, 1000])
    def test_dones_match_step_replay(self, mode, episode_cap):
        batched, data = make_env(mode=mode, episode_cap=episode_cap, seed=9)
        rng = np.random.default_rng(episode_cap)
        indices = rng.integers(0, len(data), 400)
        actions = rng.integers(0, batched.action_count, 400)
        expected, count = step_replay(data.labels, indices, actions, episode_cap)
        missed = (data.labels[indices] != 0) & (actions == 0)
        assert missed.any()
        # split where an episode is running, so it crosses into the second call
        split = 200
        while episode_cap > 1 and expected[split - 1]:
            split += 1
        _, first = batched.score(indices[:split], actions[:split])
        _, second = batched.score(indices[split:], actions[split:])
        assert np.concatenate([first, second]).tolist() == expected
        assert batched._step_count == count

    def test_cap_counts_across_calls(self):
        # all-normal data, correct silence: only the cap ends an episode
        data = ds.EncodedDataset(matrix=np.zeros((1, 3)), labels=np.array([0]))
        env = ids_env.IdsEnv(data, ids_env.EnvConfig(mode="binary", episode_cap=50, seed=0))
        _, first = env.score(np.zeros(30, dtype=np.int64), np.zeros(30, dtype=np.int64))
        _, second = env.score(np.zeros(80, dtype=np.int64), np.zeros(80, dtype=np.int64))
        dones = np.concatenate([first, second])
        assert np.flatnonzero(dones).tolist() == [49, 99]
        assert env._step_count == 10

    def test_out_of_range_action(self):
        env, _ = make_env()
        with pytest.raises(ValueError):
            env.score([0, 1], [1, 2])

    def test_draw_in_range(self):
        env, data = make_env(n=50)
        indices = env.draw(1000)
        assert indices.shape == (1000,)
        assert indices.min() >= 0 and indices.max() < len(data)


@settings(database=None, deadline=None)
@given(
    mode=st.sampled_from(["binary", "multiclass"]),
    cells=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=60),
    episode_cap=st.integers(1, 12),
)
def test_reward_table_property(mode, cells, episode_cap):
    env = ids_env.IdsEnv(_ONE_PER_CLASS, ids_env.EnvConfig(mode=mode, episode_cap=episode_cap))
    k = env.action_count
    classes = [c for c, _ in cells]
    actions = [a % k for _, a in cells]
    table = ids_env.reward_table(mode)
    assert table.shape == (5, k)
    assert all(table[c, a] == ids_env.reward(c, a, mode) for c in range(5) for a in range(k))

    rewards, dones = env.score(classes, actions)
    assert rewards.tolist() == [ids_env.reward(c, a, mode) for c, a in zip(classes, actions)]
    expected, count = step_replay(_ONE_PER_CLASS.labels, classes, actions, episode_cap)
    assert dones.tolist() == expected
    assert env._step_count == count
