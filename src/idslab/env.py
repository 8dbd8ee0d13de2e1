"""Intrusion-detection episode environment.

States are encoded records drawn uniformly with replacement; actions are
the task's labels (`dataset.task_labels`).  Rewards follow the asymmetric
table: correct alert +1, correct silence 0, any mistake -1.  Episodes end
at the step cap or on a missed attack.

The task is a contextual bandit: the next record is a fresh draw whatever
the action was, so episodes default to one step.  A longer cap lets an action
change the future only by ending the episode, and on weak features PPO then
learns to predict Normal on everything (ROADMAP item 1: surrogate macro F1
0.53-0.74 at cap 1000, 0.78 at cap 1).  One vector core serves a rollout:
`draw(n)` picks n record indices at once, and `score(indices, actions)`
looks every reward up in the one 5 x k table (`reward_table`, built from
`dataset.task_labels`; `reward()` reads one cell of it) and computes the
dones with a per-episode step counter that carries over from one call to
the next, so a rollout may be scored in pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_CLASSES, task_labels

__all__ = [
    "EnvConfig",
    "IdsEnv",
    "reward",
    "reward_table",
]


@dataclass(frozen=True)
class EnvConfig:
    mode: str = "binary"
    episode_cap: int = 1
    seed: int = 0

    def __post_init__(self):
        task_labels(np.arange(N_CLASSES), self.mode)  # a ValueError for an unknown mode
        if self.episode_cap < 1:
            raise ValueError("episode_cap must be >= 1")


def reward_table(mode):
    """Rewards for every cell: rows are true class ids, columns actions.

    An action that names the record's task label scores +1 on an attack and
    0 on Normal (silence); any other action, a wrong attack type included,
    scores -1.
    """
    labels, k = task_labels(np.arange(N_CLASSES), mode)
    hit = labels[:, None] == np.arange(k)
    return np.where(hit, labels[:, None] != 0, -1).astype(np.int64)


def reward(true_class_id, action, mode):
    """The reward_table cell for one (true class, action) pair, as an int."""
    table = reward_table(mode)
    if not (0 <= true_class_id < N_CLASSES and 0 <= action < table.shape[1]):
        raise ValueError(f"class {true_class_id}, action {action} out of range for {mode}")
    return int(table[true_class_id, action])


class IdsEnv:
    """Episode stream over an encoded dataset, scored a batch of steps at a time."""

    def __init__(self, data, config):
        if len(data) == 0:
            raise ValueError("environment needs a nonempty dataset")
        self.data = data
        self.config = config
        self._rewards = reward_table(config.mode)
        self._rng = np.random.default_rng(config.seed)
        self._step_count = 0  # steps taken in the running episode

    @property
    def observation_dim(self):
        return self.data.matrix.shape[1]

    @property
    def action_count(self):
        return self._rewards.shape[1]

    def draw(self, n):
        """n record indices drawn uniformly with replacement."""
        return self._rng.integers(0, len(self.data), size=n)

    def score(self, indices, actions):
        """(rewards, dones) for taking actions[t] on record indices[t].

        The records form one stream of steps that continues the running
        episode; a done step ends its episode and the next step starts a
        new one.
        """
        actions = np.asarray(actions)
        if actions.size and (actions.min() < 0 or actions.max() >= self.action_count):
            raise ValueError(f"actions out of range for {self.config.mode}")
        true = self.data.labels[indices]
        missed = (true != 0) & (actions == 0)
        # a missed attack restarts the count at the next step; between
        # misses the cap ends an episode every episode_cap steps
        cap = self.config.episode_cap
        t = np.arange(actions.size)
        after_miss = np.where(missed, t + 1, 0)
        restart = np.maximum.accumulate(np.concatenate(([0], after_miss[:-1])))
        carried = np.where(restart == 0, self._step_count, 0)  # no miss yet in this call
        count = (t - restart + carried) % cap + 1
        dones = missed | (count == cap)
        if actions.size:
            self._step_count = 0 if dones[-1] else int(count[-1])
        return self._rewards[true, actions], dones
