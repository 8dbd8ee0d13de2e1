"""Intrusion-detection episode environment.

States are encoded records drawn uniformly with replacement; actions are
alerts (binary: alert/no-alert, multiclass: the five class ids).  Rewards
follow the asymmetric table: correct alert +1, correct silence 0, any
mistake -1.  Episodes end at the step cap or on a missed attack.

The environment is a contextual bandit: the next record is a fresh draw
whatever the action was.  So one vector core serves a whole rollout:
`draw(n)` picks n record indices at once, and `score(indices, actions)`
looks every reward up in the one 5 x k table built from `reward()` and
computes the dones with a per-episode step counter that carries over from
one call to the next, so a rollout may be scored in pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_CLASSES

__all__ = [
    "EnvConfig",
    "IdsEnv",
    "reward",
    "reward_table",
]

BINARY = "binary"
MULTICLASS = "multiclass"

_ACTION_COUNT = {BINARY: 2, MULTICLASS: 5}


@dataclass(frozen=True)
class EnvConfig:
    mode: str = BINARY
    episode_cap: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in _ACTION_COUNT:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.episode_cap < 1:
            raise ValueError("episode_cap must be >= 1")


def reward(true_class_id, action, mode):
    """Reward table for one (true class, action) cell.

    Binary actions collapse all attacks to 1; multiclass actions name the
    attack class.  A wrong attack type scores -1 like a false alarm.
    """
    n_actions = _ACTION_COUNT[mode]
    if not 0 <= action < n_actions:
        raise ValueError(f"action {action} out of range for {mode}")
    is_attack = true_class_id != 0
    if mode == BINARY:
        if is_attack:
            return 1 if action == 1 else -1
        return 0 if action == 0 else -1
    if is_attack:
        if action == true_class_id:
            return 1
        return -1  # silence on an attack, or the wrong attack type
    return 0 if action == 0 else -1


def reward_table(mode):
    """reward() for every cell: rows are true class ids, columns actions."""
    return np.array(
        [[reward(c, a, mode) for a in range(_ACTION_COUNT[mode])] for c in range(N_CLASSES)],
        dtype=np.int64,
    )


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
        return _ACTION_COUNT[self.config.mode]

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
