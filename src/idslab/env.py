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
one call to the next.  `reset()`/`step()` are single-record wrappers over
that core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_CLASSES

__all__ = [
    "IdsMode",
    "EnvConfig",
    "StepResult",
    "IdsEnv",
    "reward",
    "reward_table",
    "EpisodeDoneError",
]

BINARY = "binary"
MULTICLASS = "multiclass"

_ACTION_COUNT = {BINARY: 2, MULTICLASS: 5}


class EpisodeDoneError(RuntimeError):
    """step() called after the episode terminated."""


@dataclass(frozen=True)
class IdsMode:
    name: str

    def __post_init__(self):
        if self.name not in _ACTION_COUNT:
            raise ValueError(f"unknown mode: {self.name!r}")

    @property
    def action_count(self):
        return _ACTION_COUNT[self.name]


@dataclass(frozen=True)
class EnvConfig:
    mode: str = BINARY
    episode_cap: int = 1000
    seed: int = 0

    def __post_init__(self):
        IdsMode(self.mode)  # validates
        if self.episode_cap < 1:
            raise ValueError("episode_cap must be >= 1")


@dataclass(frozen=True)
class StepResult:
    next_state: np.ndarray
    reward: int
    done: bool
    info: int  # true class id of the record just scored


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
    """Single-consumer episode state machine over an encoded dataset."""

    def __init__(self, data, config):
        if len(data) == 0:
            raise ValueError("environment needs a nonempty dataset")
        self.data = data
        self.config = config
        self.mode = IdsMode(config.mode)
        self._rewards = reward_table(config.mode)
        self._rng = np.random.default_rng(config.seed)
        self._step_count = 0  # steps taken in the running episode
        self._current = None  # index of the record step() scores next
        self._done = True

    @property
    def observation_dim(self):
        return self.data.matrix.shape[1]

    @property
    def action_count(self):
        return self.mode.action_count

    def draw(self, n):
        """n record indices drawn uniformly with replacement."""
        return self._rng.integers(0, len(self.data), size=n)

    def _true_class(self, index):
        return int(self.data.labels[index])

    def score(self, indices, actions):
        """(rewards, dones) for taking actions[t] on record indices[t].

        The records form one stream of steps that continues the running
        episode; a done step ends its episode and the next step starts a
        new one, as after reset().
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

    def reset(self):
        self._step_count = 0
        self._done = False
        self._current = int(self.draw(1)[0])
        return self.data.matrix[self._current]

    def step(self, action):
        if self._done:
            raise EpisodeDoneError("episode is over; call reset()")
        index = self._current
        rewards, dones = self.score([index], [action])
        self._done = bool(dones[0])
        # terminal observation is still a freshly drawn record; trainers
        # must mask bootstrapping on done
        self._current = int(self.draw(1)[0])
        return StepResult(
            next_state=self.data.matrix[self._current],
            reward=int(rewards[0]),
            done=self._done,
            info=self._true_class(index),
        )
