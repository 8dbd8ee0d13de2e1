"""Intrusion-detection episode environment.

States are encoded records drawn uniformly with replacement; actions are
alerts (binary: alert/no-alert, multiclass: the five class ids).  Rewards
follow the asymmetric table: correct alert +1, correct silence 0, any
mistake -1.  Episodes end at the step cap or on a missed attack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["IdsMode", "EnvConfig", "StepResult", "IdsEnv", "reward", "EpisodeDoneError"]

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


class IdsEnv:
    """Single-consumer episode state machine over an encoded dataset."""

    def __init__(self, data, config):
        if len(data) == 0:
            raise ValueError("environment needs a nonempty dataset")
        self.data = data
        self.config = config
        self.mode = IdsMode(config.mode)
        self._rng = np.random.default_rng(config.seed)
        self._step_count = 0
        self._current = None  # index of the record being scored
        self._done = True

    @property
    def observation_dim(self):
        return self.data.matrix.shape[1]

    @property
    def action_count(self):
        return self.mode.action_count

    def _draw(self):
        return int(self._rng.integers(0, len(self.data)))

    def _true_class(self, index):
        cls = int(self.data.labels[index])
        return cls

    def reset(self):
        self._step_count = 0
        self._done = False
        self._current = self._draw()
        return self.data.matrix[self._current]

    def step(self, action):
        if self._done:
            raise EpisodeDoneError("episode is over; call reset()")
        true_class = self._true_class(self._current)
        r = reward(true_class, action, self.config.mode)
        self._step_count += 1
        missed_attack = true_class != 0 and action == 0
        done = self._step_count >= self.config.episode_cap or missed_attack
        self._done = done
        # terminal observation is still a freshly drawn record; trainers
        # must mask bootstrapping on done
        self._current = self._draw()
        return StepResult(
            next_state=self.data.matrix[self._current],
            reward=r,
            done=done,
            info=true_class,
        )
