"""PPO trainer over a 128/64/32 actor-critic and deterministic evaluation.

The policy is a shared trunk with a softmax action head and a linear value
head.  Because the environment is a contextual bandit, a rollout is a few
array operations instead of a loop over steps: one draw of T + 1 record
indices (the last is the bootstrap state), one batched forward, one
inverse-CDF action draw (`sample_actions`), and one lookup of rewards and
dones in the environment's reward table.
Updates use the clipped-ratio surrogate with generalized advantage
estimation and log per-update diagnostics, approximate KL and explained
variance included; a non-finite loss stops training.  Each minibatch step
is one nn.backward per net into one gradient vector, one norm clip and one
Adam step on one parameter vector.  Evaluation replays the test set once,
argmax action per record, no episode mechanics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dataset as ds, metrics, nn

__all__ = [
    "PolicyNet",
    "PpoConfig",
    "RolloutBuffer",
    "TrainLog",
    "compute_gae",
    "explained_variance",
    "sample_actions",
    "ppo_loss_and_grads",
    "ppo_update",
    "train",
    "evaluate",
]

_LOGP_FLOOR = 1e-12  # probability clamp for logs; float64 keeps this benign

TRUNK_SIZES = (128, 64, 32)
TRUNK_ACTIVATIONS = ("relu", "sigmoid")
_NET_NAMES = ("trunk", "policy", "value")  # checkpoint names, in nets() order
# one minibatch's stats, in the order _minibatch_grad returns them, then the rollout's
UPDATE_STATS = ("loss", "policy_loss", "value_loss", "entropy", "clip_fraction", "approx_kl",
                "explained_variance")


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    learning_rate: float = 2.5e-4
    rollout_length: int = 2048
    minibatch: int = 64
    update_epochs: int = 4
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    total_timesteps: int = 100_000
    eval_every: int = 10_000
    trunk_activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        for name in ("clip_epsilon", "learning_rate", "max_grad_norm"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("entropy_coef", "value_coef"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("rollout_length", "minibatch", "update_epochs", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.total_timesteps < 0:
            raise ValueError("total_timesteps must be >= 0")
        if self.trunk_activation not in TRUNK_ACTIVATIONS:
            raise ValueError(f"trunk_activation must be one of {TRUNK_ACTIVATIONS}")


class PolicyNet:
    """Shared trunk, softmax policy head, linear value head: views of one `params`
    vector, in nets() order; `grads` holds their gradient nets over `grad`."""

    def __init__(self, obs_dim, action_count, trunk_activation="relu", seed=0):
        if trunk_activation not in TRUNK_ACTIVATIONS:
            raise ValueError("trunk activation must be relu or sigmoid")
        self._share([
            nn.init_net([obs_dim, *TRUNK_SIZES], [trunk_activation] * 3, seed=seed),
            nn.init_net([TRUNK_SIZES[-1], action_count], ["softmax"], seed=seed + 1),
            nn.init_net([TRUNK_SIZES[-1], 1], ["linear"], seed=seed + 2),
        ])

    def _share(self, nets):
        bounds = np.cumsum([net.params.size for net in nets])[:-1]
        self.params = np.concatenate([net.params for net in nets])
        self.grad = np.zeros_like(self.params)
        self.trunk, self.policy_head, self.value_head = map(
            nn.pack, nets, np.split(self.params, bounds))
        self.grads = list(map(nn.pack, nets, np.split(self.grad, bounds)))

    @property
    def obs_dim(self):
        return self.trunk.in_dim

    @property
    def action_count(self):
        return self.policy_head.out_dim

    def nets(self):
        return [self.trunk, self.policy_head, self.value_head]

    def forward(self, obs_batch):
        """Returns (probs, values, tapes) for an (n, obs_dim) observation batch."""
        h, trunk_tape = nn.forward(self.trunk, obs_batch)
        probs, policy_tape = nn.forward(self.policy_head, h)
        values, value_tape = nn.forward(self.value_head, h)
        return probs, values[:, 0], (trunk_tape, policy_tape, value_tape)

    def save(self, path):
        nn.save_checkpoint(dict(zip(_NET_NAMES, self.nets())), path)

    @classmethod
    def load(cls, path):
        nets, _ = nn.load_checkpoint(path)
        policy = object.__new__(cls)
        policy._share([nets[n] for n in _NET_NAMES])
        return policy


def sample_actions(probs, rng):
    """One action per row of probs by inverse CDF; returns (actions, log_probs).

    Action a is drawn when u * total falls in [cdf[a-1], cdf[a]), an empty
    interval for a zero-probability action.  u < 1 keeps the rounded
    product below the row total, so no draw lands past the last nonzero
    probability.
    """
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(len(probs)) * cdf[:, -1]
    actions = (cdf[:, :-1] <= u[:, None]).sum(axis=1)
    chosen = probs[np.arange(len(probs)), actions]
    return actions, np.log(np.maximum(chosen, _LOGP_FLOOR))


@dataclass
class RolloutBuffer:
    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    values: np.ndarray
    next_value: float  # V of the state after the last step (bootstrap)
    advantages: np.ndarray = field(default=None)
    returns: np.ndarray = field(default=None)

    def __len__(self):
        return self.rewards.size


def compute_gae(buffer, gamma, lam):
    """Generalized advantage estimation with done masking.

    delta_t = r_t + gamma * V_{t+1} * (1 - done_t) - V_t
    A_t     = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    """
    T = len(buffer)
    advantages = np.zeros(T)
    next_values = np.append(buffer.values[1:], buffer.next_value)
    not_done = 1.0 - buffer.dones.astype(np.float64)
    # V_{t+1} is the value of the next stored state unless t ended an episode
    gae = 0.0
    for t in range(T - 1, -1, -1):
        delta = buffer.rewards[t] + gamma * next_values[t] * not_done[t] - buffer.values[t]
        gae = delta + gamma * lam * not_done[t] * gae
        advantages[t] = gae
    returns = advantages + buffer.values
    buffer.advantages = advantages
    buffer.returns = returns
    return advantages, returns


def _minibatch_grad(policy, states, actions, old_logp, adv, returns, config):
    """One PPO minibatch: returns the first six UPDATE_STATS and leaves the gradient
    in policy.grad, backpropagated through both heads and then the trunk.

    loss = -min(ratio * A, clip(ratio) * A) + value_coef * (V - R)^2 - entropy_coef * H
    """
    m = actions.size
    probs, values, (trunk_tape, policy_tape, value_tape) = policy.forward(states)
    p_clamped = np.maximum(probs, _LOGP_FLOOR)
    logp_all = np.log(p_clamped)
    logp = logp_all[np.arange(m), actions]
    ratio = np.exp(logp - old_logp)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon) * adv
    surrogate = np.minimum(unclipped, clipped)
    entropy = -(probs * logp_all).sum(axis=1)
    value_err = values - returns

    # np.add.reduce(a) / m is a.mean() without numpy's Python-level wrapper
    policy_loss = -float(np.add.reduce(surrogate) / m)
    value_loss = float(np.add.reduce(value_err**2) / m)
    entropy_mean = float(np.add.reduce(entropy) / m)
    loss = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy_mean

    # gradient w.r.t. action probabilities
    g_probs = config.entropy_coef * (logp_all + 1.0) / m  # from -coef * mean(H)
    use_unclipped = unclipped <= clipped  # subgradient choice at equality
    coeff = -(use_unclipped * ratio * adv) / m  # d(policy_loss)/d(logp_a)
    g_probs[np.arange(m), actions] += coeff / p_clamped[np.arange(m), actions]
    g_values = (2.0 * config.value_coef * value_err / m)[:, None]

    trunk_grad, policy_grad, value_grad = policy.grads
    g_h = nn.backward(policy.policy_head, policy_tape, g_probs, policy_grad)
    g_h += nn.backward(policy.value_head, value_tape, g_values, value_grad)
    nn.backward(policy.trunk, trunk_tape, g_h, trunk_grad, inputs=False)
    return (loss, policy_loss, value_loss, entropy_mean,
            float(np.add.reduce(~use_unclipped, dtype=np.float64) / m),
            float(np.add.reduce(old_logp - logp) / m))


def ppo_loss_and_grads(policy, batch, config):
    """Mean PPO loss over a minibatch, per-net (dW, db) gradients (copies) and stats."""
    row = _minibatch_grad(policy, batch["states"], batch["actions"], batch["log_probs"],
                          batch["advantages"], batch["returns"], config)
    grads = [[(dw.copy(), db.copy()) for dw, db in zip(g.weights, g.biases)]
             for g in policy.grads]
    return row[0], grads, dict(zip(UPDATE_STATS, row))


def explained_variance(values, returns):
    """1 - Var(returns - values) / Var(returns); 0 when the returns are constant."""
    var = returns.var()
    return float(1.0 - (returns - values).var() / var) if var > 0 else 0.0


def ppo_update(policy, buffer, config, opt=None, rng=None):
    """update_epochs passes of shuffled minibatch updates; returns stats.

    The stats are the minibatch means of the loss terms, clip fraction and
    approximate KL, plus the explained variance of the rollout's values.
    Raises FloatingPointError on the first non-finite minibatch loss,
    before any optimizer step applies it.
    """
    opt = opt if opt is not None else nn.OptState.for_net(policy, "adam", config.learning_rate)
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    adv = buffer.advantages
    norm_adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    T, size = len(buffer), config.minibatch
    per_epoch = -(-T // size)
    stats = np.empty((len(UPDATE_STATS) - 1, config.update_epochs * per_epoch))
    for epoch in range(config.update_epochs):
        order = rng.permutation(T)
        columns = [a[order] for a in (buffer.states, buffer.actions, buffer.log_probs,
                                      norm_adv, buffer.returns)]
        for j in range(per_epoch):
            row = _minibatch_grad(policy, *(a[j * size : (j + 1) * size] for a in columns), config)
            if not math.isfinite(row[0]):
                raise FloatingPointError(f"drl-train: non-finite PPO loss ({row[0]}) in "
                                         f"update epoch {epoch}, minibatch {j}")
            nn.clip_global_norm(policy.grad, config.max_grad_norm)
            nn.update_params(policy.params, policy.grad, opt)
            stats[:, epoch * per_epoch + j] = row
    means = dict(zip(UPDATE_STATS, (float(np.mean(s)) if s.size else 0.0 for s in stats)))
    means["explained_variance"] = explained_variance(buffer.values, buffer.returns)
    return means


@dataclass
class TrainLog:
    """Evaluation and update rows of one training run.

    rows: (timestep, *metrics.scores(cm)), one per evaluation;
    updates: (timestep, ppo_update stats), one per PPO update.
    """

    rows: list = field(default_factory=list)
    updates: list = field(default_factory=list)

    def append(self, timestep, cm):
        self.rows.append((timestep, *metrics.scores(cm)))

    def to_csv(self, k):
        lines = ["timestep," + metrics.score_header(k)]
        for row in self.rows:
            lines.append(",".join([str(row[0])] + [f"{v:.6f}" for v in row[1:]]))
        return "\n".join(lines) + "\n"

    def updates_csv(self):
        lines = ["timestep," + ",".join(UPDATE_STATS)]
        for timestep, stats in self.updates:
            lines.append(",".join([str(timestep)] + [f"{stats[k]:.6f}" for k in UPDATE_STATS]))
        return "\n".join(lines) + "\n"


def _collect_rollout(env_, policy, config, rng):
    """One rollout of rollout_length steps as a few whole-array operations."""
    T = config.rollout_length
    indices = env_.draw(T + 1)  # the last record is the bootstrap state
    states = env_.data.matrix[indices]
    probs, values, _ = policy.forward(states)
    actions, log_probs = sample_actions(probs[:T], rng)
    rewards, dones = env_.score(indices[:T], actions)
    return RolloutBuffer(
        states=states[:T],
        actions=actions,
        log_probs=log_probs,
        rewards=rewards.astype(np.float64),
        dones=dones,
        values=values[:T],
        next_value=float(values[T]),
    )


def train(env_, policy, config, eval_data=None):
    """Alternate rollouts and PPO updates; returns the TrainLog.

    Evaluation rows need eval_data; update rows are logged either way.
    """
    with nn.one_blas_thread():  # small matmuls: a second thread only spins
        log = TrainLog()
        opt = nn.OptState.for_net(policy, "adam", config.learning_rate)
        rng = np.random.default_rng(config.seed)
        timesteps = 0
        next_eval = config.eval_every
        while timesteps < config.total_timesteps:
            buffer = _collect_rollout(env_, policy, config, rng)
            compute_gae(buffer, config.gamma, config.gae_lambda)
            stats = ppo_update(policy, buffer, config, opt=opt, rng=rng)
            timesteps += len(buffer)
            log.updates.append((timesteps, stats))
            if eval_data is not None and timesteps >= next_eval:
                cm = evaluate(policy, eval_data, env_.config.mode)
                log.append(timesteps, cm)
                next_eval += config.eval_every
        if eval_data is not None and config.total_timesteps > 0 and (
            not log.rows or log.rows[-1][0] != timesteps
        ):
            log.append(timesteps, evaluate(policy, eval_data, env_.config.mode))
    return log


def evaluate(policy, encoded_data, mode):
    """Score every record once with the argmax action; no episode mechanics."""
    if encoded_data.matrix.shape[1] != policy.obs_dim:
        raise ValueError(
            f"data dim {encoded_data.matrix.shape[1]} != policy obs dim {policy.obs_dim}"
        )
    with nn.one_blas_thread():
        probs, _, _ = policy.forward(encoded_data.matrix)
    pred = np.argmax(probs, axis=1)
    truth, k = ds.task_labels(encoded_data.labels, mode)
    return metrics.confusion(pred, truth, k)
