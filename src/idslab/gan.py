"""Conditional tabular WGAN with weight clipping.

One model covers both sampling modes: the class label is generated as a
5-slot categorical group AND fed as a condition input, so conditional
sampling rejects the rows whose generated label disagrees with the
requested one: 87 % of them on the benchmark run-all (accept_ratio 0.1255;
the generator learns little class structure yet, ROADMAP open item 1).

Continuous outputs go through a sigmoid, categorical groups through
Gumbel-softmax (soft samples to the critic while training, argmax at
sampling time).  Both networks train with RMSProp; critic weights are
clipped to +/-weight_clip after every critic step.

Labels are plain class ids: `sample_unconditional` returns (RawRecord,
class id) pairs, and `export_synthetic` writes each id's class symbol.

Both nets train and sample in float32 (`DTYPE`), as WGANs usually are: their
matmuls, most of training, run about twice as fast as in float64.  Decoded
rows go back to float64, the codec's dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .dataset import CLASS_NAMES, CLASS_SYMBOLS, N_CLASSES, Records, Transformer, _F20_RAW_INDEX

__all__ = [
    "GanConfig",
    "GanModel",
    "SamplingStarvationError",
    "train_gan",
    "sample_unconditional",
    "sample_conditional",
    "export_synthetic",
]

DTYPE = np.float32  # of both nets, their inputs and their noise


class SamplingStarvationError(RuntimeError):
    """Conditional rejection sampling hit its attempt cap."""


@dataclass(frozen=True)
class GanConfig:
    epochs: int = 100
    batch_size: int = 500
    critic_steps: int = 5
    noise_dim: int = 128
    hidden: tuple = (256, 256)
    weight_clip: float = 0.01
    learning_rate: float = 5e-5
    gumbel_temperature: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.critic_steps < 1:
            raise ValueError("critic_steps must be >= 1")
        for name in ("batch_size", "noise_dim", "weight_clip", "learning_rate",
                     "gumbel_temperature"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not all(type(h) is int and h > 0 for h in self.hidden):
            raise ValueError("hidden must hold positive integer layer sizes")


@dataclass
class GanModel:
    generator: nn.DenseNet  # input noise_dim + 5, linear output over all slots
    critic: nn.DenseNet  # input record_dim + 5 condition slots, scalar output
    transformer: Transformer
    class_distribution: np.ndarray  # empirical training class shares
    config: GanConfig

    @property
    def record_dim(self):
        """Encoded feature dim plus the 5 generated label slots."""
        return self.transformer.total_dim + N_CLASSES

    def group_slices(self):
        """Categorical group slices in the generated vector, label last."""
        groups = [sl for _, sl in self.transformer.group_slices()]
        groups.append(slice(self.transformer.total_dim, self.record_dim))
        return groups

    def save(self, path):
        meta = {
            "transformer": self.transformer.to_json(),
            "class_distribution": self.class_distribution.tolist(),
            "config": self.config.__dict__ | {"hidden": list(self.config.hidden)},
        }
        nn.save_checkpoint({"generator": self.generator, "critic": self.critic}, path, meta)

    @classmethod
    def load(cls, path):
        """Read a `save` file; nets saved in float64 are cast to DTYPE."""
        nets, meta = nn.load_checkpoint(path)
        nets = {k: nn.pack(net, net.params.astype(DTYPE)) for k, net in nets.items()}
        cfg = dict(meta["config"])
        cfg["hidden"] = tuple(cfg["hidden"])
        return cls(
            generator=nets["generator"],
            critic=nets["critic"],
            transformer=Transformer.from_json(meta["transformer"]),
            class_distribution=np.array(meta["class_distribution"]),
            config=GanConfig(**cfg),
        )


def _build_model(transformer, class_distribution, config):
    record_dim = transformer.total_dim + N_CLASSES
    generator = nn.init_net(
        [config.noise_dim + N_CLASSES, *config.hidden, record_dim],
        ["relu"] * len(config.hidden) + ["linear"],
        seed=config.seed,
    )
    critic = nn.init_net(
        [record_dim + N_CLASSES, *config.hidden, 1],
        ["leaky_relu"] * len(config.hidden) + ["linear"],
        seed=config.seed + 1,
    )
    return GanModel(
        generator=nn.pack(generator, generator.params.astype(DTYPE)),
        critic=nn.pack(critic, critic.params.astype(DTYPE)),
        transformer=transformer,
        class_distribution=class_distribution,
        config=config,
    )


def _output_transform(raw, model, rng=None, hard=False):
    """Map the generator's linear output to a record vector.

    Both modes perturb the logits with Gumbel noise, computed in float64 and
    then cast (a uniform draw rounded to float32 can be 1.0, whose noise is
    infinite); soft mode keeps the tau-softmax relaxation for the critic,
    hard mode takes the argmax one-hot (a categorical draw).  Returns
    (vector, cache) where cache backs _output_backward.
    """
    tau = model.config.gumbel_temperature
    out = np.empty_like(raw)
    cont = model.transformer.continuous_indices()
    sig = 1.0 / (1.0 + np.exp(-raw[:, cont]))
    out[:, cont] = sig
    groups = model.group_slices()
    for sl in groups:
        logits = raw[:, sl]
        gumbel = -np.log(-np.log(rng.uniform(1e-12, 1.0, size=logits.shape))).astype(raw.dtype)
        if hard:
            out[:, sl] = nn.one_hot(np.argmax(logits + gumbel, axis=1), logits.shape[1], raw.dtype)
        else:
            out[:, sl] = nn.softmax((logits + gumbel) / tau)
    return out, (cont, groups, sig, out)


def _output_backward(grad_out, cache, tau):
    """Gradient through sigmoid / Gumbel-softmax back to the linear output."""
    cont, groups, sig, out = cache
    grad_raw = np.zeros_like(grad_out)
    grad_raw[:, cont] = grad_out[:, cont] * sig * (1.0 - sig)
    for sl in groups:
        grad_raw[:, sl] = nn.softmax_backward(out[:, sl], grad_out[:, sl]) / tau
    return grad_raw


def _generate_soft(model, conditions, rng):
    noise = rng.standard_normal((conditions.shape[0], model.config.noise_dim), dtype=DTYPE)
    gen_in = np.concatenate([noise, conditions], axis=1)
    raw, tape = nn.forward(model.generator, gen_in)
    fake, cache = _output_transform(raw, model, rng=rng)
    return fake, tape, cache


def _critic_loss_and_grads(critic, fake, real, cond):
    """WGAN critic loss mean(critic(fake)) - mean(critic(real)) and its
    parameter gradients, from one pass over the stacked [fake; real] rows."""
    m = len(fake)
    batch = np.concatenate([np.concatenate([fake, real]), np.concatenate([cond, cond])], axis=1)
    scores, tape = nn.forward(critic, batch)
    loss = float(scores[:m].mean() - scores[m:].mean())
    upstream = np.concatenate([np.full((m, 1), 1.0 / m), np.full((m, 1), -1.0 / m)])
    grads, _ = nn.backward(critic, tape, upstream, inputs=False)
    return loss, grads


def _check_finite(net, loss, step):
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"gan-train: non-finite {net} loss ({loss}) at generator step {step}"
        )


def train_gan(data, transformer, config):
    """Train the conditional WGAN on an encoded dataset with labels.

    Returns (model, loss_history); history rows are
    (generator_step, critic_loss, generator_loss).  Raises
    FloatingPointError on the first non-finite loss, before any optimizer
    step applies it.
    """
    if len(data) == 0:
        raise ValueError("empty training data")
    present = np.unique(data.labels)
    if len(present) < N_CLASSES:
        missing = sorted(set(range(N_CLASSES)) - set(present.tolist()))
        raise ValueError(f"classes absent from training data: {missing}")

    class_rows = [np.flatnonzero(data.labels == c) for c in range(N_CLASSES)]
    class_distribution = np.bincount(data.labels, minlength=N_CLASSES) / len(data)
    model = _build_model(transformer, class_distribution, config)
    real_full = np.hstack([data.matrix, nn.one_hot(data.labels, N_CLASSES)], dtype=DTYPE)

    gen_opt = nn.OptState.for_net(model.generator, "rmsprop", config.learning_rate)
    crit_opt = nn.OptState.for_net(model.critic, "rmsprop", config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history = []
    steps_per_epoch = max(1, len(data) // config.batch_size)
    step = 0
    for _ in range(config.epochs):
        for _ in range(steps_per_epoch):
            # training-by-sampling: one condition class per minibatch
            c = int(rng.integers(0, N_CLASSES))
            cond = nn.one_hot(np.full(config.batch_size, c), N_CLASSES, DTYPE)
            critic_loss = 0.0
            for _ in range(config.critic_steps):
                idx = rng.choice(class_rows[c], size=config.batch_size, replace=True)
                fake, _, _ = _generate_soft(model, cond, rng)
                critic_loss, grads = _critic_loss_and_grads(model.critic, fake, real_full[idx], cond)
                _check_finite("critic", critic_loss, step)
                nn.opt_step(model.critic, grads, crit_opt)
                np.clip(model.critic.params, -config.weight_clip, config.weight_clip,
                        out=model.critic.params)
            # generator step: minimize -mean(critic(fake))
            fake, gen_tape, cache = _generate_soft(model, cond, rng)
            m = config.batch_size
            score, tape = nn.forward(model.critic, np.concatenate([fake, cond], axis=1))
            gen_loss = float(-score.mean())
            _check_finite("generator", gen_loss, step)
            _, grad_in = nn.backward(model.critic, tape, np.full((m, 1), -1.0 / m), params=False)
            grad_fake = grad_in[:, : model.record_dim]  # condition slots carry no gradient
            grad_raw = _output_backward(grad_fake, cache, config.gumbel_temperature)
            gen_grads, _ = nn.backward(model.generator, gen_tape, grad_raw, inputs=False)
            nn.opt_step(model.generator, gen_grads, gen_opt)
            history.append((step, critic_loss, gen_loss))
            step += 1
    return model, history


def _generate_hard(model, condition_ids, rng):
    cond = nn.one_hot(condition_ids, N_CLASSES, DTYPE)
    noise = rng.standard_normal((cond.shape[0], model.config.noise_dim), dtype=DTYPE)
    raw, _ = nn.forward(model.generator, np.concatenate([noise, cond], axis=1))
    vec, _ = _output_transform(raw, model, rng=rng, hard=True)
    return vec


def _decode_rows(model, vectors):
    cols = vectors[:, : model.transformer.total_dim]
    return model.transformer.decode_matrix(cols.astype(np.float64))


def _generated_label_ids(model, vectors):
    label_group = vectors[:, model.transformer.total_dim :]
    return np.argmax(label_group, axis=1)


def sample_unconditional(model, n, seed=0):
    """n rows with conditions drawn from the empirical class distribution.

    Returns a list of (RawRecord, class id); the class is the condition.
    """
    rng = np.random.default_rng(seed)
    if n == 0:
        return []
    conditions = rng.choice(N_CLASSES, size=n, p=model.class_distribution)
    out = []
    for start in range(0, n, 2000):
        chunk = conditions[start : start + 2000]
        vectors = _generate_hard(model, chunk, rng)
        out.extend(zip(_decode_rows(model, vectors), chunk.tolist()))
    return out


def sample_conditional(model, target_class, n, seed=0, attempt_factor=50):
    """n rows (as Records) for one class via rejection on the generated label group."""
    rng = np.random.default_rng(seed)
    kept = np.zeros((0, model.record_dim), DTYPE)
    attempts = 0
    cap = attempt_factor * max(n, 1)
    while len(kept) < n:
        want = n - len(kept)
        batch = min(max(2 * want, 200), cap - attempts)
        if batch <= 0:
            break
        ids = np.full(batch, target_class)
        vectors = _generate_hard(model, ids, rng)
        attempts += batch
        accept = _generated_label_ids(model, vectors) == target_class
        kept = np.concatenate([kept, vectors[accept][:want]])
        if len(kept) < n and attempts >= cap:
            raise SamplingStarvationError(
                f"conditional sampling starved for class {CLASS_NAMES[target_class]}: "
                f"{len(kept)}/{n} rows after {attempts} attempts"
            )
    return _decode_rows(model, kept)


_EXPORT_ROWS = 8192  # rows formatted per write: bounds the text held at once


def export_synthetic(rows, path):
    """Write (RawRecord, class id) rows as NSL-KDD-format CSV, formatting a
    block of rows a column at a time.

    The constant num_outbound_cmds column is re-inserted as 0 so the file
    has the standard 41 feature columns; the label slot holds the class
    symbol (re-parse maps symbols directly).
    """
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(rows), _EXPORT_ROWS):
            block = rows[start : start + _EXPORT_ROWS]
            # categories as they are, integral floats as str(int(v)), others as f"{v:.6g}"
            columns = [col.tolist() if col.dtype == object else
                       [str(int(v)) if v.is_integer() else f"{v:.6g}" for v in col.tolist()]
                       for col in Records.from_rows(r for r, _ in block).columns]
            columns.insert(_F20_RAW_INDEX, ["0"] * len(block))
            columns.append([CLASS_SYMBOLS[label] for _, label in block])
            fh.write("".join(f"{line}\n" for line in map(",".join, zip(*columns))))
