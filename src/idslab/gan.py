"""Conditional tabular WGAN with weight clipping.

The class is the condition, and the condition is the label (Mirza &
Osindero 2014; CTGAN's training-by-sampling, Xu et al. 2019): the
generator takes noise plus a one-hot condition and emits only the encoded
record, and the critic judges a record next to its condition.  One model
covers both sampling modes: unconditional sampling draws the conditions
from the training class shares, conditional sampling fixes them, and every
generated row keeps the class it was generated under.

Continuous outputs go through a sigmoid, categorical groups through
straight-through Gumbel-softmax: the critic, like the sampler, sees the
one-hot Gumbel-max draw, and the generator's gradient flows through the
softmax relaxation.  Both networks train with RMSProp; critic weights are
clipped to +/-weight_clip after every critic step.

`sample` yields chunks of columns (a Records) and their int64 class ids;
`export_synthetic` writes one such block to an open file, each id as its class symbol.

Both nets train and sample in float32 (`DTYPE`), as WGANs usually are: their
matmuls, most of training, run about twice as fast as in float64.  Decoded
rows go back to float64, the codec's dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .dataset import CLASS_SYMBOLS, N_CLASSES, Records, Transformer, _F20_RAW_INDEX, as_records

__all__ = [
    "GanConfig",
    "GanModel",
    "train_gan",
    "sample",
    "sample_unconditional",
    "sample_conditional",
    "export_synthetic",
]

DTYPE = np.float32  # of both nets, their inputs and their noise


@dataclass(frozen=True)
class GanConfig:
    epochs: int = 30
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
        object.__setattr__(self, "hidden", tuple(self.hidden))  # JSON gives lists: (32,) != [32]


@dataclass
class GanModel:
    generator: nn.DenseNet  # input noise_dim + 5 condition slots, linear output per record slot
    critic: nn.DenseNet  # input total_dim record slots + 5 condition slots, scalar output
    transformer: Transformer
    class_distribution: np.ndarray  # empirical training class shares
    config: GanConfig

    def save(self, path):
        meta = {
            "transformer": self.transformer.to_json(),
            "class_distribution": self.class_distribution.tolist(),
            "config": self.config.__dict__,
        }
        nn.save_checkpoint({"generator": self.generator, "critic": self.critic}, path, meta)

    @classmethod
    def load(cls, path):
        """Read a `save` file.  A file whose nets do not fit its transformer's
        record width (the layout with generated label slots) is a ValueError."""
        nets, meta = nn.load_checkpoint(path, ("generator", "critic"))
        transformer = Transformer.from_json(meta["transformer"])
        found = (nets["generator"].out_dim, nets["critic"].in_dim)
        expected = (transformer.total_dim, transformer.total_dim + N_CLASSES)
        if found != expected:
            raise ValueError(
                f"{path}: generator output / critic input widths are {found[0]} / {found[1]}, "
                f"expected {expected[0]} / {expected[1]}; the checkpoint predates the "
                f"current GAN layout, re-run gan-train"
            )
        return cls(
            generator=nets["generator"],
            critic=nets["critic"],
            transformer=transformer,
            class_distribution=np.array(meta["class_distribution"]),
            config=GanConfig(**meta["config"]),
        )


def _build_model(transformer, class_distribution, config):
    generator = nn.init_net(
        [config.noise_dim + N_CLASSES, *config.hidden, transformer.total_dim],
        ["relu"] * len(config.hidden) + ["linear"],
        seed=config.seed,
    )
    critic = nn.init_net(
        [transformer.total_dim + N_CLASSES, *config.hidden, 1],
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


def _output_transform(raw, model, rng, out=None):
    """Map the generator's linear output to record vectors in `out` (default new).

    Continuous slots go through a sigmoid.  Each categorical group is one
    Gumbel-max draw, the one-hot argmax of its logits plus Gumbel noise
    (computed in float64, then cast: a uniform draw rounded to float32 can be
    1.0, whose noise is infinite).  So the critic sees one-hot groups, as in
    real and sampled rows, and cannot tell fakes by their softness; the
    gradient flows through the tau-softmax of the same perturbed logits
    (straight-through Gumbel-softmax, Jang et al. 2017), which only
    _output_backward computes.  Returns (vectors, cache), cache backing it.
    """
    out = np.empty_like(raw) if out is None else out
    cont = model.transformer.continuous_indices()
    sig = 1.0 / (1.0 + np.exp(-raw[:, cont]))
    out[:, cont] = sig
    groups = [sl for _, sl in model.transformer.group_slices()]
    perturbed = np.empty_like(raw)  # continuous slots unused
    for sl in groups:
        logits = raw[:, sl]
        gumbel = -np.log(-np.log(rng.uniform(1e-12, 1.0, size=logits.shape))).astype(raw.dtype)
        np.add(logits, gumbel, out=perturbed[:, sl])
        out[:, sl] = nn.one_hot(np.argmax(perturbed[:, sl], axis=1), logits.shape[1], raw.dtype)
    return out, (cont, groups, sig, perturbed)


def _output_backward(grad_out, cache, tau):
    """Gradient through sigmoid / Gumbel-softmax back to the linear output."""
    cont, groups, sig, perturbed = cache
    grad_raw = np.zeros_like(grad_out)
    grad_raw[:, cont] = grad_out[:, cont] * sig * (1.0 - sig)
    for sl in groups:
        probs = nn.softmax(perturbed[:, sl] / tau)
        grad_raw[:, sl] = nn.softmax_backward(probs, grad_out[:, sl]) / tau
    return grad_raw


def _generate(model, x, rng, out=None, buffers=None):
    """Record vectors generated from x = [noise | one-hot conditions], whose
    noise columns are drawn here, with the tape and cache the generator step
    backs through; train_gan reuses its `x`, `out` and `buffers`."""
    nd = model.config.noise_dim
    x[:, :nd] = rng.standard_normal((len(x), nd), dtype=DTYPE)
    raw, tape = nn.forward(model.generator, x, buffers)
    fake, cache = _output_transform(raw, model, rng, out)
    return fake, tape, cache


def _critic_loss_and_grads(critic, batch, grad, buffers=None, scratch=None):
    """WGAN critic loss mean(critic(fake)) - mean(critic(real)) from one pass over
    batch = [fake; real | cond; cond]; its parameter gradients go into `grad`."""
    m = len(batch) // 2
    scores, tape = nn.forward(critic, batch, buffers)
    loss = float(scores[:m].mean() - scores[m:].mean())
    upstream = np.concatenate([np.full((m, 1), 1.0 / m), np.full((m, 1), -1.0 / m)])
    nn.backward(critic, tape, upstream, grad, inputs=False, scratch=scratch)
    return loss


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
    real = data.matrix.astype(DTYPE)

    gen, crit = model.generator, model.critic
    gen_grad, crit_grad = (nn.pack(net, np.empty_like(net.params)) for net in (gen, crit))
    gen_opt = nn.OptState.for_net(gen, "rmsprop", config.learning_rate)
    crit_opt = nn.OptState.for_net(crit, "rmsprop", config.learning_rate)
    # every step has the same shapes, so its arrays are allocated once
    m, nd, d = config.batch_size, config.noise_dim, transformer.total_dim
    gen_x = np.empty((m, nd + N_CLASSES), DTYPE)  # [noise | cond]
    crit_x = np.empty((2 * m, d + N_CLASSES), DTYPE)  # [fake; real | cond; cond]
    gen_buf, crit_buf = ([np.empty((rows, w.shape[1]), DTYPE) for w in net.weights]
                         for net, rows in ((gen, m), (crit, 2 * m)))
    width = max(max(w.shape) for net in (gen, crit) for w in net.weights)
    scratch = np.empty((3, 2 * m * width), DTYPE)  # nn.backward's: rows x widest layer
    rng = np.random.default_rng(config.seed)
    history = []
    steps_per_epoch = max(1, len(data) // m)
    step = 0
    with nn.one_blas_thread():  # else the critic's large-K dW rounds by the thread count
        for _ in range(config.epochs):
            for _ in range(steps_per_epoch):
                # training-by-sampling: one condition class per minibatch
                c = int(rng.integers(0, N_CLASSES))
                gen_x[:, nd:] = crit_x[:, d:] = nn.one_hot(c, N_CLASSES, DTYPE)
                critic_loss = 0.0
                for _ in range(config.critic_steps):
                    idx = rng.choice(class_rows[c], size=m, replace=True)
                    _generate(model, gen_x, rng, crit_x[:m, :d], gen_buf)
                    np.take(real, idx, axis=0, out=crit_x[m:, :d])
                    critic_loss = _critic_loss_and_grads(crit, crit_x, crit_grad, crit_buf, scratch)
                    _check_finite("critic", critic_loss, step)
                    nn.update_params(crit.params, crit_grad.params, crit_opt)
                    np.clip(crit.params, -config.weight_clip, config.weight_clip, out=crit.params)
                # generator step: minimize -mean(critic(fake))
                _, gen_tape, cache = _generate(model, gen_x, rng, crit_x[:m, :d], gen_buf)
                score, tape = nn.forward(crit, crit_x[:m], crit_buf)
                gen_loss = float(-score.mean())
                _check_finite("generator", gen_loss, step)
                grad_in = nn.backward(crit, tape, np.full((m, 1), -1.0 / m), scratch=scratch)
                grad_fake = grad_in[:, :d]  # condition slots carry no gradient
                grad_raw = _output_backward(grad_fake, cache, config.gumbel_temperature)
                nn.backward(gen, gen_tape, grad_raw, gen_grad, inputs=False, scratch=scratch)
                nn.update_params(gen.params, gen_grad.params, gen_opt)
                history.append((step, critic_loss, gen_loss))
                step += 1
    return model, history


def _generate_hard(model, condition_ids, rng):
    """Sampled record vectors, one per condition id."""
    cond = nn.one_hot(condition_ids, N_CLASSES, DTYPE)
    x = np.concatenate([np.empty((len(cond), model.config.noise_dim), DTYPE), cond], axis=1)
    return _generate(model, x, rng)[0]


_SAMPLE_ROWS = 2000  # rows per generator forward when sampling


def sample(model, n, seed=0, target_class=None):
    """Yield n rows as (Records, int64 class ids) chunks of at most _SAMPLE_ROWS rows, each
    generated under its id: target_class, else drawn from the training class shares.  Each
    chunk is generated on one BLAS thread and decoded in float64 (the codec's dtype)."""
    rng = np.random.default_rng(seed)
    ids = (rng.choice(N_CLASSES, size=n, p=model.class_distribution) if target_class is None
           else np.full(n, target_class, dtype=np.int64))
    for start in range(0, n, _SAMPLE_ROWS):
        chunk_ids = ids[start : start + _SAMPLE_ROWS]
        with nn.one_blas_thread():
            vectors = _generate_hard(model, chunk_ids, rng)
        yield model.transformer.decode_matrix(vectors.astype(np.float64)), chunk_ids


def sample_unconditional(model, n, seed=0):
    """`sample`'s rows as a list of (RawRecord, class id)."""
    return [(record, int(c)) for chunk in sample(model, n, seed) for record, c in zip(*chunk)]


def sample_conditional(model, target_class, n, seed=0):
    """n rows (as Records) generated under the condition target_class, their label."""
    return Records.concat(records for records, _ in sample(model, n, seed, target_class))


def export_synthetic(records, labels, fh):
    """Write records (a Records or RawRecord rows) and their class ids to the open text
    file fh as NSL-KDD-format CSV lines, formatted a column at a time.

    The constant num_outbound_cmds column is re-inserted as 0 so the file
    has the standard 41 feature columns; the label slot holds the class
    symbol (re-parse maps symbols directly).
    """
    symbols = np.array(CLASS_SYMBOLS, dtype=object)[np.asarray(labels, dtype=np.int64)]
    # categories as they are, integral floats as str(int(v)), others as f"{v:.6g}"
    columns = [col.tolist() if col.dtype == object else
               [str(int(v)) if v.is_integer() else f"{v:.6g}" for v in col.tolist()]
               for col in as_records(records).columns]
    columns.insert(_F20_RAW_INDEX, ["0"] * len(columns[0]))
    columns.append(symbols.tolist())
    fh.write("".join(f"{line}\n" for line in map(",".join, zip(*columns))))
