import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

from idslab import agent
from idslab import dataset as ds
from idslab import nn

# Attack names per class used by the surrogate corpus (subset of the real map).
SURROGATE_ATTACKS = {
    0: ["normal"],
    1: ["neptune", "smurf", "back"],
    2: ["satan", "ipsweep", "nmap"],
    3: ["guess_passwd", "warezmaster"],
    4: ["buffer_overflow", "rootkit"],
}

SERVICES = ["http", "smtp", "ftp", "ftp_data", "telnet", "domain_u", "ecr_i", "private", "other"]
FLAGS = ["SF", "S0", "REJ", "RSTO", "SH"]
PROTOCOLS = ["tcp", "udp", "icmp"]

# class id -> (service weights over SERVICES, flag weights, protocol weights)
_CLASS_PROFILE = {
    0: ([6, 3, 2, 2, 1, 2, 0.2, 1, 1], [8, 0.5, 0.5, 0.2, 0.1], [6, 3, 1]),
    1: ([1, 0.3, 0.2, 0.2, 0.1, 0.2, 5, 4, 1], [1, 7, 1.5, 0.5, 0.2], [5, 1, 4]),
    2: ([1, 0.5, 0.5, 0.5, 0.3, 1, 2, 6, 2], [2, 2, 4, 1, 2], [4, 2, 3]),
    3: ([2, 2, 4, 3, 3, 0.5, 0.1, 1, 1], [6, 0.5, 1, 1.5, 0.3], [8, 1, 0.2]),
    4: ([3, 1, 2, 1, 5, 0.3, 0.1, 1, 1], [7, 0.3, 0.5, 1, 0.5], [9, 0.5, 0.1]),
}

# class id -> means for (duration, src_bytes, dst_bytes, count, srv_count,
# serror_rate, same_srv_rate, dst_host_count)
_CLASS_MEANS = {
    0: (10, 300, 2000, 8, 8, 0.02, 0.9, 80),
    1: (0, 1000, 0, 300, 250, 0.9, 0.05, 255),
    2: (2, 20, 10, 30, 5, 0.3, 0.3, 150),
    3: (60, 150, 500, 2, 2, 0.05, 0.8, 20),
    4: (150, 500, 3000, 1, 1, 0.02, 0.95, 5),
}


def _weighted_choice(rng, items, weights):
    w = np.asarray(weights, dtype=np.float64)
    return items[rng.choice(len(items), p=w / w.sum())]


def make_surrogate_line(rng, class_id, with_difficulty=True):
    """One NSL-KDD-format line (43 fields) for the given class."""
    services_w, flags_w, protos_w = _CLASS_PROFILE[class_id]
    dur, sb, db, cnt, srv, serr, same, dhc = _CLASS_MEANS[class_id]
    fields = ["0"] * 41
    fields[0] = str(max(0, int(rng.normal(dur, dur * 0.5 + 1))))
    fields[1] = _weighted_choice(rng, PROTOCOLS, protos_w)
    fields[2] = _weighted_choice(rng, SERVICES, services_w)
    fields[3] = _weighted_choice(rng, FLAGS, flags_w)
    fields[4] = str(max(0, int(rng.normal(sb, sb * 0.4 + 1))))
    fields[5] = str(max(0, int(rng.normal(db, db * 0.4 + 1))))
    fields[11] = str(int(rng.random() < (0.7 if class_id == 0 else 0.2)))  # logged_in
    fields[22] = str(max(0, int(rng.normal(cnt, cnt * 0.3 + 1))))  # count
    fields[23] = str(max(0, int(rng.normal(srv, srv * 0.3 + 1))))  # srv_count
    fields[24] = f"{np.clip(rng.normal(serr, 0.08), 0, 1):.2f}"  # serror_rate
    fields[28] = f"{np.clip(rng.normal(same, 0.1), 0, 1):.2f}"  # same_srv_rate
    fields[31] = str(max(0, int(rng.normal(dhc, 20))))  # dst_host_count
    fields[33] = f"{np.clip(rng.normal(same, 0.1), 0, 1):.2f}"  # dst_host_same_srv_rate
    attack = _weighted_choice(rng, SURROGATE_ATTACKS[class_id], [1] * len(SURROGATE_ATTACKS[class_id]))
    fields.append(attack)
    if with_difficulty:
        fields.append(str(int(rng.integers(0, 22))))
    return ",".join(fields)


def make_surrogate_records(n, seed=0, class_weights=(0.53, 0.30, 0.10, 0.06, 0.01)):
    rng = np.random.default_rng(seed)
    classes = rng.choice(5, size=n, p=np.asarray(class_weights) / np.sum(class_weights))
    lines = [make_surrogate_line(rng, int(c)) for c in classes]
    records = ds.parse_kdd(lines)
    labels = ds.labels_for(records)
    return records, labels


def reference_logreg(X, y, k, l2=1e-4, epochs=300, lr=1e-2, seed=0):
    """The one-fit softmax-regression loop `train_logreg` ran before the
    fold kernel: (n, k) logits, full-batch Adam through `nn.update_params`."""
    n, d = X.shape
    net = nn.init_net([d, k], ["linear"], seed=seed)
    opt = nn.OptState.for_net(net, "adam", lr)
    Y = nn.one_hot(y, k)
    for _ in range(epochs):
        logits = X @ net.weights[0] + net.biases[0]
        probs = nn.softmax(logits)
        dlogits = (probs - Y) / n
        grads = [(X.T @ dlogits + l2 * net.weights[0], dlogits.sum(axis=0))]
        nn.update_params(net.params, flatten(grads), opt)
    return net


# --- the dense kernels before in-place activations, kept as oracles ----------

def reference_act_forward(name, z):
    """`nn._act_forward` with a fresh array per activation and np.where leaky-ReLU."""
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "leaky_relu":
        return np.where(z > 0.0, z, nn.LEAKY_SLOPE * z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "linear":
        return z
    if name == "softmax":
        return nn.softmax(z)
    raise ValueError(f"unknown activation: {name!r}")


def reference_act_backward(name, out, grad):
    """`nn._act_backward` returning a fresh array, np.where leaky-ReLU slope in out's dtype."""
    if name == "relu":
        return grad * (out > 0.0)
    if name == "leaky_relu":
        return grad * np.where(out > 0.0, 1.0, nn.LEAKY_SLOPE).astype(out.dtype)
    if name == "sigmoid":
        return grad * out * (1.0 - out)
    if name == "linear":
        return grad
    if name == "softmax":
        return nn.softmax_backward(out, grad)
    raise ValueError(f"unknown activation: {name!r}")


def reference_forward(net, batch, buffers=None):
    """`nn.forward` computing each layer as act(x @ w + b) out of place (in new
    arrays, whatever `buffers` is given)."""
    x = np.asarray(batch, dtype=net.params.dtype)
    if x.ndim != 2:
        raise ValueError(f"input must be a 2-D batch, got {x.ndim}-D")
    if x.shape[1] != net.in_dim:
        raise ValueError(f"input dim {x.shape[1]} != net input {net.in_dim}")
    tape = []
    for w, b, act in zip(net.weights, net.biases, net.activations):
        out = reference_act_forward(act, x @ w + b)
        tape.append((x, out))
        x = out
    return x, tape


def reference_backward(net, tape, output_gradient):
    """`nn.backward` returning fresh arrays: each layer's (dW, db) and the input gradient."""
    grad = np.asarray(output_gradient, dtype=net.params.dtype)
    param_grads = [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        x, out = tape[i]
        if grad.shape != out.shape:
            raise ValueError(f"gradient shape {grad.shape} != layer output {out.shape}")
        dz = reference_act_backward(net.activations[i], out, grad)
        param_grads[i] = (x.T @ dz, dz.sum(axis=0))
        grad = dz @ net.weights[i].T
    return param_grads, grad


def flatten(pairs):
    """One vector of (dW, db) pairs in params order, as a gradient net lays them out."""
    return np.concatenate([a.ravel() for pair in pairs for a in pair])


def backward_pairs(net, tape, upstream, *, inputs=True):
    """`nn.backward` into a fresh gradient net; returns its (dW, db) views per
    layer and the input gradient."""
    grad = nn.pack(net, np.empty_like(net.params))
    grad_in = nn.backward(net, tape, upstream, grad, inputs=inputs)
    return list(zip(grad.weights, grad.biases)), grad_in


def reference_clip_global_norm(grad_lists, max_norm):
    """`nn.clip_global_norm` on per-net lists of (dW, db) pairs: the norm of all of
    them flattened in params order (einsum's sum, as nn's), then each array scaled
    in place above the cap."""
    flat = np.concatenate([flatten(grads) for grads in grad_lists])
    norm = np.sqrt(np.einsum("i,i", flat, flat))
    if norm > max_norm:
        scale = max_norm / norm
        for grads in grad_lists:
            for dw, db in grads:
                dw *= scale
                db *= scale
    return norm


def reference_update_params(params, grad, state):
    """`nn.update_params` as the textbook expressions, a fresh array per term."""
    state.t += 1
    m, v = state.m, state.v
    if state.algo == "adam":
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad * grad
        mhat = m / (1.0 - state.beta1**state.t)
        vhat = v / (1.0 - state.beta2**state.t)
        params -= state.lr * mhat / (np.sqrt(vhat) + state.eps)
    else:  # rmsprop
        v *= state.decay
        v += (1.0 - state.decay) * grad * grad
        params -= state.lr * grad / (np.sqrt(v) + state.eps)


def reference_ppo_loss_and_grads(policy, batch, config):
    """`agent.ppo_loss_and_grads` before the fused kernel: the loss through
    `PolicyNet.forward`'s tapes and the three nets' gradients through `nn.backward`."""
    states = batch["states"]
    actions = batch["actions"]
    old_logp = batch["log_probs"]
    adv = batch["advantages"]
    returns = batch["returns"]
    m = actions.size

    probs, values, (trunk_tape, policy_tape, value_tape) = policy.forward(states)
    p_clamped = np.maximum(probs, agent._LOGP_FLOOR)
    logp_all = np.log(p_clamped)
    logp = logp_all[np.arange(m), actions]
    ratio = np.exp(logp - old_logp)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon) * adv
    surrogate = np.minimum(unclipped, clipped)
    entropy = -(probs * logp_all).sum(axis=1)
    value_err = values - returns

    policy_loss = -float(surrogate.mean())
    value_loss = float((value_err**2).mean())
    entropy_mean = float(entropy.mean())
    loss = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy_mean

    g_probs = config.entropy_coef * (logp_all + 1.0) / m
    use_unclipped = unclipped <= clipped
    coeff = -(use_unclipped * ratio * adv) / m
    g_probs = np.array(g_probs)
    g_probs[np.arange(m), actions] += coeff / p_clamped[np.arange(m), actions]

    g_values = (2.0 * config.value_coef * value_err / m)[:, None]

    policy_grads, g_h_policy = backward_pairs(policy.policy_head, policy_tape, g_probs)
    value_grads, g_h_value = backward_pairs(policy.value_head, value_tape, g_values)
    trunk_grads, _ = backward_pairs(policy.trunk, trunk_tape, g_h_policy + g_h_value, inputs=False)

    stats = {
        "loss": loss,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy_mean,
        "clip_fraction": float((~use_unclipped).mean()),
        "approx_kl": float((old_logp - logp).mean()),
    }
    return loss, (trunk_grads, policy_grads, value_grads), stats


# --- the per-row record path the column codec replaced, kept as oracles ------

def reference_parse(stream):
    """The per-row `parse_kdd`: one RawRecord per non-blank line."""
    records = []
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) == 43:
            *feat, attack, difficulty = fields
        elif len(fields) == 42:
            *feat, attack = fields
            difficulty = "0"
        else:
            raise ds.ParseError(f"line {line_no}: expected 42 or 43 fields, got {len(fields)}")
        del feat[ds._F20_RAW_INDEX]
        try:
            diff = int(difficulty)
        except ValueError:
            raise ds.ParseError(f"line {line_no}: non-integer difficulty {difficulty!r}") from None
        values = []
        for spec, raw in zip(ds.FEATURE_SCHEMA, feat):
            if spec.kind == ds.CATEGORICAL:
                values.append(raw)
            else:
                try:
                    values.append(float(raw))
                except ValueError:
                    raise ds.ParseError(
                        f"line {line_no}: non-numeric value {raw!r} in field {spec.name}"
                    ) from None
        records.append(ds.RawRecord(values=tuple(values), attack_name=attack, difficulty=diff))
    return records


def reference_encode(t, record):
    """The per-row `Transformer.encode` of one record."""
    vec = np.zeros(t.total_dim, dtype=np.float64)
    for (spec, off, width, ci), value in zip(t._layout, record.values):
        if spec.kind == ds.CONTINUOUS:
            x = float(value)
            if spec.log_scaled:
                x = math.log1p(x)
            lo, hi = t.mins[ci], t.maxs[ci]
            if hi > lo:
                vec[off] = min(max((x - lo) / (hi - lo), 0.0), 1.0)
        else:
            try:
                vec[off + spec.categories.index(value)] = 1.0
            except ValueError:
                pass
    return vec


def reference_encode_matrix(t, records):
    return np.stack([reference_encode(t, r) for r in records])


def reference_decode(t, vector):
    """The per-row `Transformer.decode` of one vector: its feature values."""
    values = []
    for spec, off, width, ci in t._layout:
        if spec.kind == ds.CONTINUOUS:
            lo, hi = t.mins[ci], t.maxs[ci]
            x = lo + float(vector[off]) * (hi - lo)
            if spec.log_scaled:
                x = math.expm1(x)
            if spec.integer:
                x = float(round(x))
            values.append(x)
        else:
            group = np.asarray(vector[off : off + width])
            if not np.any(group > 0):
                raise ds.DecodeError(f"all-zero one-hot group for feature {spec.name}")
            values.append(spec.categories[int(np.argmax(group))])
    return tuple(values)


def reference_format_value(value):
    """The per-value export text of `export_synthetic`."""
    if isinstance(value, float):
        if value.is_integer():
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def reference_export_text(rows):
    """The text the per-row `export_synthetic` wrote for (record, class id) rows."""
    lines = []
    for record, label in rows:
        fields = [reference_format_value(v) for v in record.values]
        fields.insert(ds._F20_RAW_INDEX, "0")
        fields.append(ds.CLASS_SYMBOLS[label])
        lines.append(",".join(fields) + "\n")
    return "".join(lines)


def save_old_layout_gan(model, path):
    """Save `model` as a gan_model.npz of the layout from before the class
    condition became the label: float64 nets whose generator also emits 5 label
    slots and whose critic also reads them."""
    width, hidden = model.transformer.total_dim, list(model.config.hidden)
    generator = nn.init_net([model.generator.in_dim, *hidden, width + ds.N_CLASSES],
                            model.generator.activations, seed=0)
    critic = nn.init_net([width + 2 * ds.N_CLASSES, *hidden, 1], model.critic.activations, seed=1)
    dataclasses.replace(model, generator=generator, critic=critic).save(path)


def write_surrogate_files(dirpath, n_train=2000, n_test=600, seed=0):
    dirpath = Path(dirpath)
    rng = np.random.default_rng(seed)
    paths = {}
    for name, n, sub in (("KDDTrain+.txt", n_train, 1), ("KDDTest+.txt", n_test, 2)):
        sub_rng = np.random.default_rng(seed + sub)
        classes = sub_rng.choice(5, size=n, p=[0.53, 0.30, 0.10, 0.06, 0.01])
        lines = [make_surrogate_line(sub_rng, int(c)) for c in classes]
        path = dirpath / name
        path.write_text("\n".join(lines) + "\n")
        paths[name] = path
    return paths


@pytest.fixture(scope="session")
def surrogate_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("surrogate")
    paths = write_surrogate_files(root)
    return root, paths


def real_data_dir():
    """Directory holding real KDDTrain+.txt / KDDTest+.txt, if any."""
    candidates = []
    if os.environ.get("IDSLAB_DATA_DIR"):
        candidates.append(Path(os.environ["IDSLAB_DATA_DIR"]))
    candidates += [Path("data"), Path("/root/data/nsl-kdd")]
    for cand in candidates:
        if (cand / "KDDTrain+.txt").exists() and (cand / "KDDTest+.txt").exists():
            return cand
    return None


requires_real_data = pytest.mark.skipif(
    real_data_dir() is None,
    reason="real NSL-KDD files not available (set IDSLAB_DATA_DIR)",
)


@pytest.fixture(scope="session")
def real_data():
    root = real_data_dir()
    if root is None:
        pytest.skip("real NSL-KDD files not available (set IDSLAB_DATA_DIR)")
    train = ds.parse_kdd_file(root / "KDDTrain+.txt")
    test = ds.parse_kdd_file(root / "KDDTest+.txt")
    return train, test
