"""Dense feed-forward networks with manual backpropagation.

Shared numeric kernel for the GAN, the PPO agent, and the MLP/logistic
baselines.  Everything is float64 and deterministic per seed; a net's
weights and biases are views into one parameter vector, and one checkpoint
format stores any named set of nets bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseNet",
    "OptState",
    "init_net",
    "forward",
    "backward",
    "opt_step",
    "clip_global_norm",
    "softmax",
    "softmax_backward",
    "one_hot",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("relu", "leaky_relu", "sigmoid", "tanh", "linear", "softmax")
LEAKY_SLOPE = 0.2
CHECKPOINT_VERSION = 2


def softmax(z):
    """Softmax over the last axis, shifted by the row max for stability."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(out, grad):
    """Gradient w.r.t. the logits of softmax output `out`: s * (g - <g, s>)."""
    inner = (grad * out).sum(axis=-1, keepdims=True)
    return out * (grad - inner)


def one_hot(ids, k):
    """Rows of k float slots with a 1 at each id."""
    n = np.size(ids)
    out = np.zeros((n, k))
    out[np.arange(n), ids] = 1.0
    return out


def _act_forward(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "leaky_relu":
        return np.where(z > 0.0, z, LEAKY_SLOPE * z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "tanh":
        return np.tanh(z)
    if name == "linear":
        return z
    if name == "softmax":
        return softmax(z)
    raise ValueError(f"unknown activation: {name!r}")


def _act_backward(name, out, grad):
    """Gradient w.r.t. the pre-activation, given the activation output and the
    grad w.r.t. it (for relu and leaky_relu, out > 0 exactly where z > 0)."""
    if name == "relu":
        return grad * (out > 0.0)
    if name == "leaky_relu":
        return grad * np.where(out > 0.0, 1.0, LEAKY_SLOPE)
    if name == "sigmoid":
        return grad * out * (1.0 - out)
    if name == "tanh":
        return grad * (1.0 - out * out)
    if name == "linear":
        return grad
    if name == "softmax":
        return softmax_backward(out, grad)
    raise ValueError(f"unknown activation: {name!r}")


@dataclass
class DenseNet:
    params: np.ndarray  # every parameter, layer by layer: w0, b0, w1, b1, ...
    weights: list  # per layer: (in_dim, out_dim) view into params
    biases: list  # per layer: (out_dim,) view into params
    activations: list  # per layer name

    @property
    def n_layers(self):
        return len(self.weights)

    @property
    def in_dim(self):
        return self.weights[0].shape[0]

    @property
    def out_dim(self):
        return self.weights[-1].shape[1]


def _pack(weights, biases, activations):
    """A DenseNet holding copies of the given arrays as views into one vector."""
    arrays = [a for w, b in zip(weights, biases) for a in (w, b)]
    params = np.concatenate([a.ravel() for a in arrays])
    bounds = np.cumsum([a.size for a in arrays])[:-1]
    views = [part.reshape(a.shape) for part, a in zip(np.split(params, bounds), arrays)]
    return DenseNet(params, views[0::2], views[1::2], list(activations))


def init_net(layer_sizes, activations, seed):
    """He init for relu-family layers, Xavier for the rest; seeded."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if len(activations) != len(layer_sizes) - 1:
        raise ValueError("one activation per layer required")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError("layer sizes must be positive")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out, act in zip(layer_sizes, layer_sizes[1:], activations):
        if act not in ACTIVATIONS:
            raise ValueError(f"unknown activation: {act!r}")
        if act in ("relu", "leaky_relu"):
            std = np.sqrt(2.0 / fan_in)
        else:
            std = np.sqrt(1.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return _pack(weights, biases, activations)


def forward(net, batch):
    """Run the net; returns (outputs, tape), the tape holding each layer's
    (input, output) for backward()."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"input must be a 2-D batch, got {x.ndim}-D")
    if x.shape[1] != net.in_dim:
        raise ValueError(f"input dim {x.shape[1]} != net input {net.in_dim}")
    tape = []
    for w, b, act in zip(net.weights, net.biases, net.activations):
        out = _act_forward(act, x @ w + b)
        tape.append((x, out))
        x = out
    return x, tape


def backward(net, tape, output_gradient):
    """Backprop an upstream gradient; returns (param_grads, input_grad).

    param_grads is a list of (dW, db) per layer.  The input gradient is
    needed when chaining nets (generator through critic, trunk through heads).
    """
    grad = np.asarray(output_gradient, dtype=np.float64)
    param_grads = [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        x, out = tape[i]
        if grad.shape != out.shape:
            raise ValueError(f"gradient shape {grad.shape} != layer output {out.shape}")
        dz = _act_backward(net.activations[i], out, grad)
        param_grads[i] = (x.T @ dz, dz.sum(axis=0))
        grad = dz @ net.weights[i].T
    return param_grads, grad


@dataclass
class OptState:
    algo: str  # "adam" or "rmsprop"
    lr: float
    m: np.ndarray = None  # adam first moments, one per entry of net.params
    v: np.ndarray = None  # second moments
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    decay: float = 0.9  # rmsprop
    eps: float = 1e-8

    @classmethod
    def for_net(cls, net, algo, lr):
        if algo not in ("adam", "rmsprop"):
            raise ValueError(f"unknown optimizer: {algo!r}")
        return cls(algo=algo, lr=lr, m=np.zeros_like(net.params), v=np.zeros_like(net.params))


def opt_step(net, param_grads, state):
    """Apply one in-place update to net.params from backward()'s (dW, db) list."""
    state.t += 1
    grad = np.concatenate([g.ravel() for pair in param_grads for g in pair])
    m, v = state.m, state.v
    if state.algo == "adam":
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad * grad
        mhat = m / (1.0 - state.beta1**state.t)
        vhat = v / (1.0 - state.beta2**state.t)
        net.params -= state.lr * mhat / (np.sqrt(vhat) + state.eps)
    else:  # rmsprop
        v *= state.decay
        v += (1.0 - state.decay) * grad * grad
        net.params -= state.lr * grad / (np.sqrt(v) + state.eps)


def clip_global_norm(grad_lists, max_norm):
    """Scale a collection of per-net gradient lists to a global norm cap."""
    total = 0.0
    for grads in grad_lists:
        for dw, db in grads:
            total += float((dw * dw).sum()) + float((db * db).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for grads in grad_lists:
            for dw, db in grads:
                dw *= scale
                db *= scale
    return norm


def save_checkpoint(nets, path, meta=None):
    """Write named nets and a JSON-able meta block to one npz file.

    Layer i of net `name` is stored as arrays `{name}_w{i}` / `{name}_b{i}`;
    a uint8 JSON header holds the version, each net's activations and the
    meta.  The round trip through load_checkpoint is bit-exact.
    """
    arrays = {}
    for name, net in nets.items():
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"{name}_w{i}"] = w
            arrays[f"{name}_b{i}"] = b
    header = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "nets": {name: net.activations for name, net in nets.items()},
            "meta": meta or {},
        }
    )
    np.savez(path, header=np.frombuffer(header.encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path):
    """Read a save_checkpoint file; returns (nets by name, meta)."""
    with np.load(path) as z:
        header = json.loads(bytes(z["header"]).decode())
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {header.get('version')}")
        nets = {
            name: _pack(
                [z[f"{name}_w{i}"] for i in range(len(acts))],
                [z[f"{name}_b{i}"] for i in range(len(acts))],
                acts,
            )
            for name, acts in header["nets"].items()
        }
    return nets, header["meta"]
