"""Dense feed-forward networks with manual backpropagation.

Shared numeric kernel for the GAN, the PPO agent, and the MLP/logistic
baselines.  Each kernel computes in the dtype of the net it is given: the
GAN's nets are float32, the rest float64.  All is deterministic per seed; a
net's weights and biases are views into one parameter vector, and so are its
gradient's (a gradient net that `backward` writes into).  One checkpoint
format stores any named set of nets bit-exactly.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseNet",
    "OptState",
    "pack",
    "init_net",
    "forward",
    "backward",
    "update_params",
    "clip_global_norm",
    "softmax",
    "softmax_backward",
    "one_hot",
    "one_blas_thread",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("relu", "leaky_relu", "sigmoid", "linear", "softmax")
LEAKY_SLOPE = 0.2
CHECKPOINT_VERSION = 2


def softmax(z, axis=-1):
    """Softmax over `axis` (default the last), shifted by the max for stability."""
    e = z - z.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax_backward(out, grad):
    """Gradient w.r.t. the logits of softmax output `out`: s * (g - <g, s>)."""
    inner = (grad * out).sum(axis=-1, keepdims=True)
    return out * (grad - inner)


def one_hot(ids, k, dtype=np.float64):
    """Rows of k float slots with a 1 at each id."""
    n = np.size(ids)
    out = np.zeros((n, k), dtype)
    out[np.arange(n), ids] = 1.0
    return out


@functools.cache
def _blas_thread_setter():
    """openblas_set_num_threads_local of the OpenBLAS in numpy's wheel (numpy.libs/,
    or numpy/.dylibs/ on macOS), returning the old count; a no-op under any other BLAS."""
    root = np.__path__[0]
    for path in [*glob.glob(f"{root}.libs/libscipy_openblas*"),
                 *glob.glob(f"{root}/.dylibs/libscipy_openblas*")]:
        setter = getattr(ctypes.CDLL(path), "openblas_set_num_threads_local", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            return setter
    return lambda count: count


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the previous count: per thread
    in OpenMP builds, process-wide in numpy's.  Small-K matmuls keep their bits."""
    previous = _blas_thread_setter()(1)
    try:
        yield
    finally:
        _blas_thread_setter()(previous)


def _act_forward(name, z):
    """Activation of the pre-activation `z`; relu and leaky_relu overwrite z."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "leaky_relu":  # max(z, 0.2 z): np.where's data-dependent branch is slower
        return np.maximum(z, LEAKY_SLOPE * z, out=z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "linear":
        return z
    if name == "softmax":
        return softmax(z)
    raise ValueError(f"unknown activation: {name!r}")


def _act_backward(name, out, grad, tmp=None):
    """Gradient w.r.t. the pre-activation, given the activation output and the
    grad w.r.t. it (for relu and leaky_relu, out > 0 exactly where z > 0);
    overwrites grad except for softmax; relu and leaky_relu build masks in tmp
    (a vector in out's dtype of at least out.size) if given, else in a new array."""
    if name in ("relu", "leaky_relu"):
        tmp = np.empty(out.size, out.dtype) if tmp is None else tmp
        mask = np.greater(out, 0.0, out=tmp[: out.size].reshape(out.shape))
        if name == "leaky_relu":  # the slope is exactly 1.0 or LEAKY_SLOPE, in out's dtype
            np.add(np.multiply(mask, 1.0 - LEAKY_SLOPE, out=mask), LEAKY_SLOPE, out=mask)
        return np.multiply(grad, mask, out=grad)
    if name == "sigmoid":
        return np.multiply(np.multiply(grad, out, out=grad), 1.0 - out, out=grad)
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


def pack(net, params=None):
    """A DenseNet shaped like `net` whose weights and biases are views of the vector
    `params` (default: a new one holding copies of net's arrays), in params order."""
    arrays = [a for w, b in zip(net.weights, net.biases) for a in (w, b)]
    if params is None:
        params = np.concatenate([a.ravel() for a in arrays])
    bounds = np.cumsum([a.size for a in arrays])[:-1]
    views = [part.reshape(a.shape) for part, a in zip(np.split(params, bounds), arrays)]
    return DenseNet(params, views[0::2], views[1::2], list(net.activations))


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
    return pack(DenseNet(None, weights, biases, activations))


def forward(net, batch, buffers=None):
    """Run the net; returns (outputs, tape), the tape holding each layer's
    (input, output) for backward().  Given `buffers`, per layer an array in net's
    dtype of at least len(batch) rows, x @ w goes into it: the results are views."""
    x = np.asarray(batch, dtype=net.params.dtype)
    if x.ndim != 2:
        raise ValueError(f"input must be a 2-D batch, got {x.ndim}-D")
    if x.shape[1] != net.in_dim:
        raise ValueError(f"input dim {x.shape[1]} != net input {net.in_dim}")
    tape = []
    for i, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
        z = np.matmul(x, w, out=None if buffers is None else buffers[i][: len(x)])
        z += b
        out = _act_forward(act, z)
        tape.append((x, out))
        x = out
    return x, tape


def backward(net, tape, upstream, grad=None, *, inputs=True, scratch=None):
    """Backprop an upstream gradient; returns the input gradient.

    Each layer's dW and db overwrite its views in `grad`, a gradient net (pack
    of net over a vector laid out like net.params); grad=None skips them.  The
    input gradient chains nets (generator through critic, trunk through heads);
    inputs=False skips it (layer 0's dz @ W.T) and returns None.  The activation
    gradients work in place on a copy; upstream and the tape stay as they are.
    Given a `scratch`, a (3, k) array in net's dtype with k at least the rows
    times the widest layer, the copy, the activation masks and each input
    gradient go into it: the result is a view, valid until its next backward.
    """
    g = (np.empty(np.shape(upstream), net.params.dtype) if scratch is None
         else scratch[0][: np.size(upstream)].reshape(np.shape(upstream)))
    g[...] = upstream  # a copy: overwritten below
    for i in range(net.n_layers - 1, -1, -1):
        x, out = tape[i]
        if g.shape != out.shape:
            raise ValueError(f"gradient shape {g.shape} != layer output {out.shape}")
        dz = _act_backward(net.activations[i], out, g, None if scratch is None else scratch[2])
        if grad is not None:
            np.matmul(x.T, dz, out=grad.weights[i])
            dz.sum(axis=0, out=grad.biases[i])
        spare = (None if scratch is None  # the ping-pong vector that does not hold dz
                 else scratch[(net.n_layers - i) % 2][: x.size].reshape(x.shape))
        w = net.weights[i]
        outer = w.shape[1] == 1  # one output: an outer product, not a GEMM
        g = (np.multiply if outer else np.matmul)(dz, w.T, out=spare) if i or inputs else None
        if outer and g is not None:
            g += 0.0  # -0.0 becomes +0.0, as in the GEMM's sum
    return g


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


def update_params(params, grad, state):
    """One in-place Adam/RMSProp step on `params`, shaped like grad and state.m/v;
    every term is the textbook expression's, written into one scratch allocation."""
    state.t += 1
    m, v = state.m, state.v
    num, den = np.empty((2, *grad.shape), grad.dtype)
    if state.algo == "adam":
        m *= state.beta1
        m += np.multiply(grad, 1.0 - state.beta1, out=num)
        v *= state.beta2
        v += np.multiply(np.multiply(grad, 1.0 - state.beta2, out=num), grad, out=num)
        np.divide(m, 1.0 - state.beta1**state.t, out=num)  # mhat
        num *= state.lr
        np.sqrt(np.divide(v, 1.0 - state.beta2**state.t, out=den), out=den)  # sqrt(vhat)
    else:  # rmsprop
        v *= state.decay
        v += np.multiply(np.multiply(grad, 1.0 - state.decay, out=num), grad, out=num)
        np.multiply(grad, state.lr, out=num)
        np.sqrt(v, out=den)
    den += state.eps
    params -= np.divide(num, den, out=num)


def clip_global_norm(grad, max_norm):
    """Scale a gradient vector in place to a global norm cap; returns the norm before.
    The sum is einsum's, not np.dot's: OpenBLAS splits a long dot over its threads."""
    norm = np.sqrt(np.einsum("i,i", grad, grad))
    if norm > max_norm:
        grad *= max_norm / norm
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


def load_checkpoint(path, names=None):
    """Read a save_checkpoint file; returns (nets by name, meta).  A file without a
    header, or (given `names`) without exactly those nets, is a ValueError naming path."""
    try:  # np.load takes a file that is neither npy nor npz for a pickle: ValueError
        z = np.load(path)
        header = json.loads(bytes(z["header"]).decode())
    except (ValueError, EOFError, KeyError, IndexError):  # IndexError: an npy array
        raise ValueError(f"{path}: not a checkpoint: no header array") from None
    with z:
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version: {header.get('version')}")
        if names is not None and sorted(header["nets"]) != sorted(names):
            raise ValueError(f"{path}: expected nets {sorted(names)}, found {sorted(header['nets'])}")
        nets = {
            name: pack(DenseNet(None, [z[f"{name}_w{i}"] for i in range(len(acts))],
                                [z[f"{name}_b{i}"] for i in range(len(acts))], acts))
            for name, acts in header["nets"].items()
        }
    return nets, header["meta"]
