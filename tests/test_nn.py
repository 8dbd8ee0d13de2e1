import inspect
import json
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idslab import agent, baselines, gan, nn
from idslab import dataset as ds

from conftest import (
    backward_pairs,
    flatten,
    make_surrogate_records,
    reference_act_backward,
    reference_act_forward,
    reference_backward,
    reference_clip_global_norm,
    reference_forward,
    reference_update_params,
)


def finite_diff_check(net, batch, loss_fn, n_samples=100, h=1e-6, seed=0):
    """Max relative error of backprop vs central finite differences over
    n_samples randomly chosen parameters."""
    out, tape = nn.forward(net, batch)
    loss, grad_out = loss_fn(out)
    grads, _ = backward_pairs(net, tape, grad_out)
    rng = np.random.default_rng(seed)
    worst = 0.0
    params = [(net.weights[i], grads[i][0]) for i in range(net.n_layers)]
    params += [(net.biases[i], grads[i][1]) for i in range(net.n_layers)]
    for _ in range(n_samples):
        arr, g = params[rng.integers(len(params))]
        idx = tuple(rng.integers(s) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        lp, _ = loss_fn(nn.forward(net, batch)[0])
        arr[idx] = orig - h
        lm, _ = loss_fn(nn.forward(net, batch)[0])
        arr[idx] = orig
        numeric = (lp - lm) / (2 * h)
        analytic = g[idx]
        scale = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def sum_loss(out):
    """loss = sum(out * coeffs) with fixed coefficients, grad = coeffs."""
    rng = np.random.default_rng(123)
    coeffs = rng.normal(size=out.shape)
    return float((out * coeffs).sum()), coeffs


class TestInit:
    def test_deterministic(self):
        a = nn.init_net([4, 3], ["relu"], seed=5)
        b = nn.init_net([4, 3], ["relu"], seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_seeds_differ(self):
        a = nn.init_net([4, 3], ["relu"], seed=0)
        b = nn.init_net([4, 3], ["relu"], seed=1)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_he_scale(self):
        net = nn.init_net([100, 100], ["relu"], seed=2)
        std = net.weights[0].std()
        assert abs(std - np.sqrt(2 / 100)) / np.sqrt(2 / 100) < 0.15

    def test_xavier_scale(self):
        net = nn.init_net([100, 100], ["sigmoid"], seed=3)
        std = net.weights[0].std()
        assert abs(std - np.sqrt(1 / 100)) / np.sqrt(1 / 100) < 0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.init_net([4], ["relu"], seed=0)
        with pytest.raises(ValueError):
            nn.init_net([4, 3], ["relu", "relu"], seed=0)
        with pytest.raises(ValueError):
            nn.init_net([4, 0], ["relu"], seed=0)
        with pytest.raises(ValueError):
            nn.init_net([4, 3], ["swish"], seed=0)


class TestForward:
    def test_identity_linear(self):
        net = nn.init_net([3, 3], ["linear"], seed=0)
        net.weights[0] = np.eye(3)
        net.biases[0] = np.zeros(3)
        x = np.random.default_rng(0).normal(size=(5, 3))
        out, _ = nn.forward(net, x)
        assert np.allclose(out, x)

    def test_softmax_rows_sum_to_one(self):
        net = nn.init_net([4, 6], ["softmax"], seed=1)
        out, _ = nn.forward(net, np.random.default_rng(1).normal(size=(10, 4)) * 50)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_relu_clamp(self):
        net = nn.init_net([1, 1], ["relu"], seed=0)
        net.weights[0][:] = 1.0
        net.biases[0][:] = -1.0
        out, _ = nn.forward(net, np.array([[0.5]]))
        assert out[0, 0] == 0.0

    def test_dimension_mismatch(self):
        net = nn.init_net([4, 2], ["linear"], seed=0)
        with pytest.raises(ValueError):
            nn.forward(net, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            nn.forward(net, np.zeros(4))

    def test_pure(self):
        net = nn.init_net([4, 4, 2], ["sigmoid", "softmax"], seed=7)
        x = np.random.default_rng(2).normal(size=(8, 4))
        a, _ = nn.forward(net, x)
        b, _ = nn.forward(net, x)
        assert np.array_equal(a, b)


class TestBackward:
    def test_zero_gradient(self):
        net = nn.init_net([4, 3, 2], ["relu", "linear"], seed=0)
        x = np.random.default_rng(0).normal(size=(6, 4))
        _, tape = nn.forward(net, x)
        grads, gin = backward_pairs(net, tape, np.zeros((6, 2)))
        assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)
        assert np.all(gin == 0)

    def test_closed_form_linear(self):
        # single linear unit, squared loss: dL/dw = 2(wx+b-y)x
        net = nn.init_net([1, 1], ["linear"], seed=0)
        w = float(net.weights[0][0, 0])
        b = float(net.biases[0][0])
        x, y = 0.7, 0.2
        out, tape = nn.forward(net, np.array([[x]]))
        resid = out[0, 0] - y
        grads, _ = backward_pairs(net, tape, np.array([[2 * resid]]))
        assert grads[0][0][0, 0] == pytest.approx(2 * resid * x, abs=1e-12)
        assert grads[0][1][0] == pytest.approx(2 * resid, abs=1e-12)

    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    def test_gradcheck_every_activation(self, act):
        net = nn.init_net([5, 8, 7, 4], ["sigmoid", act, "linear"], seed=3)
        batch = np.random.default_rng(4).normal(size=(6, 5))
        worst = finite_diff_check(net, batch, sum_loss, n_samples=100, seed=act.__hash__() % 1000)
        assert worst < 1e-4

    def test_input_gradient(self):
        # numeric check of the returned input gradient
        net = nn.init_net([3, 4, 2], ["leaky_relu", "linear"], seed=5)
        x = np.random.default_rng(5).normal(size=(1, 3))
        out, tape = nn.forward(net, x)
        loss, gout = sum_loss(out)
        gin = nn.backward(net, tape, gout)
        h = 1e-6
        for j in range(3):
            xp = x.copy()
            xp[0, j] += h
            xm = x.copy()
            xm[0, j] -= h
            lp, _ = sum_loss(nn.forward(net, xp)[0])
            lm, _ = sum_loss(nn.forward(net, xm)[0])
            numeric = (lp - lm) / (2 * h)
            assert abs(numeric - gin[0, j]) < 1e-6 * max(1.0, abs(numeric))


class TestOptimizers:
    def _net(self):
        return nn.init_net([3, 2], ["linear"], seed=9)

    def _zero_grads(self, net):
        return [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(net.weights, net.biases)]

    @pytest.mark.parametrize("algo", ["adam", "rmsprop"])
    def test_zero_gradient_no_change(self, algo):
        net = self._net()
        before = [w.copy() for w in net.weights]
        opt = nn.OptState.for_net(net, algo, 1e-3)
        for _ in range(5):
            nn.update_params(net.params, flatten(self._zero_grads(net)), opt)
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first step ~= lr regardless of g scale
        net = self._net()
        opt = nn.OptState.for_net(net, "adam", 1e-3)
        before = net.weights[0].copy()
        grads = [(np.full_like(net.weights[0], 3.7), np.zeros_like(net.biases[0]))]
        nn.update_params(net.params, flatten(grads), opt)
        step = np.abs(net.weights[0] - before)
        assert np.allclose(step, 1e-3, rtol=1e-6)

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            nn.OptState.for_net(self._net(), "sgd", 1e-3)


class TestParamVector:
    def _arrays(self, net):
        return [a for w, b in zip(net.weights, net.biases) for a in (w, b)]

    def test_views_after_init(self):
        net = nn.init_net([5, 4, 3], ["relu", "linear"], seed=0)
        assert net.params.shape == (5 * 4 + 4 + 4 * 3 + 3,)
        assert all(np.shares_memory(a, net.params) for a in self._arrays(net))
        net.params[:] = 7.0
        assert all(np.all(a == 7.0) for a in self._arrays(net))

    def test_init_draws_in_layer_order(self):
        net = nn.init_net([5, 4, 3], ["relu", "linear"], seed=0)
        rng = np.random.default_rng(0)
        assert np.array_equal(net.weights[0], rng.normal(0.0, np.sqrt(2.0 / 5), size=(5, 4)))
        assert np.array_equal(net.weights[1], rng.normal(0.0, np.sqrt(1.0 / 4), size=(4, 3)))
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_views_after_load(self, tmp_path):
        net = nn.init_net([6, 5, 3], ["sigmoid", "softmax"], seed=4)
        path = tmp_path / "net.npz"
        nn.save_checkpoint({"net": net}, path)
        back = nn.load_checkpoint(path)[0]["net"]
        assert np.array_equal(back.params, net.params)
        assert all(np.shares_memory(a, back.params) for a in self._arrays(back))

    @pytest.mark.parametrize("algo", ["adam", "rmsprop"])
    def test_whole_vector_step_matches_per_array_reference(self, algo):
        net = nn.init_net([5, 4, 3], ["relu", "linear"], seed=1)
        opt = nn.OptState.for_net(net, algo, 1e-2)
        ref = [a.copy() for a in self._arrays(net)]
        m = [np.zeros_like(a) for a in ref]
        v = [np.zeros_like(a) for a in ref]
        rng = np.random.default_rng(2)
        for t in range(1, 4):
            grads = [(rng.normal(size=w.shape), rng.normal(size=b.shape))
                     for w, b in zip(net.weights, net.biases)]
            nn.update_params(net.params, flatten(grads), opt)
            flat = [g for pair in grads for g in pair]
            for param, grad, mi, vi in zip(ref, flat, m, v):
                if algo == "adam":
                    mi *= opt.beta1
                    mi += (1.0 - opt.beta1) * grad
                    vi *= opt.beta2
                    vi += (1.0 - opt.beta2) * grad * grad
                    mhat = mi / (1.0 - opt.beta1**t)
                    vhat = vi / (1.0 - opt.beta2**t)
                    param -= opt.lr * mhat / (np.sqrt(vhat) + opt.eps)
                else:
                    vi *= opt.decay
                    vi += (1.0 - opt.decay) * grad * grad
                    param -= opt.lr * grad / (np.sqrt(vi) + opt.eps)
        assert all(np.array_equal(a, b) for a, b in zip(ref, self._arrays(net)))


class TestClipNorm:
    def test_clip_scales_down(self):
        grad = np.r_[np.full(4, 10.0), np.zeros(2)]  # a 2x2 dW of 10s and a zero db
        norm = nn.clip_global_norm(grad, 1.0)
        assert norm == pytest.approx(20.0)
        assert np.sqrt(np.dot(grad, grad)) == pytest.approx(1.0)

    def test_small_gradients_untouched(self):
        grad = np.full(6, 0.01)
        nn.clip_global_norm(grad, 1.0)
        assert np.array_equal(grad, np.full(6, 0.01))

    @pytest.mark.parametrize("max_norm", [1e-3, 0.5, 1e3])
    def test_matches_per_array_reference(self, max_norm):
        # the PPO layout: three nets' (dW, db) pairs in one vector
        rng = np.random.default_rng(5)
        pair_lists = [[(rng.normal(size=(a, b)), rng.normal(size=b)) for a, b in shapes]
                      for shapes in ([(7, 5), (5, 4), (4, 3)], [(3, 2)], [(3, 1)])]
        grad = np.concatenate([flatten(pairs) for pairs in pair_lists])
        norm = nn.clip_global_norm(grad, max_norm)
        assert norm == reference_clip_global_norm(pair_lists, max_norm)
        assert_same(grad, np.concatenate([flatten(pairs) for pairs in pair_lists]))


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        net = nn.init_net([6, 5, 3], ["leaky_relu", "softmax"], seed=11)
        path = tmp_path / "net.npz"
        nn.save_checkpoint({"net": net}, path, meta={"purpose": "test"})
        nets, meta = nn.load_checkpoint(path)
        back = nets["net"]
        assert meta == {"purpose": "test"}
        assert back.activations == net.activations
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            assert np.array_equal(a, b)

    def test_version_one_rejected(self, tmp_path):
        # the single-net layout written before named nets: w{i}/b{i} arrays
        header = json.dumps({"version": 1, "n_layers": 1, "activations": ["linear"], "meta": {}})
        path = tmp_path / "old.npz"
        np.savez(
            path,
            header=np.frombuffer(header.encode(), dtype=np.uint8),
            w0=np.zeros((2, 1)),
            b0=np.zeros(1),
        )
        with pytest.raises(ValueError, match="version: 1"):
            nn.load_checkpoint(path)


# --- the in-place kernels against the out-of-place reference ------------------

# exact zeros of both signs, subnormals and large magnitudes
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -2.2e-310, 1e100, -1e100, 1e300, -1e300])
# the same for float32, where SPECIALS' subnormals flush to zero and its magnitudes overflow
SPECIALS32 = np.array([0.0, -0.0, 1e-45, -1e-45, 1e-40, -1e-40, 1e30, -1e30], dtype=np.float32)


def special_array(rng, shape, share, specials=SPECIALS):
    """Normal draws in specials' dtype with about `share` of the entries, and of
    the rows, replaced by `specials`; a zero row makes the pre-activation exactly
    the bias."""
    a = rng.normal(size=shape).astype(specials.dtype, copy=False)
    hit = rng.random(shape) < share
    a[hit] = rng.choice(specials, size=int(hit.sum()))
    a[rng.random(shape[0]) < share] = rng.choice([0.0, -0.0])
    return a


def openblas_setter():
    """nn's setter of numpy's bundled OpenBLAS thread count; skips the calling test
    under any other BLAS, where one_blas_thread is a no-op."""
    setter = nn._blas_thread_setter()
    if getattr(setter, "__name__", None) != "openblas_set_num_threads_local":
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS: one_blas_thread is a no-op")
    return setter


def assert_same(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_grads(a, b):
    assert len(a) == len(b)
    for (dw, db), (rdw, rdb) in zip(a, b):
        assert_same(dw, rdw)
        assert_same(db, rdb)


def special_net(acts, rng, seed, specials=SPECIALS, sizes=None):
    """A net in specials' dtype with `specials` in about half its biases; its
    layer sizes are drawn from 1 to 8 unless given."""
    sizes = sizes or [int(s) for s in rng.integers(1, 9, size=len(acts) + 1)]
    net = nn.init_net(sizes, acts, seed=seed)
    net = nn.pack(net, net.params.astype(specials.dtype, copy=False))
    for b in net.biases:
        b[:] = special_array(rng, b.shape, 0.5, specials)
    return net


def check_matches_reference(k, acts, n, share, seed, specials=SPECIALS, sizes=None):
    """Kernel module `k` gives the reference's bits: activations alone, then
    forward, its tape and backward on a net with activations `acts` (and layer
    `sizes`, if given), all in specials' dtype."""
    rng = np.random.default_rng(seed)
    net = special_net(acts, rng, seed, specials, sizes)
    with np.errstate(all="ignore"):
        z = special_array(rng, (n, 7), share, specials)
        grad = special_array(rng, (n, 7), share, specials)
        for act in set(acts):
            out = reference_act_forward(act, z)
            assert_same(k._act_forward(act, z.copy()), out)
            ref_dz = reference_act_backward(act, out, grad)
            assert_same(k._act_backward(act, out, grad.copy()), ref_dz)
        batch = special_array(rng, (n, net.in_dim), share, specials)
        upstream = special_array(rng, (n, net.out_dim), share, specials)
        out, tape = k.forward(net, batch)
        ref_out, ref_tape = reference_forward(net, batch)
        assert_same(out, ref_out)
        for (x, y), (rx, ry) in zip(tape, ref_tape, strict=True):
            assert_same(x, rx)
            assert_same(y, ry)
        ref_grads, ref_grad_in = reference_backward(net, ref_tape, upstream)
        assert_same(k.backward(net, tape, upstream), ref_grad_in)
        # into a gradient net holding stale values: each backward overwrites them
        grad = k.pack(net, np.full_like(net.params, 3.0))
        for _ in range(2):
            assert_same(k.backward(net, tape, upstream, grad), ref_grad_in)
            assert_same(grad.params, flatten(ref_grads))


def check_buffered_matches_reference(k, acts, n, share, seed, specials=SPECIALS):
    """Kernel module `k` gives the reference's bits through reused arrays, in
    specials' dtype: a net with activations `acts` feeds a head whose last layer
    has one output (a K=1 input gradient); every layer buffer and the shared
    backward scratch has room for 3 rows more than the batch, they and the
    gradient nets start as NaN, and both nets' backwards run twice, one after
    the other, on the one scratch."""
    rng = np.random.default_rng(seed)
    trunk = special_net(acts, rng, seed, specials)
    head = special_net((acts[0], "linear"), rng, seed + 1, specials,
                       sizes=[trunk.out_dim, int(rng.integers(1, 9)), 1])
    nets = (trunk, head)
    buffers = [[np.full((n + 3, w.shape[1]), np.nan, specials.dtype) for w in net.weights]
               for net in nets]
    width = max(max(w.shape) for net in nets for w in net.weights)
    scratch = np.full((3, (n + 3) * width), np.nan, specials.dtype)
    grads = [k.pack(net, np.full_like(net.params, np.nan)) for net in nets]
    with np.errstate(all="ignore"):
        batch = special_array(rng, (n, trunk.in_dim), share, specials)
        upstream = special_array(rng, (n, 1), share, specials)
        ref_h, ref_trunk_tape = reference_forward(trunk, batch)
        ref_out, ref_head_tape = reference_forward(head, ref_h)
        ref_head_grads, ref_g_h = reference_backward(head, ref_head_tape, upstream)
        ref_trunk_grads, ref_g_in = reference_backward(trunk, ref_trunk_tape, ref_g_h)
        for _ in range(2):
            h, trunk_tape = k.forward(trunk, batch, buffers[0])
            out, head_tape = k.forward(head, h, buffers[1])
            assert_same(out, ref_out)
            for (x, y), (rx, ry) in zip(trunk_tape + head_tape, ref_trunk_tape + ref_head_tape,
                                        strict=True):
                assert_same(x, rx)
                assert_same(y, ry)
            assert_same(k.backward(head, head_tape, upstream, grads[1], scratch=scratch), ref_g_h)
            assert_same(grads[1].params, flatten(ref_head_grads))
            assert_same(k.backward(trunk, trunk_tape, ref_g_h, grads[0], scratch=scratch),
                        ref_g_in)
            assert_same(grads[0].params, flatten(ref_trunk_grads))


def check_nan_propagates(k):
    """A NaN pre-activation stays NaN through relu and leaky_relu."""
    for act in ("relu", "leaky_relu"):
        out = k._act_forward(act, np.array([np.nan, -1.0, 0.0, 1.0]))
        assert np.isnan(out[0]) and not np.isnan(out[1:]).any()
        net = nn.init_net([2, 3], [act], seed=0)
        out, _ = k.forward(net, np.array([[np.nan, 1.0]]))
        assert np.isnan(out).all()


def check_partial_backward(k, acts, seed, specials=SPECIALS):
    """grad=None skips the parameter gradients and inputs=False the input
    gradient (returned as None); each gives the full call's bits for the rest,
    on a net in specials' dtype."""
    rng = np.random.default_rng(seed)
    net = special_net(acts, rng, seed, specials)
    batch = rng.normal(size=(9, net.in_dim))
    upstream = rng.normal(size=(9, net.out_dim))
    with np.errstate(all="ignore"):
        _, tape = k.forward(net, batch)
        full, grad = (k.pack(net, np.empty_like(net.params)) for _ in range(2))
        full_in = k.backward(net, tape, upstream, full)
        grad_in = k.backward(net, tape, upstream)
        no_inputs = k.backward(net, tape, upstream, grad, inputs=False)
    assert_same(grad_in, full_in)
    assert no_inputs is None
    assert_same(grad.params, full.params)


def mutant_nn(monkeypatch, old, new):
    """A copy of the nn module whose source has `old` replaced by `new`."""
    source = inspect.getsource(nn)
    assert old in source
    module = types.ModuleType("idslab.nn_mutant")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), "<nn mutant>", "exec"), module.__dict__)
    return module


class TestMatchesReference:
    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    @settings(max_examples=25, deadline=None)
    @given(
        other=st.sampled_from(nn.ACTIVATIONS),
        n=st.integers(1, 1200),
        share=st.sampled_from([0.0, 0.05, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels_bit_equal(self, act, other, n, share, seed):
        check_matches_reference(nn, (act, other, act), n, share, seed)

    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    @settings(max_examples=25, deadline=None)
    @given(
        other=st.sampled_from(nn.ACTIVATIONS),
        n=st.integers(1, 1200),
        share=st.sampled_from([0.0, 0.05, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels_bit_equal_float32(self, act, other, n, share, seed):
        check_matches_reference(nn, (act, other, act), n, share, seed, SPECIALS32)

    @pytest.mark.parametrize("specials", [SPECIALS, SPECIALS32], ids=["float64", "float32"])
    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    @settings(max_examples=25, deadline=None)
    @given(
        other=st.sampled_from(nn.ACTIVATIONS),
        width=st.integers(1, 8),
        n=st.integers(1, 1200),
        share=st.sampled_from([0.0, 0.05, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_output_layers_bit_equal(self, specials, act, other, width, n, share, seed):
        # layers 0 and 2 have one output, so their input gradients are K=1 products
        check_matches_reference(nn, (act, other, act), n, share, seed, specials,
                                sizes=[width, 1, width, 1])

    @pytest.mark.parametrize("specials", [SPECIALS, SPECIALS32], ids=["float64", "float32"])
    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    @settings(max_examples=25, deadline=None)
    @given(
        other=st.sampled_from(nn.ACTIVATIONS),
        n=st.integers(1, 1200),
        share=st.sampled_from([0.0, 0.05, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_buffered_kernels_bit_equal(self, specials, act, other, n, share, seed):
        check_buffered_matches_reference(nn, (act, other, act), n, share, seed, specials)

    def test_nan_preactivation_stays_nan(self):
        check_nan_propagates(nn)

    @pytest.mark.parametrize("algo", ["adam", "rmsprop"])
    def test_update_params_bit_equal(self, algo):
        rng = np.random.default_rng(3)
        params = rng.normal(size=(3, 40))  # 2-D, as the logreg fold kernel steps it
        ref = params.copy()
        state = nn.OptState(algo, 1e-2, m=np.zeros_like(params), v=np.zeros_like(params))
        ref_state = nn.OptState(algo, 1e-2, m=np.zeros_like(params), v=np.zeros_like(params))
        with np.errstate(all="ignore"):
            for _ in range(5):
                grad = special_array(rng, params.shape, 0.2)
                kept = grad.copy()
                nn.update_params(params, grad, state)
                reference_update_params(ref, grad, ref_state)
                assert_same(grad, kept)
                for a, b in ((params, ref), (state.m, ref_state.m), (state.v, ref_state.v)):
                    assert_same(a, b)
        assert state.t == ref_state.t == 5

    @pytest.mark.parametrize(
        "old, new, check",
        [
            # fmax drops the NaN that np.maximum keeps
            ("np.maximum(z, ", "np.fmax(z, ", "nan"),
            # 1 - 0.8 * (out <= 0) is 1 ulp below 0.2 where out <= 0
            ("np.add(np.multiply(mask, 1.0 - LEAKY_SLOPE, out=mask), LEAKY_SLOPE, out=mask)",
             "np.subtract(1.0, np.multiply(1.0 - mask, 1.0 - LEAKY_SLOPE, out=mask), out=mask)",
             "reference"),
            # inputs=False stopping at a hidden layer instead of layer 0
            ("if i or inputs else None", "if i > 1 or inputs else None", "partial"),
            # a buffered relu/leaky_relu mask that is 1 where out == 0
            ("np.greater(out, 0.0, out=", "np.greater_equal(out, 0.0, out=", "buffered"),
            # the mask built over the upstream gradient's copy in scratch[0]
            ("None if scratch is None else scratch[2]", "None if scratch is None else scratch[0]",
             "buffered"),
            # a one-output layer's outer product left with the -0.0 the GEMM's sum drops
            ("g += 0.0", "pass", "outer"),
        ],
        ids=["fmax", "slope", "inputs-skip", "buffered-mask", "buffered-mask-vector",
             "outer-negative-zero"],
    )
    def test_oracle_catches_broken_kernels(self, monkeypatch, old, new, check):
        checks = {
            "nan": check_nan_propagates,
            "reference": lambda k: check_matches_reference(
                k, ("leaky_relu", "sigmoid", "leaky_relu"), 50, 0.05, 1),
            "partial": lambda k: check_partial_backward(k, ("relu", "relu", "linear"), 2),
            "buffered": lambda k: check_buffered_matches_reference(
                k, ("leaky_relu", "relu", "leaky_relu"), 50, 0.05, 1),
            "outer": lambda k: check_matches_reference(k, ("leaky_relu", "linear", "leaky_relu"),
                                                       50, 0.05, 1, sizes=[5, 1, 5, 1]),
        }
        checks[check](nn)
        mutant = mutant_nn(monkeypatch, old, new)  # outside raises: `old` must be in the source
        with pytest.raises((AssertionError, AttributeError)):
            checks[check](mutant)


class TestAliasing:
    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    def test_forward_leaves_batch_unchanged(self, act):
        net = nn.init_net([4, 5, 3], [act, act], seed=0)
        batch = np.random.default_rng(0).normal(size=(7, 4))
        kept = batch.copy()
        nn.forward(net, batch)
        assert_same(batch, kept)

    @pytest.mark.parametrize("top", ["relu", "leaky_relu", "sigmoid"])
    def test_backward_leaves_gradient_and_tape_unchanged(self, top):
        net = nn.init_net([4, 6, 3], ["leaky_relu", top], seed=1)
        rng = np.random.default_rng(1)
        _, tape = nn.forward(net, rng.normal(size=(7, 4)))
        kept_tape = [(x.copy(), out.copy()) for x, out in tape]
        upstream = rng.normal(size=(7, 3))
        kept = upstream.copy()
        grads, grad_in = backward_pairs(net, tape, upstream)
        assert_same(upstream, kept)
        for (x, out), (kx, kout) in zip(tape, kept_tape):
            assert_same(x, kx)
            assert_same(out, kout)
        again, again_in = backward_pairs(net, tape, upstream)
        assert_same_grads(again, grads)
        assert_same(again_in, grad_in)

    @pytest.mark.parametrize(
        "acts", [("relu", "relu", "linear"), ("leaky_relu", "leaky_relu", "linear"),
                 ("sigmoid", "sigmoid", "softmax")]
    )
    def test_partial_backward(self, acts):
        check_partial_backward(nn, acts, 4)

    @pytest.mark.parametrize(
        "acts", [("relu", "relu", "linear"), ("leaky_relu", "leaky_relu", "linear"),
                 ("sigmoid", "sigmoid", "softmax")]
    )
    def test_partial_backward_float32(self, acts):
        check_partial_backward(nn, acts, 4, SPECIALS32)

    @pytest.mark.parametrize("flags", [{}, {"grad": True}, {"inputs": False}])
    def test_gradient_shape_checked(self, flags):
        net = nn.init_net([4, 3, 2], ["relu", "linear"], seed=0)
        _, tape = nn.forward(net, np.zeros((5, 4)))
        if flags.get("grad"):  # into a gradient net
            flags = {"grad": nn.pack(net, np.empty_like(net.params))}
        with pytest.raises(ValueError, match="gradient shape"):
            nn.backward(net, tape, np.zeros((5, 3)), **flags)


class TestOneBlasThread:
    """one_blas_thread sets numpy's bundled OpenBLAS to one thread and gives the
    count it found back, however its block ends."""

    @pytest.fixture(autouse=True)
    def setter(self):
        setter = openblas_setter()
        kept = setter(2)  # a count one_blas_thread must give back
        yield setter
        setter(kept)

    @staticmethod
    def threads(setter):
        count = setter(1)  # the setter returns the count it replaces
        setter(count)
        return count

    def test_one_thread_inside_and_restored_after(self, setter):
        with nn.one_blas_thread():
            assert self.threads(setter) == 1
        assert self.threads(setter) == 2

    def test_restored_when_the_block_raises(self, setter):
        with pytest.raises(KeyError), nn.one_blas_thread():
            raise KeyError("boom")
        assert self.threads(setter) == 2

    def test_nested(self, setter):
        with nn.one_blas_thread():
            with nn.one_blas_thread():
                assert self.threads(setter) == 1
            assert self.threads(setter) == 1
        assert self.threads(setter) == 2


class TestDtype:
    """Each kernel computes in its net's dtype: a float64 array anywhere in a
    float32 path would upcast everything after it."""

    def test_gan_and_float32_kernel_stay_float32_and_ppo_float64(self, monkeypatch):
        f32 = np.float32
        records, labels = make_surrogate_records(300, seed=0)
        t = ds.fit_transformer(records)
        data = ds.EncodedDataset(t.encode_matrix(records), labels)
        cfg = gan.GanConfig(epochs=1, batch_size=50, critic_steps=2, noise_dim=16, hidden=(32, 32))
        softmax_inputs = []  # the Gumbel-softmax's inside the GAN's own code
        softmax = nn.softmax
        with monkeypatch.context() as m:
            m.setattr(nn, "softmax", lambda z, axis=-1: softmax_inputs.append(z) or softmax(z, axis))
            model, _ = gan.train_gan(data, t, cfg)
            assert model.generator.params.dtype == model.critic.params.dtype == f32
            rng = np.random.default_rng(0)
            x = np.concatenate([np.zeros((20, cfg.noise_dim), f32), nn.one_hot([1] * 20, 5, f32)],
                               axis=1)
            fake, gen_tape, cache = gan._generate(model, x, rng)
            grad_raw = gan._output_backward(np.ones_like(fake), cache, cfg.gumbel_temperature)
        arrays = [fake, grad_raw, cache[2], cache[3], *(a for xy in gen_tape for a in xy)]
        arrays += softmax_inputs
        assert softmax_inputs and [a.dtype for a in arrays] == [f32] * len(arrays)

        net = nn.init_net([5, 6, 6, 6, 6, 4], list(nn.ACTIVATIONS), seed=0)
        net = nn.pack(net, net.params.astype(f32))
        out, tape = nn.forward(net, rng.normal(size=(8, 5)))  # float64 batch and upstream
        grad = nn.pack(net, np.empty_like(net.params))
        grad_in = nn.backward(net, tape, rng.normal(size=(8, 4)), grad)
        arrays = [out, grad_in, *(a for xy in tape for a in xy), grad.params]
        for algo in ("adam", "rmsprop"):
            opt = nn.OptState.for_net(net, algo, 1e-3)
            nn.update_params(net.params, grad.params, opt)
            arrays += [net.params, opt.m, opt.v]
        assert [a.dtype for a in arrays] == [f32] * len(arrays)

        buffer = agent.RolloutBuffer(
            states=rng.normal(size=(64, 6)).astype(f32),  # float32 states, float64 policy
            actions=rng.integers(0, 5, size=64),
            log_probs=np.log(rng.uniform(0.1, 0.5, size=64)), rewards=rng.normal(size=64),
            dones=rng.random(64) < 0.1, values=rng.normal(size=64), next_value=0.0,
        )
        agent.compute_gae(buffer, 0.99, 0.95)
        policy = agent.PolicyNet(6, 5, seed=0)
        agent.ppo_update(policy, buffer, agent.PpoConfig(minibatch=32), rng=rng)
        arrays = [policy.params, policy.grad, *(n.params for n in policy.nets())]
        assert [a.dtype for a in arrays] == [np.float64] * len(arrays)


def reference_backward_into(net, tape, upstream, grad=None, *, inputs=True, scratch=None):
    """`reference_backward` behind `nn.backward`'s signature (in new arrays,
    whatever `scratch` is given)."""
    pairs, grad_in = reference_backward(net, tape, upstream)
    if grad is not None:
        grad.params[:] = flatten(pairs)
    return grad_in if inputs else None


class TestCallersMatchReference:
    """The GAN, PPO and MLP training loops give the same bits with the
    reference forward, backward and optimizer step patched in."""

    def _both(self, monkeypatch, run):
        real = run()
        with monkeypatch.context() as m:
            m.setattr(nn, "forward", reference_forward)
            m.setattr(nn, "backward", reference_backward_into)
            m.setattr(nn, "update_params", reference_update_params)
            ref = run()
        return real, ref

    def _train_gan(self, monkeypatch, cfg):
        records, labels = make_surrogate_records(1000, seed=0)
        t = ds.fit_transformer(records)
        data = ds.EncodedDataset(t.encode_matrix(records), labels)

        def run():
            model, history = gan.train_gan(data, t, cfg)
            return model.generator.params, model.critic.params, np.array(history)

        real, ref = self._both(monkeypatch, run)
        for a, b in zip(real, ref):
            assert_same(a, b)
        return real

    def test_train_gan(self, monkeypatch):
        cfg = gan.GanConfig(epochs=1, batch_size=500, critic_steps=5, hidden=(256, 256), seed=0)
        real = self._train_gan(monkeypatch, cfg)
        assert len(real[2]) == 2  # generator steps

    def test_train_gan_one_layer_critic(self, monkeypatch):
        # every critic layer has one output, so each input gradient is a K=1 product
        cfg = gan.GanConfig(epochs=1, batch_size=50, critic_steps=1, hidden=(), seed=0)
        real = self._train_gan(monkeypatch, cfg)
        assert len(real[2]) == 20  # generator steps

    def test_ppo_update(self, monkeypatch):
        rng = np.random.default_rng(0)
        T = 256
        buffer = agent.RolloutBuffer(
            states=rng.normal(size=(T, 6)), actions=rng.integers(0, 5, size=T),
            log_probs=np.log(rng.uniform(0.1, 0.5, size=T)), rewards=rng.normal(size=T),
            dones=rng.random(T) < 0.1, values=rng.normal(size=T), next_value=0.0,
        )
        agent.compute_gae(buffer, 0.99, 0.95)
        cfg = agent.PpoConfig(minibatch=64)

        def run():
            policy = agent.PolicyNet(6, 5, seed=0)
            stats = agent.ppo_update(policy, buffer, cfg, rng=np.random.default_rng(1))
            return [net.params for net in policy.nets()] + [np.array(list(stats.values()))]

        real, ref = self._both(monkeypatch, run)
        for a, b in zip(real, ref):
            assert_same(a, b)

    def test_train_mlp(self, monkeypatch):
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(600, 10)), rng.integers(0, 5, size=600)
        real, ref = self._both(
            monkeypatch, lambda: baselines.train_mlp(X, y, epochs=1, seed=0).net.params
        )
        assert_same(real, ref)
