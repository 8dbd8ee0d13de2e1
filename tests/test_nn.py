import json

import numpy as np
import pytest

from idslab import nn


def finite_diff_check(net, batch, loss_fn, n_samples=100, h=1e-6, seed=0):
    """Max relative error of backprop vs central finite differences over
    n_samples randomly chosen parameters."""
    out, tape = nn.forward(net, batch)
    loss, grad_out = loss_fn(out)
    grads, _ = nn.backward(net, tape, grad_out)
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
        net = nn.init_net([100, 100], ["tanh"], seed=3)
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
        net = nn.init_net([4, 4, 2], ["tanh", "softmax"], seed=7)
        x = np.random.default_rng(2).normal(size=(8, 4))
        a, _ = nn.forward(net, x)
        b, _ = nn.forward(net, x)
        assert np.array_equal(a, b)


class TestBackward:
    def test_zero_gradient(self):
        net = nn.init_net([4, 3, 2], ["relu", "linear"], seed=0)
        x = np.random.default_rng(0).normal(size=(6, 4))
        _, tape = nn.forward(net, x)
        grads, gin = nn.backward(net, tape, np.zeros((6, 2)))
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
        grads, _ = nn.backward(net, tape, np.array([[2 * resid]]))
        assert grads[0][0][0, 0] == pytest.approx(2 * resid * x, abs=1e-12)
        assert grads[0][1][0] == pytest.approx(2 * resid, abs=1e-12)

    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    def test_gradcheck_every_activation(self, act):
        net = nn.init_net([5, 8, 7, 4], ["tanh", act, "linear"], seed=3)
        batch = np.random.default_rng(4).normal(size=(6, 5))
        worst = finite_diff_check(net, batch, sum_loss, n_samples=100, seed=act.__hash__() % 1000)
        assert worst < 1e-4

    def test_input_gradient(self):
        # numeric check of the returned input gradient
        net = nn.init_net([3, 4, 2], ["leaky_relu", "linear"], seed=5)
        x = np.random.default_rng(5).normal(size=(1, 3))
        out, tape = nn.forward(net, x)
        loss, gout = sum_loss(out)
        _, gin = nn.backward(net, tape, gout)
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
            nn.opt_step(net, self._zero_grads(net), opt)
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first step ~= lr regardless of g scale
        net = self._net()
        opt = nn.OptState.for_net(net, "adam", 1e-3)
        before = net.weights[0].copy()
        grads = [(np.full_like(net.weights[0], 3.7), np.zeros_like(net.biases[0]))]
        nn.opt_step(net, grads, opt)
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
        net = nn.init_net([6, 5, 3], ["tanh", "softmax"], seed=4)
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
            nn.opt_step(net, grads, opt)
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
        grads = [[(np.full((2, 2), 10.0), np.zeros(2))]]
        norm = nn.clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(20.0)
        total = sum(float((dw**2).sum() + (db**2).sum()) for g in grads for dw, db in g)
        assert np.sqrt(total) == pytest.approx(1.0)

    def test_small_gradients_untouched(self):
        dw = np.full((2, 2), 0.01)
        grads = [[(dw.copy(), np.zeros(2))]]
        nn.clip_global_norm(grads, 1.0)
        assert np.array_equal(grads[0][0][0], dw)


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
