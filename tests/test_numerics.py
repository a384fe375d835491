import os
import resource

import numpy as np
import pytest

from ssdlab import numerics as nx

from conftest import central_diff, rel_err, snapshot


def triple_loop_matmul(a, b):
    m, n = a.shape
    p = b.shape[1]
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            s = 0.0
            for k in range(n):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def signed_zeros(x):
    """Replace every third entry by an exact 0.0 and every fifth by -0.0."""
    flat = x.reshape(-1)
    flat[::3] = 0.0
    flat[1::5] = -0.0
    return x


def bit_equal(x, y):
    """Equal bit for bit, sign of zero included."""
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def integer_valued(rng, shape):
    """Small integers and signed zeros: every partial sum of a product of these
    is exact, so any summation order must give the oracle's bits."""
    return signed_zeros(rng.integers(-8, 9, size=shape).astype(np.float64))


def normal_valued(rng, shape):
    return signed_zeros(rng.standard_normal(shape))


# (draw, exact): exact inputs are compared bit for bit, others within the bound
INPUTS = ((integer_valued, True), (normal_valued, False))


def matches_oracle(out, a, b, exact):
    """out equals the triple loop's a @ b bit for bit, or, when not exact,
    within n * eps * (|a| @ |b|), which bounds any summation order's error
    (the oracle's own included)."""
    expected = triple_loop_matmul(a, b)
    if exact:
        return bit_equal(out, expected)
    bound = a.shape[1] * np.finfo(np.float64).eps * triple_loop_matmul(abs(a), abs(b))
    return out.shape == expected.shape and bool(np.all(abs(out - expected) <= bound))


class TestMatmul:
    def test_hand_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        assert nx.matmul(a, b).tolist() == [[3.0], [7.0]]

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 6))
        assert np.array_equal(nx.matmul(a, np.eye(6)), a)

    def test_matches_triple_loop_oracle_exactly(self):
        rng = np.random.default_rng(1)
        for (m, n, p) in ((5, 7, 3), (1, 7, 1), (5, 1, 3), (48, 128, 40)):
            for draw, exact in INPUTS:
                a, b = draw(rng, (m, n)), draw(rng, (n, p))
                assert matches_oracle(nx.matmul(a, b), a, b, exact)

    def test_nt_tn_variants_match_oracle(self):
        rng = np.random.default_rng(2)
        for (m, n, p) in ((6, 5, 4), (1, 5, 1), (6, 1, 3), (40, 128, 48)):
            for draw, exact in INPUTS:
                a, b, c = draw(rng, (m, n)), draw(rng, (p, n)), draw(rng, (m, p))
                assert matches_oracle(nx.matmul_nt(a, b), a, b.T.copy(), exact)
                assert matches_oracle(nx.matmul_tn(a, c), a.T.copy(), c, exact)

    def test_batched_kernels_match_oracle(self):
        rng = np.random.default_rng(3)
        for (m, r, p) in ((4, 5, 6), (1, 1, 1), (4, 1, 6), (32, 32, 32)):
            for draw, exact in INPUTS:
                q, k = draw(rng, (2, 3, m, r)), draw(rng, (2, 3, p, r))
                v, w = draw(rng, (2, 3, r, p)), draw(rng, (2, 3, m, p))
                nt, nn, tn = nx.bmm_nt(q, k), nx.bmm_nn(q, v), nx.bmm_tn(q, w)
                for b in range(2):
                    for h in range(3):
                        assert matches_oracle(nt[b, h], q[b, h], k[b, h].T.copy(), exact)
                        assert matches_oracle(nn[b, h], q[b, h], v[b, h], exact)
                        assert matches_oracle(tn[b, h], q[b, h].T.copy(), w[b, h], exact)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            nx.matmul(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="shape mismatch"):
            nx.bmm_tn(np.zeros((2, 3, 4, 6)), np.zeros((2, 3, 6, 5)))
        with pytest.raises(ValueError, match="shape mismatch"):
            nx.bmm_nn(np.zeros((2, 3, 2, 3)), np.zeros((2, 3, 5, 4)))
        with pytest.raises(ValueError, match="shape mismatch"):
            nx.bmm_nt(np.zeros((2, 3, 4, 5)), np.zeros((2, 3, 6, 4)))

    def test_replay_bit_identical(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        assert np.array_equal(nx.matmul(a, b), nx.matmul(a.copy(), b.copy()))


class TestRelu:
    def test_values(self):
        x = np.array([[1.0, -1.0, 0.0]])
        assert nx.relu(x).tolist() == [[1.0, 0.0, 0.0]]

    def test_backward(self):
        x = np.array([[2.0, -2.0]])
        d = np.array([[5.0, 5.0]])
        assert nx.relu_backward(d, x).tolist() == [[5.0, 0.0]]

    def test_backward_zero_at_kink(self):
        assert nx.relu_backward(np.array([[7.0]]), np.array([[0.0]])).tolist() == [[0.0]]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4)) + np.sign(rng.standard_normal((3, 4))) * 0.2
        grad = nx.relu_backward(np.ones_like(x), x)
        worst = 0.0
        for i in range(x.size):
            fd = central_diff(lambda: nx.relu(x).sum(), x, i)
            worst = max(worst, rel_err(grad.reshape(-1)[i], fd))
        assert worst < 1e-6


class TestLayernorm:
    def test_already_normalized_row(self):
        x = np.array([[1.0, -1.0]])
        y, _ = nx.layernorm(x, np.ones(2), np.zeros(2), eps=1e-12)
        assert np.max(np.abs(y - x)) < 1e-5

    def test_constant_row_collapses_to_bias(self):
        x = np.full((2, 3), 4.2)
        bias = np.array([1.0, 2.0, 3.0])
        y, _ = nx.layernorm(x, np.ones(3), bias)
        assert np.allclose(y, bias)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 5))
        gain = rng.standard_normal(5)
        bias = rng.standard_normal(5)
        d_out = rng.standard_normal((3, 5))

        def loss():
            y, _ = nx.layernorm(x, gain, bias)
            return (y * d_out).sum()

        _, cache = nx.layernorm(x, gain, bias)
        d_x, d_gain, d_bias = nx.layernorm_backward(d_out, cache)
        worst = 0.0
        for arr, grad in ((x, d_x), (gain, d_gain), (bias, d_bias)):
            for i in range(arr.size):
                fd = central_diff(loss, arr, i)
                worst = max(worst, rel_err(grad.reshape(-1)[i], fd))
        assert worst < 1e-4

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nx.layernorm(np.zeros((2, 3)), np.ones(2), np.zeros(3))


class TestSoftmaxCrossEntropy:
    def test_uniform_two_way(self):
        loss, _ = nx.softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert abs(loss - np.log(2)) < 1e-12

    def test_saturated_logits_no_overflow(self):
        with np.errstate(over="raise"):
            loss, d = nx.softmax_cross_entropy(np.array([[1e4, 0.0]]), np.array([0]))
        assert 0.0 <= loss < 1e-12
        assert np.all(np.isfinite(d))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((4, 6))
        targets = rng.integers(0, 6, size=4)
        _, d_logits = nx.softmax_cross_entropy(logits, targets)
        worst = 0.0
        for i in range(logits.size):
            fd = central_diff(lambda: nx.softmax_cross_entropy(logits, targets)[0],
                              logits, i)
            worst = max(worst, rel_err(d_logits.reshape(-1)[i], fd))
        assert worst < 1e-4

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            nx.softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))


class TestAdam:
    def test_zero_grad_fresh_state_leaves_params(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = nx.AdamState.for_params(params)
        nx.adam_step(params, {"w": np.zeros(3)}, state, nx.OptimizerConfig(), lr=0.1)
        assert params["w"].tolist() == [1.0, -2.0, 3.0]

    def test_first_step_closed_form(self):
        lr = 0.01
        params = {"w": np.array([0.0])}
        state = nx.AdamState.for_params(params)
        nx.adam_step(params, {"w": np.array([1.0])}, state, nx.OptimizerConfig(), lr=lr)
        assert abs(params["w"][0] + lr) < 1e-6 * lr

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(8)
            params = {"w": rng.standard_normal((3, 3))}
            state = nx.AdamState.for_params(params)
            for _ in range(10):
                nx.adam_step(params, {"w": rng.standard_normal((3, 3))}, state,
                             nx.OptimizerConfig(), 0.05)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros((2, 2))}
        state = nx.AdamState.for_params(params)
        with pytest.raises(ValueError, match="shape"):
            nx.adam_step(params, {"w": np.zeros(3)}, state, nx.OptimizerConfig(), 0.1)


class TestNoamSchedule:
    def test_branches_cross_at_warmup(self):
        w = 2000
        ramp = w * w ** -1.5
        decay = w ** -0.5
        assert abs(ramp - decay) < 1e-15
        assert nx.noam_lr(w, warmup=w, d_model=128, base=0.5) == pytest.approx(
            0.5 * 128 ** -0.5 * w ** -0.5)

    def test_linear_ramp_values(self):
        # during warmup lr is linear in step: quarter of peak at warmup/4,
        # and the decay branch halves the peak at 4x warmup
        w, d, base = 2000, 128, 0.5
        peak = nx.noam_lr(w, w, d, base)
        assert nx.noam_lr(w // 4, w, d, base) == pytest.approx(peak / 4)
        assert nx.noam_lr(4 * w, w, d, base) == pytest.approx(peak / 2)

    def test_default_gpt_config(self):
        # warmup 2000, base 0.5 is the decoder-model preset
        assert nx.noam_lr(2000, 2000, 768) == pytest.approx(0.5 * 768 ** -0.5 * 2000 ** -0.5)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            nx.noam_lr(0, 2000, 128, 0.5)


# -----------------------------------------------------------------------------
# The in-place primitives against their out-of-place formulas
# -----------------------------------------------------------------------------


def layernorm_reference(x, gain, bias, eps=1e-5):
    """One fresh array per operator."""
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gain + bias
    return y, (xhat, inv, gain)


def layernorm_backward_reference(d_out, cache):
    xhat, inv, gain = cache
    n = xhat.shape[1]
    d_gain = (d_out * xhat).sum(axis=0)
    d_bias = d_out.sum(axis=0)
    d_xhat = d_out * gain
    d_x = (inv / n) * (
        n * d_xhat
        - d_xhat.sum(axis=1, keepdims=True)
        - xhat * (d_xhat * xhat).sum(axis=1, keepdims=True)
    )
    return d_x, d_gain, d_bias


def softmax_cross_entropy_reference(logits, targets):
    rows = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    exps = np.exp(shifted)
    sums = exps.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(sums)
    loss = -log_probs[np.arange(rows), targets].mean()
    d_logits = exps / sums
    d_logits[np.arange(rows), targets] -= 1.0
    d_logits /= rows
    return loss, d_logits


def adam_step_reference(params, grads, state, opt, lr):
    state.step_count += 1
    t = state.step_count
    b1, b2 = opt.beta1, opt.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for k, p in params.items():
        g = grads[k]
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + opt.eps)


# (rows, cols): a desk batch of tokens by d_model, a toy one, and an odd one
# whose width is no power of two, so dividing by it rounds
ROWS_COLS = {"desk": (512, 128), "toy": (128, 32), "odd": (7, 9)}
LOGITS = {"desk": (512, 257), "toy": (128, 30), "odd": (7, 9)}


class TestInPlaceMatchesReference:
    @pytest.mark.parametrize("shape", ROWS_COLS.values(), ids=ROWS_COLS.keys())
    def test_layernorm(self, shape):
        rng = np.random.default_rng(shape[0])
        x = normal_valued(rng, shape) * 3.0 + 1.0
        gain, bias = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
        d_out = normal_valued(rng, shape)
        inputs = snapshot((x, gain, bias, d_out))
        y, cache = nx.layernorm(x, gain, bias)
        assert snapshot((y, cache)) == snapshot(layernorm_reference(x, gain, bias))
        returned = snapshot(cache)
        grads = nx.layernorm_backward(d_out, cache)
        assert snapshot(grads) == snapshot(layernorm_backward_reference(d_out, cache))
        assert snapshot(cache) == returned
        assert snapshot((x, gain, bias, d_out)) == inputs

    @pytest.mark.parametrize("shape", LOGITS.values(), ids=LOGITS.keys())
    def test_softmax_cross_entropy(self, shape):
        rng = np.random.default_rng(shape[1])
        logits = 4.0 * normal_valued(rng, shape)
        logits[0, 0] = 800.0  # a saturated row
        targets = rng.integers(0, shape[1], shape[0])
        inputs = snapshot((logits, targets))
        out = nx.softmax_cross_entropy(logits, targets)
        assert snapshot(out) == snapshot(softmax_cross_entropy_reference(logits, targets))
        assert snapshot((logits, targets)) == inputs

    def test_adam_step_over_several_steps(self):
        rng = np.random.default_rng(3)
        shapes = {"desk": (512, 128), "vector": (128,), "odd": (7, 8)}
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        ref_params = {k: p.copy() for k, p in params.items()}
        state = nx.AdamState.for_params(params)
        ref_state = nx.AdamState.for_params(ref_params)
        opt = nx.OptimizerConfig()
        for step in range(1, 6):
            grads = {k: normal_valued(rng, s) for k, s in shapes.items()}
            given = snapshot(grads)
            nx.adam_step(params, grads, state, opt, lr=0.01 * step)
            adam_step_reference(ref_params, grads, ref_state, opt, lr=0.01 * step)
            assert snapshot(grads) == given
            assert snapshot((params, state)) == snapshot((ref_params, ref_state))


def _on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class TestKeepFreedHeap:
    def test_off_glibc_does_nothing(self, monkeypatch):
        def no_glibc(name):
            raise ValueError("unrecognized configuration name")

        def no_load(*args, **kwargs):
            raise AssertionError("libc was loaded")

        monkeypatch.setattr(nx.os, "confstr", no_glibc)
        monkeypatch.setattr(nx.ctypes, "CDLL", no_load)
        assert nx._keep_freed_heap() is None

    def test_sets_mmap_and_trim_thresholds(self, monkeypatch):
        calls = []

        class FakeLibc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 0  # a refusal is ignored

        monkeypatch.setattr(nx.os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(nx.ctypes, "CDLL", lambda name: FakeLibc())
        nx._keep_freed_heap()
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]

    @pytest.mark.skipif(not _on_glibc(), reason="glibc malloc only")
    def test_desk_steps_fault_in_no_memory(self):
        # importing ssdlab kept the freed heap: a desk step used to take
        # about 15k minor faults, each step re-faulting what the last freed
        from ssdlab.model import GPT, ModelConfig, lm_loss

        cfg = ModelConfig(n_layers=4, d_model=128, n_heads=4, d_ff=512,
                          vocab_size=257, max_seq_len=64)
        rng = nx.make_rng(0)
        model = GPT.init(cfg, rng)
        adam = nx.AdamState.for_params(model.params)
        opt = nx.OptimizerConfig()
        faults = []
        for _ in range(5):
            batch = rng.integers(0, 257, size=(8, 65))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            _, grads, _ = lm_loss(model, batch)
            nx.adam_step(model.params, grads, adam, opt, 1e-3)
            del grads
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert max(faults[2:]) < 1000, faults
