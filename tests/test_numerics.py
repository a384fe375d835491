import copy
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
        with pytest.raises(ValueError, match="out of range"):
            nx.cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_loss_only_on_saturated_logits(self):
        logits = np.array([[1e4, 0.0], [0.0, 1e4], [-1e4, 1e4]])
        targets = np.array([0, 0, 1])
        with np.errstate(over="raise"):
            loss = nx.cross_entropy(logits, targets)
            assert snapshot(loss) == snapshot(nx.softmax_cross_entropy(logits, targets)[0])
        assert loss == 1e4 / 3


class TestAdam:
    def test_zero_grad_fresh_state_leaves_params(self):
        params = nx.flat_copy({"w": np.array([1.0, -2.0, 3.0])})
        state = nx.AdamState.for_params(params)
        nx.adam_step(params, {"w": np.zeros(3)}, state, nx.OptimizerConfig(), lr=0.1)
        assert params["w"].tolist() == [1.0, -2.0, 3.0]

    def test_first_step_closed_form(self):
        lr = 0.01
        params = nx.flat_copy({"w": np.array([0.0])})
        state = nx.AdamState.for_params(params)
        nx.adam_step(params, {"w": np.array([1.0])}, state, nx.OptimizerConfig(), lr=lr)
        assert abs(params["w"][0] + lr) < 1e-6 * lr

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(8)
            params = nx.flat_copy({"w": rng.standard_normal((3, 3))})
            state = nx.AdamState.for_params(params)
            for _ in range(10):
                nx.adam_step(params, {"w": rng.standard_normal((3, 3))}, state,
                             nx.OptimizerConfig(), 0.05)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        params = nx.flat_copy({"w": np.zeros((2, 2))})
        state = nx.AdamState.for_params(params)
        with pytest.raises(ValueError, match="shape"):
            nx.adam_step(params, {"w": np.zeros(3)}, state, nx.OptimizerConfig(), 0.1)

    def test_reset_zeroes_the_moments_in_place(self):
        # the reset ablation at a dense-to-sparse conversion: the moments
        # restart from zero in the arrays checkpoints and adam_step hold
        params = nx.flat_copy({"w": np.zeros((2, 2)), "head": np.zeros(3)})
        state = nx.AdamState.for_params(params)
        for _ in range(5):
            nx.adam_step(params, {"w": np.ones((2, 2)), "head": np.ones(3)}, state,
                         nx.OptimizerConfig(), 0.1)
        held = {k: (state.m[k], state.v[k]) for k in params}
        assert state.step_count == 5 and np.all(state.m["head"] != 0.0)
        state.reset()
        for k, (m, v) in held.items():
            assert state.m[k] is m and state.v[k] is v
            assert np.all(m == 0.0) and np.all(v == 0.0)
        assert state.step_count == 0


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
        assert nx.noam_lr(2000, 2000, 768, 0.5) == pytest.approx(0.5 * 768 ** -0.5 * 2000 ** -0.5)

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

    @pytest.mark.parametrize("shape", ROWS_COLS.values(), ids=ROWS_COLS.keys())
    def test_layernorm_row_statistics_are_the_mean_bit_for_bit(self, shape):
        # layernorm sums and divides; x.mean runs the same add.reduce and
        # true divide, here on rows of -0.0, of mixed signed zeros, of one
        # sign, and of magnitudes far apart
        rng = np.random.default_rng(shape[1])
        x = normal_valued(rng, shape)
        x[0] = -0.0
        x[1, ::2] = 0.0
        x[1, 1::2] = -0.0
        x[2] = np.abs(x[2]) * 1e150
        x[3] = -np.abs(x[3]) * 1e-150
        x[4] += 1e12
        gain, bias = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
        assert snapshot(nx.layernorm(x, gain, bias)) == snapshot(
            layernorm_reference(x, gain, bias))

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

    @pytest.mark.parametrize("shape", LOGITS.values(), ids=LOGITS.keys())
    def test_cross_entropy_is_softmax_cross_entropys_loss(self, shape):
        rng = np.random.default_rng(shape[1])
        logits = 4.0 * normal_valued(rng, shape)
        logits[0, 0] = 800.0  # a saturated row
        targets = rng.integers(0, shape[1], shape[0])
        inputs = snapshot((logits, targets))
        loss = nx.cross_entropy(logits, targets)
        assert snapshot(loss) == snapshot(nx.softmax_cross_entropy(logits, targets)[0])
        assert snapshot((logits, targets)) == inputs

    def test_adam_step_over_several_steps(self):
        rng = np.random.default_rng(3)
        shapes = {"desk": (512, 128), "vector": (128,), "odd": (7, 8)}
        params = nx.flat_copy({k: rng.standard_normal(s) for k, s in shapes.items()})
        ref_params = {k: p.copy() for k, p in params.items()}
        state = nx.AdamState.for_params(params)
        ref_state = nx.AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                                 v={k: np.zeros_like(p) for k, p in params.items()})
        opt = nx.OptimizerConfig()
        for step in range(1, 6):
            grads = {k: normal_valued(rng, s) for k, s in shapes.items()}
            given = snapshot(grads)
            nx.adam_step(params, grads, state, opt, lr=0.01 * step)
            adam_step_reference(ref_params, grads, ref_state, opt, lr=0.01 * step)
            assert snapshot(grads) == given
            assert snapshot((params, state)) == snapshot((ref_params, ref_state))


def one_buffer(arrays, names):
    """arrays is a FlatDict whose views tile its buffer in names' order."""
    if not isinstance(arrays, nx.FlatDict) or list(arrays) != list(names):
        return False
    base, start = arrays.buffer.__array_interface__["data"][0], 0
    for a in arrays.values():
        if a.base is not arrays.buffer or a.__array_interface__["data"][0] != base + 8 * start:
            return False
        start += a.size
    return start == arrays.buffer.size


class TestFlatStore:
    def desk_model(self):
        from ssdlab.model import GPT, ModelConfig

        return GPT.init(ModelConfig(vocab_size=257, max_seq_len=64), nx.make_rng(0))

    def test_adam_over_a_desk_model_matches_the_reference(self):
        model = self.desk_model()
        sizes = [p.size for p in model.params.values()]
        assert max(sizes) > nx.ADAM_RUN > min(sizes)  # sliced and joined runs both
        params = model.params
        state = nx.AdamState.for_params(params)
        ref_params = {k: p.copy() for k, p in params.items()}
        ref_state = nx.AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                                 v={k: np.zeros_like(p) for k, p in params.items()})
        opt = nx.OptimizerConfig()
        rng = np.random.default_rng(4)
        for step in range(1, 7):
            if step == 4:  # the reset ablation, then more steps
                state.reset()
                for a in (*ref_state.m.values(), *ref_state.v.values()):
                    a.fill(0.0)
                ref_state.step_count = 0
            grads = {k: normal_valued(rng, p.shape) for k, p in params.items()}
            given = snapshot(grads)
            nx.adam_step(params, grads, state, opt, lr=1e-3 * step)
            adam_step_reference(ref_params, grads, ref_state, opt, lr=1e-3 * step)
            assert snapshot(grads) == given
            assert snapshot((params, state)) == snapshot((ref_params, ref_state))
        for arrays in (params, state.m, state.v):
            assert one_buffer(arrays, ref_params)

    def test_plain_multi_tensor_dicts_rejected(self):
        shapes = {"w": (2, 2), "head": (3,)}
        plain = {k: np.ones(s) for k, s in shapes.items()}
        flat = nx.flat_copy(plain)
        reordered = nx.flat_copy({"head": plain["head"], "w": plain["w"]})
        grads = {k: np.ones(s) for k, s in shapes.items()}
        one = {"w": np.ones((2, 2))}  # one C-ordered tensor is still not a FlatDict
        cases = [(plain, nx.AdamState.for_params(flat)),
                 (one, nx.AdamState.for_params(nx.flat_copy(one))),
                 (flat, nx.AdamState(m={k: np.zeros(s) for k, s in shapes.items()},
                                     v=nx.flat_copy(flat))),
                 (flat, nx.AdamState.for_params(reordered))]
        for params, state in cases:
            held = snapshot((params, state))
            with pytest.raises(ValueError, match="views of one buffer"):
                nx.adam_step(params, grads, state, nx.OptimizerConfig(), 0.1)
            assert snapshot((params, state)) == held  # nothing moved

    def test_flat_copy_is_one_fresh_buffer(self):
        rng = np.random.default_rng(5)
        arrays = {"a": normal_valued(rng, (3, 4)), "b": normal_valued(rng, (5,))}
        copied = nx.flat_copy(arrays)
        assert snapshot(copied) == snapshot(arrays)
        assert one_buffer(copied, arrays)
        assert not any(np.shares_memory(copied.buffer, a) for a in arrays.values())
        again = nx.flat_copy(copied)
        assert snapshot(again) == snapshot(arrays)
        assert not np.shares_memory(again.buffer, copied.buffer)

    def test_names_are_fixed(self):
        params = nx.flat_copy({"w": np.zeros(3), "b": np.zeros(2)})
        held = list(params.values())
        for change in (lambda: params.__setitem__("w", np.ones(3)),
                       lambda: params.update(w=np.ones(3)),
                       lambda: params.pop("w"),
                       lambda: params.__delitem__("b")):
            with pytest.raises(TypeError, match="names are fixed"):
                change()
        assert params["w"] is held[0] and params["b"] is held[1]
        assert one_buffer(params, ["w", "b"])

    def test_augmented_assignment_writes_in_place(self):
        # d[name] *= x writes into the view, then sets the name to that same
        # view, which is allowed; copies still rebind names and raise
        params = nx.flat_copy({"w": np.arange(3.0), "b": np.ones(2)})
        held = params["w"]
        params["w"] *= 2.0
        params["b"] += params["w"][:2]
        assert params["w"] is held and params["w"].tolist() == [0.0, 2.0, 4.0]
        assert params["b"].tolist() == [1.0, 3.0]
        assert params.buffer.tolist() == [0.0, 2.0, 4.0, 1.0, 3.0]
        assert one_buffer(params, ["w", "b"])
        for copier in (copy.copy, copy.deepcopy):
            with pytest.raises(TypeError, match="names are fixed"):
                copier(params)
        for rebind in (lambda: params.__setitem__("w", held.copy()),
                       lambda: params.__setitem__("new", None)):
            with pytest.raises(TypeError, match="names are fixed"):
                rebind()
        assert params["w"] is held and list(params) == ["w", "b"]


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
