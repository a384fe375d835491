import weakref

import numpy as np
import pytest

from ssdlab import model as model_module
from ssdlab import moe as moe_module
from ssdlab.clustering import Partition
from ssdlab.model import (
    GPT,
    FFNWeights,
    ModelConfig,
    _block_backward,
    _block_forward,
    _forward,
    _heads,
    _unheads,
    attention_backward,
    attention_forward,
    ffn_backward,
    ffn_forward,
    lm_loss,
)
from ssdlab.moe import attach_experts
from ssdlab.numerics import (
    bmm_nn,
    bmm_nt,
    bmm_tn,
    layernorm,
    layernorm_backward,
    make_rng,
    matmul,
    matmul_nt,
    matmul_tn,
    relu,
    relu_backward,
)

from conftest import max_grad_error, min_relu_margin, snapshot, traced_peak

GRAD_CFG = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=24,
                       vocab_size=11, max_seq_len=8)
GRAD_SEED = 28  # pre-activations stay clear of the ReLU kink at this seed


def small_model(seed=GRAD_SEED, cfg=GRAD_CFG):
    rng = make_rng(seed)
    model = GPT.init(cfg, rng)
    ids = rng.integers(0, cfg.vocab_size, size=(2, 7))
    return model, ids


class TestModelConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d_model=30, n_heads=4)

    def test_base_scale_preset(self):
        cfg = ModelConfig.base_scale()
        assert (cfg.n_layers, cfg.d_model, cfg.d_ff) == (12, 768, 6144)


class TestFFN:
    def test_identity_weights(self):
        w = FFNWeights(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        y, hidden, _ = ffn_forward(w, np.array([[2.0, -3.0]]))
        assert y.tolist() == [[2.0, 0.0]]
        assert hidden.tolist() == [[2.0, 0.0]]

    def test_output_bias(self):
        w = FFNWeights(np.eye(2), np.zeros(2), np.eye(2), np.array([1.0, 1.0]))
        y, _, _ = ffn_forward(w, np.array([[2.0, -3.0]]))
        assert y.tolist() == [[3.0, 1.0]]

    def test_backward_matches_finite_differences(self):
        rng = make_rng(3)
        w = FFNWeights(rng.standard_normal((10, 6)), rng.standard_normal(10),
                       rng.standard_normal((6, 10)), rng.standard_normal(6))
        x = rng.standard_normal((4, 6))
        d_out = rng.standard_normal((4, 6))

        def loss():
            y, _, _ = ffn_forward(w, x)
            return (y * d_out).sum()

        _, _, cache = ffn_forward(w, x)
        d_x, grads = ffn_backward(w, cache, d_out)
        pairs = [(x, d_x)] + [(getattr(w, k), grads[k])
                              for k in ("w_in", "b_in", "w_out", "b_out")]
        assert max_grad_error(loss, pairs, samples=12) < 1e-4

    def test_permutation_invariance(self):
        # simultaneous permutation of w_in rows, b_in entries, w_out columns
        # leaves the output unchanged: the fact that licenses expert splitting
        rng = make_rng(4)
        w = FFNWeights(rng.standard_normal((12, 5)), rng.standard_normal(12),
                       rng.standard_normal((5, 12)), rng.standard_normal(5))
        x = rng.standard_normal((3, 5))
        perm = rng.permutation(12)
        w2 = FFNWeights(w.w_in[perm], w.b_in[perm], w.w_out[:, perm], w.b_out)
        y1, _, _ = ffn_forward(w, x)
        y2, _, _ = ffn_forward(w2, x)
        assert np.allclose(y1, y2, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        w = FFNWeights(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            ffn_forward(w, np.zeros((1, 3)))


class TestBlock:
    def test_residual_passthrough_with_zero_weights(self):
        model, _ = small_model()
        for name, arr in model.params.items():
            if "attn_w" in name or "ffn_w" in name:
                arr[:] = 0.0
        x = make_rng(0).standard_normal((5, GRAD_CFG.d_model))
        y, _, _ = _block_forward(model, 0, x, 1, 5)
        assert np.array_equal(y, x)

    def test_causality(self):
        model, ids = small_model()
        logits_a, _ = _forward(model, ids, None)
        t = 3
        ids_b = ids.copy()
        ids_b[:, t + 1:] = (ids_b[:, t + 1:] + 1) % GRAD_CFG.vocab_size
        logits_b, _ = _forward(model, ids_b, None)
        batch, seq = ids.shape
        la = logits_a.reshape(batch, seq, -1)
        lb = logits_b.reshape(batch, seq, -1)
        assert np.array_equal(la[:, :t + 1], lb[:, :t + 1])
        assert not np.array_equal(la[:, t + 1:], lb[:, t + 1:])

    def test_sequence_length_limit(self):
        model, _ = small_model()
        too_long = np.zeros((1, GRAD_CFG.max_seq_len + 2), dtype=np.int64)
        with pytest.raises(ValueError, match="max_seq_len"):
            lm_loss(model, too_long, want_grads=False)


class TestLmLoss:
    def test_uniform_logits_give_log_vocab(self):
        model, ids = small_model()
        model.params["head"][:] = 0.0
        loss, _, _ = lm_loss(model, ids, want_grads=False)
        assert abs(loss - np.log(GRAD_CFG.vocab_size)) < 1e-12

    def test_out_of_vocab_rejected(self):
        model, ids = small_model()
        bad = ids.copy()
        bad[0, 0] = GRAD_CFG.vocab_size
        with pytest.raises(ValueError, match="vocabulary"):
            lm_loss(model, bad, want_grads=False)

    def test_empty_sequence_rejected(self):
        model, ids = small_model()
        with pytest.raises(ValueError) as e:
            lm_loss(model, ids[:, :1], want_grads=False)
        assert str(e.value) == "sequence length must be >= 1, got 0"

    def test_gradcheck_end_to_end(self):
        model, ids = small_model()
        assert min_relu_margin(model, ids[:, :-1]) > 20 * 1e-5
        loss, grads, _ = lm_loss(model, ids)

        def loss_fn():
            l, _, _ = lm_loss(model, ids, want_grads=False)
            return l

        pairs = [(model.params[k], grads[k]) for k in model.params]
        assert max_grad_error(loss_fn, pairs, samples=8) < 1e-3

    def test_zero_counts_exposed_per_layer(self):
        model, ids = small_model()
        _, _, counts = lm_loss(model, ids, want_grads=False)
        assert len(counts) == GRAD_CFG.n_layers
        batch, seq = ids.shape
        assert all(n == batch * (seq - 1) * GRAD_CFG.d_ff for _, n in counts)
        assert all(type(z) is int and 0 < z < n for z, n in counts)

    def test_desk_eval_forward_holds_one_block_at_a_time(self):
        # desk shape, batch 8x64: every layer's (512, 512) hidden state kept
        # to the end of the call took 14.6 MiB
        cfg = ModelConfig(max_seq_len=64)
        rng = make_rng(0)
        model = GPT.init(cfg, rng)
        ids = rng.integers(0, cfg.vocab_size, size=(8, 65))
        _, peak = traced_peak(lambda: lm_loss(model, ids, want_grads=False))
        assert peak < 10 * (1 << 20), peak

    def test_loss_decreases_on_repetitive_data(self, toy_corpus):
        from ssdlab.training import DenseTrain, OptimizerConfig, RunConfig, train
        from conftest import toy_model_config

        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        run = RunConfig(total_steps=200, batch_size=4, val_interval=200,
                        val_sequences=8, sparsity_interval=0)
        _, records = train(cfg, toy_corpus, DenseTrain(),
                           OptimizerConfig(base_lr=1.0, warmup=200), seed=0, run=run)
        first = np.mean([r.loss for r in records[:20]])
        last = np.mean([r.loss for r in records[-20:]])
        assert last < first * 0.7


# -----------------------------------------------------------------------------
# The in-place sublayers against their out-of-place formulas
# -----------------------------------------------------------------------------


def ffn_forward_reference(w, x):
    """One fresh array per operator."""
    pre = matmul_nt(x, w.w_in) + w.b_in
    hidden = relu(pre)
    y = matmul_nt(hidden, w.w_out) + w.b_out
    return y, hidden, (x, hidden)


def ffn_backward_reference(w, cache, d_y):
    x, hidden = cache
    d_w_out = matmul_tn(d_y, hidden)
    d_b_out = d_y.sum(axis=0)
    d_hidden = matmul(d_y, w.w_out)
    d_pre = relu_backward(d_hidden, hidden)
    d_w_in = matmul_tn(d_pre, x)
    d_b_in = d_pre.sum(axis=0)
    d_x = matmul(d_pre, w.w_in)
    return d_x, {"w_in": d_w_in, "b_in": d_b_in, "w_out": d_w_out, "b_out": d_b_out}


def attention_forward_reference(p, prefix, x2d, batch, seq, n_heads):
    d_model = x2d.shape[1]
    head_dim = d_model // n_heads
    scale = 1.0 / np.sqrt(head_dim)
    q = matmul_nt(x2d, p[prefix + "attn_wq"])
    k = matmul_nt(x2d, p[prefix + "attn_wk"])
    v = matmul_nt(x2d, p[prefix + "attn_wv"])
    q4 = _heads(q, batch, seq, n_heads, head_dim)
    k4 = _heads(k, batch, seq, n_heads, head_dim)
    v4 = _heads(v, batch, seq, n_heads, head_dim)
    scores = bmm_nt(q4, k4) * scale
    allowed = np.tril(np.ones((seq, seq), dtype=bool))
    shifted = np.where(allowed, scores, -np.inf)
    shifted = shifted - shifted.max(axis=3, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=3, keepdims=True)
    ctx4 = bmm_nn(probs, v4)
    ctx = _unheads(ctx4, batch, seq, d_model)
    out = matmul_nt(ctx, p[prefix + "attn_wo"])
    return out, (x2d, q4, k4, v4, probs, ctx, scale)


def attention_backward_reference(p, prefix, cache, d_out, batch, seq, n_heads):
    x2d, q4, k4, v4, probs, ctx, scale = cache
    d_model = x2d.shape[1]
    head_dim = d_model // n_heads
    d_ctx = matmul(d_out, p[prefix + "attn_wo"])
    d_wo = matmul_tn(d_out, ctx)
    d_ctx4 = _heads(d_ctx, batch, seq, n_heads, head_dim)
    d_probs = bmm_nt(d_ctx4, v4)
    d_v4 = bmm_tn(probs, d_ctx4)
    d_scores = probs * (d_probs - (d_probs * probs).sum(axis=3, keepdims=True))
    d_q4 = bmm_nn(d_scores, k4) * scale
    d_k4 = bmm_tn(d_scores, q4) * scale
    d_q = _unheads(d_q4, batch, seq, d_model)
    d_k = _unheads(d_k4, batch, seq, d_model)
    d_v = _unheads(d_v4, batch, seq, d_model)
    d_x = matmul(d_q, p[prefix + "attn_wq"])
    d_x += matmul(d_k, p[prefix + "attn_wk"])
    d_x += matmul(d_v, p[prefix + "attn_wv"])
    return d_x, {"attn_wq": matmul_tn(d_q, x2d), "attn_wk": matmul_tn(d_k, x2d),
                 "attn_wv": matmul_tn(d_v, x2d), "attn_wo": d_wo}


def block_forward_reference(model, layer, x2d, batch, seq):
    """A dense pre-LN block whose residual adds make fresh arrays."""
    p = model.params
    pre = f"block{layer}."
    h1, ln1_cache = layernorm(x2d, p[pre + "ln1_gain"], p[pre + "ln1_bias"])
    attn_out, attn_cache = attention_forward_reference(p, pre, h1, batch, seq,
                                                       model.config.n_heads)
    x2d = x2d + attn_out
    h2, ln2_cache = layernorm(x2d, p[pre + "ln2_gain"], p[pre + "ln2_bias"])
    ffn_out, hidden, ffn_cache = ffn_forward_reference(model.ffn_weights(layer), h2)
    return x2d + ffn_out, hidden, (ln1_cache, attn_cache, ln2_cache, ffn_cache)


def block_backward_reference(model, layer, cache, d_y, batch, seq):
    ln1_cache, attn_cache, ln2_cache, ffn_cache = cache
    pre = f"block{layer}."
    d_h2, ffn_grads = ffn_backward_reference(model.ffn_weights(layer), ffn_cache, d_y)
    d_x, d_ln2_gain, d_ln2_bias = layernorm_backward(d_h2, ln2_cache)
    d_x = d_x + d_y
    d_h1, attn_grads = attention_backward_reference(model.params, pre, attn_cache, d_x,
                                                    batch, seq, model.config.n_heads)
    d_x0, d_ln1_gain, d_ln1_bias = layernorm_backward(d_h1, ln1_cache)
    grads = {pre + "ln1_gain": d_ln1_gain, pre + "ln1_bias": d_ln1_bias,
             pre + "ln2_gain": d_ln2_gain, pre + "ln2_bias": d_ln2_bias}
    grads.update({pre + k: v for k, v in attn_grads.items()})
    grads.update({pre + "ffn_" + k: v for k, v in ffn_grads.items()})
    return d_x0 + d_x, grads


# (batch, seq, ModelConfig fields): the desk and toy shapes, and an odd one
# with 7 tokens of width 8
SHAPES = {
    "desk": (8, 64, dict(n_layers=1, d_model=128, n_heads=4, d_ff=512)),
    "toy": (4, 32, dict(n_layers=1, d_model=32, n_heads=2, d_ff=64)),
    "odd": (1, 7, dict(n_layers=1, d_model=8, n_heads=2, d_ff=12)),
}


def perturbed_model(fields, seed, vocab_size=13, max_seq_len=64):
    """An initialised model with every parameter moved off its init value,
    so the layernorm gains and the biases take part."""
    rng = make_rng(seed)
    model = GPT.init(ModelConfig(**fields, vocab_size=vocab_size,
                                 max_seq_len=max_seq_len), rng)
    for p in model.params.values():
        p += rng.normal(0.0, 0.05, p.shape)
    return model, rng


@pytest.mark.parametrize("batch, seq, fields", SHAPES.values(), ids=SHAPES.keys())
class TestInPlaceMatchesReference:
    def test_ffn(self, batch, seq, fields):
        model, rng = perturbed_model(fields, seq)
        w = model.ffn_weights(0)
        x = rng.standard_normal((batch * seq, fields["d_model"]))
        d_y = rng.standard_normal(x.shape)
        inputs = snapshot((x, d_y, model.params))
        y, hidden, cache = ffn_forward(w, x)
        assert snapshot((y, hidden, cache)) == snapshot(ffn_forward_reference(w, x))
        returned = snapshot((hidden, cache))
        out = ffn_backward(w, cache, d_y)
        assert snapshot(out) == snapshot(ffn_backward_reference(w, cache, d_y))
        assert snapshot((hidden, cache)) == returned
        assert snapshot((x, d_y, model.params)) == inputs

    def test_attention(self, batch, seq, fields):
        model, rng = perturbed_model(fields, seq + 1)
        p, heads = model.params, fields["n_heads"]
        x = rng.standard_normal((batch * seq, fields["d_model"]))
        d_out = rng.standard_normal(x.shape)
        inputs = snapshot((x, d_out, p))
        out, cache = attention_forward(p, "block0.", x, batch, seq, heads)
        assert snapshot((out, cache)) == snapshot(
            attention_forward_reference(p, "block0.", x, batch, seq, heads))
        returned = snapshot(cache)
        grads = attention_backward(p, "block0.", cache, d_out, batch, seq, heads)
        assert snapshot(grads) == snapshot(
            attention_backward_reference(p, "block0.", cache, d_out, batch, seq, heads))
        assert snapshot(cache) == returned
        assert snapshot((x, d_out, p)) == inputs

    def test_block_residuals(self, batch, seq, fields):
        model, rng = perturbed_model(fields, seq + 2)
        x = rng.standard_normal((batch * seq, fields["d_model"]))
        d_y = rng.standard_normal(x.shape)
        inputs = snapshot((x, d_y, model.params))
        y, hidden, cache = _block_forward(model, 0, x, batch, seq)
        assert snapshot((y, hidden, cache)) == snapshot(
            block_forward_reference(model, 0, x, batch, seq))
        returned = snapshot((hidden, cache))
        out = _block_backward(model, 0, cache, d_y, batch, seq)
        assert snapshot(out) == snapshot(
            block_backward_reference(model, 0, cache, d_y, batch, seq))
        assert snapshot((hidden, cache)) == returned
        assert snapshot((x, d_y, model.params)) == inputs


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
class TestLmLossAliasing:
    def model_and_batch(self, sparse):
        model, rng = perturbed_model(dict(n_layers=2, d_model=16, n_heads=2, d_ff=24),
                                     seed=9, vocab_size=11, max_seq_len=8)
        if sparse:
            parts = [Partition(rng.permutation(np.arange(24) % 4), 4) for _ in range(2)]
            attach_experts(model, parts, 2)
        return model, rng.integers(0, 11, size=(3, 8))

    def test_hiddens_do_not_depend_on_want_grads(self, sparse):
        # through their zero counts, the one thing lm_loss returns of them
        model, ids = self.model_and_batch(sparse)
        params = snapshot(model.params)
        loss, _, counts = lm_loss(model, ids)
        eval_loss, _, eval_counts = lm_loss(model, ids, want_grads=False)
        assert snapshot((loss, counts)) == snapshot((eval_loss, eval_counts))
        assert snapshot(model.params) == params

    def spy_ffn(self, sparse, monkeypatch) -> list:
        """Per FFN call, in layer order: the (zeros, size) of the hidden state
        it returned, counted here, and weak references to the hidden arrays
        it made (the sparse path also keeps the unmasked one)."""
        if sparse:
            module, name, pick = moe_module, "smoe_forward", lambda o: (o[2], o[3][1])
        else:
            module, name, pick = model_module, "ffn_forward", lambda o: (o[1],)
        real, calls = getattr(module, name), []

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            hiddens = pick(out)
            h = hiddens[0]
            calls.append(((h.size - np.count_nonzero(h), h.size),
                          [weakref.ref(a) for a in hiddens]))
            return out

        monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("want_grads", [False, True], ids=["eval", "train"])
    def test_counts_equal_a_direct_ffn_count(self, sparse, want_grads, monkeypatch):
        model, ids = self.model_and_batch(sparse)
        calls = self.spy_ffn(sparse, monkeypatch)
        _, _, counts = lm_loss(model, ids, want_grads)
        assert counts == [count for count, _ in calls]
        assert all(0 < z < n for z, n in counts)

    def test_forward_only_keeps_no_hidden_past_its_block(self, sparse, monkeypatch):
        model, ids = self.model_and_batch(sparse)
        calls = self.spy_ffn(sparse, monkeypatch)
        real = model_module._block_forward
        alive_at_start = []

        def spy(model, layer, x2d, batch, seq):
            alive_at_start.append([r() is not None for _, refs in calls for r in refs])
            return real(model, layer, x2d, batch, seq)

        monkeypatch.setattr(model_module, "_block_forward", spy)
        lm_loss(model, ids, want_grads=False)
        n_arrays = 2 if sparse else 1
        assert alive_at_start == [[], [False] * n_arrays]
        assert all(r() is None for _, refs in calls for r in refs)

    def test_training_keeps_no_hidden_past_its_block_backward(self, sparse, monkeypatch):
        model, ids = self.model_and_batch(sparse)
        calls = self.spy_ffn(sparse, monkeypatch)
        real = model_module._block_backward
        alive_at_start = {}

        def spy(model, layer, cache, d_y, batch, seq):
            alive_at_start[layer] = [[r() is not None for r in refs] for _, refs in calls]
            return real(model, layer, cache, d_y, batch, seq)

        monkeypatch.setattr(model_module, "_block_backward", spy)
        lm_loss(model, ids)
        n_arrays = 2 if sparse else 1
        # layer 1's hidden is cached for its backward, gone before layer 0's
        assert alive_at_start == {1: [[True] * n_arrays, [True] * n_arrays],
                                  0: [[True] * n_arrays, [False] * n_arrays]}
        assert all(r() is None for _, refs in calls for r in refs)

    def test_returned_arrays_share_no_memory(self, sparse):
        model, ids = self.model_and_batch(sparse)
        _, grads, _ = lm_loss(model, ids)
        arrays = list(grads.values()) + list(model.params.values())
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_block_caches_die_before_the_next_block_backward(self, sparse, monkeypatch):
        model, ids = self.model_and_batch(sparse)
        real = model_module._block_backward
        cached, dead_at_start = {}, {}

        def spy(model, layer, cache, d_y, batch, seq):
            later = cached.get(layer + 1, [])
            dead_at_start[layer] = [ref() is None for ref in later]
            ln1_cache, attn_cache, ln2_cache, _ = cache
            # attention probs, then each layernorm's xhat
            cached[layer] = [weakref.ref(attn_cache[4]), weakref.ref(ln1_cache[0]),
                             weakref.ref(ln2_cache[0])]
            return real(model, layer, cache, d_y, batch, seq)

        monkeypatch.setattr(model_module, "_block_backward", spy)
        lm_loss(model, ids)
        assert dead_at_start == {1: [], 0: [True, True, True]}

    def test_forward_only_keeps_no_block_cache(self, sparse, monkeypatch):
        model, ids = self.model_and_batch(sparse)
        real = model_module._block_forward
        cached, dead_at_start = {}, {}

        def spy(model, layer, x2d, batch, seq):
            earlier = cached.get(layer - 1, [])
            dead_at_start[layer] = [ref() is None for ref in earlier]
            y, hidden, cache = real(model, layer, x2d, batch, seq)
            ln1_cache, attn_cache, ln2_cache, _ = cache
            # attention probs, then each layernorm's xhat
            cached[layer] = [weakref.ref(attn_cache[4]), weakref.ref(ln1_cache[0]),
                             weakref.ref(ln2_cache[0])]
            del ln1_cache, attn_cache, ln2_cache
            return y, hidden, cache

        monkeypatch.setattr(model_module, "_block_forward", spy)
        lm_loss(model, ids, want_grads=False)
        assert dead_at_start == {0: [], 1: [True, True, True]}
