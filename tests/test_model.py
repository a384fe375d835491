import numpy as np
import pytest

from ssdlab.model import (
    GPT,
    FFNWeights,
    ModelConfig,
    block_forward,
    ffn_backward,
    ffn_forward,
    forward_with_cache,
    lm_loss,
)
from ssdlab.numerics import make_rng

from conftest import max_grad_error, min_relu_margin

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
        y = block_forward(model, 0, x)
        assert np.array_equal(y, x)

    def test_causality(self):
        model, ids = small_model()
        logits_a, _, _ = forward_with_cache(model, ids)
        t = 3
        ids_b = ids.copy()
        ids_b[:, t + 1:] = (ids_b[:, t + 1:] + 1) % GRAD_CFG.vocab_size
        logits_b, _, _ = forward_with_cache(model, ids_b)
        batch, seq = ids.shape
        la = logits_a.reshape(batch, seq, -1)
        lb = logits_b.reshape(batch, seq, -1)
        assert np.array_equal(la[:, :t + 1], lb[:, :t + 1])
        assert not np.array_equal(la[:, t + 1:], lb[:, t + 1:])

    def test_sequence_length_limit(self):
        model, _ = small_model()
        too_long = np.zeros((1, GRAD_CFG.max_seq_len + 1), dtype=np.int64)
        with pytest.raises(ValueError, match="max_seq_len"):
            forward_with_cache(model, too_long)


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
            forward_with_cache(model, ids[:, :0])
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

    def test_hiddens_exposed_per_layer(self):
        model, ids = small_model()
        _, _, hiddens = lm_loss(model, ids, want_grads=False)
        assert len(hiddens) == GRAD_CFG.n_layers
        batch, seq = ids.shape
        assert hiddens[0].shape == (batch * (seq - 1), GRAD_CFG.d_ff)
        assert all(h.min() >= 0 for h in hiddens)

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
