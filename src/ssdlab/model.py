"""Small GPT-style decoder-only LM: pre-LN blocks, causal multi-head attention,
ReLU feed-forward sublayers, learned positional embeddings, untied output head.

Forward passes return per-layer post-ReLU hidden states so activation sparsity
can be measured, and caches for the manual backward pass. Feed-forward
sublayers dispatch to a sparse expert layout when one is attached to the model
(see ssdlab.moe); otherwise they compute densely:

    ffn(x) = w_out @ relu(w_in @ x + b_in) + b_out
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from ssdlab.numerics import (
    bmm_nn,
    bmm_nt,
    bmm_tn,
    layernorm,
    layernorm_backward,
    matmul,
    matmul_nt,
    matmul_tn,
    relu,
    relu_backward,
    softmax_cross_entropy,
)

LN_EPS = 1e-5
INIT_STD = 0.02


@dataclass
class ModelConfig:
    n_layers: int = 4
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 512
    vocab_size: int = 257
    max_seq_len: int = 128

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    @classmethod
    def base_scale(cls):
        """Base-size preset: 12 layers, 768 hidden, 12 heads, 6144 intermediate."""
        return cls(n_layers=12, d_model=768, n_heads=12, d_ff=6144,
                   vocab_size=257, max_seq_len=512)

    def to_dict(self):
        return asdict(self)


@dataclass
class FFNWeights:
    """One feed-forward block; arrays are references, not copies."""

    w_in: np.ndarray   # (d_ff, d_model)
    b_in: np.ndarray   # (d_ff,)
    w_out: np.ndarray  # (d_model, d_ff)
    b_out: np.ndarray  # (d_model,)

    def validate(self):
        d_ff, d_model = self.w_in.shape
        if self.b_in.shape != (d_ff,) or self.w_out.shape != (d_model, d_ff) \
                or self.b_out.shape != (d_model,):
            raise ValueError("inconsistent FFN weight shapes")


def param_names(config: ModelConfig) -> list[str]:
    """Canonical parameter order; checkpoints serialize tensors in this order."""
    names = ["tok_emb", "pos_emb"]
    for i in range(config.n_layers):
        names += [
            f"block{i}.ln1_gain", f"block{i}.ln1_bias",
            f"block{i}.attn_wq", f"block{i}.attn_wk",
            f"block{i}.attn_wv", f"block{i}.attn_wo",
            f"block{i}.ln2_gain", f"block{i}.ln2_bias",
            f"block{i}.ffn_w_in", f"block{i}.ffn_b_in",
            f"block{i}.ffn_w_out", f"block{i}.ffn_b_out",
        ]
    names += ["ln_f_gain", "ln_f_bias", "head"]
    return names


def param_shape(name: str, config: ModelConfig) -> tuple:
    c = config
    base = name.split(".")[-1]
    shapes = {
        "tok_emb": (c.vocab_size, c.d_model),
        "pos_emb": (c.max_seq_len, c.d_model),
        "ln1_gain": (c.d_model,), "ln1_bias": (c.d_model,),
        "attn_wq": (c.d_model, c.d_model), "attn_wk": (c.d_model, c.d_model),
        "attn_wv": (c.d_model, c.d_model), "attn_wo": (c.d_model, c.d_model),
        "ln2_gain": (c.d_model,), "ln2_bias": (c.d_model,),
        "ffn_w_in": (c.d_ff, c.d_model), "ffn_b_in": (c.d_ff,),
        "ffn_w_out": (c.d_model, c.d_ff), "ffn_b_out": (c.d_model,),
        "ln_f_gain": (c.d_model,), "ln_f_bias": (c.d_model,),
        "head": (c.vocab_size, c.d_model),
    }
    return shapes[base]


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict:
    """Gaussian(0, 0.02) weights, unit LN gains, zero biases.

    Zero FFN biases keep pre-activations sign-symmetric at init, which is what
    puts initial activation sparsity at ~0.5.
    """
    params = {}
    for name in param_names(config):
        shape = param_shape(name, config)
        if name.endswith(("gain",)):
            params[name] = np.ones(shape)
        elif name.endswith(("bias", "b_in", "b_out")):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape)
    return params


class GPT:
    """Model bundle: config + flat parameter dict + optional per-layer expert
    layouts (`moe[i]` is None while layer i computes densely)."""

    def __init__(self, config: ModelConfig, params: dict):
        self.config = config
        self.params = params
        self.moe = [None] * config.n_layers

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "GPT":
        return cls(config, init_params(config, rng))

    def ffn_weights(self, layer: int) -> FFNWeights:
        p = self.params
        return FFNWeights(
            w_in=p[f"block{layer}.ffn_w_in"], b_in=p[f"block{layer}.ffn_b_in"],
            w_out=p[f"block{layer}.ffn_w_out"], b_out=p[f"block{layer}.ffn_b_out"],
        )

# -----------------------------------------------------------------------------
# Feed-forward sublayer
# -----------------------------------------------------------------------------


def ffn_forward(w: FFNWeights, x: np.ndarray):
    """y = w_out @ relu(w_in @ x + b_in) + b_out, rowwise over tokens.

    Returns (y, hidden, cache); hidden is the post-ReLU state used for
    sparsity analysis.
    """
    w.validate()
    if x.shape[1] != w.w_in.shape[1]:
        raise ValueError(f"input width {x.shape[1]} != d_model {w.w_in.shape[1]}")
    pre = matmul_nt(x, w.w_in) + w.b_in
    hidden = relu(pre)
    y = matmul_nt(hidden, w.w_out) + w.b_out
    return y, hidden, (x, hidden)


def ffn_backward(w: FFNWeights, cache, d_y: np.ndarray):
    """Returns (d_x, grads) with grads keyed w_in/b_in/w_out/b_out."""
    x, hidden = cache
    d_w_out = matmul_tn(d_y, hidden)
    d_b_out = d_y.sum(axis=0)
    d_hidden = matmul(d_y, w.w_out)
    d_pre = relu_backward(d_hidden, hidden)  # hidden > 0 exactly where pre > 0
    d_w_in = matmul_tn(d_pre, x)
    d_b_in = d_pre.sum(axis=0)
    d_x = matmul(d_pre, w.w_in)
    return d_x, {"w_in": d_w_in, "b_in": d_b_in, "w_out": d_w_out, "b_out": d_b_out}


# -----------------------------------------------------------------------------
# Causal multi-head attention
# -----------------------------------------------------------------------------


def _heads(x2d, batch, seq, n_heads, head_dim):
    # (B*T, d) -> contiguous (B, H, T, hd)
    return np.ascontiguousarray(
        x2d.reshape(batch, seq, n_heads, head_dim).transpose(0, 2, 1, 3))


def _unheads(x4d, batch, seq, d_model):
    return x4d.transpose(0, 2, 1, 3).reshape(batch * seq, d_model)


def attention_forward(p: dict, prefix: str, x2d, batch, seq, n_heads):
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
    expd = np.exp(shifted)  # exactly 0 on masked positions
    probs = expd / expd.sum(axis=3, keepdims=True)
    ctx4 = bmm_nn(probs, v4)
    ctx = _unheads(ctx4, batch, seq, d_model)
    out = matmul_nt(ctx, p[prefix + "attn_wo"])
    cache = (x2d, q4, k4, v4, probs, ctx, scale)
    return out, cache


def attention_backward(p: dict, prefix: str, cache, d_out, batch, seq, n_heads):
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
    d_wq = matmul_tn(d_q, x2d)
    d_wk = matmul_tn(d_k, x2d)
    d_wv = matmul_tn(d_v, x2d)
    d_x = matmul(d_q, p[prefix + "attn_wq"])
    d_x += matmul(d_k, p[prefix + "attn_wk"])
    d_x += matmul(d_v, p[prefix + "attn_wv"])
    grads = {"attn_wq": d_wq, "attn_wk": d_wk, "attn_wv": d_wv, "attn_wo": d_wo}
    return d_x, grads


# -----------------------------------------------------------------------------
# Transformer block and full model
# -----------------------------------------------------------------------------


def _block_forward(model: GPT, layer: int, x2d, batch, seq):
    p = model.params
    pre = f"block{layer}."
    h1, ln1_cache = layernorm(x2d, p[pre + "ln1_gain"], p[pre + "ln1_bias"], LN_EPS)
    attn_out, attn_cache = attention_forward(p, pre, h1, batch, seq, model.config.n_heads)
    x2d = x2d + attn_out
    h2, ln2_cache = layernorm(x2d, p[pre + "ln2_gain"], p[pre + "ln2_bias"], LN_EPS)
    layout = model.moe[layer]
    if layout is not None:
        ffn_out, hidden, ffn_cache = layout.forward(h2)
    else:
        ffn_out, hidden, ffn_cache = ffn_forward(model.ffn_weights(layer), h2)
    y = x2d + ffn_out
    return y, hidden, (ln1_cache, attn_cache, ln2_cache, ffn_cache)


def _block_backward(model: GPT, layer: int, cache, d_y, batch, seq):
    ln1_cache, attn_cache, ln2_cache, ffn_cache = cache
    pre = f"block{layer}."
    layout = model.moe[layer]
    if layout is not None:
        d_h2, ffn_grads = layout.backward(ffn_cache, d_y)
    else:
        d_h2, ffn_grads = ffn_backward(model.ffn_weights(layer), ffn_cache, d_y)
    d_x, d_ln2_gain, d_ln2_bias = layernorm_backward(d_h2, ln2_cache)
    d_x = d_x + d_y  # residual
    d_h1, attn_grads = attention_backward(model.params, pre, attn_cache, d_x,
                                          batch, seq, model.config.n_heads)
    d_x0, d_ln1_gain, d_ln1_bias = layernorm_backward(d_h1, ln1_cache)
    d_x0 = d_x0 + d_x  # residual
    grads = {pre + "ln1_gain": d_ln1_gain, pre + "ln1_bias": d_ln1_bias,
             pre + "ln2_gain": d_ln2_gain, pre + "ln2_bias": d_ln2_bias}
    for k, v in attn_grads.items():
        grads[pre + k] = v
    for k, v in ffn_grads.items():
        grads[pre + "ffn_" + k] = v
    return d_x0, grads


def block_forward(model: GPT, layer: int, x: np.ndarray) -> np.ndarray:
    """One pre-LN block applied to a single sequence (seq, d_model)."""
    seq = x.shape[0]
    if seq > model.config.max_seq_len:
        raise ValueError(f"sequence length {seq} exceeds max_seq_len")
    y, _, _ = _block_forward(model, layer, x, 1, seq)
    return y


def forward_with_cache(model: GPT, token_ids: np.ndarray):
    """Runs the full model on (batch, seq) int token ids.

    Returns (logits, hiddens, caches); hiddens are the per-layer post-ReLU
    feed-forward states, (batch*seq, d_ff) each.
    """
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2:
        raise ValueError("token_ids must be (batch, seq)")
    batch, seq = token_ids.shape
    cfg = model.config
    if seq > cfg.max_seq_len:
        raise ValueError(f"sequence length {seq} exceeds max_seq_len {cfg.max_seq_len}")
    if token_ids.min() < 0 or token_ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of vocabulary")
    p = model.params
    x = p["tok_emb"][token_ids.reshape(-1)] + np.tile(p["pos_emb"][:seq], (batch, 1))
    hiddens = []
    block_caches = []
    for layer in range(cfg.n_layers):
        x, hidden, cache = _block_forward(model, layer, x, batch, seq)
        hiddens.append(hidden)
        block_caches.append(cache)
    h_f, lnf_cache = layernorm(x, p["ln_f_gain"], p["ln_f_bias"], LN_EPS)
    logits = matmul_nt(h_f, p["head"])
    return logits, hiddens, (token_ids, batch, seq, block_caches, lnf_cache, h_f)


def lm_loss(model: GPT, token_ids: np.ndarray, want_grads: bool = True):
    """Causal LM loss over (batch, seq+1) token ids.

    Positions 0..seq-1 predict positions 1..seq; loss is the mean NLL over all
    predicted positions. Returns (loss, grads, hiddens); grads is None when
    want_grads is False.
    """
    token_ids = np.asarray(token_ids)
    inputs = token_ids[:, :-1]
    targets = token_ids[:, 1:].reshape(-1)
    logits, hiddens, cache = forward_with_cache(model, inputs)
    loss, d_logits = softmax_cross_entropy(logits, targets)
    if not want_grads:
        return loss, None, hiddens
    _, batch, seq, block_caches, lnf_cache, h_f = cache
    p = model.params
    grads = {"head": matmul_tn(d_logits, h_f)}
    d_hf = matmul(d_logits, p["head"])
    d_x, grads["ln_f_gain"], grads["ln_f_bias"] = layernorm_backward(d_hf, lnf_cache)
    for layer in range(model.config.n_layers - 1, -1, -1):
        d_x, block_grads = _block_backward(model, layer, block_caches[layer],
                                           d_x, batch, seq)
        grads.update(block_grads)
    d_tok = np.zeros_like(p["tok_emb"])
    np.add.at(d_tok, inputs.reshape(-1), d_x)
    grads["tok_emb"] = d_tok
    d_pos = np.zeros_like(p["pos_emb"])
    d_pos[:seq] = d_x.reshape(batch, seq, -1).sum(axis=0)
    grads["pos_emb"] = d_pos
    return loss, grads, hiddens
