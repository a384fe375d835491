"""Small GPT-style decoder-only LM: pre-LN blocks, causal multi-head attention,
ReLU feed-forward sublayers, learned positional embeddings, untied output head.

`lm_loss` counts each layer's exactly-zero post-ReLU hidden entries as the
forward runs and returns the counts, not the hidden states, from which
`activation_sparsity` measures sparsity for both training and `analyze`;
it keeps caches for the manual backward pass only when asked for gradients.
A forward-only pass holds one sublayer's working set: each block drops its
layernorm and attention caches before its FFN runs, and the loss is taken
without its logit gradient.
Feed-forward sublayers compute densely,

    ffn(x) = w_out @ relu(w_in @ x + b_in) + b_out,

unless a sparse expert layout is attached to the model. Both forms live in
ssdlab.moe, and the block calls them directly: ffn_forward and ffn_backward
on a dense layer, moe.smoe_forward and moe.smoe_backward on a sparse one.

Bias adds, ReLU, the attention mask and softmax, and the residual adds run in
place on arrays the same function has just created, with the same operations
in the same order as the out-of-place formulas, so results are bit-identical.
Ownership rule: a function never overwrites an array it was passed, nor one
it has stored in a cache tuple. A backward may drop the cache it is handed,
deleting each array after its last read, so a caller that keeps no
reference to the cache frees it as the backward runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from ssdlab import moe
from ssdlab.moe import FFNWeights, ffn_backward, ffn_forward
from ssdlab.numerics import (
    FlatDict,
    bmm_nn,
    bmm_nt,
    bmm_tn,
    cross_entropy,
    layernorm,
    layernorm_backward,
    layernorm_output,
    matmul,
    matmul_nt,
    matmul_tn,
    softmax_cross_entropy,
)

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


def param_layout(config: ModelConfig) -> tuple:
    """(name, shape) in param_names order: the layout of every parameter or
    moment set, in memory (a FlatDict) and in a checkpoint's payload."""
    return tuple((name, param_shape(name, config)) for name in param_names(config))


def init_params(config: ModelConfig, rng: np.random.Generator) -> FlatDict:
    """Gaussian(0, 0.02) weights, unit LN gains, zero biases, drawn straight
    into the views of one buffer in param_layout order.

    Each weight holds rng.normal(0.0, INIT_STD, size=shape) bit for bit:
    normal is 0.0 + INIT_STD * (the next standard normal draw), so it is the
    same draws, scaled and added to 0.0 in place, with no temporary.
    Zero FFN biases keep pre-activations sign-symmetric at init, which is what
    puts initial activation sparsity at ~0.5.
    """
    params = FlatDict(param_layout(config))
    for name, p in params.items():
        if name.endswith(("gain",)):
            p.fill(1.0)
        elif name.endswith(("bias", "b_in", "b_out")):
            p.fill(0.0)
        else:
            rng.standard_normal(out=p)
            p *= INIT_STD
            p += 0.0  # normal's loc: a -0.0 draw ends as 0.0
    return params


class GPT:
    """Model bundle: config + flat parameter dict + optional per-layer expert
    layouts (`moe[i]` is None while layer i computes densely).

    Its params are a FlatDict, views by name into one buffer in param_layout
    order, whether initialised, copied for training or loaded from a
    checkpoint; adam_step updates the buffer as one, and the layouts hold
    the same views."""

    def __init__(self, config: ModelConfig, params: FlatDict):
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
# Causal multi-head attention
# -----------------------------------------------------------------------------


def _heads(x2d, batch, seq, n_heads, head_dim):
    # (B*T, d) -> contiguous (B, H, T, hd)
    return np.ascontiguousarray(
        x2d.reshape(batch, seq, n_heads, head_dim).transpose(0, 2, 1, 3))


def _unheads(x4d, batch, seq, d_model):
    return x4d.transpose(0, 2, 1, 3).reshape(batch * seq, d_model)


@lru_cache(maxsize=None)
def _future_mask(seq: int) -> np.ndarray:
    """Read-only (seq, seq) mask of the positions a causal query must not see."""
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def attention_forward(p: dict, prefix: str, x2d, batch, seq, n_heads):
    d_model = x2d.shape[1]
    head_dim = d_model // n_heads
    scale = 1.0 / np.sqrt(head_dim)
    q = matmul_nt(x2d, p[prefix + "attn_wq"])
    k = matmul_nt(x2d, p[prefix + "attn_wk"])
    v = matmul_nt(x2d, p[prefix + "attn_wv"])
    q4 = _heads(q, batch, seq, n_heads, head_dim)
    del q
    k4 = _heads(k, batch, seq, n_heads, head_dim)
    del k
    v4 = _heads(v, batch, seq, n_heads, head_dim)
    del v
    probs = bmm_nt(q4, k4)
    probs *= scale
    np.copyto(probs, -np.inf, where=_future_mask(seq))
    probs -= probs.max(axis=3, keepdims=True)
    np.exp(probs, out=probs)  # exactly 0 on masked positions
    probs /= probs.sum(axis=3, keepdims=True)
    ctx4 = bmm_nn(probs, v4)
    ctx = _unheads(ctx4, batch, seq, d_model)
    del ctx4
    out = matmul_nt(ctx, p[prefix + "attn_wo"])
    cache = (x2d, q4, k4, v4, probs, ctx, scale)
    return out, cache


def attention_backward(p: dict, prefix: str, cache, d_out, batch, seq, n_heads):
    x2d, q4, k4, v4, probs, ctx, scale = cache
    del cache
    d_model = x2d.shape[1]
    head_dim = d_model // n_heads
    d_ctx = matmul(d_out, p[prefix + "attn_wo"])
    d_wo = matmul_tn(d_out, ctx)
    del ctx
    d_ctx4 = _heads(d_ctx, batch, seq, n_heads, head_dim)
    del d_ctx
    d_probs = bmm_nt(d_ctx4, v4)
    d_v4 = bmm_tn(probs, d_ctx4)
    del d_ctx4, v4
    d_v = _unheads(d_v4, batch, seq, d_model)
    del d_v4
    # d_scores = probs * (d_probs - sum(d_probs * probs))
    d_scores = d_probs * probs
    d_probs -= d_scores.sum(axis=3, keepdims=True)
    np.multiply(probs, d_probs, out=d_scores)
    del probs, d_probs
    d_q4 = bmm_nn(d_scores, k4)
    d_q4 *= scale
    d_k4 = bmm_tn(d_scores, q4)
    d_k4 *= scale
    del d_scores, k4, q4
    d_q = _unheads(d_q4, batch, seq, d_model)
    del d_q4
    d_k = _unheads(d_k4, batch, seq, d_model)
    del d_k4
    d_wq = matmul_tn(d_q, x2d)
    d_wk = matmul_tn(d_k, x2d)
    d_wv = matmul_tn(d_v, x2d)
    del x2d
    d_x = matmul(d_q, p[prefix + "attn_wq"])
    d_x += matmul(d_k, p[prefix + "attn_wk"])
    d_x += matmul(d_v, p[prefix + "attn_wv"])
    grads = {"attn_wq": d_wq, "attn_wk": d_wk, "attn_wv": d_wv, "attn_wo": d_wo}
    return d_x, grads


# -----------------------------------------------------------------------------
# Transformer block and full model
# -----------------------------------------------------------------------------


def _block_forward(model: GPT, layer: int, x2d, batch, seq, keep_cache=True):
    """Returns (y, hidden, cache). cache is (ln1_cache, ln2_cache,
    attention cache, FFN cache), each sublayer's cache without the
    layernorm output it read, which _block_backward rebuilds.

    With keep_cache False, for a pass no backward follows, cache is None
    and the block holds one sublayer's working set: each layernorm's cache
    goes as soon as the layernorm returns, and attention's cache before
    the FFN runs.
    """
    p = model.params
    pre = f"block{layer}."
    h1, ln1_cache = layernorm(x2d, p[pre + "ln1_gain"], p[pre + "ln1_bias"])
    if not keep_cache:
        ln1_cache = None
    attn_out, attn_cache = attention_forward(p, pre, h1, batch, seq, model.config.n_heads)
    del h1
    attn_cache = attn_cache[1:] if keep_cache else None  # drops h1
    attn_out += x2d  # residual
    x2d = attn_out
    h2, ln2_cache = layernorm(x2d, p[pre + "ln2_gain"], p[pre + "ln2_bias"])
    if not keep_cache:
        ln2_cache = None
    layout = model.moe[layer]
    if layout is not None:
        ffn_out, _, hidden, ffn_cache = moe.smoe_forward(layout, h2)
    else:
        ffn_out, hidden, ffn_cache = ffn_forward(model.ffn_weights(layer), h2)
    ffn_out += x2d  # residual
    if not keep_cache:
        return ffn_out, hidden, None
    return ffn_out, hidden, (ln1_cache, ln2_cache, attn_cache, ffn_cache[1:])


def _sublayer_cache(ln_cache, bias, caches: list):
    """Pops the last of caches, a sublayer cache without its input, and
    puts the input back in front: the layernorm output rebuilt from
    ln_cache and bias. Passed straight to the sublayer's backward, the
    returned tuple is held by nothing else."""
    return (layernorm_output(ln_cache, bias), *caches.pop())


def _block_backward(model: GPT, layer: int, cache, d_y, batch, seq):
    """Returns (d_x, grads). Each sublayer's cache is handed to its backward
    and kept nowhere here, so when the caller keeps no reference to cache,
    each activation is freed at its last read."""
    ln1_cache, ln2_cache, *sublayer_caches = cache
    del cache
    p = model.params
    pre = f"block{layer}."
    layout = model.moe[layer]
    if layout is not None:
        d_h2, ffn_grads = moe.smoe_backward(
            layout, _sublayer_cache(ln2_cache, p[pre + "ln2_bias"], sublayer_caches), d_y)
    else:
        d_h2, ffn_grads = ffn_backward(
            model.ffn_weights(layer),
            _sublayer_cache(ln2_cache, p[pre + "ln2_bias"], sublayer_caches), d_y)[:2]
    d_x, d_ln2_gain, d_ln2_bias = layernorm_backward(d_h2, ln2_cache)
    del d_h2, ln2_cache
    d_x += d_y  # residual
    d_h1, attn_grads = attention_backward(
        p, pre, _sublayer_cache(ln1_cache, p[pre + "ln1_bias"], sublayer_caches),
        d_x, batch, seq, model.config.n_heads)
    d_x0, d_ln1_gain, d_ln1_bias = layernorm_backward(d_h1, ln1_cache)
    d_x0 += d_x  # residual
    grads = {pre + "ln1_gain": d_ln1_gain, pre + "ln1_bias": d_ln1_bias,
             pre + "ln2_gain": d_ln2_gain, pre + "ln2_bias": d_ln2_bias}
    for k, v in attn_grads.items():
        grads[pre + k] = v
    for k, v in ffn_grads.items():
        grads[pre + "ffn_" + k] = v
    return d_x0, grads


def count_zeros(a: np.ndarray) -> int:
    """The entries of a equal to 0.0, -0.0 included and NaN not, as
    np.count_nonzero(a == 0.0) counts them but without its bool array."""
    return a.size - int(np.count_nonzero(a))


def scatter_rows(ids: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """A fresh (n_rows, width) array whose row i sums rows[j] over every j
    with ids[j] == i: np.add.at into zeros, as one np.bincount, which sums
    each entry from 0.0 in the order of j, as np.add.at does."""
    width = rows.shape[1]
    flat = (ids.reshape(-1, 1) * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=rows.ravel(),
                       minlength=n_rows * width).reshape(n_rows, width)


def _forward(model: GPT, token_ids: np.ndarray, caches):
    """Runs the full model on (batch, seq) int token ids.

    Returns (logits, counts); counts holds one (zeros, size) pair per
    layer, the exactly-zero entries of its post-ReLU feed-forward state
    and that state's size, batch*seq*d_ff. A `caches` list receives
    each block's backward cache, then the head's (lnf_cache, h_f); with
    None, the blocks keep no cache and each hidden state is dropped once
    counted, before the next block runs.
    """
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2:
        raise ValueError("token_ids must be (batch, seq)")
    batch, seq = token_ids.shape
    cfg = model.config
    if seq < 1:
        raise ValueError(f"sequence length must be >= 1, got {seq}")
    if seq > cfg.max_seq_len:
        raise ValueError(f"sequence length {seq} exceeds max_seq_len {cfg.max_seq_len}")
    if token_ids.min() < 0 or token_ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of vocabulary")
    p = model.params
    x = p["tok_emb"][token_ids]  # a fresh (batch, seq, d_model) gather
    x += p["pos_emb"][:seq]
    x = x.reshape(batch * seq, cfg.d_model)
    counts = []
    for layer in range(cfg.n_layers):
        x, hidden, cache = _block_forward(model, layer, x, batch, seq,
                                          keep_cache=caches is not None)
        counts.append((count_zeros(hidden), hidden.size))
        if caches is not None:
            caches.append(cache)
        del hidden, cache
    h_f, lnf_cache = layernorm(x, p["ln_f_gain"], p["ln_f_bias"])
    logits = matmul_nt(h_f, p["head"])
    if caches is not None:
        caches.append((lnf_cache, h_f))
    return logits, counts


def lm_loss(model: GPT, token_ids: np.ndarray, want_grads: bool = True):
    """Causal LM loss over (batch, seq+1) token ids.

    Positions 0..seq-1 predict positions 1..seq; loss is the mean NLL over all
    predicted positions. Returns (loss, grads, counts); counts holds each
    layer's (zeros, size) of its post-ReLU hidden state, which
    activation_sparsity reads. grads is None, and no backward cache is
    kept, when want_grads is False: the pass holds one sublayer's working
    set, each block's layernorm and attention caches gone before its FFN
    runs and its hidden state before the next block runs, and the loss
    comes from cross_entropy, which forms no logit gradient.

    The backward frees the forward's activations as it consumes them: the
    logits and the head's cache go before the first block's backward, and
    each block's cache is popped into its backward, which drops each array
    at its last read, so block i's FFN activations are gone before its
    attention backward allocates and all of its caches before block i-1's
    backward does. The blocks cache no layernorm output; the backward
    rebuilds each from its layernorm's cache. No activation outlives the
    call.
    """
    token_ids = np.asarray(token_ids)
    inputs = token_ids[:, :-1]
    targets = token_ids[:, 1:].reshape(-1)
    block_caches = [] if want_grads else None
    logits, counts = _forward(model, inputs, block_caches)
    if not want_grads:
        return cross_entropy(logits, targets), None, counts
    loss, d_logits = softmax_cross_entropy(logits, targets)
    del logits
    batch, seq = inputs.shape
    lnf_cache, h_f = block_caches.pop()
    p = model.params
    grads = {"head": matmul_tn(d_logits, h_f)}
    d_hf = matmul(d_logits, p["head"])
    del d_logits, h_f
    d_x, grads["ln_f_gain"], grads["ln_f_bias"] = layernorm_backward(d_hf, lnf_cache)
    del d_hf, lnf_cache
    for layer in range(model.config.n_layers - 1, -1, -1):
        d_x, block_grads = _block_backward(model, layer, block_caches.pop(),
                                           d_x, batch, seq)
        grads.update(block_grads)
    grads["tok_emb"] = scatter_rows(inputs.reshape(-1), d_x, p["tok_emb"].shape[0])
    d_pos = np.zeros_like(p["pos_emb"])
    d_pos[:seq] = d_x.reshape(batch, seq, -1).sum(axis=0)
    grads["pos_emb"] = d_pos
    return loss, grads, counts


def activation_sparsity(count_batches) -> list:
    """Per-layer fraction of exactly-zero post-ReLU entries.

    count_batches is an iterable of per-layer (zeros, size) lists, one per
    batch, in the form lm_loss returns them. Zeros and sizes are summed per
    layer and divided once, so the result does not depend on how the tokens
    were batched. No epsilon: ReLU produces exact zeros.
    """
    totals = None
    for counts in count_batches:
        totals = counts if totals is None else [
            (z + bz, n + bn) for (z, n), (bz, bn) in zip(totals, counts)]
    if totals is None:
        raise ValueError("no hidden states to measure")
    return [float(z / n) for z, n in totals]
