"""Dense linear algebra, differentiable primitives, Adam, and the
warmup/decay learning-rate schedule.

Every matrix product goes through one kernel, numpy's `matmul`, which calls
the BLAS numpy links. BLAS picks its own summation order (blocking, vector
lanes, fused multiply-adds, and a split across its threads), so a product
need not match a naive triple loop bit for bit; it is exact wherever every
partial sum is, and otherwise within the usual n * eps * (|A| @ |B|) bound.
It is deterministic for one machine, numpy/BLAS build and BLAS thread count:
there, replays and resumes are bit-identical, and two calls on the same
operand shapes and values return the same bits, which is what makes the K=N
sparse forward equal the dense one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Read by the benchmark's environment stamp; no kernel uses numba.
HAS_NUMBA = False


# -----------------------------------------------------------------------------
# Matrix products
# -----------------------------------------------------------------------------


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., m, n) @ (..., n, p) on BLAS; raises on shape mismatch."""
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    return np.matmul(a, b)


def _check_2d_f64(name, x):
    if not isinstance(x, np.ndarray) or x.ndim != 2 or x.dtype != np.float64:
        raise ValueError(f"{name} must be a 2-D float64 array, got "
                         f"{getattr(x, 'shape', None)} {getattr(x, 'dtype', type(x))}")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; raises on shape mismatch."""
    _check_2d_f64("a", a)
    _check_2d_f64("b", b)
    return _matmul(np.ascontiguousarray(a), np.ascontiguousarray(b))


def matmul_nt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T, reducing over the shared trailing axis."""
    _check_2d_f64("a", a)
    _check_2d_f64("b", b)
    return _matmul(np.ascontiguousarray(a), np.ascontiguousarray(b).T)


def matmul_tn(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b, reducing over the shared leading axis."""
    _check_2d_f64("a", a)
    _check_2d_f64("b", b)
    return _matmul(np.ascontiguousarray(a).T, np.ascontiguousarray(b))


# -----------------------------------------------------------------------------
# Batched (batch, head, ...) products for attention
# -----------------------------------------------------------------------------


def bmm_nt(a, b):
    """Per (batch, head): a @ b.T over the last axis."""
    return _matmul(np.ascontiguousarray(a), np.ascontiguousarray(b).swapaxes(-1, -2))


def bmm_nn(a, b):
    """Per (batch, head): a @ b."""
    return _matmul(np.ascontiguousarray(a), np.ascontiguousarray(b))


def bmm_tn(a, b):
    """Per (batch, head): a.T @ b."""
    return _matmul(np.ascontiguousarray(a).swapaxes(-1, -2), np.ascontiguousarray(b))


# -----------------------------------------------------------------------------
# Elementwise / rowwise primitives with explicit backwards
# -----------------------------------------------------------------------------


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(d_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Subgradient at exactly 0 is 0 ('zeros are inactive')."""
    return d_out * (x > 0.0)


def layernorm(x, gain, bias, eps=1e-5):
    """Per-row zero-mean unit-variance normalization, then affine.

    Returns (y, cache) where cache feeds layernorm_backward.
    """
    if gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise ValueError("gain/bias length must equal x.cols")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gain + bias
    return y, (xhat, inv, gain)


def layernorm_backward(d_out, cache):
    """Returns (d_x, d_gain, d_bias)."""
    xhat, inv, gain = cache
    n = xhat.shape[1]
    d_gain = (d_out * xhat).sum(axis=0)
    d_bias = d_out.sum(axis=0)
    d_xhat = d_out * gain
    # d_x = inv/n * (n*d_xhat - sum(d_xhat) - xhat * sum(d_xhat*xhat))
    d_x = (inv / n) * (
        n * d_xhat
        - d_xhat.sum(axis=1, keepdims=True)
        - xhat * (d_xhat * xhat).sum(axis=1, keepdims=True)
    )
    return d_x, d_gain, d_bias


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean next-token NLL and its logit gradient.

    targets are class indices, one per row. Returns (loss, d_logits) with
    d_logits = (softmax - onehot) / rows. Max-subtraction keeps the
    exponentials finite for saturated logits.
    """
    targets = np.asarray(targets)
    rows, cols = logits.shape
    if targets.shape != (rows,):
        raise ValueError(f"targets shape {targets.shape} != ({rows},)")
    if targets.min() < 0 or targets.max() >= cols:
        raise ValueError("target index out of range")
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


# -----------------------------------------------------------------------------
# Optimizer and schedule
# -----------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step_count=0,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.shape} for {k}")
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def noam_lr(step: int, warmup: int = 2000, d_model: int = 128, base: float = 0.5) -> float:
    """base * d_model^-0.5 * min(step^-0.5, step * warmup^-1.5)."""
    if step < 1 or warmup < 1:
        raise ValueError("step and warmup must be >= 1")
    return base * d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


# -----------------------------------------------------------------------------
# RNG plumbing
# -----------------------------------------------------------------------------

# Purpose tags keep derived seeds disjoint across uses of the same run seed.
SEED_TAG_INIT = 1
SEED_TAG_BATCH = 2
SEED_TAG_CLUSTER = 3
SEED_TAG_POLICY = 4
SEED_TAG_SMOE_INIT = 5
SEED_TAG_VALIDATION = 6
SEED_TAG_EVAL_MOEFY = 7


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; identical seed + call sequence => identical stream."""
    return np.random.Generator(np.random.PCG64(seed))


def derived_rng(seed: int, tag: int, *extra: int) -> np.random.Generator:
    """Stateless child generator for (seed, purpose, context) tuples.

    Used for randomness off the main training stream (clustering seeds,
    policy coins) so that resume and thread count never perturb it.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, *extra])))


def rng_state(rng: np.random.Generator) -> dict:
    st = rng.bit_generator.state
    return {"state": int(st["state"]["state"]), "inc": int(st["state"]["inc"]),
            "has_uint32": int(st["has_uint32"]), "uinteger": int(st["uinteger"])}


def restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state["state"], "inc": state["inc"]},
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }
    return rng
