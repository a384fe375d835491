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

Elementwise steps write into arrays the same function has just created
(`out=` and augmented assignment) instead of making one temporary per
operator. Each such step performs the same IEEE operations on the same
values in the same order as the out-of-place formula, so results are
bit-identical to it. Ownership rule: a function never overwrites an array
it was passed, nor one it has returned or stored in a cache.

Importing the package calls `_keep_freed_heap` once, which makes glibc's
malloc keep freed heap in the process instead of handing it back after each
step. A training step frees tens of MiB of activations, and with glibc's
defaults the next step faults the same pages in again: at desk shape on 2
cores, about 15.5k minor faults and 42-50 ms of system time in a 141-154 ms
dense step, none with the call. Where an array lands in memory enters no
computation, so results do not change.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

# Read by the benchmark's environment stamp; no kernel uses numba.
HAS_NUMBA = False

# glibc <malloc.h> mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Stop glibc from returning a training step's freed memory to the kernel.

    Sets M_MMAP_THRESHOLD to 32 MiB, so the multi-MiB activations come from
    the heap instead of their own mappings, and M_TRIM_THRESHOLD to 256 MiB,
    above a desk step's working set, so freeing them does not shrink the
    heap. Both are process-wide; a host program that wants other values sets
    them after importing ssdlab. Does nothing off glibc, and a parameter
    glibc refuses (mallopt returns 0) is left at its default.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 256 << 20)


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
    xhat = x - mu
    y = xhat * xhat  # scratch until the affine step
    var = y.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, (xhat, inv, gain)


def layernorm_backward(d_out, cache):
    """Returns (d_x, d_gain, d_bias)."""
    xhat, inv, gain = cache
    n = xhat.shape[1]
    scratch = d_out * xhat
    d_gain = scratch.sum(axis=0)
    d_bias = d_out.sum(axis=0)
    d_xhat = d_out * gain
    # d_x = inv/n * (n*d_xhat - sum(d_xhat) - xhat * sum(d_xhat*xhat))
    row_sum = d_xhat.sum(axis=1, keepdims=True)
    np.multiply(d_xhat, xhat, out=scratch)
    np.multiply(xhat, scratch.sum(axis=1, keepdims=True), out=scratch)
    d_x = d_xhat
    d_x *= n
    d_x -= row_sum
    d_x -= scratch
    d_x *= inv / n
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
    target = (np.arange(rows), targets)
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    target_shifted = shifted[target]
    d_logits = np.exp(shifted, out=shifted)
    sums = d_logits.sum(axis=1, keepdims=True)
    loss = -(target_shifted - np.log(sums[:, 0])).mean()
    d_logits /= sums
    d_logits[target] -= 1.0
    d_logits /= rows
    return loss, d_logits


# -----------------------------------------------------------------------------
# Optimizer and schedule
# -----------------------------------------------------------------------------


@dataclass
class OptimizerConfig:
    """Adam and the noam schedule; the one home of the Adam hyperparameters."""

    base_lr: float = 0.5
    warmup: int = 2000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        # json reads NaN and Infinity; every range check below fails on NaN
        for name, value in self.to_dict().items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.base_lr > 0.0:
            raise ValueError("base_lr must be > 0")
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if not self.eps > 0.0:
            raise ValueError("eps must be > 0")

    def to_dict(self):
        return asdict(self)


@dataclass
class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step_count: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict, grads: dict, state: AdamState, opt: OptimizerConfig,
              lr: float) -> None:
    """One bias-corrected Adam update, in place."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = opt.beta1, opt.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.shape} for {k}")
        m = state.m[k]
        v = state.v[k]
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), through two buffers
        scratch = np.multiply(g, 1.0 - b1)
        m *= b1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v *= b2
        v += scratch
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += opt.eps
        update = m / c1
        update *= lr
        update /= scratch
        p -= update


def noam_lr(step: int, warmup: int = 2000, d_model: int = 128, base: float = 0.5) -> float:
    """base * d_model^-0.5 * min(step^-0.5, step * warmup^-1.5)."""
    if step < 1 or warmup < 1:
        raise ValueError("step and warmup must be >= 1")
    return base * d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


# -----------------------------------------------------------------------------
# RNG plumbing
# -----------------------------------------------------------------------------

# Purpose tags keep derived seeds disjoint across uses of the same run seed.
# Their values are part of every derived seed: never renumber them.
SEED_TAG_CLUSTER = 3
SEED_TAG_POLICY = 4
SEED_TAG_SMOE_INIT = 5
SEED_TAG_VALIDATION = 6


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; identical seed + call sequence => identical stream."""
    return np.random.Generator(np.random.PCG64(seed))


def derived_rng(seed: int, tag: int, *extra: int) -> np.random.Generator:
    """Stateless child generator for (seed, purpose, context) tuples.

    Used for randomness off the main training stream (clustering seeds,
    policy coins) so that a resume never perturbs it.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, *extra])))


def rng_state(rng: np.random.Generator) -> dict:
    st = rng.bit_generator.state
    return {"state": int(st["state"]["state"]), "inc": int(st["state"]["inc"]),
            "has_uint32": int(st["has_uint32"]), "uinteger": int(st["uinteger"])}


def restore_rng(state: dict) -> np.random.Generator:
    """Inverse of rng_state; rejects values it could not have written."""
    if not all(type(state[k]) is int for k in ("state", "inc", "has_uint32", "uinteger")):
        raise TypeError("rng 'state', 'inc', 'has_uint32', 'uinteger' must be integers")
    if state["has_uint32"] not in (0, 1):
        raise ValueError("rng 'has_uint32' must be 0 or 1")
    rng = np.random.Generator(np.random.PCG64(0))
    try:
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state["state"], "inc": state["inc"]},
            "has_uint32": state["has_uint32"],
            "uinteger": state["uinteger"],
        }
    except OverflowError as e:
        raise ValueError(f"rng value out of the generator's range: {e}") from e
    return rng
