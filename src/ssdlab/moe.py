"""The feed-forward sublayer in its two forms: the dense ReLU FFN, and the
same neurons viewed as experts, with centroid gating, straight-through score
post-processing, the sparse forward/backward pass, and batch-level dynamic
top-k truncation.

A layer becomes sparse in one way only: attach_experts puts a MoEFFN view over
the model's own feed-forward arrays, which stay in their original neuron order
with the neuron-to-expert map recorded beside them; setting the layer back to
None makes it dense again. ssdlab.model's block calls ffn_forward and
ffn_backward on a dense layer and smoe_forward and smoe_backward on a sparse
one. The sparse pair runs the dense pair's own code (ffn_hidden and
ffn_backward) on the same memory and adds only the routing mask and the gate,
so the K=N forward is bit-identical to the dense forward and a
dense->sparse->dense round trip leaves every parameter as it was.

The routing mask multiplies the post-ReLU hidden state in place: selected
experts keep coefficient exactly 1, unselected ones get exactly 0. It is the
forward value of the straight-through coefficient 1 + s - stop_grad(s); the
derivative through the raw gate score s lives in smoe_backward, on selected
(token, expert) pairs only, so every parameter of an expert no token selected
receives an exactly-zero gradient. Ownership rule: a function never
overwrites an array it was passed, nor one it has returned or cached; a
backward may drop the cache it is handed, deleting each array after its
last read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ssdlab.clustering import Partition
from ssdlab.numerics import matmul, matmul_nt, matmul_tn


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


def ffn_hidden(w: FFNWeights, x: np.ndarray) -> np.ndarray:
    """relu(w_in @ x + b_in) rowwise over tokens, in a fresh array."""
    w.validate()
    if x.shape[1] != w.w_in.shape[1]:
        raise ValueError(f"input width {x.shape[1]} != d_model {w.w_in.shape[1]}")
    hidden = matmul_nt(x, w.w_in)
    hidden += w.b_in
    np.maximum(hidden, 0.0, out=hidden)  # relu
    return hidden


def ffn_forward(w: FFNWeights, x: np.ndarray):
    """y = w_out @ relu(w_in @ x + b_in) + b_out, rowwise over tokens.

    Returns (y, hidden, cache); hidden is the post-ReLU state whose zeros
    lm_loss counts.
    """
    hidden = ffn_hidden(w, x)
    y = matmul_nt(hidden, w.w_out)
    y += w.b_out
    return y, hidden, (x, hidden)


def ffn_backward(w: FFNWeights, cache, d_y: np.ndarray):
    """Returns (d_x, grads, d_pre): grads keyed w_in/b_in/w_out/b_out, and
    the pre-activation gradient. The dense block calls it directly and
    smoe_backward calls it for the hidden path, whose gate then reads d_pre."""
    x, hidden = cache
    del cache
    d_w_out = matmul_tn(d_y, hidden)
    d_b_out = d_y.sum(axis=0)
    d_pre = matmul(d_y, w.w_out)
    d_pre *= hidden > 0.0  # relu backward: hidden > 0 exactly where pre > 0
    del hidden
    d_w_in = matmul_tn(d_pre, x)
    del x
    d_b_in = d_pre.sum(axis=0)
    d_x = matmul(d_pre, w.w_in)
    return d_x, {"w_in": d_w_in, "b_in": d_b_in, "w_out": d_w_out, "b_out": d_b_out}, d_pre


@dataclass
class GateDecision:
    """Per-token raw expert scores and the selected-expert mask."""

    scores: np.ndarray    # (tokens, num_experts) raw x . centroid
    selected: np.ndarray  # (tokens, num_experts) bool


class MoEFFN:
    """A feed-forward block viewed as num_experts equal sub-networks.

    Weights stay in original neuron order; `partition.assignment[j]` names the
    expert owning neuron j, and within an expert neurons keep ascending
    original index. Centroids are recomputed from the live input weights on
    every use, never cached. The partition is fixed for the object's life, so
    its (d_ff, num_experts) expert indicator is built once, read-only.
    """

    def __init__(self, weights: FFNWeights, partition: Partition,
                 active_experts: int):
        weights.validate()
        partition.validate_balanced()
        d_ff = weights.w_in.shape[0]
        if partition.assignment.size != d_ff:
            raise ValueError("partition length != d_ff")
        if not 1 <= active_experts <= partition.num_clusters:
            raise ValueError("active expert count must be in [1, num_experts]")
        self.weights = weights
        self.partition = partition
        self.num_experts = partition.num_clusters
        self.active_experts = active_experts
        self.dynamic_ratio = 0.0  # batch-level candidate truncation, eval-time
        # entry [j, n] is 1 iff expert n owns neuron j
        self.indicator = np.zeros((d_ff, self.num_experts))
        self.indicator[np.arange(d_ff), partition.assignment] = 1.0
        self.indicator.setflags(write=False)


def attach_experts(model, partitions: list, active_experts: int) -> None:
    """Make every layer of model (an ssdlab.model.GPT) sparse: layer i views
    model.ffn_weights(i), grouped by partitions[i], with active_experts
    selected per token. A partition count other than the layer count, or a
    partition MoEFFN rejects, raises before any layer changes."""
    n_layers = model.config.n_layers
    if len(partitions) != n_layers:
        raise ValueError(f"{len(partitions)} partitions for {n_layers} layers")
    model.moe[:] = [MoEFFN(model.ffn_weights(layer), p, active_experts)
                    for layer, p in enumerate(partitions)]


def compute_centroids(m: MoEFFN) -> np.ndarray:
    """Expert gate keys: c_n = (N / d_ff) * sum of expert n's input-weight rows."""
    d_ff = m.weights.w_in.shape[0]
    sums = matmul_tn(m.indicator, m.weights.w_in)
    return (m.num_experts / d_ff) * sums


def topk_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k highest scores per row; ties go to the lower
    expert index, deterministically."""
    order = np.argsort(-scores, axis=1, kind="stable")
    mask = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(mask, order[:, :k], True, axis=1)
    return mask


def smoe_forward(m: MoEFFN, x: np.ndarray):
    """Sparse feed-forward: each token runs only its selected experts.

    The dense layer's post-ReLU hidden state is multiplied in place by the
    routing mask, which is the straight-through coefficient's forward value:
    exactly 1 on selected experts and exactly 0 on unselected ones. Its
    derivative through the raw gate score lives in smoe_backward.

    Returns (y, decision, hidden, cache). hidden is (tokens, d_ff) post-ReLU
    with unselected experts' neurons exactly 0.
    """
    centroids = compute_centroids(m)
    scores = matmul_nt(x, centroids)
    decision = GateDecision(scores, topk_mask(scores, m.active_experts))
    if m.dynamic_ratio > 0.0:
        decision = dynamic_topk(decision, m.dynamic_ratio)
    selected = decision.selected
    w = m.weights
    hidden = ffn_hidden(w, x)
    hidden *= np.take(selected, m.partition.assignment, axis=1)  # routing mask
    y = matmul_nt(hidden, w.w_out)
    y += w.b_out
    return y, decision, hidden, (x, hidden, selected, centroids)


def smoe_backward(m: MoEFFN, cache, d_y: np.ndarray):
    """Returns (d_x, grads). Gradients of experts selected by no token are
    exactly zero; selected experts' raw scores propagate into x and, through
    the live centroids, into their input-weight rows."""
    x, hidden, selected, centroids = cache
    del cache
    assignment = m.partition.assignment
    # hidden path: the dense layer's backward over the masked hidden state
    d_x, grads, d_pre = ffn_backward(m.weights, (x, hidden), d_y)
    # straight-through gate path: d_scores[t, n] = sum over n's neurons of
    # d_pre * hidden, which on a selected expert is d_hidden times the
    # unmasked hidden state; only selected (t, n) pairs carry a derivative
    d_pre *= hidden
    del hidden
    d_scores = np.where(selected, matmul(d_pre, m.indicator), 0.0)
    del d_pre, selected
    # straight-through score path: scores = x @ centroids.T
    d_x += matmul(d_scores, centroids)
    d_centroids = matmul_tn(d_scores, x)
    del x
    d_centroids *= m.num_experts / assignment.size
    grads["w_in"] += d_centroids[assignment]
    return d_x, grads


def dynamic_topk(decision: GateDecision, truncation_ratio: float) -> GateDecision:
    """Batch-level truncation of low-score (token, expert) candidate pairs.

    Pools all selected pairs, keeps the ceil((1 - ratio) * total) highest raw
    scores (ties broken by lower token then lower expert index), then re-adds
    each token's single best candidate so no token loses its top expert.
    """
    if not 0.0 <= truncation_ratio < 1.0:
        raise ValueError("truncation ratio must be in [0, 1)")
    tokens, experts = np.nonzero(decision.selected)
    total = tokens.size
    keep = int(np.ceil((1.0 - truncation_ratio) * total))
    pair_scores = decision.scores[tokens, experts]
    order = np.lexsort((experts, tokens, -pair_scores))
    kept = np.zeros(decision.selected.shape, dtype=bool)
    kept[tokens[order[:keep]], experts[order[:keep]]] = True
    # protect each token's best candidate
    masked = np.where(decision.selected, decision.scores, -np.inf)
    best = masked.argmax(axis=1)
    has_any = decision.selected.any(axis=1)
    kept[np.flatnonzero(has_any), best[has_any]] = True
    return GateDecision(decision.scores, kept)
