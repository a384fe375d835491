"""Dense-to-sparse feed-forward conversion, centroid gating with
straight-through score post-processing, the sparse forward/backward pass, and
batch-level dynamic top-k truncation.

A layer becomes sparse in one way only: attach_experts puts a MoEFFN view over
the model's own feed-forward arrays, which stay in their original neuron order
with the neuron-to-expert map recorded beside them; setting the layer back to
None makes it dense again. The sparse layer runs the dense layer's own code
(ssdlab.model's ffn_hidden and ffn_backward) on the same memory and adds only
the routing mask and the gate, so the K=N forward is bit-identical to the
dense forward and a dense->sparse->dense round trip leaves every parameter as
it was.

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
from types import MethodType

import numpy as np

from ssdlab.clustering import Partition
from ssdlab.model import GPT, FFNWeights, ffn_backward, ffn_hidden
from ssdlab.numerics import matmul, matmul_nt, matmul_tn


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

    def forward(self, x):
        """Sublayer interface used by the model: (y, hidden, cache)."""
        y, _, hidden, cache = smoe_forward(self, x)
        return y, hidden, cache

    @property
    def backward(self):
        """smoe_backward bound to this layer: (cache, d_y) -> (d_x, grads).
        A bound method calls it with no frame of its own in between, so
        the cache handed over is smoe_backward's alone to drop."""
        return MethodType(smoe_backward, self)


def attach_experts(model: GPT, partitions: list, active_experts: int) -> None:
    """Make every layer sparse: layer i views model.ffn_weights(i), grouped by
    partitions[i], with active_experts selected per token."""
    for layer, p in enumerate(partitions):
        model.moe[layer] = MoEFFN(model.ffn_weights(layer), p, active_experts)


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
