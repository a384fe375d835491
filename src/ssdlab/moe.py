"""Dense-to-sparse feed-forward conversion and back, centroid gating with
straight-through score post-processing, the sparse forward/backward pass, and
batch-level dynamic top-k truncation.

An expert layout keeps the feed-forward weights in their original neuron
order and records the neuron-to-expert map beside them; expert sub-matrices
are gathered views. Because the dense and sparse paths therefore run the same
kernels over the same memory, the K=N forward is bit-identical to the dense
forward and split/merge round trips recover parameters exactly.

Selected experts contribute with coefficient exactly 1 while keeping a
derivative path through the raw gate score (forward value 1 + s - stop_grad(s));
unselected experts contribute exactly 0 with no derivative path, so every
parameter of an expert no token selected receives an exactly-zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ssdlab.clustering import Partition
from ssdlab.model import FFNWeights
from ssdlab.numerics import matmul, matmul_nt, matmul_tn, relu, relu_backward


@dataclass
class GateDecision:
    """Per-token raw expert scores and the selected-expert mask."""

    scores: np.ndarray    # (tokens, num_experts) raw x . centroid
    selected: np.ndarray  # (tokens, num_experts) bool
    k: int                # experts requested per token (pre-truncation)


class MoEFFN:
    """A feed-forward block viewed as num_experts equal sub-networks.

    Weights stay in original neuron order; `partition.assignment[j]` names the
    expert owning neuron j, and within an expert neurons keep ascending
    original index. Centroids are recomputed from the live input weights on
    every use, never cached.
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

    # --- expert views -------------------------------------------------------

    def expert_rows(self, n: int) -> np.ndarray:
        return self.partition.cluster_members(n)

    def expert_w_in(self, n: int) -> np.ndarray:
        return self.weights.w_in[self.expert_rows(n)]

    def expert_b_in(self, n: int) -> np.ndarray:
        return self.weights.b_in[self.expert_rows(n)]

    def expert_w_out(self, n: int) -> np.ndarray:
        return self.weights.w_out[:, self.expert_rows(n)]

    # --- forward/backward (see module functions) ----------------------------

    def forward(self, x):
        """Sublayer interface used by the model: (y, hidden, cache)."""
        y, _, hidden, cache = smoe_forward(self, x)
        return y, hidden, cache

    def backward(self, cache, d_y):
        return smoe_backward(self, cache, d_y)


def split_ffn(w: FFNWeights, p: Partition, active_experts: "int | None" = None) -> MoEFFN:
    """Route neurons to experts per p; weights are copied so the source block
    stays independent."""
    copied = FFNWeights(w.w_in.copy(), w.b_in.copy(), w.w_out.copy(), w.b_out.copy())
    return MoEFFN(copied, p.copy(),
                  p.num_clusters if active_experts is None else active_experts)


def merge_experts(m: MoEFFN) -> FFNWeights:
    """Concatenate the experts back into one dense block; gating is discarded.

    The stored neuron order makes this the exact inverse of split_ffn.
    """
    return FFNWeights(m.weights.w_in.copy(), m.weights.b_in.copy(),
                      m.weights.w_out.copy(), m.weights.b_out.copy())


def compute_centroids(m: MoEFFN) -> np.ndarray:
    """Expert gate keys: c_n = (N / d_ff) * sum of expert n's input-weight rows."""
    d_ff = m.weights.w_in.shape[0]
    indicator = np.zeros((d_ff, m.num_experts))
    indicator[np.arange(d_ff), m.partition.assignment] = 1.0
    sums = matmul_tn(indicator, m.weights.w_in)
    return (m.num_experts / d_ff) * sums


def topk_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k highest scores per row; ties go to the lower
    expert index, deterministically."""
    order = np.argsort(-scores, axis=1, kind="stable")
    mask = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(mask, order[:, :k], True, axis=1)
    return mask


def gate(m: MoEFFN, x: np.ndarray) -> GateDecision:
    """Score experts by x . centroid and select the top active_experts."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != m.weights.w_in.shape[1]:
        raise ValueError("gate input width != d_model")
    scores = matmul_nt(x, compute_centroids(m))
    return GateDecision(scores, topk_mask(scores, m.active_experts), m.active_experts)


def smoe_forward(m: MoEFFN, x: np.ndarray, decision: "GateDecision | None" = None,
                 frozen_scores: "np.ndarray | None" = None):
    """Sparse feed-forward: selected experts contribute with coefficient 1.

    The coefficient is materialized as 1 + (score - frozen_score), which is
    exactly 1.0 in the normal path (frozen_scores defaults to the live scores)
    while keeping the score's derivative alive. Passing explicit
    frozen_scores evaluates the straight-through surrogate away from its
    linearization point; gradient checks difference that surrogate.

    Returns (y, decision, hidden, cache). hidden is (tokens, d_ff) post-ReLU
    with unselected experts' neurons exactly 0.
    """
    centroids = compute_centroids(m)
    scores = matmul_nt(x, centroids)
    if decision is None:
        decision = GateDecision(scores, topk_mask(scores, m.active_experts),
                                m.active_experts)
        if m.dynamic_ratio > 0.0:
            decision = dynamic_topk(decision, m.dynamic_ratio)
    selected = decision.selected
    if frozen_scores is None:
        frozen_scores = scores
    # (tokens, num_experts): exactly 1 on selected experts in the normal path,
    # exactly 0 (no derivative path) on unselected ones
    coeff = np.where(selected, 1.0 + (scores - frozen_scores), 0.0)
    w = m.weights
    hidden_full = relu(matmul_nt(x, w.w_in) + w.b_in)
    neuron_coeff = coeff[:, m.partition.assignment]
    hidden = hidden_full * neuron_coeff
    y = matmul_nt(hidden, w.w_out) + w.b_out
    cache = (x, hidden_full, hidden, coeff, selected, centroids)
    return y, decision, hidden, cache


def smoe_backward(m: MoEFFN, cache, d_y: np.ndarray):
    """Returns (d_x, grads). Gradients of experts selected by no token are
    exactly zero; selected experts' raw scores propagate into x and, through
    the live centroids, into their input-weight rows."""
    x, hidden_full, hidden, coeff, selected, centroids = cache
    w = m.weights
    assignment = m.partition.assignment
    d_w_out = matmul_tn(d_y, hidden)
    d_b_out = d_y.sum(axis=0)
    d_hidden = matmul(d_y, w.w_out)
    # expert-coefficient path: d_coeff[t, n] = sum over n's neurons of
    # d_hidden * hidden_full; only selected (t, n) pairs carry a derivative
    d_ff = assignment.size
    indicator = np.zeros((d_ff, m.num_experts))
    indicator[np.arange(d_ff), assignment] = 1.0
    d_coeff = matmul(d_hidden * hidden_full, indicator)
    d_scores = np.where(selected, d_coeff, 0.0)
    # hidden path, masked by the exactly-0/1 coefficients
    d_hidden_full = d_hidden * coeff[:, assignment]
    d_pre = relu_backward(d_hidden_full, hidden_full)
    d_w_in = matmul_tn(d_pre, x)
    d_b_in = d_pre.sum(axis=0)
    d_x = matmul(d_pre, w.w_in)
    # straight-through score path: scores = x @ centroids.T
    d_x += matmul(d_scores, centroids)
    d_centroids = matmul_tn(d_scores, x)
    d_w_in += (m.num_experts / d_ff) * d_centroids[assignment]
    return d_x, {"w_in": d_w_in, "b_in": d_b_in, "w_out": d_w_out, "b_out": d_b_out}


def dynamic_topk(decision: GateDecision, truncation_ratio: float) -> GateDecision:
    """Batch-level truncation of low-score (token, expert) candidate pairs.

    Pools all selected pairs, keeps the ceil((1 - ratio) * total) highest raw
    scores (ties broken by lower token then lower expert index), then re-adds
    each token's single best candidate so no token loses its top expert.
    """
    if not 0.0 <= truncation_ratio < 1.0:
        raise ValueError("truncation ratio must be in [0, 1)")
    if truncation_ratio == 0.0:
        return GateDecision(decision.scores, decision.selected.copy(), decision.k)
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
    return GateDecision(decision.scores, kept, decision.k)
