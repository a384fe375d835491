"""Activation-sparsity measurement, Adjusted Rand Index, and checkpoint-to-
checkpoint activation-pattern similarity.

Sparsity is the fraction of exactly-zero entries in the post-ReLU hidden
states; no epsilon thresholding, since ReLU produces exact zeros. Pattern
similarity clusters both checkpoints' feed-forward input weights and compares
the groupings with ARI, which is chance-corrected: 1 for identical groupings,
about 0 for unrelated ones, with -0.5 the floor for balanced partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from ssdlab.clustering import Partition, cluster_with_warmstart
from ssdlab.numerics import SEED_TAG_CLUSTER, derived_rng


@dataclass
class ActivationSample:
    """Per-layer post-ReLU hidden matrices (tokens x d_ff) captured at a step."""

    hiddens: list
    step: int = 0

    def __post_init__(self):
        for h in self.hiddens:
            if h.size and h.min() < 0:
                raise ValueError("post-ReLU activations must be >= 0")


@dataclass
class SimilarityReport:
    per_layer_ari: list
    mean_ari: float


def activation_sparsity(sample: ActivationSample) -> list:
    """Per-layer fraction of exactly-zero entries."""
    return [float((h == 0.0).mean()) for h in sample.hiddens]


def adjusted_rand_index(a: Partition, b: Partition) -> float:
    """Hubert-Arabie ARI from the contingency table of the two labelings."""
    la = np.asarray(a.assignment)
    lb = np.asarray(b.assignment)
    if la.shape != lb.shape:
        raise ValueError("partitions must have equal length")
    n = la.size
    if n < 2:
        raise ValueError("ARI needs at least 2 elements")
    contingency = np.zeros((la.max() + 1, lb.max() + 1), dtype=np.int64)
    np.add.at(contingency, (la, lb), 1)
    sum_cells = sum(comb(int(c), 2) for c in contingency.reshape(-1))
    sum_a = sum(comb(int(c), 2) for c in contingency.sum(axis=1))
    sum_b = sum(comb(int(c), 2) for c in contingency.sum(axis=0))
    expected = sum_a * sum_b / comb(n, 2)
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0.0:
        # both partitions trivial (all-singleton or single-cluster): identical
        return 1.0
    return (sum_cells - expected) / denom


def pattern_similarity(ckpt_a, ckpt_b, num_experts: int, seed: int) -> SimilarityReport:
    """Per-layer ARI between the two checkpoints' neuron groupings.

    Layer i of both checkpoints is clustered from derived_rng(seed,
    SEED_TAG_CLUSTER, 0, i), the seeds moefy_checkpoint uses: checkpoint a is
    grouped as moefy_checkpoint(ckpt_a, num_experts, seed) groups it, and
    identical checkpoints score exactly 1. As at a training-time monitor,
    checkpoint b's clustering is also tried warm-started from checkpoint a's
    result.
    """
    if ckpt_a.config.to_dict() != ckpt_b.config.to_dict():
        raise ValueError("checkpoints have different model configs")
    per_layer = []
    for layer in range(ckpt_a.config.n_layers):
        key = f"block{layer}.ffn_w_in"
        out_a = cluster_with_warmstart(ckpt_a.params[key], num_experts, None,
                                       derived_rng(seed, SEED_TAG_CLUSTER, 0, layer))
        out_b = cluster_with_warmstart(ckpt_b.params[key], num_experts, out_a.partition,
                                       derived_rng(seed, SEED_TAG_CLUSTER, 0, layer))
        per_layer.append(adjusted_rand_index(out_a.partition, out_b.partition))
    return SimilarityReport(per_layer_ari=per_layer, mean_ari=float(np.mean(per_layer)))
