"""Activation-sparsity measurement and checkpoint-to-checkpoint
activation-pattern similarity.

Sparsity is the fraction of exactly-zero entries in the post-ReLU hidden
states; no epsilon thresholding, since ReLU produces exact zeros. `analyze`
measures it on the dense weights, as MoEfication does. Pattern similarity
groups both checkpoints' neurons with scheduler.cluster_all_layers and
compares the groupings with clustering.adjusted_rand_index (ARI).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ssdlab.clustering import adjusted_rand_index  # also importable from here
from ssdlab.model import GPT
from ssdlab.scheduler import cluster_all_layers


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


def pattern_similarity(ckpt_a, ckpt_b, num_experts: int, seed: int) -> SimilarityReport:
    """Per-layer ARI between the two checkpoints' neuron groupings.

    Both are clustered at step 0 through cluster_all_layers: a from random
    seeds, as moefy_checkpoint(ckpt_a, num_experts, seed) groups it, and b
    also warm-started from a's result, as at a monitor. Identical checkpoints
    score exactly 1.
    """
    if ckpt_a.config.to_dict() != ckpt_b.config.to_dict():
        raise ValueError("checkpoints have different model configs")
    cold = [None] * ckpt_a.config.n_layers
    first = [o.partition for o in cluster_all_layers(
        GPT(ckpt_a.config, ckpt_a.params), cold, num_experts, seed, step=0)]
    second = cluster_all_layers(GPT(ckpt_b.config, ckpt_b.params), first,
                                num_experts, seed, step=0)
    per_layer = [adjusted_rand_index(a, b.partition) for a, b in zip(first, second)]
    return SimilarityReport(per_layer_ari=per_layer, mean_ari=float(np.mean(per_layer)))
