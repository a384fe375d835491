"""Phase state machine for switchable sparse-dense training.

Dense phases run until the activation-pattern similarity between consecutive
monitor points exceeds the threshold (or a coin fires, under the random
ablation policy); the following sparse phase lasts

    T = round(sparse_ratio / (1 - sparse_ratio - final_dense_ratio) * D)

steps, where D is the length of the dense segment just ended, truncated so it
never crosses into the terminal dense window. The last ceil(final_dense_ratio
* total_steps) steps are always dense, whatever phase was active.

The per-layer partition chain stored here seeds each conversion's clustering
warm start and is the baseline the next monitor's ARI is measured against.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from ssdlab.analysis import adjusted_rand_index
from ssdlab.clustering import Partition, cluster_with_warmstart
from ssdlab.model import GPT
from ssdlab.moe import MoEFFN
from ssdlab.numerics import SEED_TAG_CLUSTER, SEED_TAG_POLICY, AdamState, derived_rng

PHASE_DENSE = "dense"
PHASE_SPARSE = "sparse"
PHASE_FINAL_DENSE = "final_dense"


@dataclass
class SSDConfig:
    similarity_threshold: float = 0.9
    sparse_ratio: float = 0.5
    final_dense_ratio: float = 0.1
    monitor_interval: int = 3000
    total_steps: int = 200_000
    policy: str = "threshold"  # or "random" (fires with p=0.5 at each monitor)

    def __post_init__(self):
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in (0, 1]")
        if self.sparse_ratio < 0.0:
            raise ValueError("sparse_ratio must be >= 0")
        if not 0.0 <= self.final_dense_ratio < 1.0:
            raise ValueError("final_dense_ratio must be in [0, 1)")
        if self.sparse_ratio + self.final_dense_ratio >= 1.0:
            raise ValueError("sparse_ratio + final_dense_ratio must be < 1")
        if self.monitor_interval < 1:
            raise ValueError("monitor_interval must be >= 1")
        if self.policy not in ("threshold", "random"):
            raise ValueError("policy must be 'threshold' or 'random'")

    def to_dict(self):
        return asdict(self)


def _ceil_with_tol(x: float, tol: float = 1e-6) -> int:
    """ceil that forgives float dust (0.1 * 200000 is 20000.000000000004)."""
    nearest = round(x)
    if abs(x - nearest) < tol:
        return int(nearest)
    return int(math.ceil(x))


def final_dense_start(cfg: SSDConfig) -> int:
    """First step of the terminal dense window, which spans exactly the last
    ceil(final_dense_ratio * total_steps) steps."""
    return cfg.total_steps - _ceil_with_tol(cfg.final_dense_ratio * cfg.total_steps)


def sparse_budget_for(cfg: SSDConfig, dense_len: int) -> int:
    """Sparse-phase length earned by a dense segment of dense_len steps."""
    ratio = cfg.sparse_ratio / (1.0 - cfg.sparse_ratio - cfg.final_dense_ratio)
    return int(round(ratio * dense_len))


@dataclass
class SchedulerState:
    phase: str = PHASE_DENSE
    steps_in_phase: int = 0
    last_dense_len: int = 0
    sparse_budget: int = 0
    partitions: list = field(default_factory=list)  # per-layer Partition | None
    events: list = field(default_factory=list)

    @classmethod
    def fresh(cls, n_layers: int) -> "SchedulerState":
        return cls(partitions=[None] * n_layers)

    def log_event(self, step: int, kind: str, similarity=None,
                  loss_before=None, loss_after=None):
        self.events.append({"step": step, "kind": kind, "similarity": similarity,
                            "loss_before": loss_before, "loss_after": loss_after})


def advance(state: SchedulerState, cfg: SSDConfig, step: int) -> "str | None":
    """Phase bookkeeping at the start of step `step` (0-based).

    Returns the model conversion the caller must perform now:
    "merge" when a sparse phase ends (budget spent or the terminal window
    begins), else None. FinalDense is absorbing.
    """
    if state.phase == PHASE_FINAL_DENSE:
        return None
    if step >= final_dense_start(cfg):
        need_merge = state.phase == PHASE_SPARSE
        state.phase = PHASE_FINAL_DENSE
        state.steps_in_phase = 0
        state.log_event(step, "enter_final_dense")
        return "merge" if need_merge else None
    if state.phase == PHASE_SPARSE and state.steps_in_phase >= state.sparse_budget:
        state.phase = PHASE_DENSE
        state.steps_in_phase = 0
        state.last_dense_len = 0
        state.log_event(step, "sparse_to_dense")
        return "merge"
    return None


def monitor_due(state: SchedulerState, cfg: SSDConfig) -> bool:
    return (state.phase == PHASE_DENSE
            and state.last_dense_len > 0
            and state.last_dense_len % cfg.monitor_interval == 0)


def on_monitor(state: SchedulerState, cfg: SSDConfig, similarity,
               step: int, seed: int) -> bool:
    """Decide a dense-to-sparse transition at a monitor point.

    Threshold policy fires on similarity strictly greater than the threshold;
    the random policy flips a derived-seed coin. Returns True when the caller
    must convert the model; the sparse budget is already set then.
    """
    if state.phase != PHASE_DENSE:
        raise ValueError("on_monitor is only valid during a dense phase")
    if cfg.policy == "random":
        fire = bool(derived_rng(seed, SEED_TAG_POLICY, step).random() < 0.5)
    else:
        fire = similarity is not None and similarity > cfg.similarity_threshold
    if not fire:
        return False
    budget = sparse_budget_for(cfg, state.last_dense_len)
    budget = min(budget, final_dense_start(cfg) - step)
    if budget <= 0:
        return False
    state.phase = PHASE_SPARSE
    state.steps_in_phase = 0
    state.sparse_budget = budget
    state.log_event(step, "dense_to_sparse", similarity=similarity)
    return True


# -----------------------------------------------------------------------------
# Model conversions
# -----------------------------------------------------------------------------


def thread_count() -> int:
    try:
        return max(1, int(os.environ.get("SSDLAB_THREADS", "1")))
    except ValueError:
        return 1


def _cluster_layer(model: GPT, layer: int, num_experts: int,
                   prev: "Partition | None", seed: int, step: int):
    rng = derived_rng(seed, SEED_TAG_CLUSTER, step, layer)
    w_in = model.params[f"block{layer}.ffn_w_in"]
    return cluster_with_warmstart(w_in, num_experts, prev, rng)


def cluster_all_layers(model: GPT, partitions: list, num_experts: int,
                       seed: int, step: int) -> list:
    """Cluster every layer's input weights, warm-started from `partitions`.

    Per-layer seeds derive from (seed, step, layer) so results are identical
    for any SSDLAB_THREADS value.
    """
    layers = range(model.config.n_layers)
    workers = thread_count()
    if workers == 1:
        return [_cluster_layer(model, i, num_experts, partitions[i], seed, step)
                for i in layers]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_cluster_layer, model, i, num_experts,
                               partitions[i], seed, step) for i in layers]
        return [f.result() for f in futures]


def monitor_similarity(model: GPT, state: SchedulerState, num_experts: int,
                       seed: int, step: int):
    """Re-cluster each layer and score it against the stored chain partition.

    Returns the mean per-layer ARI, or None on the very first clustering of a
    run (no baseline yet). Updates the chain in place.
    """
    outcomes = cluster_all_layers(model, state.partitions, num_experts, seed, step)
    aris = []
    for layer, outcome in enumerate(outcomes):
        prev = state.partitions[layer]
        if prev is not None:
            aris.append(adjusted_rand_index(prev, outcome.partition))
        state.partitions[layer] = outcome.partition
    return float(np.mean(aris)) if aris else None


def transition_dense_to_sparse(model: GPT, state: SchedulerState,
                               num_experts: int, active_experts: int,
                               seed: int, step: int,
                               adam: "AdamState | None" = None,
                               reset_adam: bool = False) -> None:
    """Cluster each layer (warm-started from the chain) and attach the expert
    layouts. Weights stay in place, so optimizer moments already sit next to
    their parameters; reset_adam instead zeroes them for the ablation."""
    outcomes = cluster_all_layers(model, state.partitions, num_experts, seed, step)
    for layer, outcome in enumerate(outcomes):
        state.partitions[layer] = outcome.partition
        model.moe[layer] = MoEFFN(model.ffn_weights(layer), outcome.partition,
                                  active_experts)
    if reset_adam and adam is not None:
        for k in adam.m:
            adam.m[k][:] = 0.0
            adam.v[k][:] = 0.0
        adam.step_count = 0


def transition_sparse_to_dense(model: GPT, state: SchedulerState) -> None:
    """Drop the expert layouts; parameters and optimizer moments are already
    in dense layout, so this is exact. The chain keeps the last partitions as
    the next conversion's warm start."""
    for layer in range(model.config.n_layers):
        model.moe[layer] = None
