"""Phase state machine for switchable sparse-dense training.

Dense phases run until the activation-pattern similarity between consecutive
monitor points exceeds the threshold (or a coin fires, under the random
ablation policy); the following sparse phase lasts

    T = round(sparse_ratio / (1 - sparse_ratio - final_dense_ratio) * D)

steps, where D is the length of the dense segment just ended, truncated so it
never crosses into the terminal dense window. The last ceil(final_dense_ratio
* total_steps) steps are always dense, whatever phase was active; callers
pass the run length total_steps (RunConfig.total_steps) in.

Each monitor clusters every layer, warm-started from the per-layer partition
chain stored here, scores the result against the chain (one ARI per layer)
and stores it. A dense-to-sparse conversion fires only at a monitor, so it
attaches the partitions that monitor just chose instead of clustering again.
`pattern_similarity` runs two monitors on a fresh chain to compare two
checkpoints, so training and `analyze` measure similarity one way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ssdlab.clustering import adjusted_rand_index, cluster_with_warmstart
from ssdlab.model import GPT
from ssdlab.moe import attach_experts
from ssdlab.numerics import SEED_TAG_CLUSTER, SEED_TAG_POLICY, AdamState, derived_rng

PHASE_DENSE = "dense"
PHASE_SPARSE = "sparse"
PHASE_FINAL_DENSE = "final_dense"
PHASES = (PHASE_DENSE, PHASE_SPARSE, PHASE_FINAL_DENSE)


@dataclass
class SSDConfig:
    similarity_threshold: float = 0.9
    sparse_ratio: float = 0.5
    final_dense_ratio: float = 0.1
    monitor_interval: int = 3000
    policy: str = "threshold"  # or "random" (fires with p=0.5 at each monitor)

    def __post_init__(self):
        # json reads NaN and Infinity; every range check below fails on NaN
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in (0, 1]")
        if not self.sparse_ratio >= 0.0:
            raise ValueError("sparse_ratio must be >= 0")
        if not 0.0 <= self.final_dense_ratio < 1.0:
            raise ValueError("final_dense_ratio must be in [0, 1)")
        if not self.sparse_ratio + self.final_dense_ratio < 1.0:
            raise ValueError("sparse_ratio + final_dense_ratio must be < 1")
        if not self.monitor_interval >= 1:
            raise ValueError("monitor_interval must be >= 1")
        if self.policy not in ("threshold", "random"):
            raise ValueError("policy must be 'threshold' or 'random'")


def _ceil_with_tol(x: float, tol: float = 1e-6) -> int:
    """ceil that forgives float dust (0.1 * 200000 is 20000.000000000004)."""
    nearest = round(x)
    if abs(x - nearest) < tol:
        return int(nearest)
    return int(math.ceil(x))


def final_dense_start(cfg: SSDConfig, total_steps: int) -> int:
    """First step of the terminal dense window, which spans exactly the last
    ceil(final_dense_ratio * total_steps) steps."""
    return total_steps - _ceil_with_tol(cfg.final_dense_ratio * total_steps)


def sparse_budget_for(cfg: SSDConfig, dense_len: int) -> int:
    """Sparse-phase length earned by a dense segment of dense_len steps."""
    ratio = cfg.sparse_ratio / (1.0 - cfg.sparse_ratio - cfg.final_dense_ratio)
    return int(round(ratio * dense_len))


@dataclass
class SchedulerState:
    phase: str = PHASE_DENSE
    steps_in_phase: int = 0  # in a dense phase: the length of the segment so far
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


def advance(state: SchedulerState, cfg: SSDConfig, step: int,
            total_steps: int) -> "str | None":
    """Phase bookkeeping at the start of step `step` (0-based).

    Returns the model conversion the caller must perform now:
    "merge" when a sparse phase ends (budget spent or the terminal window
    begins), else None. FinalDense is absorbing.
    """
    if state.phase == PHASE_FINAL_DENSE:
        return None
    if step >= final_dense_start(cfg, total_steps):
        need_merge = state.phase == PHASE_SPARSE
        state.phase = PHASE_FINAL_DENSE
        state.steps_in_phase = 0
        state.log_event(step, "enter_final_dense")
        return "merge" if need_merge else None
    if state.phase == PHASE_SPARSE and state.steps_in_phase >= state.sparse_budget:
        state.phase = PHASE_DENSE
        state.steps_in_phase = 0
        state.log_event(step, "sparse_to_dense")
        return "merge"
    return None


def monitor_due(state: SchedulerState, cfg: SSDConfig) -> bool:
    return (state.phase == PHASE_DENSE
            and state.steps_in_phase > 0
            and state.steps_in_phase % cfg.monitor_interval == 0)


def on_monitor(state: SchedulerState, cfg: SSDConfig, similarity,
               step: int, total_steps: int, seed: int) -> bool:
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
    budget = sparse_budget_for(cfg, state.steps_in_phase)
    budget = min(budget, final_dense_start(cfg, total_steps) - step)
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


def cluster_all_layers(model: GPT, partitions: list, num_experts: int,
                       seed: int, step: int) -> list:
    """Cluster every layer's input weights, warm-started from `partitions`.

    Layer i draws from derived_rng(seed, SEED_TAG_CLUSTER, step, i), so a
    replay or a resume reproduces each layer's result.
    """
    return [cluster_with_warmstart(model.params[f"block{i}.ffn_w_in"], num_experts,
                                   partitions[i],
                                   derived_rng(seed, SEED_TAG_CLUSTER, step, i))
            for i in range(model.config.n_layers)]


def monitor_similarity(model: GPT, state: SchedulerState, num_experts: int,
                       seed: int, step: int) -> list:
    """Re-cluster each layer and score it against the stored chain partition.

    Returns the per-layer ARIs, or [] on the very first clustering of a run
    (no baseline yet). Updates the chain in place.
    """
    outcomes = cluster_all_layers(model, state.partitions, num_experts, seed, step)
    aris = [adjusted_rand_index(prev, o.partition)
            for prev, o in zip(state.partitions, outcomes) if prev is not None]
    state.partitions[:] = [o.partition for o in outcomes]
    return aris


def pattern_similarity(ckpt_a, ckpt_b, num_experts: int, seed: int) -> list:
    """Per-layer ARI between two checkpoints' neuron groupings.

    Two monitors at step 0 on a fresh chain: a is clustered from random
    seeds, as moefy_checkpoint(ckpt_a, num_experts, seed) groups it, and b
    warm-started from a's result. Identical checkpoints score exactly 1.
    """
    if ckpt_a.config.to_dict() != ckpt_b.config.to_dict():
        raise ValueError("checkpoints have different model configs")
    state = SchedulerState.fresh(ckpt_a.config.n_layers)
    monitor_similarity(GPT(ckpt_a.config, ckpt_a.params), state, num_experts, seed, 0)
    return monitor_similarity(GPT(ckpt_b.config, ckpt_b.params), state,
                              num_experts, seed, 0)


def transition_dense_to_sparse(model: GPT, state: SchedulerState,
                               active_experts: int,
                               adam: "AdamState | None" = None,
                               reset_adam: bool = False) -> None:
    """Attach the expert layouts the chain holds, which are the partitions the
    monitor that fired this conversion just chose. Weights stay in place, so
    optimizer moments already sit next to their parameters; reset_adam
    instead zeroes them for the ablation."""
    if any(p is None for p in state.partitions):
        raise ValueError("the partition chain is not seeded: "
                         "run monitor_similarity first")
    attach_experts(model, state.partitions, active_experts)
    if reset_adam and adam is not None:
        for k in adam.m:
            adam.m[k][:] = 0.0
            adam.v[k][:] = 0.0
        adam.step_count = 0


def transition_sparse_to_dense(model: GPT, state: SchedulerState) -> None:
    """Drop the expert layouts; parameters and optimizer moments are already
    in dense layout, so this is exact. The chain keeps the last partitions as
    the next monitor's warm start and ARI baseline."""
    for layer in range(model.config.n_layers):
        model.moe[layer] = None
