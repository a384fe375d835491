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
and stores it. A dense-to-sparse conversion attaches the partitions the
monitor that fired it just chose. MoEfication is a fresh chain's first
monitor, and `pattern_similarity` runs two to compare two checkpoints, so
training, `moefy` and `analyze` group layers in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ssdlab.clustering import adjusted_rand_index, cluster_with_warmstart
from ssdlab.model import GPT
from ssdlab.moe import attach_experts
from ssdlab.numerics import SEED_TAG_CLUSTER, SEED_TAG_POLICY, derived_rng

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


def _ceil_with_tol(x: float) -> int:
    """ceil that forgives float dust (0.1 * 200000 is 20000.000000000004)."""
    nearest = round(x)
    if abs(x - nearest) < 1e-6:
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

    def log_event(self, step: int, kind: str, similarity=None):
        self.events.append({"step": step, "kind": kind, "similarity": similarity,
                            "loss_before": None, "loss_after": None})


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


def check_expert_count(d_ff: int, num_experts: int) -> None:
    """Every expert count's one rule: it splits d_ff into equal experts."""
    if num_experts < 1 or d_ff % num_experts != 0:
        raise ValueError(f"num_experts must be >= 1 and divide d_ff {d_ff}, "
                         f"got {num_experts}")


def monitor_similarity(model: GPT, state: SchedulerState, num_experts: int,
                       seed: int, step: int) -> list:
    """Re-cluster each layer, warm-started from its chain partition, and
    score the result against that partition.

    Layer i draws from derived_rng(seed, SEED_TAG_CLUSTER, step, i), so a
    replay or a resume reproduces each layer's result. Returns the per-layer
    ARIs, or [] on the first clustering of a fresh chain (no baseline yet).
    Updates the chain in place.
    """
    check_expert_count(model.config.d_ff, num_experts)
    outcomes = [cluster_with_warmstart(model.ffn_weights(i).w_in, num_experts,
                                       state.partitions[i],
                                       derived_rng(seed, SEED_TAG_CLUSTER, step, i))
                for i in range(model.config.n_layers)]
    aris = [adjusted_rand_index(prev, o.partition)
            for prev, o in zip(state.partitions, outcomes) if prev is not None]
    state.partitions[:] = [o.partition for o in outcomes]
    return aris


def pattern_similarity(ckpt_a, ckpt_b, num_experts: int, seed: int) -> list:
    """Per-layer ARI between two checkpoints' neuron groupings.

    Two monitors at step 0 on a fresh chain: the first groups a exactly as
    moefy_checkpoint(ckpt_a, num_experts, seed) does, since MoEfication is
    that same first monitor, and the second groups b warm-started from a's
    result. Identical checkpoints score exactly 1.
    """
    if ckpt_a.config.to_dict() != ckpt_b.config.to_dict():
        raise ValueError("checkpoints have different model configs")
    state = SchedulerState.fresh(ckpt_a.config.n_layers)
    monitor_similarity(GPT(ckpt_a.config, ckpt_a.params), state, num_experts, seed, 0)
    return monitor_similarity(GPT(ckpt_b.config, ckpt_b.params), state,
                              num_experts, seed, 0)


def transition_dense_to_sparse(model: GPT, state: SchedulerState,
                               active_experts: int) -> None:
    """Attach the expert layouts the chain holds, which are the partitions the
    monitor that fired this conversion just chose. Weights stay in place, so
    optimizer moments already sit next to their parameters; the caller
    resets the optimizer itself for the Adam-reset ablation."""
    if any(p is None for p in state.partitions):
        raise ValueError("the partition chain is not seeded: "
                         "run monitor_similarity first")
    attach_experts(model, state.partitions, active_experts)


def transition_sparse_to_dense(model: GPT, state: SchedulerState) -> None:
    """Drop the expert layouts; parameters and optimizer moments are already
    in dense layout, so this is exact. The chain keeps the last partitions as
    the next monitor's warm start and ARI baseline."""
    for layer in range(model.config.n_layers):
        model.moe[layer] = None
