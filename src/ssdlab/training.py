"""The three training modes (dense, fixed sparse-MoE, switchable sparse-dense),
perplexity evaluation, MoEfication of dense checkpoints, and resume.

A run is a pure function of (seed, configs): parameter init and batch
sampling consume the main RNG stream, everything else (clustering seeds,
policy coins, validation batches) uses seeds derived from (run seed, purpose,
step), so checkpoint-resume replays and thread counts cannot perturb it.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

import numpy as np

from ssdlab.checkpoint import (
    Checkpoint,
    deserialize_scheduler,
    save_checkpoint,
    serialize_scheduler,
)
from ssdlab.clustering import Partition
from ssdlab.data import TokenizedCorpus, sample_batch, validation_batches
from ssdlab.flops import DenseMode, SmoeMode, train_step_flops
from ssdlab.metrics import MetricsRecord, export_metrics
from ssdlab.model import GPT, ModelConfig, lm_loss
from ssdlab.moe import MoEFFN
from ssdlab.numerics import (
    SEED_TAG_SMOE_INIT,
    AdamState,
    adam_step,
    derived_rng,
    make_rng,
    noam_lr,
    restore_rng,
    rng_state,
)
from ssdlab.scheduler import (
    PHASE_DENSE,
    PHASE_SPARSE,
    SchedulerState,
    SSDConfig,
    advance,
    cluster_all_layers,
    monitor_due,
    monitor_similarity,
    on_monitor,
    transition_dense_to_sparse,
    transition_sparse_to_dense,
)


@dataclass
class OptimizerConfig:
    base_lr: float = 0.5
    warmup: int = 2000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
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


def _check_expert_counts(mode):
    if mode.num_experts < 1:
        raise ValueError("num_experts must be >= 1")
    if not 1 <= mode.active_experts <= mode.num_experts:
        raise ValueError("active_experts must be in [1, num_experts]")


@dataclass
class DenseTrain:
    kind: ClassVar[str] = "dense"

    def to_dict(self):
        return {"mode": self.kind, **asdict(self)}


@dataclass
class SmoeTrain:
    """Fixed sparse-MoE baseline: split at step 0 on a random balanced
    partition, sparse expert computation throughout. The (3, 2) default mirrors
    the compute-matched baseline; the gate is the same centroid gate the
    switchable mode uses rather than a learned router."""

    num_experts: int = 3
    active_experts: int = 2
    kind: ClassVar[str] = "smoe"

    def __post_init__(self):
        _check_expert_counts(self)

    def to_dict(self):
        return {"mode": self.kind, **asdict(self)}


@dataclass
class SsdTrain:
    num_experts: int = 32
    active_experts: int = 6
    reset_adam_on_transition: bool = False
    ssd: SSDConfig = field(default_factory=SSDConfig)
    kind: ClassVar[str] = "ssd"

    def __post_init__(self):
        _check_expert_counts(self)

    def to_dict(self):
        return {"mode": self.kind, **asdict(self)}


@dataclass
class RunConfig:
    total_steps: int = 1000
    batch_size: int = 8
    val_interval: int = 500
    val_sequences: int = 64
    val_batch_size: int = 8
    checkpoint_interval: int = 4000
    sparsity_interval: int = 1
    out_dir: "str | None" = None

    def __post_init__(self):
        # zero steps saves the initialisation; zero sparsity_interval samples nothing
        for name, value in self.to_dict().items():
            least = 0 if name in ("total_steps", "sparsity_interval") else 1
            if value < least:
                raise ValueError(f"{name} must be >= {least}")

    def to_dict(self):  # out_dir says where a run writes, not what the run is
        d = asdict(self)
        del d["out_dir"]
        return d


def _mean_nll(model: GPT, batches: list) -> float:
    total, count = 0.0, 0
    for b in batches:
        loss, _, _ = lm_loss(model, b, want_grads=False)
        n = b.shape[0] * (b.shape[1] - 1)
        total += loss * n
        count += n
    return total / count


def _probe_loss(model: GPT, batch: np.ndarray) -> float:
    """Continuity probe: evaluation loss with every expert selected (K = N),
    which must match the dense computation exactly."""
    saved = [(lay, lay.active_experts) for lay in model.moe if lay is not None]
    for lay, _ in saved:
        lay.active_experts = lay.num_experts
    loss, _, _ = lm_loss(model, batch, want_grads=False)
    for lay, k in saved:
        lay.active_experts = k
    return loss


def _probed(convert, model: GPT, state: SchedulerState, batch: np.ndarray,
            *args, **kwargs) -> None:
    """Run one conversion between two continuity probes and record both
    losses on the event the conversion logs."""
    before = _probe_loss(model, batch)
    convert(model, state, *args, **kwargs)
    state.events[-1].update(loss_before=before, loss_after=_probe_loss(model, batch))


def _random_balanced_partition(d_ff: int, num_experts: int,
                               rng: np.random.Generator) -> Partition:
    assignment = np.repeat(np.arange(num_experts, dtype=np.int64), d_ff // num_experts)
    rng.shuffle(assignment)
    return Partition(assignment, num_experts)


def _active_moe_layout(model: GPT) -> "dict | None":
    layouts = [lay for lay in model.moe if lay is not None]
    if not layouts:
        return None
    return {
        "num_experts": layouts[0].num_experts,
        "active_experts": layouts[0].active_experts,
        "partitions": [lay.partition.assignment.tolist() for lay in model.moe],
    }


def _make_checkpoint(model, adam, rng, step, scheduler_state, ssd_cfg,
                     run_info) -> Checkpoint:
    """Checkpoint sharing the live params and Adam moments: periodic saves
    serialise it at once, and the final one outlives the model it shares."""
    return Checkpoint(
        config=model.config,
        params=model.params,
        step=step,
        rng=rng_state(rng),
        adam=adam,
        moe_layout=_active_moe_layout(model),
        scheduler=None if scheduler_state is None else serialize_scheduler(scheduler_state),
        ssd_config=None if ssd_cfg is None else ssd_cfg.to_dict(),
        run_info=run_info,
    )


def train(model_cfg: ModelConfig, corpus: TokenizedCorpus, mode,
          opt: "OptimizerConfig | None" = None, seed: int = 0,
          run: "RunConfig | None" = None,
          resume_from: "Checkpoint | None" = None):
    """Train in one of the three modes; returns (final Checkpoint, metrics).

    resume_from picks up bit-exactly where the checkpoint left off: the tail
    of a resumed run is identical to the same steps of an uninterrupted one.
    """
    opt = opt or OptimizerConfig()
    run = run or RunConfig()
    if corpus.seq_len > model_cfg.max_seq_len:
        raise ValueError("corpus seq_len exceeds model max_seq_len")
    if corpus.manifest["vocab_size"] != model_cfg.vocab_size:
        raise ValueError(f"corpus vocab {corpus.manifest['vocab_size']} != "
                         f"model vocab {model_cfg.vocab_size}")
    is_ssd = mode.kind == "ssd"
    ssd_cfg = None
    if is_ssd:
        ssd_cfg = SSDConfig(**{**mode.ssd.to_dict(), "total_steps": run.total_steps})
        if model_cfg.d_ff % mode.num_experts != 0:
            raise ValueError("d_ff must be divisible by num_experts")
    if mode.kind == "smoe" and model_cfg.d_ff % mode.num_experts != 0:
        raise ValueError("d_ff must be divisible by num_experts")

    run_info_base = {"mode": mode.to_dict(), "optimizer": opt.to_dict(),
                     "run": run.to_dict(), "seed": seed}
    if run.out_dir:
        os.makedirs(run.out_dir, exist_ok=True)

    if resume_from is None:
        rng = make_rng(seed)
        model = GPT.init(model_cfg, rng)
        adam = AdamState.for_params(model.params, opt.beta1, opt.beta2, opt.eps)
        start_step = 0
        cumulative_flops = 0
        state = SchedulerState.fresh(model_cfg.n_layers) if is_ssd else None
        if is_ssd:
            # seed the per-layer partition chain on the initial weights
            monitor_similarity(model, state, mode.num_experts, seed, step=0)
        if mode.kind == "smoe":
            for layer in range(model_cfg.n_layers):
                p = _random_balanced_partition(
                    model_cfg.d_ff, mode.num_experts,
                    derived_rng(seed, SEED_TAG_SMOE_INIT, layer))
                model.moe[layer] = MoEFFN(model.ffn_weights(layer), p,
                                          mode.active_experts)
    else:
        ckpt = resume_from
        if ckpt.config.to_dict() != model_cfg.to_dict():
            raise ValueError("checkpoint model config differs from requested config")
        if ckpt.run_info.get("mode") != mode.to_dict():
            raise ValueError("checkpoint was trained in a different mode")
        if ckpt.run_info.get("optimizer") != opt.to_dict():
            raise ValueError("checkpoint was trained with a different optimizer config")
        model = ckpt.build_model()
        adam = copy.deepcopy(ckpt.adam)  # the checkpoint stays resumable
        rng = restore_rng(ckpt.rng)
        start_step = ckpt.step
        cumulative_flops = ckpt.run_info["cumulative_flops"]
        state = deserialize_scheduler(ckpt.scheduler) if is_ssd else None

    val_set = validation_batches(corpus.val_tokens, corpus.seq_len,
                                 run.val_sequences, run.val_batch_size)
    probe_batch = val_set[0]
    records = []
    for step in range(start_step, run.total_steps):
        similarity = None
        if is_ssd:
            action = advance(state, ssd_cfg, step)
            if action == "merge":
                _probed(transition_sparse_to_dense, model, state, probe_batch)
            if monitor_due(state, ssd_cfg):
                similarity = monitor_similarity(model, state, mode.num_experts,
                                                seed, step)
                if on_monitor(state, ssd_cfg, similarity, step, seed):
                    _probed(transition_dense_to_sparse, model, state, probe_batch,
                            mode.num_experts, mode.active_experts, seed, step,
                            adam=adam, reset_adam=mode.reset_adam_on_transition)
            phase = state.phase
        else:
            phase = PHASE_SPARSE if mode.kind == "smoe" else PHASE_DENSE

        batch = sample_batch(corpus.train_tokens, run.batch_size, corpus.seq_len, rng)
        loss, grads, hiddens = lm_loss(model, batch)
        lr = noam_lr(step + 1, opt.warmup, model_cfg.d_model, opt.base_lr)
        adam_step(model.params, grads, adam, lr)

        if phase == PHASE_SPARSE:
            step_mode = SmoeMode(mode.num_experts, mode.active_experts)
        else:
            step_mode = DenseMode()
        cumulative_flops += train_step_flops(model_cfg, step_mode,
                                             corpus.seq_len, run.batch_size)

        sparsity = None
        if run.sparsity_interval and step % run.sparsity_interval == 0:
            sparsity = [float((h == 0.0).mean()) for h in hiddens]
        ppl = None
        if (step + 1) % run.val_interval == 0 or step + 1 == run.total_steps:
            ppl = float(np.exp(_mean_nll(model, val_set)))
        records.append(MetricsRecord(step=step, phase=phase, loss=float(loss),
                                     ppl=ppl, sparsity=sparsity,
                                     similarity=similarity,
                                     flops=cumulative_flops, lr=lr))

        if is_ssd:
            state.steps_in_phase += 1
            if state.phase == PHASE_DENSE:
                state.last_dense_len += 1

        if run.out_dir and (step + 1) % run.checkpoint_interval == 0 \
                and step + 1 < run.total_steps:
            ck = _make_checkpoint(model, adam, rng, step + 1, state, ssd_cfg,
                                  {**run_info_base, "cumulative_flops": cumulative_flops})
            save_checkpoint(ck, os.path.join(run.out_dir, f"ckpt_{step + 1:08d}.bin"))

    final = _make_checkpoint(model, adam, rng, run.total_steps, state, ssd_cfg,
                             {**run_info_base, "cumulative_flops": cumulative_flops})
    if run.out_dir:
        save_checkpoint(final, os.path.join(run.out_dir, "final.bin"))
        export_metrics(records, os.path.join(run.out_dir, "metrics.jsonl"),
                       "jsonl", model_cfg.n_layers)
        with open(os.path.join(run.out_dir, "run.json"), "w") as f:
            json.dump({**run_info_base, "n_layers": model_cfg.n_layers,
                       "cumulative_flops": cumulative_flops}, f, indent=2)
        events = state.events if state is not None else []
        with open(os.path.join(run.out_dir, "events.jsonl"), "w") as f:
            for e in events:
                f.write(json.dumps(e, sort_keys=True) + "\n")
    return final, records


# -----------------------------------------------------------------------------
# Evaluation and MoEfication
# -----------------------------------------------------------------------------


def _stored_partitions(ckpt: Checkpoint) -> "list | None":
    """Partitions carried by the checkpoint: the active sparse layout if any,
    else the scheduler's chain (the structure a switchable run trained with)."""
    if ckpt.moe_layout is not None:
        n = ckpt.moe_layout["num_experts"]
        return [Partition(np.array(a), n) for a in ckpt.moe_layout["partitions"]]
    if ckpt.scheduler is not None:
        parts = deserialize_scheduler(ckpt.scheduler).partitions
        if all(p is not None for p in parts):
            return parts
    return None


def eval_perplexity(ckpt: Checkpoint, corpus: TokenizedCorpus,
                    sparse_k: "int | None" = None, dynamic_ratio: float = 0.0,
                    num_experts: "int | None" = None, moefy_seed: int = 0,
                    val_sequences: int = 64, val_batch_size: int = 8) -> float:
    """exp(mean token NLL) on the fixed validation batches.

    Without sparse_k the model computes densely. With sparse_k the stored
    expert structure is reused when the checkpoint carries one; a plain dense
    checkpoint is MoEfied on the fly (cluster + split), which needs
    num_experts. dynamic_ratio > 0 truncates low-score candidates per batch.
    """
    model = GPT(ckpt.config, ckpt.params)  # read only
    if sparse_k is not None:
        partitions = _stored_partitions(ckpt)
        if partitions is None:
            if num_experts is None:
                raise ValueError("dense checkpoint carries no expert structure; "
                                 "pass num_experts to MoEfy it")
            outcomes = cluster_all_layers(model, [None] * ckpt.config.n_layers,
                                          num_experts, moefy_seed, step=0)
            partitions = [o.partition for o in outcomes]
        n = partitions[0].num_clusters
        if not 1 <= sparse_k <= n:
            raise ValueError(f"sparse_k must be in [1, {n}]")
        for layer, p in enumerate(partitions):
            lay = MoEFFN(model.ffn_weights(layer), p, sparse_k)
            lay.dynamic_ratio = dynamic_ratio
            model.moe[layer] = lay
    val_set = validation_batches(corpus.val_tokens, corpus.seq_len,
                                 val_sequences, val_batch_size)
    return float(np.exp(_mean_nll(model, val_set)))


def moefy_checkpoint(ckpt: Checkpoint, num_experts: int,
                     seed: int = 0) -> Checkpoint:
    """Cluster + split a dense checkpoint so it carries an expert structure."""
    model = GPT(ckpt.config, ckpt.params)  # read only
    if ckpt.config.d_ff % num_experts != 0:
        raise ValueError("d_ff must be divisible by num_experts")
    outcomes = cluster_all_layers(model, [None] * ckpt.config.n_layers,
                                  num_experts, seed, step=0)
    layout = {
        "num_experts": num_experts,
        "active_experts": num_experts,
        "partitions": [o.partition.assignment.tolist() for o in outcomes],
    }
    return replace(ckpt, moe_layout=layout,
                   run_info={**ckpt.run_info, "moefied": num_experts})
