"""The three training modes (dense, fixed sparse-MoE, switchable sparse-dense),
perplexity evaluation, MoEfication of dense checkpoints, and resume.

A run is a pure function of (seed, configs): parameter init and batch
sampling consume the main RNG stream, everything else (clustering seeds,
policy coins, validation batches) uses seeds derived from (run seed, purpose,
step), so a checkpoint-resume cannot perturb it. Bit-identical replay holds
for one machine, numpy/BLAS build and BLAS thread count (see numerics).
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
    decode_partitions,
    deserialize_scheduler,
    encode_moe_layout,
    save_checkpoint,
    serialize_scheduler,
)
from ssdlab.clustering import Partition
from ssdlab.data import TokenizedCorpus, sample_batch, validation_batches
from ssdlab.flops import DenseMode, SmoeMode, train_step_flops
from ssdlab.metrics import MetricsRecord, export_metrics, load_metrics_jsonl
from ssdlab.model import GPT, ModelConfig, activation_sparsity, lm_loss
from ssdlab.moe import attach_experts
from ssdlab.numerics import (
    SEED_TAG_SMOE_INIT,
    AdamState,
    OptimizerConfig,
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
    """Fixed sparse-MoE baseline: experts attached at step 0 over a random
    balanced partition, sparse expert computation throughout. The (3, 2)
    default mirrors the compute-matched baseline; the gate is the same
    centroid gate the switchable mode uses rather than a learned router."""

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


def _check_vocab(corpus: TokenizedCorpus, cfg: ModelConfig) -> None:
    if corpus.manifest["vocab_size"] != cfg.vocab_size:
        raise ValueError(f"corpus vocab {corpus.manifest['vocab_size']} != "
                         f"model vocab {cfg.vocab_size}")


def _mean_nll(model: GPT, batches: list) -> float:
    total, count = 0.0, 0
    for b in batches:
        loss = lm_loss(model, b, want_grads=False)[0]
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


def _make_checkpoint(model, adam, rng, step, moe_layout, scheduler_state,
                     run_info) -> Checkpoint:
    """Checkpoint sharing the live params and Adam moments: periodic saves
    serialise it at once, and the final one outlives the model it shares.
    Only smoe runs pass a moe_layout: an ssd run's grouping is its chain."""
    return Checkpoint(config=model.config, params=model.params, step=step,
                      rng=rng_state(rng), adam=adam, moe_layout=moe_layout,
                      scheduler=None if scheduler_state is None
                      else serialize_scheduler(scheduler_state), run_info=run_info)


def _stored_mode(run_info: dict):
    """run_info's mode in today's form. Older ssd checkpoints also stored
    the run length as mode.ssd.total_steps; that copy is dropped where it
    equals run.total_steps, which the schedule reads."""
    mode = run_info.get("mode")
    ssd = mode.get("ssd") if isinstance(mode, dict) else None
    if (isinstance(ssd, dict) and "total_steps" in ssd
            and ssd["total_steps"] == run_info.get("run", {}).get("total_steps")):
        ssd = {k: v for k, v in ssd.items() if k != "total_steps"}
        mode = {**mode, "ssd": ssd}
    return mode


def train(model_cfg: ModelConfig, corpus: TokenizedCorpus, mode,
          opt: "OptimizerConfig | None" = None, seed: int = 0,
          run: "RunConfig | None" = None,
          resume_from: "Checkpoint | None" = None):
    """Train in one of the three modes; returns (final Checkpoint, metrics).

    resume_from picks up bit-exactly where the checkpoint left off: the tail
    of a resumed run is identical to the same steps of an uninterrupted one.
    It reads the checkpoint's params, Adam moments, RNG and scheduler
    snapshot, and rebuilds the expert layouts from the mode, the seed and the
    scheduler chain as a fresh run builds them; a stored moe_layout is not read.
    Resumed into a run directory that holds a metrics.jsonl, the run keeps
    that file's records before the checkpoint's step, read before the first
    step; the returned metrics hold only the steps run now.

    Each step's grads are dropped once Adam has read them, so validation,
    the next monitor and the next forward never run beside them; its
    hidden states are gone once the backward has read them.
    """
    opt = opt or OptimizerConfig()
    run = run or RunConfig()
    if corpus.seq_len > model_cfg.max_seq_len:
        raise ValueError("corpus seq_len exceeds model max_seq_len")
    _check_vocab(corpus, model_cfg)
    is_ssd = mode.kind == "ssd"
    if mode.kind != "dense" and model_cfg.d_ff % mode.num_experts != 0:
        raise ValueError("d_ff must be divisible by num_experts")
    if resume_from is not None and resume_from.step > run.total_steps:
        raise ValueError(f"checkpoint is at step {resume_from.step}, "
                         f"past total_steps {run.total_steps}")

    run_info_base = {"mode": mode.to_dict(), "optimizer": opt.to_dict(),
                     "run": run.to_dict(), "seed": seed}

    if resume_from is None:
        rng = make_rng(seed)
        model = GPT.init(model_cfg, rng)
        adam = AdamState.for_params(model.params)
        start_step = 0
        cumulative_flops = 0
        state = SchedulerState.fresh(model_cfg.n_layers) if is_ssd else None
        if is_ssd:
            # seed the per-layer partition chain on the initial weights
            monitor_similarity(model, state, mode.num_experts, seed, step=0)
    else:
        ckpt = resume_from
        if ckpt.config.to_dict() != model_cfg.to_dict():
            raise ValueError("checkpoint model config differs from requested config")
        if type(ckpt.run_info.get("run", {})) is not dict:
            raise ValueError("checkpoint run_info 'run' must be an object")
        if _stored_mode(ckpt.run_info) != mode.to_dict():
            raise ValueError("checkpoint was trained in a different mode")
        planned = ckpt.run_info.get("run", {}).get("total_steps")
        if is_ssd and planned != run.total_steps:
            raise ValueError(f"checkpoint's ssd schedule was planned for "
                             f"total_steps {planned}, not {run.total_steps}")
        if ckpt.run_info.get("optimizer") != opt.to_dict():
            raise ValueError("checkpoint was trained with a different optimizer config")
        # smoe layouts and ssd monitors draw from the seed
        if ckpt.run_info.get("seed") != seed:
            raise ValueError(f"checkpoint was trained with seed "
                             f"{ckpt.run_info.get('seed')}, not {seed}")
        if type(ckpt.run_info.get("cumulative_flops")) is not int:
            raise ValueError("checkpoint run_info has no cumulative_flops integer, "
                             "so it cannot be resumed")
        for name in ("adam", "rng") + (("scheduler",) if is_ssd else ()):
            if getattr(ckpt, name) is None:
                raise ValueError(f"checkpoint has no {name} state, so it cannot be resumed")
        # copies, so the checkpoint stays resumable
        model = GPT(model_cfg, {k: v.copy() for k, v in ckpt.params.items()})
        adam = copy.deepcopy(ckpt.adam)
        rng = restore_rng(ckpt.rng)
        start_step = ckpt.step
        cumulative_flops = ckpt.run_info["cumulative_flops"]
        state = deserialize_scheduler(ckpt.scheduler) if is_ssd else None
        if is_ssd and state.phase == PHASE_SPARSE:
            transition_dense_to_sparse(model, state, mode.active_experts)

    moe_layout = None
    if mode.kind == "smoe":  # fresh or resumed, the layouts come from the seed
        partitions = [_random_balanced_partition(
            model_cfg.d_ff, mode.num_experts,
            derived_rng(seed, SEED_TAG_SMOE_INIT, layer))
            for layer in range(model_cfg.n_layers)]
        attach_experts(model, partitions, mode.active_experts)
        moe_layout = encode_moe_layout(partitions, mode.active_experts)

    metrics_path = run.out_dir and os.path.join(run.out_dir, "metrics.jsonl")
    earlier = []  # a resume into its own run directory keeps the records before it
    if resume_from is not None and metrics_path and os.path.exists(metrics_path):
        earlier = [r for r in load_metrics_jsonl(metrics_path) if r.step < start_step]
    if run.out_dir:
        os.makedirs(run.out_dir, exist_ok=True)
    val_set = validation_batches(corpus.val_tokens, corpus.seq_len,
                                 run.val_sequences, run.val_batch_size)
    probe_batch = val_set[0]
    records = []
    for step in range(start_step, run.total_steps):
        similarity = None
        if is_ssd:
            if advance(state, mode.ssd, step, run.total_steps) == "merge":
                _probed(transition_sparse_to_dense, model, state, probe_batch)
            if monitor_due(state, mode.ssd):
                aris = monitor_similarity(model, state, mode.num_experts, seed, step)
                similarity = float(np.mean(aris)) if aris else None
                if on_monitor(state, mode.ssd, similarity, step, run.total_steps, seed):
                    _probed(transition_dense_to_sparse, model, state, probe_batch,
                            mode.active_experts, adam=adam,
                            reset_adam=mode.reset_adam_on_transition)
            phase = state.phase
        else:
            phase = PHASE_SPARSE if mode.kind == "smoe" else PHASE_DENSE

        batch = sample_batch(corpus.train_tokens, run.batch_size, corpus.seq_len, rng)
        loss, grads, counts = lm_loss(model, batch)
        if not np.isfinite(loss):
            # stop before the update spreads it; the last periodic
            # checkpoint stays the newest loadable state
            raise ValueError(f"loss is not finite at step {step}: {loss}")
        lr = noam_lr(step + 1, opt.warmup, model_cfg.d_model, opt.base_lr)
        adam_step(model.params, grads, adam, opt, lr)
        del grads

        if phase == PHASE_SPARSE:
            step_mode = SmoeMode(mode.num_experts, mode.active_experts)
        else:
            step_mode = DenseMode()
        cumulative_flops += train_step_flops(model_cfg, step_mode,
                                             corpus.seq_len, run.batch_size)

        sparsity = None
        if run.sparsity_interval and step % run.sparsity_interval == 0:
            sparsity = activation_sparsity([counts])
        ppl = None
        if (step + 1) % run.val_interval == 0 or step + 1 == run.total_steps:
            ppl = float(np.exp(_mean_nll(model, val_set)))
        records.append(MetricsRecord(step=step, phase=phase, loss=float(loss),
                                     ppl=ppl, sparsity=sparsity,
                                     similarity=similarity,
                                     flops=cumulative_flops, lr=lr))

        if is_ssd:
            state.steps_in_phase += 1

        if run.out_dir and (step + 1) % run.checkpoint_interval == 0 \
                and step + 1 < run.total_steps:
            ck = _make_checkpoint(model, adam, rng, step + 1, moe_layout, state,
                                  {**run_info_base, "cumulative_flops": cumulative_flops})
            save_checkpoint(ck, os.path.join(run.out_dir, f"ckpt_{step + 1:08d}.bin"))

    final = _make_checkpoint(model, adam, rng, run.total_steps, moe_layout, state,
                             {**run_info_base, "cumulative_flops": cumulative_flops})
    if run.out_dir:
        save_checkpoint(final, os.path.join(run.out_dir, "final.bin"))
        export_metrics(earlier + records, metrics_path, "jsonl", model_cfg.n_layers)
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
    """Partitions carried by the checkpoint: its moe_layout (moefy, smoe) if
    any, else the scheduler's chain (the grouping of an ssd run)."""
    if ckpt.moe_layout is not None:
        return decode_partitions(ckpt.moe_layout)
    if ckpt.scheduler is not None:
        parts = deserialize_scheduler(ckpt.scheduler).partitions
        if all(p is not None for p in parts):
            return parts
    return None


def eval_perplexity(ckpt: Checkpoint, corpus: TokenizedCorpus,
                    sparse_k: "int | None" = None, dynamic_ratio: float = 0.0,
                    num_experts: "int | None" = None,
                    val_sequences: int = 64, val_batch_size: int = 8) -> float:
    """exp(mean token NLL) on the fixed validation batches.

    Without sparse_k the model computes densely. With sparse_k the stored
    expert structure is reused when the checkpoint carries one (num_experts,
    if given, must match it); a plain dense checkpoint is MoEfied on the fly
    as moefy_checkpoint does, which needs num_experts. dynamic_ratio > 0
    truncates low-score candidates per batch.
    """
    if not 0.0 <= dynamic_ratio < 1.0:  # also NaN, which would read as 0
        raise ValueError("truncation ratio must be in [0, 1)")
    if sparse_k is None and (dynamic_ratio != 0.0 or num_experts is not None):
        raise ValueError("dynamic_ratio and num_experts are only read "
                         "with sparse_k (--k)")
    _check_vocab(corpus, ckpt.config)
    model = GPT(ckpt.config, ckpt.params)  # read only
    if sparse_k is not None:
        partitions = _stored_partitions(ckpt)
        if partitions is None:
            if num_experts is None:
                raise ValueError("dense checkpoint carries no expert structure; "
                                 "pass num_experts to MoEfy it")
            partitions = _stored_partitions(moefy_checkpoint(ckpt, num_experts))
        n = partitions[0].num_clusters
        if num_experts is not None and num_experts != n:
            raise ValueError(f"checkpoint carries {n} experts, not {num_experts}")
        if not 1 <= sparse_k <= n:
            raise ValueError(f"sparse_k must be in [1, {n}]")
        attach_experts(model, partitions, sparse_k)
        for lay in model.moe:
            lay.dynamic_ratio = dynamic_ratio
    val_set = validation_batches(corpus.val_tokens, corpus.seq_len,
                                 val_sequences, val_batch_size)
    return float(np.exp(_mean_nll(model, val_set)))


def moefy_checkpoint(ckpt: Checkpoint, num_experts: int,
                     seed: int = 0) -> Checkpoint:
    """Cluster a dense checkpoint's layers so it carries an expert structure."""
    model = GPT(ckpt.config, ckpt.params)  # read only
    outcomes = cluster_all_layers(model, [None] * ckpt.config.n_layers,
                                  num_experts, seed, step=0)
    layout = encode_moe_layout([o.partition for o in outcomes], num_experts)
    return replace(ckpt, moe_layout=layout,
                   run_info={**ckpt.run_info, "moefied": num_experts})
