"""The four benchmark workloads.

Each workload has a set-up (generate the corpus from the workload seed,
tokenise it and, for desk-eval, write the checkpoint) and a timed section that
goes through the package's public entry points. The workload seed reaches
the program only through these generated inputs; the training seed is fixed.
Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass

from ssdlab import checkpoint, data, training
from ssdlab.data import CorpusConfig
from ssdlab.flops import DenseMode, SmoeMode, flops_estimate, train_step_flops
from ssdlab.model import ModelConfig
from ssdlab.scheduler import SSDConfig
from ssdlab.training import DenseTrain, OptimizerConfig, RunConfig, SsdTrain

TRAIN_SEED = 0
CORPUS_DOCS = 200
# below every monitor's ARI on these configs, so every monitor converts and
# the number of steps in each phase does not depend on the workload seed
FIRE_ALWAYS_THRESHOLD = 0.01


@dataclass
class Outcome:
    """What one timed section produced."""

    tokens: int
    attempted: int
    failed: int
    ppl: float
    checks: list            # (name, ok, detail)
    replay: tuple           # compared with == across repetitions and runs
    params: dict            # compared bitwise across repetitions and runs
    ledger: dict            # analytic FLOPs and schedule counts, per-layer metrics

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def replays(self, other: "Outcome") -> bool:
        return self.replay == other.replay and params_identical(self.params, other.params)


def params_identical(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def _write_corpus(workdir: str, seed: int, vocab: bool, seq_len: int):
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "corpus.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(data.make_toy_corpus(n_docs=CORPUS_DOCS, seed=seed))
    tokenizer = "byte"
    if vocab:
        tokenizer = os.path.join(workdir, "vocab.json")
        with open(tokenizer, "w") as f:
            json.dump(data.toy_vocab_chars(), f)
    # looked up on the module so a traced run times it
    return data.tokenize_corpus(CorpusConfig(path, tokenizer=tokenizer, seq_len=seq_len))


@dataclass
class TrainWorkload:
    name: str
    vocab: bool              # toy character vocabulary, else bytes
    seq_len: int
    model: dict              # ModelConfig fields other than vocab and max_seq_len
    mode: object
    run: RunConfig
    opt: OptimizerConfig
    phases: dict             # expected number of steps in each phase
    checkpoints: bool = False

    @property
    def ops_per_rep(self) -> int:
        return self.run.total_steps

    @property
    def dense_only(self) -> bool:
        return self.mode.kind == "dense"

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(**self.model, vocab_size=vocab_size, max_seq_len=self.seq_len)

    def setup(self, workdir: str, seed: int):
        return _write_corpus(workdir, seed, self.vocab, self.seq_len)

    def run_timed(self, corpus, workdir: str) -> Outcome:
        cfg = self.model_config(corpus.manifest["vocab_size"])
        run = RunConfig(**{**self.run.to_dict(),
                           "out_dir": workdir if self.checkpoints else None})
        final, records = training.train(cfg, corpus, self.mode, self.opt,
                                        seed=TRAIN_SEED, run=run)
        losses_bad = sum(not math.isfinite(r.loss) for r in records)
        ppl = records[-1].ppl
        phases = dict(Counter(r.phase for r in records))
        events = final.scheduler["events"] if final.scheduler else []
        kinds = Counter(e["kind"] for e in events)
        probed = [e for e in events if e["loss_before"] is not None]
        conversions = [e for e in events if e["kind"] in ("dense_to_sparse", "sparse_to_dense")]

        batch, seq = self.run.batch_size, corpus.seq_len
        dense_step = train_step_flops(cfg, DenseMode(), seq, batch)
        sparse_step = dense_step
        if self.mode.kind == "ssd":
            sparse_step = train_step_flops(
                cfg, SmoeMode(self.mode.num_experts, self.mode.active_experts), seq, batch)
        n_sparse = phases.get("sparse", 0)
        ledger_total = (len(records) - n_sparse) * dense_step + n_sparse * sparse_step

        checks = [
            ("loss finite on every step", losses_bad == 0, f"{losses_bad} non-finite"),
            ("ppl finite", ppl is not None and math.isfinite(ppl), f"ppl={ppl}"),
            ("steps per phase", phases == self.phases, f"{phases} expected {self.phases}"),
            ("ledger equals final MetricsRecord.flops",
             ledger_total == records[-1].flops, f"{ledger_total} vs {records[-1].flops}"),
            ("continuity probe bitwise at every conversion",
             all(e["loss_before"] is not None for e in conversions)
             and all(e["loss_before"] == e["loss_after"] for e in probed),
             f"{len(probed)} probed events"),
        ]
        if self.mode.kind == "ssd":
            checks.append(("dense->sparse and sparse->dense events",
                           kinds["dense_to_sparse"] >= 1 and kinds["sparse_to_dense"] >= 1,
                           dict(kinds)))
        else:
            checks.append(("no sparse steps", n_sparse == 0, f"{n_sparse} sparse steps"))
        return Outcome(
            tokens=len(records) * batch * seq,
            attempted=self.ops_per_rep,
            failed=losses_bad,
            ppl=ppl,
            checks=checks,
            replay=(records, events),
            params=final.params,
            ledger={"flops.ledger_gflop": records[-1].flops / 1e9,
                    "flops.ledger_step_dense_gflop": dense_step / 1e9,
                    "flops.ledger_step_sparse_gflop":
                        sparse_step / 1e9 if self.mode.kind == "ssd" else 0.0,
                    "flops.ledger_sparse_over_dense":
                        sparse_step / dense_step if self.mode.kind == "ssd" else 0.0,
                    "training.dense_steps": len(records) - n_sparse - phases.get("final_dense", 0),
                    "training.sparse_steps": n_sparse,
                    "training.final_dense_steps": phases.get("final_dense", 0)},
        )


@dataclass
class EvalWorkload:
    """Load a dense checkpoint, MoEfy it and score it sparse and dense."""

    name: str
    seq_len: int = 64
    num_experts: int = 32
    active_experts: int = 6
    dynamic_ratios: tuple = (0.0, 0.5)
    val_sequences: int = 8
    val_batch_size: int = 8
    dense_only = False

    @property
    def ops_per_rep(self) -> int:
        return len(self.dynamic_ratios) + 1

    def setup(self, workdir: str, seed: int):
        corpus = _write_corpus(workdir, seed, False, self.seq_len)
        cfg = ModelConfig(vocab_size=corpus.manifest["vocab_size"], max_seq_len=self.seq_len)
        # zero steps: the final checkpoint is the initialisation. It uses the
        # fixed training seed, as the training workloads do: ppl at a random
        # initialisation spreads 6% across init seeds and 1% across corpora
        ckpt, _ = training.train(cfg, corpus, DenseTrain(), seed=TRAIN_SEED,
                                 run=RunConfig(total_steps=0, val_sequences=self.val_sequences,
                                               val_batch_size=self.val_batch_size))
        path = os.path.join(workdir, "dense.bin")
        checkpoint.save_checkpoint(ckpt, path)
        return corpus, ckpt, path

    def run_timed(self, inputs, workdir: str) -> Outcome:
        corpus, written, path = inputs
        val = {"val_sequences": self.val_sequences, "val_batch_size": self.val_batch_size}
        loaded = checkpoint.load_checkpoint(path)
        moefied = training.moefy_checkpoint(loaded, self.num_experts, seed=TRAIN_SEED)
        ppls = [training.eval_perplexity(moefied, corpus, sparse_k=self.active_experts,
                                         dynamic_ratio=rho, **val)
                for rho in self.dynamic_ratios]
        ppls.append(training.eval_perplexity(moefied, corpus, **val))
        bad = sum(not math.isfinite(p) for p in ppls)
        layout = moefied.moe_layout
        cfg = written.config
        tokens_per_eval = self.val_sequences * self.seq_len
        dense_seq = flops_estimate(cfg, DenseMode(), self.seq_len).per_sequence_forward
        sparse_seq = flops_estimate(cfg, SmoeMode(self.num_experts, self.active_experts),
                                    self.seq_len).per_sequence_forward
        n_sparse = len(self.dynamic_ratios)
        checks = [
            ("ppl finite", bad == 0, f"ppl={ppls}"),
            ("checkpoint round trip bitwise", params_identical(loaded.params, written.params), ""),
            ("moefied layout", layout["num_experts"] == self.num_experts
             and len(layout["partitions"]) == cfg.n_layers, ""),
        ]
        return Outcome(
            tokens=len(ppls) * tokens_per_eval,
            attempted=self.ops_per_rep,
            failed=bad,
            ppl=ppls[0],
            checks=checks,
            replay=(ppls, layout["partitions"]),
            params=loaded.params,
            ledger={"flops.ledger_gflop":
                        self.val_sequences * (n_sparse * sparse_seq + dense_seq) / 1e9,
                    "flops.ledger_step_dense_gflop": 0.0,
                    "flops.ledger_step_sparse_gflop": 0.0,
                    "flops.ledger_sparse_over_dense": sparse_seq / dense_seq,
                    "training.dense_steps": 0,
                    "training.sparse_steps": 0,
                    "training.final_dense_steps": 0},
        )


DESK = {}  # ModelConfig() defaults: 4 layers, d_model 128, 4 heads, d_ff 512
DESK_RUN = dict(batch_size=8, val_sequences=4, val_batch_size=2, sparsity_interval=1,
                checkpoint_interval=10 ** 9)

WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        name="toy-ssd",
        vocab=True, seq_len=32,
        model=dict(n_layers=2, d_model=32, n_heads=2, d_ff=64),
        mode=SsdTrain(ssd=SSDConfig(similarity_threshold=FIRE_ALWAYS_THRESHOLD,
                                    monitor_interval=100),
                      num_experts=8, active_experts=2),
        run=RunConfig(total_steps=300, batch_size=4, val_interval=100,
                      val_sequences=64, val_batch_size=8, checkpoint_interval=100,
                      sparsity_interval=50),
        opt=OptimizerConfig(),
        phases={"dense": 145, "sparse": 125, "final_dense": 30},
        checkpoints=True,
    ),
    TrainWorkload(
        name="desk-dense",
        vocab=False, seq_len=64, model=DESK, mode=DenseTrain(),
        run=RunConfig(total_steps=2, val_interval=2, **DESK_RUN),
        opt=OptimizerConfig(),
        phases={"dense": 2},
    ),
    TrainWorkload(
        name="desk-ssd",
        vocab=False, seq_len=64, model=DESK,
        mode=SsdTrain(ssd=SSDConfig(similarity_threshold=FIRE_ALWAYS_THRESHOLD,
                                    monitor_interval=1, final_dense_ratio=0.2),
                      num_experts=32, active_experts=6),
        run=RunConfig(total_steps=5, val_interval=5, **DESK_RUN),
        opt=OptimizerConfig(),
        phases={"dense": 2, "sparse": 2, "final_dense": 1},
    ),
    EvalWorkload(name="desk-eval"),
)}
