"""Command-line front end.

Subcommands: train, moefy, eval, analyze, export. Configuration comes from an
optional JSON file (--config) whose sections model/corpus/optimizer/run/ssd/moe
take their dataclass's fields as keys (moe: SmoeTrain or SsdTrain; see README);
command-line flags override file values. Rejected preconditions and bad config
input exit nonzero with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from ssdlab.checkpoint import load_checkpoint, save_checkpoint
from ssdlab.data import CorpusConfig, read_json, tokenize_corpus, validation_batches
from ssdlab.metrics import export_metrics, load_metrics_jsonl
from ssdlab.model import GPT, ModelConfig, activation_sparsity, lm_loss
from ssdlab.numerics import make_rng
from ssdlab.scheduler import SSDConfig, pattern_similarity
from ssdlab.training import (
    DenseTrain,
    OptimizerConfig,
    RunConfig,
    SmoeTrain,
    SsdTrain,
    eval_perplexity,
    moefy_checkpoint,
    train,
)


def _load_config(path):
    if path is None:
        return {}
    cfg = read_json(path, "config file")
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return cfg


SECTIONS = ("model", "corpus", "optimizer", "run", "moe", "ssd")
# the sections a mode reads besides model/corpus/optimizer/run
MODE_SECTIONS = {"dense": (), "smoe": ("moe",), "ssd": ("moe", "ssd")}
# the JSON types a config value may take, by its field's declared type with
# any quotes stripped (exactly: a JSON true is a bool, not an int)
_VALUE_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
                "str | None": (str, type(None))}


def _section(cfg_file: dict, name: str, overrides: dict, cls, derived=None):
    """Build section `name` from the file, with `overrides` applied.

    `derived` maps the keys whose value always comes from elsewhere to where
    it comes from; the file may not set them. Each file value must have its
    field's declared type.
    """
    merged = cfg_file.get(name, {})
    if not isinstance(merged, dict):
        raise ValueError(f"config section {name!r} must be a JSON object")
    merged = dict(merged)
    types = {f.name: f.type.strip("'") for f in dataclasses.fields(cls)}
    for key, value in merged.items():
        if key not in types:
            raise ValueError(f"unknown key {key!r} in config section {name!r}")
        if derived and key in derived:
            raise ValueError(f"key {key!r} in config section {name!r} cannot be "
                             f"set: it comes from {derived[key]}")
        if type(value) not in _VALUE_TYPES[types[key]]:
            raise ValueError(f"bad value in config section {name!r}: {key!r} must "
                             f"be {types[key]}, got {json.dumps(value)}")
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**merged)
    except TypeError as e:
        raise ValueError(f"bad value in config section {name!r}: {e}") from e


def cmd_train(args) -> int:
    cfg_file = _load_config(args.config)
    mode_name = args.mode or cfg_file.get("mode", "dense")
    if not isinstance(mode_name, str) or mode_name not in MODE_SECTIONS:
        raise ValueError(f"unknown mode {mode_name!r}")
    for name in cfg_file:
        if name != "mode" and name not in SECTIONS:
            raise ValueError(f"unknown config section {name!r}")
        if name in ("moe", "ssd") and name not in MODE_SECTIONS[mode_name]:
            raise ValueError(f"config section {name!r} is not read in {mode_name} mode")
    if mode_name == "dense" and (args.experts is not None or args.k is not None):
        raise ValueError("--experts and --k are not read in dense mode")
    corpus_cfg = _section(cfg_file, "corpus",
                          {"path": args.corpus, "seq_len": args.seq_len},
                          CorpusConfig)
    corpus = tokenize_corpus(corpus_cfg)
    model_over = {"vocab_size": corpus.manifest["vocab_size"]}
    model_cfg = _section(cfg_file, "model", model_over, ModelConfig,
                         {"vocab_size": "the corpus"})
    opt = _section(cfg_file, "optimizer", {}, OptimizerConfig)
    run = _section(cfg_file, "run",
                   {"total_steps": args.steps, "out_dir": args.out}, RunConfig)
    moe_over = {"num_experts": args.experts, "active_experts": args.k}
    if mode_name == "dense":
        mode = DenseTrain()
    elif mode_name == "smoe":
        mode = _section(cfg_file, "moe", moe_over, SmoeTrain)
    else:
        ssd = _section(cfg_file, "ssd", {}, SSDConfig)
        mode = _section(cfg_file, "moe", {**moe_over, "ssd": ssd}, SsdTrain,
                        {"ssd": "the 'ssd' section"})
    resume = load_checkpoint(args.resume, adam=True) if args.resume else None
    final, records = train(model_cfg, corpus, mode, opt, seed=args.seed,
                           run=run, resume_from=resume)
    last = records[-1] if records else None
    print(f"trained {final.step} steps "
          f"(final loss {last.loss:.4f}, ppl {last.ppl:.4f})" if last else "no steps run")
    if run.out_dir:
        print(f"run artifacts in {run.out_dir}")
    return 0


def cmd_moefy(args) -> int:
    ckpt = load_checkpoint(args.checkpoint, adam=True)  # written back unchanged
    out = moefy_checkpoint(ckpt, args.experts, seed=args.seed)
    save_checkpoint(out, args.out)
    print(f"wrote MoEfied checkpoint ({args.experts} experts) to {args.out}")
    return 0


def _corpus_for(ckpt, args):
    """--corpus tokenized with --tokenizer, whose vocabulary must be the
    checkpoint's."""
    corpus = tokenize_corpus(CorpusConfig(args.corpus, tokenizer=args.tokenizer,
                                          seq_len=args.seq_len))
    if corpus.manifest["vocab_size"] != ckpt.config.vocab_size:
        raise ValueError(f"corpus vocab {corpus.manifest['vocab_size']} "
                         f"(tokenizer {args.tokenizer!r}) != model vocab "
                         f"{ckpt.config.vocab_size}")
    return corpus


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    corpus = _corpus_for(ckpt, args)
    ppl = eval_perplexity(ckpt, corpus, sparse_k=args.k,
                          dynamic_ratio=args.dynamic_ratio)
    mode = "dense" if args.k is None else f"k={args.k}, rho={args.dynamic_ratio}"
    print(json.dumps({"perplexity": ppl, "mode": mode, "step": ckpt.step}))
    return 0


def cmd_analyze(args) -> int:
    """Per-layer pattern similarity (scheduler.pattern_similarity) and the
    activation sparsity of each checkpoint's dense weights
    (model.activation_sparsity), measured as training measures them, on
    --corpus validation batches or on random tokens. The forward-only
    lm_loss counts each block's zeros and drops its hidden state before the
    next block runs."""
    if args.seq_len < 1:
        raise ValueError(f"--seq-len must be >= 1, got {args.seq_len}")
    ckpt_a = load_checkpoint(args.checkpoint_a)
    ckpt_b = load_checkpoint(args.checkpoint_b)
    # both checkpoints run the same batches (pattern_similarity checks that
    # their configs match)
    if args.corpus:
        corpus = _corpus_for(ckpt_a, args)
        batches = validation_batches(corpus.val_tokens, corpus.seq_len,
                                     RunConfig.val_sequences, RunConfig.val_batch_size)
    else:
        rng = make_rng(args.seed)
        batches = [rng.integers(0, ckpt_a.config.vocab_size, size=(8, args.seq_len + 1))
                   for _ in range(16)]
    per_layer = pattern_similarity(ckpt_a, ckpt_b, args.experts, args.seed)

    def sparsity_of(ckpt):  # of the dense weights, whatever layout is stored
        model = GPT(ckpt.config, ckpt.params)
        return activation_sparsity(lm_loss(model, b, want_grads=False)[2]
                                   for b in batches)

    print(json.dumps({
        "similarity": {"per_layer_ari": per_layer,
                       "mean_ari": float(np.mean(per_layer))},
        "sparsity_a": sparsity_of(ckpt_a),
        "sparsity_b": sparsity_of(ckpt_b),
    }))
    return 0


def cmd_export(args) -> int:
    metrics_path = os.path.join(args.run_dir, "metrics.jsonl")
    run_path = os.path.join(args.run_dir, "run.json")
    records = load_metrics_jsonl(metrics_path)
    run_info = read_json(run_path, "run file")
    n_layers = run_info.get("n_layers") if isinstance(run_info, dict) else None
    if type(n_layers) is not int:
        raise ValueError(f"{run_path} has no integer n_layers")
    out = args.out or os.path.join(args.run_dir, f"metrics.{args.format}")
    for path in (metrics_path, run_path):
        if os.path.exists(out) and os.path.samefile(out, path):
            raise ValueError(f"refusing to overwrite the input {path}: "
                             "pass another --out")
    export_metrics(records, out, args.format, n_layers)
    print(f"wrote {len(records)} records to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ssdlab",
                                description="switchable sparse-dense training lab")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="pre-train in dense, smoe, or ssd mode")
    t.add_argument("--config", help="JSON config file")
    t.add_argument("--corpus", help="path to raw text corpus")
    t.add_argument("--mode", choices=["dense", "smoe", "ssd"])
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--steps", type=int)
    t.add_argument("--out", help="run directory for checkpoints and metrics")
    t.add_argument("--seq-len", type=int, dest="seq_len")
    t.add_argument("--experts", type=int, help="expert count for smoe/ssd")
    t.add_argument("--k", type=int, help="selected experts for smoe/ssd")
    t.add_argument("--resume", help="checkpoint to resume from")
    t.set_defaults(fn=cmd_train)

    m = sub.add_parser("moefy", help="cluster a dense checkpoint into experts")
    m.add_argument("--checkpoint", required=True)
    m.add_argument("--experts", type=int, required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(fn=cmd_moefy)

    e = sub.add_parser("eval", help="validation perplexity of a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--tokenizer", default="byte")
    e.add_argument("--seq-len", type=int, dest="seq_len", default=64)
    e.add_argument("--k", type=int, help="sparse evaluation with k experts")
    e.add_argument("--dynamic-ratio", type=float, default=0.0, dest="dynamic_ratio")
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("analyze", help="sparsity and pattern similarity of two checkpoints")
    a.add_argument("--checkpoint-a", required=True, dest="checkpoint_a")
    a.add_argument("--checkpoint-b", required=True, dest="checkpoint_b")
    a.add_argument("--experts", type=int, default=32)
    a.add_argument("--corpus", help="corpus for activation sparsity (random tokens if absent)")
    a.add_argument("--tokenizer", default="byte")
    a.add_argument("--seq-len", type=int, dest="seq_len", default=64)
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(fn=cmd_analyze)

    x = sub.add_parser("export", help="export a run's metrics stream")
    x.add_argument("--run-dir", required=True, dest="run_dir")
    x.add_argument("--format", choices=["csv", "jsonl"], required=True)
    x.add_argument("--out")
    x.set_defaults(fn=cmd_export)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
