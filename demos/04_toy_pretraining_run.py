"""A complete toy pre-training run with phase switching, end to end.

Trains a 2-layer character model on a synthetic corpus three ways (dense,
fixed sparse-MoE, switchable), then evaluates the switchable checkpoint as a
sparse model at several expert counts and with batch-level dynamic
truncation. Takes a couple of minutes on one core.
"""

import json
import os
import tempfile

import numpy as np

from ssdlab import ModelConfig, SSDConfig, make_toy_corpus, tokenize_corpus
from ssdlab.data import CorpusConfig, toy_vocab_chars, unigram_perplexity
from ssdlab.training import (
    DenseTrain,
    OptimizerConfig,
    RunConfig,
    SmoeTrain,
    SsdTrain,
    eval_perplexity,
    train,
)

work = tempfile.mkdtemp(prefix="ssdlab_demo_")
corpus_path = os.path.join(work, "toy.txt")
vocab_path = os.path.join(work, "vocab.json")
with open(corpus_path, "w") as f:
    f.write(make_toy_corpus(n_docs=200, seed=1))
with open(vocab_path, "w") as f:
    json.dump(toy_vocab_chars(), f)

corpus = tokenize_corpus(CorpusConfig(corpus_path, tokenizer=vocab_path,
                                      val_fraction=0.1, seq_len=32))
vocab = corpus.manifest["vocab_size"]
print(f"corpus: {corpus.manifest['train_tokens']} train tokens, "
      f"{corpus.manifest['val_tokens']} validation tokens, vocab {vocab}")
print(f"unigram baseline perplexity: "
      f"{unigram_perplexity(corpus.train_tokens, corpus.val_tokens, vocab):.2f}")

model_cfg = ModelConfig(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                        vocab_size=vocab, max_seq_len=32)
opt = OptimizerConfig(base_lr=1.0, warmup=200)
steps = 1500

print(f"\n== training three ways for {steps} steps ==")
results = {}
for name, mode in [
    ("dense", DenseTrain()),
    ("smoe", SmoeTrain(num_experts=8, active_experts=2)),
    ("ssd", SsdTrain(ssd=SSDConfig(similarity_threshold=0.5, monitor_interval=100),
                     num_experts=8, active_experts=2)),
]:
    run = RunConfig(total_steps=steps, batch_size=4, val_interval=500,
                    val_sequences=16, sparsity_interval=100,
                    out_dir=os.path.join(work, f"run_{name}"))
    final, records = train(model_cfg, corpus, mode, opt, seed=0, run=run)
    results[name] = (final, records)
    flops = records[-1].flops
    print(f"{name:6s}: final loss {records[-1].loss:.3f}, "
          f"val ppl {records[-1].ppl:.3f}, training FLOPs {flops/1e9:.1f} G")

dense_flops = results["dense"][1][-1].flops
ssd_flops = results["ssd"][1][-1].flops
print(f"\nswitchable run used {dense_flops / ssd_flops:.2f}x fewer FLOPs than dense")

final_ssd, records_ssd = results["ssd"]
events = final_ssd.scheduler["events"]
print("\n== schedule of the switchable run ==")
for e in events:
    sim = "-" if e["similarity"] is None else f"{e['similarity']:.2f}"
    print(f"  step {e['step']:5d}: {e['kind']:18s} similarity {sim}")
sparsities = [(r.step, np.mean(r.sparsity)) for r in records_ssd
              if r.sparsity is not None]
print("mean activation sparsity:",
      " -> ".join(f"{s:.2f}" for _, s in sparsities[:: max(1, len(sparsities) // 6)]))

print("\n== sparse inference from the one switchable checkpoint ==")
print("the final model is dense; its training-time expert structure rides along")
for k in (1, 2, 4, 8):
    ppl = eval_perplexity(final_ssd, corpus, sparse_k=k, val_sequences=16)
    share = k / 8
    print(f"  k={k} ({share:.0%} of experts): perplexity {ppl:.3f}")
dense_ppl = eval_perplexity(final_ssd, corpus, val_sequences=16)
print(f"  dense evaluation:            perplexity {dense_ppl:.3f}")

print("\n== dynamic truncation: different tokens use different expert counts ==")
for rho in (0.0, 0.25, 0.5):
    ppl = eval_perplexity(final_ssd, corpus, sparse_k=4, dynamic_ratio=rho,
                          val_sequences=16)
    print(f"  k=4 candidates, truncating {rho:.0%}: perplexity {ppl:.3f}")

print(f"\nrun artifacts in {work}")
