import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from ssdlab.data import (
    CorpusConfig,
    make_toy_corpus,
    tokenize_corpus,
    toy_vocab_chars,
)
from ssdlab.model import GPT, ModelConfig, _forward
from ssdlab.numerics import make_rng, matmul_nt
from ssdlab.scheduler import SSDConfig
from ssdlab.training import OptimizerConfig, RunConfig, SsdTrain, train

# ---------------------------------------------------------------------------
# Gradient-check helpers
# ---------------------------------------------------------------------------

FD_EPS = 1e-5


def central_diff(f, arr, index, h=FD_EPS):
    flat = arr.reshape(-1)
    orig = flat[index]
    flat[index] = orig + h
    plus = f()
    flat[index] = orig - h
    minus = f()
    flat[index] = orig
    return (plus - minus) / (2 * h)


def rel_err(analytic, fd):
    return abs(analytic - fd) / max(abs(analytic) + abs(fd), 1e-8)


def max_grad_error(f, arrays_and_grads, samples=10, h=FD_EPS):
    """Worst relative error between analytic grads and central differences,
    probing `samples` evenly spread coordinates of each array."""
    worst = 0.0
    for arr, grad in arrays_and_grads:
        flat_g = grad.reshape(-1)
        idxs = np.linspace(0, flat_g.size - 1, min(samples, flat_g.size)).astype(int)
        for i in idxs:
            fd = central_diff(f, arr, i, h)
            worst = max(worst, rel_err(flat_g[i], fd))
    return worst


def min_relu_margin(model, token_ids):
    """Distance of the closest pre-activation to the ReLU kink; gradient
    checks need this comfortably above the FD perturbation."""
    caches = []
    _forward(model, token_ids, caches)
    p = model.params
    return min(np.abs(matmul_nt(c[3][0], p[f"block{i}.ffn_w_in"])
                      + p[f"block{i}.ffn_b_in"]).min()
               for i, c in enumerate(caches[:-1]))  # the last is the head's


# ---------------------------------------------------------------------------
# Bitwise comparison of nested results
# ---------------------------------------------------------------------------


def traced_peak(call):
    """(call(), the peak bytes it allocated above what was already live),
    as tracemalloc sees them; numpy reports its array buffers there."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def snapshot(obj):
    """The bytes of every array and float in a nested tuple, list, dict or
    dataclass. Two snapshots are equal only if every value matches bit for
    bit, sign of zero included; taken before and after a call, they catch
    an in-place write to anything the call was given or returned."""
    if dataclasses.is_dataclass(obj):
        obj = vars(obj)
    if isinstance(obj, dict):
        return {k: snapshot(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [snapshot(v) for v in obj]
    if isinstance(obj, (float, np.floating, np.ndarray)):
        arr = np.asarray(obj)
        return (arr.dtype.str, arr.shape, arr.tobytes())
    return obj


# ---------------------------------------------------------------------------
# Toy corpus and a trained switchable run, shared across test modules
# ---------------------------------------------------------------------------

TOY_SEQ_LEN = 32


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus_path = root / "toy.txt"
    corpus_path.write_text(make_toy_corpus(n_docs=200, seed=1))
    vocab_path = root / "vocab.json"
    vocab_path.write_text(json.dumps(toy_vocab_chars()))
    cfg = CorpusConfig(str(corpus_path), tokenizer=str(vocab_path),
                       val_fraction=0.1, seq_len=TOY_SEQ_LEN)
    return tokenize_corpus(cfg)


def toy_model_config(vocab_size, **overrides):
    base = dict(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                vocab_size=vocab_size, max_seq_len=TOY_SEQ_LEN)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="session")
def toy_ssd_run(toy_corpus, tmp_path_factory):
    """A 2000-step switchable run with several transitions, checkpoints every
    500 steps, and continuity probes on."""
    out_dir = str(tmp_path_factory.mktemp("ssd_run"))
    model_cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
    ssd = SSDConfig(similarity_threshold=0.5, monitor_interval=100)
    mode = SsdTrain(ssd=ssd, num_experts=8, active_experts=2)
    run = RunConfig(total_steps=2000, batch_size=4, val_interval=500,
                    val_sequences=16, val_batch_size=8,
                    checkpoint_interval=500, sparsity_interval=50,
                    out_dir=out_dir)
    opt = OptimizerConfig(base_lr=1.0, warmup=200)
    final, records = train(model_cfg, toy_corpus, mode, opt, seed=7, run=run)
    return {"final": final, "records": records, "out_dir": out_dir,
            "model_cfg": model_cfg, "mode": mode, "run": run, "opt": opt,
            "seed": 7, "corpus": toy_corpus}


@pytest.fixture()
def fresh_toy_model(toy_corpus):
    cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
    return GPT.init(cfg, make_rng(42))
