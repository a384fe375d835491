"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the slowest criterion (8) trains a toy model for 10,000 steps and is
budgeted at 30 minutes on one core (it typically finishes in ~2 minutes).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ssdlab.checkpoint import checkpoint_to_bytes, load_checkpoint
from ssdlab.clustering import (
    Partition,
    adjusted_rand_index,
    balanced_kmeans,
    cluster_with_warmstart,
)
from ssdlab.flops import dense_ffn_flops_per_token, smoe_ffn_flops_per_token, ssd_speedup
from ssdlab.model import (
    GPT,
    FFNWeights,
    ModelConfig,
    activation_sparsity,
    ffn_backward,
    ffn_forward,
    lm_loss,
)
from ssdlab.moe import (
    GateDecision,
    MoEFFN,
    dynamic_topk,
    smoe_backward,
    smoe_forward,
    topk_mask,
)
from ssdlab.numerics import make_rng
from ssdlab.scheduler import (
    SchedulerState,
    SSDConfig,
    final_dense_start,
    monitor_similarity,
    on_monitor,
    transition_dense_to_sparse,
    transition_sparse_to_dense,
)
from ssdlab.training import OptimizerConfig, RunConfig, SsdTrain, train

from conftest import max_grad_error, min_relu_margin, toy_model_config
from test_analysis import ari_pair_counting
from test_moe import smoe_forward_reference


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:2d} {name}: PASS ({time.time() - start:.1f}s)")


def random_ffn(rng, d_ff=32, d_model=16):
    return FFNWeights(rng.standard_normal((d_ff, d_model)), rng.standard_normal(d_ff),
                      rng.standard_normal((d_model, d_ff)), rng.standard_normal(d_model))


def random_partition(rng, d_ff=32, n=4):
    a = np.repeat(np.arange(n, dtype=np.int64), d_ff // n)
    rng.shuffle(a)
    return Partition(a, n)


def test_criterion_01_k_equals_n_equivalence():
    with criterion(1, "K=N forward equivalence at 0 ULP"):
        start = time.time()
        for trial in range(100):
            rng = make_rng(trial)
            w = random_ffn(rng)
            p = random_partition(rng)
            m = MoEFFN(w, p, p.num_clusters)
            x = rng.standard_normal((5, 16))
            y_sparse, _, _, _ = smoe_forward(m, x)
            y_dense, _, _ = ffn_forward(w, x)
            assert np.array_equal(y_sparse, y_dense)
        assert time.time() - start < 10.0


def test_criterion_02_split_merge_round_trip():
    with criterion(2, "dense->sparse->dense round trip: 0 ULP loss, bitwise params"):
        start = time.time()
        cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                          vocab_size=11, max_seq_len=8)
        for trial in range(100):
            rng = make_rng(1000 + trial)
            model = GPT.init(cfg, rng)
            snapshot = {k: v.copy() for k, v in model.params.items()}
            ids = rng.integers(0, cfg.vocab_size, size=(2, 8))
            loss_before, _, _ = lm_loss(model, ids, want_grads=False)
            state = SchedulerState.fresh(cfg.n_layers)
            monitor_similarity(model, state, 4, seed=trial, step=0)
            transition_dense_to_sparse(model, state, 4)
            for layer, m in enumerate(model.moe):
                assert m.weights.w_in is model.params[f"block{layer}.ffn_w_in"]
            loss_k_equals_n, _, _ = lm_loss(model, ids, want_grads=False)
            transition_sparse_to_dense(model, state)
            assert all(m is None for m in model.moe)
            loss_after, _, _ = lm_loss(model, ids, want_grads=False)
            assert loss_before == loss_k_equals_n == loss_after
            assert all(np.array_equal(model.params[k], snapshot[k]) for k in snapshot)
        assert time.time() - start < 10.0


def test_criterion_03_zero_gradient_for_unselected_experts():
    with criterion(3, "unselected experts receive exactly-zero gradients"):
        checked = 0
        trial = 0
        while checked < 50:
            rng = make_rng(2000 + trial)
            trial += 1
            m = MoEFFN(random_ffn(rng), random_partition(rng, n=8), 2)
            x = rng.standard_normal((4, 16))
            y, decision, _, cache = smoe_forward(m, x)
            never_selected = np.flatnonzero(~decision.selected.any(axis=0))
            if never_selected.size == 0:
                continue
            checked += 1
            _, grads = smoe_backward(m, cache, rng.standard_normal(y.shape))
            for e in never_selected:
                rows = m.partition.cluster_members(e)
                assert np.all(grads["w_in"][rows] == 0.0)
                assert np.all(grads["b_in"][rows] == 0.0)
                assert np.all(grads["w_out"][:, rows] == 0.0)


def test_criterion_04_gradient_fidelity():
    with criterion(4, "analytic gradients match finite differences < 1e-4"):
        # feed-forward block
        rng = make_rng(3)
        w = random_ffn(rng, d_ff=10, d_model=6)
        x = rng.standard_normal((4, 6))
        d_out = rng.standard_normal((4, 6))
        _, _, cache = ffn_forward(w, x)
        d_x, grads, _ = ffn_backward(w, cache, d_out)

        def ffn_loss():
            y, _, _ = ffn_forward(w, x)
            return (y * d_out).sum()

        pairs = [(x, d_x)] + [(getattr(w, k), grads[k])
                              for k in ("w_in", "b_in", "w_out", "b_out")]
        assert max_grad_error(ffn_loss, pairs, samples=12) < 1e-4

        # sparse layer in a locally stable top-K region (frozen-score
        # surrogate keeps the straight-through path differentiable)
        rng = make_rng(7)
        m = MoEFFN(random_ffn(rng), random_partition(rng), 2)
        x = rng.standard_normal((4, 16))
        y0, decision, _, cache = smoe_forward(m, x)
        frozen = decision.scores.copy()
        d_y = rng.standard_normal(y0.shape)
        d_x, grads = smoe_backward(m, cache, d_y)

        def smoe_loss():
            y, _, _, _ = smoe_forward_reference(m, x, decision, frozen)
            return (y * d_y).sum()

        pairs = [(x, d_x)] + [(getattr(m.weights, k), grads[k])
                              for k in ("w_in", "b_in", "w_out", "b_out")]
        assert max_grad_error(smoe_loss, pairs, samples=12) < 1e-4

        # attention block and end-to-end 2-layer model
        cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=24,
                          vocab_size=11, max_seq_len=8)
        rng = make_rng(28)
        model = GPT.init(cfg, rng)
        ids = rng.integers(0, cfg.vocab_size, size=(2, 7))
        assert min_relu_margin(model, ids[:, :-1]) > 20 * 1e-5
        _, grads, _ = lm_loss(model, ids)

        def model_loss():
            loss, _, _ = lm_loss(model, ids, want_grads=False)
            return loss

        attn_pairs = [(model.params[k], grads[k]) for k in model.params
                      if "attn" in k or "ln1" in k]
        assert max_grad_error(model_loss, attn_pairs, samples=8) < 1e-4
        all_pairs = [(model.params[k], grads[k]) for k in model.params]
        assert max_grad_error(model_loss, all_pairs, samples=6) < 1e-4


def test_criterion_05_scheduler_arithmetic():
    with criterion(5, "transition arithmetic: 18000->22500, 6000->7500, last 10% dense"):
        cfg = SSDConfig(sparse_ratio=0.5, final_dense_ratio=0.1)
        st = SchedulerState.fresh(1)
        st.steps_in_phase = 18_000
        assert on_monitor(st, cfg, 0.95, step=18_000, total_steps=200_000, seed=0)
        assert st.sparse_budget == 22_500
        st2 = SchedulerState.fresh(1)
        st2.steps_in_phase = 6_000
        assert on_monitor(st2, cfg, 0.95, step=60_000, total_steps=200_000, seed=0)
        assert st2.sparse_budget == 7_500
        assert final_dense_start(cfg, 200_000) == 180_000
        assert 200_000 - final_dense_start(cfg, 200_000) == 20_000


def test_criterion_06_warmstart_selection():
    with criterion(6, "returned WCSS == min(random, warm-start); balance holds"):
        for trial in range(50):
            rng = make_rng(4000 + trial)
            w_in = rng.standard_normal((32, 8))
            prev = balanced_kmeans(w_in, 4, rng=make_rng(5000 + trial)).partition
            chosen = cluster_with_warmstart(w_in, 4, prev, make_rng(6000 + trial))
            rnd = balanced_kmeans(w_in, 4, rng=make_rng(6000 + trial))
            wrm = balanced_kmeans(w_in, 4, init=prev)
            assert chosen.wcss == min(rnd.wcss, wrm.wcss)
            counts = np.bincount(chosen.partition.assignment, minlength=4)
            assert counts.tolist() == [8, 8, 8, 8]


def test_criterion_07_ari_oracle():
    with criterion(7, "ARI: identity, -0.5 case, brute-force pair agreement"):
        p = Partition([0, 1, 2, 0, 1, 2], 3)
        assert adjusted_rand_index(p, p) == 1.0
        a = Partition([0, 0, 1, 1], 2)
        b = Partition([0, 1, 0, 1], 2)
        assert abs(adjusted_rand_index(a, b) - (-0.5)) < 1e-12
        rng = make_rng(8)
        for _ in range(50):
            n = int(rng.integers(4, 65))
            la = rng.integers(0, int(rng.integers(2, 6)), n)
            lb = rng.integers(0, int(rng.integers(2, 6)), n)
            got = adjusted_rand_index(Partition(la, la.max() + 1),
                                      Partition(lb, lb.max() + 1))
            assert abs(got - ari_pair_counting(la, lb)) < 1e-12


@pytest.mark.slow
def test_criterion_08_sparsity_emerges(toy_corpus):
    with criterion(8, "initial sparsity ~0.5; +0.1 after 10k toy steps"):
        start = time.time()
        from ssdlab.data import validation_batches
        from ssdlab.training import DenseTrain

        vocab = toy_corpus.manifest["vocab_size"]
        cfg = toy_model_config(vocab)
        rng = make_rng(42)
        fresh = GPT.init(cfg, rng)
        random_batches = [rng.integers(0, vocab, size=(8, 33)) for _ in range(17)]

        def measured_sparsity(model, batches):
            counts = [lm_loss(model, b, want_grads=False)[2] for b in batches]
            assert sum(c[0][1] for c in counts) >= 4096 * cfg.d_ff  # tokens
            return float(np.mean(activation_sparsity(counts)))

        initial = measured_sparsity(fresh, random_batches)
        assert abs(initial - 0.5) < 0.05

        run = RunConfig(total_steps=10_000, batch_size=4, val_interval=5000,
                        val_sequences=16, sparsity_interval=500)
        opt = OptimizerConfig(base_lr=1.0, warmup=500)
        final, _ = train(cfg, toy_corpus, DenseTrain(), opt, seed=42, run=run)
        trained = GPT(final.config, final.params)
        val = validation_batches(toy_corpus.val_tokens, toy_corpus.seq_len, 128, 8)
        end = measured_sparsity(trained, val)
        assert end >= initial + 0.1
        assert time.time() - start < 1800.0


def test_criterion_09_flops_model():
    with criterion(9, "FFN fraction exactly K/N; base-scale speedup in [1.3, 1.5]"):
        base = ModelConfig.base_scale()
        gate = 2 * 32 * base.d_model
        fraction = ((smoe_ffn_flops_per_token(base, 32, 6) - gate)
                    / dense_ffn_flops_per_token(base))
        assert fraction == 6 / 32 == 0.1875
        speedup = ssd_speedup(base, 32, 6, sparse_fraction=0.5)
        assert 1.3 <= speedup <= 1.5


def test_criterion_10_determinism_and_resume(toy_corpus, tmp_path):
    with criterion(10, "bit-identical reruns; resume == uninterrupted"):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        ssd = SSDConfig(similarity_threshold=0.5, monitor_interval=10)
        mode = SsdTrain(ssd=ssd, num_experts=8, active_experts=2)
        opt = OptimizerConfig(base_lr=1.0, warmup=100)

        def run(out, resume=None):
            rc = RunConfig(total_steps=40, batch_size=4, val_interval=20,
                           val_sequences=8, val_batch_size=4,
                           checkpoint_interval=20, sparsity_interval=5,
                           out_dir=str(out))
            return train(cfg, toy_corpus, mode, opt, seed=11, run=rc,
                         resume_from=resume)

        final_a, rec_a = run(tmp_path / "a")
        final_b, rec_b = run(tmp_path / "b")
        assert checkpoint_to_bytes(final_a) == checkpoint_to_bytes(final_b)
        assert rec_a == rec_b

        mid = load_checkpoint(tmp_path / "a" / "ckpt_00000020.bin", adam=True)
        final_c, rec_c = run(tmp_path / "c", resume=mid)
        assert checkpoint_to_bytes(final_c) == checkpoint_to_bytes(final_a)
        assert rec_c == rec_a[20:]


def test_criterion_11_dynamic_topk():
    with criterion(11, "dynamic top-k: counts, ordering audit, identity at 0"):
        rng = make_rng(9)
        for ratio in (0.25, 0.5, 0.75, 0.9):
            scores = rng.standard_normal((25, 8))
            d = GateDecision(scores, topk_mask(scores, 4))
            out = dynamic_topk(d, ratio)
            total = int(d.selected.sum())
            keep = int(np.ceil((1 - ratio) * total))
            toks, exps = np.nonzero(d.selected)
            pair_scores = scores[toks, exps]
            lex = np.lexsort((exps, toks, -pair_scores))
            kept_set = {(toks[i], exps[i]) for i in lex[:keep]}
            masked = np.where(d.selected, scores, -np.inf)
            best = masked.argmax(axis=1)
            additions = sum((t, best[t]) not in kept_set for t in range(25))
            assert int(out.selected.sum()) == keep + additions
            assert out.selected[np.arange(25), best].all()
            protected = np.zeros_like(d.selected)
            protected[np.arange(25), best] = True
            dropped = d.selected & ~out.selected
            kept_nonprot = out.selected & ~protected
            if dropped.any() and kept_nonprot.any():
                assert scores[dropped].max() <= scores[kept_nonprot].min() + 1e-15
        d = GateDecision(scores, topk_mask(scores, 4))
        assert np.array_equal(dynamic_topk(d, 0.0).selected, d.selected)


def test_criterion_12_transition_continuity(toy_ssd_run):
    with criterion(12, "evaluation loss continuous across both transition kinds"):
        events = toy_ssd_run["final"].scheduler["events"]
        kinds = {e["kind"] for e in events}
        assert "dense_to_sparse" in kinds
        assert {"sparse_to_dense", "enter_final_dense"} & kinds
        probed = [e for e in events if e["loss_before"] is not None]
        assert probed
        for e in probed:
            assert e["loss_before"] == e["loss_after"], e

        # bitwise parameter recovery for an immediate dense->sparse->dense
        cfg = toy_ssd_run["model_cfg"]
        model = GPT.init(cfg, make_rng(3))
        snapshot = {k: v.copy() for k, v in model.params.items()}
        state = SchedulerState.fresh(cfg.n_layers)
        monitor_similarity(model, state, 8, seed=0, step=0)
        transition_dense_to_sparse(model, state, 2)
        transition_sparse_to_dense(model, state)
        assert all(np.array_equal(model.params[k], snapshot[k]) for k in snapshot)
