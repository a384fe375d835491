import os

import numpy as np
import pytest

from ssdlab.checkpoint import checkpoint_to_bytes, load_checkpoint
from ssdlab.data import TokenizedCorpus, unigram_perplexity
from ssdlab.flops import ssd_total_train_flops
from ssdlab.metrics import MetricsRecord, csv_header, export_metrics, load_metrics_jsonl
from ssdlab.model import ModelConfig, init_params
from ssdlab.numerics import make_rng
from ssdlab.scheduler import PHASE_SPARSE, SSDConfig
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

from conftest import toy_model_config


def short_ssd_mode(total_steps=60):
    ssd = SSDConfig(similarity_threshold=0.5, monitor_interval=10,
                    total_steps=total_steps)
    return SsdTrain(ssd=ssd, num_experts=8, active_experts=2)


def short_run(total_steps=60, **kw):
    defaults = dict(total_steps=total_steps, batch_size=4, val_interval=30,
                    val_sequences=8, val_batch_size=4, checkpoint_interval=30,
                    sparsity_interval=5)
    defaults.update(kw)
    return RunConfig(**defaults)


OPT = OptimizerConfig(base_lr=1.0, warmup=100)


class TestDeterminism:
    def test_same_seed_bit_identical_runs(self, toy_corpus, tmp_path):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            final, records = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=3,
                                   run=short_run(out_dir=str(out)))
            outs.append((checkpoint_to_bytes(final), records))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_different_seed_differs(self, toy_corpus):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        _, rec_a = train(cfg, toy_corpus, DenseTrain(), OPT, seed=1,
                         run=short_run(20))
        _, rec_b = train(cfg, toy_corpus, DenseTrain(), OPT, seed=2,
                         run=short_run(20))
        assert [r.loss for r in rec_a] != [r.loss for r in rec_b]

    def test_resume_equals_uninterrupted(self, toy_corpus, tmp_path):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        full_dir = tmp_path / "full"
        final_full, rec_full = train(cfg, toy_corpus, short_ssd_mode(), OPT,
                                     seed=5, run=short_run(out_dir=str(full_dir)))
        part_dir = tmp_path / "part"
        train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5,
              run=short_run(out_dir=str(part_dir)))
        mid = load_checkpoint(part_dir / "ckpt_00000030.bin")
        assert mid.step == 30
        final_res, rec_res = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5,
                                   run=short_run(out_dir=str(tmp_path / "res")),
                                   resume_from=mid)
        assert checkpoint_to_bytes(final_res) == checkpoint_to_bytes(final_full)
        assert rec_res == rec_full[30:]

    def test_resume_from_mid_sparse_checkpoint(self, toy_corpus, tmp_path):
        # the checkpoint inside a sparse phase carries the active expert
        # layout; resuming must rebuild it and stay bit-exact through the
        # following merge
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        ssd = SSDConfig(similarity_threshold=0.05, monitor_interval=10,
                        total_steps=44)
        mode = SsdTrain(ssd=ssd, num_experts=8, active_experts=2)

        def run(out, resume=None):
            rc = short_run(44, checkpoint_interval=16, out_dir=str(out))
            return train(cfg, toy_corpus, mode, OPT, seed=7, run=rc,
                         resume_from=resume)

        final_full, rec_full = run(tmp_path / "full")
        mid = load_checkpoint(tmp_path / "full" / "ckpt_00000016.bin")
        assert mid.moe_layout is not None  # saved inside a sparse phase
        assert mid.scheduler["phase"] == PHASE_SPARSE
        final_res, rec_res = run(tmp_path / "res", resume=mid)
        assert checkpoint_to_bytes(final_res) == checkpoint_to_bytes(final_full)
        assert rec_res == rec_full[16:]

    def test_resume_leaves_checkpoint_unchanged(self, toy_corpus):
        # two resumes from one in-memory checkpoint replay each other, and
        # the checkpoint still holds the step it was taken at
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        mid, _ = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5,
                       run=short_run(30))
        runs = [train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5,
                      run=short_run(), resume_from=mid) for _ in range(2)]
        assert mid.adam.step_count == 30
        assert runs[0][1] == runs[1][1]
        assert checkpoint_to_bytes(runs[0][0]) == checkpoint_to_bytes(runs[1][0])

    def test_resume_rejects_other_mode_or_config(self, toy_corpus, tmp_path):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        out = tmp_path / "r"
        train(cfg, toy_corpus, DenseTrain(), OPT, seed=1,
              run=short_run(40, out_dir=str(out)))
        mid = load_checkpoint(out / "ckpt_00000030.bin")
        with pytest.raises(ValueError, match="different mode"):
            train(cfg, toy_corpus, short_ssd_mode(40), OPT, seed=1,
                  run=short_run(40), resume_from=mid)


class TestConfigForms:
    # resume compares these saved forms with the requested configs
    def test_saved_forms(self):
        assert DenseTrain().to_dict() == {"mode": "dense"}
        assert SmoeTrain().to_dict() == {"mode": "smoe", "num_experts": 3,
                                         "active_experts": 2}
        assert SsdTrain().to_dict() == {
            "mode": "ssd", "num_experts": 32, "active_experts": 6,
            "reset_adam_on_transition": False,
            "ssd": {"similarity_threshold": 0.9, "sparse_ratio": 0.5,
                    "final_dense_ratio": 0.1, "monitor_interval": 3000,
                    "total_steps": 200_000, "policy": "threshold"}}
        assert OptimizerConfig().to_dict() == {"base_lr": 0.5, "warmup": 2000,
                                               "beta1": 0.9, "beta2": 0.999,
                                               "eps": 1e-8}

    def test_mode_kind_is_not_settable(self):
        with pytest.raises(TypeError):
            SsdTrain(kind="dense")


class TestSsdScheduleBehavior:
    def test_r_zero_degenerates_to_dense_loss_sequence(self, toy_corpus):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        _, dense_rec = train(cfg, toy_corpus, DenseTrain(), OPT, seed=4,
                             run=short_run(40))
        ssd = SSDConfig(sparse_ratio=0.0, similarity_threshold=0.5,
                        monitor_interval=10, total_steps=40)
        _, ssd_rec = train(cfg, toy_corpus, SsdTrain(ssd=ssd, num_experts=8,
                                                     active_experts=2),
                           OPT, seed=4, run=short_run(40))
        assert [r.loss for r in ssd_rec] == [r.loss for r in dense_rec]
        assert all(r.phase in ("dense", "final_dense") for r in ssd_rec)

    def test_transitions_happen_and_probe_losses_match(self, toy_ssd_run):
        events = toy_ssd_run["final"].scheduler["events"]
        kinds = [e["kind"] for e in events]
        assert "dense_to_sparse" in kinds
        assert kinds.count("enter_final_dense") == 1
        for e in events:
            if e["loss_before"] is not None:
                assert e["loss_before"] == e["loss_after"]

    def test_flops_counter_agrees_with_analytic_model(self, toy_ssd_run):
        records = toy_ssd_run["records"]
        mode = toy_ssd_run["mode"]
        cfg = toy_ssd_run["model_cfg"]
        run = toy_ssd_run["run"]
        corpus = toy_ssd_run["corpus"]
        sparse_steps = sum(r.phase == PHASE_SPARSE for r in records)
        dense_steps = len(records) - sparse_steps
        predicted = ssd_total_train_flops(cfg, mode.num_experts,
                                          mode.active_experts, dense_steps,
                                          sparse_steps, corpus.seq_len,
                                          run.batch_size)
        assert records[-1].flops == predicted

    def test_sparse_fraction_bounded_by_ratio(self, toy_ssd_run):
        records = toy_ssd_run["records"]
        ssd = toy_ssd_run["mode"].ssd
        sparse_fraction = np.mean([r.phase == PHASE_SPARSE for r in records])
        budget = ssd.sparse_ratio / (1 - ssd.final_dense_ratio)
        assert sparse_fraction <= budget + 1e-9

    def test_realized_cycles_follow_budget_rule(self, toy_ssd_run):
        from ssdlab.scheduler import final_dense_start, sparse_budget_for

        records = toy_ssd_run["records"]
        ssd_cfg = SSDConfig(**toy_ssd_run["final"].ssd_config)
        events = toy_ssd_run["final"].scheduler["events"]
        # each dense->sparse event's sparse run length must equal the budget
        # its dense segment earned (possibly truncated at the final window)
        phases = [r.phase for r in records]
        for e in events:
            if e["kind"] != "dense_to_sparse":
                continue
            start = e["step"]
            length = 0
            while start + length < len(phases) and phases[start + length] == PHASE_SPARSE:
                length += 1
            dense_len = 0
            back = start - 1
            while back >= 0 and phases[back] == "dense":
                dense_len += 1
                back -= 1
            expected = min(sparse_budget_for(ssd_cfg, dense_len),
                           final_dense_start(ssd_cfg) - start)
            assert length == expected


class TestModesLearn:
    def test_all_modes_beat_unigram_within_budget(self, toy_corpus):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        baseline = unigram_perplexity(toy_corpus.train_tokens,
                                      toy_corpus.val_tokens,
                                      toy_corpus.manifest["vocab_size"])
        run = RunConfig(total_steps=1000, batch_size=4, val_interval=1000,
                        val_sequences=16, val_batch_size=8, sparsity_interval=0)
        modes = [DenseTrain(), SmoeTrain(num_experts=8, active_experts=2),
                 short_ssd_mode(1000)]
        for mode in modes:
            _, records = train(cfg, toy_corpus, mode, OPT, seed=6, run=run)
            assert records[-1].ppl is not None
            assert records[-1].ppl < baseline, mode.kind


class TestEvalPerplexity:
    def test_uniform_logit_model_gives_vocab_size(self):
        cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                          vocab_size=256, max_seq_len=16)
        params = init_params(cfg, make_rng(0))
        params["head"][:] = 0.0
        from ssdlab.checkpoint import Checkpoint
        ckpt = Checkpoint(config=cfg, params=params)
        rng = make_rng(1)
        corpus = TokenizedCorpus(
            train_tokens=rng.integers(0, 256, size=4000),
            val_tokens=rng.integers(0, 256, size=4000),
            manifest={"vocab_size": 256}, tokenizer=None, seq_len=16)
        ppl = eval_perplexity(ckpt, corpus, val_sequences=16)
        assert abs(ppl - 256.0) / 256.0 < 1e-6

    def test_k_equals_n_matches_dense_exactly(self, toy_ssd_run):
        corpus = toy_ssd_run["corpus"]
        final = toy_ssd_run["final"]
        dense = eval_perplexity(final, corpus, val_sequences=16)
        sparse = eval_perplexity(final, corpus, sparse_k=8, val_sequences=16)
        assert dense == sparse

    def test_perplexity_mostly_monotone_in_k(self, toy_ssd_run):
        corpus = toy_ssd_run["corpus"]
        final = toy_ssd_run["final"]
        ppls = [eval_perplexity(final, corpus, sparse_k=k, val_sequences=16)
                for k in (1, 2, 4, 8)]
        inversions = [i for i in range(len(ppls) - 1) if ppls[i + 1] > ppls[i]]
        assert len(inversions) <= 1
        for i in inversions:
            assert ppls[i + 1] <= ppls[i] * 1.01
        assert ppls[-1] < ppls[0]

    def test_dynamic_ratio_changes_result_but_stays_finite(self, toy_ssd_run):
        corpus = toy_ssd_run["corpus"]
        final = toy_ssd_run["final"]
        base = eval_perplexity(final, corpus, sparse_k=4, val_sequences=16)
        dyn = eval_perplexity(final, corpus, sparse_k=4, dynamic_ratio=0.5,
                              val_sequences=16)
        assert np.isfinite(dyn) and dyn != base

    def test_dense_checkpoint_requires_experts_to_moefy(self, toy_corpus):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        final, _ = train(cfg, toy_corpus, DenseTrain(), OPT, seed=8,
                         run=short_run(20, checkpoint_interval=100))
        with pytest.raises(ValueError, match="MoEfy"):
            eval_perplexity(final, toy_corpus, sparse_k=2)
        ppl = eval_perplexity(final, toy_corpus, sparse_k=2, num_experts=8,
                              val_sequences=8)
        assert np.isfinite(ppl)

    def test_moefied_checkpoint_reuses_stored_structure(self, toy_corpus):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        final, _ = train(cfg, toy_corpus, DenseTrain(), OPT, seed=9,
                         run=short_run(20, checkpoint_interval=100))
        moefied = moefy_checkpoint(final, num_experts=8, seed=1)
        assert moefied.moe_layout["num_experts"] == 8
        a = eval_perplexity(moefied, toy_corpus, sparse_k=2, val_sequences=8)
        b = eval_perplexity(moefied, toy_corpus, sparse_k=2, val_sequences=8)
        assert a == b


class TestSimilarityTrend:
    def test_late_checkpoints_more_similar_than_early(self, toy_ssd_run):
        from ssdlab.analysis import pattern_similarity
        from ssdlab.checkpoint import Checkpoint
        from ssdlab.model import GPT

        out_dir = toy_ssd_run["out_dir"]
        cfg = toy_ssd_run["model_cfg"]
        init_model = GPT.init(cfg, make_rng(toy_ssd_run["seed"]))
        ck0 = Checkpoint(config=cfg, params=init_model.params)
        ck500 = load_checkpoint(os.path.join(out_dir, "ckpt_00000500.bin"))
        ck1500 = load_checkpoint(os.path.join(out_dir, "ckpt_00001500.bin"))
        ck_final = toy_ssd_run["final"]
        early = pattern_similarity(ck0, ck500, 8, make_rng(0)).mean_ari
        late = pattern_similarity(ck1500, ck_final, 8, make_rng(0)).mean_ari
        assert late > early

    def test_monitor_similarities_recorded_in_metrics(self, toy_ssd_run):
        sims = [r.similarity for r in toy_ssd_run["records"]
                if r.similarity is not None]
        assert len(sims) >= 2
        assert all(-0.5 - 1e-9 <= s <= 1.0 + 1e-9 for s in sims)


class TestMetricsExport:
    def _records(self):
        return [MetricsRecord(step=0, phase="dense", loss=1.5, ppl=None,
                              sparsity=[0.5, 0.625], similarity=None,
                              flops=100, lr=0.001),
                MetricsRecord(step=1, phase="sparse", loss=1.25, ppl=4.75,
                              sparsity=None, similarity=0.875,
                              flops=150, lr=0.002)]

    def test_csv_column_count_is_seven_plus_layers(self, tmp_path):
        path = tmp_path / "m.csv"
        export_metrics(self._records(), path, "csv", n_layers=2)
        lines = path.read_text().strip().split("\n")
        assert len(lines[0].split(",")) == 7 + 2
        assert lines[0].split(",")[:4] == ["step", "phase", "loss", "ppl"]
        assert csv_header(2)[4:6] == ["sparsity_layer_0", "sparsity_layer_1"]

    def test_empty_stream_gives_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_metrics([], path, "csv", n_layers=3)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        assert len(lines[0].split(",")) == 10

    def test_jsonl_round_trip_lossless(self, tmp_path):
        path = tmp_path / "m.jsonl"
        records = self._records()
        export_metrics(records, path, "jsonl", n_layers=2)
        assert load_metrics_jsonl(path) == records

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_metrics([], tmp_path / "x", "yaml", n_layers=1)

    def test_run_dir_metrics_parse_back(self, toy_ssd_run):
        records = load_metrics_jsonl(os.path.join(toy_ssd_run["out_dir"],
                                                  "metrics.jsonl"))
        assert records == toy_ssd_run["records"]
        steps = [r.step for r in records]
        assert steps == sorted(steps)
        flops = [r.flops for r in records]
        assert all(b >= a for a, b in zip(flops, flops[1:]))
