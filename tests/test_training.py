import json
import os
import weakref
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from ssdlab import model as model_module
from ssdlab import moe as moe_module
from ssdlab import training
from ssdlab.checkpoint import (
    Checkpoint,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    deserialize_scheduler,
    encode_moe_layout,
    load_checkpoint,
)
from ssdlab.data import TokenizedCorpus, unigram_perplexity
from ssdlab.flops import ssd_total_train_flops
from ssdlab.metrics import MetricsRecord, csv_header, export_metrics, load_metrics_jsonl
from ssdlab.model import ModelConfig, init_params, param_names
from ssdlab.numerics import make_rng
from ssdlab.scheduler import PHASE_DENSE, PHASE_SPARSE, SSDConfig
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
from test_checkpoint import with_header
from test_numerics import one_buffer


def short_ssd_mode():
    ssd = SSDConfig(similarity_threshold=0.5, monitor_interval=10)
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
        mid = load_checkpoint(part_dir / "ckpt_00000030.bin", adam=True)
        assert mid.step == 30
        final_res, rec_res = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5,
                                   run=short_run(out_dir=str(tmp_path / "res")),
                                   resume_from=mid)
        assert checkpoint_to_bytes(final_res) == checkpoint_to_bytes(final_full)
        assert rec_res == rec_full[30:]

    def test_resume_from_mid_sparse_checkpoint(self, toy_corpus, tmp_path):
        # inside a sparse phase the active expert layout is the scheduler
        # chain, its only copy; resuming must rebuild it and stay bit-exact
        # through the following merge
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        ssd = SSDConfig(similarity_threshold=0.05, monitor_interval=10)
        mode = SsdTrain(ssd=ssd, num_experts=8, active_experts=2)

        def run(out, resume=None):
            rc = short_run(44, checkpoint_interval=16, out_dir=str(out))
            return train(cfg, toy_corpus, mode, OPT, seed=7, run=rc,
                         resume_from=resume)

        final_full, rec_full = run(tmp_path / "full")
        mid = load_checkpoint(tmp_path / "full" / "ckpt_00000016.bin", adam=True)
        assert mid.moe_layout is None
        assert mid.scheduler["phase"] == PHASE_SPARSE
        final_res, rec_res = run(tmp_path / "res", resume=mid)
        assert checkpoint_to_bytes(final_res) == checkpoint_to_bytes(final_full)
        assert rec_res == rec_full[16:]

    def test_mid_sparse_checkpoint_evaluates_as_its_older_form(self, toy_corpus,
                                                               tmp_path):
        # older ssd checkpoints also stored the chain as moe_layout; sparse
        # eval reads the chain now, with the same result
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        mode = SsdTrain(ssd=SSDConfig(similarity_threshold=0.05, monitor_interval=10),
                        num_experts=8, active_experts=2)
        train(cfg, toy_corpus, mode, OPT, seed=7,
              run=short_run(44, checkpoint_interval=16, out_dir=str(tmp_path)))
        assert all(load_checkpoint(p).moe_layout is None
                   for p in tmp_path.glob("*.bin"))
        blob = (tmp_path / "ckpt_00000016.bin").read_bytes()
        mid = checkpoint_from_bytes(blob)
        assert mid.scheduler["phase"] == PHASE_SPARSE
        chain = deserialize_scheduler(mid.scheduler).partitions
        older = checkpoint_from_bytes(with_header(
            blob, lambda h: h.update(moe_layout=encode_moe_layout(chain, 2))))
        assert older.moe_layout["partitions"][0] == chain[0].assignment.tolist()
        assert (eval_perplexity(mid, toy_corpus, sparse_k=2, val_sequences=8)
                == eval_perplexity(older, toy_corpus, sparse_k=2, val_sequences=8))

    def test_resume_in_place_rewrites_the_run_directory_byte_for_byte(
            self, toy_corpus, tmp_path):
        # metrics.jsonl keeps the records before the checkpoint's step
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        run = short_run(20, checkpoint_interval=5, out_dir=str(tmp_path))
        train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5, run=run)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        mid = load_checkpoint(tmp_path / "ckpt_00000010.bin", adam=True)
        _, records = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5, run=run,
                           resume_from=mid)
        assert [r.step for r in records] == list(range(10, 20))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_extending_a_dense_run_in_place_keeps_its_metrics(self, toy_corpus,
                                                             tmp_path):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        train(cfg, toy_corpus, DenseTrain(), OPT, seed=5,
              run=short_run(10, out_dir=str(tmp_path)))
        first = (tmp_path / "metrics.jsonl").read_text()
        final = load_checkpoint(tmp_path / "final.bin", adam=True)
        train(cfg, toy_corpus, DenseTrain(), OPT, seed=5,
              run=short_run(15, out_dir=str(tmp_path)), resume_from=final)
        extended = (tmp_path / "metrics.jsonl").read_text()
        assert extended.startswith(first)
        assert [r.step for r in load_metrics_jsonl(tmp_path / "metrics.jsonl")] \
            == list(range(15))

    def test_resume_with_malformed_metrics_fails_before_the_first_step(
            self, toy_corpus, tmp_path, monkeypatch):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        run = short_run(10, checkpoint_interval=5, out_dir=str(tmp_path))
        train(cfg, toy_corpus, DenseTrain(), OPT, seed=5, run=run)
        (tmp_path / "metrics.jsonl").write_text('{"step": "x"}\n')
        mid = load_checkpoint(tmp_path / "ckpt_00000005.bin", adam=True)
        monkeypatch.setattr(training, "lm_loss", None)  # no step may run
        with pytest.raises(ValueError, match="malformed metrics record on line 1"):
            train(cfg, toy_corpus, DenseTrain(), OPT, seed=5, run=run,
                  resume_from=mid)

    def test_resume_leaves_checkpoint_unchanged(self, toy_corpus, tmp_path):
        # two resumes from one in-memory checkpoint replay each other, and
        # the checkpoint still holds the step it was taken at
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5,
              run=short_run(out_dir=str(tmp_path)))
        mid = load_checkpoint(tmp_path / "ckpt_00000030.bin", adam=True)
        runs = [train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5,
                      run=short_run(), resume_from=mid) for _ in range(2)]
        assert mid.adam.step_count == 30
        assert runs[0][1] == runs[1][1]
        assert checkpoint_to_bytes(runs[0][0]) == checkpoint_to_bytes(runs[1][0])

    @pytest.mark.parametrize("mode", [DenseTrain(), SmoeTrain(num_experts=8, active_experts=2),
                                      short_ssd_mode()], ids=["dense", "smoe", "ssd"])
    def test_resume_from_moefied_checkpoint(self, toy_corpus, tmp_path, mode):
        # moefy stores a K = N expert layout; resume rebuilds the layouts from
        # the mode and the scheduler chain, so the run goes on as the one the
        # checkpoint came from
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        final_full, rec_full = train(cfg, toy_corpus, mode, OPT, seed=5,
                                     run=short_run(out_dir=str(tmp_path)))
        mid = load_checkpoint(tmp_path / "ckpt_00000030.bin", adam=True)
        if mode.kind == "ssd":
            assert mid.scheduler["phase"] == PHASE_DENSE
            assert any(r.phase == PHASE_SPARSE for r in rec_full[30:])
        moefied = moefy_checkpoint(mid, 4, seed=1)
        assert moefied.moe_layout["active_experts"] == 4
        final_res, rec_res = train(cfg, toy_corpus, mode, OPT, seed=5, run=short_run(),
                                   resume_from=moefied)
        assert rec_res == rec_full[30:]
        assert checkpoint_to_bytes(final_res) == checkpoint_to_bytes(final_full)

    def test_resume_rejects_other_seed(self, toy_corpus):
        # smoe layouts and ssd monitors draw from the seed
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        ckpt, _ = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=7, run=short_run(20))
        with pytest.raises(ValueError) as e:
            train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=0, run=short_run(20),
                  resume_from=ckpt)
        assert str(e.value) == "checkpoint was trained with seed 7, not 0"

    @pytest.mark.parametrize("missing", ["adam", "rng", "scheduler"])
    def test_resume_without_state_rejected(self, toy_corpus, missing):
        # a header may hold null there, but a resume cannot go on without it
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        ckpt, _ = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=1, run=short_run(20))
        with pytest.raises(ValueError) as e:
            train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=1, run=short_run(20),
                  resume_from=replace(ckpt, **{missing: None}))
        assert str(e.value) == f"checkpoint has no {missing} state, so it cannot be resumed"

    def test_resume_from_a_params_only_load_says_how_to_load(self, toy_corpus, tmp_path):
        # the file holds the moments, which load_checkpoint skips by default
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        _, records = train(cfg, toy_corpus, DenseTrain(), OPT, seed=1,
                           run=short_run(40, out_dir=str(tmp_path)))
        path = tmp_path / "ckpt_00000030.bin"
        with pytest.raises(ValueError) as e:
            train(cfg, toy_corpus, DenseTrain(), OPT, seed=1, run=short_run(40),
                  resume_from=load_checkpoint(path))
        assert str(e.value) == ("checkpoint was loaded without its adam state, so it "
                                "cannot be resumed (load it with "
                                "load_checkpoint(path, adam=True))")
        _, resumed = train(cfg, toy_corpus, DenseTrain(), OPT, seed=1, run=short_run(40),
                           resume_from=load_checkpoint(path, adam=True))
        assert resumed == records[30:]

    def test_resume_rejects_other_mode_or_config(self, toy_corpus, tmp_path):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        out = tmp_path / "r"
        train(cfg, toy_corpus, DenseTrain(), OPT, seed=1,
              run=short_run(40, out_dir=str(out)))
        mid = load_checkpoint(out / "ckpt_00000030.bin")
        with pytest.raises(ValueError, match="different mode"):
            train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=1,
                  run=short_run(40), resume_from=mid)

    def test_resume_past_total_steps_rejected(self, toy_corpus, tmp_path):
        # a checkpoint already past the run's end would be saved as a
        # final.bin labelled with the earlier step; total_steps equal to the
        # checkpoint's step stays a valid no-op
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        ckpt, _ = train(cfg, toy_corpus, DenseTrain(), OPT, seed=1, run=short_run(30))
        out = tmp_path / "r"
        with pytest.raises(ValueError) as e:
            train(cfg, toy_corpus, DenseTrain(), OPT, seed=1,
                  run=short_run(20, out_dir=str(out)), resume_from=ckpt)
        assert str(e.value) == "checkpoint is at step 30, past total_steps 20"
        assert not out.exists()
        final, records = train(cfg, toy_corpus, DenseTrain(), OPT, seed=1,
                               run=short_run(30), resume_from=ckpt)
        assert records == []
        assert checkpoint_to_bytes(final) == checkpoint_to_bytes(ckpt)


    @pytest.mark.parametrize("stored, resumes", [(60, True), (200_000, False)],
                             ids=["equal-to-run-length", "other"])
    def test_older_ssd_header_resumes(self, toy_corpus, tmp_path, stored, resumes):
        # checkpoints written before the schedule read the run's length carry
        # a copy of it as mode.ssd.total_steps
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        final_full, rec_full = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5,
                                     run=short_run(out_dir=str(tmp_path / "full")))
        blob = with_header((tmp_path / "full" / "ckpt_00000030.bin").read_bytes(),
                           lambda h: h["run_info"]["mode"]["ssd"].update(total_steps=stored))
        older = checkpoint_from_bytes(blob)
        assert older.run_info["mode"]["ssd"]["total_steps"] == stored
        if not resumes:
            with pytest.raises(ValueError, match="^checkpoint was trained in a "
                                                 "different mode$"):
                train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5,
                      run=short_run(), resume_from=older)
            return
        final_res, rec_res = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=5,
                                   run=short_run(), resume_from=older)
        assert checkpoint_to_bytes(final_res) == checkpoint_to_bytes(final_full)
        assert rec_res == rec_full[30:]

    def test_ssd_resume_with_other_total_steps_rejected(self, toy_corpus, tmp_path):
        # the terminal window and the sparse budgets are planned for the run
        # length, so resuming under another could not equal an uninterrupted run
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        ckpt, _ = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=1,
                        run=short_run(20))
        out = tmp_path / "r"
        with pytest.raises(ValueError) as e:
            train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=1,
                  run=short_run(30, out_dir=str(out)), resume_from=ckpt)
        assert str(e.value) == ("checkpoint's ssd schedule was planned for "
                                "total_steps 20, not 30")
        assert not out.exists()


class TestFlatStore:
    """A run keeps its params and each Adam moment set in one buffer, and
    every sparse layer computes on views of the parameters' buffer."""

    @staticmethod
    def spy_sparse_steps(monkeypatch):
        """(model, its layers' layouts) at each sparse training pass."""
        real, models = training.lm_loss, []

        def spy(model, batch, want_grads=True):
            if want_grads and any(lay is not None for lay in model.moe):
                models.append((model, list(model.moe)))
            return real(model, batch, want_grads)

        monkeypatch.setattr(training, "lm_loss", spy)
        return models

    @staticmethod
    def assert_one_store(final, models):
        names = param_names(final.config)
        for arrays in (final.params, final.adam.m, final.adam.v):
            assert one_buffer(arrays, names)
        assert models
        for model, layouts in models:
            assert model.params is final.params
            for i, lay in enumerate(layouts):
                assert lay.weights.w_in is final.params[f"block{i}.ffn_w_in"]
                assert np.shares_memory(lay.weights.w_in, final.params.buffer)

    def test_smoe_layers_view_the_store(self, toy_corpus, monkeypatch):
        models = self.spy_sparse_steps(monkeypatch)
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        final, _ = train(cfg, toy_corpus, SmoeTrain(8, 2), OPT, seed=2, run=short_run(6))
        self.assert_one_store(final, models)

    def test_a_resume_into_a_sparse_phase_views_the_store(self, toy_corpus, tmp_path,
                                                         monkeypatch):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        mode = SsdTrain(ssd=SSDConfig(similarity_threshold=0.05, monitor_interval=10),
                        num_experts=8, active_experts=2)
        rc = short_run(20, checkpoint_interval=16, out_dir=str(tmp_path))
        train(cfg, toy_corpus, mode, OPT, seed=7, run=rc)
        mid = load_checkpoint(tmp_path / "ckpt_00000016.bin", adam=True)
        assert mid.scheduler["phase"] == PHASE_SPARSE
        models = self.spy_sparse_steps(monkeypatch)
        final, _ = train(cfg, toy_corpus, mode, OPT, seed=7,
                         run=replace(rc, out_dir=None), resume_from=mid)
        self.assert_one_store(final, models)
        assert not any(np.shares_memory(final.params.buffer, a) for a in mid.params.values())


class TestAblations:
    """The two ablation knobs of a switchable run, each through train: the
    Adam reset at every dense-to-sparse conversion and the random policy."""

    MODES = {
        "reset-adam": SsdTrain(ssd=SSDConfig(similarity_threshold=0.05, monitor_interval=10),
                               num_experts=8, active_experts=2,
                               reset_adam_on_transition=True),
        "random-policy": SsdTrain(ssd=SSDConfig(policy="random", monitor_interval=10),
                                  num_experts=8, active_experts=2),
    }

    @pytest.mark.parametrize("name", sorted(MODES))
    def test_replay_and_resume_are_bit_identical(self, toy_corpus, tmp_path, name):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        mode = self.MODES[name]

        def run(out=None, resume=None):
            rc = short_run(out_dir=out and str(out))
            return train(cfg, toy_corpus, mode, OPT, seed=7, run=rc, resume_from=resume)

        final, records = run(tmp_path / "full")
        switches = [e["step"] for e in final.scheduler["events"]
                    if e["kind"] == "dense_to_sparse"]
        assert switches  # the ablation acts in this run
        replay_final, replay_records = run()
        assert replay_records == records
        assert checkpoint_to_bytes(replay_final) == checkpoint_to_bytes(final)
        # params, Adam moments and step count, RNG and scheduler chain
        mid = load_checkpoint(tmp_path / "full" / "ckpt_00000030.bin", adam=True)
        res_final, res_records = run(tmp_path / "res", resume=mid)
        assert res_records == records[30:]
        assert checkpoint_to_bytes(res_final) == checkpoint_to_bytes(final)
        if mode.reset_adam_on_transition:
            # Adam restarts at each conversion, the last one included
            assert final.adam.step_count == 60 - switches[-1] < 60
        else:
            assert final.adam.step_count == 60


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
                    "policy": "threshold"}}
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
                        monitor_interval=10)
        _, ssd_rec = train(cfg, toy_corpus, SsdTrain(ssd=ssd, num_experts=8,
                                                     active_experts=2),
                           OPT, seed=4, run=short_run(40))
        assert [r.loss for r in ssd_rec] == [r.loss for r in dense_rec]
        assert all(r.phase in ("dense", "final_dense") for r in ssd_rec)

    def test_layers_clustered_once_per_monitor(self, toy_corpus, monkeypatch):
        # the step-0 chain seed and each monitor cluster every layer once; a
        # conversion attaches the monitor's partitions without clustering
        from ssdlab import scheduler

        calls = []
        real = scheduler.cluster_with_warmstart

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(scheduler, "cluster_with_warmstart", counted)
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        final, records = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=3,
                               run=short_run())
        kinds = [e["kind"] for e in final.scheduler["events"]]
        assert kinds.count("dense_to_sparse") >= 2
        monitors = sum(r.similarity is not None for r in records)
        assert len(calls) == cfg.n_layers * (1 + monitors)

    def test_recorded_similarity_is_the_mean_of_the_layer_aris(self, toy_corpus,
                                                               monkeypatch):
        returned = []
        real = training.monitor_similarity

        def recorded(*args, **kwargs):
            returned.append(real(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(training, "monitor_similarity", recorded)
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        _, records = train(cfg, toy_corpus, short_ssd_mode(), OPT, seed=3,
                           run=short_run(30))
        assert returned[0] == []  # the step-0 chain seed has no baseline
        assert all(len(aris) == cfg.n_layers for aris in returned[1:])
        assert [r.similarity for r in records if r.similarity is not None] \
            == [float(np.mean(aris)) for aris in returned[1:]]

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
        run_info = toy_ssd_run["final"].run_info
        ssd_cfg = SSDConfig(**run_info["mode"]["ssd"])
        total_steps = run_info["run"]["total_steps"]
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
                           final_dense_start(ssd_cfg, total_steps) - start)
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
                 short_ssd_mode()]
        for mode in modes:
            _, records = train(cfg, toy_corpus, mode, OPT, seed=6, run=run)
            assert records[-1].ppl is not None
            assert records[-1].ppl < baseline, mode.kind


@pytest.mark.parametrize("mode", [DenseTrain(), short_ssd_mode()], ids=["dense", "ssd"])
def test_no_array_of_one_loss_call_lives_into_the_next(toy_corpus, monkeypatch, mode):
    """A step's grads and hidden states, and a validation batch's hidden
    states, are dropped before the next forward starts."""
    real = training.lm_loss
    previous, hiddens, calls = [], [], []

    def track_hiddens(module, name, index):
        real_ffn = getattr(module, name)

        def spy_ffn(*args, **kwargs):
            out = real_ffn(*args, **kwargs)
            hiddens.append(weakref.ref(out[index]))
            return out

        monkeypatch.setattr(module, name, spy_ffn)

    track_hiddens(model_module, "ffn_forward", 1)
    track_hiddens(moe_module, "smoe_forward", 2)

    def spy(model, batch, want_grads=True):
        calls.append((want_grads, sum(ref() is not None for ref in previous)))
        hiddens.clear()
        loss, grads, counts = real(model, batch, want_grads)
        arrays = list(grads.values()) if grads is not None else []
        previous[:] = [weakref.ref(a) for a in arrays] + hiddens
        assert len(hiddens) == model.config.n_layers
        return loss, grads, counts

    monkeypatch.setattr(training, "lm_loss", spy)
    cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
    train(cfg, toy_corpus, mode, OPT, seed=4,
          run=short_run(30, val_interval=10, sparsity_interval=1))
    assert sum(not want for want, _ in calls) >= 3 * 2  # validation ran
    assert [alive for _, alive in calls] == [0] * len(calls)


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

    @pytest.mark.parametrize("ratio", [-0.5, float("nan"), 1.0, float("inf")])
    def test_dynamic_ratio_out_of_range_rejected(self, toy_ssd_run, ratio):
        # a negative or NaN ratio used to skip dynamic_topk and read as 0
        with pytest.raises(ValueError, match=r"truncation ratio must be in \[0, 1\)"):
            eval_perplexity(toy_ssd_run["final"], toy_ssd_run["corpus"], sparse_k=4,
                            dynamic_ratio=ratio, val_sequences=16)

    def test_dense_checkpoint_requires_experts_to_moefy(self, toy_corpus):
        cfg = toy_model_config(toy_corpus.manifest["vocab_size"])
        final, _ = train(cfg, toy_corpus, DenseTrain(), OPT, seed=8,
                         run=short_run(20, checkpoint_interval=100))
        with pytest.raises(ValueError, match="^checkpoint carries no expert "
                                             "structure: run moefy on it first$"):
            eval_perplexity(final, toy_corpus, sparse_k=2)
        ppl = eval_perplexity(moefy_checkpoint(final, num_experts=8), toy_corpus,
                              sparse_k=2, val_sequences=8)
        assert np.isfinite(ppl)

    def test_corpus_of_another_vocabulary_rejected(self, toy_corpus):
        # a larger model vocabulary scores the corpus without any token error
        vocab = toy_corpus.manifest["vocab_size"]
        cfg = toy_model_config(vocab + 1)
        ckpt = Checkpoint(config=cfg, params=init_params(cfg, make_rng(0)))
        with pytest.raises(ValueError,
                           match=f"^corpus vocab {vocab} != model vocab {vocab + 1}$"):
            eval_perplexity(ckpt, toy_corpus)

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
        from ssdlab.scheduler import pattern_similarity
        from ssdlab.checkpoint import Checkpoint
        from ssdlab.model import GPT

        out_dir = toy_ssd_run["out_dir"]
        cfg = toy_ssd_run["model_cfg"]
        init_model = GPT.init(cfg, make_rng(toy_ssd_run["seed"]))
        ck0 = Checkpoint(config=cfg, params=init_model.params)
        ck500 = load_checkpoint(os.path.join(out_dir, "ckpt_00000500.bin"))
        ck1500 = load_checkpoint(os.path.join(out_dir, "ckpt_00001500.bin"))
        ck_final = toy_ssd_run["final"]
        early = np.mean(pattern_similarity(ck0, ck500, 8, seed=0))
        late = np.mean(pattern_similarity(ck1500, ck_final, 8, seed=0))
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

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_layer_count_checked_before_writing(self, tmp_path, fmt):
        # the second record is the bad one, so a streaming check would
        # already have written a header or a line
        records = self._records()
        records[1].sparsity = [0.5, 0.5, 0.5]
        path = tmp_path / f"m.{fmt}"
        with pytest.raises(ValueError) as e:
            export_metrics(records, path, fmt, n_layers=2)
        assert str(e.value) == "record at step 1 has 3 sparsity layers, not n_layers 2"
        assert not path.exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_metrics([], tmp_path / "x", "yaml", n_layers=1)

    def test_records_write_the_bytes_asdict_gives(self, toy_ssd_run):
        # to_dict reads the dataclass fields without asdict's deep copy
        records = toy_ssd_run["records"]
        with open(os.path.join(toy_ssd_run["out_dir"], "metrics.jsonl"), "rb") as f:
            written = f.read()
        assert written == "".join(json.dumps(asdict(r), sort_keys=True) + "\n"
                                  for r in records).encode()
        for r in records:
            assert r.to_dict() == asdict(r)
            assert list(r.to_dict()) == [f.name for f in fields(r)]
            assert MetricsRecord.from_dict(r.to_dict()) == r

    def test_run_dir_metrics_parse_back(self, toy_ssd_run):
        records = load_metrics_jsonl(os.path.join(toy_ssd_run["out_dir"],
                                                  "metrics.jsonl"))
        assert records == toy_ssd_run["records"]
        steps = [r.step for r in records]
        assert steps == sorted(steps)
        flops = [r.flops for r in records]
        assert all(b >= a for a, b in zip(flops, flops[1:]))
