import dataclasses
import json

import pytest

from ssdlab.checkpoint import load_checkpoint, save_checkpoint
from ssdlab.cli import main
from ssdlab.data import make_toy_corpus, toy_vocab_chars

from test_checkpoint import with_header


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "toy.txt"
    corpus.write_text(make_toy_corpus(n_docs=60, seed=2))
    vocab = root / "vocab.json"
    vocab.write_text(json.dumps(toy_vocab_chars()))
    dense = {
        "model": {"n_layers": 2, "d_model": 32, "n_heads": 2, "d_ff": 64,
                  "max_seq_len": 32},
        "corpus": {"path": str(corpus), "tokenizer": str(vocab),
                   "val_fraction": 0.1, "seq_len": 32},
        "optimizer": {"base_lr": 1.0, "warmup": 100},
        "run": {"batch_size": 4, "val_interval": 40, "val_sequences": 8,
                "val_batch_size": 4, "checkpoint_interval": 40,
                "sparsity_interval": 10},
    }
    config = root / "config.json"
    config.write_text(json.dumps(dense))
    # a mode may not be given a section it does not read
    ssd_config = root / "ssd_config.json"
    ssd_config.write_text(json.dumps({
        **dense,
        "ssd": {"similarity_threshold": 0.5, "monitor_interval": 10},
        "moe": {"num_experts": 8, "active_experts": 2},
    }))
    return {"root": root, "corpus": corpus, "vocab": vocab, "config": config,
            "ssd_config": ssd_config}


@pytest.fixture(scope="module")
def trained_run(workspace):
    out = workspace["root"] / "run_ssd"
    rc = main(["train", "--config", str(workspace["ssd_config"]), "--mode", "ssd",
               "--seed", "3", "--steps", "80", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def dense_run(workspace):
    out = workspace["root"] / "run_dense"
    assert main(["train", "--config", str(workspace["config"]),
                 "--mode", "dense", "--steps", "20", "--out", str(out)]) == 0
    return out


class TestTrain:
    def test_run_artifacts_written(self, trained_run):
        assert (trained_run / "final.bin").exists()
        assert (trained_run / "metrics.jsonl").exists()
        assert (trained_run / "events.jsonl").exists()
        assert (trained_run / "run.json").exists()
        assert (trained_run / "ckpt_00000040.bin").exists()

    def test_dense_mode_via_flags(self, workspace, tmp_path):
        rc = main(["train", "--config", str(workspace["config"]),
                   "--mode", "dense", "--steps", "10",
                   "--out", str(tmp_path / "d")])
        assert rc == 0

    def test_resume_flag(self, workspace, trained_run, tmp_path):
        rc = main(["train", "--config", str(workspace["ssd_config"]), "--mode", "ssd",
                   "--seed", "3", "--steps", "80", "--out", str(tmp_path / "r"),
                   "--resume", str(trained_run / "ckpt_00000040.bin")])
        assert rc == 0

    def test_resume_without_cumulative_flops_exits_nonzero(self, workspace, trained_run,
                                                           tmp_path, capsys):
        ckpt = load_checkpoint(trained_run / "ckpt_00000040.bin")
        del ckpt.run_info["cumulative_flops"]
        save_checkpoint(ckpt, tmp_path / "foreign.bin")
        rc = main(["train", "--config", str(workspace["ssd_config"]), "--mode", "ssd",
                   "--seed", "3", "--steps", "80",
                   "--resume", str(tmp_path / "foreign.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: checkpoint run_info has no cumulative_flops" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.update(rng={}), "malformed checkpoint header: missing key 'state'"),
        (lambda h: h["rng"].update(state="x"), "malformed checkpoint header: rng 'state', "
         "'inc', 'has_uint32', 'uinteger' must be integers"),
        (lambda h: h["scheduler"].update(phase="bogus"), "malformed checkpoint header: "
         "scheduler phase 'bogus' is not one of 'dense', 'sparse', 'final_dense'"),
        (lambda h: h["scheduler"].update(sparse_budget="x"), "malformed checkpoint "
         "header: scheduler 'sparse_budget' must be an integer >= 0"),
        (lambda h: h["scheduler"].update(steps_in_phase=-1), "malformed checkpoint "
         "header: scheduler 'steps_in_phase' must be an integer >= 0"),
        (lambda h: h["scheduler"].update(events=None),
         "malformed checkpoint header: scheduler 'events' must be a list"),
        (lambda h: h["run_info"].update(run=[]),
         "checkpoint run_info 'run' must be an object"),
        (lambda h: h["run_info"].update(cumulative_flops="7"),
         "checkpoint run_info has no cumulative_flops integer, so it cannot be resumed"),
        (lambda h: h["run_info"].update(cumulative_flops=7.5),
         "checkpoint run_info has no cumulative_flops integer, so it cannot be resumed"),
    ], ids=["rng-empty", "rng-string-state", "scheduler-unknown-phase",
            "scheduler-string-budget", "scheduler-negative-steps",
            "scheduler-null-events", "run-list", "flops-string", "flops-float"])
    def test_resume_from_malformed_checkpoint_exits_nonzero(
            self, workspace, trained_run, tmp_path, capsys, edit, message):
        blob = (trained_run / "ckpt_00000040.bin").read_bytes()
        (tmp_path / "bad.bin").write_bytes(with_header(blob, edit))
        out = tmp_path / "r"
        rc = main(["train", "--config", str(workspace["ssd_config"]), "--mode", "ssd",
                   "--seed", "3", "--steps", "80", "--out", str(out),
                   "--resume", str(tmp_path / "bad.bin")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_resume_with_other_seed_exits_nonzero(self, workspace, trained_run,
                                                  tmp_path, capsys):
        out = tmp_path / "r"
        rc = main(["train", "--config", str(workspace["ssd_config"]), "--mode", "ssd",
                   "--steps", "80", "--out", str(out),
                   "--resume", str(trained_run / "ckpt_00000040.bin")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: checkpoint was trained with "
                                           "seed 3, not 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["adam", "rng"])
    def test_resume_without_state_exits_nonzero(self, workspace, tmp_path, capsys,
                                                missing):
        smoe = ["train", "--config", str(workspace["config"]), "--mode", "smoe",
                "--experts", "8", "--k", "2"]
        assert main(smoe + ["--steps", "10", "--out", str(tmp_path / "s")]) == 0
        ckpt = load_checkpoint(tmp_path / "s" / "final.bin")
        save_checkpoint(dataclasses.replace(ckpt, **{missing: None}), tmp_path / "x.bin")
        capsys.readouterr()
        rc = main(smoe + ["--steps", "20", "--resume", str(tmp_path / "x.bin")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: checkpoint has no {missing} "
                                           "state, so it cannot be resumed\n")

    def test_missing_corpus_exits_nonzero(self, capsys):
        rc = main(["train", "--corpus", "/nonexistent/corpus.txt", "--steps", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _train_with_keys(workspace, tmp_path, section="run", mode="dense",
                         **keys):
        cfg = json.loads(workspace["config"].read_text())
        cfg.setdefault(section, {}).update(keys)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return main(["train", "--config", str(path), "--mode", mode,
                     "--steps", "2"])

    def test_zero_val_interval_exits_nonzero(self, workspace, tmp_path, capsys):
        rc = self._train_with_keys(workspace, tmp_path, val_interval=0)
        assert rc == 2
        assert "error: val_interval" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, mode", [
        ("run", "bogus", "dense"),
        ("moe", "bogus", "smoe"),
        ("moe", "kind", "ssd"),
    ], ids=["run-bogus", "moe-bogus-smoe", "moe-kind-ssd"])
    def test_unknown_config_key_exits_nonzero(self, workspace, tmp_path, capsys,
                                              section, key, mode):
        rc = self._train_with_keys(workspace, tmp_path, section, mode, **{key: "dense"})
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: unknown key {key!r} in config section {section!r}" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_wrongly_typed_value_exits_nonzero(self, workspace, tmp_path, capsys):
        # a float where an int is declared is neither truncated nor passed on,
        # and a string is not read as a bool
        for section, keys, mode in (
                ("run", {"batch_size": "x"}, "dense"),
                ("moe", {"num_experts": "8"}, "smoe"),
                ("optimizer", {"base_lr": "x"}, "dense"),
                ("run", {"batch_size": 2.0}, "dense"),
                ("model", {"n_layers": 1.0}, "dense"),
                ("run", {"out_dir": 5}, "dense"),
                ("corpus", {"seq_len": 16.0}, "dense"),
                ("moe", {"num_experts": 4.0, "active_experts": 2}, "ssd"),
                ("ssd", {"monitor_interval": 2.5}, "ssd"),
                ("optimizer", {"warmup": 2.5}, "dense"),
                ("moe", {"num_experts": 4, "active_experts": 2,
                         "reset_adam_on_transition": "no"}, "ssd")):
            rc = self._train_with_keys(workspace, tmp_path, section, mode, **keys)
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: bad value in config section {section!r}")
            assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("section, keys, mode, bad", [
        ("optimizer", {"eps": float("inf")}, "dense", "eps must be finite, got inf"),
        ("optimizer", {"base_lr": float("inf")}, "dense",
         "base_lr must be finite, got inf"),
        ("ssd", {"sparse_ratio": float("nan"), "monitor_interval": 2,
                 "similarity_threshold": 0.01}, "ssd",
         "sparse_ratio must be finite, got nan"),
    ], ids=["eps-infinity", "base_lr-infinity", "sparse_ratio-nan"])
    def test_non_finite_value_exits_nonzero(self, workspace, tmp_path, capsys,
                                            section, keys, mode, bad):
        # json reads NaN and Infinity: an infinite eps used to freeze every
        # parameter, an infinite base_lr to blame training for a NaN loss,
        # and a NaN sparse_ratio to fail at the first conversion
        rc = self._train_with_keys(workspace, tmp_path, section, mode, **keys)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}\n"

    def test_integer_for_a_float_field_trains(self, workspace, tmp_path):
        assert self._train_with_keys(workspace, tmp_path, "optimizer", base_lr=1) == 0

    @pytest.mark.parametrize("section, keys, mode, message", [
        ("ssd", {"bogus": 1}, "dense", "config section 'ssd' is not read in dense mode"),
        ("moe", {"bogus": 1}, "dense", "config section 'moe' is not read in dense mode"),
        ("ssd", {"monitor_interval": 10}, "smoe",
         "config section 'ssd' is not read in smoe mode"),
        ("ssd", {"total_steps": 5}, "ssd", "unknown key 'total_steps' in config "
         "section 'ssd'"),
        ("moe", {"ssd": {}}, "ssd", "key 'ssd' in config section 'moe' cannot be set"),
        ("model", {"vocab_size": 300}, "dense",
         "key 'vocab_size' in config section 'model' cannot be set"),
        ("modle", {"d_ff": 64}, "dense", "unknown config section 'modle'"),
    ], ids=["ssd-dense", "moe-dense", "ssd-smoe", "ssd-total_steps", "moe-ssd",
            "model-vocab_size", "unknown-section"])
    def test_unread_config_input_exits_nonzero(self, workspace, tmp_path, capsys,
                                               section, keys, mode, message):
        rc = self._train_with_keys(workspace, tmp_path, section, mode, **keys)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_expert_flags_in_dense_mode_exit_nonzero(self, workspace, capsys):
        rc = main(["train", "--config", str(workspace["config"]), "--mode", "dense",
                   "--steps", "1", "--experts", "8", "--k", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: --experts and --k are not read in dense mode" in err
        assert err.count("\n") == 1

    def test_resume_past_total_steps_exits_nonzero(self, workspace, dense_run,
                                                   tmp_path, capsys):
        out = tmp_path / "r"
        rc = main(["train", "--config", str(workspace["config"]), "--mode", "dense",
                   "--steps", "10", "--out", str(out),
                   "--resume", str(dense_run / "final.bin")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: checkpoint is at step 20, "
                                           "past total_steps 10\n")
        assert not out.exists()

    def test_ssd_resume_with_other_steps_exits_nonzero(self, workspace, trained_run,
                                                       tmp_path, capsys):
        out = tmp_path / "r"
        rc = main(["train", "--config", str(workspace["ssd_config"]), "--mode", "ssd",
                   "--seed", "3", "--steps", "60", "--out", str(out),
                   "--resume", str(trained_run / "ckpt_00000040.bin")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: checkpoint's ssd schedule was "
                                           "planned for total_steps 80, not 60\n")
        assert not out.exists()

    def test_dense_resume_with_more_steps_runs(self, workspace, dense_run, tmp_path,
                                               capsys):
        # a dense run has no schedule, so it can be extended
        out = tmp_path / "r"
        rc = main(["train", "--config", str(workspace["config"]), "--mode", "dense",
                   "--steps", "30", "--out", str(out),
                   "--resume", str(dense_run / "final.bin")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("trained 30 steps ")
        assert load_checkpoint(out / "final.bin").step == 30
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 10

    def test_bad_mode_rejected_by_parser(self, workspace):
        with pytest.raises(SystemExit):
            main(["train", "--config", str(workspace["config"]),
                  "--mode", "turbo", "--steps", "1"])

    def test_diverged_loss_stops_with_loadable_checkpoint(self, workspace, tmp_path,
                                                          capsys, monkeypatch):
        from ssdlab import training

        real_loss, step_losses = training.lm_loss, []

        def nan_at_step_12(model, batch, want_grads=True):
            loss, grads, counts = real_loss(model, batch, want_grads)
            if want_grads:  # a training step, not a validation pass
                step_losses.append(loss)
                if len(step_losses) == 13:
                    loss = float("nan")
            return loss, grads, counts

        monkeypatch.setattr(training, "lm_loss", nan_at_step_12)
        cfg = json.loads(workspace["config"].read_text())
        cfg["run"]["checkpoint_interval"] = 5
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / "run"
        rc = main(["train", "--config", str(tmp_path / "config.json"),
                   "--mode", "dense", "--steps", "20", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: loss is not finite at step 12: nan\n"
        assert sorted(p.name for p in out.iterdir()) == ["ckpt_00000005.bin",
                                                         "ckpt_00000010.bin"]
        assert load_checkpoint(out / "ckpt_00000010.bin").step == 10


class TestEval:
    def test_dense_eval_outputs_json(self, workspace, trained_run, capsys):
        rc = main(["eval", "--checkpoint", str(trained_run / "final.bin"),
                   "--corpus", str(workspace["corpus"]),
                   "--tokenizer", str(workspace["vocab"]),
                   "--seq-len", "32"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["perplexity"] > 1.0

    def test_sparse_eval_with_dynamic_ratio(self, workspace, trained_run, capsys):
        rc = main(["eval", "--checkpoint", str(trained_run / "final.bin"),
                   "--corpus", str(workspace["corpus"]),
                   "--tokenizer", str(workspace["vocab"]),
                   "--seq-len", "32", "--k", "2", "--dynamic-ratio", "0.25"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["perplexity"] > 1.0

    def test_invalid_k_exits_nonzero(self, workspace, trained_run, capsys):
        rc = main(["eval", "--checkpoint", str(trained_run / "final.bin"),
                   "--corpus", str(workspace["corpus"]),
                   "--tokenizer", str(workspace["vocab"]),
                   "--seq-len", "32", "--k", "99"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--dynamic-ratio", "0.5"],
         "dynamic_ratio and num_experts are only read with sparse_k (--k)"),
        (["--experts", "4"],
         "dynamic_ratio and num_experts are only read with sparse_k (--k)"),
        (["--k", "2", "--experts", "4"], "checkpoint carries 8 experts, not 4"),
    ], ids=["dynamic-ratio-without-k", "experts-without-k", "experts-differ"])
    def test_unread_flags_exit_nonzero(self, workspace, trained_run, capsys,
                                       flags, message):
        rc = main(["eval", "--checkpoint", str(trained_run / "final.bin"),
                   "--corpus", str(workspace["corpus"]),
                   "--tokenizer", str(workspace["vocab"]),
                   "--seq-len", "32", *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("ratio", ["-0.5", "nan"])
    def test_dynamic_ratio_out_of_range_exits_nonzero(self, workspace, trained_run,
                                                      capsys, ratio):
        # a negative or NaN ratio used to print the rho=0 perplexity and exit 0
        rc = main(["eval", "--checkpoint", str(trained_run / "final.bin"),
                   "--corpus", str(workspace["corpus"]),
                   "--tokenizer", str(workspace["vocab"]),
                   "--seq-len", "32", "--k", "2", "--dynamic-ratio", ratio])
        assert rc == 2
        assert capsys.readouterr().err == "error: truncation ratio must be in [0, 1)\n"

    def test_non_utf8_corpus_names_the_file(self, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe abc\n\n def\n")
        rc = main(["eval", "--checkpoint", str(trained_run / "final.bin"),
                   "--corpus", str(bad), "--seq-len", "32"])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: corpus {bad} is not UTF-8 text: "
                                           "byte 0xff at offset 0\n")

    def test_corpus_vocab_mismatch_exits_nonzero(self, workspace, trained_run, capsys):
        # the checkpoint was trained on the toy character vocabulary
        rc = main(["eval", "--checkpoint", str(trained_run / "final.bin"),
                   "--corpus", str(workspace["corpus"]), "--seq-len", "32"])
        assert rc == 2
        vocab = load_checkpoint(trained_run / "final.bin").config.vocab_size
        assert capsys.readouterr().err == (f"error: corpus vocab 257 (tokenizer 'byte') "
                                           f"!= model vocab {vocab}\n")


class TestMoefy:
    def test_moefy_then_eval(self, workspace, dense_run, tmp_path, capsys):
        moefied = tmp_path / "moefied.bin"
        assert main(["moefy", "--checkpoint", str(dense_run / "final.bin"),
                     "--experts", "8", "--out", str(moefied)]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(moefied),
                     "--corpus", str(workspace["corpus"]),
                     "--tokenizer", str(workspace["vocab"]),
                     "--seq-len", "32", "--k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["perplexity"] > 1.0

    def test_missing_output_directory_named(self, dense_run, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.bin"
        assert main(["moefy", "--checkpoint", str(dense_run / "final.bin"),
                     "--experts", "8", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: [Errno 2] No such file or "
                                           f"directory: '{out}'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("experts, message", [
        ("7", "rows 64 not divisible by num_clusters 7"),
        ("0", "num_clusters must be >= 1, got 0"),
        ("-4", "num_clusters must be >= 1, got -4"),
    ], ids=["7", "0", "-4"])
    @pytest.mark.parametrize("command", ["moefy", "eval", "analyze"])
    def test_indivisible_expert_count_rejected(self, workspace, dense_run, capsys,
                                               command, experts, message):
        # a dense checkpoint carries no expert structure, so each command clusters
        ckpt = str(dense_run / "final.bin")
        argv = {
            "moefy": ["moefy", "--checkpoint", ckpt, "--out", "/dev/null"],
            "eval": ["eval", "--checkpoint", ckpt, "--corpus", str(workspace["corpus"]),
                     "--tokenizer", str(workspace["vocab"]), "--seq-len", "32",
                     "--k", "2"],
            "analyze": ["analyze", "--checkpoint-a", ckpt, "--checkpoint-b", ckpt,
                        "--seq-len", "16"],
        }[command]
        rc = main(argv + ["--experts", experts])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"


    @pytest.mark.parametrize("command", ["moefy", "eval", "analyze"])
    def test_overflowing_weights_rejected(self, workspace, dense_run, tmp_path, capsys,
                                          command):
        ckpt = load_checkpoint(dense_run / "final.bin")
        ckpt.params["block0.ffn_w_in"] *= 1e160  # finite, so the checkpoint saves
        path = str(tmp_path / "huge.bin")
        save_checkpoint(ckpt, path)
        argv = {
            "moefy": ["moefy", "--checkpoint", path, "--out", str(tmp_path / "out.bin")],
            "eval": ["eval", "--checkpoint", path, "--corpus", str(workspace["corpus"]),
                     "--tokenizer", str(workspace["vocab"]), "--seq-len", "32",
                     "--k", "2"],
            "analyze": ["analyze", "--checkpoint-a", path, "--checkpoint-b", path,
                        "--seq-len", "16"],
        }[command]
        assert main(argv + ["--experts", "8"]) == 2
        assert capsys.readouterr().err == ("error: points too large: squared "
                                           "distances overflow float64\n")
        assert not (tmp_path / "out.bin").exists()


class TestAnalyze:
    def test_sparsity_and_ari_emitted(self, workspace, trained_run, capsys):
        rc = main(["analyze",
                   "--checkpoint-a", str(trained_run / "ckpt_00000040.bin"),
                   "--checkpoint-b", str(trained_run / "final.bin"),
                   "--experts", "8",
                   "--corpus", str(workspace["corpus"]),
                   "--tokenizer", str(workspace["vocab"]),
                   "--seq-len", "32"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["similarity"]["per_layer_ari"]) == 2
        assert len(report["sparsity_a"]) == 2
        assert all(0.0 <= s <= 1.0 for s in report["sparsity_a"])

    def test_same_checkpoint_scores_one(self, trained_run, capsys):
        rc = main(["analyze",
                   "--checkpoint-a", str(trained_run / "final.bin"),
                   "--checkpoint-b", str(trained_run / "final.bin"),
                   "--experts", "8", "--seq-len", "16"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["similarity"]["mean_ari"] == 1.0

    def test_smoe_sparsity_is_that_of_the_dense_weights(self, workspace, tmp_path,
                                                        capsys):
        # the K-of-N mask the run trained with is not applied; metrics.jsonl
        # keeps the sparsity each step ran with
        from ssdlab.checkpoint import decode_partitions
        from ssdlab.model import GPT, lm_loss
        from ssdlab.moe import attach_experts
        from ssdlab.numerics import make_rng

        out = tmp_path / "s"
        assert main(["train", "--config", str(workspace["config"]), "--mode", "smoe",
                     "--experts", "8", "--k", "2", "--steps", "10",
                     "--out", str(out)]) == 0
        final = str(out / "final.bin")
        capsys.readouterr()
        assert main(["analyze", "--checkpoint-a", final, "--checkpoint-b", final,
                     "--experts", "8", "--seq-len", "16"]) == 0
        report = json.loads(capsys.readouterr().out)
        ckpt = load_checkpoint(final)
        rng = make_rng(0)
        batches = [rng.integers(0, ckpt.config.vocab_size, size=(8, 17))
                   for _ in range(16)]

        def sparsity(model):  # over the stacked tokens of every batch
            per_batch = [lm_loss(model, b, want_grads=False)[2] for b in batches]
            return [sum(z for z, _ in layer) / sum(n for _, n in layer)
                    for layer in zip(*per_batch)]

        model = GPT(ckpt.config, ckpt.params)
        dense = sparsity(model)
        assert report["sparsity_a"] == report["sparsity_b"] == dense
        attach_experts(model, decode_partitions(ckpt.moe_layout), 2)
        assert all(d < m for d, m in zip(dense, sparsity(model)))

    def test_peak_memory_below_the_stacked_hidden_states(self, trained_run, capsys):
        # sparsity is counted batch by batch, so the hidden states of all 16
        # random-token batches of 8 sequences are never alive together
        import tracemalloc

        final = str(trained_run / "final.bin")
        cfg = load_checkpoint(final).config
        seq_len = cfg.max_seq_len
        stacked_bytes = cfg.n_layers * 16 * 8 * seq_len * cfg.d_ff * 8  # float64
        tracemalloc.start()
        try:
            rc = main(["analyze", "--checkpoint-a", final, "--checkpoint-b", final,
                       "--experts", "8", "--seq-len", str(seq_len)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < stacked_bytes, (peak, stacked_bytes)

    def test_zero_seq_len_exits_nonzero(self, trained_run, capsys):
        final = str(trained_run / "final.bin")
        rc = main(["analyze", "--checkpoint-a", final, "--checkpoint-b", final,
                   "--experts", "8", "--seq-len", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: --seq-len must be >= 1, got 0\n"

    @pytest.mark.parametrize("corpus", [False, True], ids=["random-tokens", "corpus"])
    def test_negative_seq_len_exits_nonzero(self, workspace, trained_run, tmp_path,
                                            capsys, corpus):
        final = str(trained_run / "final.bin")
        argv = ["analyze", "--checkpoint-a", final, "--checkpoint-b", final,
                "--experts", "8", "--seq-len", "-5"]
        if corpus:
            argv += ["--corpus", str(workspace["corpus"]),
                     "--tokenizer", str(workspace["vocab"])]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --seq-len must be >= 1, got -5\n"

    def test_corpus_vocab_mismatch_exits_nonzero(self, workspace, trained_run, capsys):
        final = str(trained_run / "final.bin")
        rc = main(["analyze", "--checkpoint-a", final, "--checkpoint-b", final,
                   "--experts", "8", "--corpus", str(workspace["corpus"]),
                   "--tokenizer", "byte", "--seq-len", "32"])
        assert rc == 2
        vocab = load_checkpoint(final).config.vocab_size
        assert capsys.readouterr().err == (f"error: corpus vocab 257 (tokenizer 'byte') "
                                           f"!= model vocab {vocab}\n")

    def test_corpus_tokenized_once(self, workspace, trained_run, capsys, monkeypatch):
        from ssdlab import cli

        calls = []
        real = cli.tokenize_corpus
        monkeypatch.setattr(cli, "tokenize_corpus",
                            lambda cfg: calls.append(cfg) or real(cfg))
        assert main(["analyze",
                     "--checkpoint-a", str(trained_run / "ckpt_00000040.bin"),
                     "--checkpoint-b", str(trained_run / "final.bin"),
                     "--experts", "8", "--corpus", str(workspace["corpus"]),
                     "--tokenizer", str(workspace["vocab"]), "--seq-len", "32"]) == 0
        assert len(calls) == 1


class TestExport:
    def test_csv_export(self, trained_run, capsys):
        rc = main(["export", "--run-dir", str(trained_run), "--format", "csv"])
        assert rc == 0
        path = trained_run / "metrics.csv"
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 81  # header + 80 steps
        assert len(lines[0].split(",")) == 7 + 2

    def test_jsonl_export_round_trips(self, trained_run, tmp_path):
        out = tmp_path / "exported.jsonl"
        assert main(["export", "--run-dir", str(trained_run),
                     "--format", "jsonl", "--out", str(out)]) == 0
        from ssdlab.metrics import load_metrics_jsonl
        original = load_metrics_jsonl(trained_run / "metrics.jsonl")
        assert load_metrics_jsonl(out) == original

    def test_missing_run_dir_exits_nonzero(self, capsys):
        assert main(["export", "--run-dir", "/nonexistent", "--format", "csv"]) == 2

    @staticmethod
    def _run_dir(tmp_path, trained_run, metrics=None, run_json=None):
        """A copy of trained_run's metrics.jsonl and run.json, either one
        replaceable by raw text."""
        d = tmp_path / "run"
        d.mkdir()
        (d / "metrics.jsonl").write_text(
            metrics if metrics is not None else (trained_run / "metrics.jsonl").read_text())
        (d / "run.json").write_text(
            run_json if run_json is not None else (trained_run / "run.json").read_text())
        return d

    @pytest.mark.parametrize("line, detail", [
        ('{"step": 1}', None),
        ("[1, 2]", None),
        ("not json", None),
        ({"bogus": 0}, None),
        ({"sparsity": 5}, "sparsity must be null or a list of numbers, not 5"),
        ({"sparsity": [0.5, "x"]},
         'sparsity must be null or a list of numbers, not [0.5, "x"]'),
        ({"step": 1.0}, "step must be an integer, not 1.0"),
        ({"flops": True}, "flops must be an integer, not true"),
        ({"phase": 3}, "phase must be a string, not 3"),
        ({"loss": "1.5"}, 'loss must be a number or null, not "1.5"'),
        ({"lr": False}, "lr must be a number or null, not false"),
    ], ids=["missing-keys", "not-an-object", "not-json", "unknown-key",
            "sparsity-int", "sparsity-string-entry", "step-float", "flops-bool",
            "phase-int", "loss-string", "lr-bool"])
    def test_malformed_metrics_record_exits_nonzero(self, trained_run, tmp_path,
                                                    capsys, line, detail):
        first = (trained_run / "metrics.jsonl").read_text().split("\n")[0]
        if isinstance(line, dict):  # a whole record with these keys set
            line = json.dumps({**json.loads(first), **line})
        d = self._run_dir(tmp_path, trained_run, metrics=f"{first}\n{line}\n")
        assert main(["export", "--run-dir", str(d), "--format", "csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed metrics record on line 2: ")
        assert err.count("\n") == 1
        if detail is not None:
            assert err == f"error: malformed metrics record on line 2: {detail}\n"
        assert not (d / "metrics.csv").exists()

    @pytest.mark.parametrize("run_json", ["{}", "[]", '{"n_layers": "2"}',
                                          '{"n_layers": true}'])
    def test_run_json_without_integer_n_layers_exits_nonzero(self, trained_run,
                                                             tmp_path, capsys,
                                                             run_json):
        d = self._run_dir(tmp_path, trained_run, run_json=run_json)
        assert main(["export", "--run-dir", str(d), "--format", "csv"]) == 2
        assert capsys.readouterr().err == (f"error: {d / 'run.json'} has no "
                                           "integer n_layers\n")

    @pytest.mark.parametrize("fmt, out", [("jsonl", None),
                                          ("csv", "./metrics.jsonl")])
    def test_export_onto_its_input_refused(self, trained_run, tmp_path, capsys,
                                           fmt, out):
        d = self._run_dir(tmp_path, trained_run)
        before = (d / "metrics.jsonl").read_bytes()
        argv = ["export", "--run-dir", str(d), "--format", fmt]
        if out is not None:
            argv += ["--out", f"{d}/{out}"]  # another spelling of the input path
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: refusing to overwrite the input "
                                           f"{d / 'metrics.jsonl'}: pass another --out\n")
        assert (d / "metrics.jsonl").read_bytes() == before
