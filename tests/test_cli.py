import json

import pytest

from ssdlab.cli import main
from ssdlab.data import make_toy_corpus, toy_vocab_chars


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
        for section, key, value, mode in (("run", "batch_size", "x", "dense"),
                                          ("moe", "num_experts", "8", "smoe"),
                                          ("optimizer", "base_lr", "x", "dense")):
            rc = self._train_with_keys(workspace, tmp_path, section, mode,
                                       **{key: value})
            assert rc == 2
            err = capsys.readouterr().err
            assert f"error: bad value in config section {section!r}" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("section, keys, mode, message", [
        ("ssd", {"bogus": 1}, "dense", "config section 'ssd' is not read in dense mode"),
        ("moe", {"bogus": 1}, "dense", "config section 'moe' is not read in dense mode"),
        ("ssd", {"monitor_interval": 10}, "smoe",
         "config section 'ssd' is not read in smoe mode"),
        ("ssd", {"total_steps": 5}, "ssd", "key 'total_steps' in config section 'ssd' "
         "cannot be set: it comes from run.total_steps (--steps)"),
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

    def test_bad_mode_rejected_by_parser(self, workspace):
        with pytest.raises(SystemExit):
            main(["train", "--config", str(workspace["config"]),
                  "--mode", "turbo", "--steps", "1"])


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


class TestMoefy:
    def test_moefy_then_eval(self, workspace, tmp_path, capsys):
        out = tmp_path / "dense_run"
        assert main(["train", "--config", str(workspace["config"]),
                     "--mode", "dense", "--steps", "20", "--out", str(out)]) == 0
        moefied = tmp_path / "moefied.bin"
        assert main(["moefy", "--checkpoint", str(out / "final.bin"),
                     "--experts", "8", "--out", str(moefied)]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(moefied),
                     "--corpus", str(workspace["corpus"]),
                     "--tokenizer", str(workspace["vocab"]),
                     "--seq-len", "32", "--k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["perplexity"] > 1.0

    def test_indivisible_expert_count_rejected(self, workspace, trained_run, capsys):
        rc = main(["moefy", "--checkpoint", str(trained_run / "final.bin"),
                   "--experts", "7", "--out", "/dev/null"])
        assert rc == 2


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
