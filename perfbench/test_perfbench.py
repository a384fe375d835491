"""Tests of the benchmark's own code: span arithmetic, metric names, layer
counts and the removal of trace wrappers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Span, Tracer, default_targets, layer_metrics, self_times  # noqa: E402
from workloads import TrainWorkload  # noqa: E402

from ssdlab.model import ModelConfig  # noqa: E402
from ssdlab.training import DenseTrain, OptimizerConfig, RunConfig, SmoeTrain, train  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, "test")


def test_self_time_subtracts_children_at_every_level():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.x", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
        _span("b.x", 5.0, 6.0, parent=3),
        _span("b.y", 8.5, 9.0, parent=3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 0.5])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 2.0, 6.0, parent=0),
        _span("b", 4.0, 8.0, parent=0),   # overlaps a: union [2, 8]
        _span("c", 9.0, 12.0, parent=0),  # clipped to the parent at 10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_run_id():
    def inner(x):
        return x + 1

    tracer = Tracer("r1")
    inner_t = tracer.wrap(inner, "inner")
    outer_t = tracer.wrap(lambda x: inner_t(inner_t(x)), "outer")
    assert outer_t(1) == 3
    names = [(s.name, s.parent, s.run_id) for s in tracer.spans]
    assert names == [("outer", -1, "r1"), ("inner", 0, "r1"), ("inner", 0, "r1")]
    outer = tracer.spans[0]
    assert self_times(tracer.spans)[0] <= outer.end - outer.start


def _mini_workload():
    return TrainWorkload(
        name="mini", vocab=True, seq_len=8,
        model=dict(n_layers=1, d_model=8, n_heads=2, d_ff=16),
        mode=DenseTrain(),
        run=RunConfig(total_steps=3, batch_size=2, val_interval=3,
                      val_sequences=2, val_batch_size=2),
        opt=OptimizerConfig(), phases={"dense": 3})


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    targets = default_targets()
    originals = [getattr(module, attr) for module, attr, _, _ in targets]
    workload = _mini_workload()
    corpus = workload.setup(str(tmp_path / "setup"), seed=0)
    with Tracer("traced") as tracer:
        tracer.install(targets)
        traced = workload.run_timed(corpus, str(tmp_path / "traced"))
    recorded = len(tracer.spans)
    assert recorded > 0
    assert [getattr(module, attr) for module, attr, _, _ in targets] == originals
    untraced = workload.run_timed(corpus, str(tmp_path / "untraced"))
    assert len(tracer.spans) == recorded
    assert traced.ok and untraced.ok
    assert traced.replays(untraced)


def test_wrappers_are_removed_when_the_traced_call_raises(tmp_path):
    from ssdlab import training

    original = training.lm_loss
    workload = _mini_workload()
    corpus = workload.setup(str(tmp_path / "setup"), seed=0)
    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=3,
                      max_seq_len=8)  # vocab differs from the corpus: train raises
    with pytest.raises(ValueError):
        with Tracer("failing") as tracer:
            tracer.install(default_targets())
            train(cfg, corpus, DenseTrain(), run=RunConfig(total_steps=1))
    assert training.lm_loss is original


def test_metric_names_are_valid_and_match_the_benchmark(tmp_path):
    workload = _mini_workload()
    corpus = workload.setup(str(tmp_path / "setup"), seed=0)
    with Tracer("names") as tracer:
        tracer.install(default_targets())
        outcome = workload.run_timed(corpus, str(tmp_path / "run"))
    produced = set(layer_metrics(tracer.spans, 0.0, 1e12)) | set(outcome.ledger)
    produced |= {"trace.tokens_per_s", "trace.untraced_tokens_per_s", "trace.overhead"}
    assert {m["name"] for m in BENCH["per_layer"]} == produced
    for metric in BENCH["per_layer"] + BENCH["end_to_end"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["name"]


def test_bypassed_layers_read_zero_on_a_dense_run(tmp_path):
    workload = _mini_workload()
    corpus = workload.setup(str(tmp_path / "setup"), seed=0)
    with Tracer("dense") as tracer:
        tracer.install(default_targets())
        workload.run_timed(corpus, str(tmp_path / "run"))
    layers = layer_metrics(tracer.spans, 0.0, 1e12)
    assert layers["numerics.kernel.calls"] > 0
    assert layers["training.step_dense.samples"] == 3
    assert all(v == 0 for k, v in layers.items()
               if k.startswith(("moe.", "clustering.", "scheduler.")))


def test_moe_counts_on_a_sparse_run(tmp_path):
    corpus = _mini_workload().setup(str(tmp_path / "setup"), seed=0)
    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                      vocab_size=corpus.manifest["vocab_size"], max_seq_len=8)
    run_cfg = RunConfig(total_steps=2, batch_size=2, val_interval=2, val_sequences=2,
                        val_batch_size=2)
    with Tracer("smoe") as tracer:
        tracer.install(default_targets())
        train(cfg, corpus, SmoeTrain(num_experts=4, active_experts=2), run=run_cfg)
    layers = layer_metrics(tracer.spans, 0.0, 1e12)
    assert layers["moe.selected_pair_ratio"] == 0.5  # exactly K of N per token
    assert layers["training.step_sparse.samples"] == 2
    assert 0 < layers["moe.kernel_gflop"] < layers["numerics.kernel.gflop"]
    assert layers["moe.ledger_gflop"] > 0


def test_run_refuses_a_directory_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-ssd", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no package sources" in proc.stderr
