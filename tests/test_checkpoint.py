import numpy as np
import pytest

from ssdlab.checkpoint import (
    Checkpoint,
    CheckpointError,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    deserialize_scheduler,
    load_checkpoint,
    save_checkpoint,
    serialize_scheduler,
)
from ssdlab.clustering import Partition
from ssdlab.model import GPT, ModelConfig, init_params
from ssdlab.numerics import AdamState, make_rng, rng_state
from ssdlab.scheduler import SchedulerState

CFG = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                  vocab_size=11, max_seq_len=8)


def make_checkpoint(seed=0, with_extras=True):
    rng = make_rng(seed)
    params = init_params(CFG, rng)
    adam = AdamState.for_params(params)
    adam.m["head"][:] = rng.standard_normal(adam.m["head"].shape)
    adam.step_count = 17
    state = SchedulerState.fresh(CFG.n_layers)
    state.phase = "sparse"
    state.sparse_budget = 40
    state.partitions = [Partition(np.array([0, 1] * 16), 2) for _ in range(2)]
    state.log_event(30, "dense_to_sparse", similarity=0.93,
                    loss_before=1.5, loss_after=1.5)
    return Checkpoint(
        config=CFG, params=params, step=33, rng=rng_state(rng),
        adam=adam if with_extras else None,
        moe_layout={"num_experts": 2, "active_experts": 1,
                    "partitions": [[0, 1] * 16, [1, 0] * 16]} if with_extras else None,
        scheduler=serialize_scheduler(state) if with_extras else None,
        ssd_config={"similarity_threshold": 0.9, "sparse_ratio": 0.5,
                    "final_dense_ratio": 0.1, "monitor_interval": 10,
                    "total_steps": 100, "policy": "threshold"} if with_extras else None,
        run_info={"mode": {"mode": "ssd"}, "cumulative_flops": 123456789},
    )


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ckpt = make_checkpoint()
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_all_fields_recovered(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "c.bin"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config.to_dict() == CFG.to_dict()
        assert loaded.step == 33
        assert loaded.rng == ckpt.rng
        assert loaded.run_info == ckpt.run_info
        assert loaded.moe_layout == ckpt.moe_layout
        assert loaded.ssd_config == ckpt.ssd_config
        for k in ckpt.params:
            assert np.array_equal(loaded.params[k], ckpt.params[k])
            assert np.array_equal(loaded.adam.m[k], ckpt.adam.m[k])
            assert np.array_equal(loaded.adam.v[k], ckpt.adam.v[k])
        assert loaded.adam.step_count == 17

    def test_scheduler_state_round_trip(self):
        ckpt = make_checkpoint()
        state = deserialize_scheduler(ckpt.scheduler)
        assert state.phase == "sparse"
        assert state.sparse_budget == 40
        assert state.events[0]["similarity"] == 0.93
        assert np.array_equal(state.partitions[0].assignment, np.array([0, 1] * 16))
        assert serialize_scheduler(state) == ckpt.scheduler

    def test_minimal_checkpoint_without_extras(self, tmp_path):
        ckpt = make_checkpoint(with_extras=False)
        path = tmp_path / "min.bin"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.adam is None and loaded.moe_layout is None

    def test_build_model_attaches_layouts(self):
        model = make_checkpoint().build_model()
        assert isinstance(model, GPT)
        assert model.moe[0] is not None
        assert model.moe[0].active_experts == 1
        assert np.array_equal(model.moe[0].partition.assignment, np.array([0, 1] * 16))


class TestRejection:
    def test_bad_magic(self):
        blob = bytearray(checkpoint_to_bytes(make_checkpoint()))
        blob[:4] = b"NOPE"
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint_from_bytes(bytes(blob))

    def test_version_mismatch(self):
        import struct
        blob = bytearray(checkpoint_to_bytes(make_checkpoint()))
        blob[4:8] = struct.pack("<I", 2)
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_from_bytes(bytes(blob))

    def test_truncated_payload(self):
        blob = checkpoint_to_bytes(make_checkpoint())
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint_from_bytes(blob[:-100])

    def test_truncated_header(self):
        blob = checkpoint_to_bytes(make_checkpoint())
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint_from_bytes(blob[:10])

    def test_trailing_garbage(self):
        blob = checkpoint_to_bytes(make_checkpoint())
        with pytest.raises(CheckpointError, match="trailing"):
            checkpoint_from_bytes(blob + b"x")

    def test_non_finite_tensor_rejected(self):
        # the serialiser refuses NaN, so patch one into a finite blob: the
        # last 8 bytes are the final Adam second moment of head
        blob = checkpoint_to_bytes(make_checkpoint())
        blob = blob[:-8] + np.array([np.nan], dtype="<f8").tobytes()
        with pytest.raises(CheckpointError, match="finite"):
            checkpoint_from_bytes(blob)

    def test_non_finite_tensor_never_saved(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(make_checkpoint(), path)
        before = path.read_bytes()
        ckpt = make_checkpoint()
        ckpt.params["head"][0, 0] = np.nan
        with pytest.raises(CheckpointError,
                           match="non-finite values in tensor param:head"):
            save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError, match="param:head"):
            save_checkpoint(ckpt, tmp_path / "new.bin")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin"]
