import dataclasses
import hashlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab.checkpoint import (
    Checkpoint,
    CheckpointError,
    _write,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    decode_partitions,
    deserialize_scheduler,
    encode_moe_layout,
    load_checkpoint,
    save_checkpoint,
    serialize_scheduler,
)
from ssdlab.clustering import Partition
from ssdlab.model import ModelConfig, init_params, param_layout, param_names
from ssdlab.numerics import (
    AdamState,
    FlatDict,
    OptimizerConfig,
    adam_step,
    flat_copy,
    make_rng,
    rng_state,
)
from ssdlab.scheduler import SchedulerState

from conftest import traced_peak

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
    state.log_event(30, "dense_to_sparse", similarity=0.93)
    state.events[-1].update(loss_before=1.5, loss_after=1.5)
    return Checkpoint(
        config=CFG, params=params, step=33, rng=rng_state(rng),
        adam=adam if with_extras else None,
        moe_layout={"num_experts": 2, "active_experts": 1,
                    "partitions": [[0, 1] * 16, [1, 0] * 16]} if with_extras else None,
        scheduler=serialize_scheduler(state) if with_extras else None,
        run_info={"mode": {"mode": "ssd"}, "cumulative_flops": 123456789},
    )


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ckpt = make_checkpoint()
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1, adam=True)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_all_fields_recovered(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "c.bin"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path, adam=True)
        assert loaded.config.to_dict() == CFG.to_dict()
        assert loaded.step == 33
        assert loaded.rng == ckpt.rng
        assert loaded.run_info == ckpt.run_info
        assert loaded.moe_layout == ckpt.moe_layout
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

    def test_snapshot_with_older_dense_segment_key_loads(self):
        # older versions also stored "last_dense_len", always equal to
        # steps_in_phase wherever it was read; it is ignored
        current = make_checkpoint().scheduler
        state = deserialize_scheduler({**current, "last_dense_len": 12})
        assert serialize_scheduler(state) == current

    @given(n_layers=st.integers(1, 2), n_heads=st.integers(1, 2),
           head_dim=st.integers(1, 3), experts=st.integers(1, 3),
           per_expert=st.integers(1, 3), vocab=st.integers(1, 6),
           seq=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1),
           with_adam=st.booleans(), with_layout=st.booleans(),
           with_scheduler=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_save_load_save_over_random_configs(
            self, n_layers, n_heads, head_dim, experts, per_expert, vocab, seq,
            seed, with_adam, with_layout, with_scheduler):
        cfg = ModelConfig(n_layers=n_layers, d_model=n_heads * head_dim,
                          n_heads=n_heads, d_ff=experts * per_expert,
                          vocab_size=vocab, max_seq_len=seq)
        rng = make_rng(seed)
        params = init_params(cfg, rng)
        adam = None
        if with_adam:
            adam = AdamState.for_params(params)
            for name in params:
                adam.m[name][...] = rng.standard_normal(params[name].shape)
                adam.v[name][...] = rng.random(params[name].shape)
            adam.step_count = int(rng.integers(0, 1000))
        layout = None
        partitions = [Partition(rng.permutation(np.arange(cfg.d_ff) % experts), experts)
                      for _ in range(n_layers)]
        if with_layout:
            layout = {"num_experts": experts, "active_experts": 1,
                      "partitions": [p.assignment.tolist() for p in partitions]}
        scheduler = None
        if with_scheduler:
            state = SchedulerState.fresh(n_layers)
            state.steps_in_phase = int(rng.integers(0, 100))
            state.partitions = partitions
            state.log_event(3, "dense_to_sparse", similarity=float(rng.random()))
            scheduler = serialize_scheduler(state)
        ckpt = Checkpoint(config=cfg, params=params, step=int(rng.integers(0, 10 ** 6)),
                          rng=rng_state(rng), adam=adam, moe_layout=layout,
                          scheduler=scheduler, run_info={"cumulative_flops": 7})
        blob = checkpoint_to_bytes(ckpt)
        assert checkpoint_to_bytes(checkpoint_from_bytes(blob)) == blob

    def test_minimal_checkpoint_without_extras(self, tmp_path):
        ckpt = make_checkpoint(with_extras=False)
        path = tmp_path / "min.bin"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.adam is None and loaded.moe_layout is None

    def test_params_only_load_is_the_full_load_without_moments(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(make_checkpoint(), path)
        full, params_only = load_checkpoint(path, adam=True), load_checkpoint(path)
        assert params_only.adam is None
        assert checkpoint_to_bytes(params_only) == checkpoint_to_bytes(
            dataclasses.replace(full, adam=None))

    def test_moe_layout_encoding_round_trips(self):
        layout = make_checkpoint().moe_layout
        partitions = decode_partitions(layout)
        assert encode_moe_layout(partitions, layout["active_experts"]) == layout


def with_header(blob: bytes, edit) -> bytes:
    """blob with its JSON header passed through edit(header)."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + header_len])
    edit(header)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len:]


def payload_start(blob: bytes) -> int:
    """Offset of the first tensor's bytes."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return 16 + header_len


def header_of(blob: bytes) -> dict:
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + header_len])


class TestSsdConfigKey:
    # run_info["mode"]["ssd"] and run_info["run"]["total_steps"] hold the
    # schedule; headers no longer repeat them in a separate ssd_config entry
    def test_new_header_has_no_ssd_config(self):
        assert "ssd_config" not in header_of(checkpoint_to_bytes(make_checkpoint()))

    def test_older_header_with_ssd_config_loads(self):
        blob = checkpoint_to_bytes(make_checkpoint())
        ssd = {"similarity_threshold": 0.9, "sparse_ratio": 0.5,
               "final_dense_ratio": 0.1, "monitor_interval": 10,
               "total_steps": 100, "policy": "threshold"}
        older = with_header(blob, lambda h: h.update(ssd_config=ssd))
        assert header_of(older)["ssd_config"] == ssd
        assert checkpoint_to_bytes(checkpoint_from_bytes(older)) == blob


class TestAdamEntry:
    # beta1, beta2 and eps live in run_info's optimizer config; the header's
    # adam entry holds only the step count
    def test_header_adam_is_the_step_count(self):
        assert header_of(checkpoint_to_bytes(make_checkpoint()))["adam"] == {"step_count": 17}

    def test_older_header_with_adam_scalars_loads(self):
        blob = checkpoint_to_bytes(make_checkpoint())
        older = with_header(blob, lambda h: h["adam"].update(beta1=0.9, beta2=0.999,
                                                             eps=1e-8))
        assert header_of(older)["adam"] == {"step_count": 17, "beta1": 0.9,
                                            "beta2": 0.999, "eps": 1e-8}
        loaded = checkpoint_from_bytes(older)
        assert loaded.adam.step_count == 17
        assert checkpoint_to_bytes(loaded) == blob


class TestRejection:
    @pytest.mark.parametrize("key", ["tensors", "rng", "config", "run_info"])
    def test_missing_header_key(self, key):
        blob = with_header(checkpoint_to_bytes(make_checkpoint()),
                           lambda h: h.pop(key))
        with pytest.raises(CheckpointError,
                           match=f"malformed checkpoint header: missing key '{key}'"):
            checkpoint_from_bytes(blob)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["config"].update(bogus=1), "unexpected keyword argument 'bogus'"),
        (lambda h: h["config"].update(d_model=16.0), "config values must be integers"),
        (lambda h: h.update(step="33"), "'step' has type str"),
        (lambda h: h.update(step=True), "'step' has type bool"),
        (lambda h: h.update(step=-3), "'step' must be an integer >= 0"),
        (lambda h: h["config"].update(n_layers=True), "config values must be integers"),
        (lambda h: h["adam"].pop("step_count"), "missing key 'step_count'"),
        (lambda h: h["adam"].update(step_count=True),
         "adam 'step_count' must be an integer"),
        (lambda h: h["adam"].update(step_count=-3),
         "adam 'step_count' must be an integer >= 0"),
        (lambda h: h["tensors"][0].__setitem__(1, "bogus"),
         "tensor list does not match the config"),
        (lambda h: h["moe_layout"].pop("partitions"), "missing key 'partitions'"),
        (lambda h: h["moe_layout"].update(partitions=[[0, 1, 0], [1, 0, 1]]),
         "moe_layout partition covers 3 neurons, not d_ff 32"),
        (lambda h: h["moe_layout"]["partitions"].pop(),
         "moe_layout holds 1 partitions for 2 layers"),
        (lambda h: h["moe_layout"].update(partitions=[[0] * 32, [1] * 32]),
         "partition is not balanced"),
        (lambda h: h["moe_layout"].update(active_experts=3),
         "active_experts must be in"),
        (lambda h: h["moe_layout"].update(active_experts=1.5),
         "moe_layout 'active_experts' must be an integer"),
        (lambda h: h["moe_layout"].update(active_experts=True),
         "moe_layout 'active_experts' must be an integer"),
        (lambda h: h["moe_layout"].update(num_experts=2.0),
         "moe_layout 'num_experts' must be an integer"),
        (lambda h: h["scheduler"].pop("phase"), "missing key 'phase'"),
        (lambda h: h["scheduler"]["partitions"][0]["assignment"].pop(),
         "scheduler partition covers 31 neurons, not d_ff 32"),
        (lambda h: h["moe_layout"].update(partitions=[[0.9, 1.2] * 16] * 2),
         r"partition assignment is not integer \(dtype float64\)"),
        (lambda h: h["moe_layout"].update(partitions=[[0.0, 1.0] * 16] * 2),
         "partition assignment is not integer"),
        (lambda h: h["scheduler"]["partitions"][1].update(assignment=[0.9, 1.2] * 16),
         "partition assignment is not integer"),
        (lambda h: h["scheduler"]["partitions"][0].update(assignment=[True, False] * 16),
         r"partition assignment is not integer \(dtype bool\)"),
        (lambda h: h.update(rng={}), "missing key 'state'"),
        (lambda h: h["rng"].update(state="x"),
         "rng 'state', 'inc', 'has_uint32', 'uinteger' must be integers"),
        (lambda h: h["rng"].update(uinteger=True), "must be integers"),
        (lambda h: h["rng"].update(inc=2 ** 130), "rng value out of the generator's range"),
        (lambda h: h["rng"].update(has_uint32=5), "rng 'has_uint32' must be 0 or 1"),
        (lambda h: h["scheduler"].update(phase="bogus"),
         "scheduler phase 'bogus' is not one of 'dense', 'sparse', 'final_dense'"),
        (lambda h: h["scheduler"].update(sparse_budget="x"),
         "scheduler 'sparse_budget' must be an integer >= 0"),
        (lambda h: h["scheduler"].update(steps_in_phase=-1),
         "scheduler 'steps_in_phase' must be an integer >= 0"),
        (lambda h: h["scheduler"].update(events=None), "scheduler 'events' must be a list"),
        (lambda h: h["scheduler"].update(events="ab"), "scheduler 'events' must be a list"),
    ], ids=["unknown-config-key", "float-config-value", "string-step", "bool-step",
            "negative-step", "bool-config-value", "adam-without-step_count",
            "bool-adam-step_count", "negative-adam-step_count",
            "unknown-tensor-name", "layout-without-partitions",
            "layout-short-assignments", "layout-missing-layer", "layout-unbalanced",
            "layout-active-above-experts", "layout-float-active-experts",
            "layout-bool-active-experts", "layout-float-num-experts",
            "scheduler-without-phase",
            "scheduler-short-assignment", "layout-float-assignments",
            "layout-integral-float-assignments", "scheduler-float-assignment",
            "scheduler-bool-assignment", "rng-empty", "rng-string-state",
            "rng-bool-uinteger", "rng-inc-out-of-range", "rng-has_uint32-above-1",
            "scheduler-unknown-phase",
            "scheduler-string-budget", "scheduler-negative-steps",
            "scheduler-null-events", "scheduler-string-events"])
    def test_malformed_header(self, edit, message):
        blob = with_header(checkpoint_to_bytes(make_checkpoint()), edit)
        with pytest.raises(CheckpointError, match=message) as e:
            checkpoint_from_bytes(blob)
        assert str(e.value).startswith("malformed checkpoint header: ")

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

    @pytest.mark.parametrize("from_file", [False, True], ids=["bytes", "file"])
    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:8] + struct.pack("<Q", 2 ** 62) + blob[16:],
        lambda blob: with_header(blob, lambda h: h["config"].update(max_seq_len=10 ** 15)),
    ], ids=["header-length", "max_seq_len"])
    def test_size_beyond_the_file_is_truncated_not_allocated(self, tmp_path, corrupt,
                                                             from_file):
        blob = corrupt(checkpoint_to_bytes(make_checkpoint()))
        path = tmp_path / "c.bin"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path) if from_file else checkpoint_from_bytes(blob)

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

    @pytest.mark.parametrize("adam", [False, True], ids=["params-only", "with-moments"])
    @pytest.mark.parametrize("corrupt, message", [
        # the last tensor is the Adam second moment of head
        (lambda blob: blob[:-100], "truncated checkpoint: tensor adam_v:head"),
        (lambda blob: blob + b"x", "trailing bytes after tensor payload"),
        (lambda blob: blob[:payload_start(blob)] + np.array([np.nan]).tobytes()
         + blob[payload_start(blob) + 8:],
         f"non-finite values in tensor param:{param_names(CFG)[0]}"),
    ], ids=["truncated-in-moments", "trailing-bytes", "non-finite-param"])
    def test_load_rejects_with_or_without_moments(self, tmp_path, corrupt, message, adam):
        path = tmp_path / "c.bin"
        path.write_bytes(corrupt(checkpoint_to_bytes(make_checkpoint())))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path, adam=adam)

    def test_params_only_load_leaves_the_moments_unchecked(self, tmp_path):
        # a resume reads and checks every moment; an evaluation reads none
        blob = checkpoint_to_bytes(make_checkpoint())
        path = tmp_path / "c.bin"
        path.write_bytes(blob[:-8] + np.array([np.nan]).tobytes())
        assert load_checkpoint(path).adam is None
        with pytest.raises(CheckpointError, match="non-finite values in tensor adam_v:head"):
            load_checkpoint(path, adam=True)

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


def desk_checkpoint() -> Checkpoint:
    """A desk-shape (4x128x512, 64 positions) checkpoint with Adam moments,
    19.8 MiB on disk, 6.6 MiB of it parameters."""
    cfg = ModelConfig(max_seq_len=64)
    rng = make_rng(0)
    params = init_params(cfg, rng)
    adam = AdamState.for_params(params)
    for name in params:
        adam.m[name][...] = rng.standard_normal(params[name].shape)
        adam.v[name][...] = rng.random(params[name].shape)
    return Checkpoint(config=cfg, params=params, step=5, rng=rng_state(rng), adam=adam)


class TestStreaming:
    # save and load stream tensor by tensor: neither holds a copy of the file,
    # and a params-only load holds no moment
    MIB = 1 << 20

    def test_save_holds_no_copy_of_the_file(self, tmp_path):
        ckpt, path = desk_checkpoint(), tmp_path / "desk.bin"
        _, peak = traced_peak(lambda: save_checkpoint(ckpt, path))
        assert path.stat().st_size > 19 * self.MIB
        assert peak < self.MIB, peak

    def test_load_holds_only_the_arrays_it_returns(self, tmp_path):
        path = tmp_path / "desk.bin"
        save_checkpoint(desk_checkpoint(), path)
        loaded, peak = traced_peak(lambda: load_checkpoint(path, adam=True))
        assert peak < path.stat().st_size + self.MIB, peak
        assert checkpoint_to_bytes(loaded) == path.read_bytes()

    def test_params_only_load_holds_only_the_parameters(self, tmp_path):
        ckpt, path = desk_checkpoint(), tmp_path / "desk.bin"
        save_checkpoint(ckpt, path)
        param_bytes = sum(a.nbytes for a in ckpt.params.values())
        loaded, peak = traced_peak(lambda: load_checkpoint(path))
        assert peak < param_bytes + self.MIB, (peak, param_bytes)
        assert loaded.adam is None
        assert all(loaded.params[n].tobytes() == ckpt.params[n].tobytes()
                   for n in ckpt.params)


class TestOneForm:
    # every params or moment set a load returns or a save accepts is one
    # FlatDict in param_layout order, whose buffer is that set's payload
    @pytest.mark.parametrize("adam", [False, True], ids=["params-only", "with-moments"])
    def test_load_returns_one_buffer_per_set(self, tmp_path, adam):
        path = tmp_path / "c.bin"
        save_checkpoint(make_checkpoint(), path)
        blob = path.read_bytes()
        loaded = load_checkpoint(path, adam=adam)
        sets = [loaded.params] + ([loaded.adam.m, loaded.adam.v] if adam else [])
        start = payload_start(blob)
        for arrays in sets:
            assert isinstance(arrays, FlatDict) and arrays.layout == param_layout(CFG)
            assert list(arrays) == [name for name, _ in param_layout(CFG)]
            assert all(a.base is arrays.buffer for a in arrays.values())
            assert arrays.buffer.tobytes() == blob[start:start + arrays.buffer.nbytes]
            start += arrays.buffer.nbytes
        skipped = 0 if adam else 2 * loaded.params.buffer.nbytes
        assert start == len(blob) - skipped
        assert not any(np.shares_memory(a.buffer, b.buffer)
                       for i, a in enumerate(sets) for b in sets[i + 1:])

    def test_adam_steps_on_a_loaded_checkpoint(self, tmp_path):
        ckpt, path = make_checkpoint(), tmp_path / "c.bin"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path, adam=True)
        grads = {name: np.full(shape, 0.5) for name, shape in param_layout(CFG)}
        for target in (ckpt, loaded):
            adam_step(target.params, grads, target.adam, OptimizerConfig(), 1e-3)
        assert checkpoint_to_bytes(loaded) == checkpoint_to_bytes(ckpt)
        assert loaded.adam.step_count == 18

    @pytest.mark.parametrize("edit, kind", [
        (lambda c: dataclasses.replace(c, params=dict(c.params)), "param"),
        (lambda c: dataclasses.replace(c, params=flat_copy(
            {n: c.params[n] for n in reversed(list(c.params))})), "param"),
        (lambda c: dataclasses.replace(c, adam=AdamState(
            m={n: a.copy() for n, a in c.adam.m.items()}, v=c.adam.v)), "adam_m"),
        (lambda c: dataclasses.replace(c, adam=AdamState.for_params(init_params(
            dataclasses.replace(CFG, d_ff=16), make_rng(0)))), "adam_m"),
        (lambda c: dataclasses.replace(c, adam=AdamState(m=c.adam.m, v=FlatDict(
            param_layout(CFG)[:-1], np.zeros))), "adam_v"),
    ], ids=["plain-params", "reordered-params", "plain-moments",
            "other-config-moments", "short-moments"])
    def test_write_refuses_a_set_in_another_form(self, tmp_path, edit, kind):
        path = tmp_path / "c.bin"
        save_checkpoint(make_checkpoint(), path)
        before = path.read_bytes()
        bad = edit(make_checkpoint())
        message = f"tensor set {kind} is not a FlatDict in the config's layout"
        for target in (path, tmp_path / "new.bin"):
            with pytest.raises(CheckpointError, match=message):
                save_checkpoint(bad, target)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin"]
        buf = io.BytesIO()
        with pytest.raises(CheckpointError, match=message):
            _write(bad, buf)
        assert buf.getvalue() == b""


def golden_checkpoint(with_adam: bool) -> Checkpoint:
    """CFG with integer-valued params and moments and fixed extras, so its
    bytes depend on the format alone, not on an RNG stream or on BLAS."""
    params = init_params(CFG, make_rng(0))
    for i, a in enumerate(params.values()):
        a[...] = (np.arange(a.size) % 7 - 3 + i).reshape(a.shape)
    adam = None
    if with_adam:
        adam = AdamState.for_params(params)
        for m, v in zip(adam.m.values(), adam.v.values()):
            m[...] = (np.arange(m.size) % 5 - 2).reshape(m.shape)
            v[...] = (np.arange(v.size) % 3).reshape(v.shape)
        adam.step_count = 9
    return Checkpoint(
        config=CFG, params=params, step=9, rng=rng_state(make_rng(7)), adam=adam,
        moe_layout={"num_experts": 2, "active_experts": 1,
                    "partitions": [[0, 1] * 16, [1, 0] * 16]},
        run_info={"mode": {"mode": "smoe"}, "cumulative_flops": 42},
    )


class TestGoldenFormat:
    # SHA-256 of the bytes the format fixes; a writer change that moves any
    # byte of a file fails here
    DIGESTS = {
        False: "a8516e4d9e7df851434f278accba1ab00f54a5cde3ce03e17df0b916f6881267",
        True: "5616b0599df2503f3c90d1cc4ef7650d4f91e37a85773ea82ae6efaa507340db",
    }

    @pytest.mark.parametrize("with_adam", [False, True], ids=["params-only", "with-moments"])
    def test_bytes_are_pinned(self, tmp_path, with_adam):
        ckpt = golden_checkpoint(with_adam)
        path = tmp_path / "golden.bin"
        save_checkpoint(ckpt, path)
        assert hashlib.sha256(checkpoint_to_bytes(ckpt)).hexdigest() == self.DIGESTS[with_adam]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[with_adam]
