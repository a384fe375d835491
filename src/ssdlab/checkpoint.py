"""Bit-exact binary checkpoints.

Layout (little-endian):

    bytes 0..3    magic "SSD1"
    bytes 4..7    u32 format version (currently 1)
    bytes 8..15   u64 header length H
    bytes 16..16+H JSON header, UTF-8, canonical (sorted keys, no spaces)
    remainder     tensor payload: raw float64 bytes, row-major, concatenated
                  in the header's "tensors" order

The header carries the model config, step counter, RNG state, optimizer
scalars, the active expert layout (per-layer partitions), the scheduler
snapshot, and run metadata; the payload carries model parameters in canonical
order followed by Adam first/second moments in the same order. Loading a
truncated file, a wrong magic, or a different version is rejected; a
non-finite tensor is rejected on save and load. Saves are atomic.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from ssdlab.clustering import Partition
from ssdlab.model import GPT, ModelConfig, param_names, param_shape
from ssdlab.moe import MoEFFN
from ssdlab.numerics import AdamState
from ssdlab.scheduler import SchedulerState

MAGIC = b"SSD1"
VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict
    step: int = 0
    rng: "dict | None" = None
    adam: "AdamState | None" = None
    moe_layout: "dict | None" = None   # {"num_experts", "active_experts", "partitions"}
    scheduler: "dict | None" = None    # serialized SchedulerState
    ssd_config: "dict | None" = None
    run_info: dict = field(default_factory=dict)

    def build_model(self) -> GPT:
        """Model with the checkpoint's expert layouts attached (if any)."""
        model = GPT(self.config, {k: v.copy() for k, v in self.params.items()})
        if self.moe_layout is not None:
            n = self.moe_layout["num_experts"]
            k = self.moe_layout["active_experts"]
            for layer, assignment in enumerate(self.moe_layout["partitions"]):
                model.moe[layer] = MoEFFN(model.ffn_weights(layer),
                                          Partition(np.array(assignment), n), k)
        return model


def serialize_scheduler(state: SchedulerState) -> dict:
    return {
        "phase": state.phase,
        "steps_in_phase": state.steps_in_phase,
        "last_dense_len": state.last_dense_len,
        "sparse_budget": state.sparse_budget,
        "partitions": [None if p is None else
                       {"assignment": p.assignment.tolist(), "num_clusters": p.num_clusters}
                       for p in state.partitions],
        "events": state.events,
    }


def deserialize_scheduler(data: dict) -> SchedulerState:
    return SchedulerState(
        phase=data["phase"],
        steps_in_phase=data["steps_in_phase"],
        last_dense_len=data["last_dense_len"],
        sparse_budget=data["sparse_budget"],
        partitions=[None if p is None else
                    Partition(np.array(p["assignment"]), p["num_clusters"])
                    for p in data["partitions"]],
        events=list(data["events"]),
    )


def _tensor_manifest(ckpt: Checkpoint) -> list:
    names = param_names(ckpt.config)
    manifest = [["param", n] for n in names]
    if ckpt.adam is not None:
        manifest += [["adam_m", n] for n in names]
        manifest += [["adam_v", n] for n in names]
    return manifest


def _tensor_by_entry(ckpt: Checkpoint, kind: str, name: str) -> np.ndarray:
    if kind == "param":
        return ckpt.params[name]
    if kind == "adam_m":
        return ckpt.adam.m[name]
    if kind == "adam_v":
        return ckpt.adam.v[name]
    raise CheckpointError(f"unknown tensor kind {kind!r}")


def _check_finite(arr: np.ndarray, kind: str, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise CheckpointError(f"non-finite values in tensor {kind}:{name}")


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    header = {
        "config": ckpt.config.to_dict(),
        "step": ckpt.step,
        "rng": ckpt.rng,
        "adam": None if ckpt.adam is None else {
            "step_count": ckpt.adam.step_count,
            "beta1": ckpt.adam.beta1, "beta2": ckpt.adam.beta2, "eps": ckpt.adam.eps,
        },
        "moe_layout": ckpt.moe_layout,
        "scheduler": ckpt.scheduler,
        "ssd_config": ckpt.ssd_config,
        "run_info": ckpt.run_info,
        "tensors": _tensor_manifest(ckpt),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    parts = [MAGIC, struct.pack("<I", VERSION),
             struct.pack("<Q", len(header_bytes)), header_bytes]
    for kind, name in header["tensors"]:
        arr = _tensor_by_entry(ckpt, kind, name)
        expected = param_shape(name, ckpt.config)
        if arr.shape != expected:
            raise CheckpointError(f"tensor {kind}:{name} has shape {arr.shape}, "
                                  f"expected {expected}")
        _check_finite(arr, kind, name)
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    if len(blob) < 16:
        raise CheckpointError("truncated checkpoint: missing header")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + header_len:
        raise CheckpointError("truncated checkpoint: incomplete header")
    header = json.loads(blob[16:16 + header_len].decode())
    config = ModelConfig(**header["config"])
    offset = 16 + header_len
    tensors = {}
    for kind, name in header["tensors"]:
        shape = param_shape(name, config)
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = 8 * count
        if offset + nbytes > len(blob):
            raise CheckpointError(f"truncated checkpoint: tensor {kind}:{name}")
        arr = np.frombuffer(blob, "<f8", count, offset).reshape(shape).copy()
        _check_finite(arr, kind, name)
        tensors[(kind, name)] = arr
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError("trailing bytes after tensor payload")
    params = {n: tensors[("param", n)] for n in param_names(config)}
    adam = None
    if header["adam"] is not None:
        adam = AdamState(
            m={n: tensors[("adam_m", n)] for n in param_names(config)},
            v={n: tensors[("adam_v", n)] for n in param_names(config)},
            step_count=header["adam"]["step_count"],
            beta1=header["adam"]["beta1"],
            beta2=header["adam"]["beta2"],
            eps=header["adam"]["eps"],
        )
    return Checkpoint(
        config=config, params=params, step=header["step"], rng=header["rng"],
        adam=adam, moe_layout=header["moe_layout"], scheduler=header["scheduler"],
        ssd_config=header["ssd_config"], run_info=header["run_info"],
    )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write atomically: a failed save leaves any file at path as it was."""
    blob = checkpoint_to_bytes(ckpt)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        return checkpoint_from_bytes(f.read())
