"""Bit-exact binary checkpoints.

Layout (little-endian):

    bytes 0..3    magic "SSD1"
    bytes 4..7    u32 format version (currently 1)
    bytes 8..15   u64 header length H
    bytes 16..16+H JSON header, UTF-8, canonical (sorted keys, no spaces)
    remainder     tensor payload: raw float64 bytes, row-major, concatenated
                  in the header's "tensors" order

The header carries the model config, step counter, RNG state, the Adam
step count, a fixed expert layout (moe_layout, written by moefy and smoe
runs; an ssd checkpoint's grouping is its scheduler chain), the scheduler
snapshot, and run metadata (run_info: mode, optimizer and run configs); the
payload carries model parameters in canonical order followed by Adam
first/second moments in the same order. Unread header keys are ignored, so
older files that also stored an "ssd_config" copy of run_info's, or copies
of the optimizer config's Adam scalars, still load; so do older ssd files
whose moe_layout repeats the chain. This module builds no model.
Loading a truncated file, a wrong magic, or a different version is rejected;
a non-finite tensor is rejected on save and on any load that reads it.
Saves are atomic.

The payload is the params set's buffer, then the adam_m and adam_v sets'
if the header's adam is set: each a FlatDict in model.param_layout order,
whose buffer is the host's float64, `<f8` on the little-endian hosts the
tests and the benchmark run on (no byte order is converted). One writer and
one reader stream the format over a binary file object with one write or
readinto per set: a save holds no copy of the file, and a load holds only
the FlatDicts it returns. `load_checkpoint` reads the Adam moments only when
asked (`adam=True`, for a resume or a rewrite); otherwise it seeks past
them, so an evaluation holds and checks only the parameters.
`checkpoint_to_bytes` and `checkpoint_from_bytes` run the same two
functions over an in-memory file, reading every set.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from ssdlab.clustering import Partition
from ssdlab.model import ModelConfig, param_layout
from ssdlab.numerics import AdamState, FlatDict, restore_rng
from ssdlab.scheduler import PHASES, SchedulerState

MAGIC = b"SSD1"
VERSION = 1
_OPTIONAL = (dict, type(None))
# the header's keys and the JSON types their values may take (exactly: a
# JSON true is a bool, not an int)
_HEADER_TYPES = {"config": (dict,), "step": (int,), "rng": _OPTIONAL, "adam": _OPTIONAL,
                "moe_layout": _OPTIONAL, "scheduler": _OPTIONAL,
                "run_info": (dict,), "tensors": (list,)}
_SETS = ("param", "adam_m", "adam_v")


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config: ModelConfig
    params: FlatDict
    step: int = 0
    rng: "dict | None" = None
    adam: "AdamState | None" = None
    moe_layout: "dict | None" = None   # encode_moe_layout's entry
    scheduler: "dict | None" = None    # serialized SchedulerState
    run_info: dict = field(default_factory=dict)
    adam_skipped: bool = False  # loaded without the moments the file holds


def _assignment(values: list) -> np.ndarray:
    """A stored cluster assignment; Partition would truncate floats to int64,
    so a non-integer entry (JSON 1.0 included) is rejected here."""
    assignment = np.array(values)
    if assignment.dtype.kind not in "iu":
        raise ValueError(f"partition assignment is not integer "
                         f"(dtype {assignment.dtype})")
    return assignment


def encode_moe_layout(partitions: list, active_experts: int) -> dict:
    """The `moe_layout` header entry for per-layer Partitions."""
    return {"num_experts": partitions[0].num_clusters,
            "active_experts": active_experts,
            "partitions": [p.assignment.tolist() for p in partitions]}


def decode_partitions(moe_layout: dict) -> list:
    """The per-layer Partitions a `moe_layout` header entry stores."""
    n = moe_layout["num_experts"]
    return [Partition(_assignment(a), n) for a in moe_layout["partitions"]]


def _check_partitions(partitions: list, config: ModelConfig, where: str) -> None:
    """One balanced partition of d_ff neurons per layer; None marks a layer
    not clustered yet."""
    if len(partitions) != config.n_layers:
        raise ValueError(f"{where} holds {len(partitions)} partitions "
                         f"for {config.n_layers} layers")
    for p in partitions:
        if p is None:
            continue
        if p.assignment.shape != (config.d_ff,):
            raise ValueError(f"{where} partition covers {p.assignment.size} "
                             f"neurons, not d_ff {config.d_ff}")
        p.validate_balanced()


def serialize_scheduler(state: SchedulerState) -> dict:
    return {
        "phase": state.phase,
        "steps_in_phase": state.steps_in_phase,
        "sparse_budget": state.sparse_budget,
        "partitions": [None if p is None else
                       {"assignment": p.assignment.tolist(), "num_clusters": p.num_clusters}
                       for p in state.partitions],
        "events": state.events,
    }


def deserialize_scheduler(data: dict) -> SchedulerState:
    """Inverse of serialize_scheduler. Other keys are ignored: older versions
    also stored the dense-segment length, which equals steps_in_phase
    wherever the scheduler reads it."""
    return SchedulerState(
        phase=data["phase"],
        steps_in_phase=data["steps_in_phase"],
        sparse_budget=data["sparse_budget"],
        partitions=[None if p is None else
                    Partition(_assignment(p["assignment"]), p["num_clusters"])
                    for p in data["partitions"]],
        events=list(data["events"]),
    )


def _tensor_manifest(config: ModelConfig, with_adam: bool) -> list:
    kinds = _SETS if with_adam else _SETS[:1]
    return [[kind, name] for kind in kinds for name, _ in param_layout(config)]


def _check_finite(arr: np.ndarray, kind: str, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise CheckpointError(f"non-finite values in tensor {kind}:{name}")


def _write(ckpt: Checkpoint, f) -> None:
    """Write ckpt to the binary file object f. Each set is checked to be a
    FlatDict in the config's layout and every tensor to be finite before
    the first byte is written; each set's buffer is then written from its
    own memory with one write, without a bytes copy."""
    sets = {"param": ckpt.params}
    if ckpt.adam is not None:
        sets.update(adam_m=ckpt.adam.m, adam_v=ckpt.adam.v)
    layout = param_layout(ckpt.config)
    for kind, arrays in sets.items():
        if not isinstance(arrays, FlatDict) or arrays.layout != layout:
            raise CheckpointError(f"tensor set {kind} is not a FlatDict in the "
                                  f"config's layout (see flat_copy)")
        for name, arr in arrays.items():
            _check_finite(arr, kind, name)
    header = {
        "config": ckpt.config.to_dict(),
        "step": ckpt.step,
        "rng": ckpt.rng,
        "adam": None if ckpt.adam is None else {"step_count": ckpt.adam.step_count},
        "moe_layout": ckpt.moe_layout,
        "scheduler": ckpt.scheduler,
        "run_info": ckpt.run_info,
        "tensors": _tensor_manifest(ckpt.config, ckpt.adam is not None),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    f.write(MAGIC + struct.pack("<IQ", VERSION, len(header_bytes)))
    f.write(header_bytes)
    for arrays in sets.values():
        f.write(memoryview(arrays.buffer).cast("B"))


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    buf = io.BytesIO()
    _write(ckpt, buf)
    return buf.getvalue()


def _parse_header(raw: bytes):
    """(header dict, ModelConfig); a header this version could not have
    written is a CheckpointError, not a KeyError or TypeError later on."""
    try:
        header = json.loads(raw.decode())
        if not isinstance(header, dict):
            raise TypeError("not a JSON object")
        for key, kinds in _HEADER_TYPES.items():
            if type(header[key]) not in kinds:
                raise TypeError(f"{key!r} has type {type(header[key]).__name__}")
        config = ModelConfig(**header["config"])
        if not all(type(v) is int for v in config.to_dict().values()):
            raise TypeError("config values must be integers")
        if header["step"] < 0:
            raise ValueError("'step' must be an integer >= 0")
        adam = header["adam"]
        if adam is not None and (type(adam["step_count"]) is not int
                                 or adam["step_count"] < 0):
            raise TypeError("adam 'step_count' must be an integer >= 0")
        if header["rng"] is not None:
            restore_rng(header["rng"])
        if header["tensors"] != _tensor_manifest(config, adam is not None):
            raise ValueError("tensor list does not match the config")
        layout = header["moe_layout"]
        if layout is not None:
            for key in ("num_experts", "active_experts"):
                if type(layout[key]) is not int:
                    raise TypeError(f"moe_layout {key!r} must be an integer")
            _check_partitions(decode_partitions(layout), config, "moe_layout")
            if not 1 <= layout["active_experts"] <= layout["num_experts"]:
                raise ValueError("moe_layout active_experts must be in "
                                 "[1, num_experts]")
        scheduler = header["scheduler"]
        if scheduler is not None:
            if scheduler["phase"] not in PHASES:
                raise ValueError(f"scheduler phase {scheduler['phase']!r} is not one "
                                 f"of {', '.join(map(repr, PHASES))}")
            for key in ("steps_in_phase", "sparse_budget"):
                if type(scheduler[key]) is not int or scheduler[key] < 0:
                    raise TypeError(f"scheduler {key!r} must be an integer >= 0")
            if type(scheduler["events"]) is not list:
                raise TypeError("scheduler 'events' must be a list")
            _check_partitions(deserialize_scheduler(scheduler).partitions,
                              config, "scheduler")
    except KeyError as e:
        raise CheckpointError(f"malformed checkpoint header: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint header: {e}") from e
    return header, config


def _read(f, size: int, adam: bool) -> Checkpoint:
    """Read a checkpoint of `size` bytes from the binary file object f.

    The header length and the payload the header's tensor list implies are
    checked against size before any tensor is allocated, so a corrupt
    length cannot ask for more memory than the file holds. Each set is then
    read with one readinto into its own FlatDict's buffer and each of its
    tensors checked finite, except that without `adam` the Adam moments are
    skipped with f.seek, unread and unchecked, the result's adam is None
    and, if the file holds moments, its adam_skipped is True. The whole
    header and the payload's size are checked either way.
    """
    preamble = f.read(16)
    if len(preamble) < 16:
        raise CheckpointError("truncated checkpoint: missing header")
    if preamble[:4] != MAGIC:
        raise CheckpointError(f"bad magic {preamble[:4]!r}")
    version, header_len = struct.unpack("<IQ", preamble[4:])
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if header_len > size - 16:
        raise CheckpointError("truncated checkpoint: incomplete header")
    raw = f.read(header_len)
    if len(raw) < header_len:
        raise CheckpointError("truncated checkpoint: incomplete header")
    header, config = _parse_header(raw)
    layout = param_layout(config)
    kinds = _SETS if header["adam"] is not None else _SETS[:1]
    offset = 16 + header_len
    for kind in kinds:
        for name, shape in layout:
            offset += 8 * math.prod(shape)
            if offset > size:
                raise CheckpointError(f"truncated checkpoint: tensor {kind}:{name}")
    if offset != size:
        raise CheckpointError("trailing bytes after tensor payload")
    sets = []
    for kind in kinds:
        if kind != "param" and not adam:
            f.seek(8 * sum(math.prod(shape) for _, shape in layout), io.SEEK_CUR)
            continue
        arrays = FlatDict(layout)
        got = f.readinto(memoryview(arrays.buffer).cast("B"))
        end = 0
        for name, arr in arrays.items():
            end += arr.nbytes
            if end > got:
                raise CheckpointError(f"truncated checkpoint: tensor {kind}:{name}")
            _check_finite(arr, kind, name)
        sets.append(arrays)
    moments = (AdamState(*sets[1:], step_count=header["adam"]["step_count"])
               if len(sets) == 3 else None)
    return Checkpoint(
        config=config, params=sets[0], step=header["step"], rng=header["rng"],
        adam=moments, moe_layout=header["moe_layout"], scheduler=header["scheduler"],
        run_info=header["run_info"], adam_skipped=not adam and header["adam"] is not None,
    )


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    return _read(io.BytesIO(blob), len(blob), adam=True)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write atomically: a failed save leaves any file at path as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            _write(ckpt, f)
        os.replace(tmp, path)
    except OSError as e:
        if e.filename == tmp and e.filename2 is None:
            e.filename = os.fspath(path)  # name the file asked for, not its stand-in
        raise
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path, adam: bool = False) -> Checkpoint:
    """The checkpoint at path. Its Adam moments are read and checked only
    with adam=True (resuming, or rewriting the file with them); by default
    they are skipped and the result's adam is None."""
    with open(path, "rb") as f:
        try:
            return _read(f, os.fstat(f.fileno()).st_size, adam)
        except CheckpointError as e:
            raise CheckpointError(f"checkpoint {path}: {e}") from None
