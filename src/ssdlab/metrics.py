"""Per-step training metrics and their CSV / JSON-lines export.

CSV column order: step, phase, loss, ppl, sparsity_layer_0..n-1, similarity,
flops, lr (7 fixed columns + one per layer). JSON-lines export is lossless:
parsing it back yields the original records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields


@dataclass
class MetricsRecord:
    step: int
    phase: str
    loss: float
    ppl: "float | None"
    sparsity: "list | None"   # per-layer fractions, None off the sample cadence
    similarity: "float | None"
    flops: int                # cumulative
    lr: float

    def to_dict(self):
        """The fields by name, sparsity's list shared, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def csv_header(n_layers: int) -> list:
    return (["step", "phase", "loss", "ppl"]
            + [f"sparsity_layer_{i}" for i in range(n_layers)]
            + ["similarity", "flops", "lr"])


def _cell(value):
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def export_metrics(records: list, path, fmt: str, n_layers: int) -> None:
    """Write the stream as 'csv' or 'jsonl'; an empty stream yields a
    header-only CSV / an empty JSONL file. A bad format or a record with
    another layer count is rejected before the file is opened."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown export format {fmt!r}")
    for r in records:
        if r.sparsity is not None and len(r.sparsity) != n_layers:
            raise ValueError(f"record at step {r.step} has {len(r.sparsity)} "
                             f"sparsity layers, not n_layers {n_layers}")
    with open(path, "w") as f:
        if fmt == "jsonl":
            for r in records:
                f.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")
        else:
            f.write(",".join(csv_header(n_layers)) + "\n")
            for r in records:
                sparsity = r.sparsity if r.sparsity is not None else [None] * n_layers
                row = ([_cell(r.step), r.phase, _cell(r.loss), _cell(r.ppl)]
                       + [_cell(s) for s in sparsity]
                       + [_cell(r.similarity), _cell(r.flops), _cell(r.lr)])
                f.write(",".join(row) + "\n")


def _number(v) -> bool:
    return type(v) in (int, float)  # JSON true/false are not numbers


def _number_or_null(v) -> bool:
    return v is None or _number(v)


# the JSON type each field must have on load, and how to name it
_FIELD_TYPES = {
    "step": (lambda v: type(v) is int, "an integer"),
    "phase": (lambda v: type(v) is str, "a string"),
    "loss": (_number_or_null, "a number or null"),
    "ppl": (_number_or_null, "a number or null"),
    "sparsity": (lambda v: v is None or type(v) is list and all(map(_number, v)),
                 "null or a list of numbers"),
    "similarity": (_number_or_null, "a number or null"),
    "flops": (lambda v: type(v) is int, "an integer"),
    "lr": (_number_or_null, "a number or null"),
}


def _parse_record(line: str) -> MetricsRecord:
    record = MetricsRecord.from_dict(json.loads(line))
    for name, (ok, kind) in _FIELD_TYPES.items():
        value = getattr(record, name)
        if not ok(value):
            raise TypeError(f"{name} must be {kind}, not {json.dumps(value)}")
    return record


def load_metrics_jsonl(path) -> list:
    records = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if line.strip():
                try:
                    records.append(_parse_record(line))
                except (TypeError, ValueError) as e:
                    raise ValueError(f"malformed metrics record on line {n} of "
                                     f"{path}: {e}") from e
    return records
