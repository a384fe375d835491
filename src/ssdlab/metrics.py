"""Per-step training metrics and their CSV / JSON-lines export.

CSV column order: step, phase, loss, ppl, sparsity_layer_0..n-1, similarity,
flops, lr (7 fixed columns + one per layer). JSON-lines export is lossless:
parsing it back yields the original records.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


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
        return asdict(self)

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
    header-only CSV / an empty JSONL file."""
    if fmt == "jsonl":
        with open(path, "w") as f:
            for r in records:
                f.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")
    elif fmt == "csv":
        with open(path, "w") as f:
            f.write(",".join(csv_header(n_layers)) + "\n")
            for r in records:
                sparsity = r.sparsity if r.sparsity is not None else [None] * n_layers
                if len(sparsity) != n_layers:
                    raise ValueError("record layer count differs from n_layers")
                row = ([_cell(r.step), r.phase, _cell(r.loss), _cell(r.ppl)]
                       + [_cell(s) for s in sparsity]
                       + [_cell(r.similarity), _cell(r.flops), _cell(r.lr)])
                f.write(",".join(row) + "\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def load_metrics_jsonl(path) -> list:
    records = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if line.strip():
                try:
                    records.append(MetricsRecord.from_dict(json.loads(line)))
                except (TypeError, ValueError) as e:
                    raise ValueError(f"malformed metrics record on line {n}: {e}") from e
    return records
