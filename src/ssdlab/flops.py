"""Analytic FLOPs accounting for the three training modes.

Conventions (integer arithmetic throughout):
  * one multiply-add = 2 FLOPs; only matrix-product work is counted
    (normalization, softmax, residuals, and embedding lookups are excluded);
  * attention scores and the value mix are counted at exact causal length,
    sum over positions t of (t+1) keys;
  * gating costs 2 * num_experts * d_model FLOPs per token;
  * a training step costs 3x the forward pass (backward ~ 2x forward).
"""

from __future__ import annotations

from dataclasses import dataclass

from ssdlab.model import ModelConfig


@dataclass(frozen=True)
class DenseMode:
    kind: str = "dense"


@dataclass(frozen=True)
class SmoeMode:
    num_experts: int
    active_experts: int
    kind: str = "smoe"


@dataclass
class FlopsReport:
    per_sequence_forward: int
    per_step_train: int
    gate_per_token_forward: float


def _attention_forward_flops(cfg: ModelConfig, seq_len: int) -> int:
    proj = 2 * 4 * seq_len * cfg.d_model * cfg.d_model
    causal_keys = seq_len * (seq_len + 1) // 2
    scores = 2 * cfg.d_model * causal_keys
    mix = 2 * cfg.d_model * causal_keys
    return proj + scores + mix


def dense_ffn_flops_per_token(cfg: ModelConfig) -> int:
    return 4 * cfg.d_model * cfg.d_ff


def smoe_ffn_flops_per_token(cfg: ModelConfig, num_experts: int,
                             active_experts: int) -> int:
    if cfg.d_ff % num_experts != 0:
        raise ValueError("d_ff must be divisible by num_experts")
    expert_work = 4 * cfg.d_model * (cfg.d_ff // num_experts) * active_experts
    gate = 2 * num_experts * cfg.d_model
    return expert_work + gate


def _forward_per_sequence(cfg: ModelConfig, mode, seq_len: int) -> int:
    attn = _attention_forward_flops(cfg, seq_len)
    head = 2 * seq_len * cfg.d_model * cfg.vocab_size
    if mode.kind == "dense":
        ffn = seq_len * dense_ffn_flops_per_token(cfg)
    else:
        ffn = seq_len * smoe_ffn_flops_per_token(cfg, mode.num_experts,
                                                 mode.active_experts)
    return cfg.n_layers * (attn + ffn) + head


def flops_estimate(cfg: ModelConfig, mode, seq_len: "int | None" = None,
                   batch_size: int = 1) -> FlopsReport:
    """Forward cost per sequence, gate cost per token and training cost per
    step for a mode.

    A dense/sparse mix is priced by ssd_speedup (per-step ratio) and
    ssd_total_train_flops (exact totals over a realized schedule).
    """
    seq_len = cfg.max_seq_len if seq_len is None else seq_len
    per_seq = _forward_per_sequence(cfg, mode, seq_len)
    gate_tok = 0.0 if mode.kind == "dense" else float(2 * mode.num_experts * cfg.d_model)
    return FlopsReport(
        per_sequence_forward=per_seq,
        per_step_train=3 * batch_size * per_seq,
        gate_per_token_forward=gate_tok,
    )


def train_step_flops(cfg: ModelConfig, mode, seq_len: int, batch_size: int) -> int:
    """Exact integer training cost of one step in a fixed mode."""
    return 3 * batch_size * _forward_per_sequence(cfg, mode, seq_len)


def ssd_total_train_flops(cfg: ModelConfig, num_experts: int, active_experts: int,
                          dense_steps: int, sparse_steps: int,
                          seq_len: int, batch_size: int) -> int:
    """Exact total for a realized schedule; matches the harness accumulator."""
    dense = train_step_flops(cfg, DenseMode(), seq_len, batch_size)
    sparse = train_step_flops(cfg, SmoeMode(num_experts, active_experts),
                              seq_len, batch_size)
    return dense_steps * dense + sparse_steps * sparse


def ssd_speedup(cfg: ModelConfig, num_experts: int, active_experts: int,
                sparse_fraction: float, seq_len: "int | None" = None) -> float:
    """Dense-over-SSD ratio of per-step training FLOPs."""
    seq_len = cfg.max_seq_len if seq_len is None else seq_len
    dense = _forward_per_sequence(cfg, DenseMode(), seq_len)
    sparse = _forward_per_sequence(cfg, SmoeMode(num_experts, active_experts), seq_len)
    mixed = (1.0 - sparse_fraction) * dense + sparse_fraction * sparse
    return dense / mixed
