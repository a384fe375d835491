import pytest

from ssdlab.flops import (
    DenseMode,
    SmoeMode,
    dense_ffn_flops_per_token,
    flops_estimate,
    smoe_ffn_flops_per_token,
    ssd_speedup,
    ssd_total_train_flops,
    train_step_flops,
)
from ssdlab.model import ModelConfig

BASE = ModelConfig.base_scale()


class TestFfnFractions:
    def test_sparse_fraction_is_exactly_k_over_n(self):
        gate = 2 * 32 * BASE.d_model
        sparse = smoe_ffn_flops_per_token(BASE, 32, 6) - gate
        assert sparse / dense_ffn_flops_per_token(BASE) == 6 / 32

    def test_dense_ffn_per_token(self):
        assert dense_ffn_flops_per_token(BASE) == 4 * 768 * 6144

    def test_gating_cost(self):
        r = flops_estimate(BASE, SmoeMode(32, 6))
        assert r.gate_per_token_forward == 2 * 32 * 768

    def test_expert_count_must_divide(self):
        with pytest.raises(ValueError):
            smoe_ffn_flops_per_token(BASE, 7, 2)


class TestSpeedup:
    def test_base_scale_speedup_band(self):
        s = ssd_speedup(BASE, 32, 6, sparse_fraction=0.5)
        assert 1.3 <= s <= 1.5

    def test_never_sparse_equals_dense(self):
        assert ssd_speedup(BASE, 32, 6, sparse_fraction=0.0) == 1.0

    def test_speedup_monotone_in_sparse_fraction(self):
        s = [ssd_speedup(BASE, 32, 6, f) for f in (0.0, 0.3, 0.5, 0.7)]
        assert s == sorted(s)

    def test_ssd_mode_estimate_between_endpoints(self):
        dense = flops_estimate(BASE, DenseMode()).per_sequence_forward
        sparse = flops_estimate(BASE, SmoeMode(32, 6)).per_sequence_forward
        mixed = dense / ssd_speedup(BASE, 32, 6, sparse_fraction=0.5)
        assert sparse < mixed < dense
        assert mixed == pytest.approx((dense + sparse) / 2)


class TestStepAccounting:
    CFG = ModelConfig(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                      vocab_size=20, max_seq_len=32)

    def test_train_step_is_integer_and_triple_forward(self):
        fwd = flops_estimate(self.CFG, DenseMode(), seq_len=32).per_sequence_forward
        step = train_step_flops(self.CFG, DenseMode(), seq_len=32, batch_size=4)
        assert isinstance(step, int)
        assert step == 3 * 4 * fwd

    def test_realized_schedule_total(self):
        dense = train_step_flops(self.CFG, DenseMode(), 32, 4)
        sparse = train_step_flops(self.CFG, SmoeMode(8, 2), 32, 4)
        total = ssd_total_train_flops(self.CFG, 8, 2, dense_steps=10,
                                      sparse_steps=7, seq_len=32, batch_size=4)
        assert total == 10 * dense + 7 * sparse
