import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab.checkpoint import Checkpoint
from ssdlab.clustering import Partition, adjusted_rand_index, cluster_with_warmstart
from ssdlab.model import ModelConfig, activation_sparsity, init_params
from ssdlab.numerics import SEED_TAG_CLUSTER, derived_rng, make_rng
from ssdlab.scheduler import pattern_similarity
from ssdlab.training import moefy_checkpoint


def ari_pair_counting(a, b):
    """Brute-force oracle: count point pairs by agreement class."""
    a = np.asarray(a)
    b = np.asarray(b)
    n11 = n00 = n10 = n01 = 0
    for i in range(a.size):
        for j in range(i + 1, a.size):
            same_a, same_b = a[i] == a[j], b[i] == b[j]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    num = 2 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    return 1.0 if den == 0 else num / den


def zero_counts(layers):
    """Per-layer (zeros, size) of hidden arrays, as lm_loss returns them."""
    return [(int(np.count_nonzero(h == 0.0)), h.size) for h in layers]


class TestActivationSparsity:
    def test_half_zero_row(self):
        assert activation_sparsity([zero_counts([np.array([[1.0, 0.0, 0.0, 2.0]])])]) \
            == [0.5]

    def test_all_zero(self):
        assert activation_sparsity([zero_counts([np.zeros((4, 8))])]) == [1.0]

    def test_invariant_to_token_order_and_batching(self):
        rng = make_rng(0)
        h = np.maximum(rng.standard_normal((64, 16)), 0.0)
        whole = activation_sparsity([zero_counts([h])])
        shuffled = activation_sparsity([zero_counts([h[rng.permutation(64)]])])
        rebatched = activation_sparsity([zero_counts([h[32:]]), zero_counts([h[:32]])])
        assert whole == shuffled == rebatched

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_stacked_mean_over_uneven_batches(self, seed, n_layers, n_tokens):
        """Summing zeros and sizes per batch matches the mean over the
        stacked tokens bit for bit, for any split into batches."""
        rng = np.random.default_rng(seed)
        layers = []
        for _ in range(n_layers):
            h = np.maximum(rng.standard_normal((n_tokens, 8)), 0.0)
            h[rng.random(h.shape) < rng.random()] = 0.0  # planted exact zeros
            layers.append(h)
        cuts = np.sort(rng.integers(0, n_tokens + 1, size=int(rng.integers(0, 5))))
        bounds = [0, *cuts.tolist(), n_tokens]
        batches = [[h[lo:hi] for h in layers] for lo, hi in zip(bounds, bounds[1:])
                   if hi > lo]
        reference = [float((np.vstack(layer) == 0.0).mean())
                     for layer in zip(*batches)]
        assert activation_sparsity(zero_counts(b) for b in batches) == reference

    def test_no_batches_rejected(self):
        with pytest.raises(ValueError, match="no hidden states"):
            activation_sparsity(iter([]))


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        p = Partition([0, 0, 1, 1, 2, 2], 3)
        assert adjusted_rand_index(p, p) == 1.0

    def test_crossed_pairs_hits_floor(self):
        a = Partition([0, 0, 1, 1], 2)
        b = Partition([0, 1, 0, 1], 2)
        assert abs(adjusted_rand_index(a, b) - (-0.5)) < 1e-12

    def test_relabeling_invariance(self):
        a = Partition([0, 0, 1, 1, 2, 2], 3)
        b = Partition([2, 2, 0, 0, 1, 1], 3)
        assert adjusted_rand_index(a, b) == 1.0

    def test_symmetry(self):
        rng = make_rng(1)
        a = Partition(rng.integers(0, 3, 12), 3)
        b = Partition(rng.integers(0, 4, 12), 4)
        assert adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(b, a))

    def test_matches_pair_counting_oracle(self):
        rng = make_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 65))
            a = rng.integers(0, int(rng.integers(2, 6)), n)
            b = rng.integers(0, int(rng.integers(2, 6)), n)
            got = adjusted_rand_index(Partition(a, a.max() + 1), Partition(b, b.max() + 1))
            assert abs(got - ari_pair_counting(a, b)) < 1e-12

    def test_length_mismatch_and_tiny_inputs(self):
        with pytest.raises(ValueError):
            adjusted_rand_index(Partition([0, 1], 2), Partition([0], 1))
        with pytest.raises(ValueError):
            adjusted_rand_index(Partition([0], 1), Partition([0], 1))

    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_balanced_partitions_never_below_floor(self, k, seed):
        rng = np.random.default_rng(seed)
        n = k * int(rng.integers(2, 5))
        a = np.repeat(np.arange(k), n // k)
        b = a.copy()
        rng.shuffle(a)
        rng.shuffle(b)
        ari = adjusted_rand_index(Partition(a, k), Partition(b, k))
        assert ari >= -0.5 - 1e-12
        assert ari <= 1.0 + 1e-12


def _checkpoint_with_params(cfg, params, step=0):
    return Checkpoint(config=cfg, params=params, step=step)


class TestPatternSimilarity:
    CFG = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=64,
                      vocab_size=32, max_seq_len=16)

    def test_identical_checkpoints_score_one(self):
        params = init_params(self.CFG, make_rng(3))
        a = _checkpoint_with_params(self.CFG, params)
        b = _checkpoint_with_params(self.CFG, {k: v.copy() for k, v in params.items()})
        assert pattern_similarity(a, b, num_experts=8, seed=4) == [1.0, 1.0]

    def test_each_layer_uses_moefys_seed(self):
        """Layer i of both checkpoints is clustered from derived_rng(seed,
        SEED_TAG_CLUSTER, 0, i), b warm-started from a: checkpoint a is
        grouped as moefy_checkpoint with the same seed groups it."""
        a = _checkpoint_with_params(self.CFG, init_params(self.CFG, make_rng(3)))
        b = _checkpoint_with_params(self.CFG, init_params(self.CFG, make_rng(4)))
        per_layer = pattern_similarity(a, b, 8, seed=11)
        moefied = moefy_checkpoint(a, 8, seed=11).moe_layout["partitions"]
        assert len(per_layer) == self.CFG.n_layers
        for i, got in enumerate(per_layer):
            key = f"block{i}.ffn_w_in"
            want_a = cluster_with_warmstart(a.params[key], 8, None,
                                            derived_rng(11, SEED_TAG_CLUSTER, 0, i))
            want_b = cluster_with_warmstart(b.params[key], 8, want_a.partition,
                                            derived_rng(11, SEED_TAG_CLUSTER, 0, i))
            assert want_a.partition.assignment.tolist() == moefied[i]
            assert got == adjusted_rand_index(want_a.partition, want_b.partition)

    def test_rerandomized_weights_score_near_zero(self):
        cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=128,
                          vocab_size=32, max_seq_len=16)
        params_a = init_params(cfg, make_rng(5))
        params_b = {k: v.copy() for k, v in params_a.items()}
        params_b["block0.ffn_w_in"] = make_rng(99).normal(
            0.0, 0.02, size=params_b["block0.ffn_w_in"].shape)
        per_layer = pattern_similarity(_checkpoint_with_params(cfg, params_a),
                                       _checkpoint_with_params(cfg, params_b),
                                       num_experts=8, seed=6)
        assert abs(np.mean(per_layer)) < 0.1

    def test_config_mismatch_rejected(self):
        other = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=64,
                            vocab_size=32, max_seq_len=16)
        a = _checkpoint_with_params(self.CFG, init_params(self.CFG, make_rng(7)))
        b = _checkpoint_with_params(other, init_params(other, make_rng(8)))
        with pytest.raises(ValueError, match="config"):
            pattern_similarity(a, b, 8, seed=9)
