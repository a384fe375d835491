import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab.clustering import Partition
from ssdlab.model import FFNWeights, ffn_forward
from ssdlab.moe import (
    GateDecision,
    MoEFFN,
    compute_centroids,
    dynamic_topk,
    gate,
    merge_experts,
    smoe_backward,
    smoe_forward,
    split_ffn,
    topk_mask,
)
from ssdlab.numerics import make_rng

from conftest import max_grad_error

D_MODEL, D_FF, N = 16, 32, 4
DESK_D_MODEL, DESK_D_FF, DESK_N = 128, 512, 32  # ModelConfig() with 32 experts


def random_ffn(rng):
    return FFNWeights(rng.standard_normal((D_FF, D_MODEL)), rng.standard_normal(D_FF),
                      rng.standard_normal((D_MODEL, D_FF)), rng.standard_normal(D_MODEL))


def desk_ffn(rng):
    """Desk-shape block at the model's init scale."""
    return FFNWeights(0.02 * rng.standard_normal((DESK_D_FF, DESK_D_MODEL)),
                      np.zeros(DESK_D_FF),
                      0.02 * rng.standard_normal((DESK_D_MODEL, DESK_D_FF)),
                      np.zeros(DESK_D_MODEL))


def random_partition(rng, d_ff=D_FF, n=N):
    a = np.repeat(np.arange(n, dtype=np.int64), d_ff // n)
    rng.shuffle(a)
    return Partition(a, n)


class TestSplitMerge:
    def test_single_expert_is_identity(self):
        rng = make_rng(0)
        w = random_ffn(rng)
        m = split_ffn(w, Partition(np.zeros(D_FF, dtype=np.int64), 1))
        back = merge_experts(m)
        for f in ("w_in", "b_in", "w_out", "b_out"):
            assert np.array_equal(getattr(back, f), getattr(w, f))
        x = rng.standard_normal((3, D_MODEL))
        y_sparse, _, _, _ = smoe_forward(m, x)
        y_dense, _, _ = ffn_forward(w, x)
        assert np.array_equal(y_sparse, y_dense)

    def test_routing_example(self):
        w = FFNWeights(np.arange(8.0).reshape(4, 2), np.arange(4.0),
                       np.zeros((2, 4)), np.zeros(2))
        m = MoEFFN(w, Partition([0, 1, 0, 1], 2), 1)
        assert m.expert_w_in(0).tolist() == [[0.0, 1.0], [4.0, 5.0]]
        assert m.expert_b_in(0).tolist() == [0.0, 2.0]
        assert m.expert_w_out(1).shape == (2, 2)

    def test_round_trip_bitwise_and_output_equivalent(self):
        for trial in range(100):
            rng = make_rng(1000 + trial)
            w = random_ffn(rng)
            p = random_partition(rng)
            m = split_ffn(w, p)
            back = merge_experts(m)
            for f in ("w_in", "b_in", "w_out", "b_out"):
                assert np.array_equal(getattr(back, f), getattr(w, f))
            x = rng.standard_normal((4, D_MODEL))
            y_a, _, _ = ffn_forward(w, x)
            y_b, _, _ = ffn_forward(back, x)
            assert np.array_equal(y_a, y_b)

    def test_unbalanced_partition_rejected(self):
        w = random_ffn(make_rng(2))
        bad = Partition(np.zeros(D_FF, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="balanced"):
            split_ffn(w, bad)


class TestCentroids:
    def test_two_row_expert(self):
        w = FFNWeights(np.array([[1.0, 1.0], [3.0, 3.0]]), np.zeros(2),
                       np.zeros((2, 2)), np.zeros(2))
        m = MoEFFN(w, Partition([0, 0], 1), 1)
        assert compute_centroids(m).tolist() == [[2.0, 2.0]]

    def test_zero_expert(self):
        w = FFNWeights(np.zeros((4, 3)), np.zeros(4), np.zeros((3, 4)), np.zeros(3))
        m = MoEFFN(w, Partition([0, 0, 1, 1], 2), 1)
        assert np.all(compute_centroids(m) == 0.0)

    def test_matches_direct_mean(self):
        rng = make_rng(3)
        m = split_ffn(random_ffn(rng), random_partition(rng))
        c = compute_centroids(m)
        for n in range(N):
            direct = m.weights.w_in[m.expert_rows(n)].mean(axis=0)
            assert np.allclose(c[n], direct, atol=1e-15)


class TestGate:
    def test_all_experts_selected_when_k_equals_n(self):
        rng = make_rng(4)
        m = split_ffn(random_ffn(rng), random_partition(rng), active_experts=N)
        d = gate(m, rng.standard_normal((5, D_MODEL)))
        assert d.selected.all()

    def test_orthogonal_centroids_pick_matching_expert(self):
        # experts whose rows all equal a basis vector gate like that basis
        d_model, n = 4, 4
        w_in = np.vstack([np.tile(np.eye(d_model)[i], (2, 1)) for i in range(n)])
        w = FFNWeights(w_in, np.zeros(8), np.zeros((d_model, 8)), np.zeros(d_model))
        m = MoEFFN(w, Partition(np.repeat(np.arange(n), 2), n), 1)
        d = gate(m, np.eye(d_model)[2][None, :])
        assert d.selected[0].tolist() == [False, False, True, False]

    def test_tie_breaks_to_lower_index_deterministically(self):
        scores = np.array([[1.0, 3.0, 3.0, 0.0]])
        for _ in range(5):
            mask = topk_mask(scores, 2)
            assert mask[0].tolist() == [False, True, True, False]
        scores = np.array([[2.0, 2.0, 2.0, 2.0]])
        assert topk_mask(scores, 2)[0].tolist() == [True, True, False, False]

    def test_gate_tie_from_symmetric_centroids(self):
        # experts 1 and 2 share identical rows, hence identical centroids and
        # exactly tied scores; the lower index must win on every replay
        rng = make_rng(19)
        rows = rng.standard_normal((2, 6))
        w_in = np.vstack([-rows, rows, rows, np.zeros((2, 6))])
        w = FFNWeights(w_in, np.zeros(8), np.zeros((6, 8)), np.zeros(6))
        m = MoEFFN(w, Partition(np.repeat(np.arange(4), 2), 4), 1)
        x = rows.mean(axis=0)  # scores: (-s, s, s, 0) with s > 0
        for _ in range(5):
            d = gate(m, x)
            assert d.scores[0, 1] == d.scores[0, 2]
            assert d.selected[0].tolist() == [False, True, False, False]

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_selection_invariant_to_positive_scaling(self, lam, seed):
        rng = np.random.default_rng(seed)
        m = split_ffn(random_ffn(make_rng(5)), random_partition(make_rng(6)),
                      active_experts=2)
        x = rng.standard_normal((3, D_MODEL))
        a = gate(m, x)
        b = gate(m, lam * x)
        assert np.array_equal(a.selected, b.selected)

    def test_input_width_checked(self):
        m = split_ffn(random_ffn(make_rng(7)), random_partition(make_rng(8)))
        with pytest.raises(ValueError, match="width"):
            gate(m, np.zeros((1, D_MODEL + 1)))


class TestSparseForwardBackward:
    def test_k_equals_n_matches_dense_to_zero_ulp(self):
        for trial in range(100):
            rng = make_rng(2000 + trial)
            w = random_ffn(rng)
            p = random_partition(rng)
            m = split_ffn(w, p, active_experts=N)
            x = rng.standard_normal((5, D_MODEL))
            y_sparse, _, hidden, _ = smoe_forward(m, x)
            y_dense, hidden_dense, _ = ffn_forward(merge_experts(m), x)
            assert np.array_equal(y_sparse, y_dense)
            assert np.array_equal(hidden, hidden_dense)

    @pytest.mark.parametrize("tokens", [512, 1])
    def test_k_equals_n_matches_dense_bitwise_at_desk_shape(self, tokens):
        # BLAS takes different code paths at these sizes than at toy ones
        rng = make_rng(4000 + tokens)
        w = desk_ffn(rng)
        m = split_ffn(w, random_partition(rng, DESK_D_FF, DESK_N),
                      active_experts=DESK_N)
        x = rng.standard_normal((tokens, DESK_D_MODEL))
        y_sparse, _, hidden, _ = smoe_forward(m, x)
        y_dense, hidden_dense, _ = ffn_forward(w, x)
        assert np.array_equal(y_sparse.view(np.int64), y_dense.view(np.int64))
        assert np.array_equal(hidden.view(np.int64), hidden_dense.view(np.int64))

    @pytest.mark.parametrize("tokens", [1, 3, 16])
    def test_unselected_expert_gets_exactly_zero_gradients_at_desk_shape(self, tokens):
        rng = make_rng(5000 + tokens)
        w = desk_ffn(rng)
        m = split_ffn(w, random_partition(rng, DESK_D_FF, DESK_N),
                      active_experts=6)
        x = rng.standard_normal((tokens, DESK_D_MODEL))
        y, decision, _, cache = smoe_forward(m, x)
        never_selected = np.flatnonzero(~decision.selected.any(axis=0))
        assert never_selected.size > 0
        _, grads = smoe_backward(m, cache, rng.standard_normal(y.shape))
        rows = np.isin(m.partition.assignment, never_selected)
        assert np.all(grads["w_in"][rows] == 0.0)
        assert np.all(grads["b_in"][rows] == 0.0)
        assert np.all(grads["w_out"][:, rows] == 0.0)

    def test_unselected_expert_gets_exactly_zero_gradients(self):
        checked = 0
        trial = 0
        while checked < 50:
            rng = make_rng(3000 + trial)
            trial += 1
            # few tokens over many experts: some expert always goes unselected
            m = split_ffn(random_ffn(rng), random_partition(rng, n=8),
                          active_experts=2)
            x = rng.standard_normal((4, D_MODEL))
            y, decision, _, cache = smoe_forward(m, x)
            never_selected = np.flatnonzero(~decision.selected.any(axis=0))
            if never_selected.size == 0:
                continue
            checked += 1
            _, grads = smoe_backward(m, cache, rng.standard_normal(y.shape))
            for e in never_selected:
                rows = m.expert_rows(e)
                assert np.all(grads["w_in"][rows] == 0.0)
                assert np.all(grads["b_in"][rows] == 0.0)
                assert np.all(grads["w_out"][:, rows] == 0.0)
        assert trial < 200  # engineered batches found quickly

    def test_selected_experts_do_get_gradient(self):
        rng = make_rng(9)
        m = split_ffn(random_ffn(rng), random_partition(rng), active_experts=2)
        x = rng.standard_normal((6, D_MODEL))
        y, decision, _, cache = smoe_forward(m, x)
        _, grads = smoe_backward(m, cache, np.ones_like(y))
        selected_somewhere = np.flatnonzero(decision.selected.any(axis=0))
        for e in selected_somewhere:
            rows = m.expert_rows(e)
            assert np.any(grads["w_in"][rows] != 0.0)

    def test_backward_matches_finite_differences_in_stable_region(self):
        rng = make_rng(7)
        m = split_ffn(random_ffn(rng), random_partition(rng), active_experts=2)
        x = rng.standard_normal((4, D_MODEL))
        y0, decision, _, cache = smoe_forward(m, x)
        frozen = decision.scores.copy()
        d_y = rng.standard_normal(y0.shape)
        d_x, grads = smoe_backward(m, cache, d_y)

        def loss():
            y, _, _, _ = smoe_forward(m, x, decision=decision, frozen_scores=frozen)
            return (y * d_y).sum()

        pairs = [(x, d_x)] + [(getattr(m.weights, k), grads[k])
                              for k in ("w_in", "b_in", "w_out", "b_out")]
        assert max_grad_error(loss, pairs, samples=15) < 1e-4

    def test_straight_through_path_reaches_input_weights(self):
        # gradient flows into w_in through the centroid even for neurons the
        # ReLU turned off, via the gate-score path
        rng = make_rng(11)
        m = split_ffn(random_ffn(rng), random_partition(rng), active_experts=N)
        x = rng.standard_normal((3, D_MODEL))
        y, _, _, cache = smoe_forward(m, x)
        _, grads = smoe_backward(m, cache, np.ones_like(y))
        _, _, hidden, _ = smoe_forward(m, x)
        dead_neurons = np.flatnonzero((hidden == 0.0).all(axis=0))
        assert dead_neurons.size > 0
        assert np.any(grads["w_in"][dead_neurons] != 0.0)


class TestDynamicTopk:
    def _decision(self, rng, tokens=25, experts=8, k=4):
        scores = rng.standard_normal((tokens, experts))
        return GateDecision(scores, topk_mask(scores, k), k)

    def test_zero_ratio_is_identity(self):
        d = self._decision(make_rng(12))
        out = dynamic_topk(d, 0.0)
        assert np.array_equal(out.selected, d.selected)

    def test_exact_counting_without_collisions(self):
        d = self._decision(make_rng(13), tokens=25, experts=8, k=4)  # 100 pairs
        out = dynamic_topk(d, 0.75)
        kept = int(out.selected.sum())
        protected = 0
        masked = np.where(d.selected, d.scores, -np.inf)
        best = masked.argmax(axis=1)
        order = np.argsort(-d.scores[d.selected].reshape(-1))
        # count protected re-additions: best pairs outside the global top 25
        pair_scores = d.scores[d.selected]
        threshold = np.sort(pair_scores)[::-1][24]
        for t in range(25):
            if d.scores[t, best[t]] < threshold:
                protected += 1
        assert kept == 25 + protected

    def test_no_dropped_pair_outscores_kept_nonprotected(self):
        rng = make_rng(14)
        for _ in range(20):
            d = self._decision(rng)
            out = dynamic_topk(d, 0.6)
            masked = np.where(d.selected, d.scores, -np.inf)
            best = masked.argmax(axis=1)
            protected = np.zeros_like(d.selected)
            protected[np.arange(d.scores.shape[0]), best] = True
            protected &= d.selected
            dropped = d.selected & ~out.selected
            kept_nonprot = out.selected & ~protected
            if dropped.any() and kept_nonprot.any():
                assert d.scores[dropped].max() <= d.scores[kept_nonprot].min() + 1e-15

    def test_every_token_keeps_its_best_expert(self):
        rng = make_rng(15)
        d = self._decision(rng)
        out = dynamic_topk(d, 0.9)
        masked = np.where(d.selected, d.scores, -np.inf)
        best = masked.argmax(axis=1)
        assert out.selected[np.arange(d.scores.shape[0]), best].all()

    def test_count_formula(self):
        rng = make_rng(16)
        for ratio in (0.25, 0.5, 0.9):
            d = self._decision(rng)
            out = dynamic_topk(d, ratio)
            total = int(d.selected.sum())
            keep = int(np.ceil((1 - ratio) * total))
            masked = np.where(d.selected, d.scores, -np.inf)
            best = masked.argmax(axis=1)
            # protected additions = best pairs that fell outside the kept set
            pair_scores = d.scores[d.selected]
            order = np.argsort(-pair_scores, kind="stable")
            kept_set = set()
            toks, exps = np.nonzero(d.selected)
            lex = np.lexsort((exps, toks, -pair_scores))
            for i in lex[:keep]:
                kept_set.add((toks[i], exps[i]))
            additions = sum((t, best[t]) not in kept_set
                            for t in range(d.scores.shape[0]))
            assert int(out.selected.sum()) == keep + additions

    def test_forward_consistency_with_reduced_decision(self):
        rng = make_rng(17)
        m = split_ffn(random_ffn(rng), random_partition(rng), active_experts=3)
        x = rng.standard_normal((6, D_MODEL))
        _, decision, _, _ = smoe_forward(m, x)
        reduced = dynamic_topk(decision, 0.5)
        y, _, hidden, _ = smoe_forward(m, x, decision=reduced)
        # neurons of dropped experts are exactly zero in the hidden state
        for t in range(6):
            for e in range(N):
                if not reduced.selected[t, e]:
                    assert np.all(hidden[t, m.expert_rows(e)] == 0.0)
        assert np.all(np.isfinite(y))

    def test_invalid_ratio_rejected(self):
        d = self._decision(make_rng(18))
        with pytest.raises(ValueError):
            dynamic_topk(d, 1.0)
        with pytest.raises(ValueError):
            dynamic_topk(d, -0.1)
