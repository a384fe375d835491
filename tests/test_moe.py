import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab.clustering import Partition
from ssdlab.model import GPT, FFNWeights, ModelConfig, ffn_backward, ffn_forward
from ssdlab.moe import (
    GateDecision,
    MoEFFN,
    attach_experts,
    compute_centroids,
    dynamic_topk,
    smoe_backward,
    smoe_forward,
    topk_mask,
)
from ssdlab.numerics import make_rng, matmul, matmul_nt, matmul_tn, relu, relu_backward

from conftest import max_grad_error, snapshot

D_MODEL, D_FF, N = 16, 32, 4
FIELDS = ("w_in", "b_in", "w_out", "b_out")
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
        m = MoEFFN(w, Partition(np.zeros(D_FF, dtype=np.int64), 1), 1)
        x = rng.standard_normal((3, D_MODEL))
        y_sparse, _, _, _ = smoe_forward(m, x)
        y_dense, _, _ = ffn_forward(w, x)
        assert np.array_equal(y_sparse, y_dense)

    def test_routing_example(self):
        w = FFNWeights(np.arange(8.0).reshape(4, 2), np.arange(4.0),
                       np.zeros((2, 4)), np.zeros(2))
        m = MoEFFN(w, Partition([0, 1, 0, 1], 2), 1)
        rows = m.partition.cluster_members(0)
        assert m.weights.w_in[rows].tolist() == [[0.0, 1.0], [4.0, 5.0]]
        assert m.weights.b_in[rows].tolist() == [0.0, 2.0]
        assert m.weights.w_out[:, m.partition.cluster_members(1)].shape == (2, 2)

    def test_round_trip_bitwise_and_output_equivalent(self):
        # the expert layout is a view over the dense block's own arrays, so
        # using it and dropping it leaves the dense block bitwise as it was
        for trial in range(100):
            rng = make_rng(1000 + trial)
            w = random_ffn(rng)
            snapshot = [getattr(w, f).copy() for f in FIELDS]
            m = MoEFFN(w, random_partition(rng), N)
            assert all(getattr(m.weights, f) is getattr(w, f) for f in FIELDS)
            x = rng.standard_normal((4, D_MODEL))
            y_sparse, _, _, _ = smoe_forward(m, x)
            for f, before in zip(FIELDS, snapshot):
                assert np.array_equal(getattr(w, f), before)
            y_dense, _, _ = ffn_forward(w, x)
            assert np.array_equal(y_sparse, y_dense)

    def test_unbalanced_partition_rejected(self):
        w = random_ffn(make_rng(2))
        bad = Partition(np.zeros(D_FF, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="balanced"):
            MoEFFN(w, bad, 1)


class TestAttachExperts:
    def two_layer_model(self):
        cfg = ModelConfig(n_layers=2, d_model=D_MODEL, n_heads=2, d_ff=D_FF,
                          vocab_size=11, max_seq_len=8)
        return GPT.init(cfg, make_rng(0)), make_rng(1)

    def test_one_partition_per_layer(self):
        model, rng = self.two_layer_model()
        attach_experts(model, [random_partition(rng) for _ in range(2)], 2)
        assert [m.weights.w_in is model.ffn_weights(i).w_in
                for i, m in enumerate(model.moe)] == [True, True]

    @pytest.mark.parametrize("count", [1, 3])
    def test_partition_count_must_match_the_layers(self, count):
        # fewer once left the last layers dense; more raised a KeyError
        # after attaching every layer
        model, rng = self.two_layer_model()
        attach_experts(model, [random_partition(rng) for _ in range(2)], 2)
        before = list(model.moe)
        with pytest.raises(ValueError, match=f"{count} partitions for 2 layers"):
            attach_experts(model, [random_partition(rng) for _ in range(count)], 1)
        assert all(a is b for a, b in zip(model.moe, before, strict=True))

    def test_a_rejected_partition_changes_no_layer(self):
        model, rng = self.two_layer_model()
        short = Partition(np.zeros(D_FF - N, dtype=np.int64), 1)
        with pytest.raises(ValueError, match="partition length"):
            attach_experts(model, [random_partition(rng), short], 2)
        assert model.moe == [None, None]


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
        m = MoEFFN(random_ffn(rng), random_partition(rng), N)
        c = compute_centroids(m)
        for n in range(N):
            direct = m.weights.w_in[m.partition.cluster_members(n)].mean(axis=0)
            assert np.allclose(c[n], direct, atol=1e-15)


class TestGate:
    def test_all_experts_selected_when_k_equals_n(self):
        rng = make_rng(4)
        m = MoEFFN(random_ffn(rng), random_partition(rng), N)
        d = smoe_forward(m, rng.standard_normal((5, D_MODEL)))[1]
        assert d.selected.all()

    def test_orthogonal_centroids_pick_matching_expert(self):
        # experts whose rows all equal a basis vector gate like that basis
        d_model, n = 4, 4
        w_in = np.vstack([np.tile(np.eye(d_model)[i], (2, 1)) for i in range(n)])
        w = FFNWeights(w_in, np.zeros(8), np.zeros((d_model, 8)), np.zeros(d_model))
        m = MoEFFN(w, Partition(np.repeat(np.arange(n), 2), n), 1)
        d = smoe_forward(m, np.eye(d_model)[2][None, :])[1]
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
        x = rows.mean(axis=0)[None, :]  # scores: (-s, s, s, 0) with s > 0
        for _ in range(5):
            d = smoe_forward(m, x)[1]
            assert d.scores[0, 1] == d.scores[0, 2]
            assert d.selected[0].tolist() == [False, True, False, False]

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_selection_invariant_to_positive_scaling(self, lam, seed):
        rng = np.random.default_rng(seed)
        m = MoEFFN(random_ffn(make_rng(5)), random_partition(make_rng(6)), 2)
        x = rng.standard_normal((3, D_MODEL))
        a = smoe_forward(m, x)[1]
        b = smoe_forward(m, lam * x)[1]
        assert np.array_equal(a.selected, b.selected)

    def test_input_width_checked(self):
        m = MoEFFN(random_ffn(make_rng(7)), random_partition(make_rng(8)), N)
        with pytest.raises(ValueError, match="shape mismatch"):
            smoe_forward(m, np.zeros((1, D_MODEL + 1)))


class TestSparseForwardBackward:
    def test_k_equals_n_matches_dense_to_zero_ulp(self):
        for trial in range(100):
            rng = make_rng(2000 + trial)
            w = random_ffn(rng)
            p = random_partition(rng)
            m = MoEFFN(w, p, N)
            x = rng.standard_normal((5, D_MODEL))
            y_sparse, _, hidden, _ = smoe_forward(m, x)
            y_dense, hidden_dense, _ = ffn_forward(w, x)
            assert np.array_equal(y_sparse, y_dense)
            assert np.array_equal(hidden, hidden_dense)

    @pytest.mark.parametrize("tokens", [512, 1])
    def test_k_equals_n_matches_dense_bitwise_at_desk_shape(self, tokens):
        # BLAS takes different code paths at these sizes than at toy ones
        rng = make_rng(4000 + tokens)
        w = desk_ffn(rng)
        m = MoEFFN(w, random_partition(rng, DESK_D_FF, DESK_N), DESK_N)
        x = rng.standard_normal((tokens, DESK_D_MODEL))
        y_sparse, _, hidden, _ = smoe_forward(m, x)
        y_dense, hidden_dense, _ = ffn_forward(w, x)
        assert np.array_equal(y_sparse.view(np.int64), y_dense.view(np.int64))
        assert np.array_equal(hidden.view(np.int64), hidden_dense.view(np.int64))

    @pytest.mark.parametrize("make_ffn, n, tokens", [(random_ffn, N, 5),
                                                      (desk_ffn, DESK_N, 512)],
                             ids=["toy", "desk"])
    def test_k_equals_n_hidden_path_gradients_match_dense_bitwise(self, make_ffn, n,
                                                                  tokens):
        # with every expert selected the hidden path is the dense formula;
        # w_in and d_x also carry the straight-through gate path, so differ
        rng = make_rng(6000 + tokens)
        w = make_ffn(rng)
        d_ff, d_model = w.w_in.shape
        m = MoEFFN(w, random_partition(rng, d_ff, n), n)
        x = rng.standard_normal((tokens, d_model))
        d_y = rng.standard_normal(x.shape)
        _, _, _, cache = smoe_forward(m, x)
        _, sparse = smoe_backward(m, cache, d_y)
        _, _, dense_cache = ffn_forward(w, x)
        _, dense, _ = ffn_backward(w, dense_cache, d_y)
        for k in ("w_out", "b_out", "b_in"):
            assert snapshot(sparse[k]) == snapshot(dense[k])

    @pytest.mark.parametrize("tokens", [1, 3, 16])
    def test_unselected_expert_gets_exactly_zero_gradients_at_desk_shape(self, tokens):
        rng = make_rng(5000 + tokens)
        w = desk_ffn(rng)
        m = MoEFFN(w, random_partition(rng, DESK_D_FF, DESK_N), 6)
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
            m = MoEFFN(random_ffn(rng), random_partition(rng, n=8), 2)
            x = rng.standard_normal((4, D_MODEL))
            y, decision, _, cache = smoe_forward(m, x)
            never_selected = np.flatnonzero(~decision.selected.any(axis=0))
            if never_selected.size == 0:
                continue
            checked += 1
            _, grads = smoe_backward(m, cache, rng.standard_normal(y.shape))
            for e in never_selected:
                rows = m.partition.cluster_members(e)
                assert np.all(grads["w_in"][rows] == 0.0)
                assert np.all(grads["b_in"][rows] == 0.0)
                assert np.all(grads["w_out"][:, rows] == 0.0)
        assert trial < 200  # engineered batches found quickly

    def test_selected_experts_do_get_gradient(self):
        rng = make_rng(9)
        m = MoEFFN(random_ffn(rng), random_partition(rng), 2)
        x = rng.standard_normal((6, D_MODEL))
        y, decision, _, cache = smoe_forward(m, x)
        _, grads = smoe_backward(m, cache, np.ones_like(y))
        selected_somewhere = np.flatnonzero(decision.selected.any(axis=0))
        for e in selected_somewhere:
            rows = m.partition.cluster_members(e)
            assert np.any(grads["w_in"][rows] != 0.0)

    def test_backward_matches_finite_differences_in_stable_region(self):
        rng = make_rng(7)
        m = MoEFFN(random_ffn(rng), random_partition(rng), 2)
        x = rng.standard_normal((4, D_MODEL))
        y0, decision, _, cache = smoe_forward(m, x)
        frozen = decision.scores.copy()
        d_y = rng.standard_normal(y0.shape)
        d_x, grads = smoe_backward(m, cache, d_y)

        def loss():
            # the straight-through surrogate, pinned bit for bit to production
            # at the live scores by test_smoe_matches_reference
            y, _, _, _ = smoe_forward_reference(m, x, decision, frozen)
            return (y * d_y).sum()

        pairs = [(x, d_x)] + [(getattr(m.weights, k), grads[k])
                              for k in ("w_in", "b_in", "w_out", "b_out")]
        assert max_grad_error(loss, pairs, samples=15) < 1e-4

    def test_straight_through_path_reaches_input_weights(self):
        # gradient flows into w_in through the centroid even for neurons the
        # ReLU turned off, via the gate-score path
        rng = make_rng(11)
        m = MoEFFN(random_ffn(rng), random_partition(rng), N)
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
        return GateDecision(scores, topk_mask(scores, k))

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
        m = MoEFFN(random_ffn(rng), random_partition(rng), 3)
        x = rng.standard_normal((6, D_MODEL))
        _, decision, _, _ = smoe_forward(m, x)
        reduced = dynamic_topk(decision, 0.5)
        m.dynamic_ratio = 0.5
        y, routed, hidden, _ = smoe_forward(m, x)
        assert np.array_equal(routed.selected, reduced.selected)
        # neurons of dropped experts are exactly zero in the hidden state
        for t in range(6):
            for e in range(N):
                if not reduced.selected[t, e]:
                    assert np.all(hidden[t, m.partition.cluster_members(e)] == 0.0)
        assert np.all(np.isfinite(y))

    @given(st.integers(1, 40), st.integers(1, 12), st.data(),
           st.floats(0.0, 0.99), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_properties_over_random_shapes(self, tokens, experts, data, ratio, seed):
        k = data.draw(st.integers(1, experts))
        scores = np.random.default_rng(seed).standard_normal((tokens, experts))
        d = GateDecision(scores, topk_mask(scores, k))
        out = dynamic_topk(d, ratio)
        # kept pairs are a subset of the selected ones
        assert not (out.selected & ~d.selected).any()
        # every token keeps its best expert
        best = np.where(d.selected, scores, -np.inf).argmax(axis=1)
        assert out.selected[np.arange(tokens), best].all()
        # ceil((1 - ratio) * total) by (score desc, token, expert), plus the
        # best pairs that fell outside those
        toks, exps = np.nonzero(d.selected)
        keep = int(np.ceil((1 - ratio) * toks.size))
        lex = np.lexsort((exps, toks, -scores[toks, exps]))
        kept_set = {(toks[i], exps[i]) for i in lex[:keep]}
        additions = sum((t, best[t]) not in kept_set for t in range(tokens))
        assert int(out.selected.sum()) == keep + additions

    def test_invalid_ratio_rejected(self):
        d = self._decision(make_rng(18))
        with pytest.raises(ValueError):
            dynamic_topk(d, 1.0)
        with pytest.raises(ValueError):
            dynamic_topk(d, -0.1)


# -----------------------------------------------------------------------------
# The in-place sparse FFN against its out-of-place formulas
# -----------------------------------------------------------------------------


def expert_indicator_reference(m):
    d_ff = m.partition.assignment.size
    indicator = np.zeros((d_ff, m.num_experts))
    indicator[np.arange(d_ff), m.partition.assignment] = 1.0
    return indicator


def compute_centroids_reference(m):
    d_ff = m.weights.w_in.shape[0]
    return (m.num_experts / d_ff) * matmul_tn(expert_indicator_reference(m), m.weights.w_in)


def smoe_forward_reference(m, x, decision=None, frozen_scores=None):
    """One fresh array per operator; the per-neuron coefficients gathered
    with fancy indexing. Given a decision and frozen_scores it evaluates the
    straight-through surrogate, coefficient 1 + (score - frozen_score) on
    selected experts, away from its linearization point; gradient checks
    difference that surrogate."""
    centroids = compute_centroids_reference(m)
    scores = matmul_nt(x, centroids)
    if decision is None:
        decision = GateDecision(scores, topk_mask(scores, m.active_experts))
        if m.dynamic_ratio > 0.0:
            decision = dynamic_topk(decision, m.dynamic_ratio)
    selected = decision.selected
    if frozen_scores is None:
        frozen_scores = scores
    coeff = np.where(selected, 1.0 + (scores - frozen_scores), 0.0)
    w = m.weights
    hidden_full = relu(matmul_nt(x, w.w_in) + w.b_in)
    hidden = hidden_full * coeff[:, m.partition.assignment]
    y = matmul_nt(hidden, w.w_out) + w.b_out
    return y, decision, hidden, (x, hidden, selected, centroids)


def smoe_backward_reference(m, cache, d_y):
    """The gate gradient from the unmasked hidden state, recomputed here."""
    x, hidden, selected, centroids = cache
    w = m.weights
    assignment = m.partition.assignment
    hidden_full = relu(matmul_nt(x, w.w_in) + w.b_in)
    d_w_out = matmul_tn(d_y, hidden)
    d_b_out = d_y.sum(axis=0)
    d_hidden = matmul(d_y, w.w_out)
    d_coeff = matmul(d_hidden * hidden_full, expert_indicator_reference(m))
    d_scores = np.where(selected, d_coeff, 0.0)
    d_pre = relu_backward(d_hidden * selected[:, assignment], hidden_full)
    d_w_in = matmul_tn(d_pre, x)
    d_b_in = d_pre.sum(axis=0)
    d_x = matmul(d_pre, w.w_in)
    d_x += matmul(d_scores, centroids)
    d_centroids = matmul_tn(d_scores, x)
    d_w_in += (m.num_experts / assignment.size) * d_centroids[assignment]
    return d_x, {"w_in": d_w_in, "b_in": d_b_in, "w_out": d_w_out, "b_out": d_b_out}


# (tokens, d_model, d_ff, N, K, b_in shift): desk and toy batches, an odd
# 7x8 one, K = N at desk shape, and a ReLU-heavy one whose shifted input bias
# turns every neuron of some selected (token, expert) pairs off, so the gate
# gradient sums signed zeros
SMOE_SHAPES = {
    "desk": (512, 128, 512, 32, 6, 0.0),
    "toy": (128, 32, 64, 8, 2, 0.0),
    "odd": (7, 8, 12, 4, 2, 0.0),
    "desk-k-equals-n": (512, 128, 512, 32, 32, 0.0),
    "relu-heavy": (64, 16, 64, 8, 3, -0.3),
}


@pytest.mark.parametrize("tokens, d_model, d_ff, n, k, shift", SMOE_SHAPES.values(),
                         ids=SMOE_SHAPES.keys())
# "live": the reference runs at the live gate scores, where its
# straight-through coefficient is exactly the routing mask
@pytest.mark.parametrize("dynamic_ratio", [0.0, 0.5], ids=["live-0.0", "live-0.5"])
def test_smoe_matches_reference(tokens, d_model, d_ff, n, k, shift, dynamic_ratio):
    rng = make_rng(tokens + d_ff + k)
    w = FFNWeights(0.1 * rng.standard_normal((d_ff, d_model)),
                   0.1 * rng.standard_normal(d_ff) + shift,
                   0.1 * rng.standard_normal((d_model, d_ff)), 0.1 * rng.standard_normal(d_model))
    m = MoEFFN(w, random_partition(rng, d_ff, n), k)
    m.dynamic_ratio = dynamic_ratio
    x = rng.standard_normal((tokens, d_model))
    d_y = rng.standard_normal(x.shape)
    inputs = snapshot((x, d_y, w))
    assert snapshot(compute_centroids(m)) == snapshot(compute_centroids_reference(m))
    out = smoe_forward(m, x)
    assert snapshot(out) == snapshot(smoe_forward_reference(m, x))
    y, _, hidden, cache = out
    returned = snapshot((hidden, cache))
    grads = smoe_backward(m, cache, d_y)
    assert snapshot(grads) == snapshot(smoe_backward_reference(m, cache, d_y))
    assert snapshot((hidden, cache)) == returned
    assert snapshot((x, d_y, w)) == inputs
