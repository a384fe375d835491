import dataclasses

import numpy as np
import pytest

from ssdlab import scheduler
from ssdlab.clustering import adjusted_rand_index, cluster_with_warmstart
from ssdlab.model import GPT, ModelConfig
from ssdlab.numerics import (
    SEED_TAG_CLUSTER,
    AdamState,
    OptimizerConfig,
    adam_step,
    derived_rng,
    flat_copy,
    make_rng,
)
from ssdlab.scheduler import (
    PHASE_DENSE,
    PHASE_FINAL_DENSE,
    PHASE_SPARSE,
    SchedulerState,
    SSDConfig,
    advance,
    final_dense_start,
    monitor_due,
    monitor_similarity,
    on_monitor,
    sparse_budget_for,
    transition_dense_to_sparse,
    transition_sparse_to_dense,
)

CFG = SSDConfig()
TOTAL = 200_000  # the run length every CFG schedule below is planned for


def toy_model(seed=0):
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                      vocab_size=11, max_seq_len=8)
    return GPT.init(cfg, make_rng(seed))


def seeded_state(model, num_experts=4, seed=0, step=0):
    """A scheduler whose chain holds a monitor's partitions, as it does
    whenever train converts."""
    state = SchedulerState.fresh(model.config.n_layers)
    monitor_similarity(model, state, num_experts, seed, step)
    return state


class TestTransitionArithmetic:
    def test_case_study_budgets(self):
        assert sparse_budget_for(CFG, 18_000) == 22_500
        assert sparse_budget_for(CFG, 6_000) == 7_500

    def test_final_window_is_last_tenth(self):
        assert final_dense_start(CFG, TOTAL) == 180_000
        assert final_dense_start(CFG, 1001) == 900

    @pytest.mark.parametrize("r,l,dense_len", [(0.5, 0.1, 3000), (0.5, 0.1, 18000),
                                               (0.3, 0.1, 6000), (0.7, 0.1, 4000)])
    def test_cycle_ratio_identity(self, r, l, dense_len):
        # T / (D + T) == r / (1 - l) for every dense/sparse cycle
        cfg = SSDConfig(sparse_ratio=r, final_dense_ratio=l)
        t = sparse_budget_for(cfg, dense_len)
        assert t / (dense_len + t) == pytest.approx(r / (1 - l), rel=1e-6)

    def test_monitor_transition_sets_budget(self):
        st = SchedulerState.fresh(2)
        st.steps_in_phase = 18_000
        assert on_monitor(st, CFG, 0.95, step=18_000, total_steps=TOTAL, seed=0)
        assert st.phase == PHASE_SPARSE
        assert st.sparse_budget == 22_500
        assert st.events[-1]["kind"] == "dense_to_sparse"

    def test_similarity_at_threshold_does_not_fire(self):
        st = SchedulerState.fresh(2)
        st.steps_in_phase = 3000
        assert not on_monitor(st, CFG, CFG.similarity_threshold, 3000, TOTAL, seed=0)
        assert st.phase == PHASE_DENSE

    def test_zero_sparse_ratio_never_leaves_dense(self):
        cfg = SSDConfig(sparse_ratio=0.0, monitor_interval=10)
        st = SchedulerState.fresh(2)
        st.steps_in_phase = 100
        assert not on_monitor(st, cfg, 0.99, 100, 10_000, seed=0)
        assert st.phase == PHASE_DENSE

    def test_budget_truncated_at_final_window(self):
        cfg = SSDConfig(monitor_interval=100)
        st = SchedulerState.fresh(2)
        st.steps_in_phase = 800
        assert on_monitor(st, cfg, 0.95, step=800, total_steps=1000, seed=0)
        assert st.sparse_budget == 100  # 900 - 800, not round(1.25 * 800)

    def test_on_monitor_requires_dense_phase(self):
        st = SchedulerState.fresh(2)
        st.phase = PHASE_SPARSE
        with pytest.raises(ValueError):
            on_monitor(st, CFG, 0.95, 100, TOTAL, seed=0)

    def test_random_policy_is_seed_deterministic(self):
        cfg = SSDConfig(policy="random")
        decisions = []
        for _ in range(2):
            run = []
            for step in (3000, 6000, 9000, 12000):
                st = SchedulerState.fresh(1)
                st.steps_in_phase = step
                run.append(on_monitor(st, cfg, None, step, 100_000, seed=5))
            decisions.append(run)
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) or not all(decisions[0])  # coin actually flips


class TestAdvance:
    def test_final_dense_begins_at_boundary_from_any_phase(self):
        for phase in (PHASE_DENSE, PHASE_SPARSE):
            st = SchedulerState.fresh(1)
            st.phase = phase
            st.sparse_budget = 10 ** 9
            action = advance(st, CFG, 180_000, TOTAL)
            assert st.phase == PHASE_FINAL_DENSE
            assert (action == "merge") == (phase == PHASE_SPARSE)

    def test_final_dense_absorbing(self):
        st = SchedulerState.fresh(1)
        st.phase = PHASE_FINAL_DENSE
        assert advance(st, CFG, 190_000, TOTAL) is None
        assert st.phase == PHASE_FINAL_DENSE

    def test_sparse_ends_exactly_at_budget(self):
        st = SchedulerState.fresh(1)
        st.phase = PHASE_SPARSE
        st.sparse_budget = 5
        st.steps_in_phase = 4
        assert advance(st, CFG, 1000, TOTAL) is None
        st.steps_in_phase = 5
        assert advance(st, CFG, 1001, TOTAL) == "merge"
        assert st.phase == PHASE_DENSE
        assert st.steps_in_phase == 0

    def test_event_log_replays_phases(self):
        cfg = SSDConfig(monitor_interval=10, similarity_threshold=0.5)
        total = 100
        st = SchedulerState.fresh(1)
        phases = []
        for step in range(total):
            advance(st, cfg, step, total)
            if monitor_due(st, cfg):
                on_monitor(st, cfg, 0.9, step, total, seed=0)
            phases.append(st.phase)
            st.steps_in_phase += 1
        # replay phases from the event log alone
        replayed, phase = [], PHASE_DENSE
        events = {e["step"]: e["kind"] for e in st.events}
        for step in range(total):
            if step in events:
                phase = {"dense_to_sparse": PHASE_SPARSE,
                         "sparse_to_dense": PHASE_DENSE,
                         "enter_final_dense": PHASE_FINAL_DENSE}[events[step]]
            replayed.append(phase)
        assert replayed == phases
        assert phases[-10:] == [PHASE_FINAL_DENSE] * 10


class TestMonitorDue:
    def test_fires_every_interval_of_dense_steps(self):
        cfg = SSDConfig(monitor_interval=10)
        st = SchedulerState.fresh(1)
        due_at = []
        for step in range(40):
            if monitor_due(st, cfg):
                due_at.append(step)
            st.steps_in_phase += 1
        assert due_at == [10, 20, 30]

    def test_not_due_during_sparse(self):
        cfg = SSDConfig(monitor_interval=10)
        st = SchedulerState.fresh(1)
        st.phase = PHASE_SPARSE
        st.steps_in_phase = 10
        assert not monitor_due(st, cfg)


class TestModelConversions:
    def test_dense_to_sparse_then_k_equals_n_loss_is_identical(self):
        from ssdlab.model import lm_loss

        model = toy_model()
        ids = make_rng(1).integers(0, 11, size=(2, 7))
        loss_dense, _, _ = lm_loss(model, ids, want_grads=False)
        state = seeded_state(model)
        transition_dense_to_sparse(model, state, active_experts=4)
        loss_sparse, _, _ = lm_loss(model, ids, want_grads=False)
        assert loss_sparse == loss_dense

    def test_sparse_to_dense_recovers_parameters_bitwise(self):
        model = toy_model()
        snapshot = {k: v.copy() for k, v in model.params.items()}
        state = seeded_state(model)
        transition_dense_to_sparse(model, state, 2)
        transition_sparse_to_dense(model, state)
        assert all(np.array_equal(model.params[k], snapshot[k]) for k in snapshot)
        assert all(lay is None for lay in model.moe)

    def test_adam_moments_follow_their_parameters(self):
        # one sparse step after the transition equals an oracle that applies
        # the same (identity) routing to a never-split model's update
        from ssdlab.model import lm_loss

        model = toy_model()
        ids = make_rng(2).integers(0, 11, size=(2, 7))
        adam = AdamState.for_params(model.params)
        for _ in range(3):  # make the moments non-trivial
            _, grads, _ = lm_loss(model, ids)
            adam_step(model.params, grads, adam, OptimizerConfig(), lr=0.01)

        twin = GPT(model.config, flat_copy(model.params))
        twin_adam = AdamState(m=flat_copy(adam.m), v=flat_copy(adam.v),
                              step_count=adam.step_count)

        state = seeded_state(model, step=3)
        transition_dense_to_sparse(model, state, 2)
        _, sparse_grads, _ = lm_loss(model, ids)
        adam_step(model.params, sparse_grads, adam, OptimizerConfig(), lr=0.01)

        # oracle: same elementwise update applied in the never-split layout
        adam_step(twin.params, sparse_grads, twin_adam, OptimizerConfig(), lr=0.01)
        assert all(np.array_equal(model.params[k], twin.params[k])
                   for k in model.params)

    def test_transition_reuses_monitor_partition(self):
        # the conversion attaches the partitions the monitor just chose
        model = toy_model()
        state = seeded_state(model, seed=9, step=50)
        transition_dense_to_sparse(model, state, 2)
        for layer in range(2):
            assert model.moe[layer].partition is state.partitions[layer]

    def test_transition_needs_a_seeded_chain(self):
        model = toy_model()
        with pytest.raises(ValueError) as e:
            transition_dense_to_sparse(model, SchedulerState.fresh(2), 2)
        assert str(e.value) == ("the partition chain is not seeded: "
                                "run monitor_similarity first")
        assert all(lay is None for lay in model.moe)


def cluster_oracle(model, prev, num_experts, seed, step):
    """Layer i is cluster_with_warmstart on its own weights, warm-started
    from prev[i] and drawing from derived_rng(seed, SEED_TAG_CLUSTER, step, i):
    the contract replay and resume rely on."""
    return [cluster_with_warmstart(model.params[f"block{i}.ffn_w_in"], num_experts,
                                   prev[i], derived_rng(seed, SEED_TAG_CLUSTER, step, i))
            for i in range(model.config.n_layers)]


class TestMonitorSimilarity:
    @pytest.mark.parametrize("warm", [False, True], ids=["random-init", "warm-start"])
    def test_each_layer_uses_its_derived_seed(self, warm, monkeypatch):
        # the monitor clusters through the scheduler module's global, so that
        # one name sees every clustering a run or a MoEfication does
        model = toy_model(seed=3)
        state = seeded_state(model, seed=5) if warm else SchedulerState.fresh(2)
        prev = list(state.partitions)
        seen = []

        def recording(*args):
            seen.append(cluster_with_warmstart(*args))
            return seen[-1]

        monkeypatch.setattr(scheduler, "cluster_with_warmstart", recording)
        monitor_similarity(model, state, 4, seed=11, step=7)
        assert len(seen) == 2
        for i, (got, want) in enumerate(zip(seen, cluster_oracle(model, prev, 4, 11, 7))):
            assert np.array_equal(got.partition.assignment, want.partition.assignment)
            assert got.wcss == want.wcss
            assert state.partitions[i] is got.partition

    def test_first_clustering_has_no_baseline(self):
        model = toy_model(seed=3)
        state = SchedulerState.fresh(model.config.n_layers)
        assert monitor_similarity(model, state, 4, seed=5, step=0) == []
        assert all(p is not None for p in state.partitions)

    def test_one_ari_per_layer_against_the_chain(self):
        model = toy_model(seed=3)
        state = seeded_state(model, seed=5)
        chain = list(state.partitions)
        other = toy_model(seed=4)
        aris = monitor_similarity(other, state, 4, seed=5, step=10)
        outcomes = cluster_oracle(other, chain, 4, seed=5, step=10)
        assert aris == [adjusted_rand_index(prev, o.partition)
                        for prev, o in zip(chain, outcomes)]
        assert len(aris) == model.config.n_layers


class TestConfigValidation:
    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            SSDConfig(sparse_ratio=0.95, final_dense_ratio=0.1)
        with pytest.raises(ValueError):
            SSDConfig(similarity_threshold=0.0)
        with pytest.raises(ValueError):
            SSDConfig(policy="sometimes")

    def test_run_length_is_not_a_setting(self):
        # the schedule is planned for RunConfig.total_steps, passed per call
        with pytest.raises(TypeError):
            SSDConfig(total_steps=5)
        assert [f.name for f in dataclasses.fields(SSDConfig)] == [
            "similarity_threshold", "sparse_ratio", "final_dense_ratio",
            "monitor_interval", "policy"]
