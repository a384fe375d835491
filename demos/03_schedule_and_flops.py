"""The phase schedule and what it buys in compute.

Replays the dense/sparse state machine on a full-size step budget, showing
the budget rule T = r/(1-r-l) * D, the terminal dense window, and the
analytic FLOPs ledger that prices each mode.
"""

from ssdlab import DenseMode, ModelConfig, SmoeMode, flops_estimate, ssd_speedup
from ssdlab.flops import train_step_flops
from ssdlab.scheduler import (
    SchedulerState,
    SSDConfig,
    advance,
    final_dense_start,
    monitor_due,
    on_monitor,
    sparse_budget_for,
)

cfg = SSDConfig(similarity_threshold=0.9, sparse_ratio=0.5,
                final_dense_ratio=0.1, monitor_interval=3000)
TOTAL_STEPS = 200_000  # the run length, RunConfig.total_steps in a real run

print("== budget arithmetic ==")
print("ratio r/(1-r-l) =", cfg.sparse_ratio / (1 - cfg.sparse_ratio - cfg.final_dense_ratio))
for dense_len in (18_000, 6_000, 3_000):
    print(f"dense segment of {dense_len:6d} steps earns a sparse phase of "
          f"{sparse_budget_for(cfg, dense_len):6d} steps")
print("terminal dense window starts at step", final_dense_start(cfg, TOTAL_STEPS))

print("\n== replaying a schedule against a canned similarity curve ==")
# similarity between consecutive monitor points: low early, then high
def similarity_at(step):
    return min(0.95, 0.2 + step / 40_000)

state = SchedulerState.fresh(1)
state.partitions = [None]
segments = []
current = ["dense", 0]
for step in range(TOTAL_STEPS):
    if advance(state, cfg, step, TOTAL_STEPS) is not None or state.phase != current[0]:
        segments.append((current[0], step - current[1]))
        current = [state.phase, step]
    if monitor_due(state, cfg):
        if on_monitor(state, cfg, similarity_at(step), step, TOTAL_STEPS, seed=0):
            segments.append((current[0], step - current[1]))
            current = [state.phase, step]
    state.steps_in_phase += 1
segments.append((current[0], TOTAL_STEPS - current[1]))
for kind, length in segments:
    print(f"  {kind:12s} {length:7d} steps")
sparse_total = sum(n for k, n in segments if k == "sparse")
print(f"sparse share of the run: {sparse_total / TOTAL_STEPS:.3f} "
      f"(target ratio r = {cfg.sparse_ratio})")

print("\n== pricing the modes (base-size preset, 12x768, ffn 6144) ==")
model = ModelConfig.base_scale()
dense = flops_estimate(model, DenseMode(), batch_size=512)
sparse = flops_estimate(model, SmoeMode(32, 6), batch_size=512)
print(f"dense  training step: {dense.per_step_train/1e12:7.1f} TFLOPs")
print(f"sparse training step: {sparse.per_step_train/1e12:7.1f} TFLOPs "
      f"(ffn fraction = 6/32 = {6/32})")
for r in (0.3, 0.5, 0.7):
    print(f"speedup at sparse share {r}: {ssd_speedup(model, 32, 6, r):.2f}x")

print("\n== exact accounting over the replayed schedule ==")
total = 0
for kind, length in segments:
    mode = SmoeMode(32, 6) if kind == "sparse" else DenseMode()
    total += length * train_step_flops(model, mode, model.max_seq_len, 512)
dense_total = TOTAL_STEPS * train_step_flops(model, DenseMode(),
                                                 model.max_seq_len, 512)
print(f"whole run: {total/1e15:.0f} PFLOPs vs always-dense {dense_total/1e15:.0f} "
      f"PFLOPs -> realized speedup {dense_total/total:.2f}x")
