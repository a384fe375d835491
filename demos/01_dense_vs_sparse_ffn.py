"""Dense feed-forward blocks vs their sparse expert form.

Walks through the one conversion the package has: cluster a layer's input
weights into experts, attach an expert view over the layer's own arrays, and
route tokens to experts. It then checks the exactness guarantees that make
switching safe: selecting all experts reproduces the dense computation bit
for bit, a dense -> sparse -> dense round trip leaves every parameter as it
was, and experts no token selected receive exactly-zero gradients.
"""

import numpy as np

from ssdlab import (
    GPT,
    ModelConfig,
    MoEFFN,
    SchedulerState,
    attach_experts,
    balanced_kmeans,
    compute_centroids,
    ffn_forward,
    lm_loss,
    make_rng,
    smoe_backward,
    smoe_forward,
    transition_dense_to_sparse,
    transition_sparse_to_dense,
)
from ssdlab.clustering import Partition
from ssdlab.scheduler import monitor_similarity

rng = make_rng(0)
d_model, d_ff, num_experts = 32, 128, 8
cfg = ModelConfig(n_layers=1, d_model=d_model, n_heads=2, d_ff=d_ff,
                  vocab_size=16, max_seq_len=8)

print("== a one-layer model and its dense feed-forward block ==")
model = GPT.init(cfg, rng)
w = model.ffn_weights(0)
for name in ("w_in", "b_in", "w_out", "b_out"):  # livelier than the init scale
    getattr(w, name)[...] = rng.normal(0, 0.2, getattr(w, name).shape)
x = rng.standard_normal((6, d_model))
y_dense, hidden, _ = ffn_forward(w, x)
print(f"d_model={d_model}, d_ff={d_ff}; input {x.shape} -> output {y_dense.shape}")
print(f"hidden sparsity of this random block: {(hidden == 0).mean():.2f}")

print("\n== cluster: group neurons into equal-size experts ==")
outcome = balanced_kmeans(w.w_in, num_experts, rng=rng)
print(f"{num_experts} experts x {d_ff // num_experts} neurons, "
      f"WCSS = {outcome.wcss:.1f}")

print("\n== attach: an expert view over the layer's own arrays ==")
attach_experts(model, [outcome.partition], active_experts=2)
m = model.moe[0]
print("the view copies nothing:",
      all(getattr(m.weights, f) is getattr(w, f)
          for f in ("w_in", "b_in", "w_out", "b_out")))
centroids = compute_centroids(m)
print(f"centroid matrix: {centroids.shape} (mean of each expert's rows)")

print("\n== route: each token picks its top-2 experts by x . centroid ==")
y, decision, _, cache = smoe_forward(m, x)
for t in range(3):
    chosen = np.flatnonzero(decision.selected[t])
    print(f"token {t}: scores {np.round(decision.scores[t], 2)} -> experts {chosen}")

print("\n== exactness guarantee 1: selecting everything is the dense block ==")
m.active_experts = num_experts
y_full, _, _, _ = smoe_forward(m, x)
m.active_experts = 2
print(f"max |dense - full-sparse| = {np.max(np.abs(y_dense - y_full))} "
      f"(bitwise equal: {np.array_equal(y_dense, y_full)})")

print("\n== exactness guarantee 2: unselected experts get zero gradient ==")
_, grads = smoe_backward(m, cache, np.ones_like(y))
for e in range(num_experts):
    rows = m.partition.cluster_members(e)
    touched = decision.selected[:, e].sum()
    grad_norm = np.abs(grads["w_in"][rows]).max()
    print(f"expert {e}: selected by {touched} tokens, "
          f"max |grad w_in| = {grad_norm:.4f}")

print("\n== the round trip the training loop runs: dense -> sparse -> dense ==")
model.moe[0] = None
ids = rng.integers(0, cfg.vocab_size, size=(4, 8))
snapshot = {k: v.copy() for k, v in model.params.items()}
loss_dense, _, _ = lm_loss(model, ids, want_grads=False)
state = SchedulerState.fresh(cfg.n_layers)
# a monitor clusters every layer into the chain; the conversion attaches
# exactly those partitions, here with all experts selected (K=N)
monitor_similarity(model, state, num_experts, seed=0, step=0)
transition_dense_to_sparse(model, state, num_experts)
print("conversion attached the monitor's partition:",
      model.moe[0].partition is state.partitions[0])
loss_sparse, _, _ = lm_loss(model, ids, want_grads=False)
transition_sparse_to_dense(model, state)
loss_back, _, _ = lm_loss(model, ids, want_grads=False)
print(f"loss dense {float(loss_dense)!r}, at K=N {float(loss_sparse)!r}, "
      f"dense again {float(loss_back)!r}")
print("parameters bitwise unchanged:",
      all(np.array_equal(model.params[k], snapshot[k]) for k in snapshot))

print("\n== conversion-policy comparison: clustered vs random grouping ==")
# a random balanced grouping scatters co-activating neurons across experts, so
# a K<N forward strays further from the dense output than a clustered one
k = 2
random_assign = np.repeat(np.arange(num_experts), d_ff // num_experts)
rng.shuffle(random_assign)
for name, part in (("clustered", outcome.partition),
                   ("random", Partition(random_assign, num_experts))):
    yk, _, _, _ = smoe_forward(MoEFFN(w, part, k), x)
    gap = np.abs(yk - y_dense).mean()
    print(f"{name:9s} experts, K={k}/{num_experts}: "
          f"mean |y_sparse - y_dense| = {gap:.4f}")
