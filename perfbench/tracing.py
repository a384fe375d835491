"""Span tracing for the benchmark's traced runs.

Wrappers are installed at the module attribute each caller looks up (the
package imports its functions with ``from ... import``, so wrapping only the
defining module would record nothing), record one span per call and are
removed when the traced run ends. Nothing in the package itself changes.

A span holds its name, start, end, parent span and run id; spans stay in
memory until the run ends. A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "extra")

    def __init__(self, name, start, end, parent, run_id, extra=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the tracer's span list, -1 at top level
        self.run_id = run_id
        self.extra = extra


class Tracer:
    """Records spans from wrapped functions of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._installed: list = []

    def wrap(self, fn, name, extra=None):
        """Wrap fn so each call records a span.

        name is a string or a callable (args, kwargs) -> string; extra, when
        given, is called as extra(args, kwargs, result) and its value is kept
        on the span.
        """
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span = Span(span_name, 0.0, 0.0, stack[-1] if stack else -1, run_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """targets: iterable of (module, attribute, name, extra)."""
        for module, attr, name, extra in targets:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, extra))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list) -> list:
    """Per-span duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append(span.end - span.start - _covered(clipped))
    return out


# -----------------------------------------------------------------------------
# Targets: where each layer's calls are looked up
# -----------------------------------------------------------------------------

# 2*m*n*k per product, from the operand shapes of each kernel
KERNEL_FLOPS = {
    "matmul": lambda a, b: 2 * a.shape[0] * a.shape[1] * b.shape[1],
    "matmul_nt": lambda a, b: 2 * a.shape[0] * a.shape[1] * b.shape[0],
    "matmul_tn": lambda a, b: 2 * a.shape[1] * a.shape[0] * b.shape[1],
    "bmm_nt": lambda a, b: 2 * a.size * b.shape[2],
    "bmm_nn": lambda a, b: 2 * a.size * b.shape[3],
    "bmm_tn": lambda a, b: 2 * a.size * b.shape[3],
}
MODEL_KERNELS = ("matmul", "matmul_nt", "matmul_tn", "bmm_nt", "bmm_nn", "bmm_tn")
MOE_KERNELS = ("matmul", "matmul_nt", "matmul_tn")


def _kernel_extra(kind):
    flops = KERNEL_FLOPS[kind]
    return lambda args, kwargs, result: flops(args[0], args[1])


def _lm_loss_name(args, kwargs):
    want_grads = kwargs.get("want_grads", args[2] if len(args) > 2 else True)
    return "model.head_loss" if want_grads else "model.lm_loss_eval"


def _lm_loss_extra(args, kwargs, result):
    return any(layout is not None for layout in args[0].moe)  # sparse step


def _smoe_ledger_flops(m, tokens: int) -> int:
    from ssdlab.flops import smoe_ffn_flops_per_token

    d_ff, d_model = m.weights.w_in.shape
    shape = SimpleNamespace(d_model=d_model, d_ff=d_ff)
    return tokens * smoe_ffn_flops_per_token(shape, m.num_experts, m.active_experts)


def _smoe_fwd_extra(args, kwargs, result):
    m, x = args[0], args[1]
    ledger = _smoe_ledger_flops(m, x.shape[0])
    if m.active_experts == m.num_experts:
        return (0, 0, ledger)  # a K=N continuity probe routes nothing
    selected = result[1].selected
    return (int(selected.sum()), int(selected.size), ledger)


def _smoe_bwd_extra(args, kwargs, result):
    m, d_y = args[0], args[2]
    # the ledger prices a backward pass at twice the forward
    return (0, 0, 2 * _smoe_ledger_flops(m, d_y.shape[0]))


def _cluster_extra(args, kwargs, result):
    warm_candidate = len(args) > 2 and args[2] is not None
    return (warm_candidate, warm_candidate and result.init_kind == "warm-start")


def _save_extra(args, kwargs, result):
    return os.path.getsize(args[1])


def default_targets() -> list:
    """(module, attribute, span name, extra) for every traced call site."""
    from ssdlab import checkpoint, data, model, moe, scheduler, training

    targets = [(model, k, "numerics.kernel", _kernel_extra(k)) for k in MODEL_KERNELS]
    targets += [(moe, k, "numerics.kernel", _kernel_extra(k)) for k in MOE_KERNELS]
    targets += [
        (training, "adam_step", "numerics.adam_step", None),
        (training, "lm_loss", _lm_loss_name, _lm_loss_extra),
        (model, "attention_forward", "model.attention_fwd", None),
        (model, "attention_backward", "model.attention_bwd", None),
        (model, "ffn_forward", "model.ffn_fwd", None),
        (model, "ffn_backward", "model.ffn_bwd", None),
        (moe, "smoe_forward", "moe.smoe_fwd", _smoe_fwd_extra),
        (moe, "smoe_backward", "moe.smoe_bwd", _smoe_bwd_extra),
        (moe, "compute_centroids", "moe.compute_centroids", None),
        (moe, "dynamic_topk", "moe.dynamic_topk", None),
        (scheduler, "cluster_with_warmstart", "clustering.cluster", _cluster_extra),
        (training, "monitor_similarity", "scheduler.monitor", None),
        (training, "transition_dense_to_sparse", "scheduler.transition", None),
        (training, "transition_sparse_to_dense", "scheduler.transition", None),
        (training, "save_checkpoint", "checkpoint.save", _save_extra),
        (checkpoint, "load_checkpoint", "checkpoint.load", None),
        (training, "sample_batch", "data.sample_batch", None),
        (data, "tokenize_corpus", "data.tokenize_corpus", None),
        (training, "eval_perplexity", "training.eval_perplexity", None),
        (training, "moefy_checkpoint", "training.moefy", None),
    ]
    return targets


# -----------------------------------------------------------------------------
# Per-layer metrics from one traced run
# -----------------------------------------------------------------------------

SELF_TIME_SPANS = (
    "numerics.adam_step", "model.attention_fwd", "model.attention_bwd",
    "model.ffn_fwd", "model.ffn_bwd", "model.head_loss", "model.lm_loss_eval",
    "moe.smoe_fwd", "moe.smoe_bwd", "moe.dynamic_topk", "clustering.cluster",
    "scheduler.monitor", "scheduler.transition", "checkpoint.save",
    "checkpoint.load", "data.sample_batch", "data.tokenize_corpus",
    "training.eval_perplexity", "training.moefy",
)
CALL_COUNT_SPANS = ("moe.compute_centroids", "clustering.cluster", "scheduler.monitor",
                    "scheduler.transition", "checkpoint.save")
SMOE_SPANS = ("moe.smoe_fwd", "moe.smoe_bwd")


def _ratio(num, den) -> float:
    """num / den, or 0 when the base is empty (the layer was not used)."""
    return num / den if den else 0.0


def _under_smoe(spans, index) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in SMOE_SPANS:
            return True
        parent = spans[parent].parent
    return False


def step_times_ms(spans: list) -> dict:
    """Per-step lm_loss + adam_step durations, split by the step's phase."""
    steps = {"dense": [], "sparse": []}
    top = [s for s in spans if s.parent < 0]
    for loss, adam in zip(top, top[1:]):
        if loss.name == "model.head_loss" and adam.name == "numerics.adam_step":
            phase = "sparse" if loss.extra else "dense"
            steps[phase].append(1e3 * ((loss.end - loss.start) + (adam.end - adam.start)))
    return steps


def layer_metrics(spans: list, timed_start: float, timed_end: float) -> dict:
    """Per-layer totals, counts and ratios of one traced run.

    Spans before timed_start belong to set-up; only data.tokenize_corpus is
    reported from there. training.residual.s is the timed wall time that no
    top-level span covers. The moe pair counts leave out K=N continuity
    probes, which route nothing.
    """
    seconds, calls, sums = defaultdict(float), Counter(), Counter()
    top_level = 0.0
    for i, (span, self_s) in enumerate(zip(spans, self_times(spans))):
        name = span.name
        if span.start < timed_start:
            if name != "data.tokenize_corpus":
                continue
        elif span.parent < 0:
            top_level += span.end - span.start
        seconds[name] += self_s
        calls[name] += 1
        if name == "numerics.kernel":
            sums["kernel_flops"] += span.extra
            if _under_smoe(spans, i):
                sums["smoe_kernel_flops"] += span.extra
        elif name in SMOE_SPANS:
            sums["selected"] += span.extra[0]
            sums["candidates"] += span.extra[1]
            sums["ledger_flops"] += span.extra[2]
        elif name == "clustering.cluster":
            sums["warm_candidates"] += span.extra[0]
            sums["warm_chosen"] += span.extra[1]
        elif name == "checkpoint.save":
            sums["save_bytes"] += span.extra
    timed_s = timed_end - timed_start
    steps = step_times_ms([s for s in spans if s.start >= timed_start])
    dense_ms = statistics.median(steps["dense"]) if steps["dense"] else 0.0
    sparse_ms = statistics.median(steps["sparse"]) if steps["sparse"] else 0.0
    kernel_s = seconds["numerics.kernel"]
    out = {
        "numerics.kernel.calls": calls["numerics.kernel"],
        "numerics.kernel.s": kernel_s,
        "numerics.kernel.gflop": sums["kernel_flops"] / 1e9,
        "numerics.kernel.gflop_per_s": _ratio(sums["kernel_flops"] / 1e9, kernel_s),
        "numerics.kernel.share": _ratio(kernel_s, timed_s),
        "moe.selected_pairs": sums["selected"],
        "moe.candidate_pairs": sums["candidates"],
        "moe.selected_pair_ratio": _ratio(sums["selected"], sums["candidates"]),
        "moe.kernel_gflop": sums["smoe_kernel_flops"] / 1e9,
        "moe.ledger_gflop": sums["ledger_flops"] / 1e9,
        "moe.kernel_gflop_over_ledger": _ratio(sums["smoe_kernel_flops"], sums["ledger_flops"]),
        "clustering.warm_candidates": sums["warm_candidates"],
        "clustering.warm_start_chosen": sums["warm_chosen"],
        "clustering.warm_start_chosen_ratio": _ratio(sums["warm_chosen"],
                                                     sums["warm_candidates"]),
        "checkpoint.save.bytes": sums["save_bytes"],
        "training.step_dense_ms": dense_ms,
        "training.step_dense.samples": len(steps["dense"]),
        "training.step_sparse_ms": sparse_ms,
        "training.step_sparse.samples": len(steps["sparse"]),
        "training.sparse_over_dense": _ratio(sparse_ms, dense_ms),
        "training.residual.s": timed_s - top_level,
        "trace.timed_s": timed_s,
    }
    out.update({f"{name}.calls": calls[name] for name in CALL_COUNT_SPANS})
    out.update({f"{name}.s": seconds[name] for name in SELF_TIME_SPANS})
    return out
