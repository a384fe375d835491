"""ssdlab: a desk-scale laboratory for switchable sparse-dense pre-training.

A small ReLU-FFN decoder-only language model is trained while alternating
between dense feed-forward computation and a sparsely-activated
mixture-of-experts form; every conversion, gating, clustering, and scheduling
rule is verifiable by construction.
"""

from ssdlab.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from ssdlab.clustering import (
    ClusteringOutcome,
    Partition,
    adjusted_rand_index,
    balanced_kmeans,
    cluster_with_warmstart,
    wcss,
)
from ssdlab.data import CorpusConfig, TokenizedCorpus, make_toy_corpus, tokenize_corpus
from ssdlab.flops import DenseMode, SmoeMode, flops_estimate, ssd_speedup
from ssdlab.metrics import MetricsRecord, export_metrics
from ssdlab.model import (
    GPT,
    FFNWeights,
    ModelConfig,
    activation_sparsity,
    ffn_backward,
    ffn_forward,
    lm_loss,
)
from ssdlab.moe import (
    GateDecision,
    MoEFFN,
    attach_experts,
    compute_centroids,
    dynamic_topk,
    smoe_backward,
    smoe_forward,
)
from ssdlab.numerics import (
    AdamState,
    adam_step,
    layernorm,
    layernorm_backward,
    make_rng,
    matmul,
    noam_lr,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from ssdlab.scheduler import (
    SchedulerState,
    SSDConfig,
    advance,
    on_monitor,
    pattern_similarity,
    transition_dense_to_sparse,
    transition_sparse_to_dense,
)
from ssdlab.training import (
    DenseTrain,
    OptimizerConfig,
    RunConfig,
    SmoeTrain,
    SsdTrain,
    eval_perplexity,
    moefy_checkpoint,
    train,
)

from ssdlab.numerics import _keep_freed_heap

__version__ = "0.1.0"

_keep_freed_heap()  # the package's one process-wide setting; see numerics
