"""Balanced k-means over feed-forward input-weight rows, WCSS scoring, and the
warm-start-vs-random selection used at every dense-to-sparse conversion.

Each conversion clusters the rows of the (d_ff, d_model) input matrix into N
equal-size groups. A conversion runs the pipeline twice, once from random
seeds and once initialized from the previous conversion's result, and keeps
whichever scores the lower within-cluster sum of squares.

The balanced assignment is a greedy fill plus pairwise-swap refinement, a
deterministic stand-in for an exact assignment solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

MAX_LLOYD_ITERS = 100
MAX_SWAP_PASSES = 10_000  # safety bound; strict improvement terminates long before
SWAP_IMPROVEMENT_TOL = 1e-12
EXACT_ENUMERATION_MAX = 10  # solve tiny instances exactly; pairwise swaps alone
                            # can strand pairing-size clusters in poor optima


@dataclass
class Partition:
    """Assignment of each row to one of num_clusters equal-size groups."""

    assignment: np.ndarray  # (n_points,) int64 in [0, num_clusters)
    num_clusters: int

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)

    def validate_balanced(self):
        n = self.assignment.size
        if n % self.num_clusters != 0:
            raise ValueError(f"{n} points not divisible by {self.num_clusters} clusters")
        counts = np.bincount(self.assignment, minlength=self.num_clusters)
        if counts.size > self.num_clusters or not np.all(counts == n // self.num_clusters):
            raise ValueError(f"partition is not balanced: counts {counts.tolist()}")

    def cluster_members(self, c: int) -> np.ndarray:
        """Member rows of cluster c in ascending original index order."""
        return np.flatnonzero(self.assignment == c)

    def copy(self) -> "Partition":
        return Partition(self.assignment.copy(), self.num_clusters)


@dataclass
class ClusteringOutcome:
    partition: Partition
    centroids: np.ndarray  # (num_clusters, dim), means of assigned rows
    wcss: float
    init_kind: str  # "random" or "warm-start"
    lloyd_wcss_history: list = field(default_factory=list)
    candidate_wcss: dict = field(default_factory=dict)


def partition_means(points: np.ndarray, p: Partition) -> np.ndarray:
    means = np.empty((p.num_clusters, points.shape[1]))
    for c in range(p.num_clusters):
        members = p.cluster_members(c)
        if members.size == 0:
            raise ValueError(f"cluster {c} is empty")
        means[c] = points[members].mean(axis=0)
    return means


def wcss(points: np.ndarray, p: Partition) -> float:
    """Sum over clusters of squared deviations from the within-cluster mean."""
    if p.assignment.size != points.shape[0]:
        raise ValueError("partition does not cover all rows")
    means = partition_means(points, p)
    diffs = points - means[p.assignment]
    return float((diffs * diffs).sum())


def _sq_dists(points, centroids):
    """(n_points, n_clusters) squared euclidean distances.

    One cluster at a time, so no (n_points, n_clusters, dim) temporary is
    built; each row still sums its own contiguous squared differences.
    """
    out = np.empty((points.shape[0], centroids.shape[0]))
    for c in range(centroids.shape[0]):
        d = points - centroids[c]
        out[:, c] = (d * d).sum(axis=1)
    return out


def _lloyd(points, centroids, max_iters=MAX_LLOYD_ITERS):
    """Plain Lloyd iterations; empty clusters keep their previous centroid.

    Returns (assignment, centroids, objective_history) where the objective is
    the assignment cost against the centroids of each round.
    """
    n = points.shape[0]
    assign = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(max_iters):
        dist = _sq_dists(points, centroids)
        new_assign = dist.argmin(axis=1)  # ties -> lower cluster index
        history.append(float(dist[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(centroids.shape[0]):
            members = assign == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
    return assign, centroids, history


def _greedy_balanced(points, centroids, capacity):
    """Capacity-constrained assignment: all (point, cluster) pairs ascending by
    (distance, point index, cluster index)."""
    n, k = points.shape[0], centroids.shape[0]
    dist = _sq_dists(points, centroids)
    pts, cls = np.divmod(np.arange(n * k), k)
    order = np.lexsort((cls, pts, dist.reshape(-1)))
    assign = np.full(n, -1, dtype=np.int64)
    remaining = np.full(k, capacity, dtype=np.int64)
    placed = 0
    for idx in order:
        i, c = pts[idx], cls[idx]
        if assign[i] < 0 and remaining[c] > 0:
            assign[i] = c
            remaining[c] -= 1
            placed += 1
            if placed == n:
                break
    return assign, dist


def _swap_refine(assign, dist):
    """Pairwise swaps while any swap lowers the fixed-centroid cost.

    Returns the number of swaps applied.
    """
    n = assign.size
    applied = 0
    for _ in range(MAX_SWAP_PASSES):
        cost_own = dist[np.arange(n), assign]
        cost_cross = dist[:, assign]  # cost_cross[i, j] = d(point i, cluster of j)
        delta = cost_cross + cost_cross.T - cost_own[:, None] - cost_own[None, :]
        delta[assign[:, None] == assign[None, :]] = 0.0
        best = np.unravel_index(np.argmin(delta), delta.shape)
        if delta[best] >= -SWAP_IMPROVEMENT_TOL:
            break
        i, j = best
        assign[i], assign[j] = assign[j], assign[i]
        applied += 1
    return applied


def _enumerate_balanced(n: int, k: int):
    """Canonical generator of all balanced assignments of n points into k
    groups (point 0 anchors group 0, the lowest unplaced point anchors each
    later group)."""
    size = n // k

    def rec(remaining, label, assignment):
        if not remaining:
            yield assignment.copy()
            return
        anchor = remaining[0]
        rest = remaining[1:]
        for combo in combinations(rest, size - 1):
            assignment[anchor] = label
            for i in combo:
                assignment[i] = label
            left = tuple(i for i in rest if i not in combo)
            yield from rec(left, label + 1, assignment)

    yield from rec(tuple(range(n)), 0, np.empty(n, dtype=np.int64))


def _exact_balanced(points, num_clusters):
    best_assign, best_score = None, np.inf
    for assignment in _enumerate_balanced(points.shape[0], num_clusters):
        score = wcss(points, Partition(assignment, num_clusters))
        if score < best_score:
            best_assign, best_score = assignment, score
    return best_assign


def _balanced_local_search(points, assign):
    """Alternate (recompute means, improving swaps) to a joint fixed point.

    Every swap strictly lowers the cost against current means and means-updates
    never raise it, so this terminates; the output is swap-stable against its
    own cluster means. That stability is what makes a warm-start rerun on
    unchanged points reproduce its seed partition exactly.
    """
    k = int(assign.max()) + 1
    for _ in range(MAX_SWAP_PASSES):
        means = partition_means(points, Partition(assign, k))
        dist = _sq_dists(points, means)
        if _swap_refine(assign, dist) == 0:
            break
    return assign


def balanced_kmeans(points: np.ndarray, num_clusters: int,
                    init: "Partition | None" = None,
                    rng: "np.random.Generator | None" = None) -> ClusteringOutcome:
    """Balanced k-means with exactly rows/num_clusters points per cluster.

    init=None: Lloyd from num_clusters distinct random rows, then a greedy
    capacity-constrained fill against Lloyd's centroids, then balanced local
    search. init=Partition: balanced local search seeded directly at the given
    assignment (the warm-start path; it deliberately skips free Lloyd, which
    would wander off the seed grouping even on unchanged points).

    Instances of at most EXACT_ENUMERATION_MAX rows are solved by exhaustive
    enumeration instead (exact, rng unused).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if num_clusters > n:
        raise ValueError(f"num_clusters {num_clusters} > rows {n}")
    if n % num_clusters != 0:
        raise ValueError(f"rows {n} not divisible by num_clusters {num_clusters}")
    if n <= EXACT_ENUMERATION_MAX:
        if init is not None:
            init.validate_balanced()
        assign = _exact_balanced(points, num_clusters)
        partition = Partition(assign, num_clusters)
        return ClusteringOutcome(
            partition=partition,
            centroids=partition_means(points, partition),
            wcss=wcss(points, partition),
            init_kind="random" if init is None else "warm-start",
        )
    if init is None:
        if rng is None:
            raise ValueError("random initialization requires rng")
        seeds = rng.choice(n, size=num_clusters, replace=False)
        centroids = points[np.sort(seeds)].copy()
        assign, centroids, history = _lloyd(points, centroids)
        assign, _ = _greedy_balanced(points, centroids, n // num_clusters)
        init_kind = "random"
    else:
        if init.assignment.size != n or init.num_clusters != num_clusters:
            raise ValueError("init partition inconsistent with points/num_clusters")
        init.validate_balanced()
        assign = init.assignment.copy()
        history = []
        init_kind = "warm-start"
    assign = _balanced_local_search(points, assign)
    partition = Partition(assign, num_clusters)
    partition.validate_balanced()
    final_centroids = partition_means(points, partition)
    return ClusteringOutcome(
        partition=partition,
        centroids=final_centroids,
        wcss=wcss(points, partition),
        init_kind=init_kind,
        lloyd_wcss_history=history,
    )


def cluster_with_warmstart(w_in: np.ndarray, num_clusters: int,
                           prev: "Partition | None",
                           rng: np.random.Generator) -> ClusteringOutcome:
    """Random-init run, plus a warm-start run when prev is given; keeps the
    strictly lower WCSS (ties go to the warm start).

    The random-init run draws from rng first and is the only consumer of it,
    so a no-prev call is stream-identical to a lone random run.
    """
    if prev is not None and prev.num_clusters != num_clusters:
        raise ValueError("prev partition has a different cluster count")
    random_outcome = balanced_kmeans(w_in, num_clusters, rng=rng)
    if prev is None:
        random_outcome.candidate_wcss = {"random": random_outcome.wcss}
        return random_outcome
    warm_outcome = balanced_kmeans(w_in, num_clusters, init=prev)
    candidates = {"random": random_outcome.wcss, "warm-start": warm_outcome.wcss}
    chosen = random_outcome if random_outcome.wcss < warm_outcome.wcss else warm_outcome
    chosen.candidate_wcss = candidates
    return chosen
