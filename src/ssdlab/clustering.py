"""Balanced k-means over feed-forward input-weight rows, WCSS scoring, and the
warm-start-vs-random selection used at every similarity monitor.

Each monitor clusters the rows of the (d_ff, d_model) input matrix into N
equal-size groups. It runs the pipeline twice, once from random seeds and
once initialized from the previous monitor's result, and keeps whichever
scores the lower within-cluster sum of squares. A dense-to-sparse conversion
reuses the grouping of the monitor that fired it.

The balanced assignment is a greedy fill plus pairwise-swap refinement, a
deterministic stand-in for an exact assignment solver. The swap search reads
an O(n·N) table, gain[i, c] = d(i, c) - d(i, own cluster), laid out by
cluster: the best swap between clusters a and b pairs a's lowest gain
towards b with b's lowest gain towards a. Among equally good swaps it takes
the lowest point index, then that point's lowest partner, so the result is
the one a search over all n×n point pairs in index order returns.

Lloyd's assignment step makes one BLAS product per iteration and still
returns the argmin of the exact distance table, ties to the lowest cluster
index. The product screens: approx = ‖x‖² + ‖c‖² − 2·x·c. Rounding in the
product and in the exact routine moves each distance by at most
γ·(‖x‖+‖c‖)² ≤ 2γ·(‖x‖² + ‖c‖²), γ a small multiple of dim·eps, plus a few
multiples of the smallest subnormal per coordinate where products
underflow. A cluster can only hold a point's exact minimum if its lower
bound, approx − err, is at most the least upper bound, min(approx + err),
over the point's clusters; only those candidates are recomputed exactly, with
the arithmetic of the full table, so the argmin, the history and the
centroids are the ones the full table gives.
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
_EPS = np.finfo(np.float64).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


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


@dataclass
class ClusteringOutcome:
    partition: Partition
    centroids: np.ndarray  # (num_clusters, dim), means of assigned rows
    wcss: float
    init_kind: str  # "random" or "warm-start"
    lloyd_wcss_history: list = field(default_factory=list)
    candidate_wcss: dict = field(default_factory=dict)


def partition_means(points: np.ndarray, p: Partition) -> np.ndarray:
    empty = np.flatnonzero(np.bincount(p.assignment, minlength=p.num_clusters)
                           [:p.num_clusters] == 0)
    if empty.size:
        raise ValueError(f"cluster {empty[0]} is empty")
    means = np.empty((p.num_clusters, points.shape[1]))
    _update_means(points, p.assignment, means)
    return means


def _update_means(points, assign, means):
    """means[c] = points[assign == c].mean(axis=0), bit for bit, for every
    non-empty cluster c < len(means); the others keep their row.

    For C-contiguous points, a stable sort by cluster lays out each cluster's
    rows in index order as one C-contiguous block, shaped and strided as the
    boolean gather's copy, so each block sums the same way; one sort replaces
    a mask and a gather per cluster.
    """
    k = means.shape[0]
    grouped = points[np.argsort(assign, kind="stable")]
    start = 0
    for c, count in enumerate(np.bincount(assign, minlength=k)[:k].tolist()):
        if count:
            np.add.reduce(grouped[start:start + count], axis=0, out=means[c])
            means[c] /= count
        start += count


def wcss(points: np.ndarray, p: Partition) -> float:
    """Sum over clusters of squared deviations from the within-cluster mean."""
    if p.assignment.size != points.shape[0]:
        raise ValueError("partition does not cover all rows")
    return _wcss_given_means(points, p, partition_means(points, p))


def _wcss_given_means(points, p: Partition, means) -> float:
    diffs = points - means[p.assignment]
    return float((diffs * diffs).sum())


def _sq_dists(points, centroids):
    """(n_points, n_clusters) squared euclidean distances.

    One cluster at a time through one reused (n_points, dim) buffer, so no
    (n_points, n_clusters, dim) temporary is built; each row still sums its
    own contiguous squared differences, in the order
    ((points - c) ** 2).sum(axis=1) would. The result is a transposed view of
    a cluster-major array.
    """
    buf = np.empty_like(points)
    out = np.empty((centroids.shape[0], points.shape[0]))
    for c in range(centroids.shape[0]):
        np.subtract(points, centroids[c], out=buf)
        np.multiply(buf, buf, out=buf)
        np.sum(buf, axis=1, out=out[c])
    return out.T


def _lloyd(points, centroids, max_iters=MAX_LLOYD_ITERS):
    """Plain Lloyd iterations; empty clusters keep their previous centroid.

    Returns (assignment, centroids, objective_history) where the objective is
    the assignment cost against the centroids of each round.

    Each round screens every (point, cluster) pair with one product,
    approx = ‖x‖² + ‖c‖² − 2·X·Cᵀ, and bounds its distance from the value
    _sq_dists computes by

        err = γ·(‖x‖² + ‖c‖²) + τ,   γ = 4(dim+4)·eps,   τ = 4(dim+4)·subnormal.

    With u = eps/2, the product's dot products and norms are off by about
    dim·u times ‖x‖‖c‖, ‖x‖² and ‖c‖² (any summation order, with or without
    FMA), its two additions by about 2u·(‖x‖+‖c‖)², and _sq_dists by about
    (dim+2)·u·(‖x‖+‖c‖)². As (‖x‖+‖c‖)² ≤ 2(‖x‖² + ‖c‖²), γ's term is twice
    their sum; the spare half absorbs the rounding of err and approx ± err.
    Each product or square that underflows loses at most half a subnormal;
    a pair has 4·dim of them (the product's counted twice for the −2), which
    τ covers. So the exact distance lies in [approx − err, approx + err], and
    any cluster whose approx − err exceeds the point's least approx + err
    cannot attain the exact minimum. The remaining candidates, every
    minimizer and every tie included, are recomputed with _sq_dists'
    arithmetic (subtract, square, sum each contiguous row); the rest read
    +inf, so the first argmin of that table is the full table's, and so are
    the history and the centroids.

    Requires finite points whose squared distances cannot overflow, as
    balanced_kmeans checks.
    """
    n, dim = points.shape
    k = centroids.shape[0]
    rows = np.arange(n)
    gamma = 4.0 * (dim + 4) * _EPS
    floor = 4.0 * (dim + 4) * _SUBNORMAL
    point_sq = np.einsum("ij,ij->i", points, points)
    approx, err, table = np.empty((n, k)), np.empty((n, k)), np.empty((n, k))
    # gather buffers for the candidates' exact distances; at least one per
    # point, more only near ties
    point_rows, centroid_rows, exact = np.empty((n, dim)), np.empty((n, dim)), np.empty(n)
    assign = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(max_iters):
        np.add.outer(point_sq, np.einsum("ij,ij->i", centroids, centroids), out=err)
        np.matmul(points, centroids.T, out=approx)
        approx *= -2.0
        approx += err
        err *= gamma
        err += floor
        np.add(approx, err, out=table)
        upper = table.min(axis=1)
        np.subtract(approx, err, out=table)
        cand_point, cand_cluster = np.divmod(np.flatnonzero(table <= upper[:, None]), k)
        m = cand_point.size
        if m > exact.size:
            point_rows, centroid_rows, exact = (np.empty((m, dim)), np.empty((m, dim)),
                                                np.empty(m))
        # indices are in range; mode="clip" lets take write to out unbuffered
        diff = np.take(points, cand_point, axis=0, out=point_rows[:m], mode="clip")
        np.subtract(diff, np.take(centroids, cand_cluster, axis=0,
                                  out=centroid_rows[:m], mode="clip"), out=diff)
        np.multiply(diff, diff, out=diff)
        table.fill(np.inf)
        table[cand_point, cand_cluster] = np.sum(diff, axis=1, out=exact[:m])
        new_assign = table.argmin(axis=1)  # ties -> lower cluster index
        history.append(float(table[rows, new_assign].sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        _update_means(points, assign, centroids)
    return assign, centroids, history


def _greedy_balanced(points, centroids, capacity):
    """Capacity-constrained assignment: all (point, cluster) pairs ascending by
    (distance, point index, cluster index), each placing its point if the
    point is still unplaced and the cluster has room."""
    n, k = points.shape[0], centroids.shape[0]
    dist = _sq_dists(points, centroids)
    # a stable sort keeps equal distances in flat-index order, which is
    # (point, cluster) order
    pts, cls = np.divmod(np.argsort(dist.reshape(-1), kind="stable"), k)
    assign = [-1] * n
    remaining = [capacity] * k
    placed = 0
    for i, c in zip(pts.tolist(), cls.tolist()):
        if assign[i] < 0 and remaining[c] > 0:
            assign[i] = c
            remaining[c] -= 1
            placed += 1
            if placed == n:
                break
    return np.array(assign, dtype=np.int64)


def _swap_refine(assign, dist):
    """Pairwise swaps while any swap lowers the fixed-centroid cost.

    Swapping point i (cluster a) with point j (cluster b) changes the cost by
    gain[i, b] + gain[j, a], where gain[i, c] = dist[i, c] - dist[i, a]. The
    best swap between a and b therefore pairs a's best mover towards b with
    b's best mover towards a, so each swap is found from an (N, N) table of
    per-cluster minima of gain, O(n·N) work, not from an n×n delta matrix.
    Clusters are balanced, so sorting points by cluster lays gain out as an
    (N, n/N, N) array whose axis 1 holds each cluster's members.

    Ties go to the lowest point index i among all minimal swaps, then to i's
    lowest partner j: the row-major first minimum of the n×n delta matrix.

    Returns the number of swaps applied.
    """
    n, k = dist.shape
    rows = np.arange(n)
    applied = 0
    for _ in range(MAX_SWAP_PASSES):
        gain = dist - dist[rows, assign][:, None]
        members = np.argsort(assign, kind="stable").reshape(k, n // k)
        table = gain[members]  # table[a, r, b]: a's r-th member moving to b
        best = table.min(axis=1)
        # argmin takes the first minimum: the lowest member index
        mover = np.take_along_axis(members, table.argmin(axis=1), axis=1)
        delta = best + best.T  # delta[a, b]: best swap between a and b
        np.fill_diagonal(delta, np.inf)
        lowest = delta.min()
        if lowest >= -SWAP_IMPROVEMENT_TOL:
            break
        tied = delta == lowest  # symmetric, so mover[tied] holds both sides
        i = mover[tied].min()
        j = mover.T[tied & (mover == i)].min()
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
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if num_clusters > n:
        raise ValueError(f"num_clusters {num_clusters} > rows {n}")
    if n % num_clusters != 0:
        raise ValueError(f"rows {n} not divisible by num_clusters {num_clusters}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain NaN or inf")
    # a squared distance is at most 4·max‖x‖² and the costs sum n of them;
    # twice that covers swap deltas and the bounds of Lloyd's screen
    with np.errstate(over="ignore"):
        largest = 8.0 * n * np.einsum("ij,ij->i", points, points).max()
    if not np.isfinite(largest):
        raise ValueError("points too large: squared distances overflow float64")
    if n <= EXACT_ENUMERATION_MAX:
        if init is not None:
            init.validate_balanced()
        assign = _exact_balanced(points, num_clusters)
        partition = Partition(assign, num_clusters)
        means = partition_means(points, partition)
        return ClusteringOutcome(
            partition=partition,
            centroids=means,
            wcss=_wcss_given_means(points, partition, means),
            init_kind="random" if init is None else "warm-start",
        )
    if init is None:
        if rng is None:
            raise ValueError("random initialization requires rng")
        seeds = rng.choice(n, size=num_clusters, replace=False)
        centroids = points[np.sort(seeds)].copy()
        assign, centroids, history = _lloyd(points, centroids)
        assign = _greedy_balanced(points, centroids, n // num_clusters)
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
    means = partition_means(points, partition)
    return ClusteringOutcome(
        partition=partition,
        centroids=means,
        wcss=_wcss_given_means(points, partition, means),
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
