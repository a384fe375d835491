"""Balanced k-means over feed-forward input-weight rows, WCSS scoring, the
Adjusted Rand Index between two partitions, and the warm-start-vs-random
selection used at every similarity monitor.

Each monitor clusters the rows of the (d_ff, d_model) input matrix into N
equal-size groups. It runs the pipeline twice, once from random seeds and
once initialized from the previous monitor's result, and keeps whichever
scores the lower within-cluster sum of squares. A dense-to-sparse conversion
reuses the grouping of the monitor that fired it.

The balanced assignment is a greedy fill plus pairwise-swap refinement, a
deterministic stand-in for an exact assignment solver. The swap search reads
gain[i, c] = d(i, c) - d(i, own cluster) through (N, N) tables of each
cluster's least gain towards every other cluster and the point attaining it:
the best swap between clusters a and b pairs a's best mover towards b with
b's best mover towards a. A swap changes two clusters' members, so only
their two rows of the tables are recomputed. Among equally good swaps it
takes the lowest point index, then that point's lowest partner, so the
result is the one a search over all n×n point pairs in index order returns.

Lloyd, the greedy fill and the swap search read their distances through one
screen (_Screen): a BLAS product gives approx = ‖x‖² + ‖c‖² − 2·x·c for
every (point, cluster) pair, with a certified bound err such that the exact
distance, the subtract-square-sum of the pair's rows, lies in
[approx − err, approx + err]. Each consumer computes exactly only the pairs
the bounds cannot settle:
- Lloyd's argmin: the clusters whose lower bound reaches the point's least
  upper bound.
- The greedy fill's order: pairs sorted by approx form chains wherever the
  bounds overlap across a position; only chains of two or more pairs are
  computed and re-sorted by (exact distance, flat index).
- The swap search's least gains: the members whose lower gain bound reaches
  the cluster's least upper gain bound; own-cluster distances are exact.
Rounding is monotone, so every argmin, order, minimum and tie-break is the
one the full exact table gives, and partitions are bit for bit those of a
search over that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

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


def adjusted_rand_index(a: Partition, b: Partition) -> float:
    """Hubert-Arabie ARI from the contingency table of the two labelings: 1
    for identical groupings, about 0 for unrelated ones, -0.5 the floor for
    balanced ones."""
    la = np.asarray(a.assignment)
    lb = np.asarray(b.assignment)
    if la.shape != lb.shape:
        raise ValueError("partitions must have equal length")
    n = la.size
    if n < 2:
        raise ValueError("ARI needs at least 2 elements")
    contingency = np.zeros((la.max() + 1, lb.max() + 1), dtype=np.int64)
    np.add.at(contingency, (la, lb), 1)
    sum_cells = sum(comb(int(c), 2) for c in contingency.reshape(-1))
    sum_a = sum(comb(int(c), 2) for c in contingency.sum(axis=1))
    sum_b = sum(comb(int(c), 2) for c in contingency.sum(axis=0))
    expected = sum_a * sum_b / comb(n, 2)
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0.0:
        # both partitions trivial (all-singleton or single-cluster): identical
        return 1.0
    return (sum_cells - expected) / denom


class _Screen:
    """The certified screen and the exact routine that Lloyd, the greedy fill
    and the swap search share, over one set of points.

    bound(centroids) fills three (n, k) tables from one product:
    approx = ‖x‖² + ‖c‖² − 2·X·Cᵀ, and lower = approx − err and
    upper = approx + err, with

        err = γ·(‖x‖² + ‖c‖²) + τ,   γ = 4(dim+4)·eps,   τ = 4(dim+4)·subnormal.

    With u = eps/2, the product's dot products and norms are off by about
    dim·u times ‖x‖‖c‖, ‖x‖² and ‖c‖² (any summation order, with or without
    FMA), its two additions by about 2u·(‖x‖+‖c‖)², and the exact routine by
    about (dim+2)·u·(‖x‖+‖c‖)². As (‖x‖+‖c‖)² ≤ 2(‖x‖² + ‖c‖²), γ's term is
    twice their sum; the spare half absorbs the rounding of err and
    approx ± err. Each product or square that underflows loses at most half a
    subnormal; a pair has 4·dim of them (the product's counted twice for the
    −2), which τ covers. So every exact distance lies in [lower, upper].

    exact(point_idx, cluster_idx) computes the given pairs' distances: gather,
    subtract, square and sum each contiguous row, which is bit for bit
    ((x - c) ** 2).sum() for every pair. Its result is a view of a buffer
    that the next call overwrites.

    The buffers live as long as the screen, one balanced_kmeans call.
    Requires C-contiguous finite points whose squared distances cannot
    overflow, as balanced_kmeans checks.
    """

    def __init__(self, points, k):
        n, dim = points.shape
        self.points = points
        self.point_sq = np.einsum("ij,ij->i", points, points)
        self.gamma = 4.0 * (dim + 4) * _EPS
        self.floor = 4.0 * (dim + 4) * _SUBNORMAL
        self.approx, self.lower, self.upper = (np.empty((n, k)) for _ in range(3))
        # exact() gathers at most n pairs' rows at a time
        self._point_rows, self._centroid_rows = np.empty((n, dim)), np.empty((n, dim))
        self._exact = np.empty(n)
        self.centroids = None

    def bound(self, centroids):
        """Screen every (point, centroid) pair; returns (approx, lower, upper)."""
        self.centroids = centroids
        # err lives in lower's buffer until lower is written, last
        approx, err, upper = self.approx, self.lower, self.upper
        np.add.outer(self.point_sq, np.einsum("ij,ij->i", centroids, centroids), out=err)
        np.matmul(self.points, centroids.T, out=approx)
        approx *= -2.0
        approx += err
        err *= self.gamma
        err += self.floor
        np.add(approx, err, out=upper)
        np.subtract(approx, err, out=self.lower)
        return approx, self.lower, upper

    def exact(self, point_idx, cluster_idx):
        """Exact squared distances of the pairs (point_idx[t], cluster_idx[t])
        to the bound centroids."""
        m = point_idx.size
        if m > self._exact.size:
            self._exact = np.empty(m)
        out = self._exact[:m]
        chunk = self._point_rows.shape[0]
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            # indices are in range; mode="clip" lets take write to out unbuffered
            diff = np.take(self.points, point_idx[start:stop], axis=0,
                           out=self._point_rows[:stop - start], mode="clip")
            np.subtract(diff, np.take(self.centroids, cluster_idx[start:stop], axis=0,
                                      out=self._centroid_rows[:stop - start], mode="clip"),
                        out=diff)
            np.multiply(diff, diff, out=diff)
            np.sum(diff, axis=1, out=out[start:stop])
        return out


def _lloyd(screen, centroids):
    """Plain Lloyd iterations; empty clusters keep their previous centroid.

    Returns (assignment, centroids, objective_history) where the objective is
    the assignment cost against the centroids of each round.

    A cluster can hold a point's exact minimum only if its lower bound is at
    most the least upper bound over the point's clusters. Those candidates,
    every minimizer and every tie included, are computed exactly and the rest
    read +inf, so the first argmin of that table, the history and the
    centroids are those of the full exact table.
    """
    n = screen.points.shape[0]
    k = centroids.shape[0]
    rows = np.arange(n)
    assign = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(MAX_LLOYD_ITERS):
        table, lower, upper = screen.bound(centroids)
        least_upper = upper.min(axis=1)
        cand_point, cand_cluster = np.divmod(
            np.flatnonzero(lower <= least_upper[:, None]), k)
        table.fill(np.inf)
        table[cand_point, cand_cluster] = screen.exact(cand_point, cand_cluster)
        new_assign = table.argmin(axis=1)  # ties -> lower cluster index
        history.append(float(table[rows, new_assign].sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        _update_means(screen.points, assign, centroids)
    return assign, centroids, history


def _greedy_balanced(screen, centroids, capacity):
    """Capacity-constrained assignment: all (point, cluster) pairs ascending by
    (distance, point index, cluster index), each placing its point if the
    point is still unplaced and the cluster has room.

    The pairs are sorted by approx. Between positions s-1 and s that order
    is already the exact one if the largest upper bound before s is below the
    least lower bound from s on (from s on, not at s alone: a pair with a
    wider bound may sort later and still fall below a pair before s). The
    positions between two such breaks form a chain. Only chains of two or
    more pairs are computed exactly, and each is re-sorted by (exact
    distance, flat index), which gives the order of a stable sort of the full
    exact table.

    How the sort orders equal approx keys does not matter, so it need not be
    stable. A pair's err is more than an ulp of its approx (γ·(‖x‖² + ‖c‖²)
    is at least 10·eps·|approx|, and τ at least 20 subnormals), so two pairs
    with equal approx a have upper > a > lower and no break falls between
    them: they always share a chain. A break can only fall between a smaller
    and a larger key, where the pairs before it are the same set in any tie
    order; so the chains are the same sets, each re-sorted by a total order.
    """
    n, k = screen.points.shape[0], centroids.shape[0]
    approx, lower, upper = screen.bound(centroids)
    order = np.argsort(approx.reshape(-1))
    upper_before = upper.reshape(-1)[order[:-1]]
    lower_from = lower.reshape(-1)[order[:0:-1]]
    np.maximum.accumulate(upper_before, out=upper_before)
    np.minimum.accumulate(lower_from, out=lower_from)
    joined = upper_before >= lower_from[::-1]  # joined[s-1]: no break before s
    joined_left = np.concatenate(([False], joined))
    in_chain = np.flatnonzero(joined_left | np.concatenate((joined, [False])))
    chain = np.cumsum(~joined_left[in_chain])
    flat = order[in_chain]
    dist = screen.exact(*np.divmod(flat, k))
    order[in_chain] = flat[np.lexsort((flat, dist, chain))]
    pts, cls = np.divmod(order, k)
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


def _best_moves(screen, clusters, members, own):
    """(best, mover) for the clusters listed: best[r, b] is the least gain,
    exact d(i, b) - own[i], over the members i of cluster clusters[r] (row r
    of members, ascending), and mover[r, b] the lowest member attaining it.
    Moves into a point's own cluster read +inf.

    Rounding is monotone, so each gain lies between the same subtraction on
    the screen's lower and upper bounds. Only members whose lower gain bound
    is at most the least upper gain bound can attain or tie the minimum; they
    are computed exactly and the rest read +inf.
    """
    m = members.shape[0]
    own_members = own[members][:, :, None]
    lower = screen.lower[members] - own_members  # lower[r, t, b]
    gain = screen.upper[members] - own_members
    least_upper = gain.min(axis=1)
    lower[np.arange(m), :, clusters] = np.inf
    r, t, b = np.nonzero(lower <= least_upper[:, None, :])
    gain.fill(np.inf)
    point = members[r, t]
    gain[r, t, b] = screen.exact(point, b) - own[point]
    first = gain.argmin(axis=1)[:, None, :]  # the first minimum: the lowest member
    return (np.take_along_axis(gain, first, axis=1)[:, 0],
            np.take_along_axis(members, first[:, 0], axis=1))


def _swap_refine(screen, centroids, assign):
    """Pairwise swaps while any swap lowers the cost against fixed centroids.

    Swapping point i (cluster a) with point j (cluster b) changes the cost by
    gain[i, b] + gain[j, a], where gain[i, c] = d(i, c) - d(i, a). The best
    swap between a and b therefore pairs a's best mover towards b with b's
    best mover towards a, so each swap is found from the (N, N) tables of
    per-cluster least gains and their movers (_best_moves), not from an
    n×n delta matrix. Every point's distance to its own cluster is exact.

    A swap changes the members of a and b only, so only rows a and b of the
    tables are recomputed; i and j get their new own distances exactly.

    Ties go to the lowest point index i among all minimal swaps, then to i's
    lowest partner j: the row-major first minimum of the n×n delta matrix.

    Returns the number of swaps applied.
    """
    screen.bound(centroids)
    n, k = assign.size, centroids.shape[0]
    own = screen.exact(np.arange(n), assign).copy()
    members = np.argsort(assign, kind="stable").reshape(k, n // k)
    best, mover = _best_moves(screen, np.arange(k), members, own)
    applied = 0
    for _ in range(MAX_SWAP_PASSES):
        delta = best + best.T  # delta[a, b]: best swap between a and b
        np.fill_diagonal(delta, np.inf)
        lowest = delta.min()
        if lowest >= -SWAP_IMPROVEMENT_TOL:
            break
        tied = delta == lowest  # symmetric, so mover[tied] holds both sides
        i = mover[tied].min()
        j = mover.T[tied & (mover == i)].min()
        pair = np.array([assign[i], assign[j]])
        assign[i], assign[j] = pair[1], pair[0]
        own[[i, j]] = screen.exact(np.array([i, j]), pair[::-1])
        for c, old, new in zip(pair.tolist(), (i, j), (j, i)):
            row = members[c]
            row[row == old] = new
            row.sort()
        best[pair], mover[pair] = _best_moves(screen, pair, members[pair], own)
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


def _balanced_local_search(screen, assign):
    """Alternate (recompute means, improving swaps) to a joint fixed point.

    Every swap strictly lowers the cost against current means and means-updates
    never raise it, so this terminates; the output is swap-stable against its
    own cluster means. That stability is what makes a warm-start rerun on
    unchanged points reproduce its seed partition exactly.
    """
    k = int(assign.max()) + 1
    for _ in range(MAX_SWAP_PASSES):
        means = partition_means(screen.points, Partition(assign, k))
        if _swap_refine(screen, means, assign) == 0:
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
    if init is not None:
        if init.assignment.size != n or init.num_clusters != num_clusters:
            raise ValueError("init partition inconsistent with points/num_clusters")
        init.validate_balanced()
    history = []
    if n <= EXACT_ENUMERATION_MAX:
        assign = _exact_balanced(points, num_clusters)
    else:
        screen = _Screen(points, num_clusters)
        if init is None:
            if rng is None:
                raise ValueError("random initialization requires rng")
            seeds = rng.choice(n, size=num_clusters, replace=False)
            centroids = points[np.sort(seeds)].copy()
            assign, centroids, history = _lloyd(screen, centroids)
            assign = _greedy_balanced(screen, centroids, n // num_clusters)
        else:
            assign = init.assignment.copy()
        assign = _balanced_local_search(screen, assign)
    partition = Partition(assign, num_clusters)
    partition.validate_balanced()
    means = partition_means(points, partition)
    return ClusteringOutcome(
        partition=partition,
        centroids=means,
        wcss=_wcss_given_means(points, partition, means),
        init_kind="random" if init is None else "warm-start",
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
