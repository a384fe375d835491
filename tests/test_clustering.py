import itertools

import numpy as np
import pytest

from ssdlab import clustering
from ssdlab.clustering import (
    SWAP_IMPROVEMENT_TOL,
    Partition,
    _greedy_balanced,
    _lloyd,
    _Screen,
    _swap_refine,
    balanced_kmeans,
    cluster_with_warmstart,
    wcss,
)


def wcss_direct(points, assignment, k):
    """Direct-summation oracle for the within-cluster sum of squares."""
    total = 0.0
    for c in range(k):
        members = points[np.asarray(assignment) == c]
        mean = members.mean(axis=0)
        for row in members:
            for j in range(points.shape[1]):
                total += (row[j] - mean[j]) ** 2
    return total


def enumerate_balanced(n, k):
    """All balanced assignments of n points into k clusters (canonical labels)."""
    size = n // k
    def rec(remaining, groups):
        if not remaining:
            yield groups
            return
        first = remaining[0]
        rest = remaining[1:]
        for combo in itertools.combinations(rest, size - 1):
            group = (first,) + combo
            left = tuple(i for i in rest if i not in combo)
            yield from rec(left, groups + [group])
    for groups in rec(tuple(range(n)), []):
        assignment = np.empty(n, dtype=np.int64)
        for label, group in enumerate(groups):
            assignment[list(group)] = label
        yield assignment


def sq_dists_reference(points, centroids):
    """(n_points, n_clusters) squared euclidean distances, one cluster at a
    time; each row sums its own contiguous squared differences, in the order
    ((points - c) ** 2).sum(axis=1) would."""
    buf = np.empty_like(points)
    out = np.empty((centroids.shape[0], points.shape[0]))
    for c in range(centroids.shape[0]):
        np.subtract(points, centroids[c], out=buf)
        np.multiply(buf, buf, out=buf)
        np.sum(buf, axis=1, out=out[c])
    return out.T


def swap_refine_reference(assign, dist):
    """Pairwise swaps through the full n×n delta matrix; ties go to the
    row-major first minimum (lowest i, then lowest j)."""
    n = assign.size
    applied = 0
    for _ in range(clustering.MAX_SWAP_PASSES):
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


def swap_refine_gain_reference(assign, dist):
    """Pairwise swaps found from the full gain table's per-cluster minima,
    in the arithmetic of the screened search: gain[i, c] = dist[i, c] -
    dist[i, own cluster] and delta = gain[i, b] + gain[j, a]. Ties go to the
    lowest point index, then to its lowest partner."""
    n, k = dist.shape
    rows = np.arange(n)
    applied = 0
    for _ in range(clustering.MAX_SWAP_PASSES):
        gain = dist - dist[rows, assign][:, None]
        members = np.argsort(assign, kind="stable").reshape(k, n // k)
        table = gain[members]  # table[a, r, b]: a's r-th member moving to b
        best = table.min(axis=1)
        mover = np.take_along_axis(members, table.argmin(axis=1), axis=1)
        delta = best + best.T
        np.fill_diagonal(delta, np.inf)
        lowest = delta.min()
        if lowest >= -SWAP_IMPROVEMENT_TOL:
            break
        tied = delta == lowest
        i = mover[tied].min()
        j = mover.T[tied & (mover == i)].min()
        assign[i], assign[j] = assign[j], assign[i]
        applied += 1
    return applied


def local_search_reference(points, assign):
    """Alternate means and full-table swaps to a joint fixed point."""
    k = int(assign.max()) + 1
    for _ in range(clustering.MAX_SWAP_PASSES):
        means = clustering.partition_means(points, Partition(assign, k))
        if swap_refine_reference(assign, sq_dists_reference(points, means)) == 0:
            break
    return assign


def greedy_balanced_reference(points, centroids, capacity):
    """Greedy fill over all (point, cluster) pairs in lexicographic
    (distance, point, cluster) order, one numpy scalar at a time."""
    n, k = points.shape[0], centroids.shape[0]
    dist = sq_dists_reference(points, centroids)
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
    return assign


def lloyd_reference(points, centroids, max_iters=clustering.MAX_LLOYD_ITERS):
    """Lloyd iterations on the full exact distance table; ties go to the
    lowest cluster index and empty clusters keep their centroid."""
    n = points.shape[0]
    assign = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(max_iters):
        dist = sq_dists_reference(points, centroids)
        new_assign = dist.argmin(axis=1)
        history.append(float(dist[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(centroids.shape[0]):
            members = assign == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
    return assign, centroids, history


def integer_instances(count=240):
    """(points, centroids, balanced assignment) with small integer
    coordinates, so every distance and swap delta is exact and ties are
    common; some rows are exact duplicates, and cluster sizes run down to 2
    and cluster counts down to 1."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        k = int(rng.choice([1, 2, 3, 4, 6, 8]))
        size = int(rng.choice([2, 3, 4, 8]))
        n, dim = k * size, int(rng.integers(1, 4))
        points = rng.integers(-3, 4, (n, dim)).astype(np.float64)
        dup = rng.random(n) < 0.3
        points[dup] = points[rng.integers(0, n, int(dup.sum()))]
        centroids = rng.integers(-3, 4, (k, dim)).astype(np.float64)
        assign = rng.permutation(np.repeat(np.arange(k), size))
        yield points, centroids, assign


def near_tie_instances(count=60):
    """(points, centroids, balanced assignment) whose distances lie within a
    few ulps of each other, below the screen's error bound: points and
    centroids are a few rows, each moved by up to two ulps per coordinate,
    or the origin. The rows' scales run from 1e-3 to 1e8, so tight bounds of
    small rows sit next to loose bounds of large ones."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        k = int(rng.choice([2, 3, 4, 8]))
        size = int(rng.choice([2, 3, 4]))
        n, dim = k * size, int(rng.choice([1, 2, 5, 16]))
        rows = rng.standard_normal((3, dim)) * 10.0 ** rng.uniform(-3, 8, (3, 1))
        rows = np.vstack([rows, np.zeros(dim)])

        def nudged(m):
            out = rows[rng.integers(0, len(rows), m)]
            for _ in range(2):
                out = np.where(rng.random(out.shape) < 0.5, np.nextafter(out, np.inf), out)
            return out

        assign = rng.permutation(np.repeat(np.arange(k), size))
        yield nudged(n), nudged(k), assign


def separated_blobs(seed, k=8, per=8, dim=16, spread=5.0, noise=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim)) * spread
    return np.vstack([c + noise * rng.standard_normal((per, dim)) for c in centers])


class TestWcss:
    def test_two_points_one_cluster(self):
        pts = np.array([[0.0], [2.0]])
        assert wcss(pts, Partition([0, 0], 1)) == 2.0

    def test_identical_points(self):
        assert wcss(np.ones((4, 3)), Partition([0, 0, 1, 1], 2)) == 0.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((6, 2))
        p = Partition([0, 1, 2, 0, 1, 2], 3)
        assert abs(wcss(pts, p) - wcss_direct(pts, p.assignment, 3)) < 1e-12

    def test_partition_must_cover_rows(self):
        with pytest.raises(ValueError):
            wcss(np.zeros((4, 2)), Partition([0, 1], 2))


class TestSqDists:
    @pytest.mark.parametrize("n, k, dim", [(512, 32, 128), (64, 8, 32), (1, 4, 5),
                                           (7, 1, 3), (1, 1, 1)])
    def test_equals_broadcast_formula_bit_for_bit(self, n, k, dim):
        rng = np.random.default_rng(n * 1000 + k)
        points = rng.standard_normal((n, dim))
        centroids = rng.standard_normal((k, dim))
        d = points[:, None, :] - centroids[None, :, :]
        broadcast = (d * d).sum(axis=2)
        screen = _Screen(points, k)
        screen.bound(centroids)
        pts, cls = np.divmod(np.arange(n * k), k)
        exact = screen.exact(pts, cls).reshape(n, k)
        assert np.array_equal(exact.view(np.int64), broadcast.view(np.int64))
        assert np.array_equal(sq_dists_reference(points, centroids).view(np.int64),
                              broadcast.view(np.int64))


def swap_refine(points, centroids, assign):
    return _swap_refine(_Screen(points, centroids.shape[0]), centroids, assign)


def greedy_balanced(points, centroids, capacity):
    return _greedy_balanced(_Screen(points, centroids.shape[0]), centroids, capacity)


class TestSwapRefine:
    @staticmethod
    def swaps_as_reference(reference, points, centroids, assign):
        ours, ref = assign.copy(), assign.copy()
        applied = swap_refine(points, centroids, ours)
        assert applied == reference(ref, sq_dists_reference(points, centroids))
        assert np.array_equal(ours, ref)
        return applied

    def test_matches_full_delta_matrix_under_exact_arithmetic(self):
        total_swaps = sum(self.swaps_as_reference(swap_refine_reference, *instance)
                          for instance in integer_instances())
        assert total_swaps > 500  # the instances exercise the search

    def test_matches_full_gain_table_on_near_ties(self):
        # rounded deltas depend on the order of the additions, so the
        # reference is the full gain table, not the n×n delta matrix
        total_swaps = sum(self.swaps_as_reference(swap_refine_gain_reference, *instance)
                          for instance in near_tie_instances())
        assert total_swaps > 50


class TestGreedyBalanced:
    def test_matches_scalar_loop_including_ties(self):
        for points, centroids, assign in integer_instances():
            capacity = assign.size // centroids.shape[0]
            assert np.array_equal(
                greedy_balanced(points, centroids, capacity),
                greedy_balanced_reference(points, centroids, capacity))

    def test_matches_scalar_loop_on_near_ties(self):
        reordered = 0
        for points, centroids, assign in near_tie_instances():
            k = centroids.shape[0]
            capacity = assign.size // k
            assert np.array_equal(
                greedy_balanced(points, centroids, capacity),
                greedy_balanced_reference(points, centroids, capacity))
            screen = _Screen(points, k)
            approx = screen.bound(centroids)[0].reshape(-1)
            exact = sq_dists_reference(points, centroids).reshape(-1)
            reordered += not np.array_equal(np.argsort(approx, kind="stable"),
                                            np.argsort(exact, kind="stable"))
        assert reordered > 30  # the approx order is often not the exact one


def lloyd_instances():
    """(points, initial centroids) on which a screened argmin is easy to get
    wrong: zero rows, points equal to a centroid, rows from 1e-150 to 1e150,
    rows whose squares are subnormal, centroid pairs one ulp apart, dim 1
    and a single cluster."""
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.choice([12, 24, 40]))
        dim = int(rng.choice([1, 2, 5, 16, 64]))
        k = int(rng.choice([1, 2, 3, 4, 8]))
        points = rng.standard_normal((n, dim))
        kind = trial % 5
        if kind == 0:  # zero rows; some seeds are zero rows
            points[rng.random(n) < 0.4] = 0.0
        elif kind == 1:  # rows spanning 1e-150 to 1e150
            points *= 10.0 ** rng.uniform(-150, 150, (n, 1))
        elif kind == 2:  # products and squares underflow to subnormals
            points *= 10.0 ** rng.uniform(-162, -160, (n, 1))
        seeds = np.sort(rng.choice(n, k, replace=False))
        centroids = points[seeds].copy()  # points equal to a centroid
        if kind == 3:  # centroid pairs one ulp apart in every coordinate
            centroids[1::2] = np.nextafter(centroids[0::2][:centroids[1::2].shape[0]],
                                           np.inf)
        elif kind == 4:  # duplicated rows, as often as not on a seed
            points[rng.random(n) < 0.5] = points[seeds[0]]
        yield points, centroids


class TestPartitionMeans:
    def test_match_boolean_gather_bit_for_bit(self):
        instances = [(p, a) for p, _, a in integer_instances()]
        rng = np.random.default_rng(3)
        for points, centroids in lloyd_instances():
            k = centroids.shape[0]
            if points.shape[0] % k == 0:
                instances.append((points, rng.permutation(np.arange(points.shape[0]) % k)))
        for points, assign in instances:
            k = int(assign.max()) + 1
            ours = clustering.partition_means(points, Partition(assign, k))
            for c in range(k):
                ref = points[assign == c].mean(axis=0)
                assert np.array_equal(ours[c].view(np.int64), ref.view(np.int64))

    def test_empty_cluster_named(self):
        with pytest.raises(ValueError, match="^cluster 1 is empty$"):
            clustering.partition_means(np.zeros((4, 2)), Partition([0, 0, 2, 2], 3))


class TestLloyd:
    @staticmethod
    def assert_same_as_reference(points, centroids):
        assign, means, history = _lloyd(_Screen(points, centroids.shape[0]),
                                        centroids.copy())
        ref_assign, ref_means, ref_history = lloyd_reference(points, centroids.copy())
        assert np.array_equal(assign, ref_assign)
        assert np.array_equal(means.view(np.int64), ref_means.view(np.int64))
        assert np.array_equal(np.array(history).view(np.int64),
                              np.array(ref_history).view(np.int64))

    def test_matches_full_table_on_exact_ties(self):
        for points, centroids, _ in integer_instances():
            self.assert_same_as_reference(points, centroids)

    def test_matches_full_table_on_hard_instances(self):
        for points, centroids in lloyd_instances():
            self.assert_same_as_reference(points, centroids)

    @pytest.mark.parametrize("n, dim, k", [(256, 64, 16), (64, 1, 8), (32, 8, 1)])
    def test_matches_full_table_on_weight_rows(self, n, dim, k):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            points = 0.05 * rng.standard_normal((n, dim))
            self.assert_same_as_reference(
                points, points[np.sort(rng.choice(n, k, replace=False))].copy())


class TestReferencePipeline:
    @pytest.mark.parametrize("n, dim, k", [(512, 128, 32), (64, 32, 8)])
    def test_same_partitions_as_reference_search(self, n, dim, k, monkeypatch):
        # random-init runs and warm starts on perturbed rows, as a monitor
        # after some training steps sees them
        def run_all():
            outs = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                W = 0.05 * rng.standard_normal((n, dim))
                first = balanced_kmeans(W, k, rng=np.random.default_rng(100 + seed))
                W += 0.02 * rng.standard_normal((n, dim))
                outs += [first, balanced_kmeans(W, k, init=first.partition)]
            return outs

        fast = run_all()
        monkeypatch.setattr(clustering, "_lloyd",
                            lambda screen, c: lloyd_reference(screen.points, c))
        monkeypatch.setattr(clustering, "_greedy_balanced",
                            lambda screen, c, cap: greedy_balanced_reference(
                                screen.points, c, cap))
        monkeypatch.setattr(clustering, "_balanced_local_search",
                            lambda screen, a: local_search_reference(screen.points, a))
        for ours, ref in zip(fast, run_all()):
            assert np.array_equal(ours.partition.assignment, ref.partition.assignment)
            assert ours.wcss == ref.wcss


class TestBalancedKmeans:
    def test_single_cluster(self):
        pts = np.random.default_rng(1).standard_normal((8, 3))
        out = balanced_kmeans(pts, 1, rng=np.random.default_rng(2))
        assert np.all(out.partition.assignment == 0)
        assert out.wcss == pytest.approx(((pts - pts.mean(0)) ** 2).sum())

    def test_separable_pairs_found_and_optimal(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        out = balanced_kmeans(pts, 2, rng=np.random.default_rng(3))
        best = min(wcss(pts, Partition(a, 2)) for a in enumerate_balanced(4, 2))
        assert out.wcss == pytest.approx(best, abs=1e-12)
        assert set(map(tuple, [np.flatnonzero(out.partition.assignment == c)
                               for c in range(2)])) == {(0, 1), (2, 3)}

    def test_identical_points_any_balanced_partition(self):
        out = balanced_kmeans(np.ones((6, 2)), 3, rng=np.random.default_rng(4))
        out.partition.validate_balanced()
        assert out.wcss == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_balance_invariant(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((24, 4))
        out = balanced_kmeans(pts, 4, rng=rng)
        counts = np.bincount(out.partition.assignment, minlength=4)
        assert counts.tolist() == [6, 6, 6, 6]

    def test_lloyd_objective_monotone(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 6))
        out = balanced_kmeans(pts, 4, rng=rng)
        hist = out.lloyd_wcss_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    @pytest.mark.parametrize("n,k", [(8, 2), (8, 4), (6, 3)])
    def test_small_instances_near_exhaustive_optimum(self, n, k):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            pts = rng.standard_normal((n, 3))
            out = balanced_kmeans(pts, k, rng=rng)
            best = min(wcss(pts, Partition(a, k)) for a in enumerate_balanced(n, k))
            assert out.wcss <= best * 1.10 + 1e-12

    def test_centroids_are_cluster_means(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((12, 3))
        out = balanced_kmeans(pts, 3, rng=rng)
        for c in range(3):
            members = pts[out.partition.assignment == c]
            assert np.allclose(out.centroids[c], members.mean(axis=0), atol=1e-15)

    def test_invalid_inputs(self):
        pts = np.zeros((6, 2))
        with pytest.raises(ValueError, match="divisible"):
            balanced_kmeans(pts, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="> rows"):
            balanced_kmeans(pts, 7, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="rng"):
            balanced_kmeans(np.zeros((16, 2)), 2)  # heuristic path needs seeds

    @pytest.mark.parametrize("n", [8, 32], ids=["exact", "heuristic"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_points_rejected(self, n, value):
        pts = np.random.default_rng(9).standard_normal((n, 3))
        pts[n // 2, 1] = value
        with pytest.raises(ValueError, match="^points contain NaN or inf$"):
            balanced_kmeans(pts, 4, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("n", [8, 32], ids=["exact", "heuristic"])
    def test_overflowing_points_rejected(self, n):
        # finite rows whose squared distances overflow float64
        pts = 1e160 * np.random.default_rng(10).standard_normal((n, 3))
        with pytest.raises(ValueError, match="^points too large: squared "
                                             "distances overflow float64$"):
            balanced_kmeans(pts, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="^points too large"):
            balanced_kmeans(pts, 4, init=Partition(np.arange(n) % 4, 4))

    @pytest.mark.parametrize("n", [8, 16], ids=["exact", "heuristic"])
    @pytest.mark.parametrize("size, k", [(12, 4), (None, 2)], ids=["size", "clusters"])
    def test_inconsistent_init_rejected(self, n, size, k):
        pts = np.random.default_rng(13).standard_normal((n, 3))
        init = Partition(np.arange(size or n) % k, k)
        with pytest.raises(ValueError, match="^init partition inconsistent "
                                             "with points/num_clusters$"):
            balanced_kmeans(pts, 4, init=init)

    def test_large_finite_points_clustered(self):
        pts = 1e150 * np.random.default_rng(11).standard_normal((32, 3))
        out = balanced_kmeans(pts, 4, rng=np.random.default_rng(0))
        out.partition.validate_balanced()
        assert np.isfinite(out.wcss)

    def test_memory_layout_does_not_change_the_result(self):
        pts = np.random.default_rng(12).standard_normal((64, 16))
        a = balanced_kmeans(pts, 8, rng=np.random.default_rng(1))
        b = balanced_kmeans(np.asfortranarray(pts), 8, rng=np.random.default_rng(1))
        assert np.array_equal(a.partition.assignment, b.partition.assignment)
        assert a.wcss == b.wcss and a.lloyd_wcss_history == b.lloyd_wcss_history

    def test_tiny_instances_solved_exactly(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            pts = rng.standard_normal((8, 3))
            out = balanced_kmeans(pts, 4, rng=rng)
            best = min(wcss(pts, Partition(a, 4)) for a in enumerate_balanced(8, 4))
            assert out.wcss == pytest.approx(best, abs=1e-12)


class TestWarmstartSelection:
    def test_no_prev_equals_plain_random_run(self):
        W = np.random.default_rng(7).standard_normal((32, 8))
        a = cluster_with_warmstart(W, 4, None, np.random.default_rng(8))
        b = balanced_kmeans(W, 4, rng=np.random.default_rng(8))
        assert np.array_equal(a.partition.assignment, b.partition.assignment)
        assert a.wcss == b.wcss

    @pytest.mark.parametrize("trial", range(10))
    def test_returned_wcss_is_exact_min_of_candidates(self, trial):
        rng = np.random.default_rng(200 + trial)
        W = rng.standard_normal((32, 8))
        prev = balanced_kmeans(W, 4, rng=np.random.default_rng(300 + trial)).partition
        chosen = cluster_with_warmstart(W, 4, prev, np.random.default_rng(400 + trial))
        rnd = balanced_kmeans(W, 4, rng=np.random.default_rng(400 + trial))
        wrm = balanced_kmeans(W, 4, init=prev)
        assert chosen.wcss == min(rnd.wcss, wrm.wcss)
        assert chosen.candidate_wcss == {"random": rnd.wcss, "warm-start": wrm.wcss}

    def test_warmstart_never_worse_than_random(self):
        for trial in range(10):
            W = np.random.default_rng(500 + trial).standard_normal((24, 6))
            prev = balanced_kmeans(W, 3, rng=np.random.default_rng(600 + trial)).partition
            chosen = cluster_with_warmstart(W, 3, prev, np.random.default_rng(700 + trial))
            rnd = balanced_kmeans(W, 3, rng=np.random.default_rng(700 + trial))
            assert chosen.wcss <= rnd.wcss

    def test_frozen_weights_rerun_reproduces_previous_optimum(self):
        # structured rows: the optimum is robust, so a rerun warm-started from
        # it must return it exactly (up to relabeling; here: identically)
        from ssdlab.clustering import adjusted_rand_index

        W = separated_blobs(seed=11)
        first = cluster_with_warmstart(W, 8, None, np.random.default_rng(12))
        rerun = cluster_with_warmstart(W, 8, first.partition, np.random.default_rng(13))
        assert adjusted_rand_index(first.partition, rerun.partition) == 1.0

    def test_warmstart_stability_is_by_construction(self):
        # directly warm-started on unchanged points, the result is the seed
        for trial in range(10):
            W = np.random.default_rng(800 + trial).standard_normal((64, 16))
            base = balanced_kmeans(W, 8, rng=np.random.default_rng(900 + trial))
            again = balanced_kmeans(W, 8, init=base.partition)
            assert np.array_equal(again.partition.assignment,
                                  base.partition.assignment)

    def test_prev_cluster_count_mismatch(self):
        W = np.zeros((8, 2))
        with pytest.raises(ValueError, match="different cluster count"):
            cluster_with_warmstart(W, 4, Partition([0, 0, 0, 0, 1, 1, 1, 1], 2),
                                   np.random.default_rng(0))
