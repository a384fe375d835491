import itertools

import numpy as np
import pytest

from ssdlab.clustering import (
    Partition,
    _sq_dists,
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
        assert np.array_equal(_sq_dists(points, centroids).view(np.int64),
                              broadcast.view(np.int64))


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
        from ssdlab.analysis import adjusted_rand_index

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
