"""Agglomerative clustering and summary assembly."""

import tracemalloc

import numpy as np
import pytest

from opinionsum.clustering import ClusterConfig, agglomerate, build_summary, merge_sequence, sorted_points
from util import naive_agglomerate


def _points(rng, n, dim=5, scale=10.0):
    return [(f"p{i:03d}", rng.uniform(-scale, scale, size=dim)) for i in range(n)]


def _lattice_points(rng, n, dim=2, side=4):
    """Integer grid points: many exactly equal distances and repeated points."""
    return [(f"p{i:03d}", rng.integers(0, side, size=dim).astype(float)) for i in range(n)]


def _duplicate_points(rng, n, dim=3):
    """Each vector is one of about n/4 random vectors, so zero distances tie."""
    base = rng.uniform(-5, 5, size=(max(1, n // 4), dim))
    return [(f"p{i:03d}", base[k]) for i, k in enumerate(rng.integers(0, len(base), size=n))]


class TestAgglomerate:
    def test_single_point(self):
        assert agglomerate([("a", np.zeros(3))], ClusterConfig()) == [["a"]]

    def test_empty_input(self):
        assert agglomerate([], ClusterConfig()) == []

    def test_threshold_semantics(self):
        config = ClusterConfig(threshold=7.0)
        near = [("a", np.array([0.0])), ("b", np.array([3.0]))]
        far = [("a", np.array([0.0])), ("b", np.array([8.0]))]
        assert agglomerate(near, config) == [["a", "b"]]
        assert agglomerate(far, config) == [["a"], ["b"]]

    def test_boundary_distance_merges(self):
        config = ClusterConfig(threshold=7.0)
        points = [("a", np.array([0.0])), ("b", np.array([7.0]))]
        assert agglomerate(points, config) == [["a", "b"]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            agglomerate([("a", np.zeros(2)), ("b", np.zeros(3))], ClusterConfig())

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 31))
            points = _points(rng, n)
            t = float(rng.uniform(3, 20))
            config = ClusterConfig(threshold=t)
            assert agglomerate(points, config) == naive_agglomerate(points, t)
        # tie-free random points, then tie-heavy ones
        for make in (_points, _lattice_points, _duplicate_points):
            for _ in range(15):
                points = make(rng, int(rng.integers(2, 25)))
                points = [points[i] for i in rng.permutation(len(points))]
                t = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 6.0, 12.0, 20.0]))
                got = agglomerate(points, ClusterConfig(threshold=t))
                assert got == naive_agglomerate(points, t), (make.__name__, t)

    def test_one_sequence_cut_at_every_threshold_matches_naive_reference(self):
        rng = np.random.default_rng(43)
        thresholds = (0.5, 1.0, 1.5, 2.0, 3.0, 6.0, 12.0, 20.0)
        for make in (_points, _lattice_points, _duplicate_points):
            for _ in range(15):
                points = make(rng, int(rng.integers(2, 25)))
                shuffled = [points[i] for i in rng.permutation(len(points))]
                groups = _groups({("a", "s"): shuffled})
                for t in thresholds:
                    got = build_summary(groups, t)[("a", "s")]
                    assert got == _by_size(naive_agglomerate(shuffled, t)), (make.__name__, t)

    def test_merge_sequence_is_complete_and_ordered(self):
        points = _points(np.random.default_rng(44), 12)
        merges = merge_sequence(np.vstack([v for _, v in points]))
        assert len(merges) == 11
        assert all(0 <= i < j < 12 and isinstance(d, float) for i, j, d in merges)
        assert [d for _, _, d in merges] == sorted(d for _, _, d in merges)  # complete linkage is monotone
        assert len({j for _, j, _ in merges}) == 11  # each cluster is folded away once

    def test_overflowing_distance_raises(self):
        """Finite points whose distance overflows cannot silently stop the merges."""
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            merge_sequence(np.array([[0.0], [1e200]]))
        points = [("a", np.array([0.0])), ("b", np.array([1e200]))]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            agglomerate(points, ClusterConfig(threshold=1e300))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected_by_id(self, bad):
        points = [("a", np.array([0.0])), ("b", np.array([bad])), ("c", np.array([1.0]))]
        with pytest.raises(ValueError, match="'b'"):
            agglomerate(points, ClusterConfig(threshold=0.5))
        with pytest.raises(ValueError, match="'b'"):
            sorted_points(points)

    def test_memory_bounded_by_link_matrix(self):
        n, dim = 400, 64
        points = _points(np.random.default_rng(12), n, dim=dim)
        tracemalloc.start()
        try:
            clusters = agglomerate(points, ClusterConfig(threshold=60.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1 < len(clusters) < n  # the merge loop ran and stopped at the threshold
        assert peak < 4 * n * n * 8  # an n*n*dim difference tensor would be 16x this

    def test_complete_linkage_diameter_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            points = _points(rng, int(rng.integers(2, 40)))
            by_id = dict(points)
            for cluster in agglomerate(points, ClusterConfig(threshold=9.0)):
                for a in cluster:
                    for b in cluster:
                        assert np.linalg.norm(by_id[a] - by_id[b]) <= 9.0 + 1e-9

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(8)
        points = _points(rng, 25)
        sizes = [
            len(agglomerate(points, ClusterConfig(threshold=t))) for t in (2.0, 5.0, 9.0, 14.0, 30.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        points = _points(rng, 20)
        base = agglomerate(points, ClusterConfig(threshold=8.0))
        for _ in range(5):
            order = rng.permutation(len(points))
            shuffled = [points[i] for i in order]
            assert agglomerate(shuffled, ClusterConfig(threshold=8.0)) == base

    def test_partition_property(self):
        rng = np.random.default_rng(10)
        points = _points(rng, 30)
        clusters = agglomerate(points, ClusterConfig(threshold=6.0))
        flat = [pid for c in clusters for pid in c]
        assert sorted(flat) == sorted(pid for pid, _ in points)
        assert len(flat) == len(set(flat))

    def test_complete_linkage_does_not_chain(self):
        # single linkage would chain a-b-c at 6.0; a and c are 10.0 apart
        points = [("a", np.array([0.0])), ("b", np.array([5.0])), ("c", np.array([10.0]))]
        assert agglomerate(points, ClusterConfig(threshold=6.0)) == [["a", "b"], ["c"]]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(threshold=0.0).validate()
        with pytest.raises(ValueError, match="threshold"):
            ClusterConfig(threshold=float("nan")).validate()


def _groups(points_by_key: dict) -> dict:
    """{key: (ids, merge_sequence)} as the cluster stage stores each group."""
    groups = {}
    for key, points in points_by_key.items():
        ids, vecs = sorted_points(points)
        groups[key] = (ids, merge_sequence(vecs))
    return groups


def _by_size(clusters):
    return sorted(clusters, key=lambda members: (-len(members), members[0]))


class TestBuildSummary:
    def test_single_group_single_cluster(self):
        points = [(f"p{i}", np.array([i * 0.1])) for i in range(4)]
        summary = build_summary(_groups({("food", "good"): points}), 7.0)
        assert list(summary) == [("food", "good")]
        assert summary[("food", "good")] == [["p0", "p1", "p2", "p3"]]

    def test_planted_partition_recovered(self):
        rng = np.random.default_rng(11)
        centers = {0: np.full(4, 0.0), 1: np.full(4, 50.0)}
        points, expect = [], {0: [], 1: []}
        for i in range(12):
            side = i % 2
            pid = f"p{i:02d}"
            points.append((pid, centers[side] + rng.normal(0, 0.5, size=4)))
            expect[side].append(pid)
        clusters = build_summary(_groups({("food", "good"): points}), 7.0)[("food", "good")]
        got = sorted(sorted(c) for c in clusters)
        assert got == sorted([sorted(expect[0]), sorted(expect[1])])

    def test_clusters_ordered_by_size_then_min_id(self):
        points = [("p4", np.array([200.0])), ("p3", np.array([100.0]))]
        points += [(f"p{i}", np.array([i * 0.1])) for i in range(3)]
        summary = build_summary(_groups({("food", "good"): points}), 7.0)
        assert summary[("food", "good")] == [["p0", "p1", "p2"], ["p3"], ["p4"]]

    def test_groups_come_back_in_key_order(self):
        points = [("p0", np.zeros(2))]
        groups = _groups({("service", "good"): points, ("food", "bad"): points, ("food", "good"): points})
        assert list(build_summary(groups, 1.0)) == [("food", "bad"), ("food", "good"), ("service", "good")]
