"""Threshold-bounded complete-linkage clustering of classified phrases.

Within each (aspect, sentiment) group of a target, phrases start as
singletons and the closest pair of clusters merges repeatedly until the
minimal complete-linkage distance (the largest pairwise distance between
the two clusters) exceeds the threshold.  The stopping rule therefore
guarantees every intra-cluster pairwise Euclidean distance stays within the
threshold: the threshold bounds each cluster's diameter.

The merge order does not depend on the threshold, so the work splits in two:
`merge_sequence` records every merge of a group once, and a cut applies the
prefix whose distances are within the threshold (`build_summary`).
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class ClusterConfig:
    threshold: float = 7.0

    def validate(self):
        if not self.threshold > 0:  # also rejects NaN
            raise ValueError("threshold must be positive")


def merge_sequence(vecs: np.ndarray) -> list[tuple[int, int, float]]:
    """Every greedy complete-linkage merge of the rows of vecs (finite, one
    point per row), in the order they happen: (i, j, distance) folds cluster j
    into cluster i < j.

    Euclidean base metric.  On a merge the merged cluster's row of the
    linkage matrix becomes the elementwise max of its two rows: no arithmetic,
    so it equals a from-scratch recomputation bit-for-bit, and the distances
    come out in non-decreasing order.  A cluster is named by its smallest row,
    and distance ties break on the first minimum in row-major order, which is
    the pair of smallest such names.  Returns all n - 1 merges; a pairwise
    distance that overflows to inf raises a ValueError.  Memory beyond the
    input is the n x n linkage matrix.
    """
    n = len(vecs)
    link = np.empty((n, n))
    for a in range(n):
        diff = vecs[a] - vecs
        link[a] = np.sqrt(np.sum(diff * diff, axis=1))
        if not np.isfinite(link[a]).all():
            raise ValueError(f"row {a}: a pairwise distance is not finite")
    np.fill_diagonal(link, np.inf)

    # Invariant: each merge folds j into i < j, so the row of an active
    # cluster is its smallest member and the first minimum in row-major order
    # is the smallest pair, with i < j.
    merges = []
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(link)), n)
        merges.append((i, j, float(link[i, j])))
        row = np.maximum(link[i], link[j])
        row[i] = np.inf
        link[i, :] = row
        link[:, i] = row
        link[j, :] = np.inf
        link[:, j] = np.inf
    return merges


def _cut(ids: list[str], merges, threshold: float) -> list[list[str]]:
    """Apply merges up to the first whose distance exceeds threshold; returns
    the clusters ordered by smallest member, members in ids order."""
    root = list(range(len(ids)))
    for i, j, d in merges:
        if d > threshold:
            break
        root[j] = i
    for k in range(len(ids)):  # root[k] < k is already final, as every i < j
        root[k] = root[root[k]]
    clusters: dict[int, list[str]] = {}
    for k, r in enumerate(root):
        clusters.setdefault(r, []).append(ids[k])
    return list(clusters.values())


def sorted_points(points: list[tuple[str, np.ndarray]]) -> tuple[list[str], np.ndarray]:
    """Sort (id, vector) points by id and check them: unique ids, one
    dimension, finite coordinates.  Returns (ids, one row per point)."""
    points = sorted(points, key=lambda p: p[0])
    ids = [pid for pid, _ in points]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate point ids")
    rows = [np.asarray(v, dtype=float).ravel() for _, v in points]
    if len({len(r) for r in rows}) > 1:
        raise ValueError("dimension mismatch among points")
    vecs = np.vstack(rows)
    finite = np.isfinite(vecs).all(axis=1)
    if not finite.all():
        raise ValueError(f"point {ids[int(np.argmin(finite))]!r} has a non-finite coordinate")
    return ids, vecs


def agglomerate(points: list[tuple[str, np.ndarray]], config: ClusterConfig) -> list[list[str]]:
    """Cluster (id, vector) points; returns member-id lists.

    Deterministic: points are processed in id order and distance ties break
    on the pair with the lexicographically smallest min-member-id keys, so
    permuting the input cannot change the partition.  Clusters come back
    ordered by smallest member id, members ascending.
    """
    config.validate()
    if not points:
        return []
    ids, vecs = sorted_points(points)
    return _cut(ids, merge_sequence(vecs), config.threshold)


def build_summary(groups: dict, threshold: float) -> dict[tuple[str, str], list[list[str]]]:
    """Cut one target's stored groups at threshold.

    groups maps (aspect, sentiment) to (members, merges): the group's phrase
    ids in id order and their merge_sequence.  Returns
    {(aspect, sentiment): [member-id lists]}, keys sorted, clusters ordered by
    size descending (ties by smallest member id), members by phrase id.
    """
    return {
        key: sorted(_cut(*groups[key], threshold), key=lambda members: (-len(members), members[0]))
        for key in sorted(groups)
    }
