"""Threshold-bounded agglomerative clustering of classified phrases.

Within each (aspect, sentiment) group of a target, phrases start as
singletons and the closest pair of clusters merges repeatedly until the
minimal linkage distance exceeds the threshold.  With complete linkage the
stopping rule guarantees every intra-cluster pairwise Euclidean distance
stays within the threshold.
"""

from dataclasses import dataclass

import numpy as np

_LINKAGES = ("complete", "average", "single")


@dataclass
class ClusterConfig:
    threshold: float = 7.0
    linkage: str = "complete"

    def validate(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.linkage not in _LINKAGES:
            raise ValueError(f"linkage must be one of {_LINKAGES}")


def agglomerate(points: list[tuple[str, np.ndarray]], config: ClusterConfig) -> list[list[str]]:
    """Cluster (id, vector) points; returns member-id lists.

    Euclidean base metric; the linkage matrix is updated in place on merge
    (max/min for complete/single reproduce a from-scratch recomputation
    bit-for-bit; average uses the size-weighted update).  Deterministic:
    points are processed in id order and distance ties break on the pair
    with the lexicographically smallest min-member-id keys, so permuting
    the input cannot change the partition.  Clusters come back ordered by
    smallest member id, members ascending.  Memory beyond the input is the
    n x n linkage matrix.
    """
    config.validate()
    if not points:
        return []
    points = sorted(points, key=lambda p: p[0])
    ids = [pid for pid, _ in points]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate point ids")
    rows = [np.asarray(v, dtype=float).ravel() for _, v in points]
    if len({len(r) for r in rows}) > 1:
        raise ValueError("dimension mismatch among points")
    vecs = np.vstack(rows)
    n = len(ids)

    link = np.empty((n, n))
    for a in range(n):
        diff = vecs[a] - vecs
        link[a] = np.sqrt(np.sum(diff * diff, axis=1))
    np.fill_diagonal(link, np.inf)

    # Invariant: ids are sorted and each merge folds j into i < j, so the row
    # of an active cluster is its smallest member.  The first minimum in
    # row-major order is therefore the smallest min-member-id pair, with i < j.
    label = np.arange(n)
    sizes = np.ones(n)
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(link)), n)
        if link[i, j] > config.threshold:
            break
        if config.linkage == "complete":
            row = np.maximum(link[i], link[j])
        elif config.linkage == "single":
            row = np.minimum(link[i], link[j])
        else:
            row = (sizes[i] * link[i] + sizes[j] * link[j]) / (sizes[i] + sizes[j])
        row[i] = np.inf
        link[i, :] = row
        link[:, i] = row
        link[j, :] = np.inf
        link[:, j] = np.inf
        label[label == j] = i
        sizes[i] += sizes[j]

    return [[ids[k] for k in np.flatnonzero(label == r)] for r in np.unique(label)]


def build_summary(
    phrases,
    aspect_labels: dict,
    sentiment_labels: dict,
    embeddings: dict,
    config: ClusterConfig,
) -> dict[tuple[str, str], list[list[str]]]:
    """Group phrases by (aspect, sentiment) and cluster each group.

    Returns {(aspect, sentiment): [member-id lists]}, keys sorted.  Phrases
    labeled None in either schema are excluded.  Clusters are ordered by
    size descending (ties by smallest member id), members by phrase id.
    """
    groups: dict[tuple[str, str], list] = {}
    for phrase in phrases:
        aspect = aspect_labels.get(phrase.id)
        sentiment = sentiment_labels.get(phrase.id)
        if aspect is None or sentiment is None:
            continue
        groups.setdefault((aspect, sentiment), []).append(phrase)

    summary = {}
    for key in sorted(groups):
        parts = agglomerate([(p.id, embeddings[p.id]) for p in groups[key]], config)
        summary[key] = sorted(parts, key=lambda members: (-len(members), members[0]))
    return summary
