"""Shared fixture builders and reference oracles for the test suite."""

import numpy as np

from opinionsum.corpus import DepArc, Sentence, Token, parse_bracketed_tree


def make_sentence(tagged, arcs=(), tree=None, sid="s0", target="t0", review="r0"):
    """Build a Sentence from [(surface, pos)] and (head, dependent, relation)
    triples; tree may be a bracketed string."""
    tokens = [Token(i, surface, pos) for i, (surface, pos) in enumerate(tagged)]
    deps = [DepArc(h, d, r) for h, d, r in arcs]
    parsed = parse_bracketed_tree(tree) if isinstance(tree, str) else tree
    return Sentence(sid, target, review, tokens, deps, parsed)


RESTAURANT_ASPECTS = """\
location: street block river avenue
drinks: beverage wines cocktail sake
food: spicy sushi pizza taste
ambience: atmosphere room seating environment
service: tips manager waitress servers
"""

RESTAURANT_SENTIMENTS = """\
good: great nice excellent perfect
bad: terrible horrible disappointed awful
"""


def naive_agglomerate(points, threshold, linkage="complete"):
    """Independent O(n^3) clustering reference: recompute linkage from the raw
    vectors each round; same tie-break rule (smallest min-member-id pair)."""
    points = sorted(points, key=lambda p: p[0])
    ids = [pid for pid, _ in points]
    vecs = [np.asarray(v, dtype=float) for _, v in points]
    clusters = [[i] for i in range(len(ids))]

    def dist(ci, cj):
        ds = [float(np.linalg.norm(vecs[a] - vecs[b])) for a in ci for b in cj]
        if linkage == "complete":
            return max(ds)
        if linkage == "single":
            return min(ds)
        return sum(ds) / len(ds)

    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                lo, hi = sorted((ids[clusters[i][0]], ids[clusters[j][0]]))
                key = (dist(clusters[i], clusters[j]), lo, hi)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best[0][0] > threshold:
            break
        _, i, j = best
        merged = sorted(clusters[i] + clusters[j])
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)] + [merged]
    clusters.sort(key=lambda c: ids[c[0]])
    return [[ids[k] for k in c] for c in clusters]


def naive_window_pairs(n, h):
    """Reference context-window pairs: (i, j) with j != i and |i - j| <= h,
    i ascending, then j ascending, as two lists."""
    ci, cj = [], []
    for i in range(n):
        for j in range(max(0, i - h), min(n, i + h + 1)):
            if j != i:
                ci.append(i)
                cj.append(j)
    return ci, cj
