"""Quantitative metrics and human-evaluation tooling.

Classification scores over labels-or-None, cluster word diversity, and
intrusion-test generation/scoring for cluster coherence.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    macro_f1: float


def _gold_set(gold) -> set:
    if gold is None:
        return {None}
    if isinstance(gold, (list, tuple, set)):
        return set(gold) if gold else {None}
    return {gold}


def _gold_first(gold):
    if isinstance(gold, (list, tuple)):
        return gold[0] if gold else None
    if isinstance(gold, set):
        return min(gold) if gold else None
    return gold


def classification_metrics(pred: list, gold: list, labels: list | None = None) -> MetricReport:
    """Accuracy over all examples (None is a rejection, not a class), plus
    unweighted macro precision/recall/F1 over the schema classes.

    Gold entries may be label sets; accuracy accepts any member, while
    precision/recall use the first gold label.  With an explicit `labels`
    list, classes absent from both pred and gold still contribute F1 = 0.
    """
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(gold)} gold")
    gold_first = [_gold_first(g) for g in gold]
    if labels is None:
        labels = sorted(
            {p for p in pred if p is not None} | {g for g in gold_first if g is not None}
        )
    correct = sum(1 for p, g in zip(pred, gold) if p in _gold_set(g))
    accuracy = correct / len(pred) if pred else 1.0

    precisions, recalls, f1s = [], [], []
    for cls in labels:
        tp = sum(1 for p, g in zip(pred, gold_first) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(pred, gold_first) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(pred, gold_first) if p != cls and g == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    if not labels:
        return MetricReport(accuracy, 0.0, 0.0, 0.0)
    return MetricReport(
        accuracy,
        sum(precisions) / len(labels),
        sum(recalls) / len(labels),
        sum(f1s) / len(labels),
    )


def diversity(cluster: list[str]) -> float:
    """Distinct case-folded words over total word tokens across the cluster's
    phrases."""
    if not cluster:
        raise ValueError("empty cluster")
    tokens = [w.casefold() for phrase in cluster for w in phrase.split()]
    if not tokens:
        raise ValueError("cluster has no word tokens")
    return len(set(tokens)) / len(tokens)


@dataclass
class IntrusionSet:
    """Five in-cluster phrases plus one intruder, all sharing a common word.

    in_cluster holds the five cluster phrases in display order; the full
    shuffled list is in_cluster with the intruder inserted at answer_key.
    """

    set_id: str
    in_cluster: list[str]
    intruder: str
    shared_word: str
    answer_key: int

    def display_phrases(self) -> list[str]:
        out = list(self.in_cluster)
        out.insert(self.answer_key, self.intruder)
        return out


def _phrase_words(phrase: str) -> set[str]:
    return {w.casefold() for w in phrase.split()}


def make_intrusion_set(
    clusters: list[list[str]], seed: int, set_id: str | None = None
) -> IntrusionSet | None:
    """Sample one intrusion set, or None when no qualifying combination
    exists.

    Picks a cluster with >= 5 phrases, a word shared by at least five of its
    phrases and by at least one outside phrase, then samples 5 + 1 phrases
    containing it and shuffles them.  Deterministic under the seed; the
    search over clusters and shared words is exhaustive before giving up.
    """
    rng = np.random.default_rng(seed)
    if len(clusters) < 2:
        return None
    eligible = [i for i, c in enumerate(clusters) if len(c) >= 5]
    if not eligible:
        return None
    for t in rng.permutation(eligible):
        inside = clusters[t]
        outside = [p for i, c in enumerate(clusters) if i != t for p in c]
        holders: dict[str, list[int]] = {}
        for pi, phrase in enumerate(inside):
            for w in _phrase_words(phrase):
                holders.setdefault(w, []).append(pi)
        out_words: dict[str, list[str]] = {}
        for phrase in outside:
            for w in _phrase_words(phrase):
                out_words.setdefault(w, []).append(phrase)
        candidates = sorted(w for w, ps in holders.items() if len(ps) >= 5 and w in out_words)
        if not candidates:
            continue
        word = candidates[int(rng.integers(len(candidates)))]
        chosen = rng.choice(holders[word], size=5, replace=False)
        five = [inside[i] for i in sorted(int(i) for i in chosen)]
        intruder = out_words[word][int(rng.integers(len(out_words[word])))]
        six = five + [intruder]
        perm = rng.permutation(6)
        shuffled = [six[p] for p in perm]
        answer = int(np.nonzero(perm == 5)[0][0])
        return IntrusionSet(
            set_id if set_id is not None else f"intrusion-{seed}",
            [p for i, p in enumerate(shuffled) if i != answer],
            intruder,
            word,
            answer,
        )
    return None


def coherence_score(sets: list[IntrusionSet], answers: list[int]) -> float:
    """Fraction of answers matching the answer key."""
    if len(sets) != len(answers):
        raise ValueError(f"length mismatch: {len(sets)} sets vs {len(answers)} answers")
    if not sets:
        raise ValueError("no intrusion sets")
    return sum(1 for s, a in zip(sets, answers) if s.answer_key == a) / len(sets)
