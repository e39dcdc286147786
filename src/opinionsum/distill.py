"""Soft pseudo-labels distilled from the embedding space.

Sentences: the top-K scorers per category get a temperature-softmax label
over all categories.  Phrases: admitted only when the contextual classifier
and the embedding agree above their confidence thresholds (Soft), labeled
uniform when both are unconfident (Background), and dropped otherwise.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .embedding import SphereSpace

SOFT = "soft"
BACKGROUND = "background"
EXCLUDED = "excluded"


@dataclass
class DistillConfig:
    top_k: int = 2000
    alpha: float = 10.0
    theta1: float = 0.35
    theta2: float = 0.30

    def validate(self):
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0 < self.alpha < math.inf:  # also rejects NaN
            raise ValueError("alpha must be positive and finite")
        for name in ("theta1", "theta2"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must be in (0, 1)")


def _distribution(values, n_categories: int) -> np.ndarray:
    """A stored distribution as an array: n_categories finite entries >= 0
    that sum to 1 within 1e-9 (JSON reads NaN and Infinity too)."""
    dist = np.asarray(values, dtype=float)
    if not (dist.shape == (n_categories,) and np.isfinite(dist).all() and (dist >= 0).all()):
        raise ValueError(f"distribution must be {n_categories} finite values >= 0, got {values!r}")
    if abs(dist.sum() - 1.0) > 1e-9:
        raise ValueError(f"distribution must sum to 1, got {values!r}")
    return dist


def _known_id(value, ids, what: str) -> str:
    """A stored label's id: a string in ids, the manifest's ids of its kind."""
    if type(value) is not str or value not in ids:
        raise ValueError(f"id {value!r} names no {what} of the manifest")
    return value


@dataclass
class PseudoSentenceLabel:
    sentence_id: str
    distribution: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {"id": self.sentence_id, "distribution": [float(x) for x in self.distribution]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str, n_categories: int, sentence_ids) -> "PseudoSentenceLabel":
        obj = json.loads(line)
        return cls(_known_id(obj["id"], sentence_ids, "sentence"), _distribution(obj["distribution"], n_categories))


@dataclass
class PseudoPhraseLabel:
    phrase_id: str
    outcome: str  # SOFT | BACKGROUND | EXCLUDED
    distribution: np.ndarray | None  # None iff excluded

    @classmethod
    def soft(cls, phrase_id: str, distribution: np.ndarray) -> "PseudoPhraseLabel":
        return cls(phrase_id, SOFT, distribution)

    @classmethod
    def background(cls, phrase_id: str, n_categories: int) -> "PseudoPhraseLabel":
        return cls(phrase_id, BACKGROUND, np.full(n_categories, 1.0 / n_categories))

    @classmethod
    def excluded(cls, phrase_id: str) -> "PseudoPhraseLabel":
        return cls(phrase_id, EXCLUDED, None)

    def to_json(self) -> str:
        dist = None if self.distribution is None else [float(x) for x in self.distribution]
        return json.dumps(
            {"id": self.phrase_id, "outcome": self.outcome, "distribution": dist}, sort_keys=True
        )

    @classmethod
    def from_json(cls, line: str, n_categories: int, phrase_ids) -> "PseudoPhraseLabel":
        obj = json.loads(line)
        outcome, dist = obj["outcome"], obj["distribution"]
        if outcome not in (SOFT, BACKGROUND, EXCLUDED) or (dist is None) != (outcome == EXCLUDED):
            raise ValueError(
                "expected outcome soft, background or excluded, with a null distribution iff excluded, "
                f"got {outcome!r} with {dist!r}"
            )
        distribution = None if dist is None else _distribution(dist, n_categories)
        return cls(_known_id(obj["id"], phrase_ids, "phrase"), outcome, distribution)


def _ranked(space: SphereSpace, sentence_ids: list[str], k: int) -> tuple[np.ndarray, list[list[int]]]:
    """The (n, C) sentence-category scores, each row the bits of that
    sentence's embedding.sentence_scores, and per category the rows of the
    k highest scores."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = [space.sent_row(sid) for sid in sentence_ids]
    scores = (space.sent_vecs[rows][:, None, :] @ space.cat_vecs.T)[:, 0]
    n, n_categories = scores.shape
    return scores, [sorted(range(n), key=lambda r: (-scores[r, ci], sentence_ids[r]))[:k] for ci in range(n_categories)]


def select_topk(space: SphereSpace, sentence_ids: list[str], k: int) -> list[list[str]]:
    """Per category, the k highest-scoring sentence ids (descending score,
    ties broken by ascending id).  Clamps to the corpus size."""
    return [[sentence_ids[r] for r in top] for top in _ranked(space, sentence_ids, k)[1]]


def soften(scores: np.ndarray, alpha: float) -> np.ndarray:
    """Temperature softmax of alpha * scores, stabilized by max-subtraction."""
    z = alpha * np.asarray(scores, dtype=float)
    z = z - np.max(z)
    e = np.exp(z)
    return e / e.sum()


def distill_loss(l: np.ndarray, y: np.ndarray) -> float:
    """sum_i l_i * log(l_i / y_i), with y clamped at 1e-12; zero l terms
    contribute nothing.  Non-negative, zero iff l == y."""
    l = np.asarray(l, dtype=float)
    y = np.maximum(np.asarray(y, dtype=float), 1e-12)
    mask = l > 0
    return float(np.sum(l[mask] * np.log(l[mask] / y[mask])))


def joint_agreement_label(
    phrase_id: str, y: np.ndarray, sim: np.ndarray, config: DistillConfig
) -> PseudoPhraseLabel:
    """Sort a phrase into Soft / Background / Excluded.

    Soft: classifier and embedding argmaxes agree and both clear their
    thresholds (theta1 for the classifier probability, theta2 for the
    embedding similarity); the label is the temperature softmax of y.
    Background: both maxima fall below their thresholds.
    Excluded: everything else (disagreement or split confidence).
    """
    y = np.asarray(y, dtype=float)
    sim = np.asarray(sim, dtype=float)
    if y.shape != sim.shape:
        raise ValueError(f"shape mismatch: y {y.shape} vs sim {sim.shape}")
    i_star = int(np.argmax(y))
    j_star = int(np.argmax(sim))
    if i_star == j_star and y[i_star] >= config.theta1 and sim[j_star] >= config.theta2:
        return PseudoPhraseLabel.soft(phrase_id, soften(y, config.alpha))
    if y[i_star] < config.theta1 and sim[j_star] < config.theta2:
        return PseudoPhraseLabel.background(phrase_id, len(y))
    return PseudoPhraseLabel.excluded(phrase_id)


def pseudo_sentence_labels(
    space: SphereSpace, sentence_ids: list[str], config: DistillConfig
) -> list[PseudoSentenceLabel]:
    """Top-K selection plus softened scores.  A sentence selected under
    several categories appears once per selecting category (the distribution
    is the same; duplication only reweights training)."""
    config.validate()
    scores, per_cat = _ranked(space, sentence_ids, config.top_k)
    return [PseudoSentenceLabel(sentence_ids[r], soften(scores[r], config.alpha)) for top in per_cat for r in top]
