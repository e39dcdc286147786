"""Pseudo-label machinery: top-K selection, softening, KL loss, joint agreement."""

import json
import math

import numpy as np
import pytest

from opinionsum.distill import (
    BACKGROUND,
    EXCLUDED,
    SOFT,
    DistillConfig,
    PseudoPhraseLabel,
    PseudoSentenceLabel,
    distill_loss,
    joint_agreement_label,
    pseudo_sentence_labels,
    select_topk,
    soften,
)
from opinionsum.embedding import SphereSpace, sentence_scores


def _space_with_scores(scores: np.ndarray) -> tuple[SphereSpace, list[str]]:
    """Space whose sentence/category dot products equal the given matrix.

    Embeds scores into orthogonal category axes; requires |rows| <= 1.
    """
    n, c = scores.shape
    dim = c + 1
    cat_vecs = np.eye(c, dim)
    sent_vecs = np.zeros((n, dim))
    sent_vecs[:, :c] = scores
    rest = 1.0 - np.sum(scores**2, axis=1)
    assert np.all(rest >= 0)
    sent_vecs[:, c] = np.sqrt(rest)
    ids = [f"s{i}" for i in range(n)]
    return (
        SphereSpace(dim, [], ids, [f"c{j}" for j in range(c)], np.empty((0, dim)), sent_vecs, cat_vecs),
        ids,
    )


class TestSelectTopK:
    def test_small_corpus_clamped(self):
        space, ids = _space_with_scores(np.array([[0.1, 0.0], [0.2, 0.1], [0.3, 0.2]]))
        per_cat = select_topk(space, ids, 2000)
        assert all(sorted(sel) == ids for sel in per_cat)

    def test_descending_selection(self):
        space, ids = _space_with_scores(np.array([[0.9, 0.0], [0.5, 0.0], [0.1, 0.0]]))
        per_cat = select_topk(space, ids, 2)
        assert per_cat[0] == ["s0", "s1"]

    def test_tie_break_by_sentence_id(self):
        space, ids = _space_with_scores(np.array([[0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]))
        assert select_topk(space, ids, 2)[0] == ["s0", "s1"]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(1, 40))
            scores = rng.uniform(-0.5, 0.5, size=(n, 3))
            space, ids = _space_with_scores(scores)
            k = int(rng.integers(1, 10))
            got = select_topk(space, ids, k)
            for ci in range(3):
                oracle = [
                    sid for sid, _ in sorted(zip(ids, scores[:, ci]), key=lambda t: (-t[1], t[0]))
                ][:k]
                assert got[ci] == oracle

    def test_ranking_and_soft_labels_use_each_sentences_own_scores(self):
        """Both rank by, and soften, the bits of each sentence's own
        sentence_scores."""
        rng = np.random.default_rng(4)
        n, dim, c = 60, 16, 3
        sent_vecs, cat_vecs = rng.normal(size=(n, dim)), rng.normal(size=(c, dim))
        sent_vecs /= np.linalg.norm(sent_vecs, axis=1, keepdims=True)
        cat_vecs /= np.linalg.norm(cat_vecs, axis=1, keepdims=True)
        ids = [f"s{i}" for i in rng.permutation(n)]
        space = SphereSpace(dim, [], ids, ["a", "b", "c"], np.empty((0, dim)), sent_vecs, cat_vecs)
        own = {sid: sentence_scores(space, sid) for sid in ids}
        config = DistillConfig(top_k=7, alpha=3.0)
        per_cat = select_topk(space, ids, config.top_k)
        for ci, selected in enumerate(per_cat):
            assert selected == sorted(ids, key=lambda sid: (-own[sid][ci], sid))[: config.top_k]
        labels = pseudo_sentence_labels(space, ids, config)
        assert [label.sentence_id for label in labels] == [sid for selected in per_cat for sid in selected]
        for label in labels:
            assert np.array_equal(label.distribution, soften(own[label.sentence_id], config.alpha))


class TestSoften:
    def test_equal_scores_uniform(self):
        out = soften(np.array([0.3, 0.3, 0.3]), alpha=7.0)
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-12)

    def test_alpha_zero_uniform(self):
        out = soften(np.array([5.0, -3.0, 1.0]), alpha=0.0)
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-12)

    def test_hand_softmax(self):
        out = soften(np.array([math.log(2.0), 0.0]), alpha=1.0)
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.normal(size=4)
            c = rng.normal()
            np.testing.assert_allclose(soften(s, 3.0), soften(s + c, 3.0), atol=1e-12)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = rng.normal(size=5)
            assert np.argmax(soften(s, 0.7)) == np.argmax(s)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.normal(size=6) * 10
            assert abs(soften(s, 10.0).sum() - 1.0) < 1e-12


class TestDistillLoss:
    def test_identity_is_zero(self):
        l = np.array([0.2, 0.5, 0.3])
        assert distill_loss(l, l) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert distill_loss(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_zero_l_terms_contribute_nothing(self):
        assert math.isfinite(distill_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0])))

    def test_nonnegative_and_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            l = rng.dirichlet(np.ones(4))
            y = rng.dirichlet(np.ones(4))
            got = distill_loss(l, y)
            oracle = sum(li * math.log(li / max(yi, 1e-12)) for li, yi in zip(l, y) if li > 0)
            assert got == pytest.approx(oracle, rel=1e-10)
            assert got >= 0.0


class TestJointAgreement:
    CONFIG = DistillConfig(alpha=10.0, theta1=0.35, theta2=0.30)

    def test_agreeing_confident_is_soft(self):
        y = np.array([0.8, 0.05, 0.05, 0.05, 0.05])
        sim = np.array([0.5, 0.1, 0.0, 0.0, 0.0])
        label = joint_agreement_label("p", y, sim, self.CONFIG)
        assert label.outcome == SOFT
        np.testing.assert_allclose(label.distribution, soften(y, 10.0), atol=1e-12)

    def test_both_unconfident_is_background(self):
        y = np.array([0.30, 0.25, 0.25, 0.1, 0.1])
        sim = np.array([0.25, 0.2, 0.1, 0.0, 0.0])
        label = joint_agreement_label("p", y, sim, self.CONFIG)
        assert label.outcome == BACKGROUND
        np.testing.assert_allclose(label.distribution, [0.2] * 5, atol=1e-12)

    def test_split_confidence_is_excluded(self):
        y = np.array([0.9, 0.05, 0.05])
        sim = np.array([0.1, 0.05, 0.0])
        assert joint_agreement_label("p", y, sim, self.CONFIG).outcome == EXCLUDED

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            joint_agreement_label("p", np.ones(3) / 3, np.ones(4), self.CONFIG)

    @pytest.mark.parametrize("y_high", [True, False])
    @pytest.mark.parametrize("sim_high", [True, False])
    @pytest.mark.parametrize("agree", [True, False])
    def test_truth_table(self, y_high, sim_high, agree):
        # argmax(y) is class 0; argmax(sim) is class 0 iff agree
        y_max = 0.8 if y_high else 0.30
        y = np.full(5, (1.0 - y_max) / 4)
        y[0] = y_max
        sim_max = 0.6 if sim_high else 0.25
        sim = np.full(5, -0.2)
        sim[0 if agree else 1] = sim_max
        label = joint_agreement_label("p", y, sim, self.CONFIG)
        if y_high and sim_high and agree:
            assert label.outcome == SOFT
        elif not y_high and not sim_high:
            assert label.outcome == BACKGROUND
        else:
            assert label.outcome == EXCLUDED

    def test_partition_over_random_inputs(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(500):
            y = rng.dirichlet(np.ones(5))
            sim = rng.uniform(-1, 1, size=5)
            label = joint_agreement_label("p", y, sim, self.CONFIG)
            assert label.outcome in (SOFT, BACKGROUND, EXCLUDED)
            if label.outcome == EXCLUDED:
                assert label.distribution is None
            else:
                assert label.distribution.sum() == pytest.approx(1.0, abs=1e-9)
            seen.add(label.outcome)
        assert seen == {SOFT, BACKGROUND, EXCLUDED}

    def test_json_roundtrip(self):
        for label, n_categories in (
            (PseudoPhraseLabel.soft("a", np.array([0.7, 0.3])), 2),
            (PseudoPhraseLabel.background("b", 4), 4),
            (PseudoPhraseLabel.excluded("c"), 2),
        ):
            again = PseudoPhraseLabel.from_json(label.to_json(), n_categories, {"a", "b", "c"})
            assert again.outcome == label.outcome and again.phrase_id == label.phrase_id
            if label.distribution is None:
                assert again.distribution is None
            else:
                np.testing.assert_allclose(again.distribution, label.distribution)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_rejects_non_finite_distribution(self, bad):
        labels = (PseudoPhraseLabel.soft("a", np.array([bad, 0.3])), PseudoSentenceLabel("s", np.array([0.5, bad])))
        for label in labels:
            with pytest.raises(ValueError, match="finite"):
                type(label).from_json(label.to_json(), 2, {"a", "s"})

    @pytest.mark.parametrize(
        "distribution, match",
        [([0.5, 0.25, 0.25], "2 finite values"), ([1.0], "2 finite values"), ([-5.0, 6.0], ">= 0"),
         ([0.5, 0.6], "sum to 1"), ([[0.5], [0.5]], "2 finite values"), ("ab", "could not convert")],
    )
    def test_json_rejects_distribution_off_the_schema(self, distribution, match):
        rows = ({"id": "s", "distribution": distribution}, {"id": "a", "outcome": SOFT, "distribution": distribution})
        for cls, row in zip((PseudoSentenceLabel, PseudoPhraseLabel), rows):
            with pytest.raises(ValueError, match=match):
                cls.from_json(json.dumps(row), 2, {"a", "s"})

    def test_json_accepts_sums_within_1e_9(self):
        row = json.dumps({"id": "s", "distribution": [0.5 + 9e-10, 0.5]})
        assert PseudoSentenceLabel.from_json(row, 2, {"s"}).distribution.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "outcome, distribution",
        [("bogus", [0.5, 0.5]), (SOFT, None), (BACKGROUND, None), (EXCLUDED, [0.5, 0.5]), (None, None)],
    )
    def test_json_rejects_outcome_off_the_rules(self, outcome, distribution):
        row = json.dumps({"id": "a", "outcome": outcome, "distribution": distribution})
        with pytest.raises(ValueError, match="expected outcome soft, background or excluded"):
            PseudoPhraseLabel.from_json(row, 2, {"a"})

    def test_json_rejects_id_naming_no_manifest_row(self):
        """A label's id must be a string naming a sentence (or phrase) of
        the manifest, whose ids the reader is given."""
        for bad in ["ghost", ["s"], 3, None]:
            for cls, row in ((PseudoSentenceLabel, {"distribution": [0.5, 0.5]}),
                             (PseudoPhraseLabel, {"outcome": EXCLUDED, "distribution": None})):
                with pytest.raises(ValueError, match="names no (sentence|phrase) of the manifest"):
                    cls.from_json(json.dumps({"id": bad, **row}), 2, {"s": None, "a": None})


class TestConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            DistillConfig(theta1=0.0).validate()
        with pytest.raises(ValueError):
            DistillConfig(theta2=1.0).validate()
        with pytest.raises(ValueError):
            DistillConfig(alpha=0.0).validate()
        with pytest.raises(ValueError, match="alpha"):
            DistillConfig(alpha=math.inf).validate()
        DistillConfig().validate()
