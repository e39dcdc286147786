"""Planted-corpus generator contract."""

import json

import pytest

from opinionsum.corpus import load_corpus, load_schema
from opinionsum.extraction import extract_candidates
from opinionsum.synthetic import SyntheticSpec, generate_synthetic


def _read_jsonl(path):
    return [json.loads(l) for l in open(path) if l.strip()]


class TestGenerator:
    def test_counts_and_schemas(self, tmp_path):
        spec = SyntheticSpec(n_categories=2, n_sentences=200)
        paths = generate_synthetic(spec, 0, tmp_path)
        sentences = load_corpus(paths["corpus"], paths["trees"])
        assert len(sentences) == 200
        aspects = load_schema(paths["aspect_schema"], "aspect")
        sentiments = load_schema(paths["sentiment_schema"], "sentiment")
        assert len(aspects.categories) == 2
        assert all(len(kws) == 4 for _, kws in aspects.categories)
        assert sentiments.names == ["good", "bad"]
        assert all(len(kws) == 4 for _, kws in sentiments.categories)

    def test_zero_noise_content_words_planted(self, tmp_path):
        spec = SyntheticSpec(n_sentences=60, noise_word_ratio=0.0)
        paths = generate_synthetic(spec, 1, tmp_path)
        sentences = load_corpus(paths["corpus"], paths["trees"])
        gold = {r["sentence_id"]: r for r in _read_jsonl(paths["gold_sentences"])}
        for sent in sentences:
            row = gold[sent.id]
            aspect_i = row["aspect"].removeprefix("topic")
            for word, pos in zip(sent.tokens, sent.pos, strict=True):
                if pos == "NN":
                    assert word.startswith(f"t{aspect_i}noun")
                elif pos == "JJ":
                    assert word.startswith(f"{row['sentiment']}adj")
                else:
                    assert word in ("the", "is")

    def test_byte_identical_under_seed(self, tmp_path):
        spec = SyntheticSpec(n_sentences=50)
        a = generate_synthetic(spec, 42, tmp_path / "a")
        b = generate_synthetic(spec, 42, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes(), key

    def test_different_seeds_differ(self, tmp_path):
        spec = SyntheticSpec(n_sentences=50)
        a = generate_synthetic(spec, 1, tmp_path / "a")
        b = generate_synthetic(spec, 2, tmp_path / "b")
        assert a["corpus"].read_bytes() != b["corpus"].read_bytes()

    def test_gold_phrases_cover_extraction(self, tmp_path):
        spec = SyntheticSpec(n_sentences=40)
        paths = generate_synthetic(spec, 3, tmp_path)
        sentences = load_corpus(paths["corpus"], paths["trees"])
        gold_ids = {r["phrase_id"] for r in _read_jsonl(paths["gold_phrases"])}
        extracted = {p.id for s in sentences for p in extract_candidates(s)}
        assert extracted == gold_ids
        assert extracted  # rules actually fire

    def test_sentence_lengths_near_range(self, tmp_path):
        spec = SyntheticSpec(n_sentences=80, min_sentence_len=10, max_sentence_len=18)
        paths = generate_synthetic(spec, 4, tmp_path)
        sentences = load_corpus(paths["corpus"], paths["trees"])
        lengths = [len(s.tokens) for s in sentences]
        assert max(lengths) <= 18 + 2  # noise tokens may trail the last chunk
        assert sum(lengths) / len(lengths) > 8

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_categories=1).validate()
        with pytest.raises(ValueError):
            SyntheticSpec(keywords_per_category=40, vocab_per_category=4).validate()
        with pytest.raises(ValueError):
            SyntheticSpec(noise_word_ratio=1.0).validate()

    def test_targets_and_reviews_assigned(self, tmp_path):
        spec = SyntheticSpec(n_sentences=40, n_targets=3)
        paths = generate_synthetic(spec, 5, tmp_path)
        sentences = load_corpus(paths["corpus"], paths["trees"])
        targets = {s.target_id for s in sentences}
        assert targets <= {"t0", "t1", "t2"} and len(targets) > 1
        assert all(s.review_id.startswith(s.target_id) for s in sentences)
