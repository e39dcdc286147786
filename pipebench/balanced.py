"""Corpus generator with fixed group sizes.

`opinionsum.synthetic.generate_synthetic` draws each review's target and each
sentence's aspect and sentiment at random, so the size of a (target, aspect,
sentiment) group moves with the seed; clustering costs grow as the cube of a
group's size and its memory as the square, so one seed's workload could do a
third more work than another's.  `generate_balanced` writes the same files in
the same formats from the package's own sentence builder, but deals targets
to reviews and (aspect, sentiment) pairs to sentences in equal shares, each
in a seeded random order: the seed changes the content, not the amount of
work.
"""

import json
from pathlib import Path

import numpy as np

from opinionsum.corpus import sentence_to_conllu
from opinionsum.extraction import extract_candidates
from opinionsum.synthetic import SyntheticSpec, build_sentence

SENTIMENTS = ("good", "bad")
SENTENCES_PER_REVIEW = 4


def _dealt(rng: np.random.Generator, values: list, n: int) -> list:
    """n values in equal shares (to within one), in a random order."""
    return [values[i] for i in rng.permutation(np.arange(n) % len(values))]


def generate_balanced(spec: SyntheticSpec, seed: int, out_dir) -> dict[str, Path]:
    spec.validate()
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    n_reviews = -(-spec.n_sentences // SENTENCES_PER_REVIEW)
    review_targets = _dealt(rng, list(range(spec.n_targets)), n_reviews)
    target_of = [review_targets[i // SENTENCES_PER_REVIEW] for i in range(spec.n_sentences)]
    pairs = [(a, s) for a in range(spec.n_categories) for s in range(len(SENTIMENTS))]
    labels = [None] * spec.n_sentences
    for t in range(spec.n_targets):
        rows = [i for i, target in enumerate(target_of) if target == t]
        for i, pair in zip(rows, _dealt(rng, pairs, len(rows))):
            labels[i] = pair

    conllu, trees, gold_sentences, gold_phrases = [], [], [], []
    for i, (target, (aspect, sentiment)) in enumerate(zip(target_of, labels)):
        sent = build_sentence(spec, rng, f"s{i}", f"t{target}", f"t{target}r{i // SENTENCES_PER_REVIEW}",
                              aspect, sentiment)
        conllu.append(sentence_to_conllu(sent))
        trees.append(sent.tree.to_bracketed())
        gold = {"aspect": f"topic{aspect}", "sentiment": SENTIMENTS[sentiment]}
        gold_sentences.append({"sentence_id": sent.id, **gold})
        gold_phrases.extend({"phrase_id": p.id, **gold} for p in extract_candidates(sent))

    paths = {
        "corpus": out / "corpus.conllu",
        "trees": out / "corpus.trees",
        "aspect_schema": out / "aspects.txt",
        "sentiment_schema": out / "sentiments.txt",
        "gold_sentences": out / "gold_sentences.jsonl",
        "gold_phrases": out / "gold_phrases.jsonl",
    }
    k = spec.keywords_per_category
    paths["corpus"].write_text("".join(conllu), encoding="utf-8")
    paths["trees"].write_text("\n".join(trees) + "\n", encoding="utf-8")
    paths["aspect_schema"].write_text(
        "".join(f"topic{c}: " + " ".join(f"t{c}noun{i}" for i in range(k)) + "\n" for c in range(spec.n_categories)),
        encoding="utf-8",
    )
    paths["sentiment_schema"].write_text(
        "".join(f"{s}: " + " ".join(f"{s}adj{i}" for i in range(k)) + "\n" for s in SENTIMENTS), encoding="utf-8"
    )
    for key, rows in (("gold_sentences", gold_sentences), ("gold_phrases", gold_phrases)):
        paths[key].write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")
    return paths
