"""Planted synthetic corpus generator for desk-scale experiments.

Each sentence draws its nouns from one aspect's vocabulary and its
adjectives from one sentiment's vocabulary, assembled into chunks that the
extraction rules recover: "the ADJ NOUN" (amod) and "the NOUN is ADJ"
(nsubj, with an NP+VP tree).  Noise tokens come from a shared off-topic pool
and never join a phrase.  Output is CoNLL-U + trees + schema files + gold
labels, byte-identical under a fixed seed.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import ROOT, ConstNode, DepArc, Sentence, sentence_to_conllu
from .extraction import extract_candidates

_NOISE_POOL = 30
_SENTENCES_PER_REVIEW = 4


@dataclass
class SyntheticSpec:
    n_categories: int = 2
    vocab_per_category: int = 30
    n_sentences: int = 2000
    min_sentence_len: int = 10
    max_sentence_len: int = 18
    keywords_per_category: int = 4
    noise_word_ratio: float = 0.05
    n_targets: int = 4

    def validate(self):
        if self.n_categories < 2:
            raise ValueError("need at least 2 categories")
        if self.keywords_per_category > self.vocab_per_category:
            raise ValueError("keyword count exceeds vocab_per_category")
        if self.keywords_per_category < 1 or self.vocab_per_category < 1:
            raise ValueError("counts must be >= 1")
        if not 1 <= self.min_sentence_len <= self.max_sentence_len:
            raise ValueError("bad sentence length range")
        if not 0 <= self.noise_word_ratio < 1:
            raise ValueError("noise_word_ratio must be in [0, 1)")
        if self.n_targets < 1 or self.n_sentences < 1:
            raise ValueError("counts must be >= 1")


def _aspect_nouns(spec: SyntheticSpec, c: int) -> list[str]:
    return [f"t{c}noun{i}" for i in range(spec.vocab_per_category)]


def _sentiment_adjs(spec: SyntheticSpec, name: str) -> list[str]:
    return [f"{name}adj{i}" for i in range(spec.vocab_per_category)]


_SENTIMENTS = ("good", "bad")


class _Builder:
    """Accumulates one sentence's tokens, POS tags, arcs, and root-level tree nodes."""

    def __init__(self):
        self.tokens: list[str] = []
        self.pos: list[str] = []
        self.arcs: list[DepArc] = []
        self.nodes: list[ConstNode] = []
        self.root: int | None = None

    def add(self, surface: str, pos: str) -> int:
        idx = len(self.tokens)
        self.tokens.append(surface)
        self.pos.append(pos)
        return idx

    def leaf(self, pos: str, idx: int) -> ConstNode:
        return ConstNode(pos, (idx, idx + 1), [], self.tokens[idx])

    def attach_root(self, idx: int, relation: str):
        if self.root is None:
            self.root = idx
            self.arcs.append(DepArc(ROOT, idx, "root"))
        else:
            self.arcs.append(DepArc(self.root, idx, relation))


def _amod_chunk(b: _Builder, rng, noun: str, adj: str):
    """[the] ADJ NOUN with an amod arc; tree chunk is a bare NP."""
    det = None
    if rng.random() < 0.5:
        det = b.add("the", "DT")
    a = b.add(adj, "JJ")
    n = b.add(noun, "NN")
    if det is not None:
        b.arcs.append(DepArc(n, det, "det"))
    b.arcs.append(DepArc(n, a, "amod"))
    b.attach_root(n, "conj")
    kids = ([b.leaf("DT", det)] if det is not None else []) + [b.leaf("JJ", a), b.leaf("NN", n)]
    b.nodes.append(ConstNode("NP", (kids[0].span[0], n + 1), kids))


def _copular_chunk(b: _Builder, rng, noun: str, adj: str):
    """[the] NOUN is ADJ with an nsubj arc; tree chunk is NP followed by VP."""
    det = None
    if rng.random() < 0.5:
        det = b.add("the", "DT")
    n = b.add(noun, "NN")
    cop = b.add("is", "VBZ")
    a = b.add(adj, "JJ")
    if det is not None:
        b.arcs.append(DepArc(n, det, "det"))
    b.arcs.append(DepArc(a, n, "nsubj"))
    b.arcs.append(DepArc(a, cop, "cop"))
    b.attach_root(a, "conj")
    np_kids = ([b.leaf("DT", det)] if det is not None else []) + [b.leaf("NN", n)]
    b.nodes.append(ConstNode("NP", (np_kids[0].span[0], n + 1), np_kids))
    vp = ConstNode("VP", (cop, a + 1), [b.leaf("VBZ", cop), ConstNode("ADJP", (a, a + 1), [b.leaf("JJ", a)])])
    b.nodes.append(vp)


def _noise(b: _Builder, word: str):
    idx = b.add(word, "RB")
    b.arcs.append(DepArc(b.root, idx, "dep"))
    b.nodes.append(ConstNode("ADVP", (idx, idx + 1), [b.leaf("RB", idx)]))


def build_sentence(
    spec: SyntheticSpec,
    rng: np.random.Generator,
    sid: str,
    target: str,
    review: str,
    aspect: int,
    sentiment: int,
) -> Sentence:
    nouns = _aspect_nouns(spec, aspect)
    adjs = _sentiment_adjs(spec, _SENTIMENTS[sentiment])
    length = int(rng.integers(spec.min_sentence_len, spec.max_sentence_len + 1))
    b = _Builder()
    while True:
        noun = nouns[int(rng.integers(len(nouns)))]
        adj = adjs[int(rng.integers(len(adjs)))]
        chunk = _copular_chunk if rng.random() < 0.5 else _amod_chunk
        chunk(b, rng, noun, adj)
        if rng.random() < spec.noise_word_ratio * 3:
            _noise(b, f"fill{int(rng.integers(_NOISE_POOL))}")
        if len(b.tokens) + 4 > length:
            break
    tree = ConstNode("S", (0, len(b.tokens)), b.nodes)
    return Sentence(sid, target, review, b.tokens, b.pos, b.arcs, tree)


def generate_synthetic(spec: SyntheticSpec, seed: int, out_dir) -> dict[str, Path]:
    """Write corpus.conllu, corpus.trees, schema files, and gold labels.

    Returns the emitted paths.  Gold phrase labels are produced by running
    candidate extraction on each generated sentence, so they cover exactly
    the phrases the pipeline will see.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    conllu_parts, tree_lines = [], []
    gold_sentences, gold_phrases = [], []
    target = "t0"
    for i in range(spec.n_sentences):
        if i % _SENTENCES_PER_REVIEW == 0:
            target = f"t{int(rng.integers(spec.n_targets))}"
        review = f"{target}r{i // _SENTENCES_PER_REVIEW}"
        aspect = int(rng.integers(spec.n_categories))
        sentiment = int(rng.integers(2))
        sent = build_sentence(spec, rng, f"s{i}", target, review, aspect, sentiment)
        conllu_parts.append(sentence_to_conllu(sent))
        tree_lines.append(sent.tree.to_bracketed())
        gold_sentences.append(
            {"sentence_id": sent.id, "aspect": f"topic{aspect}", "sentiment": _SENTIMENTS[sentiment]}
        )
        for phrase in extract_candidates(sent):
            gold_phrases.append(
                {"phrase_id": phrase.id, "aspect": f"topic{aspect}", "sentiment": _SENTIMENTS[sentiment]}
            )

    paths = {
        "corpus": out / "corpus.conllu",
        "trees": out / "corpus.trees",
        "aspect_schema": out / "aspects.txt",
        "sentiment_schema": out / "sentiments.txt",
        "gold_sentences": out / "gold_sentences.jsonl",
        "gold_phrases": out / "gold_phrases.jsonl",
    }
    paths["corpus"].write_text("".join(conllu_parts), encoding="utf-8")
    paths["trees"].write_text("\n".join(tree_lines) + "\n", encoding="utf-8")

    k = spec.keywords_per_category
    aspect_lines = [
        f"topic{c}: " + " ".join(_aspect_nouns(spec, c)[:k]) for c in range(spec.n_categories)
    ]
    sentiment_lines = [f"{s}: " + " ".join(_sentiment_adjs(spec, s)[:k]) for s in _SENTIMENTS]
    paths["aspect_schema"].write_text("\n".join(aspect_lines) + "\n", encoding="utf-8")
    paths["sentiment_schema"].write_text("\n".join(sentiment_lines) + "\n", encoding="utf-8")

    with open(paths["gold_sentences"], "w", encoding="utf-8") as f:
        for row in gold_sentences:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    with open(paths["gold_phrases"], "w", encoding="utf-8") as f:
        for row in gold_phrases:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    return paths
