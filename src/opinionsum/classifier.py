"""Span-aware contextual classifier trained on soft targets.

ReferenceEncoder is a small trainable stand-in for a large pretrained
encoder: token embeddings + sinusoidal positions, one scaled dot-product
self-attention layer, mean-pool over the phrase span (or whole sentence),
and a linear softmax head.  Gradients are computed analytically in numpy.
Inference attends over each sentence once and pools all of its phrase spans
from that pass (`encode_spans`); the pooled vectors are the clustering space.
"""

import json
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .corpus import Sentence, Vocabulary
from .distill import distill_loss

_CLIP_NORM = 5.0
_PARAM_ORDER = ("emb", "wq", "wk", "wv", "wo", "bo")


class TrainingError(RuntimeError):
    pass


@dataclass
class ClassifierInput:
    token_ids: np.ndarray
    span: tuple[int, int] | None = None  # [start, end) within token_ids

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.intp)
        if len(self.token_ids) == 0:
            raise ValueError("empty input")
        if self.span is not None:
            _check_span(self.span, len(self.token_ids))


def _check_span(span: tuple[int, int], n: int) -> None:
    s, e = span
    if not (0 <= s < e <= n):
        raise ValueError(f"span {span} out of bounds for length {n}")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 1

    def validate(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def token_ids(vocab: Vocabulary, surfaces: list[str]) -> np.ndarray:
    """Map surfaces to vocabulary ids; unknown tokens get the reserved UNK id
    len(vocab)."""
    unk = len(vocab)
    ids = [vocab.id_of(s) for s in surfaces]
    return np.asarray([unk if i is None else i for i in ids], dtype=np.intp)


_POS_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _positions(n: int, dim: int) -> np.ndarray:
    got = _POS_CACHE.get((n, dim))
    if got is None:
        pos = np.arange(n)[:, None]
        i = np.arange(dim)[None, :]
        angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
        got = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
        _POS_CACHE[(n, dim)] = got
    return got


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class ReferenceEncoder:
    def __init__(self, vocab_size: int, dim: int, categories: list[str], rng_seed: int = 0):
        if dim < 2 or dim % 2:
            raise ValueError("dim must be even and >= 2")
        if len(categories) < 2:
            raise ValueError("need at least 2 categories")
        self.vocab_size = vocab_size
        self.dim = dim
        self.categories = list(categories)
        rng = np.random.default_rng(rng_seed)
        scale = 1.0 / np.sqrt(dim)
        self.params = {
            "emb": rng.normal(0.0, scale, (vocab_size, dim)),
            "wq": rng.normal(0.0, scale, (dim, dim)),
            "wk": rng.normal(0.0, scale, (dim, dim)),
            "wv": rng.normal(0.0, scale, (dim, dim)),
            "wo": rng.normal(0.0, scale, (dim, len(categories))),
            "bo": np.zeros(len(categories)),
        }

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def _attend(self, ids: np.ndarray):
        """Self-attention over one token sequence: e, q, k, v, att and h."""
        p = self.params
        e = p["emb"][ids] + _positions(len(ids), self.dim)
        q = e @ p["wq"]
        k = e @ p["wk"]
        v = e @ p["wv"]
        att = _softmax_rows(q @ k.T / np.sqrt(self.dim))
        return e, q, k, v, att, att @ v

    def _head(self, pooled: np.ndarray) -> np.ndarray:
        """Category distribution of one pooled vector."""
        return _softmax_rows(pooled @ self.params["wo"] + self.params["bo"])

    def _forward(self, inp: ClassifierInput):
        ids = inp.token_ids
        span = inp.span if inp.span is not None else (0, len(ids))
        e, q, k, v, att, h = self._attend(ids)
        pooled = h[span[0] : span[1]].mean(axis=0)
        cache = {"ids": ids, "span": span, "e": e, "q": q, "k": k, "v": v, "att": att, "h": h, "pooled": pooled}
        return self._head(pooled), cache

    def encode_spans(self, ids, spans) -> list[tuple[np.ndarray, np.ndarray]]:
        """(distribution, pooled vector) of each [start, end) span of one
        token sequence, from a single attention pass."""
        h = self._attend(ClassifierInput(ids).token_ids)[-1]
        out = []
        for span in spans:
            _check_span(span, len(h))
            pooled = h[span[0] : span[1]].mean(axis=0)
            out.append((self._head(pooled), pooled))
        return out

    def predict(self, inp: ClassifierInput) -> np.ndarray:
        return self._forward(inp)[0]

    def encode(self, inp: ClassifierInput) -> np.ndarray:
        return self._forward(inp)[1]["pooled"]

    def _backward(self, d_logits: np.ndarray, cache: dict, grads: dict) -> None:
        """Accumulate parameter gradients given d(loss)/d(logits)."""
        p = self.params
        span = cache["span"]
        e, q, k, v, att = cache["e"], cache["q"], cache["k"], cache["v"], cache["att"]
        grads["wo"] += np.outer(cache["pooled"], d_logits)
        grads["bo"] += d_logits
        d_pooled = p["wo"] @ d_logits
        d_h = np.zeros_like(e)
        d_h[span[0] : span[1]] = d_pooled / (span[1] - span[0])
        d_att = d_h @ v.T
        d_v = att.T @ d_h
        # softmax backward, rows independent
        d_scores = att * (d_att - np.sum(d_att * att, axis=1, keepdims=True))
        d_scores /= np.sqrt(self.dim)
        d_q = d_scores @ k
        d_k = d_scores.T @ q
        d_e = d_q @ p["wq"].T + d_k @ p["wk"].T + d_v @ p["wv"].T
        grads["wq"] += e.T @ d_q
        grads["wk"] += e.T @ d_k
        grads["wv"] += e.T @ d_v
        np.add.at(grads["emb"], cache["ids"], d_e)


def batch_loss_and_grads(model: ReferenceEncoder, items) -> tuple[float, dict]:
    """Mean distillation loss over (input, target) items plus its parameter
    gradients."""
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    total = 0.0
    inv = 1.0 / len(items)
    for inp, target in items:
        y, cache = model._forward(inp)
        total += distill_loss(target, y)
        model._backward((y - np.asarray(target)) * inv, cache, grads)
    return total * inv, grads


def _clip_global_norm(grads: dict, max_norm: float) -> None:
    sq = sum(float(np.sum(g * g)) for g in grads.values())
    norm = np.sqrt(sq)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale


def _fit(model: ReferenceEncoder, items: list, config: TrainConfig, seed: int) -> list[float]:
    """Minibatch SGD on the distillation loss; returns per-batch losses."""
    config.validate()
    if not items:
        return []
    rng = np.random.default_rng(seed)
    trajectory = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(items), config.batch_size):
            batch = [items[i] for i in order[start : start + config.batch_size]]
            loss, grads = batch_loss_and_grads(model, batch)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss in epoch {epoch}, batch at offset {start}"
                )
            _clip_global_norm(grads, _CLIP_NORM)
            for name, g in grads.items():
                model.params[name] -= config.learning_rate * g
            trajectory.append(float(loss))
    return trajectory


def train_on_sentences(
    model: ReferenceEncoder,
    pseudo,
    corpus: list[Sentence],
    vocab: Vocabulary,
    config: TrainConfig,
    seed: int = 0,
) -> tuple[ReferenceEncoder, list[float]]:
    """Fit the model on soft sentence labels (whole sentence as the unit)."""
    by_id = {s.id: s for s in corpus}
    items = []
    for label in pseudo:
        sent = by_id.get(label.sentence_id)
        if sent is None:
            raise ValueError(f"pseudo label for unknown sentence {label.sentence_id!r}")
        ids = token_ids(vocab, [t.surface for t in sent.tokens])
        items.append((ClassifierInput(ids), label.distribution))
    return model, _fit(model, items, config, seed)


def finetune_on_phrases(
    model: ReferenceEncoder,
    pseudo,
    phrases_by_id: dict,
    corpus: list[Sentence],
    vocab: Vocabulary,
    config: TrainConfig,
    seed: int = 0,
) -> tuple[ReferenceEncoder, list[float]]:
    """Fit on phrase labels: the input is the full sentence with the phrase's
    covering span marked.  Excluded labels are skipped; Background labels
    train toward the uniform distribution they carry."""
    by_id = {s.id: s for s in corpus}
    items = []
    for label in pseudo:
        if label.distribution is None:
            continue
        phrase = phrases_by_id.get(label.phrase_id)
        if phrase is None:
            raise ValueError(f"pseudo label for unknown phrase {label.phrase_id!r}")
        sent = by_id[phrase.sentence_id]
        items.append((phrase_input(vocab, sent, phrase), label.distribution))
    return model, _fit(model, items, config, seed)


def phrase_span(phrase) -> tuple[int, int]:
    """The phrase's covering span [min_idx, max_idx+1)."""
    return (phrase.token_indices[0], phrase.token_indices[-1] + 1)


def phrase_input(vocab: Vocabulary, sentence: Sentence, phrase) -> ClassifierInput:
    """Full sentence plus the phrase's covering span."""
    return ClassifierInput(token_ids(vocab, [t.surface for t in sentence.tokens]), phrase_span(phrase))


def encode_phrases(model: ReferenceEncoder, vocab: Vocabulary, sentences: dict, phrases: list):
    """(distribution, pooled vector) per phrase, in phrase order, from one
    encoder pass per run of consecutive phrases of one sentence (extraction
    lists each sentence's phrases together).  `sentences` maps id to Sentence."""
    out = []
    for sid, run in groupby(phrases, key=lambda p: p.sentence_id):
        ids = token_ids(vocab, [t.surface for t in sentences[sid].tokens])
        out.extend(model.encode_spans(ids, [phrase_span(p) for p in run]))
    return out


def classify_phrase(y: np.ndarray, theta2: float, categories: list[str]) -> str | None:
    """Argmax category if its probability clears theta2, else None.  Exact
    ties resolve to the earliest category in schema order."""
    i = int(np.argmax(y))
    return categories[i] if y[i] >= theta2 else None


CHECKPOINT_FORMAT = "refenc-v1"  # the header's "format"; pipeline stage hashes include it


def _array_layout(model: ReferenceEncoder) -> list:
    return [[name, list(model.params[name].shape)] for name in _PARAM_ORDER]


def save_checkpoint(model: ReferenceEncoder, path, rng_seed: int = 0, schema_sha256: str = "") -> None:
    """JSON header line, then the parameter arrays as little-endian float32
    in the documented order."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "dim": model.dim,
        "vocab_size": model.vocab_size,
        "categories": model.categories,
        "schema_sha256": schema_sha256,
        "rng_seed": rng_seed,
        "arrays": _array_layout(model),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for name in _PARAM_ORDER:
            f.write(model.params[name].astype("<f4").tobytes())


def load_checkpoint(path) -> ReferenceEncoder:
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline())
        except ValueError:  # not JSON, or not text
            header = None
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: not a classifier checkpoint")
        missing = [key for key in ("vocab_size", "dim", "categories") if key not in header]
        if missing:
            raise ValueError(f"{path}: checkpoint header lacks {missing}")
        raw = f.read()
    model = ReferenceEncoder(header["vocab_size"], header["dim"], header["categories"])
    if header.get("arrays") != _array_layout(model):
        raise ValueError(f"{path}: arrays {header.get('arrays')} are not the expected {_array_layout(model)}")
    offset = 0
    for name, shape in header["arrays"]:
        size = int(np.prod(shape)) * 4
        flat = np.frombuffer(raw[offset : offset + size], dtype="<f4")
        if flat.size * 4 != size:
            raise ValueError(f"{path}: truncated weight block at {name!r}")
        model.params[name] = flat.astype(np.float64).reshape(shape)
        offset += size
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes")
    return model
