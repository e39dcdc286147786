"""Span-aware contextual classifier trained on soft targets.

ReferenceEncoder is a small trainable stand-in for a large pretrained
encoder: token embeddings + sinusoidal positions, one scaled dot-product
self-attention layer, mean-pool over the phrase span (or whole sentence),
and a linear softmax head.  One attention forward (`_forward`) serves
training, over minibatches padded to their longest input with the padded
keys masked and one analytic backward pass (`batch_loss_and_grads`), and
inference, over stacks of sentences of one token count: stack, never pad, so
every sum runs in the order of a one-sentence pass.  The inference head is a
stack of vector-matrix products, which keeps the one-vector head's bits.
The pooled vectors are the clustering space.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arrayfile import load_arrays, save_arrays
from .corpus import CorpusError, Vocabulary

_CLIP_NORM = 5.0
_PARAM_ORDER = ("emb", "wq", "wk", "wv", "wo", "bo")
_STACK_ROWS = 512  # sentences per inference pass, which bounds its (B, L, L) arrays


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
        if not 0 < self.learning_rate < math.inf:  # also rejects NaN
            raise ValueError("learning_rate must be positive and finite")
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


@functools.cache
def _positions(n: int, dim: int) -> np.ndarray:
    pos = np.arange(n)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class ReferenceEncoder:
    def __init__(self, vocab_size: int, dim: int, categories: list[str], seed: int = 0):
        if dim < 2 or dim % 2:
            raise ValueError("dim must be even and >= 2")
        if len(categories) < 2:
            raise ValueError("need at least 2 categories")
        self.vocab_size = vocab_size
        self.dim = dim
        self.categories = list(categories)
        rng = np.random.default_rng(seed)
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

    def _forward(self, ids: np.ndarray, key_mask=None):
        """Self-attention over a (B, L) stack of token ids: x, q, k, v, att
        and h.  key_mask (B, 1, L), if given, is -inf at padded keys."""
        p = self.params
        x = p["emb"][ids] + _positions(ids.shape[1], self.dim)
        q, k, v = x @ p["wq"], x @ p["wk"], x @ p["wv"]
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(self.dim)
        if key_mask is not None:
            scores += key_mask
        att = _softmax_rows(scores)
        return x, q, k, v, att, att @ v

    def _head(self, pooled: np.ndarray) -> np.ndarray:
        """Category distribution of each row of pooled, each row its own
        vector-matrix product, so it has the bits of a lone vector."""
        return _softmax_rows((pooled[:, None, :] @ self.params["wo"])[:, 0] + self.params["bo"])

    def predict(self, inp: ClassifierInput) -> np.ndarray:
        return self._head(self.encode(inp)[None])[0]

    def encode(self, inp: ClassifierInput) -> np.ndarray:
        s, e = _span_of(inp)
        return self._forward(inp.token_ids[None])[-1][0, s:e].mean(axis=0)


def _span_of(inp: ClassifierInput) -> tuple[int, int]:
    return inp.span if inp.span is not None else (0, len(inp.token_ids))


@dataclass
class _PaddedItems:
    """(input, target) items as arrays, one row per item, padded to the
    longest input."""

    ids: np.ndarray  # (B, L) token ids, 0 past an input's end
    lengths: np.ndarray  # (B,) input lengths
    weights: np.ndarray  # (B, L) span pooling: pooled = weights @ h
    targets: np.ndarray  # (B, C)

    @classmethod
    def of(cls, items) -> "_PaddedItems":
        lengths = np.array([len(inp.token_ids) for inp, _ in items])
        valid = np.arange(lengths.max()) < lengths[:, None]
        ids = np.zeros(valid.shape, dtype=np.intp)
        ids[valid] = np.concatenate([inp.token_ids for inp, _ in items])
        weights = np.zeros(valid.shape)
        for row, (inp, _) in zip(weights, items):
            s, e = _span_of(inp)
            row[s:e] = 1.0 / (e - s)
        return cls(ids, lengths, weights, np.array([target for _, target in items], dtype=float))

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "_PaddedItems":
        """The items at rows, padded to the longest of them."""
        lengths = self.lengths[rows]
        width = lengths.max()
        return _PaddedItems(self.ids[rows, :width], lengths, self.weights[rows, :width], self.targets[rows])


def batch_loss_and_grads(model: ReferenceEncoder, items) -> tuple[float, dict]:
    """Mean distillation loss over (input, target) items, a list or already
    padded, plus its parameter gradients, from one forward and one backward
    pass over the whole batch.  Padded keys get no attention and padded rows
    no gradient."""
    batch = items if isinstance(items, _PaddedItems) else _PaddedItems.of(items)
    ids, weights, targets = batch.ids, batch.weights, batch.targets
    valid = np.arange(ids.shape[1]) < batch.lengths[:, None]
    p, dim = model.params, model.dim
    x, q, k, v, att, h = model._forward(ids, np.where(valid, 0.0, -np.inf)[:, None, :])
    pooled = np.einsum("bl,bld->bd", weights, h)
    y = _softmax_rows(pooled @ p["wo"] + p["bo"])
    # distill.distill_loss per row: zero targets add nothing, y clamped at 1e-12
    pos = targets > 0
    terms = targets * np.log(np.where(pos, targets, 1.0) / np.maximum(y, 1e-12))
    inv = 1.0 / len(batch)
    loss = float(np.sum(terms, where=pos)) * inv

    d_logits = (y - targets) * inv
    d_h = weights[:, :, None] * (d_logits @ p["wo"].T)[:, None, :]
    d_att = d_h @ v.transpose(0, 2, 1)
    d_v = att.transpose(0, 2, 1) @ d_h
    # softmax backward, rows independent
    d_scores = att * (d_att - np.sum(d_att * att, axis=-1, keepdims=True))
    d_scores /= np.sqrt(dim)
    d_q = d_scores @ k
    d_k = d_scores.transpose(0, 2, 1) @ q
    d_x = d_q @ p["wq"].T + d_k @ p["wk"].T + d_v @ p["wv"].T
    x_t = x.reshape(-1, dim).T
    grads = {
        "emb": np.zeros_like(p["emb"]),
        "wq": x_t @ d_q.reshape(-1, dim),
        "wk": x_t @ d_k.reshape(-1, dim),
        "wv": x_t @ d_v.reshape(-1, dim),
        "wo": pooled.T @ d_logits,
        "bo": d_logits.sum(axis=0),
    }
    np.add.at(grads["emb"], ids[valid], d_x[valid])
    return loss, grads


def _flatten_params(model: ReferenceEncoder) -> np.ndarray:
    """Make model.params views of one vector, in _PARAM_ORDER, and return it,
    so that a training step clips and updates every parameter at once."""
    flat = np.concatenate([model.params[name].ravel() for name in _PARAM_ORDER])
    ends = np.cumsum([model.params[name].size for name in _PARAM_ORDER])
    parts = np.split(flat, ends[:-1])
    model.params = {name: part.reshape(model.params[name].shape) for name, part in zip(_PARAM_ORDER, parts)}
    return flat


def _fit(model: ReferenceEncoder, items: list, config: TrainConfig, seed: int) -> list[float]:
    """Minibatch SGD on the distillation loss, with the gradient's global
    norm clipped at _CLIP_NORM; returns per-batch losses."""
    config.validate()
    if not items:
        return []
    flat = _flatten_params(model)
    padded = _PaddedItems.of(items)
    rng = np.random.default_rng(seed)
    trajectory = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(items), config.batch_size):
            batch = padded.take(order[start : start + config.batch_size])
            loss, grads = batch_loss_and_grads(model, batch)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss in epoch {epoch}, batch at offset {start}"
                )
            g = np.concatenate([grads[name].ravel() for name in _PARAM_ORDER])
            norm = np.sqrt(g @ g)
            if norm > _CLIP_NORM:
                g *= _CLIP_NORM / norm
            flat -= config.learning_rate * g
            trajectory.append(float(loss))
    return trajectory


def fit(model: ReferenceEncoder, rows, vocab: Vocabulary, config: TrainConfig, seed: int) -> list[float]:
    """Fit the model on (sentence, span or None, distribution) rows: the
    input is the whole sentence, pooled over the span, or over every token
    for None.  Returns the per-batch losses."""
    items = [
        (ClassifierInput(token_ids(vocab, sentence.tokens), span), distribution)
        for sentence, span, distribution in rows
    ]
    return _fit(model, items, config, seed)


def phrase_span(phrase) -> tuple[int, int]:
    """The phrase's covering span [min_idx, max_idx+1)."""
    return (phrase.token_indices[0], phrase.token_indices[-1] + 1)


def encode_phrases(model: ReferenceEncoder, vocab: Vocabulary, sentences: dict, phrases: list):
    """Distributions (P, C) and pooled vectors (P, dim) of the phrases, in
    phrase order.  The phrases' sentences are stacked by token count, one
    attention pass per count and at most _STACK_ROWS sentences, whose spans
    are pooled before the next pass.  `sentences` maps id to Sentence."""
    members = {}  # sentence id -> indices of its phrases
    for k, phrase in enumerate(phrases):
        members.setdefault(phrase.sentence_id, []).append(k)
    ids = {sid: token_ids(vocab, sentences[sid].tokens) for sid in members}
    pooled = np.zeros((len(phrases), model.dim))
    for n in set(map(len, ids.values())):
        stack = [sid for sid, row in ids.items() if len(row) == n]
        for part in (stack[j : j + _STACK_ROWS] for j in range(0, len(stack), _STACK_ROWS)):
            for sid, h in zip(part, model._forward(np.stack([ids[sid] for sid in part]))[-1]):
                for k in members[sid]:
                    span = phrase_span(phrases[k])
                    _check_span(span, n)
                    pooled[k] = h[slice(*span)].mean(axis=0)
    return model._head(pooled), pooled


def classify_phrase(y: np.ndarray, theta2: float, categories: list[str]) -> str | None:
    """Argmax category if its probability clears theta2, else None.  Exact
    ties resolve to the earliest category in schema order."""
    i = int(np.argmax(y))
    return categories[i] if y[i] >= theta2 else None


CHECKPOINT_FORMAT = "refenc-v2"  # the checkpoint's arrayfile kind
_CHECKPOINT_KEYS = ("vocab_size", "dim", "categories")  # its header: ReferenceEncoder's arguments, in order


def _checkpoint_layout(header: dict) -> list:
    dim, n_cats = header["dim"], len(header["categories"])
    shapes = ([header["vocab_size"], dim], [dim, dim], [dim, dim], [dim, dim], [dim, n_cats], [n_cats])
    return [[name, "<f4", shape] for name, shape in zip(_PARAM_ORDER, shapes)]


def save_checkpoint(model: ReferenceEncoder, path) -> None:
    """The parameter arrays as float32 in the arrayfile container, in the
    order of _PARAM_ORDER; the header holds what load_checkpoint reads."""
    meta = {key: getattr(model, key) for key in _CHECKPOINT_KEYS}
    save_arrays(path, CHECKPOINT_FORMAT, meta, [(name, "<f4", model.params[name]) for name in _PARAM_ORDER])


def load_checkpoint(path) -> ReferenceEncoder:
    header, arrays = load_arrays(path, CHECKPOINT_FORMAT, _CHECKPOINT_KEYS, _checkpoint_layout)
    try:
        model = ReferenceEncoder(*(header[key] for key in _CHECKPOINT_KEYS))
    except ValueError as exc:  # a self-consistent layout of dims the encoder rejects
        raise CorpusError(f"{path}: {exc}") from None
    model.params = dict(zip(_PARAM_ORDER, arrays))
    return model
