"""Joint word/sentence/category embedding on the unit sphere.

All vectors are unit-norm and compared by dot product (directional
similarity).  Training maximizes

    L_inter + L_intra + L_gen

where the two hinge terms keep category directions mutually separated and
pull each category's seed keywords toward it:

    L_inter = sum_{i != j} min(0, 1 - a_i.a_j - m_inter)
    L_intra = sum_i sum_{w in keywords(i)} min(0, w.a_i - m_intra)

and L_gen is a negative-sampling objective over three positive-pair
processes: (sentence, assigned category), (word, its sentence), and
(word, context word within a window).  For a positive pair (u, v) and
frequency-sampled negative words v', the contribution is

    log sigmoid(u.v) + sum_{v'} log sigmoid(-u.v')

Every update is followed by re-projection onto the sphere.  Sentences are
assigned to their argmax-similarity category at the start of each epoch.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrayfile import load_arrays, save_arrays
from .corpus import CategorySchema, Sentence, Vocabulary

# Exponent flattening the unigram negative-sampling distribution.
_NEG_POWER = 0.75

_NO_ROWS = np.empty(0, dtype=np.intp)

# Sentences whose negatives one generator call draws: the same stream as one
# draw per sentence, with the draw's memory bounded by the block.
_NEG_BLOCK = 64
_BLOCK_ROWS = 4096  # phrases per stacked phrase_similarity product, to bound its memory


class TrainingError(RuntimeError):
    pass


@dataclass
class EmbedConfig:
    dim: int = 100
    window: int = 5
    epochs: int = 20
    learning_rate: float = 0.025
    negatives_per_positive: int = 5
    m_inter: float = 0.7
    m_intra: float = 0.5

    def validate(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:  # also rejects NaN
            raise ValueError("learning_rate must be positive and finite")
        if not 0 < self.m_intra < 1:
            raise ValueError("m_intra must be in (0, 1)")
        if not 0 < self.m_inter <= 2:
            raise ValueError("m_inter must be in (0, 2]")


@dataclass
class SphereSpace:
    dim: int
    words: list[str]
    sent_ids: list[str]
    cat_names: list[str]
    word_vecs: np.ndarray  # (n_words, dim)
    sent_vecs: np.ndarray  # (n_sents, dim)
    cat_vecs: np.ndarray  # (n_cats, dim)

    def __post_init__(self):
        self._word_ids = {w: i for i, w in enumerate(self.words)}
        self._sent_rows = {s: i for i, s in enumerate(self.sent_ids)}

    def word_id(self, word: str) -> int | None:
        return self._word_ids.get(word.casefold())

    def sent_row(self, sentence_id: str) -> int:
        row = self._sent_rows.get(sentence_id)
        if row is None:
            raise ValueError(f"unknown sentence id {sentence_id!r}")
        return row


@dataclass
class TrainStats:
    gen_loss: float  # negative-sampling loss (>= 0, minimized)
    inter_loss: float  # hinge value at epoch end (<= 0)
    intra_loss: float  # hinge value at epoch end (<= 0)
    n_pairs: int


def _random_unit(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def init_space(
    vocab: Vocabulary,
    schema: CategorySchema,
    config: EmbedConfig,
    sentence_ids: list[str],
    seed: int = 0,
) -> SphereSpace:
    """Seeded initialization: words/sentences uniform on the sphere, each
    category at the normalized mean of its seed-keyword vectors."""
    config.validate()
    rng = np.random.default_rng(seed)
    words = [w for w, _ in vocab.words]
    word_vecs = _random_unit(rng, (len(words), config.dim))
    sent_vecs = _random_unit(rng, (len(sentence_ids), config.dim))
    cat_vecs = np.empty((len(schema.categories), config.dim))
    for ci, (name, keywords) in enumerate(schema.categories):
        ids = []
        for kw in keywords:
            wid = vocab.id_of(kw)
            if wid is None:
                raise ValueError(f"keyword {kw!r} of category {name!r} missing from vocabulary")
            ids.append(wid)
        mean = word_vecs[ids].mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-12:
            raise ValueError(f"degenerate keyword mean for category {name!r}")
        cat_vecs[ci] = mean / norm
    return SphereSpace(config.dim, words, list(sentence_ids), schema.names, word_vecs, sent_vecs, cat_vecs)


def _keyword_rows(space: SphereSpace, schema: CategorySchema) -> tuple[np.ndarray, np.ndarray]:
    """Flat (word_id, category_row) arrays over all seed keywords."""
    wids, crows = [], []
    for ci, (name, keywords) in enumerate(schema.categories):
        for kw in keywords:
            wid = space.word_id(kw)
            if wid is None:
                raise ValueError(f"keyword {kw!r} of category {name!r} missing from space")
            wids.append(wid)
            crows.append(ci)
    return np.asarray(wids, dtype=np.intp), np.asarray(crows, dtype=np.intp)


def _inter_value_grad(cat_vecs: np.ndarray, m_inter: float) -> tuple[float, np.ndarray]:
    gram = cat_vecs @ cat_vecs.T
    slack = 1.0 - gram - m_inter
    active = slack < 0.0
    np.fill_diagonal(active, False)
    if not active.any():
        return 0.0, np.zeros_like(cat_vecs)
    value = float(slack[active].sum())
    grad = -2.0 * (active.astype(cat_vecs.dtype) @ cat_vecs)
    return value, grad


def loss_inter(space: SphereSpace, m_inter: float) -> float:
    """Hinge penalty for category pairs closer than the inter margin; <= 0."""
    if len(space.cat_names) < 2:
        raise ValueError("need at least 2 categories")
    return _inter_value_grad(space.cat_vecs, m_inter)[0]


def _intra_value_grad(
    cat_vecs: np.ndarray,
    word_vecs: np.ndarray,
    kw_ids: np.ndarray,
    kw_cats: np.ndarray,
    m_intra: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Returns (value, grad wrt the kw word rows, grad wrt cat_vecs)."""
    kw_vecs = word_vecs[kw_ids]
    anchors = cat_vecs[kw_cats]
    dots = np.einsum("kd,kd->k", kw_vecs, anchors)
    slack = dots - m_intra
    active = slack < 0.0
    cat_grad = np.zeros_like(cat_vecs)
    if not active.any():
        return 0.0, np.zeros_like(kw_vecs), cat_grad
    value = float(slack[active].sum())
    word_grad = np.where(active[:, None], anchors, 0.0)
    np.add.at(cat_grad, kw_cats[active], kw_vecs[active])
    return value, word_grad, cat_grad


def loss_intra(space: SphereSpace, schema: CategorySchema, m_intra: float) -> float:
    """Hinge penalty for keywords farther than the intra margin from their
    category; <= 0."""
    kw_ids, kw_cats = _keyword_rows(space, schema)
    return _intra_value_grad(space.cat_vecs, space.word_vecs, kw_ids, kw_cats, m_intra)[0]


class _Plan(NamedTuple):
    """One sentence's index arrays, fixed for a whole training run."""

    label: str  # sentence id
    row: int  # sentence row
    u_ids: np.ndarray  # Q, the distinct u-side words ascending, then -1 for the sentence
    fixed: np.ndarray  # touched rows before the negatives: Q, context words, keep
    pos_u: np.ndarray  # U row of each positive pair but (sentence, category)
    pos_v: np.ndarray  # column word of each
    neg_u: np.ndarray  # U row of each pair's negatives, in pair order


def _plan(label: str, row: int, ww_u, ww_v, wx_u, keep) -> _Plan:
    """The plan of word-context pairs (ww_u, ww_v) and word-sentence pairs
    (wx_u), with the keep ids among the touched rows.  Its index arrays are
    int32, so a corpus's plans take no more memory than its pair lists."""
    q_ids, q_pos = np.unique(np.concatenate([ww_u, wx_u]), return_inverse=True)
    q = len(q_ids)
    fixed = np.unique(np.concatenate([q_ids, ww_v, keep]))
    pos_u = np.concatenate([q_pos[: len(ww_u)], np.full(len(wx_u), q)])
    arrays = (np.append(q_ids, -1), fixed, pos_u, np.concatenate([ww_v, wx_u]), np.append(q_pos, q))
    return _Plan(label, row, *(x.astype(np.int32) for x in arrays))


def _plan_value_grads(plan: _Plan, word_vecs, sent_vec, cat_vecs, cat_row, negs, mark, pos):
    """Value and gradients of the negative-sampling objective for one
    sentence's positive pairs: word-context pairs, then word-sentence pairs,
    then the single pair (sentence, cat_vecs[cat_row]), with pre-sampled
    negative word ids negs of shape (P, K) in that pair order.

    The u side of every pair is a word of Q or the sentence, so with
    U = [W[Q]; s] and the touched rows T (the plan's fixed rows and the
    negatives), every score is an entry of H = U @ W[T].T and every gradient
    is read off one coefficient matrix R of H's shape: W[T] gets R.T @ U and
    U gets R @ W[T].  A word-sentence pair (w, s) is scored as H[s, w], so
    its w gradient arrives through R.T @ U.  Cost is O(P*K + |Q|*|T|*dim);
    |T| nears P*K when the vocabulary is large, so on long sentences the
    products grow with the square of the sentence length.  mark (all False,
    and left so) and pos are scratch tables of V and V + 1 entries.

    Returns (value, rows, m, g): rows are the touched word ids ascending,
    m stacks [W[rows]; sent_vec; cat_vecs] and g holds the gradient of each
    row of m.
    """
    mark[plan.fixed] = True
    mark[negs] = True
    rows = np.flatnonzero(mark)
    mark[rows] = False
    t, q = len(rows), len(plan.u_ids) - 1
    pos[rows] = np.arange(t)
    pos[-1] = t  # the sentence's row of m, looked up by u_ids' -1
    m = np.concatenate((word_vecs[rows], sent_vec[None], cat_vecs))
    w_t = m[:t]
    u_t = pos[plan.u_ids]  # U's rows of m
    q_t = u_t[:q]
    u = m[u_t]
    h = u @ w_t.T  # (q + 1, t)

    # flat H index of every positive pair but (sentence, category), then of
    # every negative
    flat = np.concatenate([plan.pos_u * t + pos[plan.pos_v], (plan.neg_u[:, None] * t + pos[negs]).ravel()])
    n_pos = len(plan.pos_u)
    # signed scores: log sigmoid(z) summed over every pair and negative.
    # log sigmoid(z) = z - log1p(e^z); e^z stays finite, as z is a dot of
    # unit vectors in training.
    z = h.ravel()[flat]
    z[n_pos:] *= -1.0
    e = np.exp(z)
    cat_vec = cat_vecs[cat_row]
    s_cat = float(sent_vec @ cat_vec)
    e_cat = math.exp(s_cat)
    value = float(z.sum() - np.log1p(e).sum()) + s_cat - math.log1p(e_cat)

    coef = 1.0 / (1.0 + e)  # d log sigmoid(z) / dz
    coef[n_pos:] *= -1.0
    r = np.bincount(flat, weights=coef, minlength=(q + 1) * t).reshape(q + 1, t)
    g = np.zeros(m.shape)
    np.matmul(r.T, u, out=g[:t])
    d_u = r @ w_t
    g[q_t] += d_u[:q]
    a_cat = 1.0 / (1.0 + e_cat)
    g[t] = d_u[q] + a_cat * cat_vec
    g[t + 1 + cat_row] += a_cat * sent_vec
    return value, rows, m, g


def _pair_value_grads(word_vecs, sent_vec, cat_vec, ww_u, ww_v, wx_u, negs, keep=_NO_ROWS):
    """_plan_value_grads on a plan of word-context pairs (ww_u, ww_v) and
    word-sentence pairs (wx_u), with the keep ids among the touched rows.

    Returns (value, rows, grads, d_sent, d_cat): rows are the touched word
    ids ascending (keep included), grads their summed gradients.
    """
    n = len(word_vecs)
    mark, pos = np.zeros(n, dtype=bool), np.empty(n + 1, dtype=np.intp)
    plan = _plan("", 0, ww_u, ww_v, wx_u, keep)
    value, rows, _, g = _plan_value_grads(plan, word_vecs, sent_vec, cat_vec[None], 0, negs, mark, pos)
    t = len(rows)
    return value, rows, g[:t], g[t], g[t + 1]


@functools.cache
def _window_pairs(n: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j) with 0 < |i - j| <= h among n tokens, row-major;
    cached, so read-only."""
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    ci, cj = np.nonzero((gap > 0) & (gap <= h))
    ci.flags.writeable = cj.flags.writeable = False
    return ci, cj


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """The rows of m scaled to unit norm, in place."""
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))[:, None]
    if (norms < 1e-12).any():
        raise TrainingError("vector collapsed to zero norm")
    m /= norms
    return m


def _max_norm_dev(table: np.ndarray) -> float:
    """Max |norm - 1| over the rows of table; NaN if any row is NaN."""
    return float(np.max(np.abs(np.linalg.norm(table, axis=1) - 1.0), initial=0.0))


def check_norms(space: SphereSpace, tol: float = 1e-6) -> float:
    """Max |norm - 1| over all stored vectors; raises if above tol or not finite."""
    worst = float(np.max([_max_norm_dev(t) for t in (space.word_vecs, space.sent_vecs, space.cat_vecs)]))
    if not worst <= tol:
        raise TrainingError(f"unit-norm invariant violated: max deviation {worst:.3g}")
    return worst


class SphereTrainer:
    """SGD trainer; one optimizer step = one sentence's pairs + margin terms.

    Deterministic given the seed: sentences are visited in corpus order and
    all sampling comes from a single generator.  Each sentence's plan is
    built once here; the negatives of _NEG_BLOCK sentences are drawn at once.
    """

    def __init__(
        self,
        space: SphereSpace,
        corpus: list[Sentence],
        schema: CategorySchema,
        config: EmbedConfig,
        seed: int = 0,
    ):
        config.validate()
        if not corpus:
            raise TrainingError("corpus is empty")
        self.space = space
        self.config = config
        self.rng = np.random.default_rng(seed)
        self._kw_ids, self._kw_cats = _keyword_rows(space, schema)

        # The margin hinges come from one product x = C @ [C; W[kw]].T, as
        # slack (a + s * x) - m at flat indices `at` of x: 1 - a_i.a_j -
        # m_inter for each category pair i != j, then w.a_i - m_intra for
        # each keyword w of category i.
        n_cats, n_kw = len(space.cat_names), len(self._kw_ids)
        i, j = np.nonzero(~np.eye(n_cats, dtype=bool))
        self._pair_at = i * n_cats + j
        width = n_cats + n_kw
        self._hinge_at = np.concatenate([i * width + j, self._kw_cats * width + n_cats + np.arange(n_kw)])
        sizes = [len(i), n_kw]
        self._hinge_a = np.repeat([1.0, 0.0], sizes)
        self._hinge_s = np.repeat([-1.0, 1.0], sizes)
        self._hinge_m = np.repeat([config.m_inter, config.m_intra], sizes)

        self._plans: list[_Plan] = []
        counts = np.zeros(len(space.words))
        for sent in corpus:
            ids = [space.word_id(t) for t in sent.tokens]
            ids = np.asarray([i for i in ids if i is not None], dtype=np.intp)
            np.add.at(counts, ids, 1.0)
            ci, cj = _window_pairs(len(ids), config.window)
            self._plans.append(_plan(sent.id, space.sent_row(sent.id), ids[ci], ids[cj], ids, self._kw_ids))
        total = counts.sum()
        if total == 0:
            raise TrainingError("no in-vocabulary tokens in corpus")
        probs = counts**_NEG_POWER
        self._neg_cum = np.cumsum(probs / probs.sum())
        self._neg_cum[-1] = 1.0
        # Inverse-CDF guide table: a uniform draw r in bucket floor(r * G)
        # maps to an id in [guide[b], guide[b + 1]], reached by stepping past
        # each cumulative probability below r.  With G a power of two, r * G
        # and b / G are exact, so the ids equal searchsorted(cum, r).
        self._guide_n = 1 << (4 * len(counts) - 1).bit_length()
        self._guide = np.searchsorted(self._neg_cum, np.arange(self._guide_n + 1) / self._guide_n)
        self._guide_steps = int(np.diff(self._guide).max())

    def _sample_negatives(self, n_pairs: int) -> np.ndarray:
        r = self.rng.random((n_pairs, self.config.negatives_per_positive))
        ids = self._guide[(r * self._guide_n).astype(np.intp)]
        for _ in range(self._guide_steps):
            ids += self._neg_cum[ids] < r
        return ids

    def _step(self, plan: _Plan, cat_row: int, negs, mark, pos, norm_check: bool) -> float:
        space, lr = self.space, self.config.learning_rate
        cats = space.cat_vecs
        value, rows, m, g = _plan_value_grads(
            plan, space.word_vecs, space.sent_vecs[plan.row], cats, cat_row, negs, mark, pos
        )
        t = len(rows)
        kw_t = pos[self._kw_ids]  # keyword rows of m
        kw_vecs = m[kw_t]
        x = (cats @ np.concatenate((cats, kw_vecs)).T).ravel()[self._hinge_at]
        slack = (self._hinge_a + self._hinge_s * x) - self._hinge_m
        active = slack < 0.0
        margin = 0.0
        if active.any():  # scatter only active hinges: adding zeros changes no bit
            margin = float(slack[active].sum())
            n_pairs = len(self._pair_at)
            hit = active[n_pairs:]
            hit_cats = self._kw_cats[hit]
            d_cats = np.zeros(cats.shape)
            np.add.at(d_cats, hit_cats, kw_vecs[hit])
            np.add.at(g, kw_t[hit], cats[hit_cats])
            if active[:n_pairs].any():
                close = np.zeros(len(cats) ** 2)
                close[self._pair_at[active[:n_pairs]]] = 1.0
                d_cats += -2.0 * (close.reshape(len(cats), -1) @ cats)
            g[t + 1 :] += d_cats
        if not math.isfinite(value + margin):
            raise TrainingError(f"non-finite loss at sentence {plan.label!r}")

        g *= lr
        g += m
        new = _unit_rows(g)
        space.word_vecs[rows] = new[:t]
        space.sent_vecs[plan.row] = new[t]
        cats[:] = new[t + 1 :]
        if norm_check:
            dev = _max_norm_dev(new)
            if not dev <= 1e-6:
                raise TrainingError(f"norm deviation {dev:.3g} after step at {plan.label!r}")
        return value

    def train_epoch(self, norm_check: bool = False) -> TrainStats:
        space = self.space
        assigned = np.argmax(space.sent_vecs @ space.cat_vecs.T, axis=1)
        mark = np.zeros(len(space.words), dtype=bool)
        pos = np.empty(len(space.words) + 1, dtype=np.intp)
        gen_value = 0.0
        n_pairs = 0
        for start in range(0, len(self._plans), _NEG_BLOCK):
            block = self._plans[start : start + _NEG_BLOCK]
            negs = self._sample_negatives(sum(len(plan.neg_u) for plan in block))
            at = 0
            for plan in block:
                end = at + len(plan.neg_u)
                gen_value += self._step(plan, int(assigned[plan.row]), negs[at:end], mark, pos, norm_check)
                at = end
            n_pairs += at
        inter_v, _ = _inter_value_grad(space.cat_vecs, self.config.m_inter)
        intra_v, _, _ = _intra_value_grad(
            space.cat_vecs, space.word_vecs, self._kw_ids, self._kw_cats, self.config.m_intra
        )
        return TrainStats(-gen_value, inter_v, intra_v, n_pairs)

    def run(self, norm_check: bool = False) -> list[TrainStats]:
        return [self.train_epoch(norm_check=norm_check) for _ in range(self.config.epochs)]


def sentence_scores(space: SphereSpace, sentence_id: str) -> np.ndarray:
    """Dot products of the sentence vector with every category, schema order."""
    return space.sent_vecs[space.sent_row(sentence_id)] @ space.cat_vecs.T


def phrase_similarity(space: SphereSpace, phrases: list[list[str]]) -> list[np.ndarray | None]:
    """Per phrase (a list of words), the mean of its in-vocabulary word
    vectors (not renormalized) dotted with each category, or None if it has
    none.  Phrases with as many such words share one mean, and each mean is
    its own vector-matrix product, so a row has the bits of a lone phrase."""
    known = [[i for i in map(space.word_id, words) if i is not None] for words in phrases]
    sims = {}  # phrase index -> its row
    for n in set(map(len, known)) - {0}:
        group = [k for k, ids in enumerate(known) if len(ids) == n]
        for ks in (group[j : j + _BLOCK_ROWS] for j in range(0, len(group), _BLOCK_ROWS)):
            means = space.word_vecs[[known[k] for k in ks]].mean(axis=1)
            sims.update(zip(ks, (means[:, None, :] @ space.cat_vecs.T)[:, 0]))
    return [sims.get(k) for k in range(len(phrases))]


_SPACE_KIND = "sphere-space"
_SPACE_KEYS = ("dim", "words", "sent_ids", "cat_names")


def _space_layout(header: dict) -> list:
    names = (("word", header["words"]), ("sent", header["sent_ids"]), ("cat", header["cat_names"]))
    return [[f"{kind}_vecs", "<f8", [len(ids), header["dim"]]] for kind, ids in names]


def save_space(space: SphereSpace, path) -> None:
    """The word, sentence and category tables as float64 in the arrayfile
    container; the header holds their names and dim."""
    meta = {key: getattr(space, key) for key in _SPACE_KEYS}
    tables = [(f"{kind}_vecs", "<f8", getattr(space, f"{kind}_vecs")) for kind in ("word", "sent", "cat")]
    save_arrays(path, _SPACE_KIND, meta, tables)


def load_space(path) -> SphereSpace:
    h, tables = load_arrays(path, _SPACE_KIND, _SPACE_KEYS, _space_layout)
    return SphereSpace(h["dim"], h["words"], h["sent_ids"], h["cat_names"], *tables)
