"""Shared fixture builders and reference oracles for the test suite."""

import json
import math

import numpy as np

from opinionsum.classifier import (
    _CLIP_NORM,
    ClassifierInput,
    _positions,
    _softmax_rows,
    _span_of,
    phrase_span,
    token_ids,
)
from opinionsum.corpus import DepArc, Sentence, parse_bracketed_tree
from opinionsum.distill import distill_loss
from opinionsum.embedding import (
    _NEG_POWER,
    TrainingError,
    TrainStats,
    _inter_value_grad,
    _intra_value_grad,
    _keyword_rows,
    _max_norm_dev,
    _pair_value_grads,
)


def make_sentence(tagged, arcs=(), tree=None, sid="s0", target="t0", review="r0"):
    """Build a Sentence from [(surface, pos)] and (head, dependent, relation)
    triples; tree may be a bracketed string."""
    tokens, pos = [surface for surface, _ in tagged], [tag for _, tag in tagged]
    deps = [DepArc(h, d, r) for h, d, r in arcs]
    parsed = parse_bracketed_tree(tree) if isinstance(tree, str) else tree
    return Sentence(sid, target, review, tokens, pos, deps, parsed)


def phrase_input(vocab, sentence, phrase):
    """The classifier input of a phrase: its whole sentence with the
    phrase's covering span marked."""
    return ClassifierInput(token_ids(vocab, sentence.tokens), phrase_span(phrase))


def rewrite_arrayfile(path, edit):
    """Apply edit(header, blocks) to an arrayfile container, where blocks
    maps array name to its raw bytes, and write the result back."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        raw = f.read()
    blocks, offset = {}, 0
    for name, dtype, shape in header["arrays"]:
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        blocks[name] = raw[offset : offset + size]
        offset += size
    edit(header, blocks)
    body = b"".join(blocks.values())
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)


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


def naive_pair_value_grads(word_vecs, sent_vec, cat_vec, ww_u, ww_v, wx_u, negs, keep=()):
    """Reference for embedding._pair_value_grads, same arguments and returns:
    gathers every pair's u and v rows and a (P, K, dim) tensor of negatives,
    forms one gradient row per (pair, side, negative), then sums them per word
    id by a stable sort and a segment sum (keep ids add zero rows)."""
    keep = np.asarray(keep, dtype=np.intp)
    nw, nx = len(ww_u), len(wx_u)
    p = nw + nx + 1
    dim = word_vecs.shape[1]
    u = np.empty((p, dim))
    v = np.empty((p, dim))
    u[:nw] = word_vecs[ww_u]
    u[nw : nw + nx] = word_vecs[wx_u]
    u[-1] = sent_vec
    v[:nw] = word_vecs[ww_v]
    v[nw : nw + nx] = sent_vec
    v[-1] = cat_vec
    neg = word_vecs[negs]  # (P, K, dim)

    s_pos = np.einsum("pd,pd->p", u, v)
    s_neg = np.einsum("pd,pkd->pk", u, neg)
    value = float(-np.sum(np.logaddexp(0.0, -s_pos)) - np.sum(np.logaddexp(0.0, s_neg)))

    sig_pos = 1.0 / (1.0 + np.exp(-s_pos))
    sig_neg = 1.0 / (1.0 + np.exp(-s_neg))
    grad_u = (1.0 - sig_pos)[:, None] * v - np.einsum("pk,pkd->pd", sig_neg, neg)
    grad_v = (1.0 - sig_pos)[:, None] * u
    grad_neg = -sig_neg[..., None] * u[:, None, :]

    word_idx = np.concatenate([ww_u, ww_v, wx_u, negs.ravel(), keep])
    word_grads = np.concatenate(
        [grad_u[:nw], grad_v[:nw], grad_u[nw : nw + nx], grad_neg.reshape(-1, dim), np.zeros((len(keep), dim))]
    )
    order = np.argsort(word_idx, kind="stable")
    sorted_idx = word_idx[order]
    is_start = np.empty(len(sorted_idx), dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    rows = sorted_idx[starts]
    grads = np.add.reduceat(word_grads[order], starts, axis=0)
    d_sent = grad_v[nw : nw + nx].sum(axis=0) + grad_u[-1]
    d_cat = grad_v[-1]
    return value, rows, grads, d_sent, d_cat


def _naive_unit_rows(m):
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))[:, None]
    if np.any(norms < 1e-12):
        raise TrainingError("vector collapsed to zero norm")
    return m / norms


def naive_train_epoch(space, corpus, schema, config, rng, norm_check=False):
    """Reference for SphereTrainer.train_epoch, updating space in place: one
    step per sentence in corpus order, drawing that sentence's negatives
    from rng by searchsorted when it reaches it, then the margin terms from
    _inter_value_grad and _intra_value_grad, and separate re-projections of
    the touched words, the sentence and the categories.  The pair
    arithmetic is embedding._pair_value_grads, which naive_pair_value_grads
    and finite differences check."""
    kw_ids, kw_cats = _keyword_rows(space, schema)
    sents = []
    counts = np.zeros(len(space.words))
    for sent in corpus:
        ids = [space.word_id(t) for t in sent.tokens]
        ids = np.asarray([i for i in ids if i is not None], dtype=np.intp)
        np.add.at(counts, ids, 1.0)
        ci, cj = naive_window_pairs(len(ids), config.window)
        sents.append((sent.id, space.sent_row(sent.id), ids, ids[ci], ids[cj]))
    probs = counts**_NEG_POWER
    cum = np.cumsum(probs / probs.sum())
    cum[-1] = 1.0
    lr = config.learning_rate
    assigned = np.argmax(space.sent_vecs @ space.cat_vecs.T, axis=1)
    gen_value, n_pairs = 0.0, 0
    for label, row, ids, ww_u, ww_v in sents:
        r = rng.random((len(ww_u) + len(ids) + 1, config.negatives_per_positive))
        negs = np.minimum(np.searchsorted(cum, r), len(space.words) - 1)
        cat_row = int(assigned[row])
        value, rows, grads, d_sent, d_cat = _pair_value_grads(
            space.word_vecs, space.sent_vecs[row], space.cat_vecs[cat_row], ww_u, ww_v, ids, negs, kw_ids
        )
        inter_v, d_cats = _inter_value_grad(space.cat_vecs, config.m_inter)
        intra_v, kw_grads, intra_cat_grad = _intra_value_grad(
            space.cat_vecs, space.word_vecs, kw_ids, kw_cats, config.m_intra
        )
        if not math.isfinite(value + inter_v + intra_v):
            raise TrainingError(f"non-finite loss at sentence {label!r}")
        np.add.at(grads, np.searchsorted(rows, kw_ids), kw_grads)
        space.word_vecs[rows] = _naive_unit_rows(space.word_vecs[rows] + lr * grads)
        space.sent_vecs[row] = _naive_unit_rows((space.sent_vecs[row] + lr * d_sent)[None, :])
        d_cats += intra_cat_grad
        d_cats[cat_row] += d_cat
        space.cat_vecs[:] = _naive_unit_rows(space.cat_vecs + lr * d_cats)
        if norm_check:
            for table in (space.word_vecs[rows], space.sent_vecs[[row]], space.cat_vecs):
                dev = _max_norm_dev(table)
                if not dev <= 1e-6:
                    raise TrainingError(f"norm deviation {dev:.3g} after step at {label!r}")
        gen_value += value
        n_pairs += len(negs)
    inter_v, _ = _inter_value_grad(space.cat_vecs, config.m_inter)
    intra_v, _, _ = _intra_value_grad(space.cat_vecs, space.word_vecs, kw_ids, kw_cats, config.m_intra)
    return TrainStats(-gen_value, inter_v, intra_v, n_pairs)


def naive_attend(model, ids):
    """Reference self-attention over one token sequence: e, q, k, v, att
    and h."""
    p = model.params
    e = p["emb"][ids] + _positions(len(ids), model.dim)
    q = e @ p["wq"]
    k = e @ p["wk"]
    v = e @ p["wv"]
    att = _softmax_rows(q @ k.T / np.sqrt(model.dim))
    return e, q, k, v, att, att @ v


def naive_head(model, pooled):
    """Reference head: the category distribution of one pooled vector."""
    return _softmax_rows(pooled @ model.params["wo"] + model.params["bo"])


def naive_forward(model, inp):
    """Reference forward pass of one classifier input: its category
    distribution and the intermediates naive_backward needs."""
    ids = inp.token_ids
    span = _span_of(inp)
    e, q, k, v, att, h = naive_attend(model, ids)
    pooled = h[span[0] : span[1]].mean(axis=0)
    cache = {"ids": ids, "span": span, "e": e, "q": q, "k": k, "v": v, "att": att, "h": h, "pooled": pooled}
    return naive_head(model, pooled), cache


def naive_encode_phrases(model, vocab, sentences, phrases):
    """Reference for classifier.encode_phrases, same arguments and returns:
    one attention pass per sentence, then each phrase's span pooled and put
    through the head on its own."""
    hidden, ys, pooled = {}, [], []
    for phrase in phrases:
        sid = phrase.sentence_id
        if sid not in hidden:
            hidden[sid] = naive_attend(model, token_ids(vocab, sentences[sid].tokens))[-1]
        s, e = phrase_span(phrase)
        pooled.append(hidden[sid][s:e].mean(axis=0))
        ys.append(naive_head(model, pooled[-1]))
    return np.array(ys).reshape(len(phrases), -1), np.array(pooled).reshape(len(phrases), model.dim)


def naive_phrase_similarity(space, words):
    """Reference for one phrase of embedding.phrase_similarity: the mean of
    its in-vocabulary word vectors dotted with each category, or None."""
    ids = [i for i in map(space.word_id, words) if i is not None]
    return space.word_vecs[ids].mean(axis=0) @ space.cat_vecs.T if ids else None


def naive_backward(model, d_logits, cache, grads):
    """Accumulate one item's parameter gradients into grads, given
    d(loss)/d(logits)."""
    p = model.params
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
    d_scores /= np.sqrt(model.dim)
    d_q = d_scores @ k
    d_k = d_scores.T @ q
    d_e = d_q @ p["wq"].T + d_k @ p["wk"].T + d_v @ p["wv"].T
    grads["wq"] += e.T @ d_q
    grads["wk"] += e.T @ d_k
    grads["wv"] += e.T @ d_v
    np.add.at(grads["emb"], cache["ids"], d_e)


def naive_batch_loss_and_grads(model, items):
    """Reference for classifier.batch_loss_and_grads on a list of
    (input, target) items, same returns: one forward and one backward pass
    per item."""
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    total = 0.0
    inv = 1.0 / len(items)
    for inp, target in items:
        y, cache = naive_forward(model, inp)
        total += distill_loss(target, y)
        naive_backward(model, (y - np.asarray(target)) * inv, cache, grads)
    return total * inv, grads


def naive_fit(model, items, config, seed):
    """Reference for classifier._fit, same arguments and returns: shuffled
    minibatches through naive_batch_loss_and_grads, the global gradient norm
    clipped array by array, and each parameter stepped on its own."""
    rng = np.random.default_rng(seed)
    trajectory = []
    for _ in range(config.epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(items), config.batch_size):
            batch = [items[i] for i in order[start : start + config.batch_size]]
            loss, grads = naive_batch_loss_and_grads(model, batch)
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if norm > _CLIP_NORM:
                for g in grads.values():
                    g *= _CLIP_NORM / norm
            for name, g in grads.items():
                model.params[name] -= config.learning_rate * g
            trajectory.append(float(loss))
    return trajectory
