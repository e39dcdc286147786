"""Sphere embedding: init, margin losses, gradients, training invariants."""

import json

import numpy as np
import pytest

from opinionsum import embedding
from opinionsum.corpus import CorpusError, build_vocab, load_corpus, load_schema, parse_schema
from opinionsum.embedding import (
    EmbedConfig,
    SphereSpace,
    SphereTrainer,
    TrainingError,
    _inter_value_grad,
    _intra_value_grad,
    _pair_value_grads,
    _window_pairs,
    check_norms,
    init_space,
    load_space,
    loss_inter,
    loss_intra,
    phrase_similarity,
    save_space,
    sentence_scores,
)
from opinionsum.synthetic import SyntheticSpec, generate_synthetic
from util import (
    make_sentence,
    naive_pair_value_grads,
    naive_phrase_similarity,
    naive_train_epoch,
    naive_window_pairs,
    rewrite_arrayfile,
)


def _toy_vocab(words):
    corpus = [make_sentence([(w, "NN") for w in words])]
    return build_vocab(corpus, 1)


def _schema(kind="aspect", categories=(("one", ["alpha"]), ("two", ["beta"]))):
    return parse_schema("\n".join(f"{n}: {' '.join(k)}" for n, k in categories), kind)


def _manual_space(cat_vecs, word_vecs=None, words=()):
    cat_vecs = np.asarray(cat_vecs, dtype=float)
    dim = cat_vecs.shape[1]
    if word_vecs is None:
        word_vecs = np.empty((0, dim))
    return SphereSpace(
        dim,
        list(words),
        [],
        [f"c{i}" for i in range(len(cat_vecs))],
        np.asarray(word_vecs, dtype=float),
        np.empty((0, dim)),
        cat_vecs,
    )


class TestInit:
    def _space(self, seed=0):
        vocab = _toy_vocab(["alpha", "beta", "gamma", "delta"])
        return init_space(vocab, _schema(), EmbedConfig(dim=8), ["s0", "s1"], seed=seed)

    def test_all_norms_one(self):
        space = self._space()
        assert check_norms(space, tol=1e-6) < 1e-6

    def test_single_keyword_category_equals_word_vector(self):
        space = self._space()
        wid = space.word_id("alpha")
        np.testing.assert_allclose(space.cat_vecs[0], space.word_vecs[wid], atol=1e-12)

    def test_seeded_determinism(self):
        a, b = self._space(seed=9), self._space(seed=9)
        assert np.array_equal(a.word_vecs, b.word_vecs)
        assert np.array_equal(a.sent_vecs, b.sent_vecs)
        assert np.array_equal(a.cat_vecs, b.cat_vecs)

    def test_nan_row_fails_norm_check(self):
        space = self._space()
        space.word_vecs[1, 0] = np.nan
        with pytest.raises(TrainingError, match="nan"):
            check_norms(space)

    def test_missing_keyword_named(self):
        vocab = _toy_vocab(["alpha"])
        with pytest.raises(ValueError, match="beta"):
            init_space(vocab, _schema(), EmbedConfig(dim=8), [])


class TestMarginLosses:
    def test_inter_orthogonal_categories(self):
        space = _manual_space(np.eye(2))
        assert loss_inter(space, 0.5) == 0.0

    def test_inter_identical_categories(self):
        v = np.array([[1.0, 0.0], [1.0, 0.0]])
        space = _manual_space(v)
        assert loss_inter(space, 0.5) == pytest.approx(-1.0)  # -0.5 per ordered pair

    def test_inter_matches_formula_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cats = rng.normal(size=(4, 6))
            cats /= np.linalg.norm(cats, axis=1, keepdims=True)
            space = _manual_space(cats)
            oracle = sum(
                min(0.0, 1.0 - float(cats[i] @ cats[j]) - 0.7)
                for i in range(4)
                for j in range(4)
                if i != j
            )
            assert loss_inter(space, 0.7) == pytest.approx(oracle, rel=1e-12)
            assert loss_inter(space, 0.7) <= 0.0

    def test_intra_keyword_at_category(self):
        space = _manual_space([[1.0, 0.0], [0.0, 1.0]], word_vecs=[[1.0, 0.0], [0.0, 1.0]],
                              words=["alpha", "beta"])
        assert loss_intra(space, _schema(), 0.5) == 0.0

    def test_intra_keyword_orthogonal(self):
        space = _manual_space([[1.0, 0.0], [0.0, 1.0]], word_vecs=[[0.0, 1.0], [0.0, 1.0]],
                              words=["alpha", "beta"])
        # alpha orthogonal to c0 -> -0.5; beta at c1 -> 0
        assert loss_intra(space, _schema(), 0.5) == pytest.approx(-0.5)

    def test_intra_matches_formula_oracle(self):
        rng = np.random.default_rng(1)
        schema = _schema(categories=(("one", ["alpha", "beta"]), ("two", ["gamma"])))
        for _ in range(20):
            cats = rng.normal(size=(2, 5))
            cats /= np.linalg.norm(cats, axis=1, keepdims=True)
            wv = rng.normal(size=(3, 5))
            wv /= np.linalg.norm(wv, axis=1, keepdims=True)
            space = _manual_space(cats, word_vecs=wv, words=["alpha", "beta", "gamma"])
            oracle = (
                min(0.0, float(wv[0] @ cats[0]) - 0.5)
                + min(0.0, float(wv[1] @ cats[0]) - 0.5)
                + min(0.0, float(wv[2] @ cats[1]) - 0.5)
            )
            assert loss_intra(space, schema, 0.5) == pytest.approx(oracle, rel=1e-12)

    def test_inter_monotone_in_category_similarity(self):
        # decreasing a_i . a_j never decreases the hinge value
        def at_dot(dot):
            cats = np.array([[1.0, 0.0], [dot, np.sqrt(1.0 - dot**2)]])
            return loss_inter(_manual_space(cats), 0.7)

        dots = np.linspace(-0.99, 0.99, 41)
        values = [at_dot(d) for d in dots]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))  # decreasing dot -> value up
        assert all(v <= 0.0 for v in values)


def _fd(f, x, eps=1e-6):
    """Central finite differences of scalar f over array x."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        hi = f()
        x[idx] = old - eps
        lo = f()
        x[idx] = old
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def _assert_close(analytic, fd, rel=1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    worst = float(np.max(np.abs(analytic - fd) / denom))
    assert worst < rel, f"max relative gradient error {worst:.3g}"


class TestGradients:
    def test_inter_grad_finite_differences(self):
        rng = np.random.default_rng(2)
        cats = rng.normal(size=(3, 4))
        cats /= np.linalg.norm(cats, axis=1, keepdims=True)
        _, grad = _inter_value_grad(cats, 0.7)
        fd = _fd(lambda: _inter_value_grad(cats, 0.7)[0], cats)
        _assert_close(grad, fd)

    def test_intra_grad_finite_differences(self):
        rng = np.random.default_rng(3)
        cats = rng.normal(size=(2, 4))
        cats /= np.linalg.norm(cats, axis=1, keepdims=True)
        words = rng.normal(size=(5, 4))
        words /= np.linalg.norm(words, axis=1, keepdims=True)
        kw_ids = np.array([0, 1, 3])
        kw_cats = np.array([0, 0, 1])

        def value():
            return _intra_value_grad(cats, words, kw_ids, kw_cats, 0.5)[0]

        _, kw_grad, cat_grad = _intra_value_grad(cats, words, kw_ids, kw_cats, 0.5)
        _assert_close(cat_grad, _fd(value, cats))
        word_fd = _fd(value, words)
        dense = np.zeros_like(words)
        np.add.at(dense, kw_ids, kw_grad)
        _assert_close(dense, word_fd)

    def test_pair_grads_finite_differences(self):
        rng = np.random.default_rng(4)
        dim, n_words = 4, 6
        words = rng.normal(size=(n_words, dim))
        sent = rng.normal(size=dim)
        cat = rng.normal(size=dim)
        pairs = (np.array([0, 1, 2]), np.array([1, 0, 3]), np.array([0, 2, 4]),
                 rng.integers(0, n_words, size=(7, 2)))

        def value():
            return _pair_value_grads(words, sent, cat, *pairs)[0]

        _, widx, wgrads, d_sent, d_cat = _pair_value_grads(words, sent, cat, *pairs)
        dense = np.zeros_like(words)
        np.add.at(dense, widx, wgrads)
        _assert_close(dense, _fd(value, words))
        _assert_close(d_sent, _fd(value, sent))
        _assert_close(d_cat, _fd(value, cat))


class TestPairGradsOracle:
    """_pair_value_grads against the per-pair reference in tests/util.py."""

    def _check(self, words, sent, cat, ww_u, ww_v, wx_u, negs, keep=()):
        args = (words, sent, cat, np.asarray(ww_u, dtype=np.intp), np.asarray(ww_v, dtype=np.intp),
                np.asarray(wx_u, dtype=np.intp), np.asarray(negs, dtype=np.intp))
        keep = np.asarray(keep, dtype=np.intp)
        value, rows, grads, d_sent, d_cat = _pair_value_grads(*args, keep)
        want = naive_pair_value_grads(*args, keep)
        assert value == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        assert rows.tolist() == want[1].tolist()
        for got, ref in zip((grads, d_sent, d_cat), want[2:]):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def _vectors(self, seed, n_words=9, dim=5):
        rng = np.random.default_rng(seed)
        unit = rng.normal(size=(n_words + 2, dim))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        return rng, unit[:n_words], unit[n_words], unit[n_words + 1]

    def test_random_sentences(self):
        for seed in range(20):
            rng, words, sent, cat = self._vectors(seed)
            ids = rng.integers(0, len(words), size=int(rng.integers(1, 8)))
            ci, cj = _window_pairs(len(ids), int(rng.integers(1, 4)))
            negs = rng.integers(0, len(words), size=(len(ci) + len(ids) + 1, 3))
            self._check(words, sent, cat, ids[ci], ids[cj], ids, negs)

    def test_unnormalized_and_unrelated_pair_ids(self):
        # the finite-difference inputs: window u words missing from wx_u
        rng = np.random.default_rng(4)
        words = rng.normal(size=(6, 4))
        self._check(words, rng.normal(size=4), rng.normal(size=4), [0, 1, 2], [1, 0, 3], [0, 2, 4],
                    rng.integers(0, 6, size=(7, 2)))

    def test_repeated_words(self):
        _, words, sent, cat = self._vectors(1)
        ids = np.array([3, 3, 5, 3, 5])
        ci, cj = _window_pairs(len(ids), 2)
        negs = np.full((len(ci) + len(ids) + 1, 2), 7)
        self._check(words, sent, cat, ids[ci], ids[cj], ids, negs)

    def test_negative_is_sentence_word_or_keyword(self):
        _, words, sent, cat = self._vectors(2)
        ids = np.array([1, 4, 6])
        ci, cj = _window_pairs(len(ids), 1)
        negs = np.tile([4, 6, 0, 8], (len(ci) + len(ids) + 1, 1))  # 4, 6 in the sentence; 0, 8 keywords
        self._check(words, sent, cat, ids[ci], ids[cj], ids, negs, keep=[0, 8, 8, 4])

    def test_one_token_sentence(self):
        _, words, sent, cat = self._vectors(3)
        self._check(words, sent, cat, [], [], [2], [[2, 5], [0, 2]], keep=[5])

    def test_sentence_without_known_token(self):
        _, words, sent, cat = self._vectors(5)
        self._check(words, sent, cat, [], [], [], [[3, 3, 1]])
        self._check(words, sent, cat, [], [], [], [[3, 3, 1]], keep=[0])


def _small_planted(tmp_path, n_sentences=240, seed=3):
    spec = SyntheticSpec(
        n_sentences=n_sentences, min_sentence_len=8, max_sentence_len=16, vocab_per_category=12
    )
    paths = generate_synthetic(spec, seed, tmp_path)
    sentences = load_corpus(paths["corpus"], paths["trees"])
    schema = load_schema(paths["aspect_schema"], "aspect")
    vocab = build_vocab(sentences, 1, keep=schema.all_keywords())
    return sentences, schema, vocab


class TestTraining:
    def test_norms_hold_through_training(self, tmp_path):
        sentences, schema, vocab = _small_planted(tmp_path, n_sentences=60)
        config = EmbedConfig(dim=16, epochs=3)
        space = init_space(vocab, schema, config, [s.id for s in sentences], seed=1)
        trainer = SphereTrainer(space, sentences, schema, config, seed=1)
        trainer.run(norm_check=True)  # raises on any per-step violation
        assert check_norms(space, tol=1e-6) < 1e-6

    def test_planted_margins_reach_zero(self, tmp_path):
        sentences, schema, vocab = _small_planted(tmp_path)
        config = EmbedConfig(dim=32, epochs=50, learning_rate=0.05)
        space = init_space(vocab, schema, config, [s.id for s in sentences], seed=2)
        trainer = SphereTrainer(space, sentences, schema, config, seed=2)
        for _ in range(50):
            stats = trainer.train_epoch()
            if stats.inter_loss == 0.0 and stats.intra_loss == 0.0:
                break
        assert loss_inter(space, config.m_inter) == 0.0
        assert loss_intra(space, schema, config.m_intra) == 0.0
        # every seed keyword closest to its own category
        for ci, (_, keywords) in enumerate(schema.categories):
            for kw in keywords:
                sims = space.word_vecs[space.word_id(kw)] @ space.cat_vecs.T
                assert int(np.argmax(sims)) == ci

    def test_bit_reproducible(self, tmp_path):
        sentences, schema, vocab = _small_planted(tmp_path, n_sentences=40)
        config = EmbedConfig(dim=12, epochs=2)

        def train():
            space = init_space(vocab, schema, config, [s.id for s in sentences], seed=11)
            SphereTrainer(space, sentences, schema, config, seed=11).run()
            return space

        a, b = train(), train()
        assert np.array_equal(a.word_vecs, b.word_vecs)
        assert np.array_equal(a.sent_vecs, b.sent_vecs)
        assert np.array_equal(a.cat_vecs, b.cat_vecs)

    def test_train_epoch_stats(self, tmp_path):
        sentences, schema, vocab = _small_planted(tmp_path, n_sentences=30)
        config = EmbedConfig(dim=12, epochs=1, window=3)
        space = init_space(vocab, schema, config, [s.id for s in sentences])
        stats = SphereTrainer(space, sentences, schema, config).train_epoch()
        assert stats.gen_loss >= 0.0
        assert stats.inter_loss <= 0.0 and stats.intra_loss <= 0.0
        # per sentence: its window pairs, one (word, sentence) pair per known
        # token and the (sentence, category) pair
        n = [sum(t in vocab for t in s.tokens) for s in sentences]
        assert stats.n_pairs == sum(len(naive_window_pairs(k, 3)[0]) + k + 1 for k in n)

    def test_sentence_without_known_token(self, tmp_path):
        sentences, schema, vocab = _small_planted(tmp_path, n_sentences=30)
        unknown = make_sentence([("zzzyx", "NN"), ("qqqwv", "JJ")], sid="unknown")
        assert all(t not in vocab for t in unknown.tokens)
        config = EmbedConfig(dim=12, epochs=2)
        ids = [s.id for s in sentences] + [unknown.id]
        with_it = SphereTrainer(init_space(vocab, schema, config, ids), sentences + [unknown], schema, config)
        without = SphereTrainer(init_space(vocab, schema, config, ids), sentences, schema, config)
        for a, b in zip(with_it.run(), without.run()):
            assert a.n_pairs == b.n_pairs + 1  # only the (sentence, category) pair

    def test_matches_reference_stepped_trainer(self, tmp_path):
        """Bit for bit against naive_train_epoch with norm checks on, over two
        negative-draw blocks, the second one short."""
        spec = SyntheticSpec(n_sentences=embedding._NEG_BLOCK + 37, min_sentence_len=8, max_sentence_len=16,
                             vocab_per_category=12, n_categories=3)
        paths = generate_synthetic(spec, 3, tmp_path)
        sentences = load_corpus(paths["corpus"], paths["trees"])
        aspects = load_schema(paths["aspect_schema"], "aspect")
        sentiments = load_schema(paths["sentiment_schema"], "sentiment")
        vocab = build_vocab(sentences, 1, keep=aspects.all_keywords() + sentiments.all_keywords())
        unknown = make_sentence([("zzzyx", "NN"), ("qqqwv", "JJ")], sid="unknown")
        one = make_sentence([(sentences[0].tokens[0], "NN")], sid="one")
        corpus = sentences[:40] + [unknown, one] + sentences[40:]
        cases = (
            (sentiments, EmbedConfig(dim=16, epochs=2)),  # some keyword hinges active
            (aspects, EmbedConfig(dim=12, epochs=2, window=3, m_inter=2.0, m_intra=0.99)),  # every hinge active
        )
        for schema, config in cases:
            ids = [s.id for s in corpus]
            space = init_space(vocab, schema, config, ids, seed=8)
            ref = init_space(vocab, schema, config, ids, seed=8)
            assert loss_intra(ref, schema, config.m_intra) < 0.0  # a keyword hinge is active at the first step
            if config.m_inter == 2.0:
                assert loss_inter(ref, config.m_inter) < 0.0  # and so is every category-pair hinge
            trainer = SphereTrainer(space, corpus, schema, config, seed=8)
            rng = np.random.default_rng(8)
            for _ in range(config.epochs):
                got = trainer.train_epoch(norm_check=True)
                want = naive_train_epoch(ref, corpus, schema, config, rng, norm_check=True)
                assert (got.n_pairs, got.inter_loss, got.intra_loss) == (want.n_pairs, want.inter_loss, want.intra_loss)
                assert got.gen_loss == pytest.approx(want.gen_loss, rel=1e-12)
            for got, want in ((space.word_vecs, ref.word_vecs), (space.sent_vecs, ref.sent_vecs),
                              (space.cat_vecs, ref.cat_vecs)):
                assert np.array_equal(got, want)

    def test_negatives_match_searchsorted(self):
        # frequent words and many rare ones: guide buckets span several ids
        frequent = [(f"f{i}", "NN") for i in range(20)]
        corpus = [make_sentence(frequent * 5, sid=f"s{k}") for k in range(400)]
        corpus.append(make_sentence([(f"r{i}", "NN") for i in range(300)], sid="rare"))
        schema = _schema(categories=(("one", ["f0"]), ("two", ["r0"])))
        vocab = build_vocab(corpus, 1)
        config = EmbedConfig(dim=4)
        space = init_space(vocab, schema, config, [s.id for s in corpus])
        trainer = SphereTrainer(space, corpus, schema, config, seed=5)
        assert trainer._guide_steps > 1
        r = np.random.default_rng(5).random((20_000, config.negatives_per_positive))
        want = np.searchsorted(trainer._neg_cum, r)
        assert np.array_equal(trainer._sample_negatives(20_000), want)

    def test_empty_corpus_rejected(self, tmp_path):
        sentences, schema, vocab = _small_planted(tmp_path, n_sentences=30)
        config = EmbedConfig(dim=12)
        space = init_space(vocab, schema, config, [])
        with pytest.raises(TrainingError, match="empty"):
            SphereTrainer(space, [], schema, config)


class TestWindowPairs:
    def test_matches_double_loop_in_order(self):
        for n in range(21):
            for h in range(1, 8):
                ci, cj = _window_pairs(n, h)
                want_i, want_j = naive_window_pairs(n, h)
                assert ci.tolist() == want_i and cj.tolist() == want_j, (n, h)


class TestScores:
    def _scored_space(self):
        cats = np.eye(3)
        sents = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        sents[1] = np.array([0.0, 0.0, 0.0])
        space = SphereSpace(3, ["w0"], ["s0", "s1"], ["a", "b", "c"],
                            np.eye(1, 3), sents, cats)
        return space

    def test_sentence_equal_to_category(self):
        space = self._scored_space()
        scores = sentence_scores(space, "s0")
        assert scores[0] == pytest.approx(1.0)

    def test_orthogonal_sentence_all_zero(self):
        space = self._scored_space()
        np.testing.assert_allclose(sentence_scores(space, "s1"), np.zeros(3), atol=1e-12)

    def test_unknown_sentence(self):
        with pytest.raises(ValueError, match="nope"):
            sentence_scores(self._scored_space(), "nope")

    def test_dot_product_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        cats = rng.normal(size=(3, 4))
        cats /= np.linalg.norm(cats, axis=1, keepdims=True)
        space = SphereSpace(4, [], ["s0"], ["a", "b", "c"], np.empty((0, 4)), x[None, :], cats)
        np.testing.assert_allclose(sentence_scores(space, "s0"), [x @ c for c in cats], atol=1e-12)
        assert np.all(np.abs(sentence_scores(space, "s0")) <= 1.0 + 1e-12)


class TestPhraseSimilarity:
    def test_single_keyword_phrase(self):
        space = _manual_space([[1.0, 0.0], [0.0, 1.0]], word_vecs=[[1.0, 0.0]], words=["alpha"])
        (sims,) = phrase_similarity(space, [["alpha"]])
        assert sims[0] == pytest.approx(1.0)

    def test_opposite_words_cancel(self):
        space = _manual_space([[1.0, 0.0], [0.0, 1.0]],
                              word_vecs=[[1.0, 0.0], [-1.0, 0.0]], words=["up", "down"])
        np.testing.assert_allclose(phrase_similarity(space, [["up", "down"]])[0], [0.0, 0.0], atol=1e-12)

    def test_mean_then_dot_oracle(self):
        rng = np.random.default_rng(6)
        wv = rng.normal(size=(3, 5))
        wv /= np.linalg.norm(wv, axis=1, keepdims=True)
        cats = rng.normal(size=(2, 5))
        cats /= np.linalg.norm(cats, axis=1, keepdims=True)
        space = _manual_space(cats, word_vecs=wv, words=["a", "b", "c"])
        (got,) = phrase_similarity(space, [["a", "b", "c"]])
        mean = wv.mean(axis=0)  # not renormalized
        np.testing.assert_allclose(got, [mean @ c for c in cats], atol=1e-12)

    def test_oov_skipped_and_all_oov_rejected(self):
        space = _manual_space([[1.0, 0.0], [0.0, 1.0]], word_vecs=[[1.0, 0.0]], words=["alpha"])
        got, none = phrase_similarity(space, [["alpha", "unknown"], ["unknown"]])
        assert got[0] == pytest.approx(1.0)
        assert none is None
        assert phrase_similarity(space, []) == []

    @pytest.mark.parametrize("block_rows", [embedding._BLOCK_ROWS, 3])
    def test_stacked_matches_per_phrase_reference(self, monkeypatch, block_rows):
        # phrases of 1-12 known words, several per count, with unknown words
        # mixed in and some with none known, in no particular order; 3 rows
        # a block splits each count's phrases over several products
        monkeypatch.setattr(embedding, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(40)]
        wv = rng.normal(size=(40, 7))
        wv /= np.linalg.norm(wv, axis=1, keepdims=True)
        cats = rng.normal(size=(3, 7))
        space = _manual_space(cats / np.linalg.norm(cats, axis=1, keepdims=True), word_vecs=wv, words=words)
        pool = words + ["oov1", "oov2"]
        phrases = [list(rng.choice(pool, size=int(rng.integers(1, 13)))) for _ in range(200)]
        phrases += [["oov1"], ["oov2", "oov1"]]
        got = phrase_similarity(space, phrases)
        assert len(got) == len(phrases)
        for phrase, sims in zip(phrases, got):
            ref = naive_phrase_similarity(space, phrase)
            assert (sims is None) == (ref is None) and (ref is None or np.array_equal(sims, ref))
        assert sum(sims is None for sims in got) >= 2


class TestPersistence:
    @staticmethod
    def _saved(tmp_path, name="space.bin", dim=4):
        path = tmp_path / name
        save_space(init_space(_toy_vocab(["alpha", "beta"]), _schema(), EmbedConfig(dim=dim), ["s0"]), path)
        return path

    def test_save_load_roundtrip(self, tmp_path):
        vocab = _toy_vocab(["alpha", "beta", "gamma"])
        space = init_space(vocab, _schema(), EmbedConfig(dim=6), ["s0", "s1"], seed=4)
        path = tmp_path / "space.bin"
        save_space(space, path)
        again = load_space(path)
        assert again.words == space.words
        assert again.sent_ids == space.sent_ids
        assert again.cat_names == space.cat_names
        assert np.array_equal(again.word_vecs, space.word_vecs)
        assert np.array_equal(again.sent_vecs, space.sent_vecs)
        assert np.array_equal(again.cat_vecs, space.cat_vecs)

    def test_header_format(self, tmp_path):
        vocab = _toy_vocab(["alpha", "beta"])
        space = init_space(vocab, _schema(), EmbedConfig(dim=4), ["s 0"])
        path = tmp_path / "space.bin"
        save_space(space, path)
        head, body = path.read_bytes().split(b"\n", 1)
        assert json.loads(head) == {
            "kind": "sphere-space",
            "dim": 4,
            "words": ["alpha", "beta"],
            "sent_ids": ["s 0"],  # an id may hold whitespace
            "cat_names": ["one", "two"],
            "arrays": [["word_vecs", "<f8", [2, 4]], ["sent_vecs", "<f8", [1, 4]], ["cat_vecs", "<f8", [2, 4]]],
        }
        assert body == b"".join(t.astype("<f8").tobytes() for t in (space.word_vecs, space.sent_vecs, space.cat_vecs))
        assert load_space(path).sent_ids == ["s 0"]

    def test_short_header_rejected(self, tmp_path):
        path = self._saved(tmp_path, "short.bin")
        rewrite_arrayfile(path, lambda header, blocks: header.pop("cat_names"))
        with pytest.raises(CorpusError, match=r"short\.bin: header lacks \['cat_names'\]"):
            load_space(path)

    def test_row_without_id_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        rewrite_arrayfile(path, lambda header, blocks: header["words"].pop())
        with pytest.raises(CorpusError, match=r"space\.bin: arrays .* are not the .* its header implies"):
            load_space(path)

    def test_non_numeric_header_rejected(self, tmp_path):
        path = tmp_path / "space.bin"
        path.write_text("4 2 1 2 0.7 0.5\nword alpha 1.0 0.0 0.0 0.0\n")  # the old text format
        with pytest.raises(CorpusError, match=r"space\.bin: header is not JSON"):
            load_space(path)

    def test_non_numeric_vector_field_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        rewrite_arrayfile(path, lambda header, blocks: header["arrays"][0].__setitem__(1, "|O"))
        with pytest.raises(CorpusError, match=r"space\.bin: arrays"):
            load_space(path)
