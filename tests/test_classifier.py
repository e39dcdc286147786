"""Reference encoder: forward pass, gradients, training, checkpoints."""

import json

import numpy as np
import pytest

from opinionsum import classifier
from opinionsum.arrayfile import save_arrays
from opinionsum.classifier import (
    CHECKPOINT_FORMAT,
    ClassifierInput,
    ReferenceEncoder,
    TrainConfig,
    _checkpoint_layout,
    _fit,
    _positions,
    batch_loss_and_grads,
    classify_phrase,
    encode_phrases,
    fit,
    load_checkpoint,
    phrase_span,
    save_checkpoint,
    token_ids,
)
from opinionsum.corpus import CorpusError, build_vocab
from opinionsum.distill import PseudoPhraseLabel, distill_loss
from opinionsum.extraction import Phrase
from util import (
    make_sentence,
    naive_batch_loss_and_grads,
    naive_encode_phrases,
    naive_fit,
    phrase_input,
    rewrite_arrayfile,
)


def _model(dim=4, vocab=7, cats=("a", "b", "c"), seed=0):
    return ReferenceEncoder(vocab, dim, list(cats), seed=seed)


def _inputs(rng, n_items, vocab=7, max_len=5):
    items = []
    for _ in range(n_items):
        length = int(rng.integers(1, max_len + 1))
        ids = rng.integers(0, vocab, size=length)
        items.append(ClassifierInput(ids))
    return items


class TestForward:
    def test_predict_is_distribution(self):
        rng = np.random.default_rng(0)
        model = _model()
        for inp in _inputs(rng, 50):
            y = model.predict(inp)
            assert np.all(y >= 0)
            assert abs(y.sum() - 1.0) < 1e-6
            assert y.shape == (3,)

    def test_deterministic_forward(self):
        model = _model()
        inp = ClassifierInput(np.array([1, 2, 3]))
        assert np.array_equal(model.predict(inp), model.predict(inp))
        assert np.array_equal(model.encode(inp), model.encode(inp))

    def test_matches_manual_forward(self):
        # independent step-by-step recomputation with explicit loops
        model = _model(dim=4, vocab=5, cats=("a", "b"), seed=3)
        ids = np.array([2, 0, 4])
        inp = ClassifierInput(ids, span=(1, 3))
        p = model.params
        n, d = 3, 4
        e = np.array([p["emb"][t] for t in ids]) + _positions(n, d)
        q, k, v = e @ p["wq"], e @ p["wk"], e @ p["wv"]
        scores = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                scores[i, j] = float(q[i] @ k[j]) / np.sqrt(d)
        att = np.zeros((n, n))
        for i in range(n):
            ex = np.exp(scores[i] - scores[i].max())
            att[i] = ex / ex.sum()
        h = att @ v
        pooled = (h[1] + h[2]) / 2.0
        logits = pooled @ p["wo"] + p["bo"]
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()
        np.testing.assert_allclose(model.predict(inp), expect, atol=1e-12)
        np.testing.assert_allclose(model.encode(inp), pooled, atol=1e-12)

    def test_span_of_one_token_is_that_representation(self):
        model = _model(seed=5)
        ids = np.array([1, 4, 2])
        whole = [model.encode(ClassifierInput(ids, span=(i, i + 1))) for i in range(3)]
        # mean over a two-token span equals the mean of the single-token spans
        two = model.encode(ClassifierInput(ids, span=(0, 2)))
        np.testing.assert_allclose(two, (whole[0] + whole[1]) / 2, atol=1e-12)

    def test_span_bounds_checked(self):
        with pytest.raises(ValueError, match="span"):
            ClassifierInput(np.array([1, 2]), span=(0, 3))
        with pytest.raises(ValueError, match="span"):
            ClassifierInput(np.array([1, 2]), span=(1, 1))
        with pytest.raises(ValueError, match="empty"):
            ClassifierInput(np.array([], dtype=np.intp))


def _ragged_corpus(rng):
    """Sentences of lengths with repeats, a one-token sentence among them,
    words drawn from a pool; words seen once stay out of the vocabulary."""
    pool = [f"w{i}" for i in range(30)]
    lengths = [3, 5, 3, 1, 5, 7, 3, 12, 5, 1, 9]
    corpus = [
        make_sentence([(str(w), "NN") for w in rng.choice(pool, size=n)], sid=f"s{k}")
        for k, n in enumerate(lengths)
    ]
    return corpus, build_vocab(corpus, 2)


def _phrases(rng, corpus):
    """Spans touching both ends, the whole sentence and one inner span per
    sentence, shuffled so that one sentence's phrases are not consecutive."""
    phrases = []
    for sent in corpus:
        n = len(sent.tokens)
        s = int(rng.integers(0, n))
        for lo, hi in {(0, 1), (n - 1, n), (0, n), (s, int(rng.integers(s + 1, n + 1)))}:
            indices = tuple(range(lo, hi))
            phrases.append(Phrase(f"{sent.id}:{lo}-{hi}", sent.id, indices, "x", "dependency"))
    return [phrases[i] for i in rng.permutation(len(phrases))]


class TestEncodeSpans:
    """encode_phrases stacks sentences of one length; it must give the bits
    of one attention pass per sentence and one head per phrase."""

    def test_matches_predict_and_encode_span_by_span(self, monkeypatch):
        rng = np.random.default_rng(11)
        corpus, vocab = _ragged_corpus(rng)
        sentences = {s.id: s for s in corpus}
        phrases = _phrases(rng, corpus)
        # 1 or 2 sentences a pass split the repeated lengths over several passes
        for dim, seed, stack_rows in [(4, 11, 2), (8, 3, 1), (32, 5, classifier._STACK_ROWS)]:
            monkeypatch.setattr(classifier, "_STACK_ROWS", stack_rows)
            model = ReferenceEncoder(len(vocab) + 1, dim, ["x", "y", "z"], seed=seed)
            ys, pooled = encode_phrases(model, vocab, sentences, phrases)
            ref_ys, ref_pooled = naive_encode_phrases(model, vocab, sentences, phrases)
            assert ys.shape == (len(phrases), 3) and pooled.shape == (len(phrases), dim)
            assert np.array_equal(ys, ref_ys) and np.array_equal(pooled, ref_pooled)
            for phrase, y, vec in zip(phrases, ys, pooled):
                inp = phrase_input(vocab, sentences[phrase.sentence_id], phrase)
                assert np.array_equal(model.predict(inp), y) and np.array_equal(model.encode(inp), vec)
        assert len(vocab) < 30  # some tokens are UNK

    def test_out_of_bounds_span_rejected(self):
        corpus = _toy_corpus()
        vocab = build_vocab(corpus, 1)
        model = ReferenceEncoder(len(vocab) + 1, 4, ["x", "y"], seed=3)
        sentences = {s.id: s for s in corpus}
        ok = Phrase("s0:0", "s0", (0,), "fast", "dependency")
        for bad in [(2,), (1, 2), (-1, 0)]:
            phrase = Phrase("s1:x", "s1", bad, "x", "dependency")
            with pytest.raises(ValueError, match="span"):
                encode_phrases(model, vocab, sentences, [ok, phrase])

    def test_encode_phrases_keeps_phrase_order_across_sentences(self):
        corpus = _toy_corpus()
        vocab = build_vocab(corpus, 1)
        model = ReferenceEncoder(len(vocab) + 1, 4, ["x", "y"], seed=3)
        phrases = [
            Phrase("s1:0-1", "s1", (0, 1), "slow bus", "dependency"),
            Phrase("s0:1", "s0", (1,), "car", "dependency"),
            Phrase("s1:1", "s1", (1,), "bus", "dependency"),
            Phrase("s0:0-1", "s0", (0, 1), "fast car", "dependency"),
        ]
        sentences = {s.id: s for s in corpus}
        got = encode_phrases(model, vocab, sentences, phrases)
        for part, ref in zip(got, naive_encode_phrases(model, vocab, sentences, phrases)):
            assert np.array_equal(part, ref)
        for part, ref in zip(encode_phrases(model, vocab, sentences, []), ((0, 2), (0, 4))):
            assert part.shape == ref


class TestGradients:
    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        model = _model(dim=4, vocab=6, cats=("a", "b", "c"), seed=1)
        items = []
        for inp in _inputs(rng, 3, vocab=6, max_len=3):
            target = rng.dirichlet(np.ones(3))
            items.append((inp, target))
        items[0] = (ClassifierInput(items[0][0].token_ids, span=(0, 1)), items[0][1])
        loss, grads = batch_loss_and_grads(model, items)
        eps = 1e-6
        for name, param in model.params.items():
            fd = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                old = param[idx]
                param[idx] = old + eps
                hi = batch_loss_and_grads(model, items)[0]
                param[idx] = old - eps
                lo = batch_loss_and_grads(model, items)[0]
                param[idx] = old
                fd[idx] = (hi - lo) / (2 * eps)
                it.iternext()
            denom = np.maximum(np.maximum(np.abs(grads[name]), np.abs(fd)), 1e-6)
            worst = float(np.max(np.abs(grads[name] - fd) / denom))
            assert worst < 1e-3, f"{name}: max relative error {worst:.3g}"


# Ragged items for the batched pass: a one-token sentence, spans that are
# None, a single token, the whole sentence and the last token, repeated token
# ids, targets with zero entries and a uniform background target.
_RAGGED = [
    ([4], None, [1.0, 0.0, 0.0]),
    ([2, 2, 2, 5], None, [1 / 3, 1 / 3, 1 / 3]),
    ([1, 3, 2, 3, 3, 0], (2, 3), [0.2, 0.5, 0.3]),
    ([7, 1, 1], (0, 3), [0.0, 0.3, 0.7]),
    ([0, 8, 6, 8, 2], (4, 5), [0.6, 0.4, 0.0]),
    ([5, 5, 3, 1, 0, 2, 2, 6], (1, 5), [0.1, 0.1, 0.8]),
    ([6, 4], (0, 1), [1 / 3, 1 / 3, 1 / 3]),
]


def _ragged_items():
    return [(ClassifierInput(np.array(ids), span), np.array(target)) for ids, span, target in _RAGGED]


class TestBatchedPass:
    """batch_loss_and_grads against the one-item-at-a-time reference."""

    @pytest.mark.parametrize("batch_size", [1, 3, len(_RAGGED)])  # 3: a partial last batch
    def test_matches_per_item_reference(self, batch_size):
        model = _model(dim=6, vocab=9, seed=4)
        items = _ragged_items()
        for start in range(0, len(items), batch_size):
            batch = items[start : start + batch_size]
            loss, grads = batch_loss_and_grads(model, batch)
            want_loss, want = naive_batch_loss_and_grads(model, batch)
            assert abs(loss - want_loss) < 1e-10
            assert grads.keys() == want.keys()
            for name in want:
                np.testing.assert_allclose(grads[name], want[name], rtol=0, atol=1e-10, err_msg=name)

    def test_fit_matches_reference_stepped_fit(self):
        items = _ragged_items() * 2
        config = TrainConfig(learning_rate=0.5, batch_size=4, epochs=2)
        model, ref = _model(dim=6, vocab=9, seed=4), _model(dim=6, vocab=9, seed=4)
        for m in (model, ref):
            m.params["wo"] *= 40.0  # large enough that some steps clip
        trajectory = _fit(model, items, config, seed=3)
        want = naive_fit(ref, items, config, seed=3)
        np.testing.assert_allclose(trajectory, want, rtol=0, atol=1e-10)
        for name in ref.params:
            np.testing.assert_allclose(model.params[name], ref.params[name], rtol=0, atol=1e-10, err_msg=name)


def _toy_corpus():
    s0 = make_sentence([("fast", "JJ"), ("car", "NN")], sid="s0")
    s1 = make_sentence([("slow", "JJ"), ("bus", "NN")], sid="s1")
    return [s0, s1]


class TestTraining:
    """fit on whole-sentence rows, as the train-classifier stage builds them."""

    def _setup(self):
        corpus = _toy_corpus()
        vocab = build_vocab(corpus, 1)
        rows = [(corpus[0], None, np.array([0.9, 0.1])), (corpus[1], None, np.array([0.1, 0.9]))]
        model = ReferenceEncoder(len(vocab) + 1, 4, ["x", "y"], seed=2)
        return model, rows, vocab

    def test_loss_decreases(self):
        model, rows, vocab = self._setup()
        tr = fit(model, rows, vocab, TrainConfig(learning_rate=0.5, epochs=60), seed=0)
        assert np.mean(tr[-5:]) < np.mean(tr[:5])

    def test_zero_items_returns_model_unchanged(self):
        model, _, vocab = self._setup()
        before = {k: v.copy() for k, v in model.params.items()}
        assert fit(model, [], vocab, TrainConfig(), seed=0) == []
        assert all(np.array_equal(before[k], model.params[k]) for k in before)

    def test_seeded_training_reproducible(self):
        runs = []
        for _ in range(2):
            model, rows, vocab = self._setup()
            fit(model, rows, vocab, TrainConfig(epochs=3), seed=9)
            runs.append(model.params)
        assert all(np.array_equal(runs[0][k], runs[1][k]) for k in runs[0])

    def test_batch_loss_is_mean_of_item_losses(self):
        model, rows, vocab = self._setup()
        items = [
            (ClassifierInput(token_ids(vocab, sent.tokens)), target) for sent, _, target in rows
        ]
        loss, _ = batch_loss_and_grads(model, items)
        oracle = np.mean([distill_loss(t, model.predict(i)) for i, t in items])
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_independent_instances_share_no_state(self):
        model_a, rows, vocab = self._setup()
        model_b = ReferenceEncoder(len(vocab) + 1, 4, ["p", "q", "r"], seed=4)
        snapshot = {k: v.copy() for k, v in model_b.params.items()}
        fit(model_a, rows, vocab, TrainConfig(epochs=3), seed=0)
        assert all(np.array_equal(snapshot[k], model_b.params[k]) for k in snapshot)


class TestFinetune:
    """fit on phrase rows, as the finetune-phrases stage builds them: the
    sentence with the phrase's covering span."""

    def test_background_moves_toward_uniform(self):
        corpus = _toy_corpus()
        vocab = build_vocab(corpus, 1)
        phrases = [Phrase("s0:0-1", "s0", (0, 1), "fast car", "dependency"),
                   Phrase("s1:0-1", "s1", (0, 1), "slow bus", "dependency")]
        model = ReferenceEncoder(len(vocab) + 1, 4, ["x", "y"], seed=6)
        uniform = PseudoPhraseLabel.background("p", 2).distribution
        rows = [(sent, phrase_span(phrase), uniform) for sent, phrase in zip(corpus, phrases)]
        inputs = [phrase_input(vocab, sent, phrase) for sent, phrase in zip(corpus, phrases)]
        before = np.mean([model.predict(i).max() for i in inputs])
        fit(model, rows, vocab, TrainConfig(learning_rate=0.5, epochs=40), seed=0)
        after = np.mean([model.predict(i).max() for i in inputs])
        assert after < before

    def test_empty_input_unchanged(self):
        corpus = _toy_corpus()
        vocab = build_vocab(corpus, 1)
        model = ReferenceEncoder(len(vocab) + 1, 4, ["x", "y"], seed=6)
        before = {k: v.copy() for k, v in model.params.items()}
        fit(model, [], vocab, TrainConfig(), seed=0)
        assert all(np.array_equal(before[k], model.params[k]) for k in before)


class TestDecision:
    def test_uniform_below_threshold(self):
        assert classify_phrase(np.full(5, 0.2), 0.30, list("abcde")) is None

    def test_confident_class_returned(self):
        y = np.array([0.05, 0.9, 0.05])
        assert classify_phrase(y, 0.30, ["x", "food", "y"]) == "food"

    def test_tie_break_schema_order(self):
        y = np.array([0.30, 0.30, 0.2, 0.1, 0.1])
        assert classify_phrase(y, 0.30, list("abcde")) == "a"

    def test_threshold_zero_never_none(self):
        rng = np.random.default_rng(8)
        model = _model()
        for inp in _inputs(rng, 20):
            assert classify_phrase(model.predict(inp), 0.0, model.categories) is not None

    def test_threshold_above_one_always_none(self):
        rng = np.random.default_rng(9)
        model = _model()
        for inp in _inputs(rng, 20):
            assert classify_phrase(model.predict(inp), 1.0001, model.categories) is None


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = _model(dim=6, vocab=9, cats=("a", "b"), seed=12)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert again.categories == model.categories
        assert again.dim == model.dim and again.vocab_size == model.vocab_size
        for name in model.params:
            np.testing.assert_allclose(again.params[name], model.params[name], atol=1e-6)
        inp = ClassifierInput(np.array([0, 5, 3]))
        np.testing.assert_allclose(again.predict(inp), model.predict(inp), atol=1e-5)

    def test_float32_stable_after_second_roundtrip(self, tmp_path):
        model = _model()
        save_checkpoint(model, tmp_path / "a.ckpt")
        first = load_checkpoint(tmp_path / "a.ckpt")
        save_checkpoint(first, tmp_path / "b.ckpt")
        second = load_checkpoint(tmp_path / "b.ckpt")
        assert all(np.array_equal(first.params[k], second.params[k]) for k in first.params)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b'{"format": "other"}\n')
        with pytest.raises(CorpusError, match=f"junk.ckpt: not a {CHECKPOINT_FORMAT} file"):
            load_checkpoint(path)

    def test_header_records_float32_layout(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(_model(dim=4, vocab=7, cats=("a", "b")), path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header.keys() == {"kind", "arrays", "dim", "vocab_size", "categories"}
        assert header["kind"] == CHECKPOINT_FORMAT and (header["dim"], header["vocab_size"]) == (4, 7)
        assert header["categories"] == ["a", "b"]
        assert header["arrays"] == [
            ["emb", "<f4", [7, 4]], ["wq", "<f4", [4, 4]], ["wk", "<f4", [4, 4]],
            ["wv", "<f4", [4, 4]], ["wo", "<f4", [4, 2]], ["bo", "<f4", [2]],
        ]

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        save_checkpoint(_model(), path)

        def drop_head(header, blocks):
            header["arrays"] = [a for a in header["arrays"] if a[0] not in ("wo", "bo")]

        rewrite_arrayfile(path, drop_head)
        with pytest.raises(CorpusError, match="short.ckpt"):
            load_checkpoint(path)

    def test_renamed_array_rejected(self, tmp_path):
        path = tmp_path / "renamed.ckpt"
        save_checkpoint(_model(), path)

        def rename_bias(header, blocks):
            header["arrays"][-1][0] = "zz"
            blocks["zz"] = blocks.pop("bo")

        rewrite_arrayfile(path, rename_bias)
        with pytest.raises(CorpusError, match="renamed.ckpt"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "wide.ckpt"
        save_checkpoint(_model(dim=4, cats=("a", "b")), path)

        def widen_head(header, blocks):
            header["arrays"][-2][2] = [4, 3]
            blocks["wo"] += blocks["wo"][:16]

        rewrite_arrayfile(path, widen_head)
        with pytest.raises(CorpusError, match="wide.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["dim", "vocab_size", "categories"])
    def test_header_missing_key_rejected(self, tmp_path, key):
        path = tmp_path / "nokey.ckpt"
        save_checkpoint(_model(), path)
        rewrite_arrayfile(path, lambda header, blocks: header.pop(key))
        with pytest.raises(CorpusError, match=f"nokey.ckpt.*{key}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dim, categories", [(3, ["a", "b"]), (4, ["a"])])
    def test_header_the_encoder_rejects(self, tmp_path, dim, categories):
        path = tmp_path / "odd.ckpt"
        header = {"dim": dim, "vocab_size": 5, "categories": categories}
        arrays = [(name, dtype, np.zeros(shape)) for name, dtype, shape in _checkpoint_layout(header)]
        save_arrays(path, CHECKPOINT_FORMAT, header, arrays)
        with pytest.raises(CorpusError, match="odd.ckpt: "):
            load_checkpoint(path)

    def test_header_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "list.ckpt"
        path.write_bytes(b'["refenc-v2", 4]\n')
        with pytest.raises(CorpusError, match="list.ckpt"):
            load_checkpoint(path)

    def test_header_not_json_rejected(self, tmp_path):
        path = tmp_path / "binary.ckpt"
        path.write_bytes(b"\x00\x01junk\n")
        with pytest.raises(CorpusError, match="binary.ckpt"):
            load_checkpoint(path)

    def test_unk_tokens_map_to_reserved_id(self):
        corpus = _toy_corpus()
        vocab = build_vocab(corpus, 1)
        ids = token_ids(vocab, ["fast", "zzz-unknown"])
        assert ids[1] == len(vocab)
        assert ids[0] == vocab.id_of("fast")
