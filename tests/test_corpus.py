"""Corpus ingestion: CoNLL-U parsing, bracketed trees, schemas, vocabulary."""

import json
import re

import pytest

from opinionsum.corpus import (
    MAX_SENTENCE_TOKENS,
    ROOT,
    CorpusError,
    DepArc,
    Vocabulary,
    attach_trees,
    build_vocab,
    load_corpus,
    load_manifest,
    load_schema,
    parse_bracketed_tree,
    parse_conllu,
    parse_schema,
    sentence_from_json,
    sentence_to_conllu,
    sentence_to_json,
)
from util import RESTAURANT_ASPECTS, RESTAURANT_SENTIMENTS, make_sentence

SIMPLE = """\
# sent_id = a1
# review_id = r9
# target_id = t3
1\tthe\t_\tDET\tDT\t_\t3\tdet\t_\t_
2\tgreat\t_\tADJ\tJJ\t_\t3\tamod\t_\t_
3\tpizza\t_\tNOUN\tNN\t_\t0\troot\t_\t_
"""


class TestParseConllu:
    def test_empty_stream(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n") == []

    def test_three_token_sentence(self):
        sentences = parse_conllu(SIMPLE)
        assert len(sentences) == 1
        s = sentences[0]
        assert (s.id, s.review_id, s.target_id) == ("a1", "r9", "t3")
        assert s.tokens == ["the", "great", "pizza"]  # FORM
        assert s.pos == ["DT", "JJ", "NN"]  # XPOS
        assert s.deps == [DepArc(2, 0, "det"), DepArc(2, 1, "amod"), DepArc(ROOT, 2, "root")]
        non_root = [a for a in s.deps if a.head != ROOT]
        assert len(non_root) == 2

    def test_wrong_column_count(self):
        bad = "1\tthe\t_\tDET\tDT\n"
        with pytest.raises(CorpusError, match="line 1"):
            parse_conllu(bad)

    def test_form_with_whitespace_rejected(self):
        bad = SIMPLE.replace("\tgreat\t", "\tthe x\t")
        with pytest.raises(CorpusError, match=r"^line 5: FORM contains whitespace$"):
            parse_conllu(bad)

    def test_dangling_head(self):
        bad = "# sent_id = broken\n1\tword\t_\t_\tNN\t_\t9\tdep\t_\t_\n"
        with pytest.raises(CorpusError, match="broken"):
            parse_conllu(bad)

    def test_upos_fallback_when_xpos_missing(self):
        text = "1\tword\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
        assert parse_conllu(text)[0].pos == ["NOUN"]

    def test_auto_ids_and_carry_forward(self):
        text = (
            "# target_id = t7\n"
            "1\tx\t_\t_\tNN\t_\t0\troot\t_\t_\n\n"
            "1\ty\t_\t_\tNN\t_\t0\troot\t_\t_\n"
        )
        first, second = parse_conllu(text)
        assert first.id == "s0" and second.id == "s1"
        assert first.target_id == "t7" and second.target_id == "t7"
        assert first.review_id == "r0"

    def test_duplicate_sentence_id(self):
        text = (
            "# sent_id = dup\n1\tx\t_\t_\tNN\t_\t0\troot\t_\t_\n\n"
            "# sent_id = dup\n1\ty\t_\t_\tNN\t_\t0\troot\t_\t_\n"
        )
        with pytest.raises(CorpusError, match="dup"):
            parse_conllu(text)

    def test_sentence_length_limit(self):
        def sentence(n):
            return "".join(f"{i}\tw\t_\tNN\tNN\t_\t{int(i > 1)}\tdep\t_\t_\n" for i in range(1, n + 1))

        assert len(parse_conllu(sentence(MAX_SENTENCE_TOKENS))[0].tokens) == 512
        with pytest.raises(CorpusError, match=r"^line 513: sentence longer than 512 tokens$"):
            parse_conllu(sentence(MAX_SENTENCE_TOKENS + 1))

    def test_multiword_and_empty_node_lines_skipped(self):
        text = (
            "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tdo\t_\t_\tVB\t_\t0\troot\t_\t_\n"
            "2\tnot\t_\t_\tRB\t_\t1\tadvmod\t_\t_\n"
            "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        )
        s = parse_conllu(text)[0]
        assert s.tokens == ["do", "not"] and s.pos == ["VB", "RB"]

    def test_roundtrip(self):
        sentences = parse_conllu(SIMPLE)
        again = parse_conllu(sentence_to_conllu(sentences[0]))
        assert again == sentences

    @pytest.mark.parametrize(
        "deps, message",
        [([DepArc(2, 0, "det"), DepArc(2, 0, "amod"), DepArc(ROOT, 2, "root")], "token 0 has two heads"),
         ([DepArc(2, 0, "det"), DepArc(ROOT, 2, "root")], "token 1 has no head")],
    )
    def test_conllu_writer_needs_one_head_per_token(self, deps, message):
        s = parse_conllu(SIMPLE)[0]
        s.deps = deps
        with pytest.raises(CorpusError, match=f"^sentence a1: {message}$"):
            sentence_to_conllu(s)

    @pytest.mark.parametrize("pos", [["DT", "JJ"], [], ["DT", "JJ", "NN", "NN"]])
    def test_conllu_writer_needs_one_tag_per_token(self, pos):
        s = parse_conllu(SIMPLE)[0]
        s.pos = pos
        with pytest.raises(CorpusError, match=f"^sentence a1: {len(pos)} POS tags for 3 tokens$"):
            sentence_to_conllu(s)

    def test_json_roundtrip(self):
        """A manifest row keeps ids and token surfaces; the parse stays with extract."""
        s = parse_conllu(SIMPLE)[0]
        s.tree = parse_bracketed_tree("(NP (DT the) (JJ great) (NN pizza))")
        assert json.loads(sentence_to_json(s))["tokens"] == ["the", "great", "pizza"]
        back = sentence_from_json(sentence_to_json(s))
        assert (back.id, back.review_id, back.target_id) == (s.id, s.review_id, s.target_id)
        assert back.tokens == ["the", "great", "pizza"]
        assert back.pos == [] and back.deps == [] and back.tree is None

    @pytest.mark.parametrize(
        "edit",
        [{"id": ["a1"]}, {"target_id": 3}, {"review_id": None}, {"tokens": "the"}, {"tokens": []},
         {"tokens": [["the", "DT"]]}, {"tokens": [7]}, {"tokens": ["the", None]}, {"tokens": {"the": "DT"}}],
    )
    def test_json_rejects_row_off_the_manifest(self, edit):
        row = {**json.loads(sentence_to_json(parse_conllu(SIMPLE)[0])), **edit}
        with pytest.raises(ValueError, match="expected string id, target_id and review_id"):
            sentence_from_json(json.dumps(row))

    def test_manifest_rejects_a_repeated_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = sentence_to_json(parse_conllu(SIMPLE)[0])
        path.write_text(f"{row}\n\n{row}\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:3: ") + ".*duplicate id 'a1'"):
            load_manifest(path)


class TestParseBracketedTree:
    def test_two_leaf_np(self):
        tree = parse_bracketed_tree("(NP (DT the) (NN sauce))")
        assert tree.label == "NP" and tree.span == (0, 2)
        assert [c.label for c in tree.children] == ["DT", "NN"]
        assert [c.word for c in tree.children] == ["the", "sauce"]
        assert all(c.span == (i, i + 1) for i, c in enumerate(tree.children))

    def test_empty_constituent(self):
        with pytest.raises(CorpusError, match="empty constituent"):
            parse_bracketed_tree("(S)")

    def test_unbalanced(self):
        with pytest.raises(CorpusError, match="unbalanced"):
            parse_bracketed_tree("((S (NN x))")
        with pytest.raises(CorpusError, match="unbalanced"):
            parse_bracketed_tree("(S (NN x)))")

    def test_trailing_text(self):
        with pytest.raises(CorpusError, match="trailing"):
            parse_bracketed_tree("(NP (NN x)) (NP (NN y))")

    def test_spans_partition_parent(self):
        tree = parse_bracketed_tree(
            "(S (NP (DT the) (NN dog)) (VP (VBZ eats) (NP (JJ old) (NN shoes))) (ADVP (RB fast)))"
        )

        def check(node):
            if node.is_leaf():
                assert node.span[1] - node.span[0] == 1
                return
            assert node.children[0].span[0] == node.span[0]
            assert node.children[-1].span[1] == node.span[1]
            for left, right in zip(node.children, node.children[1:]):
                assert left.span[1] == right.span[0]
            for child in node.children:
                check(child)

        check(tree)
        assert tree.span == (0, 6)

    def test_deep_tree_parses_without_recursion(self):
        depth = 5000
        text = "(S " * depth + "(NN x)" + ")" * depth
        tree = parse_bracketed_tree(text)
        assert tree.to_bracketed() == text
        assert repr(tree) and (tree == parse_bracketed_tree(text)) in (True, False)
        for _ in range(depth):
            assert tree.label == "S" and tree.span == (0, 1) and len(tree.children) == 1
            (tree,) = tree.children
        assert (tree.label, tree.word, tree.span) == ("NN", "x", (0, 1))

    def test_bracket_roundtrip(self):
        text = "(S (NP (DT the) (NN dog)) (VP (VBZ runs)))"
        assert parse_bracketed_tree(text).to_bracketed() == text

    def test_attach_trees_validates_leaf_count(self):
        s = parse_conllu(SIMPLE)
        with pytest.raises(CorpusError, match="a1"):
            attach_trees(s, ["(NP (NN pizza))"])
        attach_trees(s, ["(NP (DT the) (JJ great) (NN pizza))"])
        assert s[0].tree.span == (0, 3)

    def test_attach_count_mismatch(self):
        with pytest.raises(CorpusError, match="count"):
            attach_trees(parse_conllu(SIMPLE), [])


class TestLoadCorpus:
    def _write(self, tmp_path, conllu, trees=None):
        (tmp_path / "c.conllu").write_text(conllu)
        if trees is not None:
            (tmp_path / "c.trees").write_text(trees)
            return tmp_path / "c.conllu", tmp_path / "c.trees"
        return tmp_path / "c.conllu", None

    def test_conllu_error_names_file_and_line(self, tmp_path):
        paths = self._write(tmp_path, SIMPLE.replace("\t3\tamod", "\tzz\tamod"))
        with pytest.raises(CorpusError, match=r"c\.conllu:5: non-integer HEAD 'zz'$"):
            load_corpus(*paths)

    def test_sentence_level_error_names_token_line(self, tmp_path):
        paths = self._write(tmp_path, SIMPLE.replace("\t3\tamod", "\t9\tamod"))
        with pytest.raises(CorpusError, match=r"c\.conllu:5: sentence a1: HEAD 9 out of range$"):
            load_corpus(*paths)

    def test_tree_error_names_file_and_line(self, tmp_path):
        two = SIMPLE + "\n" + SIMPLE.replace("a1", "a2")
        tree = "(NP (DT the) (JJ great) (NN pizza))"
        paths = self._write(tmp_path, two, f"{tree}\n(NP (DT the) (JJ great) (NN pizza)\n")
        with pytest.raises(CorpusError, match=r"c\.trees:2: offset 0: unbalanced"):
            load_corpus(*paths)
        paths = self._write(tmp_path, two, f"{tree}\n(NP (NN pizza))\n")
        with pytest.raises(CorpusError, match=r"c\.trees:2: sentence a2: tree has 1 leaves"):
            load_corpus(*paths)
        paths = self._write(tmp_path, two, f"{tree}\n")
        with pytest.raises(CorpusError, match=r"c\.trees: tree count 1 != sentence count 2$"):
            load_corpus(*paths)

    def test_schema_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# aspects\na: x\nno colon here\n")
        with pytest.raises(CorpusError, match=r"s\.txt:3: schema line without ':'"):
            load_schema(path, "aspect")
        path.write_text("a: x\n")
        with pytest.raises(CorpusError, match=r"s\.txt: schema needs at least 2 categories$"):
            load_schema(path, "aspect")


class TestBuildVocab:
    def _corpus(self, words):
        return [make_sentence([(w, "NN") for w in words])]

    def test_below_min_count_dropped(self):
        vocab = build_vocab(self._corpus(["food"] * 3), min_count=5)
        assert "food" not in vocab

    def test_keyword_retained_below_min_count(self):
        vocab = build_vocab(self._corpus(["food"] * 3), min_count=5, keep=["food"])
        assert "food" in vocab
        assert vocab.words[vocab.id_of("food")] == ("food", 3)

    def test_empty_corpus_keeps_keywords_at_zero(self):
        vocab = build_vocab([], min_count=1, keep=["spicy", "sushi"])
        assert sorted(vocab.words) == [("spicy", 0), ("sushi", 0)]

    def test_case_folding(self):
        vocab = build_vocab(self._corpus(["Food", "FOOD", "food"]), min_count=2)
        assert vocab.id_of("fOOd") is not None
        assert vocab.words[0] == ("food", 3)

    def test_deterministic_dense_ordering(self):
        corpus = self._corpus(["b", "a", "b", "c", "c"])
        vocab = build_vocab(corpus, min_count=1)
        assert [w for w, _ in vocab.words] == ["b", "c", "a"]  # freq desc, then lex
        assert [vocab.id_of(w) for w, _ in vocab.words] == [0, 1, 2]
        again = build_vocab(self._corpus(["b", "a", "b", "c", "c"]), min_count=1)
        assert again.words == vocab.words

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab(self._corpus(["a", "b", "a"]), min_count=1, keep=["zz"])
        vocab.save(tmp_path / "v.txt")
        again = Vocabulary.load(tmp_path / "v.txt")
        assert again.words == vocab.words
        assert (tmp_path / "v.txt").read_text() == "a\t2\nb\t1\nzz\t0\n"

    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),  # no words
            ("junk\n", 1),
            ("min_count x\na\t1\n", 1),  # a header line, as before version 0.7
            ("a\t1\nb 2\n", 2),  # row without a tab
            ("a\tmany\n", 1),  # non-integer count
        ],
    )
    def test_malformed_file_names_line(self, tmp_path, text, line):
        path = tmp_path / "v.txt"
        path.write_text(text)
        with pytest.raises(CorpusError, match=rf"v\.txt:{line}:"):
            Vocabulary.load(path)


class TestSchema:
    def test_restaurant_aspects(self):
        schema = parse_schema(RESTAURANT_ASPECTS, "aspect")
        assert schema.names == ["location", "drinks", "food", "ambience", "service"]
        assert schema.categories[0][1] == ["street", "block", "river", "avenue"]
        assert all(len(kws) == 4 for _, kws in schema.categories)

    def test_sentiments(self):
        schema = parse_schema(RESTAURANT_SENTIMENTS, "sentiment")
        assert schema.names == ["good", "bad"]
        assert schema.categories[0][1] == ["great", "nice", "excellent", "perfect"]
        assert schema.categories[1][1] == ["terrible", "horrible", "disappointed", "awful"]

    def test_single_category_rejected(self):
        with pytest.raises(CorpusError, match="2 categories"):
            parse_schema("only: a b", "aspect")

    def test_duplicate_category_rejected(self):
        with pytest.raises(CorpusError, match="duplicate"):
            parse_schema("a: x\na: y", "aspect")

    def test_empty_keywords_rejected(self):
        with pytest.raises(CorpusError, match="no keywords"):
            parse_schema("a: x\nb:", "aspect")

    def test_keywords_casefolded(self):
        schema = parse_schema("a: Spicy\nb: MILD", "aspect")
        assert schema.categories[0][1] == ["spicy"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(CorpusError, match="kind"):
            parse_schema("a: x\nb: y", "themes")
