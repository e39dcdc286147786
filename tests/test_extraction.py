"""Phrase extraction rules: dependency, constituency, and their union."""

from opinionsum.corpus import ROOT
from opinionsum.extraction import (
    extract_candidates,
    extract_constituency_phrases,
    extract_dependency_phrases,
)
from util import make_sentence

# "a full beer menu": amod(full -> menu) with compound(beer -> menu)
FULL_BEER_MENU = make_sentence(
    [("a", "DT"), ("full", "JJ"), ("beer", "NN"), ("menu", "NN")],
    [(3, 0, "det"), (3, 1, "amod"), (3, 2, "compound"), (ROOT, 3, "root")],
)

# "the price is reasonable": copular, nsubj(price -> reasonable)
PRICE_REASONABLE = make_sentence(
    [("the", "DT"), ("price", "NN"), ("is", "VBZ"), ("reasonable", "JJ")],
    [(1, 0, "det"), (3, 1, "nsubj"), (3, 2, "cop"), (ROOT, 3, "root")],
)

DIPPING_SAUCE_TREE = (
    "(S (NP (DT the) (NN dipping) (NN sauce)) (VP (VBZ is) (NP (PRP$ my) (NN favourite))))"
)
DIPPING_SAUCE = make_sentence(
    [("the", "DT"), ("dipping", "NN"), ("sauce", "NN"), ("is", "VBZ"), ("my", "PRP$"), ("favourite", "NN")],
    [(2, 0, "det"), (2, 1, "compound"), (5, 2, "nsubj"), (5, 3, "cop"), (5, 4, "nmod:poss"), (ROOT, 5, "root")],
    tree=DIPPING_SAUCE_TREE,
)


class TestDependencyRule:
    def test_amod_with_compound(self):
        phrases = extract_dependency_phrases(FULL_BEER_MENU)
        assert len(phrases) == 1
        assert phrases[0].surface == "full beer menu"
        assert phrases[0].token_indices == (1, 2, 3)
        assert phrases[0].source == "dependency"

    def test_nsubj(self):
        phrases = extract_dependency_phrases(PRICE_REASONABLE)
        assert [p.surface for p in phrases] == ["price reasonable"]
        assert phrases[0].token_indices == (1, 3)

    def test_no_nouns_yields_nothing(self):
        s = make_sentence(
            [("go", "VB"), ("fast", "RB")],
            [(ROOT, 0, "root"), (0, 1, "advmod")],
        )
        assert extract_dependency_phrases(s) == []

    def test_arc_direction_ignored(self):
        flipped = make_sentence(
            [("price", "NN"), ("reasonable", "JJ")],
            [(0, 1, "nsubj"), (ROOT, 0, "root")],
        )
        assert [p.surface for p in extract_dependency_phrases(flipped)] == ["price reasonable"]

    def test_adverb_modifier_qualifies(self):
        s = make_sentence(
            [("service", "NN"), ("fast", "RB")],
            [(0, 1, "amod"), (ROOT, 0, "root")],
        )
        assert [p.surface for p in extract_dependency_phrases(s)] == ["service fast"]

    def test_relation_subtype_matches(self):
        s = make_sentence(
            [("price", "NN"), ("reasonable", "JJ")],
            [(1, 0, "nsubj:pass"), (ROOT, 1, "root")],
        )
        assert len(extract_dependency_phrases(s)) == 1

    def test_duplicate_index_sets_emitted_once(self):
        s = make_sentence(
            [("price", "NN"), ("reasonable", "JJ")],
            [(1, 0, "nsubj"), (0, 1, "amod"), (ROOT, 1, "root")],
        )
        assert len(extract_dependency_phrases(s)) == 1

    def test_one_phrase_per_triggering_arc(self):
        s = make_sentence(
            [("big", "JJ"), ("tasty", "JJ"), ("burger", "NN")],
            [(2, 0, "amod"), (2, 1, "amod"), (ROOT, 2, "root")],
        )
        surfaces = {p.surface for p in extract_dependency_phrases(s)}
        assert surfaces == {"big burger", "tasty burger"}

    def test_root_arcs_never_match(self):
        s = make_sentence([("menu", "NN")], [(ROOT, 0, "amod")])
        assert extract_dependency_phrases(s) == []

    def test_every_phrase_contains_a_noun(self):
        for sent in (FULL_BEER_MENU, PRICE_REASONABLE, DIPPING_SAUCE):
            for p in extract_dependency_phrases(sent):
                assert any(sent.pos[i].startswith("NN") for i in p.token_indices)

    def test_noun_property_over_generated_corpus(self, tmp_path):
        from opinionsum.corpus import load_corpus
        from opinionsum.synthetic import SyntheticSpec, generate_synthetic

        paths = generate_synthetic(SyntheticSpec(n_sentences=60), 19, tmp_path)
        for sent in load_corpus(paths["corpus"], paths["trees"]):
            for p in extract_candidates(sent):
                assert any(sent.pos[i].startswith("NN") for i in p.token_indices)
                assert p.token_indices == tuple(sorted(set(p.token_indices)))
                assert p.surface == " ".join(sent.tokens[i] for i in p.token_indices)


class TestConstituencyRule:
    def test_np_followed_by_vp(self):
        phrases = extract_constituency_phrases(DIPPING_SAUCE)
        assert len(phrases) == 1
        assert phrases[0].surface == "the dipping sauce is my favourite"
        assert phrases[0].token_indices == (0, 1, 2, 3, 4, 5)
        assert phrases[0].source == "constituency"

    def test_vp_only_root_yields_nothing(self):
        s = make_sentence(
            [("run", "VB"), ("home", "NN")],
            tree="(S (VP (VB run) (NP (NN home))))",
        )
        assert extract_constituency_phrases(s) == []

    def test_np_punct_vp_not_consecutive(self):
        s = make_sentence(
            [("the", "DT"), ("sauce", "NN"), (",", ","), ("is", "VBZ"), ("fine", "JJ")],
            tree="(S (NP (DT the) (NN sauce)) (, ,) (VP (VBZ is) (ADJP (JJ fine))))",
        )
        assert extract_constituency_phrases(s) == []

    def test_missing_tree_yields_nothing(self):
        assert extract_constituency_phrases(PRICE_REASONABLE) == []

    def test_root_wrapper_descends_to_clause(self):
        s = make_sentence(
            [("sauce", "NN"), ("rocks", "VBZ")],
            tree="(ROOT (S (NP (NN sauce)) (VP (VBZ rocks))))",
        )
        assert [p.surface for p in extract_constituency_phrases(s)] == ["sauce rocks"]

    def test_no_clause_node_uses_root(self):
        s = make_sentence(
            [("sauce", "NN"), ("rocks", "VBZ")],
            tree="(FRAG (NP (NN sauce)) (VP (VBZ rocks)))",
        )
        assert len(extract_constituency_phrases(s)) == 1

    def test_function_tagged_labels_match(self):
        s = make_sentence(
            [("sauce", "NN"), ("rocks", "VBZ")],
            tree="(S (NP-SBJ (NN sauce)) (VP (VBZ rocks)))",
        )
        assert len(extract_constituency_phrases(s)) == 1


class TestUnion:
    def test_same_index_set_tagged_both(self):
        s = make_sentence(
            [("price", "NN"), ("rocks", "VBZ")],
            [(1, 0, "nsubj"), (ROOT, 1, "root")],
            tree="(S (NP (NN price)) (VP (VBZ rocks)))",
        )
        # dependency: nothing (VBZ not a modifier); force overlap with an adjective
        s2 = make_sentence(
            [("price", "NN"), ("fair", "JJ")],
            [(1, 0, "nsubj"), (ROOT, 1, "root")],
            tree="(S (NP (NN price)) (VP (JJ fair)))",
        )
        phrases = extract_candidates(s2)
        assert len(phrases) == 1
        assert phrases[0].source == "both"

    def test_disjoint_outputs_concatenate(self):
        phrases = extract_candidates(DIPPING_SAUCE)
        # nsubj sauce-favourite? favourite is NN, not a modifier -> dependency emits nothing
        assert [p.source for p in phrases] == ["constituency"]
        two = make_sentence(
            [("big", "JJ"), ("dog", "NN"), ("barks", "VBZ")],
            [(1, 0, "amod"), (ROOT, 2, "root"), (2, 1, "nsubj")],
            tree="(S (NP (JJ big) (NN dog)) (VP (VBZ barks)))",
        )
        phrases = extract_candidates(two)
        assert {p.source for p in phrases} == {"dependency", "constituency"}
        assert len(phrases) == 2

    def test_both_rules_kept_when_sets_differ(self):
        s = make_sentence(
            [("the", "DT"), ("price", "NN"), ("is", "VBZ"), ("reasonable", "JJ")],
            [(1, 0, "det"), (3, 1, "nsubj"), (3, 2, "cop"), (ROOT, 3, "root")],
            tree="(S (NP (DT the) (NN price)) (VP (VBZ is) (ADJP (JJ reasonable))))",
        )
        phrases = extract_candidates(s)
        assert [p.token_indices for p in phrases] == [(0, 1, 2, 3), (1, 3)]
        assert {p.source for p in phrases} == {"constituency", "dependency"}

    def test_deterministic_and_order_stable(self):
        first = extract_candidates(DIPPING_SAUCE)
        second = extract_candidates(DIPPING_SAUCE)
        assert first == second

    def test_phrase_ids_stable(self):
        p = extract_candidates(FULL_BEER_MENU)[0]
        assert p.id == "s0:1-2-3"
        assert p.sentence_id == "s0"
