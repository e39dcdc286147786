"""Candidate opinion-phrase extraction.

Two recall-oriented rules over parser output, unioned:
  - dependency rule: a noun and an adjective/adverb joined by a one-hop
    amod or nsubj arc form a phrase, with the noun's compound tokens pulled in;
  - constituency rule: a root-level NP immediately followed by a sibling VP
    forms a phrase covering both spans.
"""

import json
from dataclasses import dataclass

from .corpus import ROOT, ConstNode, Sentence

_NOUN_UPOS = ("NOUN", "PROPN")
_MOD_UPOS = ("ADJ", "ADV")
_TRIGGER_RELATIONS = ("amod", "nsubj")


def _is_noun(pos: str) -> bool:
    return pos.startswith("NN") or pos in _NOUN_UPOS


def _is_modifier(pos: str) -> bool:
    return pos.startswith("JJ") or pos.startswith("RB") or pos in _MOD_UPOS


def _base_relation(rel: str) -> str:
    return rel.split(":", 1)[0]


def _base_label(label: str) -> str:
    return label.split("-", 1)[0].split("=", 1)[0]


@dataclass
class Phrase:
    id: str
    sentence_id: str
    token_indices: tuple[int, ...]
    surface: str
    source: str  # "dependency" | "constituency" | "both"


def _make_phrase(sentence: Sentence, indices, source: str) -> Phrase:
    idx = tuple(sorted(set(indices)))
    surface = " ".join(sentence.tokens[i] for i in idx)
    pid = f"{sentence.id}:{'-'.join(str(i) for i in idx)}"
    return Phrase(pid, sentence.id, idx, surface, source)


def extract_dependency_phrases(sentence: Sentence) -> list[Phrase]:
    """One phrase per amod/nsubj arc linking a noun to an adjective/adverb.

    Arc direction is ignored.  Tokens joined to the triggering noun by a
    one-hop compound arc are included, so compound nouns stay together.
    Duplicate index sets are emitted once.
    """
    compound: dict[int, set[int]] = {}
    for arc in sentence.deps:
        if arc.head == ROOT or _base_relation(arc.relation) != "compound":
            continue
        compound.setdefault(arc.head, set()).add(arc.dependent)
        compound.setdefault(arc.dependent, set()).add(arc.head)

    phrases: list[Phrase] = []
    seen: set[tuple[int, ...]] = set()
    for arc in sentence.deps:
        if arc.head == ROOT or _base_relation(arc.relation) not in _TRIGGER_RELATIONS:
            continue
        pos_h = sentence.pos[arc.head]
        pos_d = sentence.pos[arc.dependent]
        if _is_noun(pos_h) and _is_modifier(pos_d):
            noun, modifier = arc.head, arc.dependent
        elif _is_noun(pos_d) and _is_modifier(pos_h):
            noun, modifier = arc.dependent, arc.head
        else:
            continue
        indices = {noun, modifier} | compound.get(noun, set())
        key = tuple(sorted(indices))
        if key in seen:
            continue
        seen.add(key)
        phrases.append(_make_phrase(sentence, indices, "dependency"))
    return phrases


def _root_clause(tree: ConstNode) -> ConstNode:
    """Topmost internal node whose label starts with S, else the root."""
    queue = [tree]
    while queue:
        node = queue.pop(0)
        if node.children and _base_label(node.label).startswith("S"):
            return node
        queue.extend(node.children)
    return tree


def extract_constituency_phrases(sentence: Sentence) -> list[Phrase]:
    """One phrase per root-level NP immediately followed by a sibling VP."""
    if sentence.tree is None:
        return []
    clause = _root_clause(sentence.tree)
    phrases = []
    seen: set[tuple[int, ...]] = set()
    kids = clause.children
    for left, right in zip(kids, kids[1:]):
        if _base_label(left.label) == "NP" and _base_label(right.label) == "VP":
            indices = range(left.span[0], right.span[1])
            key = tuple(indices)
            if key in seen:
                continue
            seen.add(key)
            phrases.append(_make_phrase(sentence, indices, "constituency"))
    return phrases


def extract_candidates(sentence: Sentence) -> list[Phrase]:
    """Union of both extractors, deduplicated by token-index set.

    A phrase produced by both rules is tagged source="both".  Output is
    ordered by token indices, so it is stable under any input reordering.
    """
    by_key: dict[tuple[int, ...], Phrase] = {}
    for phrase in extract_dependency_phrases(sentence):
        by_key[phrase.token_indices] = phrase
    for phrase in extract_constituency_phrases(sentence):
        prior = by_key.get(phrase.token_indices)
        if prior is None:
            by_key[phrase.token_indices] = phrase
        elif prior.source == "dependency":
            prior.source = "both"
    return [by_key[k] for k in sorted(by_key)]


def phrase_to_json(phrase: Phrase) -> str:
    return json.dumps(
        {
            "id": phrase.id,
            "sentence_id": phrase.sentence_id,
            "indices": list(phrase.token_indices),
            "surface": phrase.surface,
            "source": phrase.source,
        },
        sort_keys=True,
    )


def phrase_from_json(line: str) -> Phrase:
    obj = json.loads(line)
    return Phrase(obj["id"], obj["sentence_id"], tuple(obj["indices"]), obj["surface"], obj["source"])
