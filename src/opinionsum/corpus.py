"""Ingestion of parsed review corpora.

Reads CoNLL-U token/dependency annotations and Penn-style bracketed
constituency trees produced by an external parser, loads keyword-seeded
category schemas, and builds the training vocabulary.
"""

import json
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

# Synthetic head index carried by HEAD=0 (root) arcs.  Root arcs are kept so
# sentences round-trip, but extraction rules never match them.
ROOT = -1

_CONLLU_COLS = 10
MAX_SENTENCE_TOKENS = 512  # BERT's input limit; attention and window pairs grow with its square
_ID_COMMENT = re.compile(r"#\s*(sent_id|review_id|target_id)\s*=\s*(\S+)\s*$")


class CorpusError(ValueError):
    """Malformed corpus, tree or schema input, or a damaged workdir artifact;
    line is the 1-based input line it was found on, when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.message, self.line = message, line


@dataclass
class DepArc:
    head: int  # token index, or ROOT
    dependent: int
    relation: str


@dataclass(eq=False, repr=False)  # the generated == and repr would recurse into a deep tree
class ConstNode:
    """Constituency tree node; spans are [start, end) token ranges."""

    label: str
    span: tuple[int, int]
    children: list["ConstNode"] = field(default_factory=list)
    word: str | None = None  # leaf nodes only

    def is_leaf(self) -> bool:
        return not self.children

    def to_bracketed(self) -> str:
        out, todo = [], [self]  # nodes still to write, each after its separator, and the ")" closing them
        while todo:
            node = todo.pop()
            if type(node) is str:
                out.append(node)
            elif node.is_leaf():
                if not node.word or "(" in node.word or ")" in node.word:
                    raise CorpusError(f"leaf {node.label} at {node.span} cannot be serialized")
                out.append(f"({node.label} {node.word})")
            else:
                out.append("(" + node.label)
                todo.append(")")
                for child in reversed(node.children):
                    todo += [child, " "]
        return "".join(out)


@dataclass
class Sentence:
    id: str
    target_id: str
    review_id: str
    tokens: list[str]  # surface forms
    # the parse, which only extraction reads: one POS tag per token, arcs, tree
    pos: list[str] = field(default_factory=list)
    deps: list[DepArc] = field(default_factory=list)
    tree: ConstNode | None = None


@dataclass
class CategorySchema:
    """Ordered, named categories with their seed keyword lists.

    kind is "aspect" or "sentiment"; category order defines the class-index
    order used by every downstream stage.  Keywords are stored case-folded.
    """

    kind: str
    categories: list[tuple[str, list[str]]]

    def __post_init__(self):
        if self.kind not in ("aspect", "sentiment"):
            raise CorpusError(f"unknown schema kind {self.kind!r}")
        if len(self.categories) < 2:
            raise CorpusError("schema needs at least 2 categories")
        seen = set()
        for name, keywords in self.categories:
            if not name or name != name.strip() or any(c.isspace() for c in name):
                raise CorpusError(f"bad category name {name!r}")
            if name in seen:
                raise CorpusError(f"duplicate category {name!r}")
            seen.add(name)
            if not keywords:
                raise CorpusError(f"category {name!r} has no keywords")
            if any(not k for k in keywords):
                raise CorpusError(f"category {name!r} has an empty keyword")

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.categories]

    def all_keywords(self) -> list[str]:
        out = []
        for _, keywords in self.categories:
            out.extend(keywords)
        return out


@dataclass
class Vocabulary:
    """Case-folded word list with dense ids 0..N-1.

    Ordering is frequency-descending then lexicographic, which makes ids
    stable across identical inputs.  Force-kept words (schema keywords) may
    carry frequency 0.
    """

    words: list[tuple[str, int]]

    def __post_init__(self):
        self._ids = {w: i for i, (w, _) in enumerate(self.words)}
        if len(self._ids) != len(self.words):
            raise CorpusError("duplicate word in vocabulary")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word.casefold() in self._ids

    def id_of(self, word: str) -> int | None:
        return self._ids.get(word.casefold())

    def save(self, path):
        Path(path).write_text("".join(f"{w}\t{c}\n" for w, c in self.words), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with _located(path):
            words = []
            for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
                if not line:
                    continue
                try:
                    w, c = line.split("\t")
                    words.append((w, int(c)))
                except ValueError:
                    raise CorpusError(f"expected 'word<TAB>count', got {line!r}", lineno) from None
            if not words:  # the schema keywords are always kept
                raise CorpusError("expected 'word<TAB>count', got no words", 1)
            return cls(words)


def parse_conllu(text: str) -> list[Sentence]:
    """Parse CoNLL-U text into sentences.

    Sentence/review/target ids come from '# sent_id = ...' style comments;
    missing sentence ids are generated from the sentence ordinal, and
    review/target ids carry forward from the previous sentence (defaults
    "r0"/"t0").  XPOS is preferred over UPOS for the POS tag.  Multiword-token
    and empty-node lines are skipped.
    """
    sentences: list[Sentence] = []
    seen_ids: set[str] = set()
    meta: dict[str, str] = {}
    rows: list[tuple[int, str, str, int, str]] = []  # (line_no, form, pos, head, rel)
    review, target = "r0", "t0"

    def flush():
        nonlocal review, target
        if not rows:
            meta.clear()
            return
        sid = meta.get("sent_id", f"s{len(sentences)}")
        review = meta.get("review_id", review)
        target = meta.get("target_id", target)
        if sid in seen_ids:
            raise CorpusError(f"duplicate sentence id {sid!r}", rows[0][0])
        seen_ids.add(sid)
        deps = []
        for i, (line_no, _, _, head, rel) in enumerate(rows):
            if head == 0:
                deps.append(DepArc(ROOT, i, rel))
                continue
            if not 1 <= head <= len(rows):
                raise CorpusError(f"sentence {sid}: HEAD {head} out of range", line_no)
            if head - 1 == i:
                raise CorpusError(f"sentence {sid}: token {i + 1} is its own head", line_no)
            deps.append(DepArc(head - 1, i, rel))
        tokens, pos = [form for _, form, _, _, _ in rows], [tag for _, _, tag, _, _ in rows]
        sentences.append(Sentence(sid, target, review, tokens, pos, deps))
        meta.clear()
        rows.clear()

    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            m = _ID_COMMENT.match(line)
            if m:
                meta[m.group(1)] = m.group(2)
            continue
        cols = line.split("\t")
        if len(cols) != _CONLLU_COLS:
            raise CorpusError(f"expected {_CONLLU_COLS} tab-separated columns, got {len(cols)}", line_no)
        tok_id, form, _, upos, xpos, _, head, rel = cols[:8]
        if "-" in tok_id or "." in tok_id:
            continue  # multiword-token range or empty node
        try:
            idx = int(tok_id)
        except ValueError:
            raise CorpusError(f"bad token id {tok_id!r}", line_no) from None
        if idx != len(rows) + 1:
            raise CorpusError(f"non-contiguous token id {idx}", line_no)
        if idx > MAX_SENTENCE_TOKENS:
            raise CorpusError(f"sentence longer than {MAX_SENTENCE_TOKENS} tokens", line_no)
        if not form:
            raise CorpusError("empty FORM", line_no)
        if any(c.isspace() for c in form):
            # every artifact downstream stores a word as one whitespace-free field
            raise CorpusError("FORM contains whitespace", line_no)
        try:
            head_i = int(head)
        except ValueError:
            raise CorpusError(f"non-integer HEAD {head!r}", line_no) from None
        pos = xpos if xpos != "_" else upos
        rows.append((line_no, form, pos, head_i, rel))
    flush()
    return sentences


def sentence_to_conllu(sentence: Sentence) -> str:
    """Serialize a sentence back to a CoNLL-U block (ends with a blank line).

    Every token must have a POS tag and be the dependent of exactly one arc.
    """
    if len(sentence.pos) != len(sentence.tokens):
        raise CorpusError(f"sentence {sentence.id}: {len(sentence.pos)} POS tags for {len(sentence.tokens)} tokens")
    arc_of: dict[int, DepArc] = {}
    for arc in sentence.deps:
        if arc.dependent in arc_of:
            raise CorpusError(f"sentence {sentence.id}: token {arc.dependent} has two heads")
        arc_of[arc.dependent] = arc
    lines = [
        f"# sent_id = {sentence.id}",
        f"# review_id = {sentence.review_id}",
        f"# target_id = {sentence.target_id}",
    ]
    for i, (form, pos) in enumerate(zip(sentence.tokens, sentence.pos)):
        arc = arc_of.get(i)
        if arc is None:
            raise CorpusError(f"sentence {sentence.id}: token {i} has no head")
        head = 0 if arc.head == ROOT else arc.head + 1
        lines.append("\t".join([str(i + 1), form, "_", "_", pos, "_", str(head), arc.relation, "_", "_"]))
    return "\n".join(lines) + "\n\n"


_TREE_TOKENS = re.compile(r"[()]|[^\s()]+")


def parse_bracketed_tree(text: str) -> ConstNode:
    """Parse a Penn-Treebank-style bracketed string into a ConstNode tree."""
    # Balance pre-check gives precise offsets for paren errors.
    depth = 0
    opens = []
    for i, ch in enumerate(text):
        if ch == "(":
            opens.append(i)
            depth += 1
        elif ch == ")":
            if depth == 0:
                raise CorpusError(f"offset {i}: unbalanced parentheses (unexpected ')')")
            opens.pop()
            depth -= 1
    if depth:
        raise CorpusError(f"offset {opens[0]}: unbalanced parentheses (unclosed '(')")

    toks = [(m.start(), m.group()) for m in _TREE_TOKENS.finditer(text)]
    if not toks:
        raise CorpusError("offset 0: empty tree text")
    if toks[0][1] != "(":
        raise CorpusError(f"offset {toks[0][0]}: expected '('")
    # one frame per open constituent: its offset, label, first leaf, children and words
    stack: list[tuple[int, str, int, list[ConstNode], list[tuple[int, str]]]] = []
    n_leaves = 0  # leaves closed so far: the next leaf's index
    for pos, (off, t) in enumerate(toks):
        if t == "(":
            if not stack and pos:
                raise CorpusError(f"offset {off}: trailing text after tree")
            label_off, label = toks[pos + 1]  # the balance check leaves a ')' after every '('
            if label in ("(", ")"):
                raise CorpusError(f"offset {label_off}: expected constituent label")
            stack.append((off, label, n_leaves, [], []))
        elif t == ")":
            open_off, label, leaf_at, children, words = stack.pop()
            if children and words:
                raise CorpusError(f"offset {words[0][0]}: constituent mixes words and subconstituents")
            if words:
                if len(words) > 1:
                    raise CorpusError(f"offset {words[1][0]}: leaf constituent with more than one word")
                node = ConstNode(label, (leaf_at, leaf_at + 1), [], words[0][1])
                n_leaves += 1
            elif not children:
                raise CorpusError(f"offset {open_off}: empty constituent {label!r}")
            else:
                node = ConstNode(label, (leaf_at, n_leaves), children)
            if stack:
                stack[-1][3].append(node)
            else:
                root = node
        elif not stack:
            raise CorpusError(f"offset {off}: trailing text after tree")
        elif toks[pos - 1][1] != "(":  # not the label, which the '(' read
            stack[-1][4].append((off, t))
    return root


def attach_trees(sentences: list[Sentence], tree_lines: Iterable[str]) -> None:
    """Attach one bracketed tree per sentence, aligned by order.

    Blank lines mean "no tree for this sentence".  The tree must have exactly
    one leaf per token.
    """
    lines = [ln.strip() for ln in tree_lines]
    if len(lines) != len(sentences):
        raise CorpusError(f"tree count {len(lines)} != sentence count {len(sentences)}")
    for line_no, (sent, line) in enumerate(zip(sentences, lines), 1):
        if not line:
            continue
        try:
            tree = parse_bracketed_tree(line)
        except CorpusError as exc:
            raise CorpusError(exc.message, line_no) from None
        n = len(sent.tokens)
        if tree.span != (0, n):  # the parser spans the root over every leaf
            raise CorpusError(f"sentence {sent.id}: tree has {tree.span[1]} leaves for {n} tokens", line_no)
        sent.tree = tree


@contextmanager
def _located(path):
    """Re-raise a CorpusError with its message prefixed by path (and line)."""
    try:
        yield
    except CorpusError as exc:
        where = str(path) if exc.line is None else f"{path}:{exc.line}"
        raise CorpusError(f"{where}: {exc.message}") from None


def _read_text(path) -> str:
    """The UTF-8 text of path; a byte that is not UTF-8 raises a CorpusError
    with its line, for _located(path) to name."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"not UTF-8 ({exc.reason})", data.count(b"\n", 0, exc.start) + 1) from None


def load_corpus(conllu_path, trees_path=None) -> list[Sentence]:
    """Parse a CoNLL-U file and attach its trees; a CorpusError names the
    file and, when known, the line."""
    with _located(conllu_path):
        sentences = parse_conllu(_read_text(conllu_path))
    if trees_path is not None:
        with _located(trees_path):
            attach_trees(sentences, _read_text(trees_path).splitlines())
    return sentences


def build_vocab(corpus: list[Sentence], min_count: int = 1, keep: Iterable[str] = ()) -> Vocabulary:
    """Case-folded word counts; words below min_count are dropped unless kept.

    `keep` lists words (typically schema keywords) retained even when rare or
    absent, in which case they carry their true (possibly zero) count.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(tok.casefold() for s in corpus for tok in s.tokens)
    kept = {k.casefold() for k in keep}
    entries = [(w, c) for w, c in counts.items() if c >= min_count or w in kept]
    entries += [(w, 0) for w in kept if w not in counts]
    entries.sort(key=lambda wc: (-wc[1], wc[0]))
    return Vocabulary(entries)


def parse_schema(text: str, kind: str) -> CategorySchema:
    """Parse `name: kw1 kw2 ...` lines into a schema; '#' lines are comments."""
    categories = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise CorpusError(f"schema line without ':': {line!r}", line_no)
        name, rest = line.split(":", 1)
        categories.append((name.strip(), [k.casefold() for k in rest.split()]))
    return CategorySchema(kind, categories)


def load_schema(path, kind: str) -> CategorySchema:
    with _located(path):
        return parse_schema(_read_text(path), kind)


def sentence_to_json(sentence: Sentence) -> str:
    """A corpus.jsonl row: ids and token surfaces; the parse stays in extract."""
    obj = {
        "id": sentence.id,
        "target_id": sentence.target_id,
        "review_id": sentence.review_id,
        "tokens": sentence.tokens,
    }
    return json.dumps(obj, sort_keys=True)


def sentence_from_json(line: str) -> Sentence:
    """A corpus.jsonl row: string id, target_id and review_id, and tokens a
    non-empty list of surface strings.  The sentence has no parse: pos and
    deps are empty and tree is None."""
    obj = json.loads(line)
    ids, tokens = (obj["id"], obj["target_id"], obj["review_id"]), obj["tokens"]
    if not (type(tokens) is list and tokens and all(type(v) is str for v in (*ids, *tokens))):
        raise ValueError("expected string id, target_id and review_id and a non-empty list of surface strings")
    return Sentence(*ids, tokens)


def unique_id(row, seen: set):
    """row, whose id no row before it had; adds the id to seen."""
    if row.id in seen:
        raise ValueError(f"duplicate id {row.id!r}")
    seen.add(row.id)
    return row


def load_manifest(path) -> list[Sentence]:
    """The sentences of a corpus.jsonl, ids unique, without their parse:
    pos == [], deps == [] and tree is None, as only extract, which reads the
    corpus itself, uses it."""
    seen: set[str] = set()
    return read_jsonl(path, lambda line: unique_id(sentence_from_json(line), seen))


def read_jsonl(path, parse) -> list:
    """parse(line) of each non-blank line of path.  A line that parse
    rejects raises a CorpusError naming path:line."""
    out = []
    with open(path, "rb") as f:  # decoded line by line, so that a bad byte names its line
        for n, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    out.append(parse(line))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                raise CorpusError(f"{path}:{n}: malformed row ({type(exc).__name__}: {exc})") from None
    return out
