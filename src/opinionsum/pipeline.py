"""End-to-end pipeline: stage orchestration, artifacts, and resumability.

Stages run in a fixed order, each writing its artifacts to the workdir
atomically and recording their sha256 digests, its hash and the metrics its
body returns in .meta/<stage>.json.  A stage's hash covers its name and
params, the package's sources, the external inputs' digests and the artifact
digests in the records of every stage before it, so a re-run that writes the
same bytes leaves the stages after it fresh.  A stage is fresh when its
record holds that hash and every artifact of the stage exists; a re-run skips
a fresh stage, and a single stage runs only over fresh upstream stages.  The
three training stages train their aspect and sentiment models in two forked
worker processes, one per schema.
"""

import ctypes
import functools
import hashlib
import json
import logging
import math
import multiprocessing
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .arrayfile import load_arrays, save_arrays
from .classifier import (
    ReferenceEncoder,
    TrainConfig,
    classify_phrase,
    encode_phrases,
    fit,
    load_checkpoint,
    phrase_span,
    save_checkpoint,
)
from .clustering import ClusterConfig, build_summary, merge_sequence, sorted_points
from .corpus import (
    CorpusError,
    Vocabulary,
    build_vocab,
    load_corpus,
    load_manifest,
    load_schema,
    read_jsonl,
    sentence_to_json,
    unique_id,
)
from .distill import (
    DistillConfig,
    PseudoPhraseLabel,
    PseudoSentenceLabel,
    joint_agreement_label,
    pseudo_sentence_labels,
)
from .embedding import EmbedConfig, SphereTrainer, init_space, load_space, phrase_similarity, save_space
from .extraction import Phrase, extract_candidates, phrase_from_json, phrase_to_json

log = logging.getLogger("opinionsum")

_KINDS = ("aspect", "sentiment")
_INPUT_FIELDS = ("corpus", "trees", "aspect_schema", "sentiment_schema")
_VECTORS_KIND = "phrase-vectors"  # the arrayfile kind of phrase_vectors.bin
_CLASSIFIED_KEYS = {"phrase_id", "target_id", "surface", "aspect", "sentiment"}


class ValidationError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass
class PipelineConfig:
    corpus: str = ""
    trees: str | None = None
    aspect_schema: str = ""
    sentiment_schema: str = ""
    workdir: str = "work"
    seed: int = 0
    min_count: int = 1
    encoder_dim: int = 32
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        _check_keys(cls, data, "")
        kwargs = dict(data)
        for f in fields(cls):
            if is_dataclass(f.type) and f.name in data:
                if not isinstance(data[f.name], dict):
                    raise ValidationError(f"{f.name} must be an object, got {data[f.name]!r}")
                _check_keys(f.type, data[f.name], f"{f.name}.")
                _check_types(f.type, data[f.name], f"{f.name}.")
                kwargs[f.name] = f.type(**data[f.name])
        _check_types(cls, kwargs, "")
        return cls(**kwargs)

    def validate(self):
        missing = []
        for label in _INPUT_FIELDS:
            path = getattr(self, label)
            if label == "trees" and path is None:
                continue
            if not path or not Path(path).exists():
                missing.append(f"{label}: {path!r}")
        if missing:
            raise ValidationError("missing input paths: " + "; ".join(missing))
        if not self.workdir:
            raise ValidationError("workdir not set")
        if self.min_count < 1:
            raise ValidationError("min_count must be >= 1")
        if self.encoder_dim < 2 or self.encoder_dim % 2:
            raise ValidationError("encoder_dim must be even and >= 2")
        for section in ("embed", "distill", "train", "cluster"):
            try:
                getattr(self, section).validate()
            except ValueError as exc:
                raise ValidationError(f"{section}.{exc}") from None

    def schema_path(self, kind: str) -> str:
        return self.aspect_schema if kind == "aspect" else self.sentiment_schema


def _check_keys(cls, data: dict, prefix: str) -> None:
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(prefix + k for k in unknown)}")


def _check_types(cls, data: dict, prefix: str) -> None:
    """Reject a value that does not fit its dataclass field (an int fits a
    float; NaN, which JSON and float() both accept, fits nothing)."""
    for f in fields(cls):
        allowed = typing.get_args(f.type) or (f.type,)
        allowed += (int,) if float in allowed else ()
        value = data.get(f.name)
        if f.name in data and (isinstance(value, bool) or not isinstance(value, allowed) or value != value):
            want = " or ".join(t.__name__ for t in allowed)
            raise ValidationError(f"{prefix}{f.name} must be {want}, got {value!r}")


def seed_for(base: int, *tags: str) -> int:
    blob = f"{base}/" + "/".join(tags)
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:4], "little")


def _atomic_save(path: Path, saver):
    """Run saver(tmp_path), then rename over the target; if either raises,
    remove the temporary file and re-raise."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        saver(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_lines(path: Path, lines):
    """Write each line followed by a newline, atomically."""
    _atomic_save(path, lambda p: p.write_text("".join(line + "\n" for line in lines), encoding="utf-8"))


# ---------------------------------------------------------------------------
# stage bodies


def _workdir(cfg) -> Path:
    return Path(cfg.workdir)


def _run_extract(cfg: PipelineConfig):
    w = _workdir(cfg)
    sentences = load_corpus(cfg.corpus, cfg.trees)
    keep = []
    for kind in _KINDS:
        keep.extend(load_schema(cfg.schema_path(kind), kind).all_keywords())
    vocab = build_vocab(sentences, cfg.min_count, keep=keep)
    phrase_lists = [extract_candidates(s) for s in sentences]
    _write_lines(w / "corpus.jsonl", [sentence_to_json(s) for s in sentences])
    _atomic_save(w / "vocab.txt", vocab.save)
    _write_lines(w / "phrases.jsonl", [phrase_to_json(p) for phrases in phrase_lists for p in phrases])


def _numpy_openblas():
    """The scipy-openblas library that numpy's wheels bundle, loaded, or None
    when numpy uses another BLAS."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))  # the handle of the copy numpy loaded
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


def _one_blas_thread():
    lib = _numpy_openblas()
    if lib is not None:
        set_threads = lib.scipy_openblas_set_num_threads64_  # void (int), as openblas_set_num_threads
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _per_kind(body, cfg: PipelineConfig) -> dict:
    """Run body(cfg, kind) for each kind in its own forked process; returns
    {kind: the body's metrics}.

    The kinds share no state and each seeds from its own seed_for(...), so
    the artifacts are byte-identical to running the bodies one after the
    other.  Only cfg and the metrics are pickled; each body reads its
    inputs from the workdir and writes its own artifact.  fork, not spawn:
    the workers inherit the imported package instead of importing it again
    (spawn cost 0.3-1 s more per stage call), and the pool forks both workers
    before it starts its own manager thread.  Each worker runs BLAS on one
    thread, so that the two do not oversubscribe the cores."""
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(len(_KINDS), mp_context=fork, initializer=_one_blas_thread) as pool:
        return dict(zip(_KINDS, pool.map(body, [cfg] * len(_KINDS), _KINDS)))


def _run_train_embed(cfg: PipelineConfig, kind: str) -> dict:
    w = _workdir(cfg)
    sentences = load_manifest(w / "corpus.jsonl")
    vocab = Vocabulary.load(w / "vocab.txt")
    schema = load_schema(cfg.schema_path(kind), kind)
    seed = seed_for(cfg.seed, "embed", kind)
    space = init_space(vocab, schema, cfg.embed, [s.id for s in sentences], seed)
    stats = SphereTrainer(space, sentences, schema, cfg.embed, seed).run()
    _atomic_save(w / f"embed_{kind}.bin", lambda p: save_space(space, p))
    return {"epochs": len(stats), "final_gen_loss": float(stats[-1].gen_loss)}


def _run_pseudo_label(cfg: PipelineConfig):
    w = _workdir(cfg)
    for kind in _KINDS:
        space = load_space(w / f"embed_{kind}.bin")
        labels = pseudo_sentence_labels(space, space.sent_ids, cfg.distill)
        _write_lines(w / f"pseudo_sentences_{kind}.jsonl", [l.to_json() for l in labels])


def _run_train_classifier(cfg: PipelineConfig, kind: str) -> dict:
    w = _workdir(cfg)
    sentences = {s.id: s for s in load_manifest(w / "corpus.jsonl")}
    vocab = Vocabulary.load(w / "vocab.txt")
    schema = load_schema(cfg.schema_path(kind), kind)
    n = len(schema.names)
    labels = read_jsonl(
        w / f"pseudo_sentences_{kind}.jsonl", lambda line: PseudoSentenceLabel.from_json(line, n, sentences)
    )
    model = ReferenceEncoder(len(vocab) + 1, cfg.encoder_dim, schema.names, seed_for(cfg.seed, "classifier", kind))
    rows = [(sentences[label.sentence_id], None, label.distribution) for label in labels]  # the whole sentence
    trajectory = fit(model, rows, vocab, cfg.train, seed_for(cfg.seed, "train", kind))
    _atomic_save(w / f"classifier_{kind}.ckpt", lambda p: save_checkpoint(model, p))
    return {"parameters": model.parameter_count(), "batches": len(trajectory), "last_loss": (trajectory or [None])[-1]}


def _phrase_row(line: str, sentences: dict) -> Phrase:
    """One phrases.jsonl row: a string id, a known sentence_id and int
    indices that strictly ascend inside [0, n) for that sentence's n tokens."""
    phrase = phrase_from_json(line)
    idx = phrase.token_indices
    if not (
        type(phrase.id) is str
        and phrase.sentence_id in sentences
        and idx
        and all(type(i) is int for i in idx)
        and 0 <= idx[0]
        and all(a < b for a, b in zip(idx, idx[1:]))
        and idx[-1] < len(sentences[phrase.sentence_id].tokens)
    ):
        raise ValueError("expected a string id, known sentence_id and int indices strictly ascending in [0, n_tokens)")
    return phrase


def _phrase_inputs(w: Path):
    sentences = {s.id: s for s in load_manifest(w / "corpus.jsonl")}
    seen: set[str] = set()
    phrases = read_jsonl(w / "phrases.jsonl", lambda line: unique_id(_phrase_row(line, sentences), seen))
    return sentences, phrases, Vocabulary.load(w / "vocab.txt")


def _run_phrase_labels(cfg: PipelineConfig):
    w = _workdir(cfg)
    sentences, phrases, vocab = _phrase_inputs(w)
    words = [[sentences[p.sentence_id].tokens[i] for i in p.token_indices] for p in phrases]
    for kind in _KINDS:
        space = load_space(w / f"embed_{kind}.bin")
        model = load_checkpoint(w / f"classifier_{kind}.ckpt")
        ys = encode_phrases(model, vocab, sentences, phrases)[0]
        labels = [
            PseudoPhraseLabel.excluded(phrase.id)  # no in-vocab token
            if sim is None
            else joint_agreement_label(phrase.id, y, sim, cfg.distill)
            for phrase, y, sim in zip(phrases, ys, phrase_similarity(space, words))
        ]
        _write_lines(w / f"phrase_labels_{kind}.jsonl", [l.to_json() for l in labels])


def _run_finetune(cfg: PipelineConfig, kind: str) -> dict:
    w = _workdir(cfg)
    sentences, phrases, vocab = _phrase_inputs(w)
    by_id = {p.id: p for p in phrases}
    model = load_checkpoint(w / f"classifier_{kind}.ckpt")
    n = len(model.categories)  # the schema's, in its order
    labels = read_jsonl(w / f"phrase_labels_{kind}.jsonl", lambda line: PseudoPhraseLabel.from_json(line, n, by_id))
    # each phrase's sentence, pooled over its covering span.  Excluded labels are
    # skipped; Background labels train toward the uniform distribution they carry
    rows = []
    for label in labels:
        if label.distribution is not None:
            phrase = by_id[label.phrase_id]
            rows.append((sentences[phrase.sentence_id], phrase_span(phrase), label.distribution))
    trajectory = fit(model, rows, vocab, cfg.train, seed_for(cfg.seed, "finetune", kind))
    _atomic_save(w / f"classifier_{kind}_ft.ckpt", lambda p: save_checkpoint(model, p))
    return {"batches": len(trajectory), "last_loss": (trajectory or [None])[-1]}


def _run_classify(cfg: PipelineConfig):
    w = _workdir(cfg)
    sentences, phrases, vocab = _phrase_inputs(w)
    rows = [
        {
            "phrase_id": phrase.id,
            "sentence_id": phrase.sentence_id,
            "target_id": sentences[phrase.sentence_id].target_id,
            "surface": phrase.surface,
        }
        for phrase in phrases
    ]
    for kind in _KINDS:
        model = load_checkpoint(w / f"classifier_{kind}_ft.ckpt")
        ys, vectors = encode_phrases(model, vocab, sentences, phrases)
        for row, y in zip(rows, ys):
            row[kind] = classify_phrase(y, cfg.distill.theta2, model.categories)
        if kind == "aspect":  # the aspect model's pooled vectors are the clustering space
            _atomic_save(
                w / "phrase_vectors.bin",
                lambda p: save_arrays(p, _VECTORS_KIND, {"dim": model.dim}, [("vectors", "<f8", vectors)]),
            )
    _write_lines(w / "classified.jsonl", [json.dumps(row, sort_keys=True) for row in rows])


def _classified_row(line: str) -> dict:
    row = json.loads(line)
    if type(row) is not dict or not _CLASSIFIED_KEYS <= row.keys():
        raise ValueError(f"expected an object with {sorted(_CLASSIFIED_KEYS)}")
    return row


def _grouped_row(line: str, seen: set) -> dict:
    """A classified.jsonl row as cluster groups it: string target_id, a string
    phrase_id no row before it had, and string or null labels.  summarize keeps
    the cheaper _classified_row."""
    row = _classified_row(line)
    pid = row["phrase_id"]
    if not (
        type(row["target_id"]) is type(pid) is str
        and pid not in seen
        and all(row[kind] is None or type(row[kind]) is str for kind in _KINDS)
    ):
        raise ValueError("expected string target_id, a string phrase_id no row before had, and string or null labels")
    seen.add(pid)
    return row


def _run_cluster(cfg: PipelineConfig) -> dict:
    w = _workdir(cfg)
    seen: set[str] = set()
    rows = read_jsonl(w / "classified.jsonl", lambda line: _grouped_row(line, seen))
    # one row per line of classified.jsonl, in the same order
    _, (vectors,) = load_arrays(
        w / "phrase_vectors.bin", _VECTORS_KIND, ("dim",), lambda h: [["vectors", "<f8", [len(rows), h["dim"]]]]
    )
    groups: dict[tuple[str, str, str], list] = {}  # rejected phrases are left out
    for row, vec in zip(rows, vectors):
        if row["aspect"] is not None and row["sentiment"] is not None:
            groups.setdefault((row["target_id"], row["aspect"], row["sentiment"]), []).append((row["phrase_id"], vec))
    lines = []
    for target, aspect, sentiment in sorted(groups):
        members, vecs = sorted_points(groups[target, aspect, sentiment])
        merges = merge_sequence(vecs)
        row = {"target_id": target, "aspect": aspect, "sentiment": sentiment, "members": members, "merges": merges}
        lines.append(json.dumps(row))
    _write_lines(w / "merges.jsonl", lines)
    return {"groups": len(groups)}


def _merges_row(line: str, surfaces: dict) -> dict:
    """One merges.jsonl row: known phrase ids, ascending, and their full
    merge_sequence, n - 1 merges [i, j, distance] with ints 0 <= i < j < n
    and finite distances >= 0 that never decrease, as _cut stops at the first
    distance above the threshold."""
    row = json.loads(line)
    members, merges = row["members"], row["merges"]
    last = 0.0  # the previous merge's distance
    if not (
        all(type(s) is str for s in (row["target_id"], row["aspect"], row["sentiment"], *members))
        and members == sorted(set(members))
        and surfaces.keys() >= set(members)
        and len(merges) == len(members) - 1
        and all(
            len(m) == 3
            and type(m[0]) is type(m[1]) is int
            and 0 <= m[0] < m[1] < len(members)
            and type(m[2]) is float
            and last <= (last := m[2]) < math.inf
            for m in merges
        )
    ):
        raise ValueError(
            "expected {target_id, aspect, sentiment, members, merges} with known phrase ids ascending "
            "and n - 1 merges [i, j, distance], 0 <= i < j < n, finite distances >= 0 in non-decreasing order"
        )
    return row


def _run_summarize(cfg: PipelineConfig):
    w = _workdir(cfg)
    surfaces = {r["phrase_id"]: r["surface"] for r in read_jsonl(w / "classified.jsonl", _classified_row)}
    merged: dict[str, dict] = {}  # target -> {(aspect, sentiment): (members, merges)}
    for row in read_jsonl(w / "merges.jsonl", lambda line: _merges_row(line, surfaces)):
        merged.setdefault(row["target_id"], {})[row["aspect"], row["sentiment"]] = (row["members"], row["merges"])
    cluster_lines = []
    out: dict[str, dict[str, list]] = {}  # target -> {"aspect|sentiment": [clusters]}
    for target, groups in sorted(merged.items()):
        for (aspect, sentiment), clusters in build_summary(groups, cfg.cluster.threshold).items():
            entries = out.setdefault(target, {}).setdefault(f"{aspect}|{sentiment}", [])
            for k, members in enumerate(clusters):
                cluster_id = f"{target}/{aspect}|{sentiment}/{k:03d}"
                row = {
                    "target_id": target,
                    "aspect": aspect,
                    "sentiment": sentiment,
                    "cluster_id": cluster_id,
                    "members": members,
                }
                cluster_lines.append(json.dumps(row, sort_keys=True))
                entries.append({"cluster_id": cluster_id, "phrases": [surfaces[p] for p in members]})
    _write_lines(w / "clusters.jsonl", cluster_lines)
    _write_lines(w / "summary.json", [json.dumps(out, sort_keys=True, indent=2)])


# ---------------------------------------------------------------------------
# stage registry and driver


@dataclass
class _Stage:
    name: str
    artifacts: tuple[str, ...]
    params: object  # cfg -> dict
    run: object  # cfg -> metrics dict or None


STAGES = (
    _Stage(
        "extract",
        ("corpus.jsonl", "vocab.txt", "phrases.jsonl"),
        lambda c: {"min_count": c.min_count},
        _run_extract,
    ),
    _Stage(
        "train-embed",
        ("embed_aspect.bin", "embed_sentiment.bin"),
        lambda c: {**asdict(c.embed), "seed": c.seed},
        lambda c: _per_kind(_run_train_embed, c),
    ),
    _Stage(
        "pseudo-label",
        ("pseudo_sentences_aspect.jsonl", "pseudo_sentences_sentiment.jsonl"),
        lambda c: {"top_k": c.distill.top_k, "alpha": c.distill.alpha},
        _run_pseudo_label,
    ),
    _Stage(
        "train-classifier",
        ("classifier_aspect.ckpt", "classifier_sentiment.ckpt"),
        lambda c: {**asdict(c.train), "encoder_dim": c.encoder_dim, "seed": c.seed},
        lambda c: _per_kind(_run_train_classifier, c),
    ),
    _Stage(
        "phrase-labels",
        ("phrase_labels_aspect.jsonl", "phrase_labels_sentiment.jsonl"),
        lambda c: {"theta1": c.distill.theta1, "theta2": c.distill.theta2, "alpha": c.distill.alpha},
        _run_phrase_labels,
    ),
    _Stage(
        "finetune-phrases",
        ("classifier_aspect_ft.ckpt", "classifier_sentiment_ft.ckpt"),
        lambda c: {**asdict(c.train), "seed": c.seed},
        lambda c: _per_kind(_run_finetune, c),
    ),
    _Stage(
        "classify",
        # the last artifact is the one a downstream StageError names as last good
        ("phrase_vectors.bin", "classified.jsonl"),
        lambda c: {"theta2": c.distill.theta2},
        _run_classify,
    ),
    _Stage(
        "cluster",
        ("merges.jsonl",),
        lambda c: {},
        _run_cluster,
    ),
    _Stage(
        "summarize",
        ("clusters.jsonl", "summary.json"),
        lambda c: {"threshold": c.cluster.threshold},
        _run_summarize,
    ),
)


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@functools.cache  # once per process
def _source_digest() -> str:
    """sha256 over the package's .py sources, so that any code change re-runs
    every stage."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f"{path.name}\0{_file_digest(path)}\n".encode())
    return h.hexdigest()


def _run(stage: _Stage, cfg: PipelineConfig, expected: str) -> dict[str, str]:
    """Run one stage body, then log the metrics it returns and record them
    with its hash and its artifacts' digests in .meta/<stage>.json; returns
    the digests.  The old record goes first, so a failed run leaves none.
    Whatever the body raises becomes a StageError naming the previous stage's
    last artifact, except a CorpusError, which names the malformed input file
    itself."""
    w = _workdir(cfg)
    i = STAGES.index(stage)
    last_good = str(w / STAGES[i - 1].artifacts[-1]) if i else "(none)"
    meta_path = w / ".meta" / f"{stage.name}.json"
    meta_path.parent.mkdir(parents=True, exist_ok=True)
    meta_path.unlink(missing_ok=True)
    try:
        metrics = stage.run(cfg)
    except CorpusError:
        raise
    except Exception as exc:
        raise StageError(
            stage.name,
            f"stage {stage.name!r} failed ({exc}); last good stage artifact: {last_good}",
        ) from exc
    if metrics:
        log.info("stage %s: %s", stage.name, json.dumps(metrics, sort_keys=True))
    digests = {a: _file_digest(w / a) for a in stage.artifacts}
    meta_path.write_text(json.dumps({"hash": expected, "artifacts": digests, "metrics": metrics}, sort_keys=True))
    return digests


def _fresh(w: Path, stage: _Stage, expected: str) -> dict[str, str] | None:
    """The artifact digests of the stage's .meta record if it holds the
    expected hash and a digest of each artifact of the stage, and every one
    exists; else None."""
    try:
        recorded = json.loads((w / ".meta" / f"{stage.name}.json").read_text())
    except (FileNotFoundError, ValueError):  # missing, not JSON, or not text
        return None
    if type(recorded) is not dict or recorded.get("hash") != expected:
        return None
    digests = recorded.get("artifacts")
    ok = type(digests) is dict and sorted(digests) == sorted(stage.artifacts) and all((w / a).exists() for a in digests)
    return digests if ok else None


def _walk(cfg: PipelineConfig, target: str | None = None, force: bool = False) -> dict[str, str]:
    """Skip each fresh stage and run each stale one (every one with force), in
    order; returns {stage: "ran" | "skipped"}.  With a target, refuse a stale
    stage before it, run the target and stop."""
    cfg.validate()
    w = _workdir(cfg)
    # each external input's digest keyed by config field: its content is in the hash, its location is not
    inputs = {name: _file_digest(getattr(cfg, name)) for name in _INPUT_FIELDS if getattr(cfg, name)}
    upstream: dict[str, str] = {}  # each artifact of the stages walked so far -> its digest
    report: dict[str, str] = {}
    for stage in STAGES:
        payload = {"stage": stage.name, "params": stage.params(cfg), "code": _source_digest(), "inputs": inputs}
        payload["upstream"] = upstream
        expected = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        digests = None if force or stage.name == target else _fresh(w, stage, expected)
        if digests is None and target not in (None, stage.name):
            raise ValidationError(
                f"stage {target!r} needs stage {stage.name!r} run for this config and code, but in {w} its "
                "record is stale or missing, or an artifact is missing; run it first, or use `run`"
            )
        report[stage.name] = "ran" if digests is None else "skipped"
        log.info("stage %s: %s", stage.name, "running" if digests is None else "skipped (up to date)")
        if digests is None:
            digests = _run(stage, cfg, expected)
        upstream.update(digests)
        if stage.name == target:
            break
    return report


def run_stage(cfg: PipelineConfig, name: str):
    """Run a single stage over the artifacts of the stages before it, and
    record it as run_pipeline does.  Every stage before it must be fresh for
    cfg, so that no stage reads artifacts that are missing or were made from
    other inputs, parameters or code."""
    if name not in [stage.name for stage in STAGES]:
        raise ValidationError(f"unknown stage {name!r}")
    _walk(cfg, target=name)


def run_pipeline(cfg: PipelineConfig, force: bool = False) -> dict[str, str]:
    """Run all stages in order; returns {stage: "ran" | "skipped"}."""
    return _walk(cfg, force=force)
