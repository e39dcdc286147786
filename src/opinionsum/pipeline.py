"""End-to-end pipeline: stage orchestration, artifacts, and resumability.

Stages run in a fixed order, each writing its artifacts to the workdir
atomically.  A stage is skipped on re-run when its recorded hash (own params,
chained upstream hashes, external input digests, code version) still matches
and no upstream stage re-ran; anything downstream of a re-run stage re-runs
too.  The three training stages train their aspect and sentiment models in two
forked worker processes, one per schema.
"""

import hashlib
import json
import logging
import multiprocessing
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import (
    CHECKPOINT_FORMAT,
    ReferenceEncoder,
    TrainConfig,
    classify_phrase,
    encode_phrases,
    finetune_on_phrases,
    load_checkpoint,
    save_checkpoint,
    train_on_sentences,
)
from .clustering import ClusterConfig, build_summary
from .corpus import Vocabulary, build_vocab, load_corpus, load_manifest, load_schema, save_manifest
from .distill import (
    DistillConfig,
    PseudoPhraseLabel,
    PseudoSentenceLabel,
    joint_agreement_label,
    pseudo_sentence_labels,
)
from .embedding import EmbedConfig, SphereTrainer, init_space, load_space, phrase_similarity, save_space
from .extraction import extract_candidates, phrase_from_json, phrase_to_json

log = logging.getLogger("opinionsum")

_KINDS = ("aspect", "sentiment")
_INPUT_FIELDS = ("corpus", "trees", "aspect_schema", "sentiment_schema")


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
        try:
            self.embed.validate()
            self.distill.validate()
            self.train.validate()
            self.cluster.validate()
        except ValueError as exc:
            raise ValidationError(str(exc)) from None

    def schema_path(self, kind: str) -> str:
        return self.aspect_schema if kind == "aspect" else self.sentiment_schema


def _check_keys(cls, data: dict, prefix: str) -> None:
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(prefix + k for k in unknown)}")


def _check_types(cls, data: dict, prefix: str) -> None:
    """Reject a value that does not fit its dataclass field (an int fits a float)."""
    for f in fields(cls):
        allowed = typing.get_args(f.type) or (f.type,)
        allowed += (int,) if float in allowed else ()
        if f.name in data and (isinstance(data[f.name], bool) or not isinstance(data[f.name], allowed)):
            want = " or ".join(t.__name__ for t in allowed)
            raise ValidationError(f"{prefix}{f.name} must be {want}, got {data[f.name]!r}")


def seed_for(base: int, *tags: str) -> int:
    blob = f"{base}/" + "/".join(tags)
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:4], "little")


def _atomic_save(path: Path, saver):
    """Run saver(tmp_path), then rename over the target."""
    tmp = path.with_name(path.name + ".tmp")
    saver(tmp)
    os.replace(tmp, path)


def _write_lines(path: Path, lines):
    """Write each line followed by a newline, atomically."""
    _atomic_save(path, lambda p: p.write_text("".join(line + "\n" for line in lines), encoding="utf-8"))


def _save_npy(path: Path, array: np.ndarray):
    # through a file handle: np.save appends ".npy" to a path not ending in it
    with open(path, "wb") as f:
        np.save(f, array)


def _read_jsonl(path: Path, parse):
    with open(path, encoding="utf-8") as f:
        return [parse(line) for line in f if line.strip()]


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
    _atomic_save(w / "corpus.jsonl", lambda p: save_manifest(sentences, p))
    _atomic_save(w / "vocab.txt", vocab.save)
    _write_lines(w / "phrases.jsonl", [phrase_to_json(p) for phrases in phrase_lists for p in phrases])


def _per_kind(body, cfg: PipelineConfig):
    """Run body(cfg, kind) for each kind in its own forked process, then log
    the returned summaries in _KINDS order.

    The kinds share no state and each seeds from its own seed_for(...), so
    the artifacts are byte-identical to running the bodies one after the
    other.  Only cfg and the summaries are pickled; each body reads its
    inputs from the workdir and writes its own artifact.  fork, not spawn:
    the workers inherit the imported package instead of importing it again
    (spawn cost 0.3-1 s more per stage call), and the pool forks both workers
    before it starts its own manager thread."""
    with ProcessPoolExecutor(len(_KINDS), mp_context=multiprocessing.get_context("fork")) as pool:
        summaries = list(pool.map(body, [cfg] * len(_KINDS), _KINDS))
    for summary in summaries:
        log.info("%s", summary)


def _batches_note(trajectory) -> str:
    last = f", last loss {trajectory[-1]:.4f}" if trajectory else ""
    return f"{len(trajectory)} batches{last}"


def _run_train_embed(cfg: PipelineConfig, kind: str) -> str:
    w = _workdir(cfg)
    sentences = load_manifest(w / "corpus.jsonl")
    vocab = Vocabulary.load(w / "vocab.txt")
    schema = load_schema(cfg.schema_path(kind), kind)
    seed = seed_for(cfg.seed, "embed", kind)
    space = init_space(vocab, schema, cfg.embed, [s.id for s in sentences], seed)
    stats = SphereTrainer(space, sentences, schema, cfg.embed, seed).run()
    _atomic_save(w / f"embed_{kind}.txt", lambda p: save_space(space, p))
    return f"train-embed[{kind}]: {len(stats)} epochs, final gen loss {stats[-1].gen_loss:.2f}"


def _run_pseudo_label(cfg: PipelineConfig):
    w = _workdir(cfg)
    for kind in _KINDS:
        space = load_space(w / f"embed_{kind}.txt")
        labels = pseudo_sentence_labels(space, space.sent_ids, cfg.distill)
        _write_lines(w / f"pseudo_sentences_{kind}.jsonl", [l.to_json() for l in labels])


def _run_train_classifier(cfg: PipelineConfig, kind: str) -> str:
    w = _workdir(cfg)
    sentences = load_manifest(w / "corpus.jsonl")
    vocab = Vocabulary.load(w / "vocab.txt")
    schema = load_schema(cfg.schema_path(kind), kind)
    labels = _read_jsonl(w / f"pseudo_sentences_{kind}.jsonl", PseudoSentenceLabel.from_json)
    model = ReferenceEncoder(len(vocab) + 1, cfg.encoder_dim, schema.names, seed_for(cfg.seed, "classifier", kind))
    seed = seed_for(cfg.seed, "train", kind)
    _, trajectory = train_on_sentences(model, labels, sentences, vocab, cfg.train, seed)
    _atomic_save(
        w / f"classifier_{kind}.ckpt",
        lambda p: save_checkpoint(model, p, seed, schema.fingerprint()),
    )
    return f"train-classifier[{kind}]: {model.parameter_count()} parameters, {_batches_note(trajectory)}"


def _phrase_inputs(w: Path):
    sentences = {s.id: s for s in load_manifest(w / "corpus.jsonl")}
    phrases = _read_jsonl(w / "phrases.jsonl", phrase_from_json)
    return sentences, phrases, Vocabulary.load(w / "vocab.txt")


def _run_phrase_labels(cfg: PipelineConfig):
    w = _workdir(cfg)
    sentences, phrases, vocab = _phrase_inputs(w)
    for kind in _KINDS:
        space = load_space(w / f"embed_{kind}.txt")
        model = load_checkpoint(w / f"classifier_{kind}.ckpt")
        labels = []
        for phrase, (y, _) in zip(phrases, encode_phrases(model, vocab, sentences, phrases)):
            tokens = sentences[phrase.sentence_id].tokens
            try:
                sim = phrase_similarity(space, [tokens[i].surface for i in phrase.token_indices])
            except ValueError:
                labels.append(PseudoPhraseLabel.excluded(phrase.id))  # no in-vocab token
                continue
            labels.append(joint_agreement_label(phrase.id, y, sim, cfg.distill))
        _write_lines(w / f"phrase_labels_{kind}.jsonl", [l.to_json() for l in labels])


def _run_finetune(cfg: PipelineConfig, kind: str) -> str:
    w = _workdir(cfg)
    sentences, phrases, vocab = _phrase_inputs(w)
    model = load_checkpoint(w / f"classifier_{kind}.ckpt")
    labels = _read_jsonl(w / f"phrase_labels_{kind}.jsonl", PseudoPhraseLabel.from_json)
    seed = seed_for(cfg.seed, "finetune", kind)
    by_id = {p.id: p for p in phrases}
    _, trajectory = finetune_on_phrases(model, labels, by_id, list(sentences.values()), vocab, cfg.train, seed)
    _atomic_save(w / f"classifier_{kind}_ft.ckpt", lambda p: save_checkpoint(model, p, seed))
    return f"finetune[{kind}]: {_batches_note(trajectory)}"


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
        encoded = encode_phrases(model, vocab, sentences, phrases)
        for row, (y, _) in zip(rows, encoded):
            row[kind] = classify_phrase(y, cfg.distill.theta2, model.categories)
        if kind == "aspect":
            # the aspect model's pooled vectors are the clustering space
            vectors = np.array([v for _, v in encoded], dtype=np.float64).reshape(len(phrases), model.dim)
            _atomic_save(w / "phrase_vectors.npy", lambda p: _save_npy(p, vectors))
    _write_lines(w / "classified.jsonl", [json.dumps(row, sort_keys=True) for row in rows])


def _run_cluster(cfg: PipelineConfig):
    w = _workdir(cfg)
    phrases = _read_jsonl(w / "phrases.jsonl", phrase_from_json)
    rows = _read_jsonl(w / "classified.jsonl", json.loads)
    labels = {r["phrase_id"]: r for r in rows}
    vectors = np.load(w / "phrase_vectors.npy")
    if len(vectors) != len(phrases):
        raise ValueError(
            f"{w / 'phrase_vectors.npy'}: {len(vectors)} rows for {len(phrases)} phrases in phrases.jsonl"
        )
    embeddings = {phrase.id: vec for phrase, vec in zip(phrases, vectors)}

    by_target: dict[str, list] = {}  # build_summary leaves out rejected phrases
    for phrase in phrases:
        by_target.setdefault(labels[phrase.id]["target_id"], []).append(phrase)

    out_lines = []
    for target in sorted(by_target):
        members = by_target[target]
        summary = build_summary(
            members,
            {p.id: labels[p.id]["aspect"] for p in members},
            {p.id: labels[p.id]["sentiment"] for p in members},
            embeddings,
            cfg.cluster,
        )
        for (aspect, sentiment), clusters in summary.items():
            for k, cluster in enumerate(clusters):
                row = {
                    "target_id": target,
                    "aspect": aspect,
                    "sentiment": sentiment,
                    "cluster_id": f"{target}/{aspect}|{sentiment}/{k:03d}",
                    "members": cluster,
                }
                out_lines.append(json.dumps(row, sort_keys=True))
    _write_lines(w / "clusters.jsonl", out_lines)


def _run_summarize(cfg: PipelineConfig):
    w = _workdir(cfg)
    rows = _read_jsonl(w / "clusters.jsonl", json.loads)
    classified = _read_jsonl(w / "classified.jsonl", json.loads)
    surfaces = {r["phrase_id"]: r["surface"] for r in classified}
    # target -> {"aspect|sentiment": [clusters in clusters.jsonl order]}
    out: dict[str, dict[str, list]] = {}
    for row in rows:
        group = out.setdefault(row["target_id"], {}).setdefault(f"{row['aspect']}|{row['sentiment']}", [])
        group.append({"cluster_id": row["cluster_id"], "phrases": [surfaces[p] for p in row["members"]]})
    _write_lines(w / "summary.json", [json.dumps(out, sort_keys=True, indent=2)])


# ---------------------------------------------------------------------------
# stage registry and driver


@dataclass
class _Stage:
    name: str
    artifacts: tuple[str, ...]
    params: object  # cfg -> dict
    run: object  # cfg -> None
    inputs: object = None  # cfg -> {config field: external path}


def _input_paths(cfg: PipelineConfig) -> dict[str, str]:
    """External inputs keyed by config field, so their location stays out of the hash."""
    return {name: getattr(cfg, name) for name in _INPUT_FIELDS if getattr(cfg, name)}


STAGES = (
    _Stage(
        "extract",
        ("corpus.jsonl", "vocab.txt", "phrases.jsonl"),
        lambda c: {"min_count": c.min_count},
        _run_extract,
        _input_paths,
    ),
    _Stage(
        "train-embed",
        ("embed_aspect.txt", "embed_sentiment.txt"),
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
        ("phrase_vectors.npy", "classified.jsonl"),
        lambda c: {"theta2": c.distill.theta2},
        _run_classify,
    ),
    _Stage(
        "cluster",
        ("clusters.jsonl",),
        lambda c: asdict(c.cluster),
        _run_cluster,
    ),
    _Stage(
        "summarize",
        ("summary.json",),
        lambda c: {},
        _run_summarize,
    ),
)


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _stage_hash(stage: _Stage, cfg: PipelineConfig, upstream: str) -> str:
    # the code version and artifact format, so that an upgrade re-runs stages
    payload = {
        "stage": stage.name,
        "params": stage.params(cfg),
        "upstream": upstream,
        "version": __version__,
        "checkpoint_format": CHECKPOINT_FORMAT,
    }
    if stage.inputs is not None:
        payload["inputs"] = {name: _file_digest(p) for name, p in stage.inputs(cfg).items()}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _run(stage: _Stage, cfg: PipelineConfig, last_good: str):
    """Run one stage body; whatever it raises becomes a StageError."""
    try:
        stage.run(cfg)
    except Exception as exc:
        raise StageError(
            stage.name,
            f"stage {stage.name!r} failed ({exc}); last good stage artifact: {last_good}",
        ) from exc


def run_stage(cfg: PipelineConfig, name: str):
    """Run a single stage over the artifacts of the stage before it."""
    names = [stage.name for stage in STAGES]
    if name not in names:
        raise ValidationError(f"unknown stage {name!r}")
    i = names.index(name)
    w = _workdir(cfg)
    last_good = "(none)"
    if i:
        before = STAGES[i - 1]
        missing = [a for a in before.artifacts if not (w / a).exists()]
        if missing:
            raise ValidationError(f"stage {name!r} needs {missing} in {w}; run stage {before.name!r} first")
        last_good = str(w / before.artifacts[-1])
    w.mkdir(parents=True, exist_ok=True)
    _run(STAGES[i], cfg, last_good)


def run_pipeline(cfg: PipelineConfig, force: bool = False) -> dict[str, str]:
    """Run all stages in order; returns {stage: "ran" | "skipped"}."""
    cfg.validate()
    w = _workdir(cfg)
    w.mkdir(parents=True, exist_ok=True)
    meta_dir = w / ".meta"
    meta_dir.mkdir(exist_ok=True)

    report: dict[str, str] = {}
    upstream = ""
    upstream_ran = False
    last_good = "(none)"
    for stage in STAGES:
        expected = _stage_hash(stage, cfg, upstream)
        meta_path = meta_dir / f"{stage.name}.json"
        fresh = False
        if not force and not upstream_ran and meta_path.exists():
            try:
                recorded = json.loads(meta_path.read_text())
            except json.JSONDecodeError:
                recorded = {}
            fresh = recorded.get("hash") == expected and all(
                (w / a).exists() for a in stage.artifacts
            )
        if fresh:
            report[stage.name] = "skipped"
            log.info("stage %s: skipped (up to date)", stage.name)
        else:
            log.info("stage %s: running", stage.name)
            _run(stage, cfg, last_good)
            meta_path.write_text(
                json.dumps({"hash": expected, "artifacts": list(stage.artifacts)}, sort_keys=True)
            )
            report[stage.name] = "ran"
            upstream_ran = True
        last_good = str(w / stage.artifacts[-1])
        upstream = expected
    return report
