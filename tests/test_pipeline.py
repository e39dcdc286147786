"""Pipeline orchestration: artifacts, resumability, determinism, errors."""

import dataclasses
import json
import math
import os
import re
import shutil
import signal
from pathlib import Path

import numpy as np
import pytest

from opinionsum import clustering, corpus, pipeline
from opinionsum.arrayfile import load_arrays, save_arrays
from opinionsum.cli import main
from opinionsum.classifier import TrainConfig
from opinionsum.clustering import ClusterConfig
from opinionsum.corpus import CorpusError, Sentence
from opinionsum.distill import DistillConfig
from opinionsum.embedding import EmbedConfig, TrainingError
from opinionsum.pipeline import (
    PipelineConfig,
    StageError,
    ValidationError,
    run_pipeline,
    run_stage,
    seed_for,
)
from opinionsum.synthetic import SyntheticSpec, generate_synthetic
from util import phrase_input, rewrite_arrayfile


def _small_config(data_dir, workdir, seed=1) -> PipelineConfig:
    paths = generate_synthetic(
        SyntheticSpec(n_sentences=120, n_targets=2, vocab_per_category=12), 5, data_dir
    )
    return PipelineConfig(
        corpus=str(paths["corpus"]),
        trees=str(paths["trees"]),
        aspect_schema=str(paths["aspect_schema"]),
        sentiment_schema=str(paths["sentiment_schema"]),
        workdir=str(workdir),
        seed=seed,
        embed=EmbedConfig(dim=16, epochs=4),
        distill=DistillConfig(top_k=60),
        train=TrainConfig(learning_rate=0.2, epochs=2),
        encoder_dim=8,
        cluster=ClusterConfig(threshold=7.0),
    )


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipe")
    cfg = _small_config(base / "data", base / "work")
    report = run_pipeline(cfg)
    return cfg, report


def _read_jsonl(path):
    return [json.loads(l) for l in open(path) if l.strip()]


def _copy(cfg, dest):
    shutil.copytree(cfg.workdir, dest)
    return dataclasses.replace(cfg, workdir=str(dest))


def _config_flags(cfg, tmp_path) -> list[str]:
    """CLI flags for cfg: a config file holding all of it, as a stage
    subcommand runs only over records of the same config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    return ["--config", str(path)]


class TestFullRun:
    def test_all_stages_ran(self, ran):
        _, report = ran
        assert all(status == "ran" for status in report.values())
        assert list(report) == [
            "extract", "train-embed", "pseudo-label", "train-classifier",
            "phrase-labels", "finetune-phrases", "classify", "cluster", "summarize",
        ]

    def test_summary_exists_and_parses(self, ran):
        cfg, _ = ran
        summary = json.loads((Path(cfg.workdir) / "summary.json").read_text())
        assert summary  # at least one target
        for target, groups in summary.items():
            for group, clusters in groups.items():
                aspect, sentiment = group.split("|")
                assert aspect.startswith("topic") and sentiment in ("good", "bad")
                assert all(c["phrases"] for c in clusters)

    def test_every_classified_phrase_clustered_exactly_once(self, ran):
        cfg, _ = ran
        w = Path(cfg.workdir)
        classified = _read_jsonl(w / "classified.jsonl")
        eligible = {r["phrase_id"] for r in classified if r["aspect"] and r["sentiment"]}
        clustered = [m for row in _read_jsonl(w / "clusters.jsonl") for m in row["members"]]
        assert sorted(clustered) == sorted(eligible)

    def test_cluster_members_grouped_consistently(self, ran):
        cfg, _ = ran
        w = Path(cfg.workdir)
        label = {r["phrase_id"]: r for r in _read_jsonl(w / "classified.jsonl")}
        for row in _read_jsonl(w / "clusters.jsonl"):
            for member in row["members"]:
                assert label[member]["aspect"] == row["aspect"]
                assert label[member]["sentiment"] == row["sentiment"]
                assert label[member]["target_id"] == row["target_id"]

    def test_manifest_rows_hold_ids_and_tokens_only(self, ran):
        cfg, _ = ran
        rows = _read_jsonl(Path(cfg.workdir) / "corpus.jsonl")
        assert rows and all(row.keys() == {"id", "review_id", "target_id", "tokens"} for row in rows)
        assert all(row["tokens"] and all(type(t) is str for t in row["tokens"]) for row in rows)

    def test_records_hold_each_stage_metrics(self, ran):
        cfg, _ = ran
        w = Path(cfg.workdir)
        records = {s.name: json.loads((w / ".meta" / f"{s.name}.json").read_text()) for s in pipeline.STAGES}
        assert all(sorted(r) == ["artifacts", "hash", "metrics"] for r in records.values())
        metrics = {name: r["metrics"] for name, r in records.items()}
        for name in ("train-embed", "train-classifier", "finetune-phrases"):
            assert sorted(metrics[name]) == ["aspect", "sentiment"], name
        assert all(m["epochs"] == cfg.embed.epochs for m in metrics["train-embed"].values())
        assert all(m["batches"] > 0 for m in metrics["train-classifier"].values())
        assert metrics["cluster"] == {"groups": len(_read_jsonl(w / "merges.jsonl"))}
        assert [name for name, m in metrics.items() if m is None] == [
            "extract", "pseudo-label", "phrase-labels", "classify", "summarize",
        ]

    def test_stages_after_extract_parse_no_tree(self, ran, tmp_path, monkeypatch):
        def parse(text):
            raise AssertionError("a stage after extract parsed a tree")

        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        w = Path(copy.workdir)
        for stage in pipeline.STAGES[1:]:  # re-run every stage after extract
            (w / ".meta" / f"{stage.name}.json").unlink()
        monkeypatch.setattr(corpus, "parse_bracketed_tree", parse)  # fork carries the patch
        report = run_pipeline(copy)
        assert report == {stage.name: "skipped" if stage.name == "extract" else "ran" for stage in pipeline.STAGES}
        assert (w / "summary.json").read_bytes() == (Path(cfg.workdir) / "summary.json").read_bytes()

    def test_checkpoint_headers_hold_only_what_the_reader_reads(self, ran):
        cfg, _ = ran
        paths = sorted(Path(cfg.workdir).glob("classifier_*.ckpt"))
        assert [p.name for p in paths] == [
            "classifier_aspect.ckpt", "classifier_aspect_ft.ckpt",
            "classifier_sentiment.ckpt", "classifier_sentiment_ft.ckpt",
        ]
        for path in paths:
            header = json.loads(path.read_bytes().split(b"\n", 1)[0])
            assert header.keys() == {"kind", "arrays", "dim", "vocab_size", "categories"}, path.name

    def test_aspect_and_sentiment_models_are_independent(self, ran):
        # same machinery, two schema instances, no shared weights
        import numpy as np

        from opinionsum.classifier import load_checkpoint

        cfg, _ = ran
        w = Path(cfg.workdir)
        aspect = load_checkpoint(w / "classifier_aspect_ft.ckpt")
        sentiment = load_checkpoint(w / "classifier_sentiment_ft.ckpt")
        assert aspect.categories == ["topic0", "topic1"]
        assert sentiment.categories == ["good", "bad"]
        assert not np.array_equal(aspect.params["emb"], sentiment.params["emb"])


class TestPhraseVectors:
    def test_rows_are_finetuned_aspect_encodings(self, ran):
        from opinionsum.classifier import load_checkpoint
        from opinionsum.corpus import Vocabulary, load_manifest
        from opinionsum.extraction import phrase_from_json

        cfg, _ = ran
        w = Path(cfg.workdir)
        vectors = _load_vectors(w)
        phrases = [phrase_from_json(l) for l in open(w / "phrases.jsonl") if l.strip()]
        sentences = {s.id: s for s in load_manifest(w / "corpus.jsonl")}
        vocab = Vocabulary.load(w / "vocab.txt")
        model = load_checkpoint(w / "classifier_aspect_ft.ckpt")
        assert vectors.dtype == np.float64
        assert vectors.shape == (len(phrases), cfg.encoder_dim)
        for row, phrase in zip(vectors, phrases):
            expect = model.encode(phrase_input(vocab, sentences[phrase.sentence_id], phrase))
            assert np.array_equal(row, expect)

    def test_cluster_reads_only_phrases_labels_and_vectors(self, ran, tmp_path):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        w = Path(copy.workdir)
        expect = (w / "merges.jsonl").read_bytes()
        keep = {"classified.jsonl", "phrase_vectors.bin"}
        for f in w.iterdir():  # upstream artifacts must exist, so they become junk
            if f.is_file() and f.name not in keep:
                f.write_bytes(b"junk\n")
        run_stage(copy, "cluster")
        assert (w / "merges.jsonl").read_bytes() == expect

    def test_cluster_rejects_row_count_mismatch(self, ran, tmp_path):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        w = Path(copy.workdir)
        _save_vectors(w, _load_vectors(w)[:-1])
        with pytest.raises(CorpusError, match=r"phrase_vectors\.bin: arrays .* are not the"):
            run_stage(copy, "cluster")


def _load_vectors(w: Path) -> np.ndarray:
    rows = sum(1 for line in open(w / "classified.jsonl") if line.strip())
    layout = lambda h: [["vectors", "<f8", [rows, h["dim"]]]]
    return load_arrays(w / "phrase_vectors.bin", pipeline._VECTORS_KIND, ("dim",), layout)[1][0]


def _save_vectors(w: Path, vectors: np.ndarray):
    meta = {"dim": vectors.shape[1]}
    save_arrays(w / "phrase_vectors.bin", pipeline._VECTORS_KIND, meta, [("vectors", "<f8", vectors)])


def _count_sequences(monkeypatch) -> list:
    """Count the merge_sequence calls from here on."""
    calls = []
    real = clustering.merge_sequence

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    for owner in (clustering, pipeline):
        monkeypatch.setattr(owner, "merge_sequence", counting)
    return calls


def _edit_merges(edit):
    """Damage: apply edit to the first merges.jsonl row with a merge."""

    def damage(w):
        path = w / "merges.jsonl"
        lines = path.read_text().splitlines()
        n = next(k for k, line in enumerate(lines) if json.loads(line)["merges"])
        record = json.loads(lines[n])
        edit(record)
        lines[n] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        return n + 1

    return damage


def _truncate(w):
    path = w / "merges.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]) + "\n")
    return len(lines)


def _not_json(w):
    (w / "merges.jsonl").write_text("merges\n")
    return 1


def _set_first_merge(index, value):
    def edit(record):
        record["merges"][0][index] = value(record) if callable(value) else value

    return _edit_merges(edit)


class TestMergeSequences:
    """The cluster stage stores each group's merge sequence in merges.jsonl;
    summarize cuts the stored sequences at the threshold."""

    def test_threshold_change_computes_no_sequence(self, ran, tmp_path, monkeypatch):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        calls = _count_sequences(monkeypatch)
        retuned = dataclasses.replace(copy, cluster=ClusterConfig(threshold=0.1))
        report = run_pipeline(retuned)
        assert [name for name, status in report.items() if status == "ran"] == ["summarize"]
        assert calls == []

        run_pipeline(dataclasses.replace(retuned, workdir=str(tmp_path / "fresh")))
        for name in ("merges.jsonl", "clusters.jsonl", "summary.json"):
            assert (tmp_path / "work" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        at_default = (Path(cfg.workdir) / "clusters.jsonl").read_bytes()
        assert (tmp_path / "work" / "clusters.jsonl").read_bytes() != at_default

    def test_threshold_change_starts_no_worker(self, ran, tmp_path, monkeypatch):
        """A threshold-only re-run runs summarize alone, in this process."""
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")

        def no_pool(*args, **kwargs):
            raise AssertionError("a threshold change started a worker pool")

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
        report = run_pipeline(dataclasses.replace(copy, cluster=ClusterConfig(threshold=0.1)))
        assert [name for name, status in report.items() if status == "ran"] == ["summarize"]

    def test_changed_phrase_vectors_recompute(self, ran, tmp_path, monkeypatch):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        w = Path(copy.workdir)
        before = _read_jsonl(w / "merges.jsonl")
        encode = pipeline.encode_phrases
        monkeypatch.setattr(pipeline, "encode_phrases", lambda *a: (encode(*a)[0], 2 * encode(*a)[1]))
        run_stage(copy, "classify")
        run_stage(copy, "cluster")
        # doubling every vector doubles every distance exactly and keeps the order
        for row in before:
            row["merges"] = [[i, j, 2 * d] for i, j, d in row["merges"]]
        assert _read_jsonl(w / "merges.jsonl") == before

    def test_rejected_phrases_left_out(self, ran, tmp_path):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        w = Path(copy.workdir)
        rows = _read_jsonl(w / "classified.jsonl")
        rows[0]["aspect"] = None
        (w / "classified.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        run_stage(copy, "cluster")
        run_stage(copy, "summarize")
        stored = [m for row in _read_jsonl(w / "merges.jsonl") for m in row["members"]]
        clustered = [m for row in _read_jsonl(w / "clusters.jsonl") for m in row["members"]]
        eligible = sorted(r["phrase_id"] for r in rows if r["aspect"] and r["sentiment"])
        assert rows[0]["phrase_id"] not in eligible
        assert sorted(stored) == sorted(clustered) == eligible

    @pytest.mark.parametrize(
        "damage",
        [
            _truncate,
            _not_json,
            _set_first_merge(1, lambda record: len(record["members"])),  # j = n
            _set_first_merge(2, float("nan")),
            _edit_merges(lambda record: record["members"].pop()),
            _set_first_merge(2, lambda record: record["merges"][-1][2] + 1.0),
        ],
        ids=["truncated", "not-json", "j-equals-n", "nan-distance", "length-mismatch", "decreasing-distance"],
    )
    def test_damaged_file_exits_1(self, ran, tmp_path, capsys, damage):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        line = damage(Path(copy.workdir))
        flags = _config_flags(copy, tmp_path)
        capsys.readouterr()
        assert main(["summarize", *flags]) == 1
        err = capsys.readouterr().err
        assert f"merges.jsonl:{line}: " in err and "Traceback" not in err


def _edit_row(edit, line=1):
    """Damage: apply edit to the JSON object on one line of a JSON-lines file."""

    def damage(path):
        lines = path.read_text().splitlines()
        row = json.loads(lines[line - 1])
        edit(row)
        lines[line - 1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        return line

    return damage


def _not_json_at(line):
    def damage(path):
        lines = path.read_text().splitlines()
        lines[line - 1] = "not json"
        path.write_text("\n".join(lines) + "\n")
        return line

    return damage


def _not_utf8_at(line):
    def damage(path):
        lines = path.read_bytes().splitlines()
        lines[line - 1] = lines[line - 1][:-2] + b"\xff\xfe"
        path.write_bytes(b"\n".join(lines) + b"\n")
        return line

    return damage


def _repeat_previous_at(line):
    """Damage: overwrite one line of a JSON-lines file with the line before
    it, so the file keeps its row count and holds one id twice."""

    def damage(path):
        lines = path.read_text().splitlines()
        lines[line - 1] = lines[line - 2]
        path.write_text("\n".join(lines) + "\n")
        return line

    return damage


def _cut_last_line(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]) + "\n")
    return len(lines)


def _replace_header(path):
    path.write_bytes(b"not json\n" + path.read_bytes().split(b"\n", 1)[1])


def _append_byte(path):
    path.write_bytes(path.read_bytes() + b"\0")


def _drop_last_bytes(path):
    path.write_bytes(path.read_bytes()[:-4])


def _nan_first_value(path):
    def edit(header, blocks):
        name, dtype, _ = header["arrays"][0]
        blocks[name] = np.array([np.nan], dtype).tobytes() + blocks[name][np.dtype(dtype).itemsize :]

    rewrite_arrayfile(path, edit)


def _exits_1_naming_the_file(ran, tmp_path, capsys, artifact, damage, command) -> str:
    """Damage the artifact in a copy of the run, run the stage subcommand,
    and check that it exits 1 naming the file (and the line damage returns);
    returns stderr."""
    cfg, _ = ran
    copy = _copy(cfg, tmp_path / "work")
    line = damage(Path(copy.workdir) / artifact)
    flags = _config_flags(copy, tmp_path)
    capsys.readouterr()
    assert main([command, *flags]) == 1
    err = capsys.readouterr().err
    where = f"{artifact}:{line}: " if line else f"{artifact}: "
    assert where in err and "Traceback" not in err and "error: stage" not in err
    return err


class TestDamagedArtifacts:
    """A damaged workdir artifact exits 1 with a message naming it (and the
    line, for JSON lines), whichever stage reads it."""

    @pytest.mark.parametrize(
        "artifact, damage, command",
        [
            ("corpus.jsonl", _edit_row(lambda row: row.pop("tokens"), 2), "classify"),
            ("phrases.jsonl", _cut_last_line, "classify"),
            ("phrases.jsonl", _not_utf8_at(2), "classify"),
            ("phrases.jsonl", _edit_row(lambda row: row.update(indices=[999]), 2), "phrase-labels"),
            ("phrases.jsonl", _edit_row(lambda row: row.update(sentence_id="no-such-sentence"), 2), "finetune-phrases"),
            ("pseudo_sentences_aspect.jsonl", _not_json_at(2), "train-classifier"),
            ("pseudo_sentences_sentiment.jsonl", _edit_row(lambda row: row.update(distribution=[math.inf, 0.0]), 2),
             "train-classifier"),
            ("phrase_labels_sentiment.jsonl", _edit_row(lambda row: row.pop("outcome"), 3), "finetune-phrases"),
            ("classified.jsonl", _edit_row(lambda row: row.pop("surface")), "cluster"),
            ("classified.jsonl", _edit_row(lambda row: row.pop("surface")), "summarize"),
            ("embed_aspect.bin", _append_byte, "pseudo-label"),
            ("classifier_aspect_ft.ckpt", _drop_last_bytes, "classify"),
            ("classifier_sentiment.ckpt", _replace_header, "finetune-phrases"),
            ("phrase_vectors.bin", _replace_header, "cluster"),
            ("embed_aspect.bin", _nan_first_value, "pseudo-label"),
            ("classifier_aspect.ckpt", _nan_first_value, "phrase-labels"),
            ("classifier_aspect_ft.ckpt", _nan_first_value, "classify"),
            ("phrase_vectors.bin", _nan_first_value, "cluster"),
            # an id that names no manifest row, a manifest row off its format, and a repeated id
            pytest.param("pseudo_sentences_aspect.jsonl", _edit_row(lambda row: row.update(id=["x"]), 2),
                         "train-classifier", id="sentence-label-list-id"),
            pytest.param("pseudo_sentences_aspect.jsonl", _edit_row(lambda row: row.update(id="nope"), 2),
                         "train-classifier", id="sentence-label-unknown-id"),
            pytest.param("phrase_labels_aspect.jsonl", _edit_row(lambda row: row.update(id="nope"), 2),
                         "finetune-phrases", id="phrase-label-unknown-id"),
            pytest.param("corpus.jsonl", _edit_row(lambda row: row["tokens"].__setitem__(0, 7), 2),
                         "train-classifier", id="manifest-int-surface"),
            pytest.param("corpus.jsonl",
                         _edit_row(lambda row: row.update(tokens=[[t, "NN"] for t in row["tokens"]]), 2),
                         "train-classifier", id="manifest-surface-pos-pairs"),
            pytest.param("corpus.jsonl", _edit_row(lambda row: row.update(id=["x"]), 2), "phrase-labels",
                         id="manifest-list-id"),
            pytest.param("corpus.jsonl", _repeat_previous_at(3), "train-classifier", id="manifest-repeated-id"),
            pytest.param("phrases.jsonl", _edit_row(lambda row: row.update(id=["x"]), 2), "finetune-phrases",
                         id="phrase-list-id"),
            pytest.param("phrases.jsonl", _repeat_previous_at(3), "classify", id="phrase-repeated-id"),
            pytest.param("classified.jsonl", _edit_row(lambda row: row.update(aspect=["x"]), 2), "cluster",
                         id="classified-list-aspect"),
            pytest.param("classified.jsonl", _edit_row(lambda row: row.update(target_id=["x"]), 2), "cluster",
                         id="classified-list-target"),
            pytest.param("classified.jsonl", _repeat_previous_at(3), "cluster", id="classified-repeated-id"),
        ],
    )
    def test_exits_1_naming_the_file(self, ran, tmp_path, capsys, artifact, damage, command):
        _exits_1_naming_the_file(ran, tmp_path, capsys, artifact, damage, command)

    @pytest.mark.parametrize(
        "artifact, edit, command",
        [
            ("pseudo_sentences_aspect.jsonl", lambda row: row.update(distribution=[0.5, 0.25, 0.25]),
             "train-classifier"),
            ("pseudo_sentences_aspect.jsonl", lambda row: row.update(distribution=[-5.0, 6.0]), "train-classifier"),
            ("phrase_labels_aspect.jsonl", lambda row: row.update(outcome="bogus"), "finetune-phrases"),
            ("phrase_labels_aspect.jsonl", lambda row: row.update(outcome="soft", distribution=[0.5, 0.25, 0.25]),
             "finetune-phrases"),
        ],
        ids=["sentence-3-entries", "sentence-negative", "phrase-bogus-outcome", "phrase-soft-3-entries"],
    )
    def test_label_row_off_the_schema_exits_1_naming_the_line(self, ran, tmp_path, capsys, artifact, edit, command):
        err = _exits_1_naming_the_file(ran, tmp_path, capsys, artifact, _edit_row(edit, 2), command)
        assert "distribution" in err

    @pytest.mark.parametrize("indices", [[], [-1], [1, 1], [2, 1], [0.5], [3]])
    def test_phrase_row_rejects_indices_outside_the_sentence(self, indices):
        sentences = {"s": Sentence("s", "t", "r", ["a", "b", "c"])}
        row = {"id": "s:x", "sentence_id": "s", "surface": "a", "source": "dependency"}
        assert pipeline._phrase_row(json.dumps({**row, "indices": [0, 2]}), sentences).token_indices == (0, 2)
        with pytest.raises(ValueError, match="strictly ascending"):
            pipeline._phrase_row(json.dumps({**row, "indices": indices}), sentences)


class TestFinetuneStage:
    def test_excluded_labels_skipped(self, ran, tmp_path):
        """Excluded labels carry no target: with every label Excluded the
        fine-tuned checkpoint keeps the base checkpoint's parameters."""
        from opinionsum.classifier import load_checkpoint

        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        w = Path(copy.workdir)
        for kind in ("aspect", "sentiment"):
            base = load_checkpoint(w / f"classifier_{kind}.ckpt").params
            tuned = load_checkpoint(w / f"classifier_{kind}_ft.ckpt").params
            assert not np.array_equal(base["wo"], tuned["wo"])  # the run trained on its Soft and Background labels
            path = w / f"phrase_labels_{kind}.jsonl"
            rows = [{"id": row["id"], "outcome": "excluded", "distribution": None} for row in _read_jsonl(path)]
            path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        run_stage(copy, "finetune-phrases")
        for kind in ("aspect", "sentiment"):
            base = load_checkpoint(w / f"classifier_{kind}.ckpt").params
            tuned = load_checkpoint(w / f"classifier_{kind}_ft.ckpt").params
            assert all(np.array_equal(base[name], tuned[name]) for name in base)
        metrics = json.loads((w / ".meta" / "finetune-phrases.json").read_text())["metrics"]
        assert [metrics[kind]["batches"] for kind in ("aspect", "sentiment")] == [0, 0]


class TestResume:
    def test_second_run_skips_everything(self, ran):
        cfg, _ = ran
        report = run_pipeline(cfg)
        assert all(status == "skipped" for status in report.values())

    def test_deleting_cluster_output_reruns_only_cluster(self, ran):
        """cluster writes the same bytes again, so summarize stays fresh."""
        cfg, _ = ran
        merges = Path(cfg.workdir) / "merges.jsonl"
        before = merges.read_bytes()
        merges.unlink()
        report = run_pipeline(cfg)
        assert [name for name, status in report.items() if status == "ran"] == ["cluster"]
        assert report["summarize"] == "skipped"
        assert merges.read_bytes() == before

    def test_deleting_clusters_reruns_only_summarize(self, ran):
        cfg, _ = ran
        (Path(cfg.workdir) / "clusters.jsonl").unlink()
        report = run_pipeline(cfg)
        assert [name for name, status in report.items() if status == "ran"] == ["summarize"]

    def test_same_bytes_stop_the_rerun(self, ran, tmp_path):
        """theta1 0.35 -> 0.45 re-runs phrase-labels, which writes the same
        labels, so no stage after it re-runs."""
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        w = Path(copy.workdir)
        before = {f.name: f.read_bytes() for f in w.iterdir() if f.is_file()}
        assert copy.distill.theta1 == 0.35
        report = run_pipeline(dataclasses.replace(copy, distill=dataclasses.replace(copy.distill, theta1=0.45)))
        assert [name for name, status in report.items() if status == "ran"] == ["phrase-labels"]
        assert {f.name: f.read_bytes() for f in w.iterdir() if f.is_file()} == before

    @pytest.mark.parametrize("name", ["train-embed", "train-classifier", "classify"])
    def test_deleting_a_record_reruns_only_its_stage(self, ran, tmp_path, name):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        meta = Path(copy.workdir) / ".meta"
        record = (meta / f"{name}.json").read_bytes()
        (meta / f"{name}.json").unlink()
        report = run_pipeline(copy)
        assert [stage for stage, status in report.items() if status == "ran"] == [name]
        assert (meta / f"{name}.json").read_bytes() == record

    def test_param_change_invalidates_downstream_only(self, ran):
        cfg, _ = ran
        changed = dataclasses.replace(cfg, cluster=ClusterConfig(threshold=3.0))
        report = run_pipeline(changed)
        assert [name for name, status in report.items() if status == "ran"] == ["summarize"]

        upstream = dataclasses.replace(changed, embed=EmbedConfig(dim=16, epochs=5))
        report = run_pipeline(upstream)
        assert report["extract"] == "skipped"
        assert all(status == "ran" for name, status in report.items() if name != "extract")
        run_pipeline(cfg)  # restore artifacts for later tests

    @staticmethod
    def _moved_inputs(cfg, tmp_path):
        """Copy the inputs to a new directory and the workdir to another."""
        moved = {}
        for name in ("corpus", "trees", "aspect_schema", "sentiment_schema"):
            src = Path(getattr(cfg, name))
            moved[name] = str(shutil.copy(src, tmp_path / src.name))
        shutil.copytree(cfg.workdir, tmp_path / "work")
        return dataclasses.replace(cfg, workdir=str(tmp_path / "work"), **moved)

    def test_inputs_at_another_path_skip_everything(self, ran, tmp_path):
        cfg, _ = ran
        moved = self._moved_inputs(cfg, tmp_path)
        report = run_pipeline(moved)
        assert list(report.values()) == ["skipped"] * 9

    def test_changed_input_byte_reruns_extract(self, ran, tmp_path):
        cfg, _ = ran
        moved = self._moved_inputs(cfg, tmp_path)
        corpus = Path(moved.corpus)
        text = corpus.read_bytes()
        corpus.write_bytes(text.replace(b"\tthe\t", b"\tThe\t", 1))
        assert corpus.read_bytes() != text
        report = run_pipeline(moved)
        assert report["extract"] == "ran"

    @pytest.mark.parametrize("module, name", [("__init__.py", "__version__"), ("classifier.py", "CHECKPOINT_FORMAT")],
                             ids=["__version__", "CHECKPOINT_FORMAT"])
    def test_code_or_format_change_reruns_everything(self, ran, tmp_path, monkeypatch, module, name):
        """Bumping the package version or the checkpoint format in the source
        changes the source digest, and so every stage's hash."""
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        src = tmp_path / "src"
        src.mkdir()
        for path in Path(pipeline.__file__).parent.glob("*.py"):
            shutil.copy(path, src / path.name)
        text = (src / module).read_text()
        bumped = re.sub(rf'^({re.escape(name)} = ")', r"\1bumped-", text, count=1, flags=re.M)
        assert bumped != text
        (src / module).write_text(bumped)
        real = pipeline._source_digest()
        monkeypatch.setattr(pipeline, "__file__", str(src / "pipeline.py"))
        monkeypatch.setattr(pipeline, "_source_digest", pipeline._source_digest.__wrapped__)
        assert pipeline._source_digest() != real
        assert list(run_pipeline(copy).values()) == ["ran"] * 9

    def test_source_digest_covers_every_source_byte(self, tmp_path, monkeypatch):
        real = pipeline._source_digest()
        for src in Path(pipeline.__file__).parent.glob("*.py"):
            shutil.copy(src, tmp_path / src.name)
        monkeypatch.setattr(pipeline, "__file__", str(tmp_path / "pipeline.py"))
        uncached = pipeline._source_digest.__wrapped__
        assert uncached() == real
        (tmp_path / "arrayfile.py").write_bytes((tmp_path / "arrayfile.py").read_bytes() + b"\n")
        assert uncached() != real

    def test_standalone_stage_run_is_recorded(self, ran, tmp_path):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        w = Path(copy.workdir)
        fresh = (Path(cfg.workdir) / "summary.json").read_bytes()
        record = (w / ".meta" / "summarize.json").read_text()
        run_stage(dataclasses.replace(copy, cluster=ClusterConfig(threshold=0.05)), "summarize")
        assert (w / "summary.json").read_bytes() != fresh
        assert (w / ".meta" / "summarize.json").read_text() != record
        report = run_pipeline(copy)
        assert [name for name, status in report.items() if status == "ran"] == ["summarize"]
        assert (w / "summary.json").read_bytes() == fresh
        assert (w / ".meta" / "summarize.json").read_text() == record
        run_stage(copy, "summarize")
        assert list(run_pipeline(copy).values()) == ["skipped"] * 9

    def test_stage_refuses_stale_or_missing_upstream_record(self, ran, tmp_path):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        w = Path(copy.workdir)
        run_stage(dataclasses.replace(copy, min_count=3), "extract")
        with pytest.raises(ValidationError, match="stage 'classify' needs stage 'extract'.*run it first, or use `run`"):
            run_stage(copy, "classify")
        run_pipeline(copy)
        (w / ".meta" / "train-classifier.json").unlink()
        record = (w / ".meta" / "phrase-labels.json").read_bytes()
        with pytest.raises(ValidationError, match="stage 'phrase-labels' needs stage 'train-classifier'"):
            run_stage(copy, "phrase-labels")
        assert (w / ".meta" / "phrase-labels.json").read_bytes() == record  # refused before the stage ran
        run_pipeline(copy)
        run_stage(dataclasses.replace(copy, cluster=ClusterConfig(threshold=0.05)), "summarize")

    @pytest.mark.parametrize("record", [b"[]", b"not json", b"\xff\xfe", "artifacts as a list"])
    def test_damaged_record_reruns_its_stage(self, ran, tmp_path, record):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        path = Path(copy.workdir) / ".meta" / "summarize.json"
        if record == "artifacts as a list":  # the right hash, the artifact names without digests
            good = json.loads(path.read_text())
            record = json.dumps({**good, "artifacts": sorted(good["artifacts"])}).encode()
        path.write_bytes(record)
        report = run_pipeline(copy)
        assert [name for name, status in report.items() if status == "ran"] == ["summarize"]

    def test_force_reruns_all(self, ran):
        cfg, _ = ran
        report = run_pipeline(cfg, force=True)
        assert all(status == "ran" for status in report.values())


def _blas_threads(cfg, kind) -> int:
    return pipeline._numpy_openblas().scipy_openblas_get_num_threads64_()


class TestWorkers:
    """The training stages run one forked worker per schema."""

    _TRAINED = (
        "embed_aspect.bin", "embed_sentiment.bin",
        "classifier_aspect.ckpt", "classifier_sentiment.ckpt",
        "classifier_aspect_ft.ckpt", "classifier_sentiment_ft.ckpt",
    )

    def test_bodies_in_process_match_workers(self, ran, tmp_path):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        for name in self._TRAINED:
            (tmp_path / "work" / name).unlink()
        for body, stage, keys in (
            (pipeline._run_train_embed, "train-embed", {"epochs", "final_gen_loss"}),
            (pipeline._run_train_classifier, "train-classifier", {"parameters", "batches", "last_loss"}),
            (pipeline._run_finetune, "finetune-phrases", {"batches", "last_loss"}),
        ):
            recorded = json.loads((Path(cfg.workdir) / ".meta" / f"{stage}.json").read_text())["metrics"]
            for kind in ("aspect", "sentiment"):
                metrics = body(copy, kind)
                assert metrics.keys() == keys and metrics == recorded[kind], (stage, kind)
        for name in self._TRAINED:
            assert (tmp_path / "work" / name).read_bytes() == (Path(cfg.workdir) / name).read_bytes(), name

    def test_workers_run_one_blas_thread(self):
        lib = pipeline._numpy_openblas()
        if not hasattr(lib, "scipy_openblas_get_num_threads64_"):  # also when lib is None
            pytest.skip("numpy bundles no scipy-openblas thread-count getter")
        assert pipeline._per_kind(_blas_threads, None) == {"aspect": 1, "sentiment": 1}

    def test_worker_error_is_stage_error(self, tmp_path, monkeypatch):
        def diverge(self):
            raise TrainingError("diverged in the worker")

        monkeypatch.setattr(pipeline.SphereTrainer, "run", diverge)  # fork carries the patch
        cfg = _small_config(tmp_path / "data", tmp_path / "work")
        with pytest.raises(StageError, match="diverged in the worker") as err:
            run_pipeline(cfg)
        assert err.value.stage == "train-embed"
        assert (tmp_path / "work" / ".meta" / "extract.json").exists()
        assert not (tmp_path / "work" / ".meta" / "train-embed.json").exists()

    def test_worker_death_is_stage_error(self, tmp_path, monkeypatch):
        def hang(signum, frame):
            raise TimeoutError("run_pipeline still waiting for a dead worker")

        monkeypatch.setattr(pipeline.SphereTrainer, "run", lambda self: os._exit(3))
        cfg = _small_config(tmp_path / "data", tmp_path / "work")
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(30)
        try:
            with pytest.raises(StageError) as err:
                run_pipeline(cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert err.value.stage == "train-embed"
        assert not (tmp_path / "work" / ".meta" / "train-embed.json").exists()


class TestValidation:
    def test_missing_schema_fails_before_writing(self, tmp_path):
        cfg = _small_config(tmp_path / "data", tmp_path / "work")
        cfg = type(cfg)(**{**cfg.__dict__, "aspect_schema": str(tmp_path / "nope.txt")})
        with pytest.raises(ValidationError, match="aspect_schema"):
            run_pipeline(cfg)
        assert not (tmp_path / "work").exists()

    def test_run_stage_validates_before_writing(self, tmp_path):
        cfg = _small_config(tmp_path / "data", tmp_path / "work")
        cfg.encoder_dim = 3
        with pytest.raises(ValidationError, match="encoder_dim"):
            run_stage(cfg, "extract")
        with pytest.raises(ValidationError, match="^unknown stage 'nope'$"):
            run_stage(cfg, "nope")
        assert not (tmp_path / "work").exists()

    def test_bad_nested_config_rejected(self, tmp_path):
        cfg = _small_config(tmp_path / "data", tmp_path / "work")
        cfg.embed.window = 0
        with pytest.raises(ValidationError, match="window"):
            run_pipeline(cfg)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            PipelineConfig.from_dict({"corpus": "x", "typo_key": 3})
        with pytest.raises(ValidationError, match="embed"):
            PipelineConfig.from_dict({"embed": {"dimz": 5}})

    def test_from_dict_nested_roundtrip(self):
        cfg = PipelineConfig.from_dict(
            {"corpus": "c", "embed": {"dim": 10}, "cluster": {"threshold": 2.5}}
        )
        assert cfg.embed.dim == 10 and cfg.cluster.threshold == 2.5
        assert cfg.distill.top_k == 2000  # untouched defaults

    def test_stage_error_names_stage_and_last_good(self, tmp_path, monkeypatch):
        def fail(*args):
            raise ValueError("no merges")

        cfg = _small_config(tmp_path / "data", tmp_path / "work")
        run_pipeline(cfg)
        w = Path(cfg.workdir)
        monkeypatch.setattr(pipeline, "merge_sequence", fail)
        (w / "merges.jsonl").unlink()  # force the cluster stage to re-run
        with pytest.raises(StageError, match="cluster") as err:
            run_pipeline(cfg)
        assert err.value.stage == "cluster"
        assert "classified.jsonl" in str(err.value)
        assert not (w / ".meta" / "cluster.json").exists()  # the failed re-run dropped the old record


class TestAtomicSave:
    def test_failed_saver_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "embed_aspect.bin"
        target.write_text("old")

        def saver(path):
            path.write_text("half")
            raise OSError("No space left on device")

        with pytest.raises(OSError, match="No space"):
            pipeline._atomic_save(target, saver)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["embed_aspect.bin"]
        assert target.read_text() == "old"


class TestDeterminism:
    def test_two_runs_byte_identical_summaries(self, tmp_path):
        cfg_a = _small_config(tmp_path / "data_a", tmp_path / "work_a", seed=9)
        cfg_b = _small_config(tmp_path / "data_b", tmp_path / "work_b", seed=9)
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        a = (Path(cfg_a.workdir) / "summary.json").read_bytes()
        b = (Path(cfg_b.workdir) / "summary.json").read_bytes()
        assert a == b
        for stage in pipeline.STAGES:  # the records too, metrics included
            record = (Path(cfg_a.workdir) / ".meta" / f"{stage.name}.json").read_bytes()
            assert record == (Path(cfg_b.workdir) / ".meta" / f"{stage.name}.json").read_bytes(), stage.name

    def test_seed_derivation_stable_and_distinct(self):
        assert seed_for(1, "embed", "aspect") == seed_for(1, "embed", "aspect")
        assert seed_for(1, "embed", "aspect") != seed_for(1, "embed", "sentiment")
        assert seed_for(1, "embed", "aspect") != seed_for(2, "embed", "aspect")
