"""Pipeline orchestration: artifacts, resumability, determinism, errors."""

import dataclasses
import json
import os
import shutil
import signal
from pathlib import Path

import numpy as np
import pytest

from opinionsum import pipeline
from opinionsum.classifier import TrainConfig
from opinionsum.clustering import ClusterConfig
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
        from opinionsum.classifier import load_checkpoint, phrase_input
        from opinionsum.corpus import Vocabulary, load_manifest
        from opinionsum.extraction import phrase_from_json

        cfg, _ = ran
        w = Path(cfg.workdir)
        vectors = np.load(w / "phrase_vectors.npy")
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
        expect = (w / "clusters.jsonl").read_bytes()
        keep = {"phrases.jsonl", "classified.jsonl", "phrase_vectors.npy"}
        for f in w.iterdir():
            if f.is_file() and f.name not in keep:
                f.unlink()
        run_stage(copy, "cluster")
        assert (w / "clusters.jsonl").read_bytes() == expect

    def test_cluster_rejects_row_count_mismatch(self, ran, tmp_path):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        path = Path(copy.workdir) / "phrase_vectors.npy"
        np.save(path, np.load(path)[:-1])
        with pytest.raises(StageError, match="phrase_vectors.npy") as err:
            run_stage(copy, "cluster")
        assert isinstance(err.value.__cause__, ValueError)


class TestResume:
    def test_second_run_skips_everything(self, ran):
        cfg, _ = ran
        report = run_pipeline(cfg)
        assert all(status == "skipped" for status in report.values())

    def test_deleting_cluster_output_reruns_cluster_and_summarize(self, ran):
        cfg, _ = ran
        (Path(cfg.workdir) / "clusters.jsonl").unlink()
        report = run_pipeline(cfg)
        expect = {name: "skipped" for name in report}
        expect["cluster"] = expect["summarize"] = "ran"
        assert report == expect

    def test_param_change_invalidates_downstream_only(self, ran):
        cfg, _ = ran
        changed = dataclasses.replace(cfg, cluster=ClusterConfig(threshold=3.0))
        report = run_pipeline(changed)
        assert report["cluster"] == "ran" and report["summarize"] == "ran"
        assert all(
            status == "skipped" for name, status in report.items() if name not in ("cluster", "summarize")
        )

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

    @pytest.mark.parametrize("name", ["__version__", "CHECKPOINT_FORMAT"])
    def test_code_or_format_change_reruns_everything(self, ran, tmp_path, monkeypatch, name):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        monkeypatch.setattr(pipeline, name, "0.0.0-test")
        assert list(run_pipeline(copy).values()) == ["ran"] * 9

    def test_force_reruns_all(self, ran):
        cfg, _ = ran
        report = run_pipeline(cfg, force=True)
        assert all(status == "ran" for status in report.values())


class TestWorkers:
    """The training stages run one forked worker per schema."""

    _TRAINED = (
        "embed_aspect.txt", "embed_sentiment.txt",
        "classifier_aspect.ckpt", "classifier_sentiment.ckpt",
        "classifier_aspect_ft.ckpt", "classifier_sentiment_ft.ckpt",
    )

    def test_bodies_in_process_match_workers(self, ran, tmp_path):
        cfg, _ = ran
        copy = _copy(cfg, tmp_path / "work")
        for name in self._TRAINED:
            (tmp_path / "work" / name).unlink()
        for body in (pipeline._run_train_embed, pipeline._run_train_classifier, pipeline._run_finetune):
            for kind in ("aspect", "sentiment"):
                assert f"[{kind}]: " in body(copy, kind)
        for name in self._TRAINED:
            assert (tmp_path / "work" / name).read_bytes() == (Path(cfg.workdir) / name).read_bytes(), name

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

    def test_stage_error_names_stage_and_last_good(self, tmp_path):
        cfg = _small_config(tmp_path / "data", tmp_path / "work")
        run_pipeline(cfg)
        w = Path(cfg.workdir)
        (w / "classified.jsonl").write_text("this is not json\n")
        (w / "clusters.jsonl").unlink()  # force the cluster stage to re-run
        with pytest.raises(StageError, match="cluster") as err:
            run_pipeline(cfg)
        assert err.value.stage == "cluster"
        assert "classified.jsonl" in str(err.value)


class TestDeterminism:
    def test_two_runs_byte_identical_summaries(self, tmp_path):
        cfg_a = _small_config(tmp_path / "data_a", tmp_path / "work_a", seed=9)
        cfg_b = _small_config(tmp_path / "data_b", tmp_path / "work_b", seed=9)
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        a = (Path(cfg_a.workdir) / "summary.json").read_bytes()
        b = (Path(cfg_b.workdir) / "summary.json").read_bytes()
        assert a == b

    def test_seed_derivation_stable_and_distinct(self):
        assert seed_for(1, "embed", "aspect") == seed_for(1, "embed", "aspect")
        assert seed_for(1, "embed", "aspect") != seed_for(1, "embed", "sentiment")
        assert seed_for(1, "embed", "aspect") != seed_for(2, "embed", "aspect")
