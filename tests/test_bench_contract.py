"""The tracing contract of the benchmark in pipebench/: every attribute its
`layers.instrument` wraps exists and is restored, and a traced op accounts
for its wall time.  A rename in the package fails here, not in the benchmark."""

import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from opinionsum import classifier, pipeline
from opinionsum.classifier import ClassifierInput, ReferenceEncoder, TrainConfig
from opinionsum.clustering import ClusterConfig
from opinionsum.distill import DistillConfig
from opinionsum.embedding import EmbedConfig
from opinionsum.pipeline import PipelineConfig, run_pipeline
from opinionsum.synthetic import SyntheticSpec, generate_synthetic

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "pipebench"))

from layers import check_consistency, instrument, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402


def test_instrument_wraps_and_restores_every_attribute():
    tracer = Tracer()
    instrument(tracer)  # raises KeyError on an attribute that is gone
    originals = tracer.wrapped()
    try:
        assert originals and all(vars(owner)[attr] is not original for owner, attr, original in originals)
    finally:
        tracer.restore()
    assert tracer.restored(originals)


def test_traced_fit_counts_each_batch_and_item():
    n, batch_size, epochs = 11, 4, 2
    rng = np.random.default_rng(0)
    items = [(ClassifierInput(rng.integers(0, 5, size=int(rng.integers(1, 6)))), np.full(3, 1 / 3)) for _ in range(n)]
    model = ReferenceEncoder(5, 4, ["a", "b", "c"])
    tracer = Tracer()
    instrument(tracer)
    try:
        classifier._fit(model, items, TrainConfig(batch_size=batch_size, epochs=epochs), seed=0)
    finally:
        tracer.restore()
    assert tracer.self_times()[1]["classifier.batch_loss_and_grads"] == epochs * math.ceil(n / batch_size)
    assert tracer.counts["classifier.train_items"] == epochs * n


def _traced_op(tracer, cfg):
    t0 = time.perf_counter()
    with tracer.span("op"):
        report = run_pipeline(cfg)
    return SimpleNamespace(wall_s=time.perf_counter() - t0, cpu_s=0.0, artifact_bytes=0, report=report)


@pytest.fixture
def tiny_config(tmp_path):
    paths = generate_synthetic(SyntheticSpec(n_sentences=16, n_targets=1, vocab_per_category=6), 5, tmp_path / "data")
    return PipelineConfig(
        corpus=str(paths["corpus"]),
        trees=str(paths["trees"]),
        aspect_schema=str(paths["aspect_schema"]),
        sentiment_schema=str(paths["sentiment_schema"]),
        workdir=str(tmp_path / "work"),
        seed=1,
        encoder_dim=8,
        embed=EmbedConfig(dim=8, epochs=1),
        distill=DistillConfig(top_k=8),
        train=TrainConfig(epochs=1),
    )


def test_traced_ops_account_for_their_wall_time(tiny_config):
    tracer = Tracer()
    instrument(tracer)
    originals = tracer.wrapped()
    try:
        cold = _traced_op(tracer, tiny_config)
        retuned = _traced_op(tracer, PipelineConfig(**{**vars(tiny_config), "cluster": ClusterConfig(threshold=0.5)}))
    finally:
        tracer.restore()
    assert tracer.restored(originals)
    assert list(cold.report.values()) == ["ran"] * len(pipeline.STAGES)
    assert [name for name, status in retuned.report.items() if status == "ran"] == ["summarize"]
    assert check_consistency(tracer, [cold, retuned]) == []
    metrics = layer_metrics(tracer, [cold, retuned], 16)
    assert metrics["pipeline.stages_ran"] == (len(pipeline.STAGES) + 1) / 2
    # the per-layer metrics of the phrase-level entry points see their calls
    calls = tracer.self_times()[1]
    assert calls["embedding.phrase_similarity"] >= 1 and calls["classifier.classify_phrase"] >= 1
