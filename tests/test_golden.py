"""Golden digests: small end-to-end runs, each followed by a re-run of
summarize at other thresholds, write exactly the bytes recorded in
tests/golden.json.  There are three runs: a 40-sentence generate_synthetic
corpus ("digests"), and the benchmark's `cold` and `retune` corpora with its
config from pipebench/ ("cold", "retune").

The table holds the package version and the numpy version it was written
with, and the sha256 of every workdir file outside .meta/.  Float results
depend on numpy's arithmetic, so on another numpy version the tests skip.
Otherwise they fail when a digest differs, and when __version__ is not the
table's: a change that is meant to change the artifacts bumps __version__
and rewrites the table with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import opinionsum
from opinionsum.classifier import TrainConfig
from opinionsum.clustering import ClusterConfig
from opinionsum.distill import DistillConfig
from opinionsum.embedding import EmbedConfig
from opinionsum.pipeline import PipelineConfig, run_pipeline
from opinionsum.synthetic import SyntheticSpec, generate_synthetic

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "pipebench"))

from balanced import generate_balanced  # noqa: E402
from workloads import CONFIG, ONE_TARGET_CORPUS, SMALL_CORPUS  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")


def _digests(paths: dict, work: Path, thresholds: tuple, **config) -> dict[str, str]:
    """Run the pipeline into work at each threshold in turn; the sha256 of
    each workdir file outside .meta/ after each run, keyed threshold/name."""
    cfg = PipelineConfig(
        corpus=str(paths["corpus"]),
        trees=str(paths["trees"]),
        aspect_schema=str(paths["aspect_schema"]),
        sentiment_schema=str(paths["sentiment_schema"]),
        workdir=str(work),
        **config,
    )
    digests = {}
    for threshold in thresholds:
        run_pipeline(replace(cfg, cluster=ClusterConfig(threshold)))
        for path in sorted(work.iterdir()):
            if path.is_file():  # not .meta/
                digests[f"{threshold}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _synthetic_digests(base: Path) -> dict[str, str]:
    paths = generate_synthetic(SyntheticSpec(n_sentences=40, n_targets=2, vocab_per_category=6), 3, base / "data")
    return _digests(
        paths,
        base / "work",
        (1.0, 0.3),  # the first run's, then summarize's alone
        seed=2,
        encoder_dim=8,
        embed=EmbedConfig(dim=8, epochs=8, learning_rate=0.05),
        distill=DistillConfig(top_k=10),
        train=TrainConfig(learning_rate=0.2, epochs=6),
    )


def _cold_digests(base: Path) -> dict[str, str]:
    """pipebench's `cold` run at seed 7, then one `retune` threshold."""
    paths = generate_balanced(SMALL_CORPUS, 7, base / "data")
    return _digests(paths, base / "work", (ClusterConfig().threshold, 0.5), **CONFIG)


def _retune_digests(base: Path) -> dict[str, str]:
    """pipebench's `retune` set-up at seed 7, then summarize alone at each
    other threshold of its cycle."""
    paths = generate_balanced(ONE_TARGET_CORPUS, 7, base / "data")
    return _digests(paths, base / "work", (ClusterConfig().threshold, 1.5, 1.0, 0.5, 0.25, 2.0), **CONFIG)


SECTIONS = {"digests": _synthetic_digests, "cold": _cold_digests, "retune": _retune_digests}


def _check(section: str, tmp_path: Path):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"{GOLDEN.name} was written with numpy {golden['numpy']}, this is numpy {np.__version__}")
    assert golden["version"] == opinionsum.__version__, f"rewrite {GOLDEN.name} after a version bump"
    got = SECTIONS[section](tmp_path)
    want = golden[section]
    changed = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert changed == [], f"{section} artifacts differ from {GOLDEN.name} at version {opinionsum.__version__}"


def test_artifacts_match_golden_digests(tmp_path):
    _check("digests", tmp_path)


def test_benchmark_corpus_matches_golden_digests(tmp_path):
    _check("cold", tmp_path)


def test_retune_thresholds_match_golden_digests(tmp_path):
    _check("retune", tmp_path)


if __name__ == "__main__":
    import tempfile

    table = {"version": opinionsum.__version__, "numpy": np.__version__}
    for section, digests in SECTIONS.items():
        with tempfile.TemporaryDirectory() as tmp:
            table[section] = digests(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
