"""Golden digests: one small end-to-end run, and a re-run of summarize at a
second threshold, write exactly the bytes recorded in tests/golden.json.

The table holds the package version and the numpy version it was written
with, and the sha256 of every workdir file outside .meta/.  Float results
depend on numpy's arithmetic, so on another numpy version the test skips.
Otherwise it fails when a digest differs, and when __version__ is not the
table's: a change that is meant to change the artifacts bumps __version__
and rewrites the table with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
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

GOLDEN = Path(__file__).with_name("golden.json")
THRESHOLDS = (1.0, 0.3)  # the first run's, then summarize's alone


def _digests(base: Path) -> dict[str, str]:
    """Run the pipeline into base/work at each threshold in turn; the sha256
    of each workdir file outside .meta/ after each run, keyed threshold/name."""
    paths = generate_synthetic(SyntheticSpec(n_sentences=40, n_targets=2, vocab_per_category=6), 3, base / "data")
    cfg = PipelineConfig(
        corpus=str(paths["corpus"]),
        trees=str(paths["trees"]),
        aspect_schema=str(paths["aspect_schema"]),
        sentiment_schema=str(paths["sentiment_schema"]),
        workdir=str(base / "work"),
        seed=2,
        encoder_dim=8,
        embed=EmbedConfig(dim=8, epochs=8, learning_rate=0.05),
        distill=DistillConfig(top_k=10),
        train=TrainConfig(learning_rate=0.2, epochs=6),
    )
    digests = {}
    for threshold in THRESHOLDS:
        run_pipeline(replace(cfg, cluster=ClusterConfig(threshold)))
        for path in sorted((base / "work").iterdir()):
            if path.is_file():  # not .meta/
                digests[f"{threshold}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_artifacts_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"{GOLDEN.name} was written with numpy {golden['numpy']}, this is numpy {np.__version__}")
    assert golden["version"] == opinionsum.__version__, f"rewrite {GOLDEN.name} after a version bump"
    got = _digests(tmp_path)
    want = golden["digests"]
    changed = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert changed == [], f"artifacts differ from {GOLDEN.name} at version {opinionsum.__version__}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"version": opinionsum.__version__, "numpy": np.__version__, "digests": _digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
