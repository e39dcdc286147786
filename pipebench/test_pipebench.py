"""Self-tests for the benchmark's own helpers.

    python3 -m pytest pipebench
"""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from balanced import generate_balanced  # noqa: E402
from checks import adjusted_rand_index, load_gold, planted_noun  # noqa: E402
from layers import check_consistency, instrument, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CONFIG, Client, Op, Workload, cycle_means  # noqa: E402

from opinionsum.corpus import load_corpus  # noqa: E402
from opinionsum.synthetic import SyntheticSpec, build_sentence, generate_synthetic  # noqa: E402
from opinionsum.extraction import extract_candidates  # noqa: E402


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        labels = ["a", "a", "b", "c", "c", "c"]
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_renumbered_clusters_score_the_same(self):
        pred = [0, 0, 1, 1, 2, 2, 2]
        gold = ["x", "x", "x", "y", "y", "z", "z"]
        renumbered = [{0: "k", 1: "q", 2: "a"}[p] for p in pred]
        assert adjusted_rand_index(renumbered, gold) == pytest.approx(adjusted_rand_index(pred, gold))

    def test_hand_computed_table(self):
        # pred {0,1} {2} {3}; gold {0,1} {2,3}: index 1, row pairs 1,
        # column pairs 2, 6 pairs in all, so (1 - 1/3) / (3/2 - 1/3) = 4/7.
        assert adjusted_rand_index([0, 0, 1, 2], [0, 0, 1, 1]) == pytest.approx(4 / 7)

    def test_one_cluster_against_several_nouns(self):
        assert adjusted_rand_index([0] * 6, ["n1", "n1", "n2", "n2", "n3", "n3"]) == 0.0


class TestPlantedNoun:
    def test_dependency_and_constituency_surfaces(self):
        assert planted_noun("t1noun17 badadj23") == "t1noun17"
        assert planted_noun("the t1noun17 is badadj23") == "t1noun17"

    def test_every_generated_phrase_has_one(self):
        spec = SyntheticSpec(n_sentences=1)
        rng = np.random.default_rng(3)
        sources = set()
        for i in range(20):
            sent = build_sentence(spec, rng, f"s{i}", "t0", "r0", i % 2, (i // 2) % 2)
            for phrase in extract_candidates(sent):
                assert planted_noun(phrase.surface).startswith(f"t{i % 2}noun")
                sources.add(phrase.source)
        assert {"dependency", "constituency"} <= sources

    def test_rejects_zero_or_two_nouns(self):
        for surface in ("goodadj1", "t0noun1 t0noun2 goodadj1"):
            with pytest.raises(ValueError):
                planted_noun(surface)


class TestBalancedCorpus:
    SPEC = SyntheticSpec(n_sentences=64, n_targets=2, vocab_per_category=6)

    def test_groups_have_equal_sentence_counts(self, tmp_path):
        paths = generate_balanced(self.SPEC, 3, tmp_path)
        gold = {row["sentence_id"]: row for row in map(json.loads, open(paths["gold_sentences"]))}
        groups = Counter((s.target_id, gold[s.id]["aspect"], gold[s.id]["sentiment"])
                         for s in load_corpus(paths["corpus"], paths["trees"]))
        assert len(groups) == 8 and set(groups.values()) == {8}

    def test_gold_phrases_cover_extraction(self, tmp_path):
        paths = generate_balanced(self.SPEC, 4, tmp_path)
        extracted = {p.id for s in load_corpus(paths["corpus"], paths["trees"]) for p in extract_candidates(s)}
        assert set(load_gold(tmp_path)) == extracted

    def test_same_seed_same_files_and_schemas_match_the_package(self, tmp_path):
        a = generate_balanced(self.SPEC, 5, tmp_path / "a")
        b = generate_balanced(self.SPEC, 5, tmp_path / "b")
        package = generate_synthetic(self.SPEC, 5, tmp_path / "package")
        assert all(a[k].read_bytes() == b[k].read_bytes() for k in a)
        for key in ("aspect_schema", "sentiment_schema"):
            assert a[key].read_bytes() == package[key].read_bytes()


def test_cycle_means_average_each_whole_cycle():
    ops = [Op(None, wall, 0.0, {}, {}, []) for wall in (1.0, 3.0, 2.0, 6.0)]
    assert cycle_means(ops, 2) == [2.0, 4.0]
    assert cycle_means(ops, 1) == [1.0, 3.0, 2.0, 6.0]


def test_traced_run_restores_every_attribute(tmp_path, monkeypatch):
    tiny = Workload("tiny", SyntheticSpec(n_sentences=16, n_targets=1, vocab_per_category=6),
                    warm=False, param="")
    embed = CONFIG["embed"]
    monkeypatch.setitem(CONFIG, "embed", type(embed)(dim=8, epochs=1, learning_rate=embed.learning_rate))
    from workloads import set_up

    set_up(tiny, 5, tmp_path / "setup")
    client = Client(tiny, tmp_path / "setup", tmp_path)
    tracer = Tracer()
    agglomerate_peak_mb = instrument(tracer)
    originals = tracer.wrapped()
    assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
    try:
        ops = client.run_cycles(0.0, span=tracer.span)
    finally:
        tracer.restore()
    assert tracer.restored(originals)
    assert check_consistency(tracer, ops) == []
    metrics = layer_metrics(tracer, ops, client.sentences)
    assert metrics["embedding.epochs"] == 2  # one epoch per schema
    assert metrics["pipeline.stages_ran"] == 9
    assert agglomerate_peak_mb() > 0
