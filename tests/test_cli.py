"""Command-line interface: flags, config precedence, exit codes, eval tools."""

import json
from pathlib import Path

import pytest

from opinionsum import pipeline
from opinionsum.cli import build_config, main
from opinionsum.embedding import TrainingError


def _synth(tmp_path, n=100) -> dict:
    code = main(
        [
            "synth",
            "--out", str(tmp_path / "data"),
            "--sentences", str(n),
            "--targets", "2",
            "--vocab-per-category", "12",
            "--seed", "5",
        ]
    )
    assert code == 0
    d = tmp_path / "data"
    return {
        "corpus": d / "corpus.conllu",
        "trees": d / "corpus.trees",
        "aspects": d / "aspects.txt",
        "sentiments": d / "sentiments.txt",
    }


def _config_file(tmp_path, paths) -> Path:
    cfg = {
        "corpus": str(paths["corpus"]),
        "trees": str(paths["trees"]),
        "aspect_schema": str(paths["aspects"]),
        "sentiment_schema": str(paths["sentiments"]),
        "workdir": str(tmp_path / "work"),
        "seed": 3,
        "encoder_dim": 8,
        "embed": {"dim": 16, "epochs": 3},
        "distill": {"top_k": 50},
        "train": {"learning_rate": 0.2, "epochs": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_full_run_and_stage_rerun(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        config = _config_file(tmp_path, paths)
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "summarize: ran" in out
        assert (tmp_path / "work" / "summary.json").exists()
        # single-stage subcommand over existing artifacts
        assert main(["cluster", "--config", str(config)]) == 0
        assert main(["summarize", "--config", str(config), "--target", "t0"]) == 0
        printed = capsys.readouterr().out
        assert '"t0"' in printed

    def test_missing_config_path_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "ghost.json")]) == 1

    def test_missing_corpus_exits_1(self, tmp_path, capsys):
        code = main(["run", "--corpus", str(tmp_path / "nope.conllu"), "--workdir", str(tmp_path / "w")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_stage_failure_exits_2(self, tmp_path, capsys):
        paths = _synth(tmp_path, n=60)
        config = _config_file(tmp_path, paths)
        # single stage without its upstream artifacts is a caller error
        assert main(["pseudo-label", "--config", str(config)]) == 1
        # force a mid-pipeline failure: run fully, corrupt, re-run cluster
        assert main(["run", "--config", str(config)]) == 0
        (tmp_path / "work" / "classified.jsonl").write_text("not json\n")
        (tmp_path / "work" / "clusters.jsonl").unlink()
        assert main(["run", "--config", str(config)]) == 2
        assert "cluster" in capsys.readouterr().err
        # a stage subcommand checks only the previous stage's artifacts; an
        # older missing input fails inside the stage
        (tmp_path / "work" / "phrases.jsonl").unlink()
        assert main(["cluster", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "error: stage 'cluster' failed" in err and "phrases.jsonl" in err

    def test_stage_subcommand_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def diverge(self):
            raise TrainingError("diverged")

        config = _config_file(tmp_path, _synth(tmp_path, n=60))
        assert main(["extract", "--config", str(config)]) == 0  # creates the workdir
        monkeypatch.setattr(pipeline.SphereTrainer, "run", diverge)
        capsys.readouterr()
        assert main(["train-embed", "--config", str(config)]) == 2
        assert "error: stage 'train-embed' failed (diverged)" in capsys.readouterr().err

    def test_config_not_an_object_exits_1(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[1, 2]")
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and "object" in err

    def test_config_bad_json_exits_1(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{"seed": ')
        assert main(["run", "--config", str(config)]) == 1
        assert str(config) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("min_count", "3"),
            ("seed", 1.5),
            ("trees", 7),
            ("embed", {"dim": "16"}),
            ("cluster", {"threshold": None}),
            ("embed", 5),
        ],
    )
    def test_config_wrong_type_exits_1(self, tmp_path, capsys, key, value):
        paths = _synth(tmp_path, n=30)
        config = _config_file(tmp_path, paths)
        data = json.loads(config.read_text())
        data[key] = value
        config.write_text(json.dumps(data))
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        name = key if not isinstance(value, dict) else f"{key}.{next(iter(value))}"
        assert str(config) in err and name in err
        assert not (tmp_path / "work").exists()

    def test_config_with_removed_thread_knob_is_unknown_key(self, tmp_path, capsys):
        # the removed per-phrase thread pool knob; spelled in parts so that a
        # search of the tree for the old name finds no live use of it
        removed = "thread" + "_count"
        paths = _synth(tmp_path, n=30)
        config = _config_file(tmp_path, paths)
        data = json.loads(config.read_text())
        data[removed] = 0
        config.write_text(json.dumps(data))
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "unknown" in err and removed in err and str(config) in err

    @pytest.mark.parametrize("section", ["embed", "train"])
    def test_config_with_removed_seed_knob_is_unknown_key(self, tmp_path, capsys, section):
        # the stages derive their seeds from the top-level seed; the per-section
        # seed knob is gone
        removed = "rng_seed"
        paths = _synth(tmp_path, n=30)
        config = _config_file(tmp_path, paths)
        data = json.loads(config.read_text())
        data[section][removed] = 5
        config.write_text(json.dumps(data))
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "unknown" in err and f"{section}.{removed}" in err and str(config) in err
        assert not (tmp_path / "work").exists()

    def test_bad_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--no-such-flag"])
        assert exc.value.code == 1


class TestConfigPrecedence:
    def test_flag_overrides_file(self, tmp_path):
        paths = _synth(tmp_path, n=60)
        config = _config_file(tmp_path, paths)
        import argparse

        args = argparse.Namespace(config=str(config), seed=77, dim=20)
        cfg = build_config(args)
        assert cfg.seed == 77
        assert cfg.embed.dim == 20
        assert cfg.embed.epochs == 3  # untouched file value

    def test_env_seed_between_file_and_flag(self, tmp_path, monkeypatch):
        paths = _synth(tmp_path, n=60)
        config = _config_file(tmp_path, paths)
        import argparse

        monkeypatch.setenv("OPINIONSUM_SEED", "55")
        cfg = build_config(argparse.Namespace(config=str(config)))
        assert cfg.seed == 55  # env beats file
        cfg = build_config(argparse.Namespace(config=str(config), seed=66))
        assert cfg.seed == 66  # flag beats env


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "a"), "--sentences", "30", "--seed", "9"])
        main(["synth", "--out", str(tmp_path / "b"), "--sentences", "30", "--seed", "9"])
        assert (tmp_path / "a" / "corpus.conllu").read_bytes() == (tmp_path / "b" / "corpus.conllu").read_bytes()


class TestEval:
    def test_classify_scores(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        pred.write_text("\n".join(json.dumps({"id": f"p{i}", "label": l}) for i, l in enumerate(["a", "a", "b"])))
        gold.write_text("\n".join(json.dumps({"id": f"p{i}", "label": l}) for i, l in enumerate(["a", "b", "b"])))
        assert main(["eval", "classify", "--pred", str(pred), "--gold", str(gold)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 3
        assert report["accuracy"] == pytest.approx(2 / 3)

    @pytest.mark.parametrize("bad", ['{"x": 1}', '{"id": "p1"}', '{"label": "a"}', "[1, 2]", "not json"])
    def test_classify_bad_label_row_names_file_and_line(self, tmp_path, capsys, bad):
        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps({"id": "p0", "label": "a"}) + "\n")
        broken = tmp_path / "broken.jsonl"
        broken.write_text(json.dumps({"id": "p0", "label": "a"}) + "\n\n" + bad + "\n")
        assert main(["eval", "classify", "--pred", str(broken), "--gold", str(good)]) == 1
        assert f"{broken}:3:" in capsys.readouterr().err

    def test_diversity_and_intrusion_cycle(self, tmp_path, capsys):
        summary = {
            "t0": {
                "food|good": [
                    {
                        "cluster_id": "t0/food|good/000",
                        "phrases": [f"tasty bread number{i}" for i in range(6)],
                    },
                    {
                        "cluster_id": "t0/food|good/001",
                        "phrases": ["fresh bread daily", "stale bread today"],
                    },
                ]
            }
        }
        spath = tmp_path / "summary.json"
        spath.write_text(json.dumps(summary))

        assert main(["eval", "diversity", "--summary", str(spath)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["clusters"] == 2 and 0 < out["mean_diversity"] <= 1

        out_dir = tmp_path / "intr"
        assert main([
            "eval", "intrusion", "make", "--summary", str(spath),
            "--n", "5", "--seed", "3", "--out-dir", str(out_dir),
        ]) == 0
        made = json.loads(capsys.readouterr().out)
        assert made["generated"] >= 1
        sets = json.loads((out_dir / "intrusion_sets.json").read_text())
        keys = json.loads((out_dir / "intrusion_key.json").read_text())
        assert all(len(s["phrases"]) == 6 for s in sets)
        answers = tmp_path / "answers.json"
        answers.write_text(json.dumps([{"set_id": k["set_id"], "answer": k["answer_key"]} for k in keys]))
        assert main(["eval", "intrusion", "score", "--answers", str(answers), "--key", str(out_dir / "intrusion_key.json")]) == 0
        scored = json.loads(capsys.readouterr().out)
        assert scored["coherence"] == 1.0
