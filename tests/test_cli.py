"""Command-line interface: flags, config precedence, exit codes, eval tools."""

import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import opinionsum
from opinionsum import pipeline
from opinionsum.cli import _SYNTH_FLAGS, _build_parser, build_config, main
from opinionsum.embedding import TrainingError
from opinionsum.synthetic import SyntheticSpec, generate_synthetic


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
        assert main(["summarize", "--config", str(config), "--target", "nope"]) == 1
        assert "error: unknown target 'nope'" in capsys.readouterr().err

    def test_stale_upstream_record_exits_1(self, tmp_path, capsys):
        config = _config_file(tmp_path, _synth(tmp_path))
        w = tmp_path / "work"
        assert main(["run", "--config", str(config)]) == 0
        # a smaller vocabulary under checkpoints trained on the larger one
        assert main(["extract", "--config", str(config), "--min-count", "40"]) == 0
        labels = (w / "phrase_labels_aspect.jsonl").read_bytes()
        capsys.readouterr()
        for stage in ("phrase-labels", "classify"):
            assert main([stage, "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert f"stage {stage!r} needs stage 'extract'" in err and "run it first, or use `run`" in err
        assert (w / "phrase_labels_aspect.jsonl").read_bytes() == labels
        # run brings every record up to date; summarize then takes a new threshold
        assert main(["run", "--config", str(config)]) == 0
        assert main(["summarize", "--config", str(config), "--tc", "0.5"]) == 0

    def test_missing_config_path_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "ghost.json")]) == 1

    def test_missing_corpus_exits_1(self, tmp_path, capsys):
        code = main(["run", "--corpus", str(tmp_path / "nope.conllu"), "--workdir", str(tmp_path / "w")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_stage_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise ValueError("no merges")

        paths = _synth(tmp_path, n=60)
        config = _config_file(tmp_path, paths)
        # single stage without its upstream artifacts is a caller error
        assert main(["pseudo-label", "--config", str(config)]) == 1
        assert main(["run", "--config", str(config)]) == 0
        # a missing artifact of any upstream stage is a caller error naming that stage
        capsys.readouterr()
        (tmp_path / "work" / "classified.jsonl").unlink()
        assert main(["summarize", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "stage 'summarize' needs stage 'classify'" in err and "run it first, or use `run`" in err
        # force a mid-pipeline failure: re-run cluster, which fails
        assert main(["classify", "--config", str(config)]) == 0
        monkeypatch.setattr(pipeline, "merge_sequence", fail)
        (tmp_path / "work" / "merges.jsonl").unlink()
        assert main(["run", "--config", str(config)]) == 2
        assert "cluster" in capsys.readouterr().err

    def test_stage_subcommand_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def diverge(self):
            raise TrainingError("diverged")

        config = _config_file(tmp_path, _synth(tmp_path, n=60))
        assert main(["extract", "--config", str(config)]) == 0  # creates the workdir
        monkeypatch.setattr(pipeline.SphereTrainer, "run", diverge)
        capsys.readouterr()
        assert main(["train-embed", "--config", str(config)]) == 2
        assert "error: stage 'train-embed' failed (diverged)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, expected",
        [
            ("head", "corpus.conllu:4: non-integer HEAD 'zz'"),
            ("tree", "corpus.trees:1: offset"),  # ... unbalanced parentheses
            ("form", "corpus.conllu:4: FORM contains whitespace"),
            ("id", "corpus.conllu:4: bad token id 'x'"),
            ("gap", "corpus.conllu:4: non-contiguous token id 2"),
            ("empty", "corpus.conllu:4: empty FORM"),
            ("own-head", "corpus.conllu:4: sentence s0: token 1 is its own head"),
            # any other value is the first tree line
            ("(NN x) (NN y)", "corpus.trees:1: offset 7: trailing text after tree"),
            ("(NN x) y", "corpus.trees:1: offset 7: trailing text after tree"),
            ("x (NN y)", "corpus.trees:1: offset 0: expected '('"),
            (") (NN x)", "corpus.trees:1: offset 0: unbalanced parentheses (unexpected ')')"),
            ("(NP () (NN x))", "corpus.trees:1: offset 5: expected constituent label"),
            ("((NN x))", "corpus.trees:1: offset 1: expected constituent label"),
            ("(NN x y)", "corpus.trees:1: offset 6: leaf constituent with more than one word"),
            ("(NP x (NN y))", "corpus.trees:1: offset 4: constituent mixes words and subconstituents"),
        ],
    )
    def test_malformed_corpus_exits_1_naming_file_and_line(self, tmp_path, capsys, bad, expected):
        paths = _synth(tmp_path, n=20)
        column_edits = {"head": (6, "zz"), "form": (1, "the x"), "id": (0, "x"), "gap": (0, "2"), "empty": (1, ""),
                        "own-head": (6, "1")}
        if bad in column_edits:
            lines = paths["corpus"].read_text().splitlines()
            cols = lines[3].split("\t")  # the first token row, after three id comments
            column, value = column_edits[bad]
            cols[column] = value
            lines[3] = "\t".join(cols)
            paths["corpus"].write_text("\n".join(lines) + "\n")
        else:
            lines = paths["trees"].read_text().splitlines()
            lines[0] = lines[0] + ")" if bad == "tree" else bad
            paths["trees"].write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["run", "--config", str(_config_file(tmp_path, paths))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths['corpus'].parent}") and expected in err
        assert "Traceback" not in err and "error: stage" not in err
        assert not list((tmp_path / "work").glob("*.tmp"))

    def test_extract_reads_a_deep_tree(self, tmp_path, capsys):
        paths = _synth(tmp_path, n=20)
        lines = paths["trees"].read_text().splitlines()
        lines[0] = "(S " * 5000 + lines[0] + ")" * 5000
        paths["trees"].write_text("\n".join(lines) + "\n")
        assert main(["extract", "--config", str(_config_file(tmp_path, paths))]) == 0
        assert "error" not in capsys.readouterr().err

    def test_overlong_sentence_exits_1_under_a_memory_limit(self, tmp_path):
        """A 1,500-token sentence is rejected at read, naming the line of its
        513th token, in a run whose address space is capped at 3 GB: one
        batch's attention over it would need more."""
        paths = _synth(tmp_path, n=20)
        lines = paths["corpus"].read_text().splitlines() + ["", "# sent_id = long"]
        first = len(lines) + 1  # the line of its first token
        lines += [f"{i}\tw{i % 7}\t_\tNN\tNN\t_\t{int(i > 1)}\tdep\t_\t_" for i in range(1, 1501)]
        paths["corpus"].write_text("\n".join(lines) + "\n")
        with open(paths["trees"], "a") as f:
            f.write("\n")  # no tree for it
        limit = 3 * 2**30
        run = subprocess.run(
            [sys.executable, "-m", "opinionsum.cli", "run", "--config", str(_config_file(tmp_path, paths))],
            capture_output=True,
            text=True,
            timeout=600,
            env={**os.environ, "PYTHONPATH": str(Path(opinionsum.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert run.returncode == 1, run.stderr
        assert run.stderr.splitlines()[-1] == f"error: {paths['corpus']}:{first + 512}: sentence longer than 512 tokens"
        assert "Traceback" not in run.stderr and "MemoryError" not in run.stderr

    def test_corrupted_vocab_exits_1_naming_file(self, tmp_path, capsys):
        config = _config_file(tmp_path, _synth(tmp_path, n=20))
        assert main(["extract", "--config", str(config)]) == 0
        vocab = tmp_path / "work" / "vocab.txt"
        lines = vocab.read_text().splitlines()
        vocab.write_text("\n".join(lines + [lines[1]]) + "\n")  # one word twice
        capsys.readouterr()
        assert main(["train-embed", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vocab}: duplicate word in vocabulary")

    def test_vocab_not_utf8_exits_1_naming_file_and_line(self, tmp_path, capsys):
        config = _config_file(tmp_path, _synth(tmp_path, n=20))
        assert main(["run", "--config", str(config)]) == 0
        vocab = tmp_path / "work" / "vocab.txt"
        lines = vocab.read_bytes().splitlines()
        word, count = lines[-1].split(b"\t")
        vocab.write_bytes(b"\n".join(lines[:-1] + [word + b"\xff\t" + count]) + b"\n")
        capsys.readouterr()
        assert main(["classify", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vocab}:{len(lines)}: not UTF-8")

    @pytest.mark.parametrize("name", ["corpus", "trees", "aspects"])
    def test_input_not_utf8_exits_1_naming_file_and_line(self, tmp_path, capsys, name):
        paths = _synth(tmp_path, n=20)
        config = _config_file(tmp_path, paths)
        lines = paths[name].read_bytes().splitlines(keepends=True)
        n = max(k for k, line in enumerate(lines) if line.strip())  # the last non-blank line
        lines[n] = lines[n].rstrip(b"\n") + b"\xff\n"
        paths[name].write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[name]}:{n + 1}: not UTF-8") and "Traceback" not in err

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

    @pytest.mark.parametrize(
        "section, key, flag",
        [
            ("cluster", "threshold", "--tc"),
            ("embed", "learning_rate", "--embed-lr"),
            ("train", "learning_rate", "--train-lr"),
            ("distill", "alpha", "--alpha"),
        ],
    )
    def test_nan_value_exits_1(self, tmp_path, capsys, section, key, flag):
        # json reads NaN and float() reads "nan"; neither may reach a stage
        paths = _synth(tmp_path, n=30)
        config = _config_file(tmp_path, paths)
        data = json.loads(config.read_text())
        data.setdefault(section, {})[key] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))
        assert "NaN" in bad.read_text()
        assert main(["run", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and f"{section}.{key}" in err
        assert main(["run", "--config", str(config), flag, "nan"]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize(
        "section, key, flag",
        [
            ("embed", "learning_rate", "--embed-lr"),
            ("train", "learning_rate", "--train-lr"),
            ("distill", "alpha", "--alpha"),
        ],
    )
    def test_infinite_value_exits_1(self, tmp_path, capsys, section, key, flag):
        # json reads Infinity and float() reads "inf"; neither may reach a stage
        paths = _synth(tmp_path, n=30)
        config = _config_file(tmp_path, paths)
        data = json.loads(config.read_text())
        data.setdefault(section, {})[key] = float("inf")
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(data))
        assert "Infinity" in bad.read_text()
        assert main(["run", "--config", str(bad)]) == 1
        assert f"{section}.{key} must be positive and finite" in capsys.readouterr().err
        assert main(["run", "--config", str(config), flag, "inf"]) == 1
        assert f"{section}.{key} must be positive and finite" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "section, removed, value",
        [("embed", "rng_seed", 5), ("train", "rng_seed", 5), ("cluster", "linkage", "complete")],
        ids=["embed", "train", "cluster-linkage"],
    )
    def test_config_with_removed_seed_knob_is_unknown_key(self, tmp_path, capsys, section, removed, value):
        # the stages derive their seeds from the top-level seed, so the
        # per-section seed knob is gone; clustering has one linkage, complete
        paths = _synth(tmp_path, n=30)
        config = _config_file(tmp_path, paths)
        data = json.loads(config.read_text())
        data.setdefault(section, {})[removed] = value
        config.write_text(json.dumps(data))
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "unknown" in err and f"{section}.{removed}" in err and str(config) in err
        assert not (tmp_path / "work").exists()

    def test_bad_flag_exits_1(self, capsys):
        # --linkage went with every linkage but complete
        for flags in (["--no-such-flag"], ["--linkage", "single"]):
            with pytest.raises(SystemExit) as exc:
                main(["run", *flags])
            assert exc.value.code == 1
            assert flags[0] in capsys.readouterr().err


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


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "a"), "--sentences", "30", "--seed", "9"])
        main(["synth", "--out", str(tmp_path / "b"), "--sentences", "30", "--seed", "9"])
        assert (tmp_path / "a" / "corpus.conllu").read_bytes() == (tmp_path / "b" / "corpus.conllu").read_bytes()

    def test_seed_defaults_to_0(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "default"), "--sentences", "30"]) == 0
        assert main(["synth", "--out", str(tmp_path / "zero"), "--sentences", "30", "--seed", "0"]) == 0
        names = sorted(path.name for path in (tmp_path / "zero").iterdir())
        assert sorted(path.name for path in (tmp_path / "default").iterdir()) == names
        for name in names:
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "zero" / name).read_bytes(), name

    def test_default_flags_write_the_default_spec(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "cli"), "--seed", "7", "--sentences", "40"]) == 0
        paths = generate_synthetic(SyntheticSpec(n_sentences=40), 7, tmp_path / "api")
        for path in paths.values():
            assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_every_spec_field_has_a_flag_with_its_default(self):
        parse = _build_parser().parse_args
        defaults = parse(["synth", "--out", "x"])
        for f in dataclasses.fields(SyntheticSpec):
            assert getattr(defaults, f.name) == f.default, f.name
            assert getattr(parse(["synth", "--out", "x", _SYNTH_FLAGS[f.name], "3"]), f.name) == f.type("3")


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
        pred.write_text(json.dumps({"id": "p0", "label": "a"}))
        assert main(["eval", "classify", "--pred", str(pred), "--gold", str(gold)]) == 1
        assert f"error: {pred}: 2 gold ids missing from predictions (e.g. 'p1')" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ['{"x": 1}', '{"id": "p1"}', '{"label": "a"}', "[1, 2]", "not json"])
    def test_classify_bad_label_row_names_file_and_line(self, tmp_path, capsys, bad):
        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps({"id": "p0", "label": "a"}) + "\n")
        broken = tmp_path / "broken.jsonl"
        broken.write_text(json.dumps({"id": "p0", "label": "a"}) + "\n\n" + bad + "\n")
        assert main(["eval", "classify", "--pred", str(broken), "--gold", str(good)]) == 1
        assert f"{broken}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which, bad",
        [
            ("pred", {"id": ["p0"], "label": "a"}),
            ("pred", {"id": 0, "label": "a"}),
            ("pred", {"id": "p0", "label": ["a"]}),
            ("pred", {"id": "p0", "label": 1}),
            ("gold", {"id": ["p0"], "label": "a"}),
            ("gold", {"id": "p0", "label": [["a"]]}),
            ("gold", {"id": "p0", "label": {"a": 1}}),
        ],
    )
    def test_classify_label_off_the_schema_names_file_and_line(self, tmp_path, capsys, which, bad):
        paths = {}
        for name in ("pred", "gold"):
            rows = [{"id": "p1", "label": "b"}, bad if name == which else {"id": "p0", "label": "a"}]
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["eval", "classify", "--pred", str(paths["pred"]), "--gold", str(paths["gold"])]) == 1
        err = capsys.readouterr().err
        assert f"error: {paths[which]}:2: malformed row" in err and "Traceback" not in err

    def test_classify_gold_label_may_be_a_list_or_null(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        pred.write_text("\n".join(json.dumps({"id": f"p{i}", "label": l}) for i, l in enumerate(["a", None, "b"])))
        gold.write_text("\n".join(json.dumps({"id": f"p{i}", "label": l}) for i, l in enumerate([["b", "a"], None, []])))
        assert main(["eval", "classify", "--pred", str(pred), "--gold", str(gold)]) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == pytest.approx(2 / 3)

    @pytest.mark.parametrize(
        "answer, message",
        [(2.7, "is not an integer"), (True, "is not an integer"), ("1", "is not an integer"),
         (99, "is 99, not in 0-5"), (-1, "is -1, not in 0-5")],
    )
    def test_intrusion_answer_must_be_a_position(self, tmp_path, capsys, answer, message):
        key = tmp_path / "key.json"
        key.write_text(json.dumps([{"set_id": "set-000", "answer_key": 2, "shared_word": "w", "intruder": "x"}]))
        answers = tmp_path / "answers.json"
        answers.write_text(json.dumps({"set-000": answer}))
        assert main(["eval", "intrusion", "score", "--answers", str(answers), "--key", str(key)]) == 1
        assert f"error: {answers}: answer for 'set-000' {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("diversity", {"summary": '{"t0": {"food|good": [{"cluster_id": "c"}]}}'}),  # no phrases
            ("diversity", {"summary": "not json"}),
            ("make", {"summary": '{"t0": {"food|good": [{"cluster_id": "c"}]}}'}),
            ("make", {"summary": '{"t0": {"food|good": {"cluster_id": "c"}}}'}),  # an entry, not a list
            ("score", {"answers": '[{"answer": 1}]'}),  # no set_id
            ("score", {"answers": "not json"}),
            ("score", {"answers": '[{"set_id": "s0", "answer": "x"}]'}),
            ("score", {"key": '[{"set_id": "s0"}]'}),
            ("score", {"key": ""}),
            ("diversity", {"summary": '{"t0": {"food|good": []}}'}),  # no clusters
            ("score", {"answers": '[{"set_id": "s9", "answer": 1}]'}),  # no answer for s0
        ],
    )
    def test_bad_eval_input_exits_1_naming_the_file(self, tmp_path, capsys, command, bad):
        files = {
            "summary": json.dumps({"t0": {"food|good": [{"cluster_id": "c", "phrases": ["tasty bread"]}]}}),
            "answers": json.dumps([{"set_id": "s0", "answer": 1}]),
            "key": json.dumps([{"set_id": "s0", "answer_key": 1, "shared_word": "bread", "intruder": "x"}]),
        }
        files.update(bad)
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        argv = {
            "diversity": ["eval", "diversity", "--summary", str(paths["summary"])],
            "make": ["eval", "intrusion", "make", "--summary", str(paths["summary"]), "--out-dir", str(tmp_path / "o")],
            "score": ["eval", "intrusion", "score", "--answers", str(paths["answers"]), "--key", str(paths["key"])],
        }[command]
        assert main(argv) == 1
        (name,) = bad
        assert f"error: {paths[name]}: " in capsys.readouterr().err
