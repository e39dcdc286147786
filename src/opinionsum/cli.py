"""Command-line interface.

One subcommand per pipeline stage plus `run` (all stages, resumable),
`synth` (planted corpus generator), and `eval` utilities.  Values come from
defaults, then the --config JSON file, then flags; flags win.

Exit codes: 0 ok, 1 validation error, 2 stage failure.
"""

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .corpus import CorpusError, read_jsonl
from .evaluation import IntrusionSet, classification_metrics, coherence_score, diversity, make_intrusion_set
from .pipeline import STAGES, PipelineConfig, StageError, ValidationError, run_pipeline, run_stage
from .synthetic import SyntheticSpec, generate_synthetic

log = logging.getLogger("opinionsum")

# (flag, path into the config dict, argparse keyword arguments); a flag's
# dest is its name without the leading dashes, '-' as '_' (--embed-lr -> embed_lr)
_CONFIG_FLAGS = (
    ("--corpus", ("corpus",), {}),
    ("--trees", ("trees",), {}),
    ("--aspect-schema", ("aspect_schema",), {}),
    ("--sentiment-schema", ("sentiment_schema",), {}),
    ("--workdir", ("workdir",), {}),
    ("--seed", ("seed",), {"type": int}),
    ("--min-count", ("min_count",), {"type": int}),
    ("--encoder-dim", ("encoder_dim",), {"type": int}),
    ("--dim", ("embed", "dim"), {"type": int, "help": "embedding dimension"}),
    ("--window", ("embed", "window"), {"type": int}),
    ("--epochs", ("embed", "epochs"), {"type": int, "help": "embedding training epochs"}),
    ("--embed-lr", ("embed", "learning_rate"), {"type": float}),
    ("--negatives", ("embed", "negatives_per_positive"), {"type": int}),
    ("--m-inter", ("embed", "m_inter"), {"type": float}),
    ("--m-intra", ("embed", "m_intra"), {"type": float}),
    ("--k", ("distill", "top_k"), {"type": int, "help": "top-K sentences per category"}),
    ("--alpha", ("distill", "alpha"), {"type": float, "help": "softmax temperature"}),
    ("--theta1", ("distill", "theta1"), {"type": float}),
    ("--theta2", ("distill", "theta2"), {"type": float}),
    ("--train-lr", ("train", "learning_rate"), {"type": float}),
    ("--batch-size", ("train", "batch_size"), {"type": int}),
    ("--train-epochs", ("train", "epochs"), {"type": int}),
    ("--tc", ("cluster", "threshold"), {"type": float, "help": "clustering distance threshold"}),
)

# the synth flag of each SyntheticSpec field, which gives the flag's type and default
_SYNTH_FLAGS = {
    "n_categories": "--categories",
    "vocab_per_category": "--vocab-per-category",
    "n_sentences": "--sentences",
    "min_sentence_len": "--min-len",
    "max_sentence_len": "--max-len",
    "keywords_per_category": "--keywords",
    "noise_word_ratio": "--noise-ratio",
    "n_targets": "--targets",
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file")
    for flag, _, kwargs in _CONFIG_FLAGS:
        p.add_argument(flag, dest=_dest(flag), **kwargs)


def build_config(args: argparse.Namespace) -> PipelineConfig:
    data: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ValidationError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict):
                raise ValidationError(f"expected a JSON object, got {type(data).__name__}")
            PipelineConfig.from_dict(data)  # so that a bad key or value names the file
        except ValueError as exc:
            raise ValidationError(f"config file {path}: {exc}") from None
    for flag, keys, _ in _CONFIG_FLAGS:
        value = getattr(args, _dest(flag), None)
        if value is None:
            continue
        node = data
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    return PipelineConfig.from_dict(data)


def _cmd_run(args) -> int:
    cfg = build_config(args)
    report = run_pipeline(cfg, force=args.force)
    for stage, status in report.items():
        print(f"{stage}: {status}")
    return 0


def _cmd_stage(args) -> int:
    cfg = build_config(args)
    run_stage(cfg, args.command)
    target = getattr(args, "target", None)  # summarize only
    if target:
        summary = json.loads((Path(cfg.workdir) / "summary.json").read_text())
        if target not in summary:
            raise ValidationError(f"unknown target {target!r}")
        print(json.dumps({target: summary[target]}, sort_keys=True, indent=2))
    else:
        print(f"{args.command}: done")
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(SyntheticSpec)})
    paths = generate_synthetic(spec, args.seed, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _label_row(line: str, gold: bool) -> tuple:
    """An {id, label} row; the label may be a list of strings only in gold."""
    row = json.loads(line)
    label = row["label"]
    if type(row["id"]) is not str or not (
        label is None or type(label) is str or gold and type(label) is list and all(type(l) is str for l in label)
    ):
        raise ValueError("expected a string id and a string or null label" + (" or a list of strings" if gold else ""))
    return row["id"], label


def _cmd_eval_classify(args) -> int:
    pred = dict(read_jsonl(args.pred, lambda line: _label_row(line, False)))
    gold = dict(read_jsonl(args.gold, lambda line: _label_row(line, True)))
    ids = sorted(gold)
    missing = [i for i in ids if i not in pred]
    if missing:
        raise ValidationError(f"{args.pred}: {len(missing)} gold ids missing from predictions (e.g. {missing[0]!r})")
    labels = args.labels.split(",") if args.labels else None
    report = classification_metrics([pred[i] for i in ids], [gold[i] for i in ids], labels)
    print(
        json.dumps(
            {
                "n": len(ids),
                "accuracy": report.accuracy,
                "precision": report.precision,
                "recall": report.recall,
                "macro_f1": report.macro_f1,
            },
            sort_keys=True,
        )
    )
    return 0


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"{path}: not JSON ({exc})") from None


def _summary_clusters(path) -> list[list[str]]:
    summary = _read_json(path)
    try:
        clusters = [
            entry["phrases"]
            for target in sorted(summary)
            for group in sorted(summary[target])
            for entry in summary[target][group]
        ]
        valid = all(type(c) is list and all(type(p) is str for p in c) for c in clusters)
    except (KeyError, TypeError):
        valid = False
    if not valid:
        raise ValidationError(f'{path}: expected {{target: {{"aspect|sentiment": [{{cluster_id, phrases: [...]}}]}}}}')
    return clusters


def _cmd_eval_diversity(args) -> int:
    clusters = _summary_clusters(args.summary)
    if not clusters:
        raise ValidationError(f"{args.summary}: summary contains no clusters")
    scores = [diversity(c) for c in clusters]
    print(json.dumps({"clusters": len(scores), "mean_diversity": sum(scores) / len(scores)}))
    return 0


def _cmd_eval_intrusion_make(args) -> int:
    clusters = _summary_clusters(args.summary)
    sets, keys = [], []
    for i in range(args.n):
        made = make_intrusion_set(clusters, args.seed + i, set_id=f"set-{i:03d}")
        if made is None:
            continue
        sets.append({"set_id": made.set_id, "phrases": made.display_phrases()})
        keys.append(
            {
                "set_id": made.set_id,
                "answer_key": made.answer_key,
                "shared_word": made.shared_word,
                "intruder": made.intruder,
            }
        )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "intrusion_sets.json").write_text(json.dumps(sets, indent=2, sort_keys=True))
    (out / "intrusion_key.json").write_text(json.dumps(keys, indent=2, sort_keys=True))
    print(json.dumps({"requested": args.n, "generated": len(sets), "dir": str(out)}))
    return 0


def _cmd_eval_intrusion_score(args) -> int:
    keys, answers = _read_json(args.key), _read_json(args.answers)
    fields = {"set_id", "answer_key", "shared_word", "intruder"}
    if not isinstance(keys, list) or not all(
        isinstance(row, dict) and fields <= row.keys() and type(row["set_id"]) is str for row in keys
    ):
        raise ValidationError(f"{args.key}: expected a list of {{set_id, answer_key, shared_word, intruder}}")
    try:
        if isinstance(answers, list):
            answers = {row["set_id"]: row["answer"] for row in answers}
        answers = dict(answers)
    except (KeyError, TypeError, ValueError):
        raise ValidationError(
            f"{args.answers}: expected a list of {{set_id, answer}} or an object {{set_id: answer}}"
        ) from None
    sets, given = [], []
    for row in keys:
        if row["set_id"] not in answers:
            raise ValidationError(f"{args.answers}: no answer for {row['set_id']!r}")
        sets.append(
            IntrusionSet(row["set_id"], [""] * 5, row["intruder"], row["shared_word"], row["answer_key"])
        )
        answer = answers[row["set_id"]]
        if type(answer) is not int:
            raise ValidationError(f"{args.answers}: answer for {row['set_id']!r} is not an integer")
        if not 0 <= answer <= 5:  # the position of one of six phrases
            raise ValidationError(f"{args.answers}: answer for {row['set_id']!r} is {answer}, not in 0-5")
        given.append(answer)
    print(json.dumps({"n": len(sets), "coherence": coherence_score(sets, given)}))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="opinionsum", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline, skipping fresh stages")
    _add_config_flags(p_run)
    p_run.add_argument("--force", action="store_true", help="re-run all stages")
    p_run.set_defaults(handler=_cmd_run)

    for stage in STAGES:
        p = sub.add_parser(stage.name, help=f"run the {stage.name} stage")
        _add_config_flags(p)
        if stage.name == "summarize":
            p.add_argument("--target", help="print one target's summary")
        p.set_defaults(handler=_cmd_stage)

    p_synth = sub.add_parser("synth", help="generate a planted synthetic corpus")
    p_synth.add_argument("--out", required=True)
    for f in fields(SyntheticSpec):
        p_synth.add_argument(_SYNTH_FLAGS[f.name], dest=f.name, type=f.type, default=f.default)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(handler=_cmd_synth)

    p_eval = sub.add_parser("eval", help="evaluation utilities")
    esub = p_eval.add_subparsers(dest="eval_command", required=True)

    p_ec = esub.add_parser("classify", help="score predictions against gold labels")
    p_ec.add_argument("--pred", required=True, help="jsonl with {id, label}")
    p_ec.add_argument("--gold", required=True, help="jsonl with {id, label}; label may be a list")
    p_ec.add_argument("--labels", help="comma-separated class list (default: observed)")
    p_ec.set_defaults(handler=_cmd_eval_classify)

    p_ed = esub.add_parser("diversity", help="mean unique-word ratio over summary clusters")
    p_ed.add_argument("--summary", required=True)
    p_ed.set_defaults(handler=_cmd_eval_diversity)

    p_ei = esub.add_parser("intrusion", help="intrusion test tooling")
    isub = p_ei.add_subparsers(dest="intrusion_command", required=True)
    p_im = isub.add_parser("make", help="emit intrusion sets plus sealed answer key")
    p_im.add_argument("--summary", required=True)
    p_im.add_argument("--n", type=int, default=40)
    p_im.add_argument("--seed", type=int, default=0)
    p_im.add_argument("--out-dir", dest="out_dir", default="intrusion")
    p_im.set_defaults(handler=_cmd_eval_intrusion_make)
    p_is = isub.add_parser("score", help="score annotator answers against the key")
    p_is.add_argument("--answers", required=True)
    p_is.add_argument("--key", required=True)
    p_is.set_defaults(handler=_cmd_eval_intrusion_score)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.handler(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, CorpusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
