"""The benchmark's workloads, their set-up, and the closed-loop op runner.

Each workload is one client that calls `run_pipeline` and issues the next
call only after the previous one returns.  An op's parameter comes from the
workload's cycle; a run always walks whole cycles so every run times the same
mix of parameter values.
"""

import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from opinionsum.classifier import TrainConfig
from opinionsum.distill import DistillConfig
from opinionsum.embedding import EmbedConfig
from opinionsum.pipeline import STAGES, PipelineConfig, run_pipeline
from opinionsum.synthetic import SyntheticSpec

from balanced import generate_balanced
from checks import check_outputs, load_gold, summary_digest

# One pipeline configuration for every workload.  It keeps the acceptance
# run's seed, encoder_dim, embedding dim and learning rates, and is cut down so
# that a full measurement session (22 runs of each workload) stays under an
# hour on a 2-core machine (README.md, "Sizing"):
# - 24 embedding epochs instead of 48, which halves the dominant stage;
# - 12 nouns and adjectives per category and top_k = 40 sentences per
#   category, so that a 120-sentence corpus still yields correct sentence
#   pseudo-labels;
# - batch size 4 over 16 epochs: 320 classifier SGD steps on the sentence
#   labels.  Fewer or larger steps let the phrase classifier collapse on some
#   corpora (README.md, "Measured facts").
CONFIG = dict(
    seed=1,
    encoder_dim=32,
    embed=EmbedConfig(dim=64, epochs=24, learning_rate=0.05),
    distill=DistillConfig(top_k=40),
    train=TrainConfig(learning_rate=0.2, epochs=16, batch_size=4),
)
SMALL_CORPUS = SyntheticSpec(n_sentences=120, n_targets=16, vocab_per_category=12)
ONE_TARGET_CORPUS = SyntheticSpec(n_sentences=200, n_targets=1, vocab_per_category=12)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SyntheticSpec
    warm: bool  # set-up runs the pipeline once into the workdir every op reuses
    param: str  # "" or the config field each op sets, as "section.field"
    cycle: tuple = (None,)

    def config(self, paths: dict, workdir: Path, value) -> PipelineConfig:
        cfg = PipelineConfig(
            corpus=str(paths["corpus"]),
            trees=str(paths["trees"]),
            aspect_schema=str(paths["aspect_schema"]),
            sentiment_schema=str(paths["sentiment_schema"]),
            workdir=str(workdir),
            **CONFIG,
        )
        if self.param:
            section, name = self.param.split(".")
            setattr(cfg, section, replace(getattr(cfg, section), **{name: value}))
        return cfg

    def default_value(self):
        """The parameter value the set-up run uses."""
        if not self.param:
            return None
        section, name = self.param.split(".")
        return getattr(getattr(PipelineConfig(**CONFIG), section), name)


# Why each workload exists is in README.md.  No cycle repeats a value back to
# back or starts at the set-up run's value, so every op reruns its stages.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold", SMALL_CORPUS, warm=False, param=""),
        Workload("retune", ONE_TARGET_CORPUS, warm=True, param="cluster.threshold",
                 cycle=(1.5, 1.0, 0.5, 0.25, 2.0, 7.0)),
    )
}


def set_up(workload: Workload, seed: int, out: Path) -> None:
    """Generate the corpus into out/data and, for warm workloads, run the
    pipeline once into out/work at the default parameter value."""
    paths = generate_balanced(workload.spec, seed, out / "data")
    if workload.warm:
        run_pipeline(workload.config(paths, out / "work", workload.default_value()))


@dataclass
class Op:
    value: object
    wall_s: float
    cpu_s: float
    report: dict
    scores: dict
    problems: list
    artifact_bytes: int = 0
    maxrss_mib: float = 0.0  # the process's resident high-water mark when the op returned


@dataclass
class Client:
    """One closed-loop client over a set-up directory."""

    workload: Workload
    setup_dir: Path
    scratch: Path
    paths: dict = field(init=False)
    gold: dict = field(init=False)
    sentences: int = field(init=False)
    digests: dict = field(default_factory=dict)  # parameter value -> summary.json sha256
    n_ops: int = 0

    def __post_init__(self):
        data = self.setup_dir / "data"
        self.paths = {k: data / v for k, v in _FILES.items()}
        self.gold = load_gold(data)
        self.sentences = sum(1 for line in open(data / "gold_sentences.jsonl", encoding="utf-8") if line.strip())
        if self.workload.warm:
            self.digests[self.workload.default_value()] = summary_digest(self.setup_dir / "work")

    def _workdir(self) -> Path:
        if self.workload.warm:
            return self.setup_dir / "work"
        return self.scratch / f"op{self.n_ops}"

    def op(self, value, span=None) -> Op:
        workdir = self._workdir()
        cfg = self.workload.config(self.paths, workdir, value)
        self.n_ops += 1
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            if span is None:
                report = run_pipeline(cfg)
            else:
                with span("op"):
                    report = run_pipeline(cfg)
        except Exception as exc:  # a failed op is counted, not fatal
            wall = time.perf_counter() - t0
            return Op(value, wall, _cpu() - cpu0, {}, {}, [f"{type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            scores, problems = check_outputs(workdir, self.gold)
            digest = summary_digest(workdir)
        except (OSError, ValueError, KeyError) as exc:
            return Op(value, wall, cpu, report, {}, [f"output check raised {type(exc).__name__}: {exc}"], 0, maxrss)
        if self.digests.setdefault(value, digest) != digest:
            problems.append(f"summary.json differs from an earlier op with parameter {value!r}")
        written = _written_bytes(workdir, report)
        if not self.workload.warm:
            shutil.rmtree(workdir)
        return Op(value, wall, cpu, report, scores, problems, written, maxrss)

    def run_cycles(self, seconds: float, span=None) -> list[Op]:
        """Whole cycles until another cycle as long as the last would end
        after `seconds`; at least one cycle."""
        ops: list[Op] = []
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            ops.extend(self.op(value, span) for value in self.workload.cycle)
            now = time.perf_counter()
            if now - start + (now - cycle_start) > seconds:
                return ops


_FILES = {
    "corpus": "corpus.conllu",
    "trees": "corpus.trees",
    "aspect_schema": "aspects.txt",
    "sentiment_schema": "sentiments.txt",
}


def _written_bytes(workdir: Path, report: dict) -> int:
    """Size of the artifacts and stage records of every stage that ran."""
    total = 0
    for stage in STAGES:
        if report.get(stage.name) == "ran":
            files = [workdir / a for a in stage.artifacts] + [workdir / ".meta" / f"{stage.name}.json"]
            total += sum(f.stat().st_size for f in files)
    return total


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def cycle_means(ops: list[Op], cycle_len: int) -> list[float]:
    """Mean op wall time of each whole cycle.  A cycle's values cost
    different amounts, so the median over cycles of their means is steadier
    than the median over single ops."""
    return [statistics.fmean(op.wall_s for op in ops[i:i + cycle_len]) for i in range(0, len(ops), cycle_len)]


def end_to_end(setup_times: list[float], ops: list[Op], cycle_len: int) -> dict[str, float]:
    scored = [op.scores for op in ops if op.scores]

    def mean(key):
        return statistics.fmean(s[key] for s in scored) if scored else 0.0

    op_s = statistics.median(cycle_means(ops, cycle_len))
    return {
        "setup_s": statistics.median(setup_times),
        "op_s": op_s,
        "phrases_per_s": mean("phrases") / op_s,
        # The high-water mark after the first cycle: every run has one, and
        # later cycles repeat its work, yet their count moves the mark through
        # heap fragmentation alone.
        "peak_rss_mb": max(op.maxrss_mib for op in ops[:cycle_len]),
        "aspect_acc": mean("aspect_acc"),
        "sentiment_acc": mean("sentiment_acc"),
        "cluster_ari": mean("cluster_ari"),
        "fail_ratio": sum(1 for op in ops if op.problems) / len(ops),
    }
