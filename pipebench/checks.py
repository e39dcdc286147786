"""Output checks and quality scores for one pipeline run's workdir.

Everything here reads files only: the generator's gold labels and the
pipeline's `classified.jsonl`, `clusters.jsonl` and `summary.json`.
"""

import hashlib
import json
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

# The criterion-08 gate on phrase-level aspect accuracy.
MIN_ASPECT_ACC = 0.90

_PLANTED_NOUN = re.compile(r"\bt\d+noun\d+\b")


def planted_noun(surface: str) -> str:
    """The single generator noun token (`t<c>noun<i>`) in a phrase surface."""
    found = _PLANTED_NOUN.findall(surface)
    if len(found) != 1:
        raise ValueError(f"expected one planted noun in {surface!r}, found {found}")
    return found[0]


def _pairs(counts: np.ndarray) -> float:
    return float(np.sum(counts * (counts - 1)) / 2.0)


def adjusted_rand_index(pred: list, gold: list) -> float:
    """Adjusted Rand index of two labelings of the same items (Hubert and
    Arabie 1985).  Two trivial partitions that agree give 1.0."""
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(gold)}")
    _, p = np.unique(np.asarray(pred, dtype=object).astype(str), return_inverse=True)
    _, g = np.unique(np.asarray(gold, dtype=object).astype(str), return_inverse=True)
    table = np.zeros((p.max() + 1 if len(p) else 0, g.max() + 1 if len(g) else 0))
    np.add.at(table, (p, g), 1.0)
    index = _pairs(table)
    rows, cols = _pairs(table.sum(axis=1)), _pairs(table.sum(axis=0))
    total = _pairs(np.asarray([float(len(pred))]))
    expected = rows * cols / total if total else 0.0
    best = 0.5 * (rows + cols)
    if best == expected:
        return 1.0
    return (index - expected) / (best - expected)


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def load_gold(data_dir) -> dict[str, dict]:
    return {row["phrase_id"]: row for row in read_jsonl(Path(data_dir) / "gold_phrases.jsonl")}


def summary_digest(workdir) -> str:
    return hashlib.sha256((Path(workdir) / "summary.json").read_bytes()).hexdigest()


def check_outputs(workdir, gold: dict[str, dict]) -> tuple[dict[str, float], list[str]]:
    """Score one finished run and list every output check it fails.

    Returns ({aspect_acc, sentiment_acc, cluster_ari, phrases}, problems).
    Checks: summary.json parses and matches clusters.jsonl; every phrase
    labelled in both schemas sits in exactly one cluster of its
    (target, aspect, sentiment) group and no other phrase is clustered;
    aspect accuracy reaches MIN_ASPECT_ACC.
    """
    w = Path(workdir)
    problems = []
    rows = read_jsonl(w / "classified.jsonl")
    aspect_acc = float(np.mean([r["aspect"] == gold[r["phrase_id"]]["aspect"] for r in rows]))
    sentiment_acc = float(np.mean([r["sentiment"] == gold[r["phrase_id"]]["sentiment"] for r in rows]))
    if aspect_acc < MIN_ASPECT_ACC:
        problems.append(f"aspect accuracy {aspect_acc:.4f} < {MIN_ASPECT_ACC}")

    labelled = {
        r["phrase_id"]: (r["target_id"], r["aspect"], r["sentiment"])
        for r in rows
        if r["aspect"] is not None and r["sentiment"] is not None
    }
    surfaces = {r["phrase_id"]: r["surface"] for r in rows}
    seen: dict[str, int] = defaultdict(int)
    expected_summary: dict[str, dict[str, list]] = defaultdict(dict)
    groups: dict[tuple, tuple[list, list]] = defaultdict(lambda: ([], []))
    for cluster in read_jsonl(w / "clusters.jsonl"):
        key = (cluster["target_id"], cluster["aspect"], cluster["sentiment"])
        for pid in cluster["members"]:
            seen[pid] += 1
            if labelled.get(pid) != key:
                problems.append(f"phrase {pid} clustered under {key}, labelled {labelled.get(pid)}")
            groups[key][0].append(cluster["cluster_id"])
            groups[key][1].append(planted_noun(surfaces[pid]))
        group = f"{cluster['aspect']}|{cluster['sentiment']}"
        entries = expected_summary[cluster["target_id"]].setdefault(group, [])
        entries.append({"cluster_id": cluster["cluster_id"], "phrases": [surfaces[p] for p in cluster["members"]]})
    for pid in labelled:
        if seen.get(pid, 0) != 1:
            problems.append(f"phrase {pid} is in {seen.get(pid, 0)} clusters, expected 1")

    try:
        summary = json.loads((w / "summary.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"summary.json unreadable: {exc}")
    else:
        if summary != expected_summary:
            problems.append("summary.json disagrees with clusters.jsonl")

    total = sum(len(pred) for pred, _ in groups.values())
    ari = sum(len(pred) * adjusted_rand_index(pred, nouns) for pred, nouns in groups.values())
    scores = {
        "aspect_acc": aspect_acc,
        "sentiment_acc": sentiment_acc,
        "cluster_ari": ari / total if total else 0.0,
        "phrases": float(len(rows)),
    }
    return scores, problems[:5]
