"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight criteria
share one full pipeline run over the planted 2-aspect corpus (2000 sentences,
5% noise words); everything else uses seeded toy instances at the stated
tolerances.
"""

import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from opinionsum.classifier import ClassifierInput, ReferenceEncoder, TrainConfig, batch_loss_and_grads
from opinionsum.clustering import ClusterConfig, agglomerate
from opinionsum.corpus import ROOT, build_vocab, load_corpus, load_schema
from opinionsum.distill import DistillConfig, distill_loss, joint_agreement_label, select_topk, soften
from opinionsum.embedding import (
    EmbedConfig,
    SphereSpace,
    SphereTrainer,
    _inter_value_grad,
    _intra_value_grad,
    _pair_value_grads,
    check_norms,
    init_space,
    load_space,
    loss_inter,
    loss_intra,
)
from opinionsum.evaluation import classification_metrics, diversity, make_intrusion_set
from opinionsum.extraction import extract_candidates, extract_constituency_phrases, extract_dependency_phrases
from opinionsum.pipeline import PipelineConfig, run_pipeline
from opinionsum.synthetic import SyntheticSpec, generate_synthetic
from util import make_sentence, naive_agglomerate


def _criterion(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full pipeline run on the planted 2-aspect corpus, shared by the
    criteria that inspect its artifacts."""
    base = tmp_path_factory.mktemp("acceptance")
    paths = generate_synthetic(SyntheticSpec(), 7, base / "data")
    cfg = PipelineConfig(
        corpus=str(paths["corpus"]),
        trees=str(paths["trees"]),
        aspect_schema=str(paths["aspect_schema"]),
        sentiment_schema=str(paths["sentiment_schema"]),
        workdir=str(base / "work"),
        seed=1,
        embed=EmbedConfig(dim=64, epochs=48, learning_rate=0.05),
        train=TrainConfig(learning_rate=0.2, epochs=4),
        encoder_dim=32,
    )
    start = time.perf_counter()
    report = run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        paths=paths, cfg=cfg, report=report, elapsed=elapsed, workdir=Path(cfg.workdir)
    )


def test_01_unit_sphere_invariant(pipeline_run):
    """Across a 20-epoch run, every optimizer step leaves all vectors at
    norm 1 +- 1e-6; runtime under 2 minutes single-threaded."""
    paths = pipeline_run.paths
    sentences = load_corpus(paths["corpus"], paths["trees"])
    schema = load_schema(paths["aspect_schema"], "aspect")
    vocab = build_vocab(sentences, 1, keep=schema.all_keywords())
    config = EmbedConfig(dim=64, epochs=20, learning_rate=0.05)
    space = init_space(vocab, schema, config, [s.id for s in sentences], seed=17)
    check_norms(space, tol=1e-6)
    start = time.perf_counter()
    SphereTrainer(space, sentences, schema, config, seed=17).run(norm_check=True)  # raises on violation
    elapsed = time.perf_counter() - start
    final_dev = check_norms(space, tol=1e-6)
    _criterion(
        1,
        "unit-sphere invariant",
        elapsed < 120.0,
        f"20 epochs in {elapsed:.0f}s, final max norm deviation {final_dev:.2e}",
    )


def _fd_scalar(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        hi = f()
        x[idx] = old - eps
        lo = f()
        x[idx] = old
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def _rel_err(analytic, fd):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float(np.max(np.abs(analytic - fd) / denom))


def test_02_gradient_correctness():
    """Analytic gradients vs central finite differences: margin terms and
    negative-sampling term < 1e-4, reference encoder objective < 1e-3."""
    rng = np.random.default_rng(23)
    worst_embed = 0.0

    cats = rng.normal(size=(3, 6))
    cats /= np.linalg.norm(cats, axis=1, keepdims=True)
    _, grad = _inter_value_grad(cats, 0.7)
    worst_embed = max(worst_embed, _rel_err(grad, _fd_scalar(lambda: _inter_value_grad(cats, 0.7)[0], cats)))

    words = rng.normal(size=(7, 6))
    words /= np.linalg.norm(words, axis=1, keepdims=True)
    kw_ids = np.array([0, 2, 5])
    kw_cats = np.array([0, 1, 2])

    def intra():
        return _intra_value_grad(cats, words, kw_ids, kw_cats, 0.5)[0]

    _, kw_grad, cat_grad = _intra_value_grad(cats, words, kw_ids, kw_cats, 0.5)
    dense = np.zeros_like(words)
    np.add.at(dense, kw_ids, kw_grad)
    worst_embed = max(worst_embed, _rel_err(cat_grad, _fd_scalar(intra, cats)))
    worst_embed = max(worst_embed, _rel_err(dense, _fd_scalar(intra, words)))

    sent = rng.normal(size=6)
    cat = cats[0].copy()
    pairs = (np.array([0, 1, 3]), np.array([2, 0, 4]), np.array([1, 5, 6]), rng.integers(0, 7, size=(7, 3)))

    def pair():
        return _pair_value_grads(words, sent, cat, *pairs)[0]

    _, widx, wgrads, d_sent, d_cat = _pair_value_grads(words, sent, cat, *pairs)
    dense = np.zeros_like(words)
    np.add.at(dense, widx, wgrads)
    worst_embed = max(worst_embed, _rel_err(dense, _fd_scalar(pair, words)))
    worst_embed = max(worst_embed, _rel_err(d_sent, _fd_scalar(pair, sent)))
    worst_embed = max(worst_embed, _rel_err(d_cat, _fd_scalar(pair, cat)))

    model = ReferenceEncoder(6, 4, ["a", "b", "c"], seed=1)
    items = []
    for _ in range(3):
        length = int(rng.integers(1, 4))
        ids = rng.integers(0, 6, size=length)
        span = (0, 1) if length > 1 else None
        items.append((ClassifierInput(ids, span=span), rng.dirichlet(np.ones(3))))
    _, grads = batch_loss_and_grads(model, items)
    worst_enc = 0.0
    for name, param in model.params.items():
        fd = _fd_scalar(lambda: batch_loss_and_grads(model, items)[0], param)
        worst_enc = max(worst_enc, _rel_err(grads[name], fd))

    ok = worst_embed < 1e-4 and worst_enc < 1e-3
    _criterion(2, "gradient correctness", ok, f"embed max rel err {worst_embed:.2e}, encoder {worst_enc:.2e}")


def test_03_margin_satisfaction(pipeline_run):
    """On the planted 2-category corpus (2000 sentences, 4 seeds/category),
    both hinge losses are exactly 0 after <= 50 epochs and every seed keyword
    is closest to its own category."""
    space = load_space(pipeline_run.workdir / "embed_aspect.bin")
    schema = load_schema(pipeline_run.paths["aspect_schema"], "aspect")
    inter = loss_inter(space, pipeline_run.cfg.embed.m_inter)
    intra = loss_intra(space, schema, pipeline_run.cfg.embed.m_intra)
    nearest_ok = True
    for ci, (_, keywords) in enumerate(schema.categories):
        for kw in keywords:
            sims = space.word_vecs[space.word_id(kw)] @ space.cat_vecs.T
            nearest_ok = nearest_ok and int(np.argmax(sims)) == ci
    ok = inter == 0.0 and intra == 0.0 and nearest_ok
    _criterion(3, "margin satisfaction", ok, f"inter={inter}, intra={intra}, keywords_nearest={nearest_ok}")


def test_04_distillation_formulas():
    """soften matches an independent softmax oracle to 1e-12 and sums to 1;
    distill_loss(l,l)=0 and >= 0 on 1e4 random pairs; select_topk equals a
    full-sort oracle up to n=1000."""
    rng = np.random.default_rng(29)
    worst_soften = 0.0
    for _ in range(10_000):
        scores = rng.uniform(-1, 1, size=5)
        alpha = float(rng.uniform(0.1, 20))
        got = soften(scores, alpha)
        e = np.exp(alpha * scores)
        oracle = e / e.sum()
        worst_soften = max(worst_soften, float(np.max(np.abs(got - oracle))), abs(float(got.sum()) - 1.0))

    loss_ok = True
    for _ in range(10_000):
        l = rng.dirichlet(np.ones(4))
        y = rng.dirichlet(np.ones(4))
        if distill_loss(l, y) < 0:
            loss_ok = False
        if abs(distill_loss(l, l)) > 1e-12:
            loss_ok = False

    topk_ok = True
    for n in (1, 2, 17, 100, 573, 1000):
        scores = rng.uniform(-0.5, 0.5, size=(n, 3))
        ids = [f"s{i:04d}" for i in range(n)]
        dim = 4
        sent_vecs = np.zeros((n, dim))
        sent_vecs[:, :3] = scores
        sent_vecs[:, 3] = np.sqrt(1.0 - np.sum(scores**2, axis=1))
        space = SphereSpace(dim, [], ids, ["a", "b", "c"], np.empty((0, dim)), sent_vecs, np.eye(3, dim))
        for k in (1, 7, n, n + 50):
            got = select_topk(space, ids, k)
            for ci in range(3):
                oracle = [s for s, _ in sorted(zip(ids, scores[:, ci]), key=lambda t: (-t[1], t[0]))][:k]
                topk_ok = topk_ok and got[ci] == oracle

    ok = worst_soften <= 1e-12 and loss_ok and topk_ok
    _criterion(4, "distillation formulas", ok, f"soften max err {worst_soften:.2e}, loss_ok={loss_ok}, topk_ok={topk_ok}")


def test_05_joint_agreement_truth_table():
    """All 8 (y vs theta1) x (sim vs theta2) x (argmax agree) combinations map
    to the documented outcomes with theta1=0.35, theta2=0.30."""
    config = DistillConfig(theta1=0.35, theta2=0.30)
    results = {}
    for y_high in (True, False):
        for sim_high in (True, False):
            for agree in (True, False):
                y_max = 0.8 if y_high else 0.30
                y = np.full(5, (1 - y_max) / 4)
                y[0] = y_max
                sim = np.full(5, -0.5)
                sim[0 if agree else 1] = 0.6 if sim_high else 0.25
                results[(y_high, sim_high, agree)] = joint_agreement_label("p", y, sim, config).outcome
    expected = {
        (True, True, True): "soft",
        (True, True, False): "excluded",
        (True, False, True): "excluded",
        (True, False, False): "excluded",
        (False, True, True): "excluded",
        (False, True, False): "excluded",
        (False, False, True): "background",
        (False, False, False): "background",
    }
    ok = results == expected
    _criterion(5, "joint-agreement truth table", ok, f"{sum(results[k] == expected[k] for k in expected)}/8 combinations")


def test_06_clustering_oracle_equivalence():
    """Complete-linkage agglomerate matches a naive O(n^3) reference on 100
    seeded instances (n <= 50); every cluster's diameter stays within T_c=7."""
    rng = np.random.default_rng(31)
    matches = 0
    diameter_ok = True
    for trial in range(100):
        n = int(rng.integers(1, 51))
        points = [(f"p{i:03d}", rng.uniform(-8, 8, size=4)) for i in range(n)]
        threshold = 7.0
        got = agglomerate(points, ClusterConfig(threshold=threshold))
        if got == naive_agglomerate(points, threshold, "complete"):
            matches += 1
        by_id = dict(points)
        for cluster in got:
            for a in cluster:
                for b in cluster:
                    if np.linalg.norm(by_id[a] - by_id[b]) > threshold:
                        diameter_ok = False
    ok = matches == 100 and diameter_ok
    _criterion(6, "clustering oracle equivalence", ok, f"{matches}/100 partitions identical, diameter_ok={diameter_ok}")


def test_07_extraction_fixtures():
    """The documented fixtures yield exactly the illustrated phrases."""
    menu = make_sentence(
        [("a", "DT"), ("full", "JJ"), ("beer", "NN"), ("menu", "NN")],
        [(3, 0, "det"), (3, 1, "amod"), (3, 2, "compound"), (ROOT, 3, "root")],
    )
    price = make_sentence(
        [("the", "DT"), ("price", "NN"), ("is", "VBZ"), ("reasonable", "JJ")],
        [(1, 0, "det"), (3, 1, "nsubj"), (3, 2, "cop"), (ROOT, 3, "root")],
    )
    sauce = make_sentence(
        [("the", "DT"), ("dipping", "NN"), ("sauce", "NN"), ("is", "VBZ"), ("my", "PRP$"), ("favourite", "NN")],
        [(2, 0, "det"), (2, 1, "compound"), (5, 2, "nsubj"), (5, 3, "cop"), (5, 4, "nmod:poss"), (ROOT, 5, "root")],
        tree="(S (NP (DT the) (NN dipping) (NN sauce)) (VP (VBZ is) (NP (PRP$ my) (NN favourite))))",
    )
    got_menu = [p.surface for p in extract_dependency_phrases(menu)]
    got_price = [p.surface for p in extract_dependency_phrases(price)]
    got_sauce = [p.surface for p in extract_constituency_phrases(sauce)]
    union = [p.surface for p in extract_candidates(sauce)]
    ok = (
        got_menu == ["full beer menu"]
        and got_price == ["price reasonable"]
        and got_sauce == ["the dipping sauce is my favourite"]
        and "the dipping sauce is my favourite" in union
    )
    _criterion(7, "extraction fixtures", ok, f"{got_menu + got_price + got_sauce}")


def test_08_end_to_end_synthetic_accuracy(pipeline_run):
    """On the planted 2-aspect corpus with 5% noise, sentence-level pseudo
    labels reach >= 95% accuracy and phrase-level classification after joint
    fine-tuning reaches >= 90%; the full run stays under 5 minutes."""
    paths, workdir = pipeline_run.paths, pipeline_run.workdir
    gold_sent = {json.loads(l)["sentence_id"]: json.loads(l)["aspect"] for l in open(paths["gold_sentences"])}
    gold_phrase = {json.loads(l)["phrase_id"]: json.loads(l)["aspect"] for l in open(paths["gold_phrases"])}
    schema = load_schema(paths["aspect_schema"], "aspect")

    argmax_class = {}
    for line in open(workdir / "pseudo_sentences_aspect.jsonl"):
        row = json.loads(line)
        argmax_class[row["id"]] = schema.names[int(np.argmax(row["distribution"]))]
    sent_acc = float(np.mean([cls == gold_sent[sid] for sid, cls in argmax_class.items()]))

    rows = [json.loads(l) for l in open(workdir / "classified.jsonl")]
    phrase_acc = float(np.mean([r["aspect"] == gold_phrase[r["phrase_id"]] for r in rows]))

    ok = sent_acc >= 0.95 and phrase_acc >= 0.90 and pipeline_run.elapsed < 300.0
    _criterion(
        8,
        "end-to-end synthetic accuracy",
        ok,
        f"sentence pseudo acc {sent_acc:.4f} (n={len(argmax_class)}), "
        f"phrase acc {phrase_acc:.4f} (n={len(rows)}), runtime {pipeline_run.elapsed:.0f}s",
    )


def test_09_metrics_check():
    """Hand-computed macro-F1 fixture and the diversity definition."""
    pred = ["a", "a", "a", "b", "b", "b", "b"]
    gold = ["a", "a", "b", "a", "b", "b", "b"]
    report = classification_metrics(pred, gold)
    f1_ok = math.isclose(report.macro_f1, 0.7083, abs_tol=5e-5)
    div = diversity(["good food", "good food"])
    ok = f1_ok and div == 0.5
    _criterion(9, "metrics check", ok, f"macro_f1={report.macro_f1:.4f}, diversity={div}")


def test_10_intrusion_generation():
    """1000 seeded generations either satisfy the shared-word constraint with
    exactly 6 phrases or return infeasible."""
    rng = np.random.default_rng(37)
    shared = ["crust", "crema", "patio"]
    clusters = []
    for c in range(5):
        cluster = []
        for i in range(7):
            w = shared[int(rng.integers(len(shared)))] if rng.random() < 0.8 else f"solo{c}x{i}"
            cluster.append(f"{w} token{c}x{i} extra{int(rng.integers(4))}")
        clusters.append(cluster)
    produced = violations = 0
    for seed in range(1000):
        made = make_intrusion_set(clusters, seed)
        if made is None:
            continue
        produced += 1
        phrases = made.display_phrases()
        if len(phrases) != 6:
            violations += 1
            continue
        words = [set(p.casefold().split()) for p in phrases]
        if any(made.shared_word not in w for w in words):
            violations += 1
        if phrases[made.answer_key] != made.intruder:
            violations += 1
    ok = violations == 0 and produced > 0
    _criterion(10, "intrusion generation", ok, f"{produced}/1000 feasible, {violations} violations")


def test_11_determinism(tmp_path):
    """Two pipeline runs with identical seeds produce byte-identical summary
    files."""
    spec = SyntheticSpec(n_sentences=240, n_targets=2, vocab_per_category=12)
    summaries = []
    for side in ("a", "b"):
        paths = generate_synthetic(spec, 11, tmp_path / f"data_{side}")
        cfg = PipelineConfig(
            corpus=str(paths["corpus"]),
            trees=str(paths["trees"]),
            aspect_schema=str(paths["aspect_schema"]),
            sentiment_schema=str(paths["sentiment_schema"]),
            workdir=str(tmp_path / f"work_{side}"),
            seed=5,
            embed=EmbedConfig(dim=24, epochs=6),
            distill=DistillConfig(top_k=120),
            train=TrainConfig(learning_rate=0.2, epochs=2),
            encoder_dim=12,
        )
        run_pipeline(cfg)
        summaries.append((tmp_path / f"work_{side}" / "summary.json").read_bytes())
    ok = summaries[0] == summaries[1]
    _criterion(11, "determinism", ok, f"summary bytes equal={ok} ({len(summaries[0])} bytes)")
