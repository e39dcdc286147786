"""Per-layer instrumentation of the opinionsum package, applied from outside.

`instrument` wraps each stage's `run` and every public entry point at the
name its caller looks it up by, so the package itself is unchanged.
`layer_metrics` turns the recorded spans and counts into per-op numbers.
"""

import tracemalloc

from opinionsum import classifier, clustering, embedding, pipeline

from spans import Tracer


def _add(key, amount_of):
    def on_call(tracer, args, kwargs, result):
        tracer.counts[key] += amount_of(args, kwargs, result)

    return on_call


def _on_joint_label(tracer, args, kwargs, result):
    tracer.counts[f"distill.{result.outcome}"] += 1


def instrument(tracer: Tracer):
    """Wrap every traced entry point of the package.

    Returns a function that, once the wrappers are restored, reruns the
    largest traced `agglomerate` call under tracemalloc and gives its peak in
    MiB.  tracemalloc slows every allocation, so it never runs inside a span.
    """
    largest = {}

    def on_agglomerate(tracer, args, kwargs, result):
        n = len(args[0])
        tracer.counts["clustering.points"] += n
        tracer.counts["clustering.merges"] += n - len(result)
        tracer.counts["clustering.clusters"] += len(result)
        if n > tracer.counts["clustering.max_group_n"]:
            tracer.counts["clustering.max_group_n"] = n
            largest["call"] = (args, kwargs)

    def agglomerate_peak_mb() -> float:
        if not largest:
            return 0.0
        args, kwargs = largest["call"]
        tracemalloc.start()
        try:
            clustering.agglomerate(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    for stage in pipeline.STAGES:
        tracer.wrap(stage, "run", f"stage.{stage.name}")
    for name, layer in (
        ("load_corpus", "corpus"),
        ("load_manifest", "corpus"),
        ("save_space", "embedding"),
        ("load_space", "embedding"),
        ("phrase_similarity", "embedding"),
        ("pseudo_sentence_labels", "distill"),
        ("load_checkpoint", "classifier"),
        ("save_checkpoint", "classifier"),
    ):
        tracer.wrap(pipeline, name, f"{layer}.{name}")
    tracer.wrap(
        pipeline, "extract_candidates", "extraction.extract_candidates",
        _add("extraction.phrases", lambda a, k, r: len(r)),
    )
    tracer.wrap(pipeline, "joint_agreement_label", "distill.joint_agreement_label", _on_joint_label)
    tracer.wrap(
        pipeline, "classify_phrase", "classifier.classify_phrase",
        _add("classifier.rejected", lambda a, k, r: r is None),
    )
    tracer.wrap(
        embedding.SphereTrainer, "train_epoch", "embedding.train_epoch",
        _add("embedding.pairs", lambda a, k, r: r.n_pairs),
    )
    tracer.wrap(
        classifier, "batch_loss_and_grads", "classifier.batch_loss_and_grads",
        _add("classifier.train_items", lambda a, k, r: len(a[1])),
    )
    tracer.wrap(classifier.ReferenceEncoder, "predict", "classifier.predict")
    tracer.wrap(classifier.ReferenceEncoder, "encode", "classifier.encode")
    tracer.wrap(pipeline, "build_summary", "clustering.build_summary")
    tracer.wrap(clustering, "agglomerate", "clustering.agglomerate", on_agglomerate)
    return agglomerate_peak_mb


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    short = name.split(".", 1)[1]
    if short.startswith(("us_per_", "ns_per_")):
        return short[:2]
    if short.endswith("_s"):
        return "s"
    if short.endswith("_mb"):
        return "MiB"
    if short.endswith("_ratio") or short == "cpu_util":
        return "ratio"
    if short == "forwards_per_sentence":
        return "1/sentence"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops, sentences: int) -> dict[str, float]:
    """Per-op averages over the traced ops (times in s unless named)."""
    own, calls, _ = tracer.self_times()
    n = len(ops)
    c = tracer.counts

    def per_op(value):
        return value / n

    m = {}
    for stage in pipeline.STAGES:
        m[f"stage.{stage.name}_s"] = per_op(sum(tracer.durations(f"stage.{stage.name}")))
    wall = sum(op.wall_s for op in ops)
    ran = sum(1 for op in ops for state in op.report.values() if state == "ran")
    skipped = sum(1 for op in ops for state in op.report.values() if state == "skipped")
    m["pipeline.overhead_s"] = per_op(own["op"])
    m["pipeline.stages_ran"] = per_op(ran)
    m["pipeline.stages_skipped"] = per_op(skipped)
    m["pipeline.cpu_util"] = _ratio(sum(op.cpu_s for op in ops), wall)
    m["pipeline.artifact_mb"] = per_op(sum(op.artifact_bytes for op in ops)) / 2**20

    m["corpus.load_corpus_s"] = per_op(own["corpus.load_corpus"])
    m["corpus.load_manifest_s"] = per_op(own["corpus.load_manifest"])
    m["corpus.load_manifest_calls"] = per_op(calls["corpus.load_manifest"])

    m["extraction.extract_candidates_s"] = per_op(own["extraction.extract_candidates"])
    m["extraction.phrases"] = per_op(c["extraction.phrases"])

    epochs = calls["embedding.train_epoch"]
    m["embedding.train_epoch_s"] = per_op(own["embedding.train_epoch"])
    m["embedding.epochs"] = per_op(epochs)
    # one optimizer step per corpus sentence per epoch
    m["embedding.us_per_step"] = 1e6 * _ratio(own["embedding.train_epoch"], epochs * sentences)
    m["embedding.pairs"] = per_op(c["embedding.pairs"])
    m["embedding.ns_per_pair"] = 1e9 * _ratio(own["embedding.train_epoch"], c["embedding.pairs"])
    m["embedding.save_space_s"] = per_op(own["embedding.save_space"])
    m["embedding.load_space_s"] = per_op(own["embedding.load_space"])
    m["embedding.load_space_calls"] = per_op(calls["embedding.load_space"])
    m["embedding.phrase_similarity_s"] = per_op(own["embedding.phrase_similarity"])

    m["distill.pseudo_sentence_labels_s"] = per_op(own["distill.pseudo_sentence_labels"])
    labelled = calls["distill.joint_agreement_label"]
    for outcome in ("soft", "background", "excluded"):
        m[f"distill.{outcome}"] = per_op(c[f"distill.{outcome}"])
    m["distill.useful_ratio"] = _ratio(c["distill.soft"] + c["distill.background"], labelled)

    items = c["classifier.train_items"]
    predicts, encodes = calls["classifier.predict"], calls["classifier.encode"]
    m["classifier.fit_batches"] = per_op(calls["classifier.batch_loss_and_grads"])
    m["classifier.train_items"] = per_op(items)
    m["classifier.us_per_train_item"] = 1e6 * _ratio(own["classifier.batch_loss_and_grads"], items)
    m["classifier.predict_calls"] = per_op(predicts)
    m["classifier.encode_calls"] = per_op(encodes)
    m["classifier.us_per_predict"] = 1e6 * _ratio(own["classifier.predict"], predicts)
    m["classifier.us_per_encode"] = 1e6 * _ratio(own["classifier.encode"], encodes)
    m["classifier.forwards_per_sentence"] = _ratio(predicts + encodes, n * sentences)
    m["classifier.load_checkpoint_s"] = per_op(own["classifier.load_checkpoint"])
    m["classifier.save_checkpoint_s"] = per_op(own["classifier.save_checkpoint"])
    m["classifier.rejected_ratio"] = _ratio(c["classifier.rejected"], calls["classifier.classify_phrase"])

    merges = c["clustering.merges"]
    m["clustering.agglomerate_s"] = per_op(own["clustering.agglomerate"])
    m["clustering.agglomerate_calls"] = per_op(calls["clustering.agglomerate"])
    m["clustering.points"] = per_op(c["clustering.points"])
    m["clustering.max_group_n"] = c["clustering.max_group_n"]
    m["clustering.merges"] = per_op(merges)
    m["clustering.us_per_merge"] = 1e6 * _ratio(own["clustering.agglomerate"], merges)
    m["clustering.clusters"] = per_op(c["clustering.clusters"])
    m["clustering.build_summary_s"] = per_op(own["clustering.build_summary"])
    return m


def check_consistency(tracer: Tracer, ops) -> list[str]:
    """The trace must account for each traced op: its stage spans plus
    pipeline overhead (the op span's self time) equal the op's wall time
    within 1%, only stage spans sit directly under an op, and no span has a
    negative self time."""
    problems = []
    op_spans = [s for s in tracer.spans if s[2] == "op"]
    if len(op_spans) != len(ops):
        return [f"{len(op_spans)} op spans for {len(ops)} traced ops"]
    children: dict[int, list] = {}
    for span in tracer.spans:
        children.setdefault(span[1], []).append(span)
    for (sid, _, _, start, end), op in zip(op_spans, ops):
        kids = children.get(sid, [])
        stray = sorted({k[2] for k in kids if not k[2].startswith("stage.")})
        if stray:
            problems.append(f"spans {stray} outside any stage")
        stages = sum(k[4] - k[3] for k in kids)
        overhead = (end - start) - stages
        if abs(stages + overhead - op.wall_s) > 0.01 * op.wall_s:
            problems.append(f"stages {stages:.4f}s + overhead {overhead:.4f}s != op wall {op.wall_s:.4f}s")
    worst = tracer.self_times()[2]
    if worst < -1e-9:
        problems.append(f"negative self time {worst:.3g}s")
    return problems
