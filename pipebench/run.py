"""Benchmark of opinionsum.pipeline.run_pipeline; see README.md in this directory.

    python3 pipebench/run.py --workload cold|retune --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from its
`src/` directory.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: the benchmark is a single client and starts no threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

SETUP_REPEATS = 2
SETUP_MIN_S = 3.0
SETUP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": ("s", "lower"),
    "op_s": ("s", "lower"),
    "phrases_per_s": ("phrases/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "aspect_acc": ("ratio", "higher"),
    "sentiment_acc": ("ratio", "higher"),
    "cluster_ari": ("ratio", "higher"),
    "fail_ratio": ("ratio", "lower"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("cold", "retune"))
    parser.add_argument("--seed", type=int, default=7, help="corpus generator seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="measured time per phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-dir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import opinionsum from this checkout's src/, never from elsewhere."""
    package = SRC / "opinionsum" / "pipeline.py"
    if not package.is_file():
        sys.exit(f"pipebench: {package} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import opinionsum

    if Path(opinionsum.__file__).resolve().parent != package.parent:
        sys.exit(f"pipebench: imported {opinionsum.__file__}, expected {package.parent}")


def _loadavg() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _on_alarm(signum, frame):
    raise TimeoutError(f"a set-up took longer than {SETUP_TIMEOUT_S} s")


def _timed_child(cmd: list[str]) -> float:
    """Run cmd to completion and return its wall time.  The wait blocks
    rather than polls (subprocess's timeout polls in steps of up to 50 ms,
    which would round every set-up time to the same few values); SIGALRM
    bounds it, and a child still running then is killed and reaped."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    signal.alarm(SETUP_TIMEOUT_S)
    try:
        returncode = proc.wait()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - t0
    if returncode:
        raise subprocess.CalledProcessError(returncode, cmd)
    return elapsed


def _set_up(args, scratch: Path) -> tuple[list[float], Path]:
    """Set up at least SETUP_REPEATS times and for at least SETUP_MIN_S in
    all, each time in its own process so that the timed ops' resident
    high-water mark excludes it; returns the times and the last set-up
    directory."""
    times = []
    while True:
        out = scratch / f"setup{len(times)}"
        times.append(_timed_child([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                                   "--seed", str(args.seed), "--setup-dir", str(out)]))
        if len(times) >= SETUP_REPEATS and sum(times) >= SETUP_MIN_S:
            return times, out
        shutil.rmtree(out)


def _print_table(title: str, metrics: dict, units: dict, attempted: int):
    print(f"{title}  ({attempted} ops)")
    for name, value in metrics.items():
        unit, better = units.get(name, ("", ""))
        print(f"  {name:36s} {value:14.6g} {unit:10s} {better + ' is better' if better else ''}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    from workloads import WORKLOADS, Client, end_to_end, set_up

    workload = WORKLOADS[args.workload]
    if args.setup_dir is not None:
        set_up(workload, args.seed, args.setup_dir)
        return 0

    env = environment()
    env["loadavg_before"] = _loadavg()
    scratch = ROOT / ".pipebench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        setup_times, setup_dir = _set_up(args, scratch)
        client = Client(workload, setup_dir, scratch)
        if args.trace:
            result = _traced(args, client)
        else:
            ops = client.run_cycles(args.seconds)
            metrics = end_to_end(setup_times, ops, len(workload.cycle))
            _print_table(f"workload {args.workload} seed {args.seed}", metrics, END_TO_END_UNITS, len(ops))
            # Printed but not in BENCHMARK.json (README.md, "End-to-end metrics").
            bounded = {k: v for k, v in metrics.items() if k not in ("peak_rss_mb", "cluster_ari", "fail_ratio")}
            result = _result(ops, {k: (v, END_TO_END_UNITS[k][0]) for k, v in bounded.items()})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_after"] = _loadavg()
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def _traced(args, client) -> dict:
    """Half the time untraced, half traced; per-layer metrics come from the
    traced half, and their op-time ratio is the trace's own cost."""
    from layers import check_consistency, instrument, layer_metrics, unit_of
    from spans import Tracer

    untraced = client.run_cycles(args.seconds / 2)
    tracer = Tracer()
    agglomerate_peak_mb = instrument(tracer)
    originals = tracer.wrapped()
    try:
        traced = client.run_cycles(args.seconds / 2, span=tracer.span)
    finally:
        tracer.restore()
    problems = check_consistency(tracer, traced)
    if not tracer.restored(originals):
        problems.append("a wrapped attribute was not restored")

    metrics = layer_metrics(tracer, traced, client.sentences)
    metrics["clustering.agglomerate_peak_mb"] = agglomerate_peak_mb()
    metrics["trace.overhead_ratio"] = statistics.median(op.wall_s for op in traced) / statistics.median(
        op.wall_s for op in untraced
    )
    out_dir = ROOT / ".pipebench" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"{args.workload}-seed{args.seed}.jsonl")

    units = {name: (unit_of(name), "") for name in metrics}
    _print_table(f"workload {args.workload} seed {args.seed} (traced)", metrics, units, len(traced))
    op_wall = statistics.fmean(op.wall_s for op in traced)
    for stage in ("train-embed", "cluster"):
        print(f"  share of op in stage {stage:26s} {metrics[f'stage.{stage}_s'] / op_wall:8.3f}")
    classifier_stages = ("train-classifier", "phrase-labels", "finetune-phrases", "classify")
    share = sum(metrics[f"stage.{s}_s"] for s in classifier_stages) / op_wall
    print(f"  share of op in {'+'.join(classifier_stages)} {share:8.3f}")
    return _result(untraced + traced, {k: (v, units[k][0]) for k, v in metrics.items()}, problems)


def _result(ops, metrics: dict, problems=()) -> dict:
    """Print what failed and build the result line; metrics maps a name to
    (value, unit)."""
    failed = [op for op in ops if op.problems]
    for problem in problems:
        print(f"  trace check failed: {problem}")
    for op in failed:
        print(f"  failed op (parameter {op.value!r}): {'; '.join(op.problems)}")
    return {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
