"""judou benchmark: one seeded workload per run, a closed loop with one client
in one process, through the library functions the CLI calls.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports judou from `src/`. The last
line of stdout is the result: {"correct", "attempted", "failed", "metrics"}.
The line before it records the machine, the inputs and the counters.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a traced run (see perfbench/README.md).
"""

import os

# Fixed before numpy loads, and recorded with every result. One thread is at
# most nproc everywhere, and keeps a shared two-core machine steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("train", "segment", "pretrain")
# Share of --seconds for each phase, the same in every workload: with rounds
# of about 3.5 s (train: one train() and EVAL_REPEATS evaluate() calls),
# 3.5 s (segment) and 1.4 s (pretrain), each phase gets four or more rounds.
SHARES = {"train": 0.4, "segment": 0.4, "pretrain": 0.2}
SETUP_REPS = 5

END_TO_END = {
    "train_chars_per_s": "chars/s",
    "eval_chars_per_s": "chars/s",
    "train_loss": "nats",
    "segment_chars_per_s": "chars/s",
    "segment_doc_ms_p50": "ms",
    "segment_doc_ms_p95": "ms",
    "cbow_positions_per_s": "positions/s",
    "cbow_loss": "nats",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lstm.forward_s": "s",
    "lstm.forward_calls": "count",
    "lstm.forward_positions": "count",
    "lstm.backward_s": "s",
    "lstm.cache_mb_max": "MB",
    "crf.nll_s": "s",
    "crf.nll_calls": "count",
    "crf.viterbi_s": "s",
    "crf.viterbi_calls": "count",
    "nncore.sgd_s": "s",
    "nncore.sgd_calls": "count",
    "nncore.clip_rate": "ratio",
    "nncore.dropout_s": "s",
    "segmenter.forward_self_s": "s",
    "segmenter.backward_self_s": "s",
    "segmenter.evaluate_s": "s",
    "segmenter.evaluate_calls": "count",
    "segmenter.train_self_s": "s",
    "segmenter.load_model_s": "s",
    "segmenter.segment_self_s": "s",
    "segmenter.dropped_chars": "count",
    "embedding.encode_s": "s",
    "embedding.encode_calls": "count",
    "corpus.normalize_s": "s",
    "radicals.table_load_s": "s",
    "embedding.cbow_s": "s",
    "embedding.cbow_calls": "count",
    "embedding.train_self_s": "s",
    "trace.overhead_pct": "%",
}


def import_judou():
    """Put the checkout's src/ first on the path; judou must come from there."""
    if not (SRC / "judou" / "__init__.py").is_file():
        sys.exit(f"perfbench: no judou sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import judou
    if Path(judou.__file__).resolve().parent != (SRC / "judou").resolve():
        sys.exit(f"perfbench: imported judou from {judou.__file__}, not from {SRC}")


def blas_threads():
    """Threads the loaded OpenBLAS reports, else the configured count."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return BLAS_THREADS


def machine_info() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }


def settled(step, api):
    """step(api) after a full garbage collection, so no collection of
    garbage left by an earlier step lands inside a timed call."""
    gc.collect()
    return step(api)


def trim_heap():
    """Hand the memory the C heap keeps free back to the system, as a fresh
    process has none. A set-up then takes the same time whichever round ran
    before it: without this it took 0.018 s after a segment round and 0.03 s
    after a train or pretrain round, and the median of a run jumped between
    the two."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass  # not glibc: nothing to trim


def run_untraced(phases: dict, workload: str, seconds: float):
    """Every phase runs, since every end-to-end metric is reported; the
    workload's own phase sets the set-up time and the peak RSS. Rounds of
    the phases are interleaved, so each samples the machine across the
    whole run rather than one window of it."""
    import numpy as np
    from phases import Api
    from reference import Reference
    api = Api()
    primary = phases[workload]
    start = time.perf_counter()
    primary.setup(api)
    settled(primary.round, api)
    # read before any other phase or the reference kernel runs, so
    # the peak is the workload's own; the round was a warm-up
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    primary.reset_timings()
    # one kernel for the whole run: the phases are interleaved, so its mean
    # samples the same stretch of the machine's time as every phase does
    ref = Reference()
    for phase in phases.values():
        phase.reference = ref

    def timed_setup():
        trim_heap()
        dt = settled(primary.setup, api)
        ref.sample(dt)
        return dt

    setups = [timed_setup() for _ in range(SETUP_REPS)]
    spent = {name: 0.0 for name in phases}
    rounds = {name: 0 for name in phases}
    for name, phase in phases.items():
        if name != workload:
            phase.setup(api)
    while True:
        # the phase furthest behind its share runs next; every phase runs once
        name = min(phases, key=lambda n: spent[n] / SHARES[n])
        expected = spent[name] / rounds[name] if rounds[name] else 0.0
        if rounds[name] and time.perf_counter() - start + expected > seconds:
            break
        # one more set-up between rounds: its samples span the run too
        setups.append(timed_setup())
        t0 = time.perf_counter()
        settled(phases[name].round, api)
        spent[name] += time.perf_counter() - t0
        rounds[name] += 1
    train, seg, cbow = phases["train"], phases["segment"], phases["pretrain"]
    # Work over total time, and each document's mean over its repeats, match
    # the mean kernel time they are scaled by (see reference.py).
    doc_s = [statistics.fmean(lat) for lat in seg.latency if lat]
    raw = {
        "train_chars_per_s": train.train_chars * len(train.train_s) / sum(train.train_s),
        "eval_chars_per_s": train.eval_chars * len(train.eval_s) / sum(train.eval_s),
        "segment_chars_per_s": seg.input_chars / sum(doc_s),
        "segment_doc_ms_p50": float(np.percentile(doc_s, 50)) * 1e3,
        "segment_doc_ms_p95": float(np.percentile(doc_s, 95)) * 1e3,
        "cbow_positions_per_s": cbow.positions * len(cbow.times) / sum(cbow.times),
        # mean, not median: a set-up on this host takes 0.019 s or 0.034 s in
        # streaks of a few seconds, and the median of a run jumps between them
        "setup_s": statistics.fmean(setups),
    }
    slowdown = ref.slowdown()
    metrics = {
        "train_chars_per_s": raw["train_chars_per_s"] * slowdown,
        "eval_chars_per_s": raw["eval_chars_per_s"] * slowdown,
        "train_loss": train.losses[0],
        "segment_chars_per_s": raw["segment_chars_per_s"] * slowdown,
        "segment_doc_ms_p50": raw["segment_doc_ms_p50"] / slowdown,
        "segment_doc_ms_p95": raw["segment_doc_ms_p95"] / slowdown,
        "cbow_positions_per_s": raw["cbow_positions_per_s"] * slowdown,
        "cbow_loss": cbow.losses[0],
        "setup_s": raw["setup_s"] / slowdown,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "raw": raw,
        "slowdown": slowdown,
        "reference_samples": len(ref.samples),
        "rounds": rounds,
        "segment_docs_timed": sum(len(lat) for lat in seg.latency),
        "segment_dropped_chars": seg.dropped_chars,
        "samples_s": {"train": train.train_s, "evaluate": train.eval_s,
                      "train_embeddings": cbow.times, "setup": setups},
    }
    return metrics, info


def layer_metrics(st) -> dict:
    """Per-layer metrics of one traced round, from its span statistics."""
    fwd = st.values.get("lstm.bilstm_forward_batch", [])
    scales = st.values.get("nncore.sgd_step", [])
    val_s, val_calls = st.under.get(("segmenter.evaluate", "segmenter.train"), (0.0, 0))
    return {
        "lstm.forward_s": st.total.get("lstm.bilstm_forward_batch", 0.0),
        "lstm.forward_calls": st.calls.get("lstm.bilstm_forward_batch", 0),
        "lstm.forward_positions": sum(v[0] for v in fwd),
        "lstm.backward_s": st.total.get("lstm.bilstm_backward_batch", 0.0),
        "lstm.cache_mb_max": max((v[1] for v in fwd), default=0) / 2**20,
        "crf.nll_s": st.total.get("crf.crf_nll", 0.0),
        "crf.nll_calls": st.calls.get("crf.crf_nll", 0),
        "crf.viterbi_s": st.total.get("crf.viterbi_decode", 0.0),
        "crf.viterbi_calls": st.calls.get("crf.viterbi_decode", 0),
        "nncore.sgd_s": st.total.get("nncore.sgd_step", 0.0),
        "nncore.sgd_calls": len(scales),
        "nncore.clip_rate": sum(s < 1.0 for s in scales) / len(scales) if scales else 0.0,
        "nncore.dropout_s": st.total.get("nncore.dropout_mask", 0.0),
        "segmenter.forward_self_s": st.self_time.get("segmenter._forward_batch", 0.0),
        "segmenter.backward_self_s": st.self_time.get("segmenter._backward_batch", 0.0),
        "segmenter.evaluate_s": val_s,
        "segmenter.evaluate_calls": val_calls,
        "segmenter.train_self_s": st.self_time.get("segmenter.train", 0.0),
        "segmenter.segment_self_s": st.self_time.get("segmenter.segment", 0.0),
        "embedding.encode_s": st.total.get("embedding.encode_chars", 0.0),
        "embedding.encode_calls": st.calls.get("embedding.encode_chars", 0),
        "corpus.normalize_s": st.total.get("corpus.normalize_text", 0.0),
        "embedding.cbow_s": st.total.get("embedding.cbow_loss_and_grads", 0.0),
        "embedding.cbow_calls": st.calls.get("embedding.cbow_loss_and_grads", 0),
        "embedding.train_self_s": st.self_time.get("embedding.train_embeddings", 0.0),
    }


def run_traced(phases: dict, workload: str, seconds: float, trace_path: Path):
    """The workload's phase only: set-ups traced, then untraced and traced
    rounds in turn, so the overhead compares like with like."""
    import judou.embedding
    import judou.segmenter
    from phases import Api
    from spans import SpanStats, Tracer

    modules = {"judou.segmenter": judou.segmenter, "judou.embedding": judou.embedding}
    tracer = Tracer()
    plain, traced = Api(), Api(tracer)
    primary = phases[workload]

    setup_rows = []
    for _ in range(SETUP_REPS):
        mark = len(tracer.spans)
        with tracer.installed(modules):
            trim_heap()
            settled(primary.setup, traced)
        st = SpanStats(tracer.spans, mark)
        setup_rows.append({
            "segmenter.load_model_s": st.total.get("segmenter.load_model", 0.0),
            "radicals.table_load_s": st.total.get("radicals.load_radical_table", 0.0),
        })

    # pairs of rounds, alternating which runs first, so that drift in the
    # machine's speed cancels out of the per-pair overhead ratio
    rows, ratios = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        timed = {}
        for is_traced in ((True, False) if len(ratios) % 2 else (False, True)):
            if is_traced:
                mark = len(tracer.spans)
                with tracer.installed(modules):
                    timed[True] = settled(primary.round, traced)
                rows.append(layer_metrics(SpanStats(tracer.spans, mark)))
            else:
                timed[False] = settled(primary.round, plain)
        ratios.append(timed[True] / timed[False])
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    tracer.write(trace_path)

    # median_low: a value one round had, so counts stay whole numbers
    metrics = {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}
    metrics.update({name: statistics.median_low(row[name] for row in setup_rows)
                    for name in setup_rows[0]})
    metrics["segmenter.dropped_chars"] = getattr(primary, "dropped_chars", 0)
    metrics["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100
    info = {"rounds": {workload: len(rows)}, "spans": len(tracer.spans),
            "trace_file": str(trace_path.relative_to(BENCH_DIR.parent))}
    return metrics, info


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_judou()
    import inputs
    from phases import PHASES, prepare

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        data = prepare(args.seed, workdir)
        phases = {name: cls(data) for name, cls in PHASES.items()}
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, info = run_traced(phases, args.workload, args.seconds, trace_path)
            units = PER_LAYER
        else:
            metrics, info = run_untraced(phases, args.workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, machine=machine_info(),
                inputs=inputs.input_properties(data.corpus, data.docs))
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
