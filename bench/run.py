"""dpfed benchmark: three workloads timed end to end, or traced per layer.

Run from the root of a checkout that holds ``src/dpfed``:

    python3 bench/run.py --workload membership --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with only the cheap clock
hooks installed. ``--trace 1`` runs one untraced reference operation,
then the same operation with a span at every layer boundary, and reports
per-layer metrics, the tracing overhead and whether tracing changed any
output. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the machine block and the reported outputs, is written to
``bench/results/``, and a traced run also writes its spans there.
"""

import os

# Pin BLAS to one thread; this must happen before numpy is first imported.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPS = 5  # set-ups timed per run when set-up holds no resources

# Layers whose self time is reported as a share; a span's layer is the
# part of its name before the first dot.
LAYERS = ("network", "dpsgd", "privacy", "rng", "wire", "federation", "evaluation", "data", "experiments")


@dataclass
class OpRecord:
    seconds: float
    intervals_ms: list
    outcome: object


def run_op(op, get_inputs, clock):
    """Set up and run one operation; an escaping exception is a failed operation."""
    from workloads import Outcome

    clock.begin()
    seconds = 0.0
    try:
        inputs = get_inputs()
        t0 = perf_counter()
        try:
            outcome = op(inputs, clock)
        finally:
            seconds = perf_counter() - t0
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(None, [f"exception: {exc!r}"], clock.items)
    return OpRecord(seconds, clock.intervals_ms(), outcome)


def timed_setup(setup, seed, setup_times):
    t0 = perf_counter()
    inputs = setup(seed)
    setup_times.append(perf_counter() - t0)
    return inputs


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def mean_or_zero(values):
    return statistics.fmean(values) if values else 0.0


def round_summary(intervals_ms) -> dict:
    if not intervals_ms:
        return {"rounds": 0}
    return {"rounds": len(intervals_ms), "mean_ms": statistics.fmean(intervals_ms),
            **{f"p{q}_ms": percentile(intervals_ms, q) for q in (10, 50, 90)}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dpfed").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_block(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def check_repeats(records) -> list[str]:
    """Operations on the same inputs must produce the same outputs."""
    digests = {r.outcome.digest for r in records if r.outcome.digest is not None}
    return [f"{len(digests)} different outputs from identical inputs"] if len(digests) > 1 else []


def untraced_run(workload, seed, seconds, clock):
    setup_times: list[float] = []
    if workload.pure_setup:
        for _ in range(SETUP_REPS):
            inputs = timed_setup(workload.setup, seed, setup_times)
        get_inputs = lambda: inputs
    else:
        get_inputs = lambda: timed_setup(workload.setup, seed, setup_times)
    ops: list[OpRecord] = []
    start = perf_counter()
    while True:
        ops.append(run_op(workload.op, get_inputs, clock))
        typical = statistics.median(r.seconds for r in ops)
        if perf_counter() - start + typical > seconds:
            break
    return setup_times, ops


def end_to_end_metrics(import_s, setup_times, ops) -> dict:
    op_s = [r.seconds for r in ops]
    intervals = [x for r in ops for x in r.intervals_ms]
    busy_s = sum(op_s)
    return {
        "setup_s": (import_s + (statistics.median(setup_times) if setup_times else 0.0), "s"),
        "experiment_s": (statistics.median(op_s), "s"),
        "items_per_s": (sum(r.outcome.items for r in ops) / busy_s if busy_s else 0.0, "1/s"),
        "round_ms_mean": (mean_or_zero(intervals), "ms"),
        "round_ms_p90": (percentile(intervals, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_run(workload, seed, seconds, clock):
    """Reference op untraced, then traced ops; returns what the report needs."""
    from tracer import Patches, Tracer, not_restored
    from workloads import install_tracer

    setup_times: list[float] = []
    first: dict = {}

    def reference_inputs():
        first["inputs"] = timed_setup(workload.setup, seed, setup_times)
        return first["inputs"]

    start = perf_counter()
    reference = run_op(workload.op, reference_inputs, clock)
    inputs = first.get("inputs")

    tracer = Tracer()
    trace_patches = Patches()
    install_tracer(trace_patches, tracer)
    traced_setup = tracer.wrap("bench.setup", workload.setup)
    traced_op = tracer.wrap("bench.op", workload.op)
    get_inputs = (lambda: inputs) if workload.pure_setup else (lambda: traced_setup(seed))
    traced: list[OpRecord] = []
    try:
        while True:
            traced.append(run_op(traced_op, get_inputs, clock))
            if perf_counter() - start + traced[-1].seconds > seconds:
                break
    finally:
        undone = trace_patches.restore()
    checks = {"tracing restored every rebound name": not_restored(undone)}
    checks["traced outputs equal the untraced reference"] = [
        f"traced op {i} differs" for i, r in enumerate(traced) if r.outcome.digest != reference.outcome.digest
    ]
    if hasattr(workload, "replay") and reference.outcome.detail is not None:
        clock.begin()
        checks["in-process replay equals TCP"] = workload.replay(inputs, reference.outcome.detail)
    return setup_times, reference, traced, tracer, checks


def compose_deciles(series):
    """Median per-call microseconds of compose over the shortest and longest tenth of ledgers."""
    if not series:
        return 0.0, 0.0
    ordered = sorted(series)
    tenth = max(1, len(ordered) // 10)
    first = statistics.median(s for _, s in ordered[:tenth])
    last = statistics.median(s for _, s in ordered[-tenth:])
    return first * 1e6, last * 1e6


def layer_metrics(tracer, reference, traced) -> dict:
    """Per-layer figures per traced operation, self-time shares and tracing overhead."""
    n = len(traced)
    t = tracer
    coordinator = lambda thread: thread == "MainThread"
    worker = lambda thread: thread != "MainThread"
    rounds = t.calls("federation.average_releases")
    first, last = compose_deciles(t.series("privacy.compose"))
    m = {
        "network.per_example_gradients.calls": (t.calls("network.per_example_gradients") / n, "count"),
        "network.per_example_gradients.seqs": (t.counter("network.per_example_gradients.seqs") / n, "count"),
        "network.per_example_gradients.s": (t.total("network.per_example_gradients") / n, "s"),
        "network.forward.s": (t.total("network.forward") / n, "s"),
        "network.apply_update.s": (t.total("network.apply_update") / n, "s"),
        "dpsgd.warm_start.self_s": (t.self_time("dpsgd.warm_start") / n, "s"),
        "dpsgd.dp_gradient_release.self_s": (t.self_time("dpsgd.dp_gradient_release") / n, "s"),
        "privacy.compose.calls": (t.calls("privacy.compose") / n, "count"),
        "privacy.compose.s": (t.total("privacy.compose") / n, "s"),
        "privacy.compose.us_first_decile": (first, "us"),
        "privacy.compose.us_last_decile": (last, "us"),
        "privacy.gaussian_sigma.calls": (t.calls("privacy.gaussian_sigma") / n, "count"),
        "privacy.probe.s": (t.total("privacy.probe") / n, "s"),
        "privacy.dp_mean.calls": (t.calls("privacy.dp_mean") / n, "count"),
        "privacy.dp_mean.s": (t.total("privacy.dp_mean") / n, "s"),
        "rng.open_uniform.calls": (t.calls("rng.open_uniform") / n, "count"),
        "rng.normals.calls": (t.calls("rng.normals") / n, "count"),
        "rng.normals.s": (t.total("rng.normals") / n, "s"),
        "wire.encode.calls": (t.calls("wire.encode") / n, "count"),
        "wire.encode.s": (t.total("wire.encode") / n, "s"),
        "wire.encode.bytes": (t.counter("wire.encode.bytes") / n, "B"),
        "wire.encode.calls_per_round": (t.calls("wire.encode") / rounds if rounds else 0.0, "1/round"),
        "wire.decode.calls": (t.calls("wire.decode") / n, "count"),
        "wire.decode.s": (t.total("wire.decode") / n, "s"),
        "wire.decode.bytes": (t.counter("wire.decode.bytes") / n, "B"),
        "federation.rounds": (rounds / n, "count"),
        "federation.make_release.s": (t.total("federation.make_release") / n, "s"),
        "federation.apply_average.s": (t.total("federation.apply_average") / n, "s"),
        "federation.average_releases.s": (t.total("federation.average_releases") / n, "s"),
        "federation.send.s": (t.total("federation.send") / n, "s"),
        "federation.recv_wait_s.coordinator": (t.self_time("federation.recv", coordinator) / n, "s"),
        "federation.recv_wait_s.worker": (t.self_time("federation.recv", worker) / n, "s"),
        "evaluation.accuracy.s": (t.total("evaluation.accuracy") / n, "s"),
        "evaluation.accuracy.frames": (t.counter("evaluation.accuracy.frames") / n, "count"),
        "data.synth_generate.s": (t.total("data.synth_generate") / n, "s"),
        "data.split.s": (t.total("data.split") / n, "s"),
    }
    shares = self_shares(t)
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (shares["layers"].get(layer, 0.0), "share")
    traced_s = statistics.median(r.seconds for r in traced)
    traced_rounds = [x for r in traced for x in r.intervals_ms]
    m["trace.overhead.experiment_s"] = (traced_s - reference.seconds, "s")
    m["trace.overhead.round_ms_mean"] = (mean_or_zero(traced_rounds) - mean_or_zero(reference.intervals_ms), "ms")
    m["trace.spans"] = (t.span_count() / n, "count")
    return m


def self_shares(tracer) -> dict:
    """Each span's and each layer's self time as a share of all self time, all threads."""
    per_span = tracer.self_times()
    total = sum(per_span.values()) or 1.0
    layers: dict[str, float] = {}
    for name, s in per_span.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + s / total
    spans = {name: s / total for name, s in sorted(per_span.items(), key=lambda kv: -kv[1])}
    return {"layers": layers, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("need 0 <= seed < 2**64 and seconds > 0")

    if not (SRC / "dpfed" / "__init__.py").is_file():
        print(f"error: no dpfed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    dpfed = importlib.import_module("dpfed")
    import_s = perf_counter() - t0
    if not Path(dpfed.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported dpfed from {dpfed.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracer import Patches, not_restored
    from workloads import WORKLOADS, Clock, install_clock

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    clock = Clock()
    patches = Patches()
    install_clock(patches, clock)
    try:
        if args.trace:
            setup_times, reference, ops, tracer, checks = traced_run(workload, args.seed, args.seconds, clock)
            records = [reference] + ops
        else:
            setup_times, ops = untraced_run(workload, args.seed, args.seconds, clock)
            records = ops
            checks = {}
    finally:
        undone = patches.restore()
    checks["clock hooks restored"] = not_restored(undone)
    checks["identical inputs give identical outputs"] = check_repeats(records)

    if args.trace:
        metrics = layer_metrics(tracer, reference, ops)
    else:
        metrics = end_to_end_metrics(import_s, setup_times, ops)

    op_failures = [r.outcome.failures for r in records]
    attempted = len(records) + len(checks)
    failed = sum(1 for f in op_failures if f) + sum(1 for f in checks.values() if f)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(args.seed),
        "import_s": import_s,
        "setup_times_s": setup_times,
        "ops": [
            {"seconds": r.seconds, "items": r.outcome.items, **round_summary(r.intervals_ms),
             "digest": r.outcome.digest, "failures": r.outcome.failures, "report": r.outcome.report}
            for r in records
        ],
        "checks": checks,
        "failed_share": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        result["self_share"] = self_shares(tracer)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result["spans_written"] = tracer.write_spans(RESULTS / f"{stem}.spans.tsv")
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print("machine: " + json.dumps(result["machine"]))
    for i, r in enumerate(records):
        label = "reference" if args.trace and i == 0 else "op"
        print(f"{label} {i}: {r.seconds:.3f} s, {r.outcome.items} items, report {json.dumps(r.outcome.report)}"
              + (f", FAILED {r.outcome.failures}" if r.outcome.failures else ""))
    for name, problems in checks.items():
        print(f"check: {name}: {'ok' if not problems else problems}")
    if args.trace:
        shares = result["self_share"]["layers"]
        print("self-time share by layer: " + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    print(f"failed_share: {failed}/{attempted}; result written to {RESULTS / (stem + '.json')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
