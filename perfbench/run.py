"""oacl benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload seq_default --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. With ``--trace 0`` the run reports the end-to-end metrics, timed
with only a phase timer around the job's stages. With ``--trace 1`` every
public function of every oacl module is wrapped in a span and the run
reports the per-layer metrics instead. Outputs are checked against
``reference.json``; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. Full results, the
machine description and (traced) the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
MIN_UNITS = 3
SETUP_REPEATS = 5
TRACED_SETUP_REPEATS = 2
FIXTURE_REPEATS = 4  # infer_stack's training job, for medians of its train metrics

# (name, unit, better) of the end-to-end metrics, reported with --trace 0.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("pretrain_s", "s", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("infer_rows_per_s", "1/s", "higher"),
    ("infer_call_ms_p50", "ms", "lower"),
    ("infer_call_ms_p95", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# glibc mallopt parameters (malloc.h) and the values the benchmark sets.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
ALLOCATOR = {"mmap_threshold": 64 << 20, "trim_threshold": 256 << 20}


def pin_blas_threads() -> bool:
    """Run BLAS on one thread unless the environment chooses a thread count.

    Must run before numpy is imported. With two threads on a 2-vCPU VM, every
    matmul, even a 32-row one, waits for a second thread that shares its vCPU
    with whatever else runs there: beside one busy process the jobs ran 2 to
    3 times slower, while on one thread they did not slow at all. Returns
    whether the benchmark set the threads; every result records this and the
    thread variables.
    """
    if any(os.environ.get(k) for k in THREAD_VARS):
        return False
    for k in BLAS_THREAD_VARS:
        os.environ[k] = "1"
    return True


def tune_allocator() -> dict:
    """Keep glibc malloc from mapping and unmapping every large array.

    Eval batches allocate arrays of a few hundred KB per tape op. With glibc's
    defaults each is a fresh mmap that page-faults in and is unmapped on free,
    and on a 2-vCPU VM the cost of that varies by up to 2x from one process
    to the next (800-row predict_logits: 20k-55k rows/s). Raising the mmap
    and trim thresholds serves them from the heap instead. Returns the
    settings applied, which every result records; empty if not glibc.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        ok = (libc.mallopt(M_MMAP_THRESHOLD, ALLOCATOR["mmap_threshold"]) == 1
              and libc.mallopt(M_TRIM_THRESHOLD, ALLOCATOR["trim_threshold"]) == 1)
    except (OSError, AttributeError):
        ok = False
    return dict(ALLOCATOR) if ok else {}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="run the workload at toy size (for the self-test)")
    return p.parse_args(argv)


def import_library() -> float:
    """Import oacl from this checkout's src/ and return the import time."""
    src = ROOT / "src"
    if not (src / "oacl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no oacl sources at {src}; run from a source checkout")
    import numpy  # noqa: F401  (the benchmark needs these itself; only the
    import yaml  # noqa: F401   library's own import is timed)

    started = time.perf_counter()
    sys.path.insert(0, str(src))
    import oacl.cli  # noqa: F401  (pulls in every module a job uses)
    import_s = time.perf_counter() - started
    if Path(oacl.cli.__file__).resolve().parent != (src / "oacl").resolve():
        raise SystemExit(f"perfbench: imported oacl from {oacl.cli.__file__}, not {src}")
    return import_s


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def dgemm_peak_gflops(n: int = 1024, reps: int = 10) -> float:
    """Best of several n x n float64 products, with the environment's BLAS threads."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - started)
    return 2.0 * n ** 3 / best / 1e9


class Measure:
    """Runs the job's phases as segments of one span recording."""

    def __init__(self, rec):
        self.rec = rec
        self.segments: list[tuple[str, int, int, dict]] = []

    def segment(self, kind, tracer, fn, *args):
        first, before = len(self.rec), dict(tracer.counts)
        out = fn(*args)
        counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        self.segments.append((kind, first, len(self.rec), counts))
        return out


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def phase_seconds(rec, measure, kinds, name):
    """Durations of the spans called ``name`` in segments of the given kinds."""
    nid = rec.name_id(name)
    return [rec.end[i] - rec.start[i]
            for kind, a, b, _ in measure.segments if kind in kinds
            for i in range(a, b) if rec.name[i] == nid]


def end_to_end_values(job, measure, rec, units, setup_s, import_s):
    """The end-to-end metrics by name, and the per-unit samples behind them.

    Every timing is a median over the run's repeats: set-ups, jobs, units.
    The 32-row call p50 is over all calls of the run. The p95 is taken
    within each unit (200 to 600 calls) and the median unit's is reported:
    over the whole run, any burst of load from other tenants of a shared
    host that covers 5% of it would set the p95.
    """
    import numpy as np

    from workloads import samples_per_sequence

    jobs = ("fixture",) if job.w.fixture else ("unit",)
    pretrain = phase_seconds(rec, measure, jobs, "backbone.build_and_pretrain")
    sequence = phase_seconds(rec, measure, jobs, "trainer.run_sequence")
    samples = samples_per_sequence(job.cfg)
    unit_calls = [u["call_ms"] for u in units if u.get("call_ms")]
    calls = [ms for c in unit_calls for ms in c]
    unit_p95 = [float(np.percentile(c, 95)) for c in unit_calls]
    unit_run_s = [u.get("run_s") for u in units]
    rows_per_s = [u["rows"] / sum(u["full_s"]) for u in units if u.get("full_s")]
    values = {
        "setup_s": import_s + statistics.median(setup_s),
        "run_s": median_or_none(unit_run_s),
        "pretrain_s": median_or_none(pretrain),
        "train_samples_per_s": median_or_none([samples / s for s in sequence]),
        "infer_rows_per_s": median_or_none(rows_per_s),
        "infer_call_ms_p50": float(np.percentile(calls, 50)) if calls else None,
        "infer_call_ms_p95": median_or_none(unit_p95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # p99 is kept out of the metrics: on a shared 2-vCPU VM its spread across
    # runs exceeds any allowed bound.
    detail = {"infer_calls": len(calls),
              "infer_call_ms_p99": float(np.percentile(calls, 99)) if calls else None,
              "unit_run_s": unit_run_s, "unit_rows_per_s": rows_per_s,
              "unit_call_ms_p95": unit_p95,
              "pretrain_s": pretrain, "sequence_s": sequence, "setup_s": setup_s,
              "unit_full_s": [u.get("full_s", []) for u in units],
              "unit_call_ms": unit_calls}
    return values, detail


def per_layer_values(measure, spans, names, stats, units, baseline, peak):
    """The per-layer metrics by name, from the traced segments."""
    from layers import combine, layer_values, step_ms

    steps = [ms for kind, a, b, _ in measure.segments if kind in ("fixture", "unit")
             for ms in step_ms(spans, names, a, b)]
    untraced = baseline.get("run_s") or 0.0
    overhead = (median_or_none([u.get("run_s") for u in units]) or 0.0) - untraced
    return layer_values(combine(stats["fixture"], stats["setup"], stats["unit"]),
                        steps, peak, overhead, untraced)


def run(args) -> int:
    pinned = pin_blas_threads()
    allocator = tune_allocator()
    import_s = import_library()

    from layers import PER_LAYER, repeat_key, segment_stats
    from spans import SpanRecorder, Tracer
    from workloads import WORKLOADS, Job

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())
    size = "toy" if args.toy else "full"
    info = {"machine": {**machine(), "malloc": allocator, "threads_set_by_benchmark": pinned},
            "workload": workload.name, "seed": args.seed,
            "size": size, "trace": args.trace}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="job-", dir=OUT))
    try:
        job = Job(workload, args.seed, args.toy, work,
                  reference["jobs"][workload.name][size])
        info["data_seed"] = job.data_seed
        detail = {}  # per-unit samples behind the reported medians
        rec = SpanRecorder()
        measure = Measure(rec)
        phases = Tracer(rec, full=False)
        tracer = Tracer(rec, full=True) if args.trace else phases
        peak = dgemm_peak_gflops() if args.trace else 0.0

        units, baseline, setup_s = [], None, []
        extra = 1 if args.trace else 0  # the untraced unit that follows
        with tracer:
            started = time.perf_counter()  # --seconds covers everything from here
            builds = FIXTURE_REPEATS if workload.fixture else 0
            built = min(builds, 1)
            if built:  # the stack the units serve
                measure.segment("fixture", tracer, job.prepare)
            for _ in range(TRACED_SETUP_REPEATS if args.trace else SETUP_REPEATS):
                t = time.perf_counter()
                measure.segment("setup", tracer, job.ops.guard, job.setup)
                setup_s.append(time.perf_counter() - t)
            # The first unit is slower (allocator, caches); it is
            # checked but not timed.
            t = time.perf_counter()
            measure.segment("warmup", tracer, job.unit)
            unit_wall = [time.perf_counter() - t]
            while True:
                # infer_stack rebuilds its stack (same outputs) at even times
                # in the first 60% of the window, so that its training metrics
                # sample the host over the run, not only at its start.
                elapsed = time.perf_counter() - started
                if built < builds and elapsed >= 0.6 * args.seconds * built / builds:
                    measure.segment("fixture", tracer, job.prepare)
                    built += 1
                t = time.perf_counter()
                units.append(measure.segment("unit", tracer, job.unit))
                unit_wall.append(time.perf_counter() - t)
                left = args.seconds - (time.perf_counter() - started)
                if len(units) >= MIN_UNITS and left < (1 + extra) * statistics.median(unit_wall):
                    break
            for _ in range(built, builds):  # only a toy-size run gets here
                measure.segment("fixture", tracer, job.prepare)
        if args.trace:  # one untraced unit, to measure what tracing costs
            with phases:
                baseline = measure.segment("baseline", phases, job.unit)
        info["units"] = len(units)

        spans = rec.arrays()
        stats = {kind: [segment_stats(spans, rec.names, a, b, counts)
                        for k, a, b, counts in measure.segments if k == kind]
                 for kind in ("fixture", "setup", "unit")}
        for kind in ("fixture", "setup", "unit"):  # counts must repeat exactly
            if stats[kind]:
                keys = {repeat_key(s) for s in stats[kind]}
                job.ops.record(len(keys) == 1, f"{kind}_counts_differ")

        if args.trace:
            values = per_layer_values(measure, spans, rec.names, stats, units, baseline, peak)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _, _ in PER_LAYER}
            rec.save(OUT / f"spans-{workload.name}-seed{args.seed}.npz")
        else:
            values, detail = end_to_end_values(job, measure, rec, units, setup_s, import_s)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in END_TO_END}
            info.update(import_s=import_s, infer_calls=detail["infer_calls"],
                        infer_call_ms_p99=detail["infer_call_ms_p99"])
        if job.observed:
            final = [row[-1] for row in job.observed["matrix"]]
            info["avg_final_acc"] = sum(final) / len(final)
        info["errors"] = dict(job.ops.errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = job.ops
    result = {"correct": ops.failed == 0 and ops.attempted > 0,
              "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**info, "result": result, "detail": detail}))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
