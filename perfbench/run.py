"""Benchmark of the ssattn library: three closed-loop CPU workloads.

Run from the repository root:

    python3 perfbench/run.py --workload classify-224 --seed 1 --seconds 30 --trace 0

The library is imported from `src/` next to this directory; without it
the run exits with status 2 and prints no result. One client runs ops
back to back (closed loop). BLAS threads are pinned to min(2, CPUs).

--trace 0  sets up several times (median is `setup_s`), then runs ops for
           `--seconds` and prints the end-to-end metrics.
--trace 1  runs each op untraced and then traced (or the other way
           round) for `--seconds`, checks the traced outputs are bitwise
           equal and the span MAC totals equal `count_flops` /
           `s3a_flops`, and prints the per-layer metrics.

Every op's output is checked (shape, float32, finite); once per run,
untimed, op 1 is re-run and one sampled S3A call of its largest map is
compared against `oracle.oracle_s3a` (classify), or its float32 output
and gradient against float64 references (train step).
The last stdout line is the result object; the line before it is the
full report (environment fingerprint, tail percentile and sample count,
sampled check, absent spans), which is also written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
WORKLOADS = ("classify-224", "classify-mixed", "train-step-56")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-checkpoint", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.write_checkpoint is None:
        if args.workload is None or args.seconds is None:
            p.error("--workload and --seconds are required")
        if args.seconds <= 0:
            p.error("--seconds must be positive")
    return args


def pin_threads() -> int:
    """Fix the BLAS/OpenMP thread count before numpy loads."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


# ---------------------------------------------------------------------------
# environment fingerprint


def _git_commit() -> str | None:
    """HEAD of a checkout's .git, read directly (no parent-directory search)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ssattn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    import ctypes

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = [n for n in os.listdir(libdir) if "openblas" in n]
    except OSError:
        return None
    for name in names:
        lib = ctypes.CDLL(os.path.join(libdir, name))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_bytes(level: str) -> int | None:
    try:
        out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def fingerprint(seed: int, threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads_requested": threads,
        "blas_threads_reported": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "l2_bytes": _cache_bytes("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _cache_bytes("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measurement


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile); with too few samples, the maximum at 100.
    """
    s = sorted(samples)
    rank = len(s) - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND samples beyond
    if rank < 1:
        return s[-1], 100
    pct = (100 * rank) // len(s)
    return s[max(0, -(-pct * len(s) // 100) - 1)], pct


class Loop:
    """Closed-loop ops with per-op checks; inputs are generated untimed."""

    def __init__(self, wl, state):
        self.wl, self.state = wl, state
        self.times: list[float] = []
        self.macs = 0
        self.failed = 0
        self.digests: list[bytes] = []

    def run_op(self, i: int, keep_digest: bool = False) -> None:
        x = self.wl.make_input(i)
        t0 = time.perf_counter()
        try:
            out = self.wl.op(self.state, x)
        except Exception:  # a failed op is counted, the loop goes on
            traceback.print_exc()
            out = None
        elapsed = time.perf_counter() - t0
        ok = out is not None and self.wl.check(self.state, x, out)
        self.failed += not ok
        self.times.append(elapsed)
        self.macs += self.wl.macs(self.state, x)
        if keep_digest:
            self.digests.append(hashlib.sha256(self.wl.digest(out)).digest() if ok else b"")

    def run_for(self, seconds: float, keep_digest: bool = False) -> None:
        """Ops 1, 2, ... until `seconds` have passed (op 0 is the warm-up)."""
        deadline = time.perf_counter() + seconds
        i = 1
        while True:
            self.run_op(i, keep_digest)
            i += 1
            if time.perf_counter() >= deadline:
                return

    def summary(self) -> dict:
        busy = sum(self.times)
        tail_s, pct = tail(self.times)
        return {
            "ops": len(self.times),
            "ops_per_s": len(self.times) / busy,
            "op_p50_s": statistics.median(self.times),
            "op_tail_s": tail_s,
            "op_tail_percentile": pct,
            "gmac_per_s": self.macs / busy / 1e9,
        }


def measure_setup(wl):
    """SETUP_REPEATS times: set up from scratch, then the warm-up op 0."""
    times, state, failed = [], None, 0
    x0 = wl.make_input(0)
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous model before loading the next
        t0 = time.perf_counter()
        state = wl.setup()
        out = wl.op(state, x0)
        times.append(time.perf_counter() - t0)
        failed += not wl.check(state, x0, out)
    return state, times, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(wl, seconds: float):
    state, setup_times, setup_failed = measure_setup(wl)
    loop = Loop(wl, state)
    loop.run_for(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    sampled = wl.sampled_check(state, wl.make_input(1))
    s = loop.summary()
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(s["ops_per_s"], "1/s"),
        "op_p50_s": metric(s["op_p50_s"], "s"),
        "op_tail_s": metric(s["op_tail_s"], "s"),
        "gmac_per_s": metric(s["gmac_per_s"], "GMAC/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    # attempted: the set-up warm-up ops, the timed ops and the sampled check
    attempted = SETUP_REPEATS + s["ops"] + 1
    failed = setup_failed + loop.failed + (not sampled["passed"])
    details = {"setup_samples_s": setup_times, "loop": s, "sampled_check": sampled}
    return metrics, attempted, failed, details


def run_traced(wl, seconds: float):
    """Each op untraced and traced in turn; per-layer metrics from the spans.

    Running the two copies of an op back to back (alternating which goes
    first) puts both in the same stretch of machine speed, so
    `trace.overhead` does not pick up the machine's drift over the run.
    """
    from spans import Tracer, layer_metrics, op_macs

    tracer = Tracer()
    with tracer:
        tracer.op = "setup"
        traced_state = wl.setup()
    state = wl.setup()
    x0 = wl.make_input(0)
    warm_failed = sum(not wl.check(s, x0, wl.op(s, x0)) for s in (state, traced_state))
    plain, traced = Loop(wl, state), Loop(wl, traced_state)

    def run_traced_op(i):
        with tracer:
            tracer.op = i
            traced.run_op(i, keep_digest=True)

    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        if i % 2:
            plain.run_op(i, keep_digest=True)
            run_traced_op(i)
        else:
            run_traced_op(i)
            plain.run_op(i, keep_digest=True)
        i += 1
        if time.perf_counter() >= deadline:
            break
    ops = range(1, i)

    # one untimed op with allocation tracking, on the seed-independent op 0
    with Tracer(alloc=True) as alloc:
        alloc.op = 0
        alloc_ok = wl.check(traced_state, x0, wl.op(traced_state, x0))

    # The span MACs must close on the analytic count; a gap means the spans
    # no longer cover the pass (reported in trace.mac_coverage, not an op failure).
    expected = {i: wl.macs(traced_state, wl.make_input(i)) for i in ops}
    counted = op_macs(tracer.spans)
    mac_mismatch = [i for i in ops if counted.get(i) != expected[i]]
    unequal = [i for i, a, b in zip(ops, plain.digests, traced.digests) if a != b or not b]
    sampled = wl.sampled_check(traced_state, wl.make_input(1))

    metrics = layer_metrics(tracer.spans, ops, sum(traced.times), alloc.spans)
    overhead = traced.summary()["ops_per_s"] / plain.summary()["ops_per_s"]
    metrics["trace.overhead"] = metric(overhead, "ratio")
    metrics["trace.mac_coverage"] = metric(
        sum(counted.get(i, 0) for i in ops) / sum(expected.values()), "ratio")
    # attempted: two warm-up ops, untraced ops, traced ops, allocation op, sampled check
    attempted = 2 + 2 * len(ops) + 1 + 1
    failed = warm_failed + plain.failed + len(unequal) + (not alloc_ok) + (not sampled["passed"])
    details = {
        "untraced": plain.summary(),
        "traced": traced.summary(),
        "bitwise_equal": not unequal,
        "unequal_ops": unequal[:10],
        "mac_cross_check": {
            "reference": wl.mac_reference, "exact": not mac_mismatch,
            "expected_total": sum(expected.values()),
            "counted_total": sum(counted.get(i, 0) for i in ops),
            "mismatched_ops": mac_mismatch[:10],
        },
        "absent_spans": tracer.absent,
        "meter_errors": tracer.meter_errors[:10],
        "sampled_check": sampled,
        "computed_from_shapes": ["kernel.*.macs", "MAC counts in kernel.*.mac_per_byte"],
        "measured_with_tracemalloc": ["kernel.*.gather_mb", "*.peak_alloc_mb"],
    }
    return metrics, attempted, failed, details, tracer.to_records()


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    if not os.path.isfile(os.path.join(SRC, "ssattn", "__init__.py")):
        print(f"ssattn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ssattn

    if not os.path.abspath(ssattn.__file__).startswith(SRC + os.sep):
        print(f"imported ssattn from {ssattn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.write_checkpoint:
        workloads.write_checkpoint(args.write_checkpoint, args.seed)
        return 0

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.make_workload(args.workload, args.seed, OUT)
    records = None
    try:
        wl.prepare(os.path.abspath(__file__))
        if args.trace:
            metrics, attempted, failed, details, records = run_traced(wl, args.seconds)
        else:
            metrics, attempted, failed, details = run_untraced(wl, args.seconds)
    finally:
        wl.cleanup()

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "fingerprint": fingerprint(args.seed, threads), "error_rate": failed / attempted,
        "details": details, "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if records is not None:
        with open(stem + ".spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
