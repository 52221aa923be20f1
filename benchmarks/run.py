#!/usr/bin/env python3
"""The memstress benchmark: one command, three workloads.

    python3 benchmarks/run.py --workload chain --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports ``memstress`` from ``./src``.
``--trace 0`` times passes with tracing off and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the kernel probes of the workload's layers and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One process makes the load; BLAS stays single-threaded, which is within
# the two cores of the reference machine and keeps ARPACK's counts exact.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); "
    "import memstress, memstress.experiments, scipy.sparse.linalg; "
    "print(time.perf_counter() - t)"
)
OUT_ROOT = Path(".bench_out")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("chain", "oracle", "splitting"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds() -> float:
    """Median fresh-process import time of memstress and what it loads lazily."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def repeat_for(seconds: float, step):
    """Call step() until another call would overrun the budget (at least once)."""
    results = []
    started = perf_counter()
    while True:
        results.append(step())
        elapsed = perf_counter() - started
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def end_to_end(args, out_dir: Path):
    from workloads import run_pass

    setup = setup_seconds()
    reference = run_pass(args.workload, args.seed, out_dir)  # warm-up
    passes = repeat_for(args.seconds,
                        lambda: run_pass(args.workload, args.seed, out_dir, reference))
    valid = [p for p in passes if p.failed == 0]
    walls = [p.wall for p in (valid or passes)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [reference] + passes
    print(f"# passes {len(passes)} ({len(valid)} valid), wall_s median {statistics.median(walls):.4f};"
          f" each {' '.join(f'{w:.4f}' for w in walls)}")
    for name in passes[0].seconds:
        print(f"#   {name:18s} median {statistics.median(p.seconds[name] for p in passes):.4f} s")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return runs, metrics


def per_layer(args, out_dir: Path):
    from layers import EXPERIMENT_NAMES, layer_metrics
    from probes import PROBE_NAMES, PROBES
    from tracer import Tracer
    from workloads import run_pass

    reference = run_pass(args.workload, args.seed, out_dir)  # warm-up
    tracer = Tracer()

    def pair():
        plain = run_pass(args.workload, args.seed, out_dir, reference)
        tracer.reset()
        tracer.install()
        try:
            traced = run_pass(args.workload, args.seed, out_dir, reference, tracer)
        finally:
            tracer.uninstall()
        return plain, traced, layer_metrics(tracer, traced)

    pairs = repeat_for(args.seconds, pair)
    tracer.write(OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.csv")
    plain = [p for p, _, _ in pairs]
    traced = [t for _, t, _ in pairs]
    layers = [m for _, _, m in pairs]
    runs = [reference] + plain + traced

    metrics = {}
    for key, (value, unit) in layers[0].items():
        if unit == "s" or key.startswith("trace."):
            value = statistics.median(m[key][0] for m in layers)
        elif any(m[key][0] != value for m in layers):
            print(f"# exact count {key} differs between traced passes", file=sys.stderr)
            traced[0].failed += 1
        metrics[key] = (value, unit)
    overhead = statistics.median(t.wall for t in traced) / statistics.median(p.wall for p in plain) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    for name in EXPERIMENT_NAMES:
        times = [p.seconds[name] for p in plain if name in p.seconds]
        metrics[f"{name}_s"] = (statistics.median(times) if times else 0.0, "s")
    probes = PROBES[args.workload]()
    for name in PROBE_NAMES:
        metrics[name] = (probes.get(name, 0.0), "s")
    attempted = sum(r.attempted for r in runs)
    metrics["check_fail_ratio"] = (sum(r.failed for r in runs) / attempted, "ratio")
    print(f"# traced pairs {len(pairs)}, overhead {overhead:+.3f}, "
          f"coverage {metrics['trace.coverage_ratio'][0]:.4f}")
    return runs, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path.cwd() / "src"
    if not (src / "memstress" / "__init__.py").is_file():
        print("error: src/memstress not found; run from the repository root", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(src)  # for the set-up children
    sys.path.insert(0, str(src))
    import memstress

    if Path(memstress.__file__).resolve().parent != (src / "memstress").resolve():
        print(f"error: memstress imported from {memstress.__file__}, not {src}", file=sys.stderr)
        return 2
    print(f"# memstress benchmark: workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace} blas_threads {BLAS_THREADS}")
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            runs, metrics = per_layer(args, out_dir)
        else:
            runs, metrics = end_to_end(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
