"""Names, units and directions of every metric, and the per-layer summary.

BENCHMARK.json lists the same metrics; the benchmark's tests check that the
two agree and that every run emits all of them.
"""

from __future__ import annotations

from probes import PROBE_NAMES
from tracer import EIGSH, SPAN_NAMES, Tracer
from workloads import WORKLOADS, PassResult

EXPERIMENT_NAMES = tuple(name for exps in WORKLOADS.values() for name, _ in exps)

# counters that repeat exactly between runs with the same seed
COUNTERS = (
    ("pauli.bytes_computed", "B"),
    ("oracle.krylov_propagate.matvecs", "count"),
    (f"{EIGSH}.matvecs", "count"),
    ("spectral.eigh_tridiag.max_dim", "count"),
    ("transfer.fidelity_trace.points", "count"),
    ("iep.reconstruct_jacobi.flops_computed", "flop"),
    ("splitting.measure_splitting.points", "count"),
)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    tuple((f"{span}.{kind}", unit) for span in SPAN_NAMES
          for kind, unit in (("calls", "count"), ("self_s", "s")))
    + COUNTERS
    + (
        ("spectral.eigh_tridiag.persym_ratio", "ratio"),
        ("splitting.mp_escalation_ratio", "ratio"),
        ("reporting.write_csv.bytes", "B"),
    )
    + tuple((f"experiments.{name}.self_s", "s") for name in EXPERIMENT_NAMES)
    + (("trace.coverage_ratio", "ratio"), ("trace.overhead_ratio", "ratio"))
    + tuple((f"{name}_s", "s") for name in EXPERIMENT_NAMES)
    + tuple((name, "s") for name in PROBE_NAMES)
    + (("check_fail_ratio", "ratio"),)
)

# the mirror-split path and the traced share of wall time are the good side
HIGHER_IS_BETTER = {"spectral.eigh_tridiag.persym_ratio", "trace.coverage_ratio"}


def layer_metrics(tracer: Tracer, traced: PassResult) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of the traced pass the tracer recorded."""
    own = tracer.self_times()
    calls = tracer.calls()
    counters = tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = (calls[span], "count")
        out[f"{span}.self_s"] = (own.get(span, 0.0), "s")
    for name, unit in COUNTERS:
        out[name] = (counters[name], unit)
    solves = calls["spectral.eigh_tridiag"]
    out["spectral.eigh_tridiag.persym_ratio"] = (
        counters["spectral.eigh_tridiag.persym_calls"] / solves if solves else 0.0, "ratio")
    points = counters["splitting.measure_splitting.points"]
    mp_calls = calls["splitting.dense_eigenvalue_mp"] + calls["splitting.tridiag_eigenvalue_mp"]
    out["splitting.mp_escalation_ratio"] = (mp_calls / (2 * points) if points else 0.0, "ratio")
    out["reporting.write_csv.bytes"] = (
        sum(len(b) for files in traced.csv.values() for b in files.values()), "B")
    for name in EXPERIMENT_NAMES:
        out[f"experiments.{name}.self_s"] = (own.get(f"experiments.{name}", 0.0), "s")
    out["trace.coverage_ratio"] = (sum(own.values()) / traced.wall, "ratio")
    return out
