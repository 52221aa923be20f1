"""The benchmark's workloads and one timed pass over a workload.

Every experiment goes through the public entry point
``memstress.experiments.run(ExperimentConfig(...))``, the one ``memstress
run`` and ``scripts/reproduce_all.py`` use.  Why each workload exists is in
``benchmarks/README.md``.
"""

from __future__ import annotations

import json
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from memstress.experiments import ExperimentConfig, run

WORKLOADS: dict[str, tuple[tuple[str, tuple[int, ...]], ...]] = {
    # toric attack pipeline at large chain length; the seed has no effect
    "chain": (
        ("toric-scaling", (64, 128, 256, 512, 1024)),
        ("toric-retune", (64, 128, 256, 512)),
        ("toric-transfer", (64, 128, 256, 512, 1024)),
    ),
    # 18-qubit statevector checks; the seed sets oracle-verify's J, B and v0
    "oracle": (
        ("oracle-verify", (3,)),
        ("duality-verify", (3,)),
        ("two-excitation", (3,)),
    ),
    # extended-precision splitting orders; the seed sets the banded couplings
    "splitting": (
        ("ising-splitting", (3, 4, 5)),
        ("banded-splitting", (3, 4)),
        ("ising-plateau", (4, 8, 16, 24)),
    ),
}


@dataclass
class PassResult:
    """Timings and check outcomes of one pass over a workload."""

    seconds: dict[str, float] = field(default_factory=dict)
    csv: dict[str, dict[str, bytes]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


def _read_csvs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def run_pass(workload: str, seed: int, out_dir: Path,
             reference: PassResult | None = None, tracer=None) -> PassResult:
    """Run every experiment of the workload once and count its checks.

    An experiment counts as one operation plus one per check; it fails when
    ``run`` returns nonzero (exit 2), raises ``NumericalError`` (exit 3),
    ``ConfigError`` or anything else, and each failed check fails too.  With
    a reference pass of the same seed, each experiment's CSV bytes must equal
    the reference's (one more operation, failed on a mismatch).
    """
    result = PassResult()
    for name, n_range in WORKLOADS[workload]:
        exp_dir = out_dir / name
        cfg = ExperimentConfig(experiment=name, N_range=list(n_range),
                               output_dir=str(exp_dir), seed=seed)
        result.attempted += 1
        scope = tracer.span(f"experiments.{name}") if tracer else nullcontext()
        started = perf_counter()
        try:
            with scope:
                code = run(cfg)
        except Exception:  # ConfigError, NumericalError or a defect: all fail the experiment
            traceback.print_exc()
            code = None
        result.seconds[name] = perf_counter() - started
        if code is None:
            result.failed += 1
            continue
        summary = _load_summary(exp_dir, name)
        result.attempted += len(summary["checks"])
        result.failed += sum(not c["passed"] for c in summary["checks"])
        if code != 0 or not summary["all_passed"]:
            result.failed += 1
        result.csv[name] = _read_csvs(exp_dir)
        if reference is not None:
            result.attempted += 1
            result.failed += result.csv[name] != reference.csv.get(name)
    return result


def _load_summary(exp_dir: Path, name: str) -> dict:
    return json.loads((exp_dir / f"{name.replace('-', '_')}_summary.json").read_text())
