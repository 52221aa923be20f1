"""Self-tests of the benchmark (not part of Tier-1; run with
``python3 -m pytest benchmarks`` from the repository root, about three minutes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# suffixes of the counts that must repeat exactly for a fixed seed
EXACT = (".calls", ".points", ".bytes", ".matvecs", "_computed", ".max_dim", "_ratio")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, seed: int = 7) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            with tracer.span("leaf"):
                time.sleep(0.02)
    own = tracer.self_times()
    total = tracer.spans[0][3] - tracer.spans[0][2]
    assert tracer.calls() == {"outer": 1, "inner": 1, "leaf": 1}
    assert sum(own.values()) == pytest.approx(total)
    assert own["outer"] >= 0.02 and own["leaf"] >= 0.02
    assert 0.0 <= own["inner"] < 0.01


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    res = result(workload, trace=0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly(workload):
    first, second = result(workload, trace=1), result(workload, trace=1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
        assert res["metrics"]["check_fail_ratio"]["value"] == 0.0
        assert res["metrics"]["trace.coverage_ratio"]["value"] >= 0.95
    exact = [k for k in spec if k.endswith(EXACT) and not k.startswith("trace.")]
    assert {k: first["metrics"][k]["value"] for k in exact} == \
        {k: second["metrics"][k]["value"] for k in exact}
    # the workload's own layers do work
    owned = {"chain": "transfer.fidelity_trace.calls", "oracle": "pauli.PauliSum.apply.calls",
             "splitting": "splitting.dense_eigenvalue_mp.calls"}[workload]
    assert first["metrics"][owned]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "chain", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
