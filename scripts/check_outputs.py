#!/usr/bin/env python3
"""Check that every experiment's CSV bytes equal the checked-in digests.

Usage: python3 scripts/check_outputs.py [--write]

Runs the benchmark's workloads (``benchmarks/workloads.py``) at seeds 0, 1,
2 and 7 plus every experiment at its defaults (what ``reproduce_all.py``
runs), hashes each CSV and compares with ``scripts/csv_digests.json``.
``--write`` regenerates that file instead.  BLAS is pinned to one thread, as
in the benchmark.

The CSVs of the last run stay in ``.check_outputs/`` (``reference/`` after
``--write``, ``current/`` otherwise).  On a mismatch, each differing file is
printed, with the largest numeric change per column when a reference copy
of that file is there.  The digests hold for the machine, numpy, scipy and
BLAS named in the file; elsewhere a mismatch may come from those alone.

Exit status: 0 all digests match (or were written), 1 a mismatch, 2 an
experiment raised.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import csv
import hashlib
import json
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from memstress.experiments import EXPERIMENTS, ExperimentConfig, run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1, 2, 7)
DIGESTS = ROOT / "scripts" / "csv_digests.json"
OUT_ROOT = ROOT / ".check_outputs"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": f"{platform.machine()} {cpu}".strip(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def matrix():
    """(directory, experiment, N_range, seed) for every run; [] means the defaults."""
    for workload, experiments in WORKLOADS.items():
        for seed in SEEDS:
            for name, n_range in experiments:
                yield f"{workload}/seed{seed}/{name}", name, list(n_range), seed
    for name in sorted(EXPERIMENTS):
        yield "defaults", name, [], 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_matrix(out: Path) -> dict[str, str]:
    shutil.rmtree(out, ignore_errors=True)
    for where, name, n_range, seed in matrix():
        code = run(ExperimentConfig(experiment=name, N_range=n_range,
                                    output_dir=str(out / where), seed=seed))
        if code != 0:
            print(f"note: {where} {name} exited {code} (some check failed)")
    return {p.relative_to(out).as_posix(): _sha256(p) for p in sorted(out.rglob("*.csv"))}


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def column_changes(ref: Path, cur: Path) -> list[str]:
    """Largest numeric change per column between two CSVs of one header."""
    a, b = _rows(ref), _rows(cur)
    if not a or not b or a[0] != b[0]:
        return [f"header {a[:1]} -> {b[:1]}"]
    lines = [] if len(a) == len(b) else [f"rows {len(a) - 1} -> {len(b) - 1}"]
    for col, name in enumerate(a[0]):
        worst, where, texts = 0.0, None, 0
        for r, (ra, rb) in enumerate(zip(a[1:], b[1:]), start=1):
            if ra[col] == rb[col]:
                continue
            try:
                d = abs(float(rb[col]) - float(ra[col]))
            except ValueError:
                texts += 1
                continue
            if where is None or d > worst:
                worst, where = d, r
        if where is not None:
            lines.append(f"{name}: max |change| {worst:.3e} (row {where})")
        if texts:
            lines.append(f"{name}: {texts} non-numeric cells differ")
    return lines or ["bytes differ, cells equal"]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    write = argv == ["--write"]
    out = OUT_ROOT / ("reference" if write else "current")
    started = time.perf_counter()
    try:
        digests = run_matrix(out)
    except Exception:  # a raising experiment is a failed check, not a mismatch
        traceback.print_exc()
        return 2
    elapsed = time.perf_counter() - started
    env = environment()
    if write:
        DIGESTS.write_text(json.dumps({"environment": env, "files": digests}, indent=1) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)} in {elapsed:.1f} s")
        return 0

    stored = json.loads(DIGESTS.read_text())
    if stored["environment"] != env:
        print(f"warning: digests were written under {stored['environment']}, this is {env}")
    want = stored["files"]
    bad = sorted(k for k in set(want) | set(digests) if want.get(k) != digests.get(k))
    for key in bad:
        if key not in digests:
            print(f"MISSING  {key}")
        elif key not in want:
            print(f"EXTRA    {key}")
        else:
            print(f"CHANGED  {key}")
            ref = OUT_ROOT / "reference" / key
            if ref.is_file() and _sha256(ref) == want[key]:
                for line in column_changes(ref, out / key):
                    print(f"    {line}")
            else:
                print("    (no reference copy; run --write at the reference commit for per-column changes)")
    print(f"{len(digests) - len(bad)}/{len(set(want) | set(digests))} CSVs match "
          f"in {elapsed:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
