#!/usr/bin/env python3
"""Apply each known mutant to a copy of the tree and run the tests that should kill it.

Usage: python3 scripts/mutants.py [name ...]

Each mutant replaces one piece of ``src/memstress`` (the text must occur
exactly once) in a copy of ``src/``, ``tests/`` and ``pyproject.toml`` under
a temporary directory, then runs pytest on the tests named for it.  A mutant
is killed when a test fails.  The inert mutants change nothing a test can
see (a tie side, or a tolerance no input comes near); they are
listed so that a change that makes one visible shows here.  With names, only
those mutants run.  BLAS is pinned to one thread, as in
``scripts/check_outputs.py``.  It runs by hand, not in Tier-1: about 1-15 s
per mutant, plus one run of every named test on the unmutated copy.

Exit status: 0 when every mutant not marked inert is killed and every inert
one survives, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file under src/memstress
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids that should kill it (inert: that it leaves passing)
    inert: bool = False


MUTANTS = (
    # bounds of the transfer scans
    Mutant("scan reach x0.1", "transfer.py",
           "reach = np.maximum(g[:-1], g[1:]) + lip * np.diff(times) * 0.5",
           "reach = np.maximum(g[:-1], g[1:]) + lip * np.diff(times) * 0.05",
           ("tests/test_transfer.py::test_coarse_grid_scan_keeps_its_contract",)),
    Mutant("_window_crossing reach x0.1", "transfer.py",
           "if max(fa, fb) + lip * (b - a) * 0.5 < threshold:",
           "if max(fa, fb) + lip * (b - a) * 0.05 < threshold:",
           ("tests/test_transfer.py::test_coarse_grid_scan_keeps_its_contract",)),
    Mutant("w_min x16", "transfer.py",
           "w_min = max((1.0 - threshold) / (4.0 * lip), 1e-12 * t_max) if lip > 0 else t_max",
           "w_min = 16.0 * max((1.0 - threshold) / (4.0 * lip), 1e-12 * t_max) if lip > 0 else t_max",
           ("tests/test_transfer.py::test_coarse_grid_scan_keeps_its_contract",)),
    Mutant("SCREEN_ERROR_FACTOR = 0", "transfer.py",
           "SCREEN_ERROR_FACTOR = 64.0", "SCREEN_ERROR_FACTOR = 0.0",
           ("tests/test_transfer.py::test_screen_error_is_within_its_bound",)),
    Mutant("_ScanValues.tol x0", "transfer.py",
           "self.tol = 3.0 * eps", "self.tol = 0.0 * eps",
           ("tests/test_transfer.py::test_peak_is_the_first_mirror_time_to_rounding",)),
    # Krylov step control and the persymmetric split
    Mutant("KRYLOV_TOL 1e-10 -> 1e-7", "oracle.py",
           "KRYLOV_TOL = 1e-10", "KRYLOV_TOL = 1e-7",
           ("tests/test_oracle.py::test_krylov_step_control_meets_its_tolerance",)),
    Mutant("interlacing slack x1e6", "spectral.py",
           "slack = 64.0 * np.finfo(float).eps",
           "slack = 1e6 * 64.0 * np.finfo(float).eps",
           ("tests/test_spectral.py::test_persymmetric_split_interlacing_slack",)),
    # the Pauli kernel's sign, coefficient and support arithmetic
    Mutant("drop the parity(x & z) fold", "pauli.py",
           "sign = -1.0 if _parity(t.x_mask & t.z_mask) else 1.0", "sign = 1.0",
           ("tests/test_pauli.py::test_support_path_is_byte_equal_on_sparse_states",
            "tests/test_pauli.py::test_paths_byte_equal_on_toric_states")),
    Mutant("support sign from the source index", "pauli.py",
           "factor = (scale * _sign_vector(t.z_mask, idx))[:, None] if t.z_mask else scale",
           "factor = (scale * _sign_vector(t.z_mask, supp))[:, None] if t.z_mask else scale",
           ("tests/test_pauli.py::test_support_path_is_byte_equal_on_sparse_states",)),
    Mutant("support path skips the complex *= c", "pauli.py",
           "            prod *= c\n        out[idx] += prod",
           "            pass\n        out[idx] += prod",
           ("tests/test_pauli.py::test_support_path_is_byte_equal_on_sparse_states",)),
    Mutant("one-entry support not padded", "pauli.py",
           "    if supp.size == 1:\n        supp = np.append(supp, supp ^ 1)",
           "    if False:\n        supp = np.append(supp, supp ^ 1)",
           ("tests/test_pauli.py::test_single_and_empty_support",)),
    Mutant("support drops cells whose only nonzero part is imaginary", "pauli.py",
           "return np.flatnonzero(parts.view(np.uint16) != 0)", "return np.flatnonzero(v.real != 0)",
           ("tests/test_pauli.py::test_support_path_is_byte_equal_on_sparse_states",)),
    Mutant("sign vector folds 32 bits only", "pauli.py",
           "for shift in (32, 16, 8, 4, 2, 1):", "for shift in (16, 8, 4, 2, 1):",
           ("tests/test_pauli.py::test_sign_vector_takes_the_full_index",)),
    Mutant("sign vector fold starts one shift short", "pauli.py",
           "if shift < mask.bit_length():", "if shift < mask.bit_length() - 1:",
           ("tests/test_pauli.py::test_sign_vector_takes_the_full_index",)),
    Mutant("non-finite coefficients accepted", "pauli.py",
           "if not (math.isfinite(c.real) and math.isfinite(c.imag)):", "if False:",
           ("tests/test_pauli.py::test_non_finite_coefficient_is_rejected",)),
    # non-finite times and spectra
    Mutant("Krylov accepts non-finite times", "oracle.py",
           "if not all(0.0 <= t < np.inf for t in times):", "if any(t < 0 for t in times):",
           ("tests/test_oracle.py::test_krylov_rejects_non_finite_times",
            "tests/test_oracle.py::test_two_excitation_rejects_non_finite_times")),
    Mutant("retuning accepts a NaN time", "iep.py",
           "    if math.isnan(t):\n        raise", "    if False:\n        raise",
           ("tests/test_iep.py::test_retune_rejects_non_finite_times",)),
    Mutant("2**53 guard lets a NaN grid index through", "iep.py",
           "if not reach < 2.0**53:", "if reach >= 2.0**53:",
           ("tests/test_iep.py::test_retune_rejects_non_finite_times",)),
    Mutant("reconstruction accepts non-finite entries", "iep.py",
           "bad = np.flatnonzero(~np.isfinite(entries))\n        if bad.size:",
           "bad = np.flatnonzero(~np.isfinite(entries))\n        if False:",
           ("tests/test_iep.py::test_reconstruct_rejects_non_finite_entries",)),
    # inert by design
    Mutant("retune tie side", "iep.py",
           "m[i] += 1 if frac >= 0.0 else -1", "m[i] += 1 if frac > 0.0 else -1",
           ("tests/test_iep.py",), inert=True),
    Mutant("_excitation_number match tolerance 1e-10 -> 1e-3", "oracle.py",
           "if abs(abs(complex(np.vdot(cand, state))) - 1.0) <= 1e-10:",
           "if abs(abs(complex(np.vdot(cand, state))) - 1.0) <= 1e-3:",
           ("tests/test_oracle.py",), inert=True),
    Mutant("DOUBLE_FLOOR 1e-12 -> 1e-10", "splitting.py",
           "DOUBLE_FLOOR = 1e-12", "DOUBLE_FLOOR = 1e-10",
           ("tests/test_splitting.py",), inert=True),
)


def run_tests(tests, env: dict[str, str], mutant: Mutant | None = None) -> tuple[str, float]:
    """Run ``tests`` on a copy of the tree, mutated when ``mutant`` is given.

    Returns ``failed``, ``passed`` or ``error: ...`` and the seconds pytest took.
    """
    with tempfile.TemporaryDirectory(prefix="memstress-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if mutant is not None:
            target = copy / "src" / "memstress" / mutant.module
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return f"error: the text occurs {text.count(mutant.old)} times in {mutant.module}", 0.0
            target.write_text(text.replace(mutant.old, mutant.new))
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - started
    if done.returncode == 0:
        return "passed", elapsed
    if done.returncode == 1:
        first = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")][:1]
        return " ".join(["failed", *first]), elapsed
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {done.returncode} {' '.join(tail)}", elapsed


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    env = dict(os.environ, PYTHONPATH="src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
    outcome, seconds = run_tests(tests, env)
    print(f"shipped tree: {outcome} in {seconds:.1f} s")
    if outcome != "passed":
        return 1
    wrong = 0
    for m in chosen:
        outcome, seconds = run_tests(m.tests, env, m)
        ok = outcome.startswith("passed" if m.inert else "failed")
        wrong += not ok
        verdict = outcome.replace("passed", "survived", 1).replace("failed", "killed", 1)
        print(f"{'ok ' if ok else 'BAD'} {'inert' if m.inert else 'kill':5s} {seconds:5.1f} s  "
              f"{m.name}: {verdict}", flush=True)
    print(f"{len(chosen) - wrong}/{len(chosen)} mutants as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
