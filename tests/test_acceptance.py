"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line with its measured value (run pytest -s to see them inline).

Criteria 3, 4, 5, 7 and 8 run the shipped experiments (toric-retune,
toric-scaling, oracle-verify, ising-splitting, ising-plateau) through
``experiments.run`` with an explicit config, and apply their own bounds to
the check values in the run's summary JSON.  Criterion 10 runs
ising-splitting twice; criteria 1, 2, 6 and 9 call the library directly.
"""

import json
import time

import numpy as np

from memstress.effective import SymTridiag
from memstress.experiments import ExperimentConfig, run
from memstress.iep import reconstruct_jacobi
from memstress.lattices import ToricLattice, toric_perturbation
from memstress.oracle import verify_duality_map
from memstress.spectral import eigh_tridiag
from memstress.transfer import christandl_couplings, locate_fidelity_peak


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _run_experiment(out_dir, **config):
    """Run a shipped experiment into out_dir; its exit code and {check name: value}."""
    code = run(ExperimentConfig(output_dir=str(out_dir), **config))
    slug = config["experiment"].replace("-", "_")
    summary = json.loads((out_dir / f"{slug}_summary.json").read_text())
    return code, {c["name"]: c["value"] for c in summary["checks"]}


def test_criterion_1_perfect_transfer():
    started = time.perf_counter()
    worst = 1.0
    for M in range(2, 51):
        N = M + 1
        chain = SymTridiag(np.zeros(M), christandl_couplings(N))
        s = eigh_tridiag(chain)
        t_expect = np.pi * M / 4.0
        _, f_star = locate_fidelity_peak(s, 1.3 * t_expect)
        worst = min(worst, f_star)
    elapsed = time.perf_counter() - started
    ok = worst >= 1.0 - 1e-9 and elapsed < 1.0
    _report(1, "perfect-transfer", ok, f"worst F = {worst:.3e}, 1-F = {1 - worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_fmax_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        M = int(rng.integers(2, 65))
        diag = rng.uniform(-1.0, 1.0, M)
        diag = 0.5 * (diag + diag[::-1])
        off = rng.uniform(0.1, 1.0, M - 1)
        off = 0.5 * (off + off[::-1])
        s = eigh_tridiag(SymTridiag(diag, off))
        worst = max(worst, abs(float(np.sum(np.abs(s.amplitudes))) - 1.0))
    ok = worst <= 1e-10
    _report(2, "fmax-identity", ok, f"worst |sum|a| - 1| = {worst:.2e} over 1000 chains")


def test_criterion_3_retuning(tmp_path):
    started = time.perf_counter()
    code, checks = _run_experiment(
        tmp_path, experiment="toric-retune", N_range=[8, 16, 32, 64], delta=0.1, t_factor=50.0
    )
    worst_f = checks["worst_fidelity"]
    slope = checks["shift_vs_t_exponent"]
    elapsed = time.perf_counter() - started
    ok = code == 0 and worst_f >= 1.0 - 1e-6 and abs(slope + 1.0) <= 0.2 and elapsed < 30.0
    _report(3, "retuning", ok,
            f"exit {code}, worst F = {worst_f:.9f}, mean shift slope = {slope:.3f}, {elapsed:.1f}s")


def test_criterion_4_toric_scaling(tmp_path):
    started = time.perf_counter()
    code, checks = _run_experiment(
        tmp_path, experiment="toric-scaling", N_range=[16, 32, 64, 128, 256], delta=0.1,
        threshold=0.999,
    )
    gap_slope = checks["min_gap_exponent"]
    time_slope = checks["transfer_time_exponent"]
    elapsed = time.perf_counter() - started
    ok = (code == 0 and abs(gap_slope + 2.0) <= 0.1 and abs(time_slope - 1.0) <= 0.05
          and elapsed < 60.0)
    _report(4, "toric-scaling", ok,
            f"exit {code}, min_gap slope = {gap_slope:.3f}, time slope = {time_slope:.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_5_exact_oracle_n3(tmp_path):
    started = time.perf_counter()
    # seed 1 draws J and B from default_rng(seed + 2) = default_rng(3)
    code, checks = _run_experiment(
        tmp_path, experiment="oracle-verify", N_range=[3], delta=0.1, t_factor=50.0, seed=1
    )
    elem_dev = checks["matrix_element_deviation"]
    leakage = checks["subspace_leakage"]
    overlap = checks["logical_flip_overlap"]
    elapsed = time.perf_counter() - started
    ok = (code == 0 and elem_dev <= 1e-12 and leakage <= 1e-10 and overlap >= 0.99
          and elapsed < 600.0)
    _report(5, "exact-oracle", ok,
            f"exit {code}, elem dev = {elem_dev:.2e}, leakage = {leakage:.2e}, "
            f"overlap = {overlap:.6f}, {elapsed:.1f}s")


def test_criterion_6_duality_map():
    lat = ToricLattice(3)
    J = np.ones(1)
    dh = toric_perturbation(lat, J, np.zeros(2), 0.1)
    report = verify_duality_map(lat, dh, J, 0.1)
    ok = report.matched and report.max_coeff_dev == 0.0
    _report(6, "duality-map", ok,
            f"matched = {report.matched}, coeff dev = {report.max_coeff_dev:.1e}, "
            f"excitations {report.string_flip_counts}/{report.pair_flip_counts}")


def test_criterion_7_ising_splitting_orders(tmp_path):
    started = time.perf_counter()
    code, checks = _run_experiment(
        tmp_path, experiment="ising-splitting", N_range=[3, 4], delta=0.1
    )
    order3 = checks["splitting_order_N3"]
    order4 = checks["splitting_order_N4"]
    flat = checks["contrast_flat_order"]
    elapsed = time.perf_counter() - started
    ok = (
        code == 0
        and abs(order3 - 3.0) <= 0.1
        and abs(order4 - 9.0) <= 0.3
        and abs(flat - 1.0) <= 0.05
        and elapsed < 120.0
    )
    _report(7, "ising-splitting", ok,
            f"exit {code}, N=3 slope = {order3:.3f}, N=4 slope = {order4:.3f}, "
            f"flat slope = {flat:.3f}, {elapsed:.1f}s")


def test_criterion_8_plateau_formula(tmp_path):
    code, checks = _run_experiment(tmp_path, experiment="ising-plateau", N_range=[4, 5], delta=0.1)
    worst_slope = min(checks["residual_exponent_N4"], checks["residual_exponent_N5"])
    ok = code == 0 and worst_slope >= 1.8
    _report(8, "plateau-formula", ok, f"exit {code}, worst residual slope = {worst_slope:.3f}")


def test_criterion_9_iep_round_trip():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        M = int(rng.integers(2, 101))
        m = SymTridiag(2.0 + rng.uniform(-0.05, 0.05, M), rng.uniform(0.7, 1.0, M - 1))
        s = eigh_tridiag(m)
        w = s.first_components**2
        rebuilt = reconstruct_jacobi(s.eigenvalues, w / w.sum())
        worst = max(
            worst,
            float(np.max(np.abs(rebuilt.diag - m.diag))),
            float(np.max(np.abs(rebuilt.offdiag - m.offdiag))),
        )
    ok = worst <= 1e-9
    _report(9, "iep-round-trip", ok, f"worst entrywise error = {worst:.2e} over 1000 chains")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run(ExperimentConfig(
            experiment="ising-splitting", N_range=[3], output_dir=str(out), seed=9
        ))
        assert code == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].glob("*.csv"))
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in files
    )
    ok = same and bool(files)
    _report(10, "determinism", ok, f"byte-identical CSVs: {files}")
