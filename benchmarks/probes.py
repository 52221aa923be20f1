"""Kernel probes at the fixed sizes ROADMAP item 1 names (min of repeats).

Each probe times one public kernel on a fixed input, with tracing off, so a
change to that kernel shows even when the workload around it hides it.  The
inputs do not depend on the workload seed.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from memstress.effective import banded_effective, toric_effective
from memstress.iep import retune_chain
from memstress.lattices import ToricLattice, toric_hamiltonian, toric_perturbation
from memstress.spectral import eigh_tridiag, min_gap
from memstress.splitting import dense_eigenvalue_mp
from memstress.transfer import christandl_couplings, locate_fidelity_peak, measure_transfer_time

DELTA = 0.1
CHAIN_SIZES = (64, 256, 1024)


def _best(call, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        started = perf_counter()
        call()
        best = min(best, perf_counter() - started)
    return best


def chain_probes(repeats: int = 3) -> dict[str, float]:
    """eigh_tridiag, the two transfer scans and retune_chain at N = 64/256/1024."""
    out = {}
    for N in CHAIN_SIZES:
        uniform = toric_effective(N, 1.0, DELTA, np.full(N - 2, 0.5), np.zeros(N - 1))
        christandl = eigh_tridiag(
            toric_effective(N, 1.0, DELTA, christandl_couplings(N), np.zeros(N - 1))
        )
        t_max = 1.5 * math.pi * (N - 1) / (4.0 * DELTA)
        t_retune = 50.0 * math.pi / min_gap(eigh_tridiag(uniform))
        out[f"probe.eigh_tridiag.N{N}_s"] = _best(lambda: eigh_tridiag(uniform), repeats)
        out[f"probe.measure_transfer_time.N{N}_s"] = _best(
            lambda: measure_transfer_time(christandl, 0.999, t_max), repeats)
        out[f"probe.locate_fidelity_peak.N{N}_s"] = _best(
            lambda: locate_fidelity_peak(christandl, t_max), repeats)
        out[f"probe.retune_chain.N{N}_s"] = _best(lambda: retune_chain(uniform, t_retune), repeats)
    return out


def oracle_probes(repeats: int = 5) -> dict[str, float]:
    """One PauliSum.apply matvec of the 20-term toric Hamiltonian on 18 qubits."""
    lat = ToricLattice(3)
    h = toric_hamiltonian(lat) + toric_perturbation(lat, np.ones(1), np.zeros(2), DELTA)
    v = np.random.default_rng(0).standard_normal(1 << lat.n_qubits).astype(complex)
    return {"probe.PauliSum.apply.q18_s": _best(lambda: h.apply(v), repeats)}


def splitting_probes(repeats: int = 3) -> dict[str, float]:
    """Lowest eigenvalue of a mirror-symmetric 2-banded N = 4 chain at 60 digits."""
    N, k, d = 4, 2, 0.01
    M = N * (N - 1) - 2
    # the mirror-symmetric band profile banded-splitting draws, built from
    # public API only so the probe survives changes to experiment internals
    unit = np.random.default_rng(0).uniform(-1.0, 1.0, size=(k, M - 1))
    for b in range(1, k + 1):
        row = unit[b - 1, : M - b]
        unit[b - 1, : M - b] = 0.5 * (row + row[::-1])
    a = banded_effective(N, d, k, d * unit)
    return {"probe.dense_eigenvalue_mp.banded_N4_s": _best(lambda: dense_eigenvalue_mp(a, 0), repeats)}


PROBES = {"chain": chain_probes, "oracle": oracle_probes, "splitting": splitting_probes}
PROBE_NAMES = (
    tuple(f"probe.{kernel}.N{N}_s" for N in CHAIN_SIZES
          for kernel in ("eigh_tridiag", "measure_transfer_time", "locate_fidelity_peak", "retune_chain"))
    + ("probe.PauliSum.apply.q18_s", "probe.dense_eigenvalue_mp.banded_N4_s")
)
