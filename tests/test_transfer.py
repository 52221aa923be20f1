import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from memstress.effective import SymTridiag
from memstress.spectral import eigh_tridiag
from memstress.transfer import (
    TRACE_BLOCK_ELEMENTS,
    _time_grid,
    christandl_couplings,
    f_max,
    fidelity,
    fidelity_trace,
    locate_fidelity_peak,
    measure_transfer_time,
)


def christandl_chain(N, delta=1.0):
    return SymTridiag(np.zeros(N - 1), delta * christandl_couplings(N))


def test_christandl_values_n4():
    j = christandl_couplings(4)
    assert np.allclose(j, [2.0 * math.sqrt(2) / 3.0] * 2)


def test_christandl_smallest_chain_n3():
    # two-site chain: the single coupling evaluates to (2/2) sqrt(1 * 1)
    assert np.allclose(christandl_couplings(3), [1.0])
    with pytest.raises(ValueError):
        christandl_couplings(2)


@pytest.mark.parametrize("N", range(4, 51, 9))
def test_christandl_palindrome(N):
    j = christandl_couplings(N)
    assert np.allclose(j, j[::-1])


def test_fidelity_at_zero_and_single_site():
    s = eigh_tridiag(christandl_chain(6))
    assert fidelity(s, 0.0) < 1e-12
    s1 = eigh_tridiag(SymTridiag(np.array([1.3]), np.zeros(0)))
    for t in (0.0, 1.0, 7.7):
        assert fidelity(s1, t) == pytest.approx(1.0)


def test_fidelity_rejects_negative_time():
    s = eigh_tridiag(christandl_chain(5))
    with pytest.raises(ValueError):
        fidelity(s, -1.0)


@pytest.mark.parametrize("N", [4, 6, 11])
def test_christandl_perfect_at_located_peak(N):
    s = eigh_tridiag(christandl_chain(N, delta=0.1))
    t_expect = np.pi * (N - 1) / 4.0 / 0.1
    t_star, f_star = locate_fidelity_peak(s, 1.3 * t_expect)
    assert f_star >= 1.0 - 1e-9
    assert t_star == pytest.approx(t_expect, rel=1e-6)


def test_f_max_cases():
    s = eigh_tridiag(christandl_chain(8))
    assert f_max(s) == pytest.approx(1.0, abs=1e-10)
    diag_only = eigh_tridiag(SymTridiag(np.array([0.0, 1.0, 2.0]), np.zeros(2)))
    assert f_max(diag_only) == 0.0


@given(st.integers(0, 300), st.integers(2, 24))
@settings(max_examples=40, deadline=None)
def test_fidelity_bounded_by_f_max(seed, M):
    rng = np.random.default_rng(seed)
    m = SymTridiag(rng.uniform(-1, 1, M), rng.uniform(0.1, 1.0, M - 1))
    s = eigh_tridiag(m)
    ts = np.linspace(0.0, 30.0, 400)
    assert np.all(fidelity_trace(s, ts) <= f_max(s) + 1e-10)


@pytest.mark.parametrize("M", [3, 9, 33, 64])
def test_fidelity_matches_matrix_exponential(M):
    rng = np.random.default_rng(M)
    m = SymTridiag(rng.uniform(-1, 1, M), rng.uniform(0.1, 1.0, M - 1))
    s = eigh_tridiag(m)
    for t in (0.4, 3.1, 17.0):
        u = sla.expm(-1j * t * m.dense())
        assert fidelity(s, t) == pytest.approx(abs(u[-1, 0]), abs=1e-10)


def test_measure_transfer_time_basics():
    s = eigh_tridiag(christandl_chain(8, delta=0.1))
    res = measure_transfer_time(s, threshold=0.0, t_max=10.0)
    assert res.reached and res.transfer_time == 0.0
    res = measure_transfer_time(s, 0.999, 1.3 * np.pi * 7 / 0.4)
    assert res.reached
    t_expect = np.pi * 7 / 0.4
    assert res.transfer_time <= t_expect
    assert res.transfer_time == pytest.approx(t_expect, rel=0.05)
    assert np.all(res.fidelities >= 0) and np.all(res.fidelities <= 1 + 1e-12)
    assert res.f_max >= res.fidelities.max() - 1e-10
    assert fidelity(s, res.transfer_time) >= 0.999 - 1e-9


def test_measure_transfer_time_not_reached():
    diag_only = eigh_tridiag(SymTridiag(np.array([0.0, 1.0]), np.zeros(1)))
    res = measure_transfer_time(diag_only, threshold=0.5, t_max=5.0)
    assert not res.reached
    assert math.isnan(res.transfer_time)


def test_measure_transfer_time_validation():
    s = eigh_tridiag(christandl_chain(5))
    with pytest.raises(ValueError):
        measure_transfer_time(s, threshold=1.5, t_max=1.0)
    with pytest.raises(ValueError):
        measure_transfer_time(s, threshold=0.5, t_max=0.0)


def test_mirror_period_returns_to_start():
    N = 9
    s = eigh_tridiag(christandl_chain(N, delta=0.1))
    t_star, _ = locate_fidelity_peak(s, 1.3 * np.pi * (N - 1) / 0.4)
    assert abs(fidelity(s, 2 * t_star) - fidelity(s, 0.0)) < 1e-8


def one_piece_trace(s, times):
    return np.abs(np.exp(-1j * np.outer(times, s.eigenvalues)) @ s.amplitudes)


def peak_scan(N):
    # locate_fidelity_peak's grid for the toric-transfer chain at delta = 1
    s = eigh_tridiag(christandl_chain(N))
    return s, _time_grid(s, 1.5 * np.pi * (N - 1) / 4.0, oversample=8.0)


def test_blocked_trace_is_bit_identical():
    s, times = peak_scan(512)
    rows = TRACE_BLOCK_ELEMENTS // s.dim
    assert times.size > 2 * rows and times.size % rows  # several blocks, ragged last one
    assert np.array_equal(fidelity_trace(s, times), one_piece_trace(s, times))
    few = times[: rows // 2]  # one block
    assert np.array_equal(fidelity_trace(s, few), one_piece_trace(s, few))
    s1 = eigh_tridiag(SymTridiag(np.array([1.3]), np.zeros(0)))
    ts = np.linspace(0.0, 50.0, TRACE_BLOCK_ELEMENTS + 7)
    assert np.array_equal(fidelity_trace(s1, ts), one_piece_trace(s1, ts))
    empty = fidelity_trace(s, np.array([]))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_blocked_trace_memory_is_bounded():
    s, times = peak_scan(512)
    assert times.size == 6121
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fidelity_trace(s, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
