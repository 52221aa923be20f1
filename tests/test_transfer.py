import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from memstress import transfer
from memstress.effective import SymTridiag, toric_effective
from memstress.spectral import eigh_tridiag
from memstress.transfer import (
    TRACE_BLOCK_ELEMENTS,
    _golden_sections,
    _ScanValues,
    _screen,
    christandl_couplings,
    f_max,
    fidelity,
    fidelity_trace,
    locate_fidelity_peak,
    measure_transfer_time,
    time_grid,
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
    t_max = 1.3 * np.pi * 7 / 0.4
    res = measure_transfer_time(s, 0.999, t_max)
    assert res.reached
    t_expect = np.pi * 7 / 0.4
    assert res.transfer_time <= t_expect
    assert res.transfer_time == pytest.approx(t_expect, rel=0.05)
    fids = fidelity_trace(s, time_grid(s, t_max))
    assert np.all(fids >= 0) and np.all(fids <= 1 + 1e-12)
    assert res.f_max >= fids.max() - 1e-10
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


def assert_scan_contract(s, threshold, t_max):
    # the docstring's contract: the crossing found lies at most w_min after
    # the first time F reaches threshold + lip w_min / 2, and F reaches the
    # threshold there
    res = measure_transfer_time(s, threshold, t_max)
    lip = _reference_lipschitz(s)
    w_min = max((1.0 - threshold) / (4.0 * lip), 1e-12 * t_max)
    end = res.transfer_time if res.reached else t_max
    fine = np.linspace(0.0, end, 20001)
    early = fine[fidelity_trace(s, fine) >= threshold + lip * w_min / 2]
    assert early.size == 0 or early[0] >= end - w_min, (threshold, early[0], end)
    if res.reached:
        assert fidelity(s, res.transfer_time) >= threshold


def test_coarse_grid_scan_keeps_its_contract(monkeypatch):
    # at the default oversample F is resolved between grid points, so the
    # Lipschitz reach and w_min hardly decide which windows are searched; at
    # 0.25 they do
    coarse = transfer.time_grid
    monkeypatch.setattr(transfer, "time_grid",
                        lambda s, t_max, oversample=0.25: coarse(s, t_max, oversample))
    rng = np.random.default_rng(2)
    for _ in range(80):
        N = int(rng.integers(5, 40))
        couplings = christandl_couplings(N) * (1.0 + 0.03 * rng.standard_normal(N - 2))
        s = eigh_tridiag(SymTridiag(np.zeros(N - 1), couplings))
        assert_scan_contract(s, float(rng.uniform(0.3, 0.95)), 1.5 * np.pi * (N - 1) / 4)
    # the detuned pair F(t) = |sin(omega t)| / omega, omega = hypot(1, eps),
    # first peaks at F_peak = 1 / omega; threshold 2 F_peak - 1 puts that
    # peak (1 - threshold) / 2 above it, four times the allowance lip w_min / 2
    # (lip = 1), so a scan that stops splitting at a wider window misses it
    for eps in np.linspace(0.9, 1.4, 11):
        s = eigh_tridiag(SymTridiag(np.array([eps, -eps]), np.array([1.0])))
        omega = math.hypot(1.0, eps)
        for periods in (2.3, 3.7, 5.1, 7.3):
            assert_scan_contract(s, 2.0 / omega - 1.0, periods * np.pi / omega)


def test_mirror_period_returns_to_start():
    N = 9
    s = eigh_tridiag(christandl_chain(N, delta=0.1))
    t_star, _ = locate_fidelity_peak(s, 1.3 * np.pi * (N - 1) / 0.4)
    assert abs(fidelity(s, 2 * t_star) - fidelity(s, 0.0)) < 1e-8


def peak_scan(N):
    # locate_fidelity_peak's grid for the toric-transfer chain at delta = 1
    s = eigh_tridiag(christandl_chain(N))
    return s, time_grid(s, 1.5 * np.pi * (N - 1) / 4.0, oversample=8.0)


def transfer_scan(N):
    # measure_transfer_time's grid at delta = 0.1; at N = 887 it is 18 blocks
    # of 295 rows plus one row
    s = toric_christandl(N)
    return s, time_grid(s, 1.5 * np.pi * (N - 1) / 0.4)


def assert_batch_independent(s, times):
    # the bytes of the whole call equal those of any split, one-row pieces
    # included, and of fidelity at each point
    rows = TRACE_BLOCK_ELEMENTS // s.dim
    full = fidelity_trace(s, times).tobytes()
    n = times.size
    for cuts in ([rows], [rows - 1, rows + 1], [n - 1], [1, n - rows - 1], [n - n % rows],
                 list(range(0, n, 97)), list(range(0, n, rows + 1))):
        pieces = [fidelity_trace(s, piece) for piece in np.split(times, cuts)]
        assert np.concatenate(pieces).tobytes() == full
    assert np.array([fidelity(s, float(t)) for t in times]).tobytes() == full


def test_blocked_trace_is_bit_identical():
    s, times = peak_scan(512)
    rows = TRACE_BLOCK_ELEMENTS // s.dim
    assert times.size > 2 * rows and times.size % rows  # several blocks, ragged last one
    assert_batch_independent(s, times)
    s1 = eigh_tridiag(SymTridiag(np.array([1.3]), np.zeros(0)))
    ts = np.linspace(0.0, 50.0, TRACE_BLOCK_ELEMENTS + 7)  # two blocks of one phase per row
    one_term = np.abs(s1.amplitudes * np.exp(-1j * s1.eigenvalues * ts[:, None]))[:, 0]
    assert np.array_equal(fidelity_trace(s1, ts), one_term)
    empty = fidelity_trace(s1, np.array([]))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_one_row_tail_is_folded():
    # the one-row last block of the N = 887 grid goes through the same row
    # kernel as every other block
    s, times = transfer_scan(887)
    rows = TRACE_BLOCK_ELEMENTS // s.dim
    assert times.size > 2 * rows and times.size % rows == 1
    assert_batch_independent(s, times)
    tail = times[-1:]
    assert fidelity_trace(s, times)[-1:].tobytes() == reference_trace(s, tail).tobytes()


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


def test_scan_values_evaluate_each_grid_point_once(monkeypatch):
    calls, scans = [], []
    trace, init = transfer.fidelity_trace, _ScanValues.__init__

    def counted_trace(s, times):
        calls.append(np.array(times, dtype=float))
        return trace(s, times)

    def recorded_init(self, s, times):
        scans.append(self)
        init(self, s, times)

    monkeypatch.setattr(transfer, "fidelity_trace", counted_trace)
    monkeypatch.setattr(_ScanValues, "__init__", recorded_init)
    s, times = peak_scan(1024)
    scan = _ScanValues(s, times)
    rng = np.random.default_rng(5)
    for _ in range(4):
        idx = rng.integers(0, times.size, 300)
        assert scan.exact(idx).tobytes() == reference_trace(s, times[idx]).tobytes()
    evaluated = np.concatenate(calls)
    assert np.unique(evaluated).size == evaluated.size == scan.known.sum()

    s = toric_christandl(1024)
    t_max = 1.5 * np.pi * 1023 / 0.4
    for run in (lambda: locate_fidelity_peak(s, t_max), lambda: measure_transfer_time(s, 0.999, t_max)):
        calls.clear()
        scans.clear()
        run()
        (scan,) = scans
        on_grid = [c for c in calls if c.size and np.isin(c, scan.times).all()]
        evaluated = np.concatenate(on_grid)
        assert np.unique(evaluated).size == evaluated.size == scan.known.sum()
        assert scan.known.sum() < scan.known.size / 10


# The scans as they were before the screen, kept as the reference: every
# grid value is exact (one row sum per point, which fidelity_trace equals
# bit for bit), and each window runs its own golden section.  The screened
# scans must return the same floats.


def _reference_fidelity(s, t):
    return float(np.abs(np.sum(s.amplitudes * np.exp(-1j * s.eigenvalues * t))))


def reference_trace(s, times):
    return np.array([_reference_fidelity(s, float(t)) for t in times])


def _reference_lipschitz(s):
    lam = s.eigenvalues
    mid = 0.5 * (lam[0] + lam[-1])
    return float(np.sum(np.abs(s.amplitudes) * np.abs(lam - mid)))


def _reference_measure_transfer_time(s, threshold, t_max):
    times = time_grid(s, t_max)
    fids = reference_trace(s, times)
    lip = _reference_lipschitz(s)
    crossing = None
    if fids[0] >= threshold:
        crossing = 0.0
    else:
        w_min = max((1.0 - threshold) / (4.0 * lip), 1e-12 * t_max) if lip > 0 else t_max
        work = [
            (float(times[k]), float(times[k + 1]), float(fids[k]), float(fids[k + 1]))
            for k in range(times.size - 1)
        ]
        work.reverse()
        while work:
            a, b, fa, fb = work.pop()
            if max(fa, fb) + lip * (b - a) * 0.5 < threshold:
                continue
            if fa >= threshold:
                crossing = a
                break
            if b - a <= w_min:
                if fb >= threshold:
                    lo, hi = a, b
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        if _reference_fidelity(s, mid) >= threshold:
                            hi = mid
                        else:
                            lo = mid
                    crossing = hi
                    break
                continue
            mid = 0.5 * (a + b)
            fm = _reference_fidelity(s, mid)
            work.append((mid, b, fm, fb))
            work.append((a, mid, fa, fm))
    if crossing is None:
        return math.nan, False
    return float(crossing), True


def _reference_locate_fidelity_peak(s, t_max):
    # windows in time order, each refined when its bound beats the grid
    # maximum; a strict > keeps the earliest of equal maxima, and the grid
    # best on a tie with a window
    times = time_grid(s, t_max, oversample=8.0)
    fids = reference_trace(s, times)
    lip = _reference_lipschitz(s)
    best_t = float(times[np.argmax(fids)])
    best_f = grid_f = float(np.max(fids))
    for k in range(times.size - 1):
        a, b = float(times[k]), float(times[k + 1])
        if 0.5 * (fids[k] + fids[k + 1]) + lip * (b - a) * 0.5 <= grid_f:
            continue
        t, f = _reference_golden_section(s, a, b)
        if f > best_f:
            best_t, best_f = t, f
    return best_t, best_f


def _reference_golden_section(s, a, b):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _reference_fidelity(s, c), _reference_fidelity(s, d)
    for _ in range(200):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _reference_fidelity(s, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _reference_fidelity(s, d)
        if b - a < 1e-14 * max(1.0, abs(b)):
            break
    t = 0.5 * (a + b)
    return t, _reference_fidelity(s, t)


def assert_transfer_matches_reference(s, threshold, t_max):
    res = measure_transfer_time(s, threshold, t_max)
    t_ref, reached_ref = _reference_measure_transfer_time(s, threshold, t_max)
    assert res.reached == reached_ref
    assert res.transfer_time == t_ref or (math.isnan(t_ref) and math.isnan(res.transfer_time))
    assert res.f_max == f_max(s)


def assert_scans_match_reference(s, t_max, thresholds):
    assert locate_fidelity_peak(s, t_max) == _reference_locate_fidelity_peak(s, t_max)
    for threshold in thresholds:
        assert_transfer_matches_reference(s, threshold, t_max)


def toric_christandl(N, delta=0.1):
    return eigh_tridiag(toric_effective(N, 1.0, delta, christandl_couplings(N), np.zeros(N - 1)))


@pytest.mark.parametrize("N", [64, 256, 887, 1024])
def test_scans_match_reference_on_toric_chains(N):
    s = toric_christandl(N)
    assert_scans_match_reference(s, 1.5 * np.pi * (N - 1) / 0.4, [0.999, 0.5])


def test_scans_match_reference_on_criterion_1_chains():
    for M in range(2, 51):
        s = eigh_tridiag(SymTridiag(np.zeros(M), christandl_couplings(M + 1)))
        assert_scans_match_reference(s, 1.3 * np.pi * M / 4.0, [0.0, 0.5, 0.9, 0.999])


@pytest.mark.parametrize("M", [6, 16, 21])
def test_peak_key_ties_match_reference(M):
    # two candidate windows near the peak have equal exact F(a) + F(b)
    s = eigh_tridiag(SymTridiag(np.zeros(M), christandl_couplings(M + 1)))
    t_max = 1.3 * np.pi * M / 4.0
    times = time_grid(s, t_max, oversample=8.0)
    fids = reference_trace(s, times)
    bound = 0.5 * (fids[:-1] + fids[1:]) + _reference_lipschitz(s) * np.diff(times) * 0.5
    windows = np.flatnonzero(bound >= fids.max())
    window_keys = fids[windows] + fids[windows + 1]
    assert np.unique(window_keys).size < windows.size
    assert locate_fidelity_peak(s, t_max) == _reference_locate_fidelity_peak(s, t_max)


@pytest.mark.parametrize("M", [3, 9, 23])
def test_peak_is_the_first_mirror_time(M):
    # the scan reaches the revivals at 3 t* and 5 t*, whose peak values tie
    # the first mirror time's; the earliest maximum is t* itself
    s = eigh_tridiag(SymTridiag(np.zeros(M), christandl_couplings(M + 1)))
    t_star = np.pi * M / 4.0
    t, f = locate_fidelity_peak(s, 5.5 * t_star)
    assert t == pytest.approx(t_star, rel=1e-6)
    assert f >= 1.0 - 1e-9
    assert (t, f) == _reference_locate_fidelity_peak(s, 5.5 * t_star)


@pytest.mark.parametrize("seed", range(6))
def test_scans_match_reference_on_random_chains(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(2, 60)) if seed < 4 else 300
    diag, off = rng.uniform(-0.3, 0.3, M), rng.uniform(0.4, 1.0, M - 1)
    if seed % 2:
        diag, off = 0.5 * (diag + diag[::-1]), 0.5 * (off + off[::-1])
    s = eigh_tridiag(SymTridiag(diag, off))
    t_max = float(rng.uniform(5.0, 80.0)) if seed < 4 else 150.0
    assert seed < 4 or _ScanValues(s, time_grid(s, t_max, oversample=8.0)).tol > 0.0
    assert_scans_match_reference(s, t_max, [float(rng.uniform(0.0, 1.0)), 0.5])


def test_transfer_windows_at_the_screen_margin():
    # thresholds at and around one window's exact reach max(F) + L h / 2, so
    # the screen cannot decide that window and the exact values must
    N = 256
    s = toric_christandl(N)
    t_max = 1.5 * np.pi * (N - 1) / 0.4
    times = time_grid(s, t_max)
    scan = _ScanValues(s, times)
    assert scan.tol > 0.0
    fids = reference_trace(s, times)
    reach = np.maximum(fids[:-1], fids[1:]) + _reference_lipschitz(s) * np.diff(times) * 0.5
    k = int(np.flatnonzero(reach > 0.9)[0])
    r = float(reach[k])
    assert abs(float(np.max(scan.screen[k:k + 2])) - float(np.max(fids[k:k + 2]))) <= scan.tol / 3
    for threshold in (r, np.nextafter(r, 0.0), np.nextafter(r, 1.0),
                      r - scan.tol / 3, r + scan.tol / 3, r - scan.tol, r + scan.tol):
        assert_transfer_matches_reference(s, float(threshold), t_max)


def test_peak_between_two_grid_points_at_the_screen_margin():
    # the grid puts t* = t_max / 2 midway between two points whose F agree
    # far below the screen's tolerance: only exact values can pick the max
    N = 256
    s = toric_christandl(N)
    t_max = 2.0 * np.pi * (N - 1) / 0.4
    times = time_grid(s, t_max, oversample=8.0)
    scan = _ScanValues(s, times)
    top = np.flatnonzero(scan.screen >= scan.screen.max() - scan.tol)
    assert list(top) == [times.size // 2 - 1, times.size // 2]
    fids = reference_trace(s, times)
    assert abs(fids[top[0]] - fids[top[1]]) < scan.tol / 100
    assert locate_fidelity_peak(s, t_max) == _reference_locate_fidelity_peak(s, t_max)


@pytest.mark.parametrize("N", [64, 256, 512, 1024])
def test_screen_error_is_within_its_bound(N):
    for delta in (0.1, 1.0):
        s = toric_christandl(N, delta)
        for oversample in (4.0, 8.0):
            times = time_grid(s, 1.5 * np.pi * (N - 1) / (4.0 * delta), oversample)
            g, eps = _screen(s, times)
            err = float(np.max(np.abs(g - fidelity_trace(s, times))))
            assert err <= eps < 1e-8
    # on a grid of dyadic steps the screen's split is exact, so its drift
    # term is 0 and eps is the rounding allowance alone
    s = toric_christandl(N)
    for t0 in (0.0, 1e5, 1e6):
        times = t0 + 0.25 * np.arange(4096)
        g, eps = _screen(s, times)
        assert float(np.max(np.abs(g - fidelity_trace(s, times)))) <= eps
    rng = np.random.default_rng(N)
    s = eigh_tridiag(SymTridiag(rng.uniform(-0.3, 0.3, N), rng.uniform(0.4, 1.0, N - 1)))
    times = time_grid(s, 40.0)
    g, eps = _screen(s, times)
    assert float(np.max(np.abs(g - fidelity_trace(s, times)))) <= eps


def test_exact_values_are_fidelity_trace_bits():
    s = toric_christandl(512)
    times = time_grid(s, 1.5 * np.pi * 511 / 0.4, oversample=8.0)
    full = fidelity_trace(s, times)
    scan = _ScanValues(s, times)
    idx = np.array([0, 1, 5000, times.size // 2, times.size - 2, times.size - 1])
    assert scan.exact(idx).tobytes() == full[idx].tobytes()
    assert scan.known.sum() < scan.known.size
    assert scan.exact(np.arange(times.size)).tobytes() == full.tobytes()


def test_fidelity_is_the_one_point_batch():
    rng = np.random.default_rng(3)
    for M in (1, 2, 7, 64, 300):
        s = eigh_tridiag(SymTridiag(rng.uniform(-0.3, 0.3, M), rng.uniform(0.4, 1.0, M - 1)))
        for t in rng.uniform(0.0, 2000.0, 25):
            assert fidelity(s, float(t)) == _reference_fidelity(s, float(t))


def test_lockstep_golden_sections_match_one_window_search():
    s = toric_christandl(128)
    times = time_grid(s, 1.5 * np.pi * 127 / 0.4, oversample=8.0)
    k = np.arange(0, times.size - 1, 37)
    t, f = _golden_sections(s, times[k], times[k + 1])
    for j, kk in enumerate(k):
        assert (t[j], f[j]) == _reference_golden_section(s, float(times[kk]), float(times[kk + 1]))
