import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from memstress import splitting
from memstress.effective import (
    SymTridiag,
    banded_effective,
    ising_effective_surface,
    ising_surface_diagonal,
)
from memstress.experiments import ExperimentConfig, _delta_ladder, _mirror_symmetric_bands, run
from memstress.spectral import (
    NumericalError,
    check_dense_symmetric,
    eigh_dense_symmetric,
    eigh_tridiag,
)
from memstress.splitting import (
    DEFAULT_DPS,
    MAX_DPS,
    _pair_splitting,
    dense_eigenvalue_mp,
    measure_splitting,
    plateau_spectrum,
    predicted_order,
    tridiag_eigenvalue_mp,
)


def test_predicted_order_values():
    assert predicted_order(4, 1) == 3
    assert predicted_order(10, 1) == 9
    assert predicted_order(10, 1, 3) == 3
    assert predicted_order(10, 5, 1) == 1
    assert predicted_order(7, 1, 10) == 1  # one wide hop suffices


def test_predicted_order_validation():
    with pytest.raises(ValueError):
        predicted_order(4, 0)
    with pytest.raises(ValueError):
        predicted_order(3, 2)
    with pytest.raises(ValueError):
        predicted_order(4, 1, 0)


def test_plateau_spectrum_n4():
    d = 0.07
    got = plateau_spectrum(4, d)
    want = 2 * 5 + 2 * d * np.cos(np.arange(1, 5) * np.pi / 5.0)
    assert np.allclose(got, want, atol=1e-15)
    assert np.allclose(plateau_spectrum(4, 0.0), 10.0)
    with pytest.raises(ValueError):
        plateau_spectrum(3, 0.1)


def test_two_by_two_splitting_is_linear():
    fit = measure_splitting(
        lambda d: SymTridiag(np.zeros(2), np.array([d])),
        (0, 1),
        np.logspace(-2, -1, 6),
    )
    # closed form: eigenvalues -+ d, splitting exactly 2 d
    assert np.allclose(fit.splittings, 2.0 * fit.deltas, rtol=1e-12)
    assert fit.fitted_order == pytest.approx(1.0, abs=1e-9)


def test_flat_chain_contrast_linear():
    M = 6
    fit = measure_splitting(
        lambda d: SymTridiag(np.full(M, 2.0), np.full(M - 1, 0.5 * d)),
        (0, 1),
        np.logspace(-2, -1, 6),
    )
    assert abs(fit.fitted_order - 1.0) <= 0.05


def test_ising_n3_third_order():
    fit = measure_splitting(
        lambda d: ising_effective_surface(3, d),
        (0, 1),
        np.logspace(-2, -1, 6),
    )
    assert abs(fit.fitted_order - 3.0) <= 0.1
    assert fit.ok


def test_banded_k2_order_bound():
    # mirror-symmetric random bands: asymmetric ones split the pair at
    # second order by detuning it, without any tunneling between the ends
    N = 3
    M = 4
    rng = np.random.default_rng(7)
    unit = rng.uniform(-1.0, 1.0, size=(2, M - 1))
    for b in (1, 2):
        row = unit[b - 1, : M - b]
        unit[b - 1, : M - b] = 0.5 * (row + row[::-1])
    fit = measure_splitting(
        lambda d: banded_effective(N, d, 2, d * unit),
        (0, 1),
        0.1 * np.logspace(-1.5, -0.5, 6),
    )
    assert fit.fitted_order >= predicted_order(M, 1, 2) - 0.1


def test_banded_k3_order_bound():
    rng = np.random.default_rng(0)
    for N in (4, 5):
        M = ising_surface_diagonal(N).size
        unit = _mirror_symmetric_bands(rng, 3, M)
        fit = measure_splitting(
            lambda d: banded_effective(N, d, 3, d * unit),
            (0, 1),
            0.1 * np.logspace(-1.5, -0.5, 6),
        )
        assert fit.fitted_order >= predicted_order(M, 1, 3) - 0.1


@pytest.mark.parametrize("N", [5, 6])
def test_inner_ramp_pairs_split_at_their_order(N):
    # ramp pair i holds ranks 2i-2 and 2i-1; above order 3 ising-splitting
    # allows the same 0.3 around the predicted order
    M = ising_surface_diagonal(N).size
    for i in range(2, N):
        fit = measure_splitting(lambda d: ising_effective_surface(N, d),
                                (2 * i - 2, 2 * i - 1), _delta_ladder(0.1))
        assert abs(fit.fitted_order - predicted_order(M, i)) <= 0.3


def test_asymmetric_bands_detune_at_second_order():
    # contrast: breaking the mirror symmetry caps the protection at delta^2
    N = 4
    M = 10
    rng = np.random.default_rng(3)
    unit = rng.uniform(-1.0, 1.0, size=(2, M - 1))
    fit = measure_splitting(
        lambda d: banded_effective(N, d, 2, d * unit),
        (0, 1),
        0.1 * np.logspace(-1.5, -0.5, 6),
    )
    assert abs(fit.fitted_order - 2.0) <= 0.2


def test_extended_precision_agrees_with_double():
    m = ising_effective_surface(3, 0.1)
    s = eigh_tridiag(m)
    for k in (0, 1, 3):
        hi = float(tridiag_eigenvalue_mp(m, k, dps=50))
        assert abs(hi - s.eigenvalues[k]) <= 1e-6 * max(1.0, abs(hi))
    hi_dense = float(dense_eigenvalue_mp(m.dense(), 1, dps=50))
    assert abs(hi_dense - s.eigenvalues[1]) <= 1e-6


def _from_libmp(raw) -> tuple[int, int]:
    """(signed mantissa, exponent) pair of a finite raw libmp tuple."""
    sign, man, exp, _ = raw
    return (-man if sign else man), exp


def _exact(x) -> Fraction:
    """An mpf as the exact Fraction that the mp eigenvalue functions return."""
    return _value(_from_libmp(x._mpf_))


def _eigsy(a, dps=50):
    with mp.workdps(dps):
        return sorted(mp.eigsy(mp.matrix(a.tolist()), eigvals_only=True))


def _mirror_banded(N, k, delta, seed):
    M = ising_effective_surface(N, 1.0).dim
    rng = np.random.default_rng(seed)
    unit = rng.uniform(-1.0, 1.0, size=(k, M - 1))
    for b in range(1, k + 1):
        row = unit[b - 1, : M - b]
        unit[b - 1, : M - b] = 0.5 * (row + row[::-1])
    return banded_effective(N, delta, k, delta * unit)


@pytest.mark.parametrize("k", [2, 3])
def test_dense_eigenvalue_mp_banded_matches_eigsy(k):
    # fill-in inside the band moves these eigenvalues at order delta^2, so
    # a dropped or misplaced update is far outside the 1e-40 tolerance
    a = _mirror_banded(4, k, 0.1, seed=k)
    ref = _eigsy(a)
    for rank in (0, 1, a.shape[0] // 2, a.shape[0] - 1):
        got = dense_eigenvalue_mp(a, rank)
        assert abs(got - _exact(ref[rank])) <= _exact(mp.mpf("1e-40"))


def test_dense_eigenvalue_mp_full_bandwidth_matches_eigsy():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(8, 8))
    a = g + g.T  # bandwidth M - 1: every entry is nonzero
    ref = _eigsy(a)
    for rank in (0, 3, 7):
        assert abs(dense_eigenvalue_mp(a, rank) - _exact(ref[rank])) <= _exact(mp.mpf("1e-40"))


def test_mp_eigenvalue_exact_zero_pivot():
    # the bracket is [-2, 2], so the first midpoint 0 makes the first pivot
    # exactly zero; the tiny positive substitute still counts one eigenvalue
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    chain = SymTridiag(np.zeros(2), np.array([1.0]))
    for rank, want in ((0, -1), (1, 1)):
        assert abs(dense_eigenvalue_mp(a, rank) - want) <= _exact(mp.mpf("1e-40"))
        assert abs(tridiag_eigenvalue_mp(chain, rank) - want) <= _exact(mp.mpf("1e-40"))


def test_dense_eigenvalue_mp_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        dense_eigenvalue_mp(np.zeros((2, 3)), 0)
    with pytest.raises(ValueError, match="symmetric"):
        dense_eigenvalue_mp(np.array([[0.0, 1.0], [0.0, 0.0]]), 0)
    # asymmetry within 1e-13 is accepted, as in eigh_dense_symmetric
    nearly = np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]])
    assert abs(dense_eigenvalue_mp(nearly, 1) - 1) <= _exact(mp.mpf("1e-12"))


def test_splitting_shrinks_with_system_size():
    delta = 0.1

    def split_at(N):
        fit = measure_splitting(
            lambda d: ising_effective_surface(N, d),
            (0, 1),
            delta * np.logspace(-0.5, 0, 5),
        )
        return fit.splittings[-1]

    assert split_at(4) < split_at(3) * 1e-3


def test_measure_splitting_validation():
    with pytest.raises(ValueError):
        measure_splitting(
            lambda d: SymTridiag(np.array([0.0, 1.0]), np.array([d])),
            (0, 1),
            np.logspace(-2, -1, 6),
        )
    with pytest.raises(ValueError):
        measure_splitting(
            lambda d: SymTridiag(np.zeros(2), np.array([d])),
            (0, 1),
            [0.1, 0.2],
        )


def test_ising_splitting_escalates_digits_at_small_delta(tmp_path):
    # at delta = 1e-5 the N = 4 splittings (order 9) sit below the 60-digit
    # floor 1e-48, so every point is bisected again at 120 digits
    code = run(ExperimentConfig(experiment="ising-splitting", N_range=[4], delta=1e-5,
                                output_dir=str(tmp_path)))
    payload = json.loads((tmp_path / "ising_splitting_summary.json").read_text())
    order = {c["name"]: c["value"] for c in payload["checks"]}["splitting_order_N4"]
    assert code == 0
    assert abs(order - 9.0) <= 0.1
    assert payload["summary"]["digits_N4"] == 120


def test_escalated_splitting_equals_direct_bisection():
    fit = measure_splitting(lambda d: ising_effective_surface(4, d), (0, 1),
                            _delta_ladder(1e-5))
    escalated = np.flatnonzero(fit.digits > DEFAULT_DPS)
    assert escalated.size == fit.deltas.size
    for idx in escalated:
        dps = int(fit.digits[idx])
        m = ising_effective_surface(4, float(fit.deltas[idx]))
        with mp.workdps(dps):
            want = float(tridiag_eigenvalue_mp(m, 1, dps) - tridiag_eigenvalue_mp(m, 0, dps))
        assert fit.splittings[idx] == want


def test_degenerate_family_climbs_to_the_cap_and_fails():
    def family(d):
        return SymTridiag(np.zeros(2), np.array([0.0]))

    assert _pair_splitting(family(0.1), (0, 1)) == (0.0, MAX_DPS)
    with pytest.raises(NumericalError, match=rf"\(0 of 6 at up to {MAX_DPS} digits\)") as err:
        measure_splitting(family, (0, 1), np.logspace(-2, -1, 6))
    assert "raise dps" not in str(err.value)


def test_benchmarked_ising_chain_keeps_default_digits():
    # the tightest benchmarked point, N = 5 at delta = 0.01, reads ~8e-47
    # against the 60-digit floor 1e-48
    fit = measure_splitting(lambda d: ising_effective_surface(5, d), (0, 1),
                            _delta_ladder(0.1))
    assert fit.ok
    assert np.all(fit.digits == DEFAULT_DPS)


# The mpf bisection that the raw-tuple count replaced, kept as the reference:
# a bisection's result depends only on its count decisions, so the counts and
# the returned eigenvalues must be equal, not merely close.
def _reference_inertia(bands, x, zero_pivots=None) -> int:
    m = len(bands[0])
    k = len(bands) - 1
    work = [[v - x for v in bands[0]]] + [list(band) for band in bands[1:]]
    for band in work:
        band.extend([mp.mpf(0)] * (m + k - len(band)))
    updates = [(c - j, j, c) for j in range(1, k + 1) for c in range(j, k + 1)]
    diag = work[0]
    tiny = mp.mpf(10) ** (-2 * mp.mp.dps)
    count = 0
    for i in range(m):
        piv = diag[i]
        if piv == 0:
            if zero_pivots is not None:
                zero_pivots.append(x)
            piv = tiny
        if piv < 0:
            count += 1
        for dst, j, c in updates:
            work[dst][i + j] -= work[j][i] * work[c][i] / piv
    return count


def _reference_bisect(bands, k, lo, hi, tol):
    lo = mp.mpf(lo)
    hi = mp.mpf(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _reference_inertia(bands, mid) >= k + 1:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _reference_eigenvalue(bands, k, scale, dps=DEFAULT_DPS):
    with mp.workdps(dps):
        bands = [[mp.mpf(x) for x in band] for band in bands]
        radius = mp.mpf(scale) + 1
        tol = (radius + 1) * mp.mpf(10) ** (-(dps - 8))
        return _reference_bisect(bands, k, -radius, radius, tol)


def _dense_bands(a):
    rows, cols = np.nonzero(a)
    width = int(np.max(np.abs(rows - cols), initial=0))
    return [np.diagonal(a, b) for b in range(width + 1)], float(np.max(np.sum(np.abs(a), axis=1)))


def _reference_dense(a, k, dps=DEFAULT_DPS):
    bands, scale = _dense_bands(a)
    return _reference_eigenvalue(bands, k, scale, dps)


def _reference_tridiag(m, k, dps=DEFAULT_DPS):
    return _reference_eigenvalue([m.diag, m.offdiag], k, m.norm_estimate(), dps)


# 9 and 14 digits keep fewer than 53 bits, so the floats are rounded on the way in
@pytest.mark.parametrize("dps", [9, 14, DEFAULT_DPS, 2 * DEFAULT_DPS])
def test_tridiag_eigenvalues_equal_mpf_reference(dps):
    m = ising_effective_surface(4, 0.1)
    ranks = (0, 1, m.dim // 2, m.dim - 1)
    for rank in ranks:
        assert tridiag_eigenvalue_mp(m, rank, dps) == _exact(_reference_tridiag(m, rank, dps))
    assert tridiag_eigenvalue_mp(m, ranks, dps) == tuple(
        _exact(_reference_tridiag(m, rank, dps)) for rank in ranks)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_banded_eigenvalues_equal_mpf_reference(k):
    a = _mirror_banded(4, k, 0.1, seed=10 + k)
    assert len(_dense_bands(a)[0]) == k + 1
    ranks = (0, 1, a.shape[0] // 2, a.shape[0] - 1)
    for rank in ranks:
        assert dense_eigenvalue_mp(a, rank) == _exact(_reference_dense(a, rank))
    assert dense_eigenvalue_mp(a, ranks) == tuple(_exact(_reference_dense(a, r)) for r in ranks)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_counts_equal_mpf_reference_at_random_mids(k):
    # random bands at random mids, then quarter-integer bands at dyadic mids,
    # where pivots (and the fill-in behind them) become exactly zero
    rng = np.random.default_rng(20 + k)
    m = 7
    cases = [
        ([rng.uniform(-2.0, 2.0, m - b) for b in range(k + 1)], rng.uniform(-6.0, 6.0, 300)),
        ([rng.integers(-8, 9, m - b) / 4.0 for b in range(k + 1)],
         rng.integers(-12, 13, 300) / 4.0),
    ]
    zero_pivots = []
    checked = 0
    for dps in (DEFAULT_DPS, 2 * DEFAULT_DPS):
        with mp.workdps(dps):
            tiny = mp.mpf(10) ** (-2 * mp.mp.dps)
            for float_bands, mids in cases:
                ref_bands = [[mp.mpf(x) for x in band] for band in float_bands]
                raw = splitting._raw_bands(float_bands, mp.mp.prec)
                for x in mids:
                    x = mp.mpf(x)
                    want = _reference_inertia(ref_bands, x, zero_pivots)
                    assert splitting._band_inertia(raw, _from_libmp(x._mpf_),
                                                   _from_libmp(tiny._mpf_), mp.mp.prec) == want
                    checked += 1
    assert checked >= 1000
    assert len(zero_pivots) >= 20


def _former_band_inertia(bands, x, tiny) -> int:
    """The k != 1 count before the outer-band squares: u_k u_k formed on every count."""
    from mpmath.libmp import fzero, mpf_div, mpf_mul, mpf_sub, round_nearest

    prec = mp.mp.prec
    m = len(bands[0])
    k = len(bands) - 1
    work = [[mpf_sub(v, x, prec, round_nearest) for v in bands[0]]]
    work += [list(band) for band in bands[1:]]
    updates = [(c - j, j, c) for c in range(1, k + 1) for j in range(1, c + 1)]
    diag = work[0]
    count = 0
    for i in range(m):
        piv = diag[i]
        count += piv[0]
        if piv == fzero:
            piv = tiny
        for dst, j, c in updates:
            if i + c >= m:
                break
            row = work[dst]
            row[i + j] = mpf_sub(
                row[i + j],
                mpf_div(mpf_mul(work[j][i], work[c][i], prec, round_nearest),
                        piv, prec, round_nearest),
                prec, round_nearest)
    return count


def _reference_pivots(bands, x) -> list:
    """The pivots of _reference_inertia's elimination, zeros included as they are."""
    m = len(bands[0])
    k = len(bands) - 1
    work = [[v - x for v in bands[0]]] + [list(band) for band in bands[1:]]
    for band in work:
        band.extend([mp.mpf(0)] * (m + k - len(band)))
    updates = [(c - j, j, c) for j in range(1, k + 1) for c in range(j, k + 1)]
    tiny = mp.mpf(10) ** (-2 * mp.mp.dps)
    pivots = []
    for i in range(m):
        pivots.append(work[0][i])
        piv = work[0][i] or tiny
        for dst, j, c in updates:
            work[dst][i + j] -= work[j][i] * work[c][i] / piv
    return pivots


def _pivot_probe(bands, r, pivot, x, rows):
    """The leading r + 1 rows of bands and 1 or 2 rows that show pivot r to the last bit.

    Row r + 1 couples only to row r, by the pivot p, and holds x + (p p)/p
    rounded as the mpf operators round it: its pivot is exactly zero when the
    count's pivot r is p and at least an ulp away otherwise.  Row r + 2
    couples only to row r + 1, by 1, and holds x + 2^(3 prec/2): less 1/tiny
    its pivot is negative, less the reciprocal of an ulp-sized pivot it is
    positive.  A pivot r off by an ulp one way adds a negative pivot at row
    r + 1, the other way drops the one at row r + 2.
    """
    m = r + 1 + rows
    diag = list(bands[0][: r + 1]) + [mp.fadd(x, pivot * pivot / pivot, exact=True),
                                      mp.fadd(x, mp.mpf(2) ** (3 * mp.mp.prec // 2), exact=True)]
    out = [diag[:m]]
    for b, band in enumerate(bands[1:], start=1):
        tail = [pivot, mp.mpf(1)] if b == 1 else []
        band = list(band[: max(r + 1 - b, 0)]) + tail
        out.append((band + [mp.mpf(0)] * m)[: m - b])
    return out


def _inline_bands(ref_bands):
    """ref_bands as _raw_bands lays them out, without rounding entries wider than prec."""
    squares = [v * v for v in ref_bands[-1]]  # rounded at prec, as _raw_bands forms them
    return [[_from_libmp(v._mpf_) for v in band] for band in ref_bands + [squares]]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_pivot_equals_the_mpf_pivot(k):
    # the counts above only see pivot signs, which a one-ulp slip in a
    # rounding rarely flips; this probes each pivot to the last bit, at mids of
    # full precision (d - x is inexact, ties happen) and at float mids
    rng = np.random.default_rng(60 + k)
    bits = random.Random(60 + k)
    m = 7
    probed = 0
    for dps in (60, 120, 240, 480):
        with mp.workdps(dps):
            prec = mp.mp.prec
            tiny = _from_libmp((mp.mpf(10) ** (-2 * mp.mp.dps))._mpf_)
            for float_bands in ([rng.uniform(-2.0, 2.0, m - b) for b in range(k + 1)],
                                [rng.integers(-8, 9, m - b) / 4.0 for b in range(k + 1)]):
                ref_bands = [[mp.mpf(v) for v in band] for band in float_bands]
                mids = [mp.mpf(v) for v in rng.integers(-12, 13, 4) / 4.0]
                mids += [mp.mpf(((-1) ** i * (bits.getrandbits(prec) | 1 << (prec - 1) | 1),
                                 bits.randint(-1, 2) - prec)) for i in range(4)]
                for x in mids:
                    x_pair = _from_libmp(x._mpf_)
                    pivots = _reference_pivots(ref_bands, x)
                    for r, pivot in enumerate(pivots):
                        if abs(pivot) < mp.mpf(2) ** (-prec // 4):
                            continue  # an ulp of a tiny pivot is not seen against 1/tiny
                        below = sum(p < 0 for p in pivots[: r + 1])
                        for rows, want in ((1, below), (2, below + 1)):
                            probe = _pivot_probe(ref_bands, r, pivot, x, rows)
                            assert _reference_inertia(probe, x) == want
                            got = splitting._band_inertia(_inline_bands(probe), x_pair, tiny, prec)
                            assert got == want, (dps, x, r)
                        probed += 1
    assert probed >= 4 * 2 * 8 * m * 3 // 4


@pytest.mark.parametrize("k", [0, 2, 3])
def test_outer_band_squares_keep_every_count(k):
    rng = np.random.default_rng(40 + k)
    checked = 0
    for m in (k + 1, 6, 11):
        cases = [
            ([rng.uniform(-2.0, 2.0, m - b) for b in range(k + 1)], rng.uniform(-6.0, 6.0, 200)),
            ([rng.integers(-8, 9, m - b) / 4.0 for b in range(k + 1)],
             rng.integers(-12, 13, 200) / 4.0),
        ]
        for dps in (DEFAULT_DPS, 2 * DEFAULT_DPS):
            with mp.workdps(dps):
                tiny = (mp.mpf(10) ** (-2 * mp.mp.dps))._mpf_
                for float_bands, mids in cases:
                    raw = splitting._raw_bands(float_bands, mp.mp.prec)
                    former = [[mp.mpf(x)._mpf_ for x in band] for band in float_bands]
                    for x in mids:
                        x = mp.mpf(x)._mpf_
                        assert splitting._band_inertia(raw, _from_libmp(x), _from_libmp(tiny),
                                                       mp.mp.prec) == \
                            _former_band_inertia(former, x, tiny)
                        checked += 1
    assert checked == 3 * 2 * 2 * 200


def test_tied_pair_equals_mpf_reference():
    # the zero-coupling family: both ranks sit on the same eigenvalue
    chain = SymTridiag(np.zeros(2), np.array([0.0]))
    want = tuple(_exact(_reference_tridiag(chain, rank)) for rank in (1, 0))
    assert want[0] == want[1]
    assert tridiag_eigenvalue_mp(chain, (1, 0)) == want
    a = np.diag([4.0, 6.0, 6.0, 4.0])
    for pair in ((0, 1), (2, 3)):
        assert dense_eigenvalue_mp(a, pair) == tuple(_exact(_reference_dense(a, r)) for r in pair)


def _counted(monkeypatch):
    calls = []
    inner = splitting._band_inertia

    def count(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(splitting, "_band_inertia", count)
    return calls


@pytest.mark.parametrize("case", ["tridiag", "banded"])
def test_pair_call_shares_counts(monkeypatch, case):
    if case == "tridiag":
        matrix, eigenvalue_mp = ising_effective_surface(4, 0.1), tridiag_eigenvalue_mp
    else:
        matrix, eigenvalue_mp = _mirror_banded(4, 2, 0.1, seed=2), dense_eigenvalue_mp
    calls = _counted(monkeypatch)
    single = (eigenvalue_mp(matrix, 1), eigenvalue_mp(matrix, 0))
    single_calls = len(calls)
    calls.clear()
    assert eigenvalue_mp(matrix, (1, 0)) == single
    assert 0 < len(calls) < single_calls
    # the counts of the memo keyed on libmp tuples: the canonical pair key
    # must hit exactly where that key hit
    assert (len(calls), single_calls) == {"tridiag": (298, 348), "banded": (313, 348)}[case]


def _value(pair):
    man, exp = pair
    return Fraction(man) * Fraction(2) ** exp


def _rounding_kind(exact, got, prec):
    """'exact', 'tie-down' or 'tie-up' (in magnitude), or 'inexact' for a non-tie."""
    if exact == got:
        return "exact"
    mag = abs(exact)
    top = mag.numerator.bit_length() - mag.denominator.bit_length()
    if Fraction(2) ** top > mag:
        top -= 1  # now 2**top <= |exact| < 2**(top + 1)
    if abs(exact - got) != Fraction(2) ** (top - prec):
        return "inexact"
    return "tie-down" if abs(got) < mag else "tie-up"


def _operand_cases(prec, rng):
    """Operand pairs (mantissa, exponent) for sub, mul and div, mantissas of at most prec bits."""
    def rand(bits=prec):
        return rng.choice((1, -1)) * rng.getrandbits(bits) | 1

    top = 1 << (prec - 1)
    zero = (0, 0)
    sub = []
    for low in (0, 1):  # 2A + 1 is a tie between A and A + 1: down when A is even, up when odd
        for a in (top + 2 * rng.getrandbits(prec - 3) + low, (1 << prec) - 1):
            sub += [((a, 1), (-1, 0)), ((-a, 1), (1, 0))]
    for gap in (prec + 5, 3 * prec):  # an operand beyond prec + 4 bits below the other
        big, small = (rand(), 0), (rand(53), -gap)
        sub += [(big, small), (small, big), ((-big[0], 0), small)]
    sub += [((rand(), -7), zero), (zero, (rand(), 9)), (zero, zero)]
    x = (rand(), -prec)
    sub += [(x, x), (x, (x[0] << 3, x[1] - 3))]  # exact zeros, the second not canonical
    sub += [((rand(), rng.randint(-2 * prec, 2 * prec)), (rand(), rng.randint(-2 * prec, 2 * prec)))
            for _ in range(200)]
    mul = []
    for a in range(((1 << prec) // 3) | 1, ((1 << prec) // 3) + 9, 2):  # 3a: prec + 1 bits, odd
        mul += [((a, 0), (3, 0)), ((-a, 0), (3, 5))]
    mul += [(zero, (rand(), 3)), ((rand(), -3), zero)]
    mul += [((rand(), rng.randint(-prec, prec)), (rand(), rng.randint(-prec, prec)))
            for _ in range(200)]
    div = []
    for _ in range(20):
        b = rand(53)
        div += [((b * rand(prec - 60), 4), (b, -2)), ((rand(), 0), (b, 0))]  # exact, remainder
    div += [((rand(), -5), (1, 7)), ((rand(), 2), (-1 << 4, -4)), (zero, (rand(), 0))]
    div += [((rand(), rng.randint(-prec, prec)), (rand(), rng.randint(-prec, prec)))
            for _ in range(200)]
    return sub, mul, div


@pytest.mark.parametrize("dps", [60, 120, 240, 480])
def test_integer_operations_equal_libmp(dps):
    from mpmath.libmp import from_man_exp, mpf_div, mpf_mul, mpf_sub, round_nearest

    rng = random.Random(dps)
    with mp.workdps(dps):
        prec = mp.mp.prec
    sub, mul, div = _operand_cases(prec, rng)
    kinds = {"sub": set(), "mul": set(), "div": set()}
    perturbed = set()
    for name, ours, libmp, cases in (("sub", splitting._sub, mpf_sub, sub),
                                     ("mul", splitting._mul, mpf_mul, mul),
                                     ("div", splitting._div, mpf_div, div)):
        for a, b in cases:
            want = libmp(from_man_exp(*a), from_man_exp(*b), prec, round_nearest)
            got = ours(a, b, prec)
            assert splitting._canonical(got) == _from_libmp(want), (name, a, b)
            exact = _value(a) - _value(b) if name == "sub" else \
                _value(a) * _value(b) if name == "mul" else _value(a) / _value(b)
            kinds[name].add(_rounding_kind(exact, _value(got), prec))
            if name == "sub" and a[0] and b[0]:
                # libmp's perturbation branch: more than prec + 4 bits between magnitudes
                delta = (abs(a[0]).bit_length() + a[1]) - (abs(b[0]).bit_length() + b[1])
                if abs(a[1] - b[1]) > 100 and abs(delta) > prec + 4:
                    perturbed.add(delta > 0)
    assert {"exact", "tie-down", "tie-up", "inexact"} <= kinds["sub"]
    assert {"exact", "tie-down", "tie-up", "inexact"} <= kinds["mul"]
    assert {"exact", "inexact"} <= kinds["div"]
    assert perturbed == {True, False}


def test_dps_to_prec_equals_workdps():
    for dps in range(1, 1001):
        with mp.workdps(dps):
            assert splitting._dps_to_prec(dps) == mp.mp.prec, dps


def test_inverse_power_of_ten_equals_mpf_power():
    # tiny = 10^-(2 dps) and the tolerance's 10^-(dps-8), at every accepted dps up to 1000
    for dps in range(9, 1001):
        with mp.workdps(dps):
            for k in (2 * dps, dps - 8):
                got = splitting._canonical(splitting._inverse_power_of_ten(k, mp.mp.prec))
                assert got == _from_libmp((mp.mpf(10) ** (-k))._mpf_), (dps, k)
    # libmp's 10^-960 at 480 digits is not the correctly rounded value; the pair follows libmp
    prec = splitting._dps_to_prec(480)
    rounded = splitting._div((1, 0), (10**960, 0), prec)
    assert _value(splitting._inverse_power_of_ten(960, prec)) != _value(rounded)


@pytest.mark.parametrize("dps", [-1, 0, 1, 8])
def test_mp_eigenvalues_reject_too_few_digits(dps):
    chain = SymTridiag(np.zeros(2), np.array([1.0]))
    with pytest.raises(ValueError, match="at least 9"):
        tridiag_eigenvalue_mp(chain, 0, dps)
    with pytest.raises(ValueError, match="at least 9"):
        dense_eigenvalue_mp(chain.dense(), (1, 0), dps)


def test_float_conversion_equals_mpf():
    sub = np.nextafter(0.0, 1.0)
    values = [0.0, -0.0, sub, -sub, 3 * sub, np.finfo(float).tiny / 3, np.finfo(float).tiny,
              1.0, -7.0, 2.0**60 + 2.0**8, 12345678901234567.0, -0.1, 1 / 3, 1e300,
              -np.finfo(float).max, np.float64(0.7)]
    for dps in (9, 14, 15, DEFAULT_DPS, MAX_DPS):
        with mp.workdps(dps):
            for x in values:
                got = splitting._from_float(x, mp.mp.prec)
                assert splitting._canonical(got) == _from_libmp(mp.mpf(x)._mpf_), (dps, x)


def _gap_cases(prec, rng):
    """(top, bottom) pairs of at most prec bits: 53-bit ties, a prec-bit tie that
    turns into a 53-bit tie, subnormal differences and random ones."""
    cases = []
    for low in (1, 3):  # 2^53 + 1 rounds down to even, 2^53 + 3 up
        cases += [(((1 << 53) + low, -9), (0, 0)), ((0, 0), ((1 << 53) + low, 40))]
    # d = (2^53 + 1) 2^(prec-53) + 1 ties at prec bits down to a 53-bit tie, which
    # rounds to even again; rounded once it would round up
    top = ((1 << 53) + 1 << (prec - 53)) + 2
    cases += [((top, -prec), (1, -prec)), ((1, 5 - prec), (top, 5 - prec))]
    for k in range(8):  # (2k + 1) 2^-1075: ties between subnormals
        cases.append(((2 * k + 1, -1075), (0, 0)))
    for _ in range(300):
        man = rng.getrandbits(prec) | 1 << (prec - 1)
        exp = rng.randint(-1074 - prec - 20, -1022 - prec + 10)
        near = man + rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, prec))
        cases.append(((man, exp), (near, exp)))
        cases.append(((man, exp), (rng.getrandbits(prec), exp - rng.randint(0, 2 * prec))))
        cases.append(((-man, rng.randint(-prec - 60, 60 - prec)), (rng.getrandbits(prec), -prec)))
    return cases


@pytest.mark.parametrize("dps", [DEFAULT_DPS, 2 * DEFAULT_DPS, MAX_DPS])
def test_gap_float_equals_float_of_mpf_difference(dps):
    rng = random.Random(dps)
    prec = splitting._dps_to_prec(dps)
    twice_rounded = subnormal = 0
    for top, bottom in _gap_cases(prec, rng):
        with mp.workprec(prec):
            want = float(mp.mpf(top) - mp.mpf(bottom))
        got = splitting._gap_float(_value(top), _value(bottom), prec)
        assert got == want, (top, bottom)
        twice_rounded += got != float(_value(top) - _value(bottom))
        subnormal += 0.0 < abs(got) < np.finfo(float).tiny
    assert twice_rounded >= 2
    assert subnormal >= 100


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected(bad):
    for diag, off, where in (([1.0, bad, 3.0], [0.5, 0.5], "band 0 entry 1"),
                             ([1.0, 2.0, 3.0], [0.5, bad], "band 1 entry 1")):
        chain = SymTridiag(np.array(diag), np.array(off))
        for rank in (0, (1, 0)):
            with pytest.raises(ValueError, match=where):
                tridiag_eigenvalue_mp(chain, rank)
    for a, where in (([[bad, 0.5], [0.5, 1.0]], r"entry \(0, 0\)"),
                     ([[1.0, bad], [bad, 1.0]], r"entry \(0, 1\)")):
        a = np.array(a)
        for rank in (0, 1, (1, 0)):
            with pytest.raises(ValueError, match=where):
                dense_eigenvalue_mp(a, rank)
        for check in (check_dense_symmetric, eigh_dense_symmetric):
            with pytest.raises(ValueError, match=where):
                check(a)

    def entry(d):
        return bad if d > 0.0 else 0.0

    families = (
        lambda d: SymTridiag(np.array([0.0, entry(d)]), np.array([d])),
        lambda d: SymTridiag(np.zeros(2), np.array([entry(d)])),
        lambda d: np.array([[entry(d), d], [d, 0.0]]),
        lambda d: np.array([[0.0, entry(d)], [entry(d), 0.0]]),
    )
    for family in families:
        with pytest.raises(ValueError):
            measure_splitting(family, (0, 1), np.logspace(-2, -1, 6))


def test_splitting_runs_without_mpmath(tmp_path):
    # ising-splitting at N = 3 stays above the double floor, so the mp entry
    # points and the escalation are called directly as well
    code = f"""
import sys
import numpy as np
from memstress.effective import ising_effective_surface
from memstress.experiments import ExperimentConfig, run
from memstress.splitting import _pair_splitting, dense_eigenvalue_mp, tridiag_eigenvalue_mp

assert run(ExperimentConfig(experiment="ising-splitting", N_range=[3],
                            output_dir={str(tmp_path)!r})) == 0
m = ising_effective_surface(4, 1e-5)
assert tridiag_eigenvalue_mp(m, (1, 0)) == dense_eigenvalue_mp(m.dense(), (1, 0))
assert _pair_splitting(m, (0, 1))[1] == 120
assert "mpmath" not in sys.modules, "mpmath was imported"
"""
    src = str(Path(splitting.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "ising_splitting.csv").exists()
