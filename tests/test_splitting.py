import json
import os
import random
import subprocess
import sys
from decimal import MAX_PREC, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from memstress import spectral, splitting
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


def _exact(x) -> Fraction:
    """An mpf as an exact Fraction, to compare with a Fraction of a Decimal eigenvalue."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


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
        assert abs(Fraction(got) - _exact(ref[rank])) <= _exact(mp.mpf("1e-40"))


def test_dense_eigenvalue_mp_full_bandwidth_matches_eigsy():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(8, 8))
    a = g + g.T  # bandwidth M - 1: every entry is nonzero
    ref = _eigsy(a)
    for rank in (0, 3, 7):
        got = dense_eigenvalue_mp(a, rank)
        assert abs(Fraction(got) - _exact(ref[rank])) <= _exact(mp.mpf("1e-40"))


def test_mp_eigenvalue_exact_zero_pivot():
    # the bracket is [-2, 2], so the first midpoint 0 makes the first pivot
    # exactly zero; the tiny positive substitute still counts one eigenvalue
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    chain = SymTridiag(np.zeros(2), np.array([1.0]))
    for rank, want in ((0, -1), (1, 1)):
        assert abs(dense_eigenvalue_mp(a, rank) - want) <= _exact(mp.mpf("1e-40"))
        assert abs(tridiag_eigenvalue_mp(chain, rank) - want) <= _exact(mp.mpf("1e-40"))
    # the substitute 10^-(2 dps) is small enough that a 1e-90 square behind
    # it still makes the next pivot negative, as the eigenvalue near -1e-90
    # requires
    weak = SymTridiag(np.array([0.0, 1.0]), np.array([1e-45]))
    assert tridiag_eigenvalue_mp(weak, 0) < 0 < tridiag_eigenvalue_mp(weak, 1)


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
        top, bottom = tridiag_eigenvalue_mp(m, 1, dps), tridiag_eigenvalue_mp(m, 0, dps)
        assert fit.splittings[idx] == float(Fraction(top) - Fraction(bottom))


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


# The plain bisection in decimal, unmemoised and without the outer-band
# squares, kept as the reference: a bisection's result depends only on its
# count decisions, so the counts and the returned eigenvalues must be equal,
# not merely close.  Everything rounds in the caller's decimal context.
def _reference_inertia(bands, x, zero_pivots=None) -> int:
    return sum(p < 0 for p in _reference_pivots(bands, x, zero_pivots))


def _reference_pivots(bands, x, zero_pivots=None) -> list:
    """The pivots of the band elimination of T - x, zeros included as they are."""
    m = len(bands[0])
    k = len(bands) - 1
    work = [[v - x for v in bands[0]]] + [list(band) for band in bands[1:]]
    for band in work:
        band.extend([Decimal(0)] * (m + k - len(band)))
    updates = [(c - j, j, c) for j in range(1, k + 1) for c in range(j, k + 1)]
    tiny = Decimal(10) ** (-2 * getcontext().prec)
    pivots = []
    for i in range(m):
        piv = work[0][i]
        pivots.append(piv)
        if piv == 0:
            if zero_pivots is not None:
                zero_pivots.append(x)
            piv = tiny
        for dst, j, c in updates:
            work[dst][i + j] -= work[j][i] * work[c][i] / piv
    return pivots


def _reference_bisect(bands, k, lo, hi, tol):
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _reference_inertia(bands, mid) >= k + 1:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _reference_eigenvalue(bands, k, scale, dps=DEFAULT_DPS):
    with localcontext(Context(prec=dps)):
        bands = [[+Decimal(x) for x in band] for band in bands]
        radius = +Decimal(scale) + 1
        tol = (radius + 1) * Decimal(10) ** (8 - dps)
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


def _count(bands, x):
    """splitting._band_inertia on Decimal bands, in the caller's context."""
    squares = [v * v for v in bands[-1]]
    return splitting._band_inertia(bands, squares, x, Decimal(10) ** (-2 * getcontext().prec))


# 9 and 14 digits keep fewer digits than the floats have, so they are rounded on the way in
@pytest.mark.parametrize("dps", [9, 14, DEFAULT_DPS, 2 * DEFAULT_DPS])
def test_tridiag_eigenvalues_equal_mpf_reference(dps):
    m = ising_effective_surface(4, 0.1)
    ranks = (0, 1, m.dim // 2, m.dim - 1)
    for rank in ranks:
        assert tridiag_eigenvalue_mp(m, rank, dps) == _reference_tridiag(m, rank, dps)
    assert tridiag_eigenvalue_mp(m, ranks, dps) == tuple(
        _reference_tridiag(m, rank, dps) for rank in ranks)


def test_entries_and_squares_enter_rounded_to_the_context():
    # at 9 digits 0.75 - 2^-40 enters as 0.75, so the third midpoint, 0.75,
    # meets an exactly zero pivot, which counts as positive; unrounded, the
    # entry would sit below it
    chain = SymTridiag(np.array([0.75 - 2.0**-40, 2.0]), np.array([0.0]))
    assert tridiag_eigenvalue_mp(chain, 0, 9) == _reference_tridiag(chain, 0, 9) > Decimal("0.75")
    # 0.200000001^2 rounds to 0.0400000004, which over the first pivot, 16 at
    # the first midpoint 0, is a tie that rounds to even, 0.00250000002: the
    # second diagonal entry, so the second pivot is exactly zero; a square
    # kept to more digits would round the quotient up and the pivot below 0
    chain = SymTridiag(np.array([16.0, 0.00250000002]), np.array([0.200000001]))
    assert tridiag_eigenvalue_mp(chain, 0, 9) == _reference_tridiag(chain, 0, 9) > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_banded_eigenvalues_equal_mpf_reference(k):
    a = _mirror_banded(4, k, 0.1, seed=10 + k)
    assert len(_dense_bands(a)[0]) == k + 1
    ranks = (0, 1, a.shape[0] // 2, a.shape[0] - 1)
    for rank in ranks:
        assert dense_eigenvalue_mp(a, rank) == _reference_dense(a, rank)
    assert dense_eigenvalue_mp(a, ranks) == tuple(_reference_dense(a, r) for r in ranks)


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
        with localcontext(Context(prec=dps)):
            for float_bands, mids in cases:
                bands = [[+Decimal(x) for x in band] for band in float_bands]
                for x in mids:
                    x = +Decimal(x)
                    assert _count(bands, x) == _reference_inertia(bands, x, zero_pivots)
                    checked += 1
    assert checked >= 1000
    assert len(zero_pivots) >= 20


def _pivot_probe(bands, r, pivot, x, rows):
    """The leading r + 1 rows of bands and 1 or 2 rows that show pivot r to the last digit.

    Row r + 1 couples only to row r, by the pivot p, and holds x + (p p)/p
    exactly, with (p p)/p rounded in the context: its pivot is exactly zero
    when the count's pivot r is p and at least a unit in the last digit away
    otherwise.  Row r + 2 couples only to row r + 1, by 1, and holds
    x + 10^(3 dps/2): less 1/tiny its pivot is negative, less the reciprocal
    of a pivot of one last-digit unit it is positive.  A pivot r off by a unit
    one way adds a negative pivot at row r + 1, the other way drops the one
    at row r + 2.
    """
    exact = Context(prec=MAX_PREC)
    m = r + 1 + rows
    diag = list(bands[0][: r + 1]) + [
        exact.add(x, pivot * pivot / pivot),
        exact.add(x, Decimal(10) ** (3 * getcontext().prec // 2))]
    out = [diag[:m]]
    for b, band in enumerate(bands[1:], start=1):
        tail = [pivot, Decimal(1)] if b == 1 else []
        band = list(band[: max(r + 1 - b, 0)]) + tail
        out.append((band + [Decimal(0)] * m)[: m - b])
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_pivot_equals_the_mpf_pivot(k):
    # the counts above only see pivot signs, which a one-unit slip in a
    # rounding rarely flips; this probes each pivot to the last digit, at mids
    # of full precision (d - x is inexact, ties happen) and at float mids
    rng = np.random.default_rng(60 + k)
    digits = random.Random(60 + k)
    m = 7
    probed = 0
    for dps in (60, 120, 240, 480):
        with localcontext(Context(prec=dps)):
            for float_bands in ([rng.uniform(-2.0, 2.0, m - b) for b in range(k + 1)],
                                [rng.integers(-8, 9, m - b) / 4.0 for b in range(k + 1)]):
                bands = [[+Decimal(v) for v in band] for band in float_bands]
                mids = [+Decimal(v) for v in rng.integers(-12, 13, 4) / 4.0]
                mids += [Decimal((-1) ** i * digits.randrange(10 ** (dps - 1), 10 ** dps))
                         .scaleb(digits.randint(-1, 0) + 1 - dps) for i in range(4)]
                for x in mids:
                    pivots = _reference_pivots(bands, x)
                    for r, pivot in enumerate(pivots):
                        if abs(pivot) < Decimal(10) ** (-(dps // 4)):
                            continue  # a last-digit unit of a tiny pivot is not seen against 1/tiny
                        below = sum(p < 0 for p in pivots[: r + 1])
                        for rows, want in ((1, below), (2, below + 1)):
                            probe = _pivot_probe(bands, r, pivot, x, rows)
                            assert _reference_inertia(probe, x) == want
                            assert _count(probe, x) == want, (dps, x, r)
                        probed += 1
    assert probed >= 4 * 2 * 8 * m * 3 // 4


def _former_band_inertia(bands, x, tiny) -> int:
    """The count without the outer-band squares: u_k u_k formed on every count."""
    m = len(bands[0])
    k = len(bands) - 1
    work = [[v - x for v in bands[0]]] + [list(band) for band in bands[1:]]
    updates = [(c - j, j, c) for c in range(1, k + 1) for j in range(1, c + 1)]
    diag = work[0]
    count = 0
    for i in range(m):
        piv = diag[i]
        count += piv < 0
        if not piv:
            piv = tiny
        for dst, j, c in updates:
            if i + c >= m:
                break
            work[dst][i + j] -= work[j][i] * work[c][i] / piv
    return count


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
            with localcontext(Context(prec=dps)):
                tiny = Decimal(10) ** (-2 * dps)
                for float_bands, mids in cases:
                    bands = [[+Decimal(x) for x in band] for band in float_bands]
                    for x in mids:
                        x = +Decimal(x)
                        assert _count(bands, x) == _former_band_inertia(bands, x, tiny)
                        checked += 1
    assert checked == 3 * 2 * 2 * 200


def test_tied_pair_equals_mpf_reference():
    # the zero-coupling family: both ranks sit on the same eigenvalue
    chain = SymTridiag(np.zeros(2), np.array([0.0]))
    want = tuple(_reference_tridiag(chain, rank) for rank in (1, 0))
    assert want[0] == want[1]
    assert tridiag_eigenvalue_mp(chain, (1, 0)) == want
    a = np.diag([4.0, 6.0, 6.0, 4.0])
    for pair in ((0, 1), (2, 3)):
        assert dense_eigenvalue_mp(a, pair) == tuple(_reference_dense(a, r) for r in pair)


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
    # the memo is keyed on the Decimal midpoint, and equal values hash equal
    assert (len(calls), single_calls) == {"tridiag": (298, 348), "banded": (313, 348)}[case]


@pytest.mark.parametrize("dps", [-1, 0, 1, 8])
def test_mp_eigenvalues_reject_too_few_digits(dps):
    chain = SymTridiag(np.zeros(2), np.array([1.0]))
    with pytest.raises(ValueError, match="at least 9"):
        tridiag_eigenvalue_mp(chain, 0, dps)
    with pytest.raises(ValueError, match="at least 9"):
        dense_eigenvalue_mp(chain.dense(), (1, 0), dps)


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


def _run_fresh(code):
    # a new interpreter with this checkout's src first on the path
    src = str(Path(splitting.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_splitting_runs_without_mpmath(tmp_path):
    # ising-splitting at N = 3 stays above the double floor, so the mp entry
    # points and the escalation are called directly as well
    _run_fresh(f"""
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
assert "fractions" not in sys.modules, "fractions was imported"
""")
    assert (tmp_path / "ising_splitting.csv").exists()


@pytest.mark.skipif(spectral._DSTEVD is None,
                    reason="numpy bundles no scipy_dstevd_64_, so scipy.linalg solves the chains")
def test_runtime_runs_without_scipy(tmp_path):
    # toric-transfer at N = 8 folds its chain into LAPACK-sized halves, the
    # random chain takes the generic path, and oracle-verify runs at N = 2
    _run_fresh(f"""
import sys
import numpy as np
from memstress.effective import SymTridiag
from memstress.experiments import ExperimentConfig, run
from memstress.spectral import eigh_tridiag

rng = np.random.default_rng(0)
eigh_tridiag(SymTridiag(rng.uniform(-1, 1, 40), rng.uniform(0.2, 1.0, 39)))
for name, n_range in (("ising-splitting", [3]), ("toric-transfer", [3, 8]),
                      ("oracle-verify", [2])):
    assert run(ExperimentConfig(experiment=name, N_range=n_range,
                                output_dir={str(tmp_path)!r})) == 0
assert "scipy" not in sys.modules, "scipy was imported"
""")
    assert (tmp_path / "toric_transfer_summary.json").exists()
