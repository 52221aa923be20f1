"""Degenerate-perturbation splitting measurements for the string chains.

String tension shows up as eigenvalue pairs that stay degenerate until a
high order in the hopping strength: the pair at ramp position i of an
M-state chain only splits at order M+1-2i (order ceil((M+1-2i)/k) for a
k-banded perturbation).  The splittings shrink below double precision almost
immediately, so eigenvalues are also computed at extended precision by
bisection on one band LDL^T inertia count: a tridiagonal chain is
bandwidth 1, a k-banded perturbation bandwidth k, and a count costs O(M k^2).
All of the extended-precision arithmetic runs on (signed mantissa, exponent)
pairs of Python ints: each float converts exactly, and each subtraction,
product and quotient is formed exactly and rounded to nearest, ties to even,
at the prec bits of dps digits.  The rounding and the conversions follow
mpmath's libmp, which rounds correctly in the same mode, and a correctly
rounded result is unique, so every value equals the mpf one; the tests keep
mpmath as the reference, and it is not needed at run time.  Eigenvalues come
back as exact Fractions.  Both ranks of a pair bisect from one bracket,
sharing every count until a midpoint falls between their eigenvalues.  A
bisection's result depends only on its count decisions, so neither changes a
returned eigenvalue.  The digits are worked out per point: a bisection starts at
DEFAULT_DPS and doubles them while the splitting stays below the floor
10^-(dps-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .effective import SymTridiag
from .spectral import (
    NumericalError,
    check_dense_symmetric,
    eigh_dense_symmetric,
    eigh_tridiag,
)

__all__ = [
    "SplittingFit",
    "predicted_order",
    "plateau_spectrum",
    "measure_splitting",
    "tridiag_eigenvalue_mp",
    "dense_eigenvalue_mp",
]

DOUBLE_FLOOR = 1e-12  # relative splitting below which extended precision kicks in
DEFAULT_DPS = 60  # digits of the first bisection of every extended-precision point
MAX_DPS = 480  # digits of the last doubling before a point is masked
MIN_FIT_POINTS = 5


@dataclass(frozen=True)
class SplittingFit:
    """Log-log fit of a splitting against the perturbation strength."""

    deltas: np.ndarray
    splittings: np.ndarray
    fitted_order: float
    below_floor: np.ndarray  # mask of points too small even in extended precision
    digits: np.ndarray  # bisection digits each point was judged at

    @property
    def ok(self) -> bool:
        return not bool(np.any(self.below_floor))


def predicted_order(M: int, i: int, k: int = 1) -> int:
    """Perturbation order ceil((M+1-2i)/k) at which ramp pair i splits.

    The pair's localized states sit M+1-2i chain sites apart and a k-banded
    perturbation hops at most k sites per order.
    """
    if i < 1:
        raise ValueError("pair index i must be >= 1")
    if M < 2 * i:
        raise ValueError(f"chain dimension {M} too small for pair index {i}")
    if k < 1:
        raise ValueError("band width k must be >= 1")
    return -((M + 1 - 2 * i) // -k)


def plateau_spectrum(N: int, delta: float) -> np.ndarray:
    """First-order plateau energies 2(N+1) + 2 delta cos(i pi / (P+1)).

    P = (N-1)(N-2) - 2 is the plateau multiplicity; the values are returned
    for i = 1..P, descending in i as the cosine falls.
    """
    if N < 4:
        raise ValueError("the plateau is empty below N = 4")
    P = (N - 1) * (N - 2) - 2
    i = np.arange(1, P + 1, dtype=float)
    return 2.0 * (N + 1) + 2.0 * delta * np.cos(i * math.pi / (P + 1))


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man * 2**exp rounded to prec bits, to nearest with ties to even, as libmp's normalize.

    t keeps the prec result bits and the half bit below them; the result
    rounds up when the half bit is set and either the kept bits are odd or
    a bit below the half bit is set.  The mantissa is signed and >> floors,
    so the bits shifted out are the floor remainder and the rule reads the
    same for both signs.  Trailing zero bits are kept (the value is what
    counts), and a mantissa that rounds up to a power of two may hold
    prec + 1 bits.
    """
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)
        man = (t >> 1) + (1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else 0)
        exp += n
    return man, exp


def _sub(a, b, prec: int) -> tuple[int, int]:
    """a - b correctly rounded at prec bits: formed exactly on the finer exponent, then rounded."""
    (am, ae), (bm, be) = a, b
    if ae > be:
        return _round((am << (ae - be)) - bm, be, prec)
    return _round(am - (bm << (be - ae)), ae, prec)


def _mul(a, b, prec: int) -> tuple[int, int]:
    """a * b correctly rounded at prec bits."""
    return _round(a[0] * b[0], a[1] + b[1], prec)


def _div(a, b, prec: int) -> tuple[int, int]:
    """a / b correctly rounded at prec bits, for b nonzero and a of at most prec + 1 bits.

    Every rounded value has at most prec + 1 bits (prec + 1 only for a power
    of two), so the quotient is carried to at least prec + 5 bits; a nonzero remainder
    puts the floored quotient q at 2q + 1 one bit lower, a sticky bit that
    lies strictly between the rounding boundaries, as in libmp's mpf_div.
    """
    (am, ae), (bm, be) = a, b
    if not am:
        return a
    extra = prec + 5 + bm.bit_length() - am.bit_length()
    quot, rem = divmod(am << extra, bm)
    if rem:
        return _round(quot << 1 | 1, ae - be - extra - 1, prec)
    return _round(quot, ae - be - extra, prec)


def _canonical(a) -> tuple[int, int]:
    """The pair with trailing zero bits stripped: equal values give equal pairs."""
    man, exp = a
    if not man:
        return 0, 0
    t = (man & -man).bit_length() - 1
    return man >> t, exp + t


def _band_inertia(bands, x, tiny, prec: int) -> int:
    """Eigenvalues strictly below x: negative pivots of the band LDL^T of T - x.

    bands comes from _raw_bands: bands[0] is the diagonal, bands[b] the b-th
    superdiagonal for b = 1..k, and the last entry holds the squares of the
    outermost one.  Every entry, x and tiny are (signed mantissa, exponent)
    pairs.  Each subtraction, product and quotient is formed exactly in
    integers (the quotient with a sticky bit) and rounded to nearest, ties to
    even, at prec bits: these are _sub, _mul and _div inlined, and a
    correctly rounded result is unique, so every value equals the one the mpf
    operators give.  Elimination without pivoting keeps every fill-in inside
    the band, so the count costs O(M k^2) for bandwidth k; by Sylvester's law
    of inertia it is the Sturm count when k = 1.  A pivot counts when its
    mantissa is negative; an exactly zero pivot is replaced by the tiny
    positive one.  The outermost band is never updated, so its squares do not
    depend on x.
    """
    m = len(bands[0])
    k = len(bands) - 2
    squares = bands[-1]
    xm, xe = x
    count = 0
    if k == 1:
        pm, pe = _sub(bands[0][0], x, prec)
        for (dm, de), (sm, se) in zip(bands[0][1:], squares):
            count += pm < 0
            if not pm:
                pm, pe = tiny
            # d - x
            if de > xe:
                am, ae = (dm << (de - xe)) - xm, xe
            else:
                am, ae = dm - (xm << (xe - de)), de
            n = am.bit_length() - prec
            if n > 0:
                t = am >> (n - 1)
                am = (t >> 1) + (1 if t & 1 and (t & 2 or am & ((1 << (n - 1)) - 1)) else 0)
                ae += n
            # square / pivot, rounded from prec + 5 bits or more with a sticky bit
            if sm:
                extra = prec + 5 + pm.bit_length() - sm.bit_length()
                qm, rem = divmod(sm << extra, pm)
                qe = se - pe - extra
                if rem:
                    qm = qm << 1 | 1
                    qe -= 1
                n = qm.bit_length() - prec
                t = qm >> (n - 1)
                qm = (t >> 1) + (1 if t & 1 and (t & 2 or qm & ((1 << (n - 1)) - 1)) else 0)
                qe += n
                # (d - x) - square / pivot
                if ae > qe:
                    pm, pe = (am << (ae - qe)) - qm, qe
                else:
                    pm, pe = am - (qm << (qe - ae)), ae
                n = pm.bit_length() - prec
                if n > 0:
                    t = pm >> (n - 1)
                    pm = (t >> 1) + (1 if t & 1 and (t & 2 or pm & ((1 << (n - 1)) - 1)) else 0)
                    pe += n
            else:
                pm, pe = am, ae
        return count + (pm < 0)
    # only the diagonal and the inner bands are updated, so only they are copied
    diag = [_sub(v, x, prec) for v in bands[0]]
    work = [diag] + [list(band) for band in bands[1:k]] + [bands[k]]
    # elimination of row i subtracts u_j u_c / pivot from entry (i+j, i+c);
    # entries past the matrix edge stay zero and feed nothing, so they are
    # skipped; the last update, u_k u_k into the diagonal, reads the squares
    updates = [(c - j, j, c) for c in range(1, k + 1) for j in range(1, c + 1)]
    for i in range(m):
        pm, pe = diag[i]
        count += pm < 0
        if not pm:
            pm, pe = tiny
        pbits = pm.bit_length()
        for dst, j, c in updates:
            if i + c >= m:
                break
            if j < k:
                (um, ue), (vm, ve) = work[j][i], work[c][i]
                am, ae = um * vm, ue + ve
                n = am.bit_length() - prec
                if n > 0:
                    t = am >> (n - 1)
                    am = (t >> 1) + (1 if t & 1 and (t & 2 or am & ((1 << (n - 1)) - 1)) else 0)
                    ae += n
                if not am:
                    continue  # subtracting an exact zero leaves the entry as it is
            else:
                am, ae = squares[i]
                if not am:
                    continue
            # product / pivot, rounded from prec + 5 bits or more with a sticky bit
            extra = prec + 5 + pbits - am.bit_length()
            qm, rem = divmod(am << extra, pm)
            qe = ae - pe - extra
            if rem:
                qm = qm << 1 | 1
                qe -= 1
            n = qm.bit_length() - prec
            t = qm >> (n - 1)
            qm = (t >> 1) + (1 if t & 1 and (t & 2 or qm & ((1 << (n - 1)) - 1)) else 0)
            qe += n
            # entry - product / pivot
            row = work[dst]
            rm, re = row[i + j]
            if re > qe:
                rm, re = (rm << (re - qe)) - qm, qe
            else:
                rm, re = rm - (qm << (qe - re)), re
            n = rm.bit_length() - prec
            if n > 0:
                t = rm >> (n - 1)
                rm = (t >> 1) + (1 if t & 1 and (t & 2 or rm & ((1 << (n - 1)) - 1)) else 0)
                re += n
            row[i + j] = rm, re
    return count


def _dps_to_prec(dps: int) -> int:
    """Bits of a dps-digit working precision, by mpmath's dps_to_prec formula."""
    return round((dps + 1) * 3.3219280948873626)


def _from_float(x: float, prec: int) -> tuple[int, int]:
    """x as a pair rounded at prec bits, as mpf(x) converts it: exactly from 53 bits up."""
    num, den = float(x).as_integer_ratio()
    return _round(num, 1 - den.bit_length(), prec)


def _inverse_power_of_ten(k: int, prec: int) -> tuple[int, int]:
    """10^-k, k >= 1, as libmp's mpf(10) ** (-k): 1 / (10^k rounded at prec + 5 bits) at prec.

    At k = 960 and 480 digits that is not the correctly rounded 10^-k.
    """
    return _div((1, 0), _round(10**k, 0, prec + 5), prec)


def _gap_float(top: Fraction, bottom: Fraction, prec: int) -> float:
    """float(mpf(top) - mpf(bottom)) at prec bits, for dyadic top and bottom.

    The difference is rounded at prec bits, as the mpf subtraction rounds
    it, then at 53 bits and, below the normal range, once more by ldexp, as
    float(mpf) converts it.
    """
    gap = top - bottom
    man, exp = _round(gap.numerator, 1 - gap.denominator.bit_length(), prec)
    return math.ldexp(*_round(man, exp, 53))


def _raw_bands(bands, prec: int):
    """Float bands as (signed mantissa, exponent) pairs at prec bits.

    The squares of the outermost band are appended, formed by _mul once per
    bisection instead of once per count.  Raises ValueError on a NaN or
    infinite entry, which has no pair.
    """
    for b, band in enumerate(bands):
        bad = np.flatnonzero(~np.isfinite(band))
        if bad.size:
            raise ValueError(f"band {b} entry {bad[0]} is {band[bad[0]]}; "
                             "the bisection needs finite entries")
    raw = [[_from_float(x, prec) for x in band] for band in bands]
    raw.append([_mul(v, v, prec) for v in raw[-1]])
    return raw


def _midpoint(lo, hi, prec: int) -> tuple[int, int]:
    """(lo + hi) / 2 as the mpf operators give it, in canonical form."""
    man, exp = _sub(lo, (-hi[0], hi[1]), prec)
    return _canonical((man, exp - 1))


def _band_eigenvalue_mp(bands, k: int | tuple[int, ...], scale: float, dps: int):
    """Eigenvalue of rank k at dps digits from float bands; a tuple of ranks gives a tuple.

    scale bounds the spectral radius.  The bracket, the tolerance and every
    midpoint are (signed mantissa, exponent) pairs rounded as the mpf
    operators round them.  Every rank bisects from the same bracket, so the
    counts are memoised on the midpoint's canonical pair: two ranks share
    every count until a midpoint falls between their eigenvalues, and each
    takes the decisions it would take alone.
    """
    if dps < 9:
        raise ValueError(f"dps must be at least 9, got {dps}: below that the "
                         "bisection tolerance (radius + 1) 10^-(dps-8) can reach the bracket")
    ranks = k if isinstance(k, tuple) else (k,)
    prec = _dps_to_prec(dps)
    bands = _raw_bands(bands, prec)
    tiny = _inverse_power_of_ten(2 * dps, prec)
    top = _sub(_from_float(scale, prec), (-1, 0), prec)  # the radius, mpf(scale) + 1
    tol = _mul(_sub(top, (-1, 0), prec), _inverse_power_of_ten(dps - 8, prec), prec)
    counts: dict[tuple[int, int], int] = {}
    out = []
    for rank in ranks:
        lo, hi = (-top[0], top[1]), top
        # hi - lo > tol as mpf decides it: rounding keeps the sign of round(hi - lo) - tol
        while _sub(_sub(hi, lo, prec), tol, prec)[0] > 0:
            mid = _midpoint(lo, hi, prec)
            if mid not in counts:
                counts[mid] = _band_inertia(bands, mid, tiny, prec)
            if counts[mid] >= rank + 1:
                hi = mid
            else:
                lo = mid
        man, exp = _midpoint(lo, hi, prec)
        out.append(Fraction(man) * Fraction(2) ** exp)
    return tuple(out) if isinstance(k, tuple) else out[0]


def tridiag_eigenvalue_mp(m: SymTridiag, k: int | tuple[int, ...], dps: int = DEFAULT_DPS):
    """k-th ascending eigenvalue (0-based) by inertia bisection at dps digits.

    The eigenvalue comes back as an exact Fraction, equal to the mpf value
    the same bisection gives in mpmath.  k may also be a tuple of ranks; their
    eigenvalues come back as a tuple from one shared bisection.  Raises
    ValueError below 9 digits or on a NaN or infinite entry.
    """
    return _band_eigenvalue_mp([m.diag, m.offdiag], k, m.norm_estimate(), dps)


def dense_eigenvalue_mp(a: np.ndarray, k: int | tuple[int, ...], dps: int = DEFAULT_DPS):
    """k-th ascending eigenvalue of a symmetric matrix, bisected on its band.

    The bandwidth is the farthest diagonal holding a nonzero entry; k may be
    a tuple of ranks, as in tridiag_eigenvalue_mp, and the values are exact
    Fractions.  Raises ValueError unless the matrix is square, finite and
    symmetric to 1e-13, and below 9 digits, as tridiag_eigenvalue_mp does.
    """
    a = check_dense_symmetric(a)
    rows, cols = np.nonzero(a)
    width = int(np.max(np.abs(rows - cols), initial=0))
    bands = [np.diagonal(a, b) for b in range(width + 1)]
    return _band_eigenvalue_mp(bands, k, float(np.max(np.sum(np.abs(a), axis=1))), dps)


def _above_floor(gap: float, dps: int) -> bool:
    """Whether a splitting bisected at dps digits clears that precision's floor."""
    return gap > 10.0 ** (-(dps - 12))


def _spectrum(matrix):
    """(double eigenvalues, norm scale, mp eigenvalue function) of a chain or dense matrix."""
    if isinstance(matrix, SymTridiag):
        return eigh_tridiag(matrix).eigenvalues, matrix.norm_estimate(), tridiag_eigenvalue_mp
    w, _ = eigh_dense_symmetric(matrix)
    return w, float(np.max(np.sum(np.abs(matrix), axis=1))), dense_eigenvalue_mp


def _pair_splitting(matrix, pair: tuple[int, int]) -> tuple[float, int]:
    """Eigenvalue difference for the ranked pair and the digits it was judged at.

    A double gap above DOUBLE_FLOOR counts as DEFAULT_DPS digits; a smaller
    one is bisected from DEFAULT_DPS digits, doubling them up to MAX_DPS
    while it stays below the floor.
    """
    lo, hi = pair
    w, scale, eigenvalue_mp = _spectrum(matrix)
    gap = float(w[hi] - w[lo])
    dps = DEFAULT_DPS
    if gap > DOUBLE_FLOOR * max(scale, 1.0):
        return gap, dps
    while True:
        top, bottom = eigenvalue_mp(matrix, (hi, lo), dps)
        gap = _gap_float(top, bottom, _dps_to_prec(dps))
        if _above_floor(gap, dps) or dps >= MAX_DPS:
            return gap, dps
        dps *= 2


def measure_splitting(
    matrix_family: Callable[[float], SymTridiag | np.ndarray],
    pair: tuple[int, int],
    deltas,
) -> SplittingFit:
    """Fit log(splitting) against log(delta) for one degenerate pair.

    matrix_family(delta) builds the perturbed matrix; pair gives the 0-based
    ascending ranks of the two levels, which must coincide exactly at
    delta = 0.  Each splitting is bisected at the fewest doublings of
    DEFAULT_DPS digits that lift it above their floor; one still below the
    floor at MAX_DPS digits is masked and excluded from the fit.  If fewer
    than MIN_FIT_POINTS survive this is a numerical error.
    """
    deltas = np.asarray(sorted(deltas), dtype=float)
    if deltas.size < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} perturbation strengths")
    if np.any(deltas <= 0.0):
        raise ValueError("perturbation strengths must be positive")
    w0 = _spectrum(matrix_family(0.0))[0]
    if abs(w0[pair[0]] - w0[pair[1]]) > 0.0:
        raise ValueError(
            f"pair {pair} is not degenerate at delta = 0: "
            f"{w0[pair[0]]!r} vs {w0[pair[1]]!r}"
        )
    points = [_pair_splitting(matrix_family(float(d)), pair) for d in deltas]
    splittings = np.array([gap for gap, _ in points])
    digits = np.array([dps for _, dps in points])
    below = np.array([not _above_floor(gap, dps) for gap, dps in points])
    good = ~below
    if np.count_nonzero(good) < MIN_FIT_POINTS:
        raise NumericalError(
            "too few splittings above the extended-precision floor "
            f"({np.count_nonzero(good)} of {deltas.size} at up to {MAX_DPS} digits); "
            "raise delta"
        )
    x = np.log(deltas[good])
    y = np.log(splittings[good])
    coeffs = np.polyfit(x, y, 1)
    return SplittingFit(
        deltas=deltas,
        splittings=splittings,
        fitted_order=float(coeffs[0]),
        below_floor=below,
        digits=digits,
    )
