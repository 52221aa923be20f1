"""Degenerate-perturbation splitting measurements for the string chains.

String tension shows up as eigenvalue pairs that stay degenerate until a
high order in the hopping strength: the pair at ramp position i of an
M-state chain only splits at order M+1-2i (order ceil((M+1-2i)/k) for a
k-banded perturbation).  The splittings shrink below double precision almost
immediately, so eigenvalues are also computed at extended precision by
bisection on one band LDL^T inertia count: a tridiagonal chain is
bandwidth 1, a k-banded perturbation bandwidth k, and a count costs O(M k^2).
The bisection runs in Python's decimal module at dps significant digits:
every float entry enters rounded to them, and every operation is correctly
rounded there, to nearest with ties to even.  Eigenvalues come back as exact
Decimals.  Both ranks of a pair bisect from one bracket, sharing every count
until a midpoint falls between their eigenvalues.  A bisection's result
depends only on its count decisions, so neither changes a returned
eigenvalue.  The digits are worked out per point: a bisection starts at
DEFAULT_DPS and doubles them while the splitting stays below the floor
10^-(dps-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_PREC, Context, Decimal, localcontext
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


def _band_inertia(bands, squares, x, tiny) -> int:
    """Eigenvalues strictly below x: negative pivots of the band LDL^T of T - x.

    bands[0] is the diagonal and bands[b] the b-th superdiagonal for
    b = 1..k, as Decimals; squares holds the squares of the outermost band,
    which elimination never updates, so they do not depend on x.  Every
    operation rounds in the caller's decimal context.  Elimination without
    pivoting keeps every fill-in inside the band, so the count costs
    O(M k^2) for bandwidth k; by Sylvester's law of inertia it is the Sturm
    count when k = 1.  An exactly zero pivot is replaced by the tiny
    positive one.
    """
    m = len(bands[0])
    k = len(bands) - 1
    diag = [d - x for d in bands[0]]
    # only the diagonal and the inner bands are updated, so only they are copied
    work = [diag] + [list(band) for band in bands[1:k]] + [bands[-1]]
    # elimination of row i subtracts u_j u_c / pivot from entry (i+j, i+c);
    # entries past the matrix edge stay zero and feed nothing, so they are
    # skipped; the last update, u_k u_k into the diagonal, reads the squares
    updates = [(c - j, j, c) for c in range(1, k + 1) for j in range(1, c + 1)]
    count = 0
    for i in range(m):
        piv = diag[i]
        if piv < 0:
            count += 1
        elif not piv:
            piv = tiny
        for dst, j, c in updates:
            if i + c >= m:
                break
            prod = squares[i] if j == k else work[j][i] * work[c][i]
            work[dst][i + j] -= prod / piv
    return count


def _band_eigenvalue_mp(bands, k: int | tuple[int, ...], scale: float, dps: int):
    """Eigenvalue of rank k at dps digits from float bands; a tuple of ranks gives a tuple.

    scale bounds the spectral radius.  Every float enters rounded to dps
    digits, and the bracket, the tolerance and every midpoint are rounded
    there too.  Every rank bisects from the same bracket, so the counts are
    memoised on the midpoint: two ranks share every count until a midpoint
    falls between their eigenvalues, and each takes the decisions it would
    take alone.
    """
    if dps < 9:
        raise ValueError(f"dps must be at least 9, got {dps}: below that the "
                         "bisection tolerance (radius + 1) 10^-(dps-8) can reach the bracket")
    for b, band in enumerate(bands):
        bad = np.flatnonzero(~np.isfinite(band))
        if bad.size:
            raise ValueError(f"band {b} entry {bad[0]} is {band[bad[0]]}; "
                             "the bisection needs finite entries")
    ranks = k if isinstance(k, tuple) else (k,)
    out = []
    with localcontext(Context(prec=dps)):
        bands = [[+Decimal(x) for x in band.tolist()] for band in bands]
        squares = [v * v for v in bands[-1]]
        tiny = Decimal(1).scaleb(-2 * dps)
        radius = +Decimal(scale) + 1
        tol = (radius + 1).scaleb(8 - dps)
        counts: dict[Decimal, int] = {}
        for rank in ranks:
            lo, hi = -radius, radius
            while hi - lo > tol:
                mid = (lo + hi) / 2
                if mid not in counts:
                    counts[mid] = _band_inertia(bands, squares, mid, tiny)
                if counts[mid] >= rank + 1:
                    hi = mid
                else:
                    lo = mid
            out.append((lo + hi) / 2)
    return tuple(out) if isinstance(k, tuple) else out[0]


def tridiag_eigenvalue_mp(m: SymTridiag, k: int | tuple[int, ...], dps: int = DEFAULT_DPS):
    """k-th ascending eigenvalue (0-based) by inertia bisection at dps digits.

    The eigenvalue comes back as an exact Decimal of at most dps digits.  k
    may also be a tuple of ranks; their eigenvalues come back as a tuple from
    one shared bisection.  Raises ValueError below 9 digits or on a NaN or
    infinite entry.
    """
    return _band_eigenvalue_mp([m.diag, m.offdiag], k, m.norm_estimate(), dps)


def dense_eigenvalue_mp(a: np.ndarray, k: int | tuple[int, ...], dps: int = DEFAULT_DPS):
    """k-th ascending eigenvalue of a symmetric matrix, bisected on its band.

    The bandwidth is the farthest diagonal holding a nonzero entry; k may be
    a tuple of ranks, as in tridiag_eigenvalue_mp, and the values are exact
    Decimals.  Raises ValueError unless the matrix is square, finite and
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
    while it stays below the floor, and is the float nearest the exact
    difference of the two eigenvalues.
    """
    lo, hi = pair
    w, scale, eigenvalue_mp = _spectrum(matrix)
    gap = float(w[hi] - w[lo])
    dps = DEFAULT_DPS
    if gap > DOUBLE_FLOOR * max(scale, 1.0):
        return gap, dps
    exact = Context(prec=MAX_PREC)  # a difference of two Decimals is exact there
    while True:
        top, bottom = eigenvalue_mp(matrix, (hi, lo), dps)
        gap = float(exact.subtract(top, bottom))
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
