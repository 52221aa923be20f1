"""Degenerate-perturbation splitting measurements for the string chains.

String tension shows up as eigenvalue pairs that stay degenerate until a
high order in the hopping strength: the pair at ramp position i of an
M-state chain only splits at order M+1-2i (order ceil((M+1-2i)/k) for a
k-banded perturbation).  The splittings shrink below double precision almost
immediately, so eigenvalues are also computed at extended precision by
bisection on one band LDL^T inertia count: a tridiagonal chain is
bandwidth 1, a k-banded perturbation bandwidth k, and a count costs O(M k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
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
DEFAULT_DPS = 60
MIN_FIT_POINTS = 5


@dataclass(frozen=True)
class SplittingFit:
    """Log-log fit of a splitting against the perturbation strength."""

    deltas: np.ndarray
    splittings: np.ndarray
    fitted_order: float
    stderr: float
    predicted_order: int | None
    below_floor: np.ndarray  # mask of points too small even in extended precision

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


def _band_inertia(bands, x) -> int:
    """Eigenvalues strictly below x: negative pivots of the band LDL^T of T - x.

    bands[0] is the diagonal and bands[b] the b-th superdiagonal (lists of
    mpf).  Elimination without pivoting keeps every fill-in inside the band,
    so the count costs O(M k^2) for bandwidth k; by Sylvester's law of
    inertia it is the Sturm count when k = 1.  An exactly zero pivot is
    replaced by a tiny positive one.
    """
    m = len(bands[0])
    k = len(bands) - 1
    # zero-padded past the matrix edge, so every step runs the same updates
    work = [[v - x for v in bands[0]]] + [list(band) for band in bands[1:]]
    for band in work:
        band.extend([mp.mpf(0)] * (m + k - len(band)))
    # elimination of row i subtracts u_j u_c / pivot from entry (i+j, i+c)
    updates = [(c - j, j, c) for j in range(1, k + 1) for c in range(j, k + 1)]
    diag = work[0]
    tiny = mp.mpf(10) ** (-2 * mp.mp.dps)
    count = 0
    for i in range(m):
        piv = diag[i]
        if piv == 0:
            piv = tiny
        if piv < 0:
            count += 1
        for dst, j, c in updates:
            work[dst][i + j] -= work[j][i] * work[c][i] / piv
    return count


def _bisect_eigenvalue(bands, k: int, lo, hi, tol):
    lo = mp.mpf(lo)
    hi = mp.mpf(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _band_inertia(bands, mid) >= k + 1:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def tridiag_eigenvalue_mp(m: SymTridiag, k: int, dps: int = DEFAULT_DPS):
    """k-th ascending eigenvalue (0-based) by inertia bisection at dps digits."""
    with mp.workdps(dps):
        bands = [[mp.mpf(x) for x in m.diag], [mp.mpf(x) for x in m.offdiag]]
        radius = mp.mpf(m.norm_estimate()) + 1
        tol = (radius + 1) * mp.mpf(10) ** (-(dps - 8))
        return _bisect_eigenvalue(bands, k, -radius, radius, tol)


def dense_eigenvalue_mp(a: np.ndarray, k: int, dps: int = DEFAULT_DPS):
    """k-th ascending eigenvalue of a symmetric matrix, bisected on its band.

    The bandwidth is the farthest diagonal holding a nonzero entry.  Raises
    ValueError unless the matrix is square and symmetric to 1e-13.
    """
    a = check_dense_symmetric(a)
    rows, cols = np.nonzero(a)
    width = int(np.max(np.abs(rows - cols), initial=0))
    with mp.workdps(dps):
        bands = [[mp.mpf(x) for x in np.diagonal(a, b)] for b in range(width + 1)]
        radius = mp.mpf(float(np.max(np.sum(np.abs(a), axis=1)))) + 1
        tol = (radius + 1) * mp.mpf(10) ** (-(dps - 8))
        return _bisect_eigenvalue(bands, k, -radius, radius, tol)


def _pair_splitting(matrix, pair: tuple[int, int], dps: int) -> float:
    """Eigenvalue difference for the ranked pair.

    A double-precision gap above the floor is returned as is; a smaller one
    is recomputed by bisection at the fixed ``dps`` digits.
    """
    lo, hi = pair
    if isinstance(matrix, SymTridiag):
        s = eigh_tridiag(matrix)
        w = s.eigenvalues
        scale = matrix.norm_estimate()
    else:
        w, _ = eigh_dense_symmetric(matrix)
        scale = float(np.max(np.sum(np.abs(matrix), axis=1)))
    gap = float(w[hi] - w[lo])
    if gap > DOUBLE_FLOOR * max(scale, 1.0):
        return gap
    with mp.workdps(dps):
        if isinstance(matrix, SymTridiag):
            e0 = tridiag_eigenvalue_mp(matrix, lo, dps)
            e1 = tridiag_eigenvalue_mp(matrix, hi, dps)
        else:
            e0 = dense_eigenvalue_mp(matrix, lo, dps)
            e1 = dense_eigenvalue_mp(matrix, hi, dps)
        return float(e1 - e0)


def measure_splitting(
    matrix_family: Callable[[float], SymTridiag | np.ndarray],
    pair: tuple[int, int],
    deltas,
    predicted: int | None = None,
    dps: int = DEFAULT_DPS,
) -> SplittingFit:
    """Fit log(splitting) against log(delta) for one degenerate pair.

    matrix_family(delta) builds the perturbed matrix; pair gives the 0-based
    ascending ranks of the two levels, which must coincide exactly at
    delta = 0.  Splittings below the extended-precision floor are masked and
    excluded from the fit; if fewer than MIN_FIT_POINTS survive this is a
    numerical error.
    """
    deltas = np.asarray(sorted(deltas), dtype=float)
    if deltas.size < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} perturbation strengths")
    if np.any(deltas <= 0.0):
        raise ValueError("perturbation strengths must be positive")
    base = matrix_family(0.0)
    if isinstance(base, SymTridiag):
        w0 = eigh_tridiag(base).eigenvalues
    else:
        w0, _ = eigh_dense_symmetric(base)
    if abs(w0[pair[0]] - w0[pair[1]]) > 0.0:
        raise ValueError(
            f"pair {pair} is not degenerate at delta = 0: "
            f"{w0[pair[0]]!r} vs {w0[pair[1]]!r}"
        )
    floor = 10.0 ** (-(dps - 12))
    splittings = np.empty(deltas.size)
    below = np.zeros(deltas.size, dtype=bool)
    for idx, d in enumerate(deltas):
        gap = _pair_splitting(matrix_family(float(d)), pair, dps)
        splittings[idx] = gap
        below[idx] = not (gap > floor)
    good = ~below
    if np.count_nonzero(good) < MIN_FIT_POINTS:
        raise NumericalError(
            "too few splittings above the extended-precision floor "
            f"({np.count_nonzero(good)} of {deltas.size}); raise dps or delta"
        )
    x = np.log(deltas[good])
    y = np.log(splittings[good])
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return SplittingFit(
        deltas=deltas,
        splittings=splittings,
        fitted_order=float(coeffs[0]),
        stderr=float(np.sqrt(cov[0, 0])),
        predicted_order=predicted,
        below_floor=below,
    )
