"""Perfect state transfer on the string chains.

Transfer quality between the chain ends is read off the spectrum alone:
F(t) = |sum_i a_i exp(-i lam_i t)| with a_i = <M|lam_i><lam_i|1>, and
F_max = sum_i |a_i| bounds every t.  Mirror-symmetric chains saturate
F_max = 1, which is what the engineered couplings exploit.

One row-local kernel, fidelity_trace, evaluates F: each value is the
pairwise sum of its own row of phases, so it does not depend on the other
times in its batch, and fidelity(s, t) is its one-point case.

The two scans (measure_transfer_time, locate_fidelity_peak) screen their
whole time grid first: a GEMM factorization of the phase matrix gives every
grid value to within an a-priori bound eps.  Exact values are formed only at
the grid points whose decisions the screen cannot prove, each at most once,
so every value that decides a branch has fidelity_trace's bits and each scan
returns what it would return on the full exact trace.  The golden sections
of a peak search run in lockstep, one fidelity_trace call per step.  The
peak returned is the earliest peak whose value is within the scan's rounding
tolerance of the best value, so on a mirror-symmetric chain it is the first
mirror time, not a later revival that rounds an ulp higher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralData

__all__ = [
    "TransferResult",
    "christandl_couplings",
    "fidelity",
    "fidelity_trace",
    "f_max",
    "time_grid",
    "measure_transfer_time",
    "locate_fidelity_peak",
]


@dataclass(frozen=True)
class TransferResult:
    """Summary numbers for one transfer experiment."""

    f_max: float
    transfer_time: float  # nan when the threshold was never reached
    reached: bool


def christandl_couplings(N: int) -> np.ndarray:
    """Engineered hop profile J_i = (2/(N-1)) sqrt((i+1)(N-2-i)), i = 0..N-3.

    The resulting N-1 site chain is a rescaled spin-(N-2)/2 rotation
    generator with an equally spaced spectrum, so it mirrors perfectly at
    t = pi (N-1) / 4 per unit hopping strength.
    """
    if N < 3:
        raise ValueError("christandl couplings need N >= 3")
    i = np.arange(N - 2, dtype=float)
    return 2.0 / (N - 1) * np.sqrt((i + 1.0) * (N - 2.0 - i))


# Phase entries formed at once by fidelity_trace: 4 MiB of complex128, so a
# scan's temporaries stay a few MiB however long its time grid is.
TRACE_BLOCK_ELEMENTS = 1 << 18

# The screen's error bound is SCREEN_ERROR_FACTOR * eps_mach * (max t *
# max|lam| + dim) * sum|a|: phase rounding grows with t * lam and the sums
# with dim.  fidelity_trace's row sum is pairwise, fewer than dim additions
# deep (Higham, Accuracy and Stability of Numerical Algorithms, 4.2), and a
# row of the screen's GEMM at most dim deep.  Counting those with the
# roundings of the phases, exps, products and abs gives a factor below 18
# in units of eps_mach / 2; 64 eps_mach leaves a margin of 7.
SCREEN_ERROR_FACTOR = 64.0


def fidelity_trace(s: SpectralData, times: np.ndarray) -> np.ndarray:
    """F(t) = |sum_i a_i exp(-i lam_i t)| at every entry of times.

    Each value is the pairwise sum of its own row of phases, so it does not
    depend on the other times in the batch: any split of times returns the
    same bits, and fidelity(s, t) is the one-point case.  Rows are formed
    TRACE_BLOCK_ELEMENTS phases at a time in one reused buffer.
    """
    times = np.asarray(times, dtype=float).ravel()
    lam, a = s.eigenvalues, s.amplitudes
    rows = max(1, TRACE_BLOCK_ELEMENTS // lam.size)
    phase = -1j * lam
    buf = np.empty((min(rows, times.size), lam.size), dtype=complex)
    out = np.empty(times.size)
    for k in range(0, times.size, rows):
        chunk = times[k:k + rows, None]
        p = np.multiply(phase, chunk, out=buf[: chunk.shape[0]])
        np.exp(p, out=p)
        p *= a
        np.abs(np.sum(p, axis=1), out=out[k:k + rows])
    return out


def fidelity(s: SpectralData, t: float) -> float:
    """F(t) = |sum_i exp(-i lam_i t) a_i| at a single time."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return float(fidelity_trace(s, np.array([t]))[0])


def f_max(s: SpectralData) -> float:
    """Upper bound sum_i |a_i| on the transfer fidelity."""
    return float(np.sum(np.abs(s.amplitudes)))


def time_grid(s: SpectralData, t_max: float, oversample: float = 4.0) -> np.ndarray:
    """Scan grid over [0, t_max] with spacing at most pi / (oversample * width).

    That oversamples the fastest oscillation of F; a flat spectrum gets the
    two end points.
    """
    width = s.spectral_width
    if width <= 0.0:
        return np.array([0.0, t_max])
    dt = math.pi / (oversample * width)
    n = int(math.ceil(t_max / dt)) + 1
    return np.linspace(0.0, t_max, max(n, 2))


def _screen(s: SpectralData, times: np.ndarray) -> tuple[np.ndarray, float]:
    """G over times, and eps with |G - fidelity_trace(s, times)| <= eps.

    With B = isqrt(n), time j*B + r is taken as times[j*B] + (times[r] -
    times[0]), so G = |(exp(-1j outer(times[::B], lam)) * a) @
    exp(-1j outer(lam, times[:B] - times[0]))| costs 2 sqrt(n) dim
    exponentials and one GEMM, against n dim exponentials for the trace.
    eps bounds the roundings of both computations, plus the split's own
    error in t, measured on the grid.
    """
    n = times.size
    B = math.isqrt(n)
    lam, a = s.eigenvalues, s.amplitudes
    starts = times[::B]
    offsets = times[:B] - times[0]
    coarse = np.multiply(-1j, np.outer(starts, lam))
    np.exp(coarse, out=coarse)
    coarse *= a
    fine = np.multiply(-1j, np.outer(lam, offsets))
    np.exp(fine, out=fine)
    g = np.abs(coarse @ fine).ravel()[:n]
    split = np.add.outer(starts, offsets).ravel()[:n]
    lam_max = float(np.max(np.abs(lam)))
    drift = float(np.max(np.abs(split - times)))
    rounding = SCREEN_ERROR_FACTOR * np.finfo(float).eps * (float(np.max(np.abs(times))) * lam_max + lam.size)
    return g, (rounding + drift * lam_max) * f_max(s)


class _ScanValues:
    """F over one scan grid: a screen value at every point, exact ones on demand.

    A screened decision compares values that may each be off by eps, so a
    decision is taken on the screen only when it holds with tol = 3 eps to
    spare (the third eps covers the rounding of the bounds themselves, a
    few ulps of sum|a|).
    """

    def __init__(self, s: SpectralData, times: np.ndarray):
        self.s, self.times = s, times
        self.values = np.empty(times.size)
        self.known = np.zeros(times.size, dtype=bool)
        self.screen, eps = _screen(s, times)
        self.tol = 3.0 * eps

    def exact(self, idx) -> np.ndarray:
        """fidelity_trace's values at idx; each grid point is evaluated once."""
        todo = np.unique(idx)
        todo = todo[~self.known[todo]]
        self.known[todo] = True
        self.values[todo] = fidelity_trace(self.s, self.times[todo])
        return self.values[idx]


def _lipschitz(s: SpectralData) -> float:
    """Bound on |dF/dt|, with the free spectral offset chosen optimally."""
    lam = s.eigenvalues
    mid = 0.5 * (lam[0] + lam[-1])
    return float(np.sum(np.abs(s.amplitudes) * np.abs(lam - mid)))


def measure_transfer_time(s: SpectralData, threshold: float, t_max: float) -> TransferResult:
    """Scan F(t) up to t_max and report the first crossing of threshold.

    A base grid with spacing pi / (4 * spectral width) oversamples the
    fastest fidelity oscillation; windows that could still reach the
    threshold (by the Lipschitz bound lip on F) are subdivided in time order
    down to the width w_min = (1 - threshold) / (4 * lip), floored at
    1e-12 * t_max.  A window at most that wide with neither end at the
    threshold is dropped, so a peak inside it that exceeds the threshold by
    less than lip * w_min / 2 (= (1 - threshold) / 8 above the floor) may be
    missed.  So the crossing returned is not always the global first
    crossing; it lies at most w_min after the first time F reaches
    threshold + lip * w_min / 2.  Windows the screen proves out of reach are
    skipped without exact values.  A miss is reported in the result
    (reached=False), not raised.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    times = time_grid(s, t_max)
    scan = _ScanValues(s, times)
    lip = _lipschitz(s)
    # smallest window still split: between two ends below the threshold, a
    # peak in it exceeds the threshold by less than lip * w_min / 2, an
    # eighth of the remaining headroom
    w_min = max((1.0 - threshold) / (4.0 * lip), 1e-12 * t_max) if lip > 0 else t_max
    g = scan.screen
    reach = np.maximum(g[:-1], g[1:]) + lip * np.diff(times) * 0.5
    crossing = None
    for k in np.flatnonzero(reach >= threshold - scan.tol):  # in time order
        fa, fb = scan.exact([k, k + 1])
        crossing = _window_crossing(
            s, threshold, lip, w_min, (float(times[k]), float(times[k + 1]), float(fa), float(fb))
        )
        if crossing is not None:
            return TransferResult(f_max(s), crossing, True)
    return TransferResult(f_max(s), math.nan, False)


def _window_crossing(s: SpectralData, threshold: float, lip: float, w_min: float,
                     window: tuple[float, float, float, float]) -> float | None:
    """First crossing of threshold in one base window (a, b, F(a), F(b)), or None."""
    work = [window]
    while work:
        a, b, fa, fb = work.pop()
        if max(fa, fb) + lip * (b - a) * 0.5 < threshold:
            continue
        if fa >= threshold:
            return a
        if b - a <= w_min:
            if fb >= threshold:
                lo, hi = a, b
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if fidelity(s, mid) >= threshold:
                        hi = mid
                    else:
                        lo = mid
                return hi
            continue
        mid = 0.5 * (a + b)
        fm = fidelity(s, mid)
        work.append((mid, b, fm, fb))
        work.append((a, mid, fa, fm))
    return None


def locate_fidelity_peak(s: SpectralData, t_max: float) -> tuple[float, float]:
    """Earliest (t*, F(t*)) within rounding of the best value over [0, t_max].

    The grid best is the first grid point at the grid maximum.  Every
    base-grid window whose Lipschitz bound beats that maximum is refined by
    golden-section search, and each run of adjacent refined windows is one
    peak, valued at its largest refined value; the grid best stands for its
    own peak when it lies before a run, or inside one without being beaten.
    The earliest peak within the scan's tol (3 eps) of the best value found
    wins.  Only the grid points and windows the screen cannot rule out get
    exact values, and the golden sections run in lockstep.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    times = time_grid(s, t_max, oversample=8.0)
    scan = _ScanValues(s, times)
    lip = _lipschitz(s)
    g = scan.screen
    top = float(np.max(g)) - scan.tol
    points = np.flatnonzero(g >= top)
    windows = np.flatnonzero(0.5 * (g[:-1] + g[1:]) + lip * np.diff(times) * 0.5 >= top)
    scan.exact(np.concatenate([points, windows, windows + 1]))
    f = scan.values
    best = points[np.argmax(f[points])]
    bounds = 0.5 * (f[windows] + f[windows + 1]) + lip * np.diff(times)[windows] * 0.5
    refine = windows[bounds > f[best]]
    t_ref, f_ref = _golden_sections(s, times[refine], times[refine + 1])
    floor = max(f[best], f_ref.max(initial=-np.inf)) - scan.tol
    # one run of adjacent refined windows is one peak, taken in time order
    for run in np.split(np.arange(refine.size), np.flatnonzero(np.diff(refine) > 1) + 1):
        if not run.size:
            continue
        k = run[np.argmax(f_ref[run])]
        first, last = refine[run[0]], refine[run[-1]] + 1
        grid_first = best < first or (best <= last and f[best] >= f_ref[k])
        if grid_first and f[best] >= floor:
            break
        if f_ref[k] >= floor:
            return float(t_ref[k]), float(f_ref[k])
    return float(times[best]), float(f[best])


def _golden_sections(s: SpectralData, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maxima (t, F(t)) of F on the windows [a_w, b_w].

    All windows run in lockstep, each with its own stopping test and the
    arithmetic of a one-window search; every step evaluates the live windows
    in one batch.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = np.split(fidelity_trace(s, np.concatenate([c, d])), 2)
    live = np.arange(a.size)
    for _ in range(200):
        if not live.size:
            break
        up = fc[live] > fd[live]
        u, v = live[up], live[~up]
        b[u], d[u], fd[u] = d[u], c[u], fc[u]
        c[u] = b[u] - invphi * (b[u] - a[u])
        a[v], c[v], fc[v] = c[v], d[v], fd[v]
        d[v] = a[v] + invphi * (b[v] - a[v])
        fresh = fidelity_trace(s, np.concatenate([c[u], d[v]]))
        fc[u], fd[v] = fresh[: u.size], fresh[u.size:]
        live = live[~(b[live] - a[live] < 1e-14 * np.maximum(1.0, np.abs(b[live])))]
    t = 0.5 * (a + b)
    return t, fidelity_trace(s, t)
