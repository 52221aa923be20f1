"""Perfect state transfer on the string chains.

Transfer quality between the chain ends is read off the spectrum alone:
F(t) = |sum_i a_i exp(-i lam_i t)| with a_i = <M|lam_i><lam_i|1>, and
F_max = sum_i |a_i| bounds every t.  Mirror-symmetric chains saturate
F_max = 1, which is what the engineered couplings exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralData, min_gap

__all__ = [
    "TransferResult",
    "christandl_couplings",
    "fidelity",
    "fidelity_trace",
    "f_max",
    "measure_transfer_time",
    "locate_fidelity_peak",
]


@dataclass(frozen=True)
class TransferResult:
    """Fidelity trace and summary numbers for one transfer experiment."""

    times: np.ndarray
    fidelities: np.ndarray
    f_max: float
    transfer_time: float  # nan when the threshold was never reached
    min_gap: float
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


def fidelity(s: SpectralData, t: float) -> float:
    """F(t) = |sum_i exp(-i lam_i t) a_i| at a single time."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return float(np.abs(np.sum(s.amplitudes * np.exp(-1j * s.eigenvalues * t))))


# Phase entries formed at once by fidelity_trace: 4 MiB of complex128, so a
# scan's temporaries stay a few MiB however long its time grid is.
TRACE_BLOCK_ELEMENTS = 1 << 18


def fidelity_trace(s: SpectralData, times: np.ndarray) -> np.ndarray:
    """F(t) = |sum_i a_i exp(-i lam_i t)| at every entry of times.

    The phase matrix exp(-1j * outer(times, lam)) is formed in blocks of
    whole rows, at most TRACE_BLOCK_ELEMENTS entries each (at least one row),
    in two buffers reused from block to block, so that blocks after the
    first write into pages already mapped.  The result is bit-identical
    to forming it in one piece: every phase is the exp of its own product,
    and every output entry is its own row-by-vector dot product, which no
    other row enters.
    """
    times = np.asarray(times, dtype=float).ravel()
    lam, a = s.eigenvalues, s.amplitudes
    rows = max(1, min(TRACE_BLOCK_ELEMENTS // lam.size, times.size))
    arg = np.empty((rows, lam.size))
    phases = np.empty((rows, lam.size), dtype=complex)
    out = np.empty(times.size)
    for k in range(0, times.size, rows):
        block = times[k:k + rows]
        p = phases[: block.size]
        np.multiply(-1j, np.outer(block, lam, out=arg[: block.size]), out=p)
        np.exp(p, out=p)
        np.abs(p @ a, out=out[k:k + rows])
    return out


def f_max(s: SpectralData) -> float:
    """Upper bound sum_i |a_i| on the transfer fidelity."""
    return float(np.sum(np.abs(s.amplitudes)))


def _time_grid(s: SpectralData, t_max: float, oversample: float = 4.0) -> np.ndarray:
    width = s.spectral_width
    if width <= 0.0:
        return np.array([0.0, t_max])
    dt = math.pi / (oversample * width)
    n = int(math.ceil(t_max / dt)) + 1
    return np.linspace(0.0, t_max, max(n, 2))


def _lipschitz(s: SpectralData) -> float:
    """Bound on |dF/dt|, with the free spectral offset chosen optimally."""
    lam = s.eigenvalues
    mid = 0.5 * (lam[0] + lam[-1])
    return float(np.sum(np.abs(s.amplitudes) * np.abs(lam - mid)))


def measure_transfer_time(s: SpectralData, threshold: float, t_max: float) -> TransferResult:
    """Scan F(t) up to t_max and report the first crossing of threshold.

    A base grid with spacing pi / (4 * spectral width) oversamples the
    fastest fidelity oscillation; windows that could still reach the
    threshold (by the Lipschitz bound on F) are subdivided in time order, so
    the first crossing found is the global first crossing.  A miss is
    reported in the result (reached=False), not raised.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    gap = min_gap(s) if s.dim >= 2 else math.nan
    times = _time_grid(s, t_max)
    fids = fidelity_trace(s, times)
    fmax = f_max(s)
    lip = _lipschitz(s)
    crossing = None
    if fids[0] >= threshold:
        crossing = 0.0
    else:
        # smallest window still worth splitting: a peak exceeding the
        # threshold by a quarter of the remaining headroom cannot hide in it
        w_min = max((1.0 - threshold) / (4.0 * lip), 1e-12 * t_max) if lip > 0 else t_max
        work = [
            (float(times[k]), float(times[k + 1]), float(fids[k]), float(fids[k + 1]))
            for k in range(times.size - 1)
        ]
        work.reverse()  # treat earliest window first
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
                        if fidelity(s, mid) >= threshold:
                            hi = mid
                        else:
                            lo = mid
                    crossing = hi
                    break
                continue
            mid = 0.5 * (a + b)
            fm = fidelity(s, mid)
            work.append((mid, b, fm, fb))
            work.append((a, mid, fa, fm))
    if crossing is None:
        return TransferResult(times, fids, fmax, math.nan, gap, False)
    return TransferResult(times, fids, fmax, float(crossing), gap, True)


def locate_fidelity_peak(s: SpectralData, t_max: float) -> tuple[float, float]:
    """Best (t*, F(t*)) over [0, t_max].

    Every base-grid window whose Lipschitz bound could beat the current best
    is refined by golden-section search; the best refined value wins.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    times = _time_grid(s, t_max, oversample=8.0)
    fids = fidelity_trace(s, times)
    lip = _lipschitz(s)
    order = np.argsort(fids[:-1] + fids[1:])[::-1]
    best_t = float(times[np.argmax(fids)])
    best_f = float(np.max(fids))
    for k in order:
        a, b = float(times[k]), float(times[k + 1])
        if 0.5 * (fids[k] + fids[k + 1]) + lip * (b - a) * 0.5 <= best_f:
            continue
        t, f = _golden_section(s, a, b)
        if f > best_f:
            best_t, best_f = t, f
    return best_t, best_f


def _golden_section(s: SpectralData, a: float, b: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fidelity(s, c), fidelity(s, d)
    for _ in range(200):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fidelity(s, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fidelity(s, d)
        if b - a < 1e-14 * max(1.0, abs(b)):
            break
    t = 0.5 * (a + b)
    return t, fidelity(s, t)
