"""Full-spectrum eigensolvers for the string chains.

Three paths feed one result type:

* unreduced generic tridiagonals go to LAPACK, whose eigenvectors are only
  accurate in absolute terms; the endpoint components of every eigenpair
  with a first or last weight below ``ENDPOINT_WEIGHT_FLOOR`` are then
  recomputed from a twisted factorization at LAPACK's eigenvalue, which gives
  them relative accuracy (eigenvalues closer to a neighbour than about
  ``sqrt(eps) * |T|`` keep LAPACK's components);
* exact zeros on the off-diagonal split the matrix into unreduced blocks
  first, so degenerate block spectra never mix;
* exactly persymmetric chains with positive couplings are folded into their
  mirror-even and mirror-odd halves.  The halves interlace strictly, which
  pins the eigenvalue order and makes the endpoint relation
  ``<M|lam_k> = (-1)^(M-k) <lam_k|1>`` hold to machine precision even when a
  pair is numerically degenerate.

Endpoint sign convention: the first nonzero component of every eigenvector
is made positive, eigenvalues ascend, and indices are 0-based (so the
alternating endpoint relation reads ``last = (-1)^(M-1-i) * first``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .effective import SymTridiag

__all__ = [
    "SpectralData",
    "NumericalError",
    "eigh_tridiag",
    "eigh_dense_symmetric",
    "check_dense_symmetric",
    "min_gap",
]

DENSE_DIM_CAP = 4096
# squared endpoint component below which the generic path recomputes the
# eigenpair's endpoints with relative accuracy
ENDPOINT_WEIGHT_FLOOR = 1e-10


class NumericalError(RuntimeError):
    """An eigensolve or reconstruction failed to converge or broke down."""


@dataclass(frozen=True)
class SpectralData:
    """Spectrum plus the eigenvector endpoint data used for transfer.

    On the generic path an endpoint component whose square is below
    ``ENDPOINT_WEIGHT_FLOOR`` carries relative accuracy, not just absolute
    accuracy, unless its eigenvalue is numerically clustered.
    """

    eigenvalues: np.ndarray
    first_components: np.ndarray
    last_components: np.ndarray

    @property
    def amplitudes(self) -> np.ndarray:
        """Transfer amplitudes a_i = <M|lam_i><lam_i|1>."""
        return self.first_components * self.last_components

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def spectral_width(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    # the lead is each column's first entry with |v| > 0 (NaN never leads);
    # an all-zero column leads with its zero first entry and stays unflipped
    lead = np.argmax(np.abs(vecs) > 0.0, axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0
    vecs[:, flip] = -vecs[:, flip]
    return vecs


def _lapack_tridiag(diag: np.ndarray, off: np.ndarray):
    if diag.size == 1:
        return diag.copy(), np.ones((1, 1))
    try:
        w, v = sla.eigh_tridiagonal(diag, off)
    except (sla.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(
            f"tridiagonal eigensolve failed for dim {diag.size}: {exc}"
        ) from exc
    return w, _fix_signs(v)


def _persymmetric_split(diag: np.ndarray, off: np.ndarray) -> SpectralData:
    """Half-size solves for an exactly persymmetric positive chain.

    Mirror-even states fold to the first half with the centre coupling added
    (even M) or routed through the middle site with sqrt(2) scaling (odd M);
    mirror-odd states fold with the centre coupling subtracted or the middle
    site pinned to zero.  Cauchy interlacing orders the merged spectrum.
    """
    M = diag.size
    m = M // 2
    e = (M - 1) % 2  # mirror-even levels take every other slot counted down from the top
    ds = diag[: M - m].copy()
    os_ = off[: M - m - 1].copy()
    da = diag[:m].copy()
    if e:
        ds[-1] += off[m - 1]
        da[-1] -= off[m - 1]
    else:
        os_[-1] *= np.sqrt(2.0)
    # only the first row of each half's eigenvectors is kept, so the even
    # half's vectors are freed before the odd half is solved
    ws, vs = _lapack_tridiag(ds, os_)
    fs = np.abs(vs[0, :]) / np.sqrt(2.0)
    del vs
    wa, va = _lapack_tridiag(da, off[: m - 1].copy())
    fa = np.abs(va[0, :]) / np.sqrt(2.0)
    lam = np.empty(M)
    first = np.empty(M)
    last = np.empty(M)
    lam[e::2], lam[1 - e::2] = ws, wa
    first[e::2], first[1 - e::2] = fs, fa
    last[e::2], last[1 - e::2] = fs, -fa
    # strict interlacing can round to exact ties for deeply split pairs
    slack = 64.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(lam))))
    if np.any(np.diff(lam) < -slack):
        raise NumericalError("persymmetric half-spectra failed to interlace")
    return SpectralData(lam, first, last)


def eigh_tridiag(m: SymTridiag) -> SpectralData:
    """Eigenvalues (ascending) and endpoint components of a SymTridiag.

    Raises ValueError on a NaN or infinite entry, whichever path it takes.
    """
    diag = m.diag
    off = m.offdiag
    for name, entries in (("diagonal", diag), ("off-diagonal", off)):
        bad = np.flatnonzero(~np.isfinite(entries))
        if bad.size:
            raise ValueError(f"{name} entry {bad[0]} is {entries[bad[0]]}; "
                             "the chain must be finite")
    M = m.dim
    if M == 1:
        one = np.ones(1)
        return SpectralData(diag.copy(), one.copy(), one.copy())
    zeros = np.flatnonzero(off == 0.0)
    if zeros.size:
        return _block_split(diag, off, zeros)
    if m.is_persymmetric() and np.all(off > 0.0):
        return _persymmetric_split(diag, off)
    w, v = _lapack_tridiag(diag.copy(), off.copy())
    first = v[0, :].copy()
    last = v[-1, :].copy()
    # a twisted vector at lam is only well defined when lam is resolved from
    # its neighbours; inside a tighter cluster LAPACK's orthonormal basis wins
    gaps = np.diff(w)
    nearest = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    isolated = nearest > np.sqrt(np.finfo(float).eps) * np.max(np.abs(w))
    small = np.minimum(first**2, last**2) < ENDPOINT_WEIGHT_FLOOR
    refine = np.flatnonzero(small & isolated)
    if refine.size:
        first[refine], last[refine] = _twisted_endpoints(diag, off, w[refine])
    return SpectralData(w, first, last)


def _twisted_endpoints(diag: np.ndarray, off: np.ndarray, lam: np.ndarray):
    """First and last eigenvector components at the eigenvalues lam.

    For each lam, T - lam = N_r D_r N_r^T is factored from both ends at once
    (the twisted factorization of Dhillon & Parlett's MRRR), the twist r is
    the site with the smallest twist pivot gamma_r, and the eigenvector with
    z_r = 1 follows outward as products of ratios -b / pivot.  Products of
    well-conditioned factors keep tiny components to relative accuracy,
    where LAPACK's eigenvectors only bound them in absolute terms.  The
    first component is made positive, as in ``_fix_signs``.
    """
    M = diag.size
    shifted = diag[:, None] - lam[None, :]
    b2 = (off**2)[:, None]
    # an exact zero pivot is moved by one rounding unit of |T|, a
    # perturbation of lam that LAPACK's own eigenvalue already carries
    tiny = np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
    top = np.empty_like(shifted)
    bottom = np.empty_like(shifted)
    top[0] = shifted[0]
    bottom[-1] = shifted[-1]
    for i in range(M):
        j = M - 1 - i
        if i:
            top[i] = shifted[i] - b2[i - 1] / top[i - 1]
            bottom[j] = shifted[j] - b2[j] / bottom[j + 1]
        top[i][top[i] == 0.0] = tiny
        bottom[j][bottom[j] == 0.0] = tiny
    twist = np.argmin(np.abs(top + bottom - shifted), axis=0)
    site = np.arange(M)[:, None]
    above = site[:-1] < twist
    below = site[1:] > twist
    # z_i / z_(i+1) above the twist and z_i / z_(i-1) below it; 1 elsewhere
    up = np.where(above, -off[:, None] / top[:-1], 1.0)
    down = np.where(below, -off[:, None] / bottom[1:], 1.0)
    z_up = np.cumprod(up[::-1], axis=0)[::-1]
    z_down = np.cumprod(down, axis=0)
    norm2 = 1.0 + np.sum(np.where(above, z_up**2, 0.0), axis=0)
    norm2 += np.sum(np.where(below, z_down**2, 0.0), axis=0)
    scale = np.sign(z_up[0]) / np.sqrt(norm2)
    first = z_up[0] * scale
    last = z_down[-1] * scale
    if not np.all(np.isfinite(first) & np.isfinite(last) & (first != 0.0) & (last != 0.0)):
        raise NumericalError(
            f"twisted factorization gave a zero or non-finite endpoint component "
            f"for dim {M}; the component is outside the double range"
        )
    return first, last


def _block_split(diag: np.ndarray, off: np.ndarray, zeros: np.ndarray) -> SpectralData:
    M = diag.size
    bounds = np.concatenate(([0], zeros + 1, [M]))
    lam, first, last = [], [], []
    for s, e in zip(bounds[:-1], bounds[1:]):
        sub = eigh_tridiag(SymTridiag(diag[s:e], off[s : e - 1]))
        lam.append(sub.eigenvalues)
        first.append(sub.first_components if s == 0 else np.zeros(sub.dim))
        last.append(sub.last_components if e == M else np.zeros(sub.dim))
    # a stable sort keeps tied eigenvalues in block order
    order = np.argsort(np.concatenate(lam), kind="stable")
    return SpectralData(*(np.concatenate(parts)[order] for parts in (lam, first, last)))


def check_dense_symmetric(a: np.ndarray) -> np.ndarray:
    """The matrix as a float array; ValueError unless square, within
    ``DENSE_DIM_CAP``, finite and symmetric to 1e-13."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] > DENSE_DIM_CAP:
        raise ValueError(f"dimension {a.shape[0]} exceeds cap {DENSE_DIM_CAP}")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"entry ({i}, {j}) is {a[i, j]}; the matrix must be finite")
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-13:
        raise ValueError("matrix is not symmetric to 1e-13")
    return a


def eigh_dense_symmetric(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric eigensolve with the same ordering and sign rules."""
    a = check_dense_symmetric(a)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc
    return w, _fix_signs(v)


def min_gap(s: SpectralData) -> float:
    """Delta' = min_{i != j} |lam_i - lam_j| of the sorted spectrum."""
    if s.dim < 2:
        raise ValueError("need at least two eigenvalues for a gap")
    return float(np.min(np.diff(s.eigenvalues)))
