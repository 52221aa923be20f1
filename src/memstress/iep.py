"""Eigenvalue retuning and Jacobi-matrix reconstruction.

Given a chain with amplitudes a_i, a transfer time t is fixed and every
eigenvalue is snapped onto the pi/t lattice, then nudged by at most one
lattice step so that exp(-i lam_i t) = exp(i theta) sign(a_i) holds with a
single global theta.  A symmetric tridiagonal matrix with the retuned
spectrum is then rebuilt, which realizes perfect transfer at the chosen t
while moving each coupling only O(1/t).

A persymmetric Jacobi matrix is fixed by its spectrum alone (Hald 1976), and
the mirror folds it into two half-size chains whose spectra interlace (see
spectral._persymmetric_split).  retune_chain runs that fold backwards: one
Lanczos reconstruction (de Boor & Golub 1978) of the ceil(M/2)-site
mirror-even half, about (M/2)^3 work instead of M^3, then a mirrored copy.
reconstruct_jacobi itself stays general, for any spectrum and weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .effective import SymTridiag
from .spectral import NumericalError, SpectralData, eigh_tridiag, min_gap

__all__ = [
    "RetunePlan",
    "retune_eigenvalues",
    "reconstruct_jacobi",
    "mirror_symmetric_weights",
    "retune_chain",
]

MIN_TIME_FACTOR = 10.0


@dataclass(frozen=True)
class RetunePlan:
    """Record of one retuning: the grid time, phase, and eigenvalue moves."""

    t: float
    theta: float
    original: np.ndarray
    retuned: np.ndarray

    @property
    def shifts(self) -> np.ndarray:
        return self.retuned - self.original


def retune_eigenvalues(s: SpectralData, t: float) -> RetunePlan:
    """Snap the spectrum onto the pi/t grid with the parity pattern sign(a).

    Grid phases are all +-1 at time t, so only the parity of each grid index
    matters.  Level 0 anchors the global phase; any level whose parity
    disagrees moves one step toward the side it was rounded away from, which
    keeps every shift within one grid interval of the original eigenvalue.
    t must be at least MIN_TIME_FACTOR * pi / min_gap, and max|lam| t / pi
    below 2**53 (NumericalError otherwise).
    """
    lam = s.eigenvalues
    a = s.amplitudes
    if np.any(a == 0.0):
        raise ValueError("degenerate amplitude: some a_i is exactly zero")
    if s.dim >= 2:
        bound = MIN_TIME_FACTOR * math.pi / min_gap(s)
        if t < bound:
            raise ValueError(
                f"t = {t:g} below the enforced bound {bound:g} "
                f"(= {MIN_TIME_FACTOR:g} * pi / min_gap)"
            )
    elif t <= 0.0:
        raise ValueError("t must be positive")
    g = math.pi / t
    x = lam / g
    reach = float(np.max(np.abs(x)))
    if reach >= 2.0**53:  # every float there is even, so no parity can be fixed
        raise NumericalError(
            f"max|lam| t / pi = {reach:.3e} reaches 2**53, where grid indices "
            "lose their parity; t is too large to retune"
        )
    m = np.rint(x).astype(np.int64)
    signs = np.sign(a)
    target = (1 - 2 * (m[0] & 1)) * signs[0]
    for i in range(1, lam.size):
        if (1 - 2 * (m[i] & 1)) * signs[i] != target:
            frac = x[i] - m[i]
            m[i] += 1 if frac >= 0.0 else -1
    retuned = m * g
    if np.any(np.diff(retuned) <= 0.0):
        raise NumericalError(
            "retuned spectrum lost strict ordering; t is too close to the bound"
        )
    theta = 0.0 if target > 0 else math.pi
    return RetunePlan(t=t, theta=theta, original=lam.copy(), retuned=retuned)


def reconstruct_jacobi(retuned: np.ndarray, weights: np.ndarray) -> SymTridiag:
    """Unique unreduced Jacobi matrix with the given spectrum and weights.

    weights are the squared first eigenvector components.  The matrix is
    rebuilt by running the orthogonalization recurrence for the discrete
    measure sum_k w_k delta(lam_k): Lanczos on diag(retuned) started from
    sqrt(w), with two full reorthogonalization sweeps per step.
    """
    lam = np.asarray(retuned, dtype=float)
    w = np.asarray(weights, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("spectrum must be a nonempty 1-d array")
    if w.shape != lam.shape:
        raise ValueError("weights must match the spectrum in length")
    if np.any(np.diff(lam) <= 0.0):
        raise ValueError("spectrum must be strictly ascending")
    if np.any(w <= 0.0):
        raise ValueError("weights must be positive")
    total = w.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    w = w / total
    M = lam.size
    q = np.sqrt(w)
    basis = np.zeros((M, M))
    basis[:, 0] = q
    alpha = np.zeros(M)
    beta = np.zeros(max(M - 1, 0))
    floor = M * 1e-14 * max(1.0, float(np.max(np.abs(lam))))  # breakdown below this norm
    for j in range(M):
        v = lam * basis[:, j]
        alpha[j] = basis[:, j] @ v
        v -= alpha[j] * basis[:, j]
        if j > 0:
            v -= beta[j - 1] * basis[:, j - 1]
        for _ in range(2):
            v -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ v)
        if j < M - 1:
            nrm = float(np.linalg.norm(v))
            if nrm <= floor:
                raise NumericalError(
                    f"reconstruction breakdown at step {j + 1}/{M}: residual "
                    f"norm {nrm:.3e}; the measure does not support dimension {M}"
                )
            beta[j] = nrm
            basis[:, j + 1] = v / nrm
    return SymTridiag(alpha, beta)


def mirror_symmetric_weights(eigenvalues: np.ndarray) -> np.ndarray:
    """Spectral weights of the unique persymmetric chain with this spectrum.

    For a mirror-symmetric Jacobi matrix |<lam_k|1>|^2 is proportional to
    1/|p'(lam_k)| with p the characteristic polynomial; evaluated in log
    space so closely spaced spectra do not underflow.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(np.diff(lam) <= 0.0):
        raise ValueError("spectrum must be strictly ascending")
    diffs = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(diffs, 1.0)
    logw = -np.sum(np.log(diffs), axis=1)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def retune_chain(m: SymTridiag, t: float) -> tuple[SymTridiag, RetunePlan]:
    """Retune a mirror-symmetric chain for perfect transfer at time t.

    The spectrum is snapped by retune_eigenvalues and the unique
    mirror-symmetric chain with the retuned spectrum is rebuilt, so
    F(t) = 1 up to roundoff.  The rebuild inverts the fold of
    spectral._persymmetric_split: one reconstruct_jacobi call rebuilds the
    mirror-even half, with spectrum lam[0::2] (odd M) or lam[1::2] (even M)
    and first-component weights 2 w from mirror_symmetric_weights.  For odd
    M = 2m + 1 the half has m + 1 sites and last coupling sqrt(2) b_(m-1);
    for even M = 2m its last diagonal entry carries the centre coupling
    b_c = sum(lam[1::2] - lam[0::2]) / 2, which the trace of the two halves
    fixes.  The other half is a copy, so the rebuild is exactly
    persymmetric.
    """
    if not m.is_persymmetric():
        raise ValueError(
            "chain is not persymmetric; retune the spectrum and call "
            "reconstruct_jacobi with explicit weights instead"
        )
    if m.dim >= 2 and np.any(m.offdiag == 0.0):
        raise ValueError("persymmetric retuning needs nonzero couplings")
    plan = retune_eigenvalues(eigh_tridiag(m), t)
    lam = plan.retuned
    w = mirror_symmetric_weights(lam)
    if lam.size == 1:
        return reconstruct_jacobi(lam, w), plan
    e = (lam.size - 1) % 2  # the mirror-even levels, as in spectral._persymmetric_split
    fold = reconstruct_jacobi(lam[e::2], 2.0 * w[e::2])
    if e:
        # the trace fixes b_c; a sum of positive neighbour gaps does not cancel
        centre = 0.5 * float(np.sum(lam[1::2] - lam[0::2]))
        half = fold.diag.copy()
        half[-1] -= centre
        diag = np.concatenate([half, half[::-1]])
        off = np.concatenate([fold.offdiag, [centre], fold.offdiag[::-1]])
    else:
        diag = np.concatenate([fold.diag, fold.diag[-2::-1]])
        edge = fold.offdiag.copy()
        edge[-1] /= np.sqrt(2.0)
        off = np.concatenate([edge, edge[::-1]])
    return SymTridiag(diag, off), plan
