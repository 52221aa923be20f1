"""Reduced effective Hamiltonians on the error-string subspaces.

The string states are orthonormal, so restricting H + deltaH to their span
yields a real symmetric tridiagonal matrix (or a k-banded one for more
general quasi-local perturbations).  Diagonals are excitation energies
measured from the ground state; the toric chain keeps its constant 2*Delta
offset, and the Ising chain carries the surface energies of its retained
prefix patterns in closed form, starting at the single-flip value 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymTridiag",
    "toric_effective",
    "ising_surface_diagonal",
    "ising_effective_surface",
    "banded_effective",
]


@dataclass(frozen=True)
class SymTridiag:
    """Real symmetric tridiagonal matrix stored as diagonal + off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a nonempty 1-d array")
        if offdiag.shape != (diag.size - 1,):
            raise ValueError(
                f"offdiag must have length {diag.size - 1}, got {offdiag.shape}"
            )

    @property
    def dim(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        if self.dim > 1:
            a += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return a

    def norm_estimate(self) -> float:
        """Cheap upper bound on the spectral norm (Gershgorin)."""
        r = np.zeros(self.dim)
        if self.dim > 1:
            r[:-1] += np.abs(self.offdiag)
            r[1:] += np.abs(self.offdiag)
        return float(np.max(np.abs(self.diag) + r))

    def is_persymmetric(self) -> bool:
        """Exact mirror symmetry of the diagonal and the couplings."""
        return bool(
            np.array_equal(self.diag, self.diag[::-1])
            and np.array_equal(self.offdiag, self.offdiag[::-1])
        )


def toric_effective(N: int, Delta: float, delta: float, J, B) -> SymTridiag:
    """Toric string chain: diag_l = 2*Delta + delta*B_l, off_l = delta*J_l.

    The basis is the N-1 string states U_0 ... U_{N-2} acting on the ground
    state, so J has N-2 entries and B has N-1.
    """
    J = np.asarray(J, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.shape != (N - 1,):
        raise ValueError(f"B must have length {N - 1}, got {B.shape}")
    if J.shape != (max(N - 2, 0),):
        raise ValueError(f"J must have length {N - 2}, got {J.shape}")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return SymTridiag(2.0 * Delta + delta * B, delta * J)


def ising_surface_diagonal(N: int) -> np.ndarray:
    """Surface energies of the M = N(N-1) - 2 retained prefix patterns.

    The ramp 2(i+1) for i = 1..N-1, then (N-1)(N-2) - 2 plateau entries at
    2(N+1), then the mirrored ramp: the broken-bond counts that
    lattices.ising_prefix_energy returns for ising_retained_lengths.
    """
    if N < 3:
        raise ValueError("ising effective chain needs N >= 3")
    ramp = 2.0 * np.arange(2, N + 1)
    plateau = np.full((N - 1) * (N - 2) - 2, 2.0 * (N + 1))
    return np.concatenate([ramp, plateau, ramp[::-1]])


def ising_effective_surface(N: int, delta: float) -> SymTridiag:
    """Ising string chain: the surface-energy diagonal with uniform hopping.

    diag ramps 2(i+1) for i = 1..N-1, sits at the 2(N+1) plateau, and ramps
    back down (ising_surface_diagonal); hopping is uniform delta (J_k = 1).
    """
    d = ising_surface_diagonal(N)
    return SymTridiag(d, np.full(d.size - 1, float(delta)))


def banded_effective(N: int, delta: float, k: int, band_coeffs) -> np.ndarray:
    """Surface-area diagonal plus arbitrary symmetric bands up to distance k.

    band_coeffs[b-1, i] is the entry at (i, i+b); row b-1 uses its first
    M-b values.  Every band entry must have magnitude <= delta, matching the
    strength available to quasi-local perturbations, so delta = 0 leaves the
    bare diagonal.
    """
    if k < 1:
        raise ValueError("band width k must be >= 1")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    d = ising_surface_diagonal(N)
    M = d.size
    if k >= M:
        raise ValueError(f"band width {k} must be below the dimension {M}")
    band_coeffs = np.atleast_2d(np.asarray(band_coeffs, dtype=float))
    if band_coeffs.shape[0] != k or band_coeffs.shape[1] < M - 1:
        raise ValueError(f"band_coeffs must have shape ({k}, >= {M - 1})")
    a = np.diag(d)
    for b in range(1, k + 1):
        vals = band_coeffs[b - 1, : M - b]
        if np.any(np.abs(vals) > delta * (1 + 1e-12)):
            raise ValueError(f"band {b} entries exceed the strength bound {delta}")
        a += np.diag(vals, b) + np.diag(vals, -b)
    return a
