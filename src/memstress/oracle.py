"""Exact statevector verification on small lattices (hard cap 20 qubits).

Everything here works directly on dense 2^n vectors: stabilizer ground
states by projection, term-wise Hamiltonian action, adaptive Lanczos time
evolution, subspace projections, and the symbolic-plus-statevector check of
the duality circuit that turns the string perturbation into a free hopping
chain.  A state is a plain 1-D complex ``np.ndarray`` of length 2**n; the
ground-state builders enforce the qubit cap, and the Pauli kernel rejects a
state of the wrong length.  States stay dense, but the Pauli kernel maps only
their nonzero entries, so past one read to find them a Hamiltonian apply
costs in proportion to the support: the toric N = 3 ground state has 256
nonzero entries of 2**18, and its string and Krylov states at most 512.
The vector arithmetic around it (norms, overlaps, Lanczos updates) still
walks all 2**n entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effective import SymTridiag
from .lattices import (
    IsingLattice,
    ToricLattice,
    ising_error_prefix,
    ising_hamiltonian,
    ising_retained_lengths,
    toric_duality_circuit,
    toric_error_string,
    toric_hamiltonian,
)
from .pauli import PauliSum, PauliTerm, apply_to_state, multiply, pauli_x, pauli_y
from .spectral import NumericalError

__all__ = [
    "QUBIT_CAP",
    "toric_ground_state",
    "toric_string_basis",
    "expectation",
    "krylov_propagate",
    "orthonormal_columns",
    "subspace_projection",
    "effective_matrix_elements",
    "apply_circuit_to_state",
    "DualityReport",
    "verify_duality_map",
    "two_excitation_transfer",
    "ising_ground_state",
    "ising_prefix_basis",
    "ising_ground_energy",
]

QUBIT_CAP = 20
KRYLOV_TOL = 1e-10
_KRYLOV_MAX_DIM = 40


def toric_ground_state(lat: ToricLattice) -> np.ndarray:
    """Ground state with +1 for both logical Zs.

    |0...0> already satisfies every plaquette and both Z loops; projecting
    with (1 + Xbar)/2 over all stars then enforces the star sector.
    """
    if lat.n_qubits > QUBIT_CAP:
        raise ValueError(f"toric lattice N={lat.N} needs {lat.n_qubits} qubits > cap")
    v = np.zeros(1 << lat.n_qubits, dtype=complex)
    v[0] = 1.0
    for i in range(lat.N):
        for j in range(lat.N):
            v = 0.5 * (v + apply_to_state(lat.star(i, j), v))
    v /= np.linalg.norm(v)
    return v


def toric_string_basis(lat: ToricLattice, psi: np.ndarray) -> list[np.ndarray]:
    """Orthonormal string states U_l |psi> for l = 0 .. N-2."""
    return [apply_to_state(toric_error_string(lat, l), psi) for l in range(lat.N - 1)]


def expectation(h: PauliSum, v: np.ndarray) -> float:
    return float(np.real(np.vdot(v, h.apply(v))))


def _lanczos_basis(h: PauliSum, v0: np.ndarray, max_dim: int, breakdown: float):
    """Lanczos tridiagonalization of h from v0 (assumed normalized)."""
    vecs = [v0]
    alphas: list[float] = []
    betas: list[float] = []
    w = h.apply(v0)
    a = float(np.real(np.vdot(v0, w)))
    alphas.append(a)
    w = w - a * v0
    for j in range(1, max_dim):
        b = float(np.linalg.norm(w))
        if b <= breakdown:
            return vecs, alphas, betas, True
        vj = w / b
        # one full re-orthogonalization sweep keeps the basis clean
        for u in vecs:
            vj = vj - np.vdot(u, vj) * u
        vj = vj / np.linalg.norm(vj)
        vecs.append(vj)
        betas.append(b)
        w = h.apply(vj)
        a = float(np.real(np.vdot(vj, w)))
        alphas.append(a)
        w = w - a * vj - b * vecs[-2]
    return vecs, alphas, betas, False


def _expm_tridiag(alphas, betas, tau: float) -> np.ndarray:
    """First column of exp(-i tau T) for the small Lanczos matrix T."""
    w, u = np.linalg.eigh(SymTridiag(alphas, betas).dense())
    return (u * np.exp(-1j * tau * w)) @ u[0, :].conj()


def krylov_propagate(h: PauliSum, v: np.ndarray, t: float, counts=None) -> np.ndarray:
    """exp(-i H t)|v> by adaptive short-step Lanczos, for a finite t >= 0 (else ValueError).

    Steps are split until the standard posterior estimate beta_m * |y_m|
    stays within the per-step share of KRYLOV_TOL; an invariant subspace (happy
    breakdown) finishes the remaining time in one exact step.  The result is
    a new complex array rescaled to the norm of ``v``, bounding unitarity
    drift by the same tolerance; a zero ``v`` is rejected unless t = 0.  A
    ``collections.Counter`` passed as ``counts`` tallies the call under
    ``"krylov_propagate_calls"`` and each Lanczos basis built under
    ``"lanczos_bases"``; it changes no arithmetic.  This is the one-time
    case of ``_krylov_sweep``.
    """
    return next(_krylov_sweep(h, v, (t,), counts))


def _krylov_sweep(h: PauliSum, v: np.ndarray, times, counts=None):
    """Yield ``krylov_propagate(h, v, t)`` for each t, sharing the first Lanczos basis.

    Every positive time starts its step loop from the normalised ``v``, so
    the basis of that first step is built once for the sweep; later steps
    build their own.  Each value equals the one-time call byte for byte, and
    ``counts`` tallies one call per time.  States are yielded one at a time,
    so a sweep holds one evolved state, not one per time.
    """
    if not all(0.0 <= t < np.inf for t in times):
        raise ValueError("time must be finite and nonnegative")
    if v.shape != (1 << h.n_qubits,):
        raise ValueError("operator and state sizes differ")
    norm = float(np.linalg.norm(v))
    if norm == 0.0 and any(t != 0.0 for t in times):
        raise ValueError("cannot normalize the zero vector")
    if counts is not None:
        counts["krylov_propagate_calls"] += len(times)
    scale = max(1.0, sum(abs(term.coeff) for term in h.terms))
    breakdown = 1e-13 * scale
    if any(t != 0.0 for t in times):
        start = v / norm
        first = _lanczos_basis(h, start, _KRYLOV_MAX_DIM, breakdown)
        if counts is not None:
            counts["lanczos_bases"] += 1
    for t in times:
        if t == 0.0:
            yield v.astype(complex)
            continue
        basis, state = first, start
        remaining = t
        step = min(t, 10.0 / scale)
        while remaining > 1e-15 * t:
            if basis is None:
                basis = _lanczos_basis(h, state, _KRYLOV_MAX_DIM, breakdown)
                if counts is not None:
                    counts["lanczos_bases"] += 1
            vecs, alphas, betas, happy = basis
            basis = None
            tau = remaining if happy else min(step, remaining)
            attempts = 0
            while True:
                y = _expm_tridiag(alphas, betas, tau)
                if happy:
                    err = 0.0
                else:
                    # posterior residual estimate: weight leaking past the basis
                    err = abs(betas[-1] * y[-1]) * tau if betas else 0.0
                if err <= KRYLOV_TOL * tau / t:
                    break
                tau *= 0.5
                attempts += 1
                if attempts > 200:
                    raise NumericalError(
                        f"krylov propagation failed to converge (err {err:.2e})"
                    )
            state = np.column_stack(vecs) @ y
            state = state / np.linalg.norm(state)
            remaining -= tau
            if not happy:
                step = tau * 1.5
        yield state * norm


def orthonormal_columns(states: list[np.ndarray]) -> np.ndarray:
    """The states stacked as matrix columns; ValueError unless orthonormal to 1e-10."""
    mat = np.column_stack(states)
    gram = mat.conj().T @ mat
    if np.max(np.abs(gram - np.eye(len(states)))) > 1e-10:
        raise ValueError("basis states are not orthonormal to 1e-10")
    return mat


def subspace_projection(basis: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Overlap coefficients onto the columns of basis plus the leakage norm.

    basis comes from orthonormal_columns, which stacks and checks it once.
    """
    coeffs = basis.conj().T @ v
    residual = v - basis @ coeffs
    return coeffs, float(np.linalg.norm(residual))


def effective_matrix_elements(
    h_total: PauliSum, states: list[np.ndarray], ground_energy: float
) -> np.ndarray:
    """Exact <s_i| (H - E0) |s_j> over the given string basis."""
    mat = np.column_stack(states)
    images = np.column_stack([h_total.apply(s) for s in states])
    out = mat.conj().T @ images - ground_energy * (mat.conj().T @ mat)
    return np.real_if_close(out, tol=100)


def apply_circuit_to_state(circuit, v: np.ndarray) -> np.ndarray:
    """Apply an ordered CNOT list to a dense state (circuit[0] first).

    On the ``(2,)*n`` view (qubit q is axis ``n-1-q``) each gate flips the
    target axis of the control = 1 slice; that slice has no control axis, so
    the target axis moves down by one when target < control.  Every gate
    needs 0 <= control, target < n and control != target, as in
    ``conjugate_by_cnot``; ``v`` itself is never written.
    """
    n = v.size.bit_length() - 1
    if n < 0 or v.shape != (1 << n,):
        raise ValueError(f"state shape {v.shape} is not a power-of-two length")
    amps = v.astype(complex).reshape((2,) * n)
    for control, target in circuit:
        if not (0 <= control < n and 0 <= target < n):
            raise ValueError(f"gate ({control}, {target}) has a qubit index out of range for {n} qubits")
        if control == target:
            raise ValueError(f"gate ({control}, {target}): control and target must differ")
        on = (slice(None),) * (n - 1 - control) + (1,)
        amps[on] = np.flip(amps[on], axis=n - 1 - target - (target < control))
    return amps.reshape(-1)


@dataclass(frozen=True)
class DualityReport:
    """Outcome of conjugating deltaH by the duality circuit."""

    matched: bool
    n_terms: int
    missing: tuple
    extra: tuple
    max_coeff_dev: float
    string_flip_counts: tuple
    pair_flip_counts: tuple


def _hopping_target(lat: ToricLattice, J, delta: float) -> PauliSum:
    """(delta/2) sum_i J_i (X_{2i,0} X_{2i+2,0} + Y_{2i,0} Y_{2i+2,0})."""
    n = lat.n_qubits
    terms = []
    for i in range(lat.N - 2):
        if J[i] == 0.0:
            continue
        a = lat.site_index(2 * i, 0)
        b = lat.site_index(2 * i + 2, 0)
        c = 0.5 * delta * J[i]
        terms.append(pauli_x(n, a, b).scaled(c))
        terms.append(pauli_y(n, a, b).scaled(c))
    return PauliSum.from_terms(terms, n)


def verify_duality_map(
    lat: ToricLattice, deltaH: PauliSum, J, delta: float
) -> DualityReport:
    """Check V deltaH V^dag == XX+YY hopping chain, term for term.

    deltaH must be a pure hopping perturbation (B = 0); detuning terms are
    diagonal in Z and rejected.  The statevector part applies V as a circuit
    and identifies, for each string state, the chain X-pattern that carries
    the mapped ground state onto it; the pattern weight is the excitation
    number, 1 for single strings U_l and 2 for adjacent pairs U_i U_{i-1}.
    That part needs the ground state, so a lattice above QUBIT_CAP raises
    toric_ground_state's ValueError.
    """
    for term in deltaH:
        if term.x_mask == 0:
            raise ValueError("deltaH contains diagonal (B != 0) terms")
    circuit = toric_duality_circuit(lat)
    conjugated = deltaH.conjugated_by_circuit(circuit)
    target = _hopping_target(lat, J, delta)
    got = {(t.z_mask, t.x_mask): t.coeff for t in conjugated}
    want = {(t.z_mask, t.x_mask): t.coeff for t in target}
    missing = tuple(sorted(set(want) - set(got)))
    extra = tuple(sorted(set(got) - set(want)))
    dev = 0.0
    for key in set(want) & set(got):
        dev = max(dev, abs(want[key] - got[key]))
    matched = not missing and not extra and dev == 0.0

    psi = toric_ground_state(lat)
    chain_sites = [lat.site_index(2 * i, 0) for i in range(lat.N)]
    vacuum = apply_circuit_to_state(circuit, psi)
    string_flips = []
    for l in range(lat.N - 1):
        mapped = apply_circuit_to_state(
            circuit, apply_to_state(toric_error_string(lat, l), psi)
        )
        string_flips.append(_excitation_number(vacuum, mapped, chain_sites))
    pair_flips = []
    for i in range(1, lat.N - 1):
        pair = multiply(toric_error_string(lat, i), toric_error_string(lat, i - 1))
        mapped = apply_circuit_to_state(circuit, apply_to_state(pair, psi))
        pair_flips.append(_excitation_number(vacuum, mapped, chain_sites))
    return DualityReport(
        matched=matched,
        n_terms=len(conjugated),
        missing=missing,
        extra=extra,
        max_coeff_dev=dev,
        string_flip_counts=tuple(string_flips),
        pair_flip_counts=tuple(pair_flips),
    )


def _excitation_number(vacuum: np.ndarray, state: np.ndarray, sites: list[int]) -> int:
    """Weight of the chain X-pattern with |<X^pattern vacuum | state>| = 1.

    Scans all subsets of the chain sites; raises if no pattern reproduces the
    state, meaning it left the chain's flip sector.
    """
    n = len(sites)
    n_qubits = vacuum.size.bit_length() - 1
    for mask in range(1 << n):
        flip = 0
        for k in range(n):
            if (mask >> k) & 1:
                flip |= 1 << sites[k]
        if flip == 0:
            cand = vacuum
        else:
            cand = apply_to_state(PauliTerm(n_qubits, flip, 0, 1.0), vacuum)
        if abs(abs(complex(np.vdot(cand, state))) - 1.0) <= 1e-10:
            return bin(mask).count("1")
    raise NumericalError("state is not a chain flip pattern over the mapped vacuum")


def two_excitation_transfer(
    lat: ToricLattice, i: int, times, deltaH: PauliSum, counts=None
) -> list[float]:
    """|<psi| (U_{N-i-1} U_{N-i-2})^dag exp(-i (H + dH) t) U_i U_{i-1} |psi>|^2 for each t.

    A single fault at site (2i, 0) with i > 0 is the adjacent-pair string
    U_i U_{i-1}; under the engineered hopping it mirrors to the opposite
    pair in the transfer time.  The ground state, H + dH and both pair
    states are built once per sweep.  The initial pair is normalised, and
    its first Lanczos basis built, once for all times; each time then runs
    its own step loop from that basis, so a value equals the one-time
    ``krylov_propagate`` byte for byte and does not depend on the other
    times.  ``counts`` tallies as in ``krylov_propagate``, one call per time.
    """
    if not 0 < i <= lat.N - 2:
        raise ValueError(f"site index {i} out of range 1..{lat.N - 2}")
    psi = toric_ground_state(lat)
    h_total = toric_hamiltonian(lat) + deltaH
    init, final = (
        apply_to_state(multiply(toric_error_string(lat, k), toric_error_string(lat, k - 1)), psi)
        for k in (i, lat.N - 1 - i)
    )
    overlaps = (complex(np.vdot(final, evolved))
                for evolved in _krylov_sweep(h_total, init, times, counts))
    return [float(abs(z) ** 2) for z in overlaps]


def ising_ground_state(lat: IsingLattice) -> np.ndarray:
    if lat.n_qubits > QUBIT_CAP:
        raise ValueError(f"ising lattice N={lat.N} needs {lat.n_qubits} qubits > cap")
    v = np.zeros(1 << lat.n_qubits, dtype=complex)
    v[0] = 1.0
    return v


def ising_prefix_basis(lat: IsingLattice) -> list[np.ndarray]:
    """Retained prefix states applied to |0...0>; exact eigenvectors of H_I."""
    g = ising_ground_state(lat)
    return [apply_to_state(ising_error_prefix(lat, l), g) for l in ising_retained_lengths(lat)]


def ising_ground_energy(lat: IsingLattice) -> float:
    """<0...0| H_I |0...0> = -(number of bonds)/2, the ground energy."""
    g = ising_ground_state(lat)
    return expectation(ising_hamiltonian(lat), g)
