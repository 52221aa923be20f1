"""Toric-code and Ising lattices: stabilizers, logicals, error strings, and
the engineered quasi-local perturbations that transport those strings.

Toric geometry: qubits sit at positions ``2i x + 2j z`` and
``(2i+1) x + (2j+1) z`` on a periodic plane of extent ``2N`` in both
directions, so there are ``2 N^2`` qubits.  Plaquettes are Z-diamonds centred
at ``(2i+1, 2j)``, stars are X-diamonds centred at ``(2i, 2j+1)``.

Ising geometry: ``N^2`` qubits on the vertices of a periodic ``N x N`` grid,
labelled 1..N^2 in boustrophedon (snake) order so consecutive labels are
always lattice-adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import PauliSum, PauliTerm, identity, multiply, pauli_x, pauli_z

__all__ = [
    "ToricLattice",
    "IsingLattice",
    "toric_hamiltonian",
    "toric_logicals",
    "toric_error_string",
    "toric_perturbation",
    "toric_duality_circuit",
    "ising_hamiltonian",
    "ising_error_prefix",
    "ising_prefix_energy",
    "ising_retained_lengths",
    "ising_perturbation",
]


@dataclass(frozen=True)
class ToricLattice:
    """Periodic toric-code lattice of linear size ``N`` with gap ``delta_gap``."""

    N: int
    delta_gap: float = 1.0

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("toric lattice needs N >= 2")

    @property
    def n_qubits(self) -> int:
        return 2 * self.N * self.N

    def site_index(self, x: int, z: int) -> int:
        """Flat index of the qubit at coordinates (x, z).

        Sites are sorted lexicographically by (z, x); each row of constant z
        holds N sites.  Coordinates are taken modulo 2N and must land on a
        site (x + z even).
        """
        L = 2 * self.N
        x %= L
        z %= L
        if (x + z) % 2:
            raise ValueError(f"({x}, {z}) is not a qubit site")
        return z * self.N + x // 2

    def plaquette(self, i: int, j: int) -> PauliTerm:
        """Weight-4 Z stabilizer around the plaquette centred at (2i+1, 2j)."""
        n = self.n_qubits
        return pauli_z(
            n,
            self.site_index(2 * i, 2 * j),
            self.site_index(2 * i + 1, 2 * j + 1),
            self.site_index(2 * i + 2, 2 * j),
            self.site_index(2 * i + 1, 2 * j - 1),
        )

    def star(self, i: int, j: int) -> PauliTerm:
        """Weight-4 X stabilizer around the star centred at (2i, 2j+1)."""
        n = self.n_qubits
        return pauli_x(
            n,
            self.site_index(2 * i, 2 * j),
            self.site_index(2 * i + 1, 2 * j + 1),
            self.site_index(2 * i - 1, 2 * j + 1),
            self.site_index(2 * i, 2 * j + 2),
        )

    def stabilizers(self) -> list[PauliTerm]:
        plaq = [self.plaquette(i, j) for j in range(self.N) for i in range(self.N)]
        star = [self.star(i, j) for j in range(self.N) for i in range(self.N)]
        return plaq + star


def toric_hamiltonian(lat: ToricLattice) -> PauliSum:
    """Stabilizer Hamiltonian: coefficient -delta_gap/2 on all 2N^2 terms."""
    c = -0.5 * lat.delta_gap
    return PauliSum.from_terms(
        (t.scaled(c) for t in lat.stabilizers()), lat.n_qubits
    )


def toric_logicals(lat: ToricLattice) -> tuple[PauliTerm, PauliTerm, PauliTerm]:
    """(Z_L1, Z_L2, X_string): the two logical-Z loops and the X row string.

    Z_L1 runs across the odd sublattice row z = 1, Z_L2 down the even
    sublattice column x = 0, and the X string along the even row z = 0.
    X_string anticommutes with Z_L2 only (they share the single site (0, 0)).
    """
    n = lat.n_qubits
    z1 = pauli_z(n, *(lat.site_index(2 * i + 1, 1) for i in range(lat.N)))
    z2 = pauli_z(n, *(lat.site_index(0, 2 * j) for j in range(lat.N)))
    xs = pauli_x(n, *(lat.site_index(2 * i, 0) for i in range(lat.N)))
    return z1, z2, xs


def toric_error_string(lat: ToricLattice, l: int) -> PauliTerm:
    """Partial X string U_l = X_{0,0} X_{2,0} ... X_{2l,0} (0 <= l <= N-1)."""
    if not 0 <= l <= lat.N - 1:
        raise ValueError(f"string length index {l} out of range 0..{lat.N - 1}")
    return pauli_x(lat.n_qubits, *(lat.site_index(2 * i, 0) for i in range(l + 1)))


def _guarded_moves(n: int, hops, guards, marks, J, B, delta: float) -> PauliSum:
    """(delta/2) sum_k J_k hop_k (1 - guard_k) + (delta/2) sum_k B_k (1 - mark_k).

    J has one entry per hop (paired with its guard), B one per mark; both are
    bounded by 1 so each summand keeps unit operator norm before delta.  Zero
    entries add no terms.
    """
    J = np.asarray(J, dtype=float)
    B = np.asarray(B, dtype=float)
    if J.shape != (len(hops),):
        raise ValueError(f"J must have length {len(hops)}, got {J.shape}")
    if B.shape != (len(marks),):
        raise ValueError(f"B must have length {len(marks)}, got {B.shape}")
    if np.any(np.abs(J) > 1.0) or np.any(np.abs(B) > 1.0):
        raise ValueError("coupling bounds |J_k| <= 1 and |B_k| <= 1 violated")
    if delta <= 0:
        raise ValueError("delta must be positive")
    half = 0.5 * delta
    terms: list[PauliTerm] = []
    for hop, guard, j in zip(hops, guards, J, strict=True):
        if j != 0.0:
            hop = hop.scaled(half * j)
            terms += [hop, multiply(hop, guard).scaled(-1.0)]
    for mark, b in zip(marks, B, strict=True):
        if b != 0.0:
            terms += [identity(n).scaled(half * b), mark.scaled(-half * b)]
    return PauliSum.from_terms(terms, n)


def toric_perturbation(lat: ToricLattice, J, B, delta: float) -> PauliSum:
    """Quasi-local perturbation transporting the error string along row z = 0.

    deltaH = (delta/2) sum_i J_i X_{2i+2,0} (1 - Zbar_{i,0} Zbar_{i+1,0})
           + (delta/2) sum_i B_i (1 - Zbar_{i,0})

    J has N-2 entries (hops), B has N-1 entries (on-string detunings).
    """
    n = lat.n_qubits
    plaq = [lat.plaquette(i, 0) for i in range(lat.N - 1)]
    hops = [pauli_x(n, lat.site_index(2 * i + 2, 0)) for i in range(lat.N - 2)]
    guards = [multiply(p, q) for p, q in zip(plaq, plaq[1:])]
    return _guarded_moves(n, hops, guards, plaq, J, B, delta)


def toric_duality_circuit(lat: ToricLattice) -> list[tuple[int, int]]:
    """Ordered CNOT list for the duality map V, first-applied gate first.

    The even-row chain C^{(2i,0)}_{(2i-2,0)} runs i = 1..N-1 with i = 1 first
    (one gate per string state beyond U_0, so the Jordan-Wigner tails of all
    N-2 hopping terms cancel); the mutually commuting star-leg gates
    C^{(2i+1,+-1)}_{(2i,0)} follow.
    """
    gates: list[tuple[int, int]] = []
    for i in range(1, lat.N):
        gates.append((lat.site_index(2 * i, 0), lat.site_index(2 * i - 2, 0)))
    for i in range(lat.N - 1):
        gates.append((lat.site_index(2 * i + 1, -1), lat.site_index(2 * i, 0)))
        gates.append((lat.site_index(2 * i + 1, 1), lat.site_index(2 * i, 0)))
    return gates


@dataclass(frozen=True)
class IsingLattice:
    """Periodic N x N Ising lattice with snake-ordered qubit labels 1..N^2."""

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("ising lattice needs N >= 2")

    @property
    def n_qubits(self) -> int:
        return self.N * self.N

    def snake_vertex(self, label: int) -> int:
        """Flat row-major vertex index of snake label (1-based, 1..N^2).

        Rows fill progressively; odd rows run right to left so labels l and
        l+1 are always lattice-adjacent.
        """
        if not 1 <= label <= self.n_qubits:
            raise ValueError(f"label {label} out of range 1..{self.n_qubits}")
        r, pos = divmod(label - 1, self.N)
        c = pos if r % 2 == 0 else self.N - 1 - pos
        return r * self.N + c

    @cached_property
    def bonds(self) -> tuple[tuple[int, int], ...]:
        """All 2N^2 nearest-neighbour bonds as vertex-index pairs.

        One right bond and one down bond per vertex; at N = 2 the periodic
        wrap doubles pairs and the doubled bonds are kept (multigraph).
        """
        N = self.N
        out = []
        for r in range(N):
            for c in range(N):
                v = r * N + c
                out.append((v, r * N + (c + 1) % N))
                out.append((v, ((r + 1) % N) * N + c))
        return tuple(out)


def ising_hamiltonian(lat: IsingLattice) -> PauliSum:
    """H = -1/2 sum_<i,j> Z_i Z_j over all bonds (doubled N=2 bonds merge)."""
    n = lat.n_qubits
    return PauliSum.from_terms(
        (pauli_z(n, a, b).scaled(-0.5) for a, b in lat.bonds), n
    )


def _prefix_vertex_mask(lat: IsingLattice, l: int) -> int:
    mask = 0
    for label in range(1, l + 1):
        mask |= 1 << lat.snake_vertex(label)
    return mask


def ising_error_prefix(lat: IsingLattice, l: int) -> PauliTerm:
    """Product of X on the first ``l`` qubits in snake order (1 <= l <= N^2)."""
    if not 1 <= l <= lat.n_qubits:
        raise ValueError(f"prefix length {l} out of range 1..{lat.n_qubits}")
    return PauliTerm(lat.n_qubits, _prefix_vertex_mask(lat, l), 0, 1.0)


def ising_prefix_energy(lat: IsingLattice, l: int) -> int:
    """Energy above ground of the length-l prefix pattern: its surface area.

    Counted as the number of bonds joining a flipped vertex to an unflipped
    one; each broken bond costs exactly 1.
    """
    if not 0 <= l <= lat.n_qubits:
        raise ValueError(f"prefix length {l} out of range 0..{lat.n_qubits}")
    mask = _prefix_vertex_mask(lat, l) if l else 0
    broken = 0
    for a, b in lat.bonds:
        broken += ((mask >> a) & 1) ^ ((mask >> b) & 1)
    return broken


def ising_retained_lengths(lat: IsingLattice) -> list[int]:
    """Prefix lengths spanning the reduced evolution space, in step order.

    Full-row patterns are skipped because the step completing a row also
    starts the next one (the joint X_{Ni} X_{Ni+1} move); the two plateau
    configurations bordering the first and last row boundary are dropped as
    well, which leaves M = N(N-1) - 2 states whose energies ramp up by 2 per
    step, sit at the 2(N+1) plateau, and ramp back down symmetrically.
    """
    N = lat.N
    lengths = [
        r * N + p for r in range(N) for p in range(1, N)
    ]
    lengths.remove(N + 1)
    lengths.remove(N * (N - 1) - 1)
    return lengths


def ising_perturbation(lat: IsingLattice, J, B, delta: float) -> PauliSum:
    """Snake-ordered hopping and detuning terms for the retained prefixes.

    Hop k joins consecutive retained lengths l_k < l_{k+1} through
    (delta/2) J_k (prod_{q=l_k+1}^{l_{k+1}} X_q)(1 - Z_{l_k} Z_{l_{k+1}+1});
    single-step hops reduce to X_{l+1}(1 - Z_l Z_{l+2}) and row-completing
    hops apply the joint X pair.  B_k marks retained prefix k through
    (delta/2) B_k (1 - Z_{l_k} Z_{l_k+1}).
    """
    n = lat.n_qubits
    v = lat.snake_vertex
    lengths = ising_retained_lengths(lat)
    steps = list(zip(lengths, lengths[1:]))
    hops = [pauli_x(n, *map(v, range(lo + 1, hi + 1))) for lo, hi in steps]
    guards = [pauli_z(n, v(lo), v(hi + 1)) for lo, hi in steps]
    marks = [pauli_z(n, v(l), v(l + 1)) for l in lengths]
    return _guarded_moves(n, hops, guards, marks, J, B, delta)
