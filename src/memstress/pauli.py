"""Exact algebra of signed Pauli strings in symplectic (bitmask) form.

A term is ``coeff * X^x * Z^z`` where ``x`` and ``z`` are n-bit masks and the
X block is written to the left of the Z block.  A ``Y`` on qubit ``q`` sets
bit ``q`` in both masks and multiplies the coefficient by ``i`` (``Y = iXZ``),
so the stored data always denotes the operator exactly, phase included.

Qubit 0 is the least-significant bit of both the masks and the statevector
index.  Lattice geometry lives elsewhere; this module only sees flat indices.

Dense action.  ``apply_to_state`` and ``PauliSum.apply`` share one kernel
that maps only the state's support, its nonzero cells (a complex cell is
nonzero when either part is).  The support's values are gathered once and
worked on in float64 arithmetic: as reals when the gathered cells and every
coefficient have zero imaginary parts, else as re/im pairs that are never
flipped or signed apart.  Per term, the support indices k map to outputs
k ^ x, and the factor at output index j is ±c = c (-1)^parity(x&z)
(-1)^popcount(j&z): a real coefficient c folds with both signs into one
factor per index (multiplying by ±1 is exact), and a coefficient with a
nonzero imaginary part takes numpy's complex ``*=`` after that exact sign
step.  Each term's products are scattered with one ``+=`` into a +0
complex output (its real part for real arithmetic), in term order.  The
cost per term scales with the support, whatever the register size; finding
the support reads all 2**n cells once per call.  The per-term factors and
indices are built on every call; nothing is cached between calls.

Why this equals the index-table kernel byte for byte (the tests'
reference gathers v[j ^ x] for every j and adds each term's complex
product into a +0 sum).  Coefficients are finite (``PauliTerm`` rejects
NaN and inf), so a source cell outside the support contributes
c (±1) (±0) = ±0, in both parts of a complex product.  The sum starts at
+0, and in round-to-nearest an addition never turns it into -0
(x + (-x) = +0 and +0 + (-0) = +0), so adding a signed zero never changes
it.  The contributions kept equal the reference's products up to the sign
of a zero, which that sum absorbs; they are added in the same term order,
and XOR is a bijection, so no index repeats within a term.
numpy multiplies a one-element complex array by a different formula than a
longer one, so a one-entry support is padded with a zero neighbour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PauliTerm",
    "PauliSum",
    "identity",
    "pauli_x",
    "pauli_y",
    "pauli_z",
    "multiply",
    "commutes",
    "conjugate_by_cnot",
    "conjugate_by_circuit",
    "apply_to_state",
]


def _parity(n: int) -> int:
    return bin(n).count("1") & 1


@dataclass(frozen=True)
class PauliTerm:
    """A single signed Pauli string on ``n_qubits`` qubits."""

    n_qubits: int
    x_mask: int
    z_mask: int
    coeff: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits outside the qubit register")
        c = complex(self.coeff)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"coefficient {self.coeff} is not finite")

    @property
    def weight(self) -> int:
        """Number of qubits carrying a non-identity factor."""
        return bin(self.x_mask | self.z_mask).count("1")

    def scaled(self, factor: complex) -> "PauliTerm":
        return PauliTerm(self.n_qubits, self.x_mask, self.z_mask, self.coeff * factor)

    def label(self) -> str:
        """Human-readable label, qubit 0 rightmost (e.g. ``(1+0j)*XZI``)."""
        chars = []
        for q in range(self.n_qubits - 1, -1, -1):
            x = (self.x_mask >> q) & 1
            z = (self.z_mask >> q) & 1
            chars.append("IXZY"[x + 2 * z])
        return f"({self.coeff})*" + "".join(chars)

    def __repr__(self) -> str:
        return f"PauliTerm<{self.label()}>"


def identity(n_qubits: int) -> PauliTerm:
    return PauliTerm(n_qubits, 0, 0, 1.0)


def _single(n_qubits: int, sites, x: bool, z: bool, phase: complex) -> PauliTerm:
    mask_x = 0
    mask_z = 0
    coeff = 1.0 + 0.0j
    seen = set()
    for s in sites:
        if not 0 <= s < n_qubits:
            raise ValueError(f"qubit index {s} out of range for {n_qubits} qubits")
        if s in seen:
            raise ValueError(f"repeated qubit index {s}")
        seen.add(s)
        if x:
            mask_x |= 1 << s
        if z:
            mask_z |= 1 << s
        coeff *= phase
    return PauliTerm(n_qubits, mask_x, mask_z, coeff)


def pauli_x(n_qubits: int, *sites: int) -> PauliTerm:
    """Product of X operators on the given qubits."""
    return _single(n_qubits, sites, True, False, 1.0)


def pauli_z(n_qubits: int, *sites: int) -> PauliTerm:
    """Product of Z operators on the given qubits."""
    return _single(n_qubits, sites, False, True, 1.0)


def pauli_y(n_qubits: int, *sites: int) -> PauliTerm:
    """Product of Y operators on the given qubits (Y = iXZ per site)."""
    return _single(n_qubits, sites, True, True, 1.0j)


def multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Exact operator product ``a * b``, phase included.

    Moving ``Z^za`` across ``X^xb`` picks up ``(-1)`` per overlapping qubit.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("size mismatch: {} vs {} qubits".format(a.n_qubits, b.n_qubits))
    sign = -1.0 if _parity(a.z_mask & b.x_mask) else 1.0
    return PauliTerm(
        a.n_qubits,
        a.x_mask ^ b.x_mask,
        a.z_mask ^ b.z_mask,
        a.coeff * b.coeff * sign,
    )


def commutes(a: PauliTerm, b: PauliTerm) -> bool:
    """Symplectic-parity test: true iff ``ab == ba``."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("size mismatch: {} vs {} qubits".format(a.n_qubits, b.n_qubits))
    return (_parity(a.x_mask & b.z_mask) ^ _parity(a.z_mask & b.x_mask)) == 0


def conjugate_by_cnot(p: PauliTerm, control: int, target: int) -> PauliTerm:
    """Clifford update ``C p C``  for the controlled-NOT ``C`` (self-inverse).

    X on the control spreads to the target, Z on the target spreads to the
    control; the X block stays X-type and the Z block stays Z-type, so the
    stored coefficient is unchanged.
    """
    n = p.n_qubits
    if not (0 <= control < n and 0 <= target < n):
        raise ValueError("gate qubit index out of range")
    if control == target:
        raise ValueError("control and target must differ")
    cbit = 1 << control
    tbit = 1 << target
    x = p.x_mask
    z = p.z_mask
    if x & cbit:
        x ^= tbit
    if z & tbit:
        z ^= cbit
    return PauliTerm(n, x, z, p.coeff)


def conjugate_by_circuit(p: PauliTerm, circuit) -> PauliTerm:
    """Conjugate by an ordered CNOT list ``[(control, target), ...]``.

    Gates are folded left to right in application order: ``circuit[0]`` is the
    first gate applied to a state, hence the innermost conjugation.
    """
    for control, target in circuit:
        p = conjugate_by_cnot(p, control, target)
    return p


def apply_to_state(p: PauliTerm, v: np.ndarray) -> np.ndarray:
    """Return ``p @ v`` as a complex vector, for a dense state of length ``2**n``.

    out[j] = coeff * (-1)^{popcount((j ^ x) & z)} * v[j ^ x]; ``v`` may be
    real, integer or complex.  This is the one-term case of the kernel
    described in the module docstring: past one read of ``v`` to find its
    support, its cost scales with that support.
    """
    return _apply_terms((p,), p.n_qubits, v)


def _sign_vector(mask: int, index: np.ndarray) -> np.ndarray:
    """(-1)^popcount(k & mask) for each k >= 0 of the int64 ``index``, as float64.

    The XOR fold starts at the largest shift below the mask's bit length,
    so it covers every bit of k & mask and does no more steps than that needs.
    """
    parity = index & mask
    for shift in (32, 16, 8, 4, 2, 1):
        if shift < mask.bit_length():
            parity ^= parity >> shift
    return 1.0 - 2.0 * (parity & 1)


def _factor(scale: float, z: int, index: np.ndarray, width: int):
    """``scale`` times the Z sign of each output index, once per float of its cell."""
    return np.repeat(scale * _sign_vector(z, index), width) if z else scale


def _support(v: np.ndarray) -> np.ndarray:
    """Indices of the nonzero cells of ``v``; a complex cell is nonzero when either part is.

    A function of its own so that its 2**n masks are freed before
    ``_apply_terms`` allocates its output.
    """
    if not np.iscomplexobj(v):
        return np.flatnonzero(v != 0)
    parts = np.ascontiguousarray(v).view(v.real.dtype) != 0
    return np.flatnonzero(parts.view(np.uint16) != 0)  # one uint16 per cell, nonzero when either part is


def _apply_terms(terms, n: int, v) -> np.ndarray:
    """Sum of ``t @ v`` over ``terms`` in order; see the module docstring."""
    v = np.asarray(v)
    if v.shape != (1 << n,):
        raise ValueError(f"state length {v.shape} does not match 2**{n}")
    supp = _support(v)
    if supp.size == 1:
        supp = np.append(supp, supp ^ 1)  # see the module docstring
    cells = v[supp]
    out = np.zeros(1 << n, dtype=complex)
    complex_coeffs = any(complex(t.coeff).imag != 0.0 for t in terms)
    if complex_coeffs or (np.iscomplexobj(cells) and cells.imag.any()):
        vals, width, acc = cells.astype(complex, copy=False).view(np.float64), 2, out
    else:
        vals, width, acc = cells.real.astype(np.float64), 1, out.real
    buf = np.empty_like(vals)
    prod = buf.view(complex) if width == 2 else buf  # buf as cells
    for t in terms:
        c = complex(t.coeff)
        sign = -1.0 if _parity(t.x_mask & t.z_mask) else 1.0
        scale = sign if c.imag != 0.0 else sign * c.real
        idx = supp ^ t.x_mask
        np.multiply(vals, _factor(scale, t.z_mask, idx, width), out=buf)
        if c.imag != 0.0:
            prod *= c
        acc[idx] += prod
    return out


@dataclass(frozen=True)
class PauliSum:
    """Canonical sum of Pauli terms over a common register.

    No two terms share a mask pair and exact-zero coefficients are dropped;
    terms are kept sorted by ``(z_mask, x_mask)`` so equal sums compare equal.
    """

    n_qubits: int
    terms: tuple = field(default_factory=tuple)

    @classmethod
    def from_terms(cls, terms, n_qubits: int | None = None) -> "PauliSum":
        terms = list(terms)
        if n_qubits is None:
            if not terms:
                raise ValueError("cannot infer register size from an empty sum")
            n_qubits = terms[0].n_qubits
        merged: dict[tuple[int, int], complex] = {}
        for t in terms:
            if t.n_qubits != n_qubits:
                raise ValueError("mixed register sizes in PauliSum")
            key = (t.z_mask, t.x_mask)
            merged[key] = merged.get(key, 0.0) + t.coeff
        kept = tuple(
            PauliTerm(n_qubits, x, z, c)
            for (z, x), c in sorted(merged.items())
            if c != 0.0
        )
        return cls(n_qubits, kept)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("size mismatch")
        return PauliSum.from_terms(self.terms + other.terms, self.n_qubits)

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum.from_terms((t.scaled(factor) for t in self.terms), self.n_qubits)

    def conjugated_by_circuit(self, circuit) -> "PauliSum":
        return PauliSum.from_terms(
            (conjugate_by_circuit(t, circuit) for t in self.terms), self.n_qubits
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Dense action ``sum_t t @ v`` as a complex vector, summed in term order.

        No matrix is built.  Only the nonzero entries of ``v`` are mapped,
        so past one read of ``v`` to find them the cost scales with that
        support; see the module docstring.
        """
        return _apply_terms(self.terms, self.n_qubits, v)

    def is_hermitian(self, tol: float = 0.0) -> bool:
        """A term X^x Z^z is Hermitian up to the sign (-1)^{|x & z|}."""
        for t in self.terms:
            want = t.coeff.conjugate() * (-1.0 if _parity(t.x_mask & t.z_mask) else 1.0)
            if abs(t.coeff - want) > tol:
                return False
        return True
