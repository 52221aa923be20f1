"""Exact algebra of signed Pauli strings in symplectic (bitmask) form.

A term is ``coeff * X^x * Z^z`` where ``x`` and ``z`` are n-bit masks and the
X block is written to the left of the Z block.  A ``Y`` on qubit ``q`` sets
bit ``q`` in both masks and multiplies the coefficient by ``i`` (``Y = iXZ``),
so the stored data always denotes the operator exactly, phase included.

Qubit 0 is the least-significant bit of both the masks and the statevector
index.  Lattice geometry lives elsewhere; this module only sees flat indices.

Dense action.  ``apply_to_state`` and ``PauliSum.apply`` share one kernel
that works in float64 arithmetic.  A real state goes in as it is.  A complex
state is its float64 view: a real state with one more axis (re/im) that is
never flipped or signed.  That axis is dropped when the imaginary parts of the
state and of every coefficient are all zero.

On the ``(2,)*n`` view of the state, where qubit q is axis ``n-1-q``, X^x
reverses the axes of x's bits; a run of adjacent qubits with equal x bits is
one axis.  The Z sign at output index j is (-1)^parity(x&z) (-1)^popcount(j&z).
Its second factor is the product of two sign vectors over the high and low
halves of j, built from ``arange`` indices on every call; nothing is cached
between calls.  A real coefficient c folds with the sign into one ±c factor,
so each term is one multiply of the flipped view into a reused buffer, a
multiply per sign vector, and one ``+=`` into the sum, in term order.  A
coefficient with a nonzero imaginary part takes numpy's complex ``*=`` after
the exact sign step, as the former complex kernel did.  Every value equals
that kernel's up to the sign of a zero, and sums equal it byte for byte.
"""

from __future__ import annotations

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
    described in the module docstring.
    """
    return _apply_terms((p,), p.n_qubits, v)


def _sign_vector(mask: int, index: np.ndarray) -> np.ndarray:
    """(-1)^popcount(k & mask) for each k < 2**32 of ``index``, as float64."""
    parity = index & mask
    for shift in (16, 8, 4, 2, 1):
        parity ^= parity >> shift
    return 1.0 - 2.0 * (parity & 1)


def _flipped(planes: np.ndarray, x_mask: int, n: int, tail: tuple) -> np.ndarray:
    """The view ``planes[j ^ x_mask]``, one axis per run of equal x bits."""
    shape, flips = [], []
    q = n - 1
    while q >= 0:
        bit = (x_mask >> q) & 1
        k = q
        while k >= 0 and (x_mask >> k) & 1 == bit:
            k -= 1
        shape.append(1 << (q - k))
        flips.append(slice(None, None, -1) if bit else slice(None))
        q = k
    return planes.reshape(tuple(shape) + tail)[tuple(flips)]


def _apply_terms(terms, n: int, v) -> np.ndarray:
    """Sum of ``t @ v`` over ``terms`` in order; see the module docstring."""
    v = np.asarray(v)
    dim = 1 << n
    if v.shape != (dim,):
        raise ValueError(f"state length {v.shape} does not match 2**{n}")
    coeffs = [complex(t.coeff) for t in terms]
    if any(c.imag != 0.0 for c in coeffs) or (np.iscomplexobj(v) and v.imag.any()):
        planes = np.ascontiguousarray(v, dtype=complex).view(np.float64)
        tail = (2,)
    else:
        planes = np.ascontiguousarray(v.real, dtype=np.float64)
        tail = ()
    lo = n // 2
    hi_index = np.arange(1 << (n - lo))
    lo_index = np.arange(1 << lo)
    acc = np.zeros(planes.size)
    buf = np.empty(planes.size)
    rows = buf.reshape(hi_index.size, -1)  # high half of j by low half (and re/im)
    for t, c in zip(terms, coeffs):
        scale = -1.0 if _parity(t.x_mask & t.z_mask) else 1.0
        if c.imag == 0.0:
            scale *= c.real
        z_hi = t.z_mask >> lo
        z_lo = t.z_mask & ((1 << lo) - 1)
        if t.x_mask == 0 and z_hi:
            signed = scale * _sign_vector(z_hi, hi_index)
            np.multiply(planes.reshape(rows.shape), signed[:, None], out=rows)
        else:
            src = _flipped(planes, t.x_mask, n, tail)
            np.multiply(src, scale, out=buf.reshape(src.shape))
            if z_hi:
                rows *= _sign_vector(z_hi, hi_index)[:, None]
        if z_lo:
            rows *= np.repeat(_sign_vector(z_lo, lo_index), len(tail) + 1)
        if c.imag != 0.0:
            cbuf = buf.view(complex)
            cbuf *= c
        acc += buf
    return acc.view(complex) if tail else acc.astype(complex)


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

        No matrix is built; see the module docstring for the kernel.
        """
        return _apply_terms(self.terms, self.n_qubits, v)

    def is_hermitian(self, tol: float = 0.0) -> bool:
        """A term X^x Z^z is Hermitian up to the sign (-1)^{|x & z|}."""
        for t in self.terms:
            want = t.coeff.conjugate() * (-1.0 if _parity(t.x_mask & t.z_mask) else 1.0)
            if abs(t.coeff - want) > tol:
                return False
        return True
