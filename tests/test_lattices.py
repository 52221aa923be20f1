import numpy as np
import pytest

from memstress.lattices import (
    IsingLattice,
    ToricLattice,
    ising_error_prefix,
    ising_hamiltonian,
    ising_perturbation,
    ising_prefix_energy,
    ising_retained_lengths,
    toric_error_string,
    toric_hamiltonian,
    toric_logicals,
    toric_perturbation,
)
from memstress.pauli import commutes, identity, multiply


def test_site_index_is_frozen():
    lat = ToricLattice(3)
    # row-major in (z, x), N sites per row, coordinates mod 2N
    assert lat.site_index(0, 0) == 0
    assert lat.site_index(2, 0) == 1
    assert lat.site_index(4, 0) == 2
    assert lat.site_index(1, 1) == 3
    assert lat.site_index(1, -1) == 15
    assert lat.site_index(6, 0) == 0  # periodic wrap
    with pytest.raises(ValueError):
        lat.site_index(1, 0)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_toric_stabilizer_counts_and_weights(N):
    lat = ToricLattice(N)
    stabs = lat.stabilizers()
    assert len(stabs) == 2 * N * N
    assert all(s.weight == 4 for s in stabs)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_toric_stabilizers_all_commute(N):
    stabs = ToricLattice(N).stabilizers()
    for i, a in enumerate(stabs):
        for b in stabs[i + 1 :]:
            assert commutes(a, b)


@pytest.mark.parametrize("N", [2, 3])
def test_stabilizer_products_are_identity(N):
    lat = ToricLattice(N)
    prod_z = identity(lat.n_qubits)
    prod_x = identity(lat.n_qubits)
    for i in range(N):
        for j in range(N):
            prod_z = multiply(prod_z, lat.plaquette(i, j))
            prod_x = multiply(prod_x, lat.star(i, j))
    assert prod_z == identity(lat.n_qubits)
    assert prod_x == identity(lat.n_qubits)


def test_toric_hamiltonian_terms():
    lat = ToricLattice(2, delta_gap=0.8)
    h = toric_hamiltonian(lat)
    assert len(h) == 8
    assert all(t.weight == 4 for t in h)
    assert all(t.coeff == -0.4 for t in h)


def test_toric_hamiltonian_rejects_small_lattice():
    with pytest.raises(ValueError):
        ToricLattice(1)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_logicals(N):
    lat = ToricLattice(N)
    z1, z2, xs = toric_logicals(lat)
    assert z1.weight == N and z2.weight == N and xs.weight == N
    for s in lat.stabilizers():
        assert commutes(z1, s)
        assert commutes(z2, s)
        assert commutes(xs, s)
    # the X string flips exactly one of the two encoded qubits
    assert commutes(xs, z1)
    assert not commutes(xs, z2)


def test_error_string_endpoints():
    N = 4
    lat = ToricLattice(N)
    plaqs = [lat.plaquette(i, 0) for i in range(N)]
    for l in range(N - 1):
        u = toric_error_string(lat, l)
        assert u.weight == l + 1
        flipped = [i for i, p in enumerate(plaqs) if not commutes(u, p)]
        assert flipped == sorted({l, N - 1})
        for j in range(1, N):
            assert commutes(u, lat.plaquette(l, j))
    closed = toric_error_string(lat, N - 1)
    assert all(commutes(closed, s) for s in lat.stabilizers())


def test_error_string_range():
    lat = ToricLattice(3)
    with pytest.raises(ValueError):
        toric_error_string(lat, 3)
    with pytest.raises(ValueError):
        toric_error_string(lat, -1)


def test_toric_perturbation_empty_and_support():
    lat = ToricLattice(4)
    empty = toric_perturbation(lat, np.zeros(2), np.zeros(3), 0.1)
    assert len(empty) == 0
    dh = toric_perturbation(lat, np.full(2, 0.5), np.full(3, 0.25), 0.1)
    assert all(t.weight <= 9 for t in dh)
    assert dh.is_hermitian()


def test_toric_perturbation_validation():
    lat = ToricLattice(4)
    with pytest.raises(ValueError):
        toric_perturbation(lat, np.zeros(3), np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        toric_perturbation(lat, np.zeros(2), np.zeros(2), 0.1)
    with pytest.raises(ValueError):
        toric_perturbation(lat, np.full(2, 1.5), np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        toric_perturbation(lat, np.zeros(2), np.zeros(3), 0.0)


def test_ising_bond_enumeration():
    # periodic N=2 doubles every pair: still 2 N^2 bonds (multigraph)
    assert len(IsingLattice(2).bonds) == 8
    assert len(IsingLattice(3).bonds) == 18
    lat = IsingLattice(3)
    for a, b in lat.bonds:
        ra, ca = divmod(a, 3)
        rb, cb = divmod(b, 3)
        dr = min((ra - rb) % 3, (rb - ra) % 3)
        dc = min((ca - cb) % 3, (cb - ca) % 3)
        assert dr + dc == 1


def test_ising_hamiltonian_merges_doubled_bonds():
    h2 = ising_hamiltonian(IsingLattice(2))
    assert len(h2) == 4
    assert all(t.coeff == -1.0 for t in h2)
    h3 = ising_hamiltonian(IsingLattice(3))
    assert len(h3) == 18
    assert all(t.coeff == -0.5 for t in h3)


def test_ising_ground_states_degenerate_dense_oracle():
    lat = IsingLattice(2)
    h = ising_hamiltonian(lat)
    dim = 1 << lat.n_qubits
    mat = np.zeros((dim, dim))
    for i in range(dim):
        col = np.zeros(dim, dtype=complex)
        col[i] = 1.0
        mat[:, i] = np.real(h.apply(col))
    w = np.linalg.eigvalsh(mat)
    assert mat[0, 0] == pytest.approx(w[0])
    assert mat[-1, -1] == pytest.approx(w[0])
    assert w[1] == pytest.approx(w[0])


def test_single_flip_costs_four():
    for N in (2, 3, 4):
        assert ising_prefix_energy(IsingLattice(N), 1) == 4


def test_prefix_energy_first_row_ramp():
    lat = IsingLattice(4)
    for l in range(1, 4):
        assert ising_prefix_energy(lat, l) == 2 * l + 2
    assert ising_prefix_energy(lat, lat.n_qubits) == 0


def test_snake_order_adjacency():
    lat = IsingLattice(4)
    bondset = {frozenset(b) for b in lat.bonds}
    for l in range(1, lat.n_qubits):
        pair = frozenset((lat.snake_vertex(l), lat.snake_vertex(l + 1)))
        assert pair in bondset


@pytest.mark.parametrize("N", [3, 4, 5])
def test_retained_lengths_counts_and_palindrome(N):
    lat = IsingLattice(N)
    lengths = ising_retained_lengths(lat)
    M = N * (N - 1) - 2
    assert len(lengths) == M
    assert lengths == sorted(lengths)
    energies = [ising_prefix_energy(lat, l) for l in lengths]
    assert energies == energies[::-1]
    plateau = [e for e in energies if e == 2 * (N + 1)]
    assert len(plateau) == (N - 1) * (N - 2) - 2
    # the ramp energies 4 .. 2N each appear exactly twice (once per side)
    for i in range(1, N):
        assert energies.count(2 * (i + 1)) == 2


def test_retained_lengths_n3():
    assert ising_retained_lengths(IsingLattice(3)) == [1, 2, 7, 8]


def test_ising_prefix_basics():
    lat = IsingLattice(3)
    assert ising_error_prefix(lat, 1).weight == 1
    assert ising_error_prefix(lat, 9).weight == 9
    with pytest.raises(ValueError):
        ising_error_prefix(lat, 0)
    with pytest.raises(ValueError):
        ising_error_prefix(lat, 10)


def test_ising_perturbation_shape_and_hermiticity():
    lat = IsingLattice(3)
    M = 4
    empty = ising_perturbation(lat, np.zeros(M - 1), np.zeros(M), 0.1)
    assert len(empty) == 0
    dh = ising_perturbation(lat, np.ones(M - 1), np.zeros(M), 0.1)
    assert dh.is_hermitian()
    # single-step hops act on 3 qubits; only the row-boundary jumps are wider
    lat4 = IsingLattice(4)
    lengths = ising_retained_lengths(lat4)
    J = np.zeros(len(lengths) - 1)
    for k in range(len(J)):
        if lengths[k + 1] - lengths[k] == 1:
            J[k] = 1.0
    dh_steps = ising_perturbation(lat4, J, np.zeros(len(lengths)), 0.1)
    assert all(t.weight <= 3 for t in dh_steps)
    with pytest.raises(ValueError):
        ising_perturbation(lat, np.ones(M), np.zeros(M), 0.1)
    with pytest.raises(ValueError):
        ising_perturbation(lat, np.ones(M - 1), np.zeros(M), -0.5)


def _expand(delta, moves, marks, J, B):
    """{(z_mask, x_mask): coeff} of (delta/2) sum J X^x (1 - Z^z) + (delta/2) sum B (1 - Z^z).

    Each move is an (x_mask, guard z_mask) pair on disjoint qubits, so X^x Z^z
    is already in stored X-left-of-Z form with coefficient +1.  Terms are
    summed in the formula's order, hops first.
    """
    out = {}

    def add(z, x, c):
        out[(z, x)] = out.get((z, x), 0.0) + c

    for (x, z), j in zip(moves, J):
        if j != 0.0:
            add(0, x, 0.5 * delta * j)
            add(z, x, -(0.5 * delta * j))
    for z, b in zip(marks, B):
        if b != 0.0:
            add(0, 0, 0.5 * delta * b)
            add(z, 0, -(0.5 * delta * b))
    return {k: c for k, c in out.items() if c != 0.0}


def _bits(*sites):
    return sum(1 << s for s in sites)


@pytest.mark.parametrize("kind,N", [("toric", 3), ("toric", 4), ("ising", 3), ("ising", 4)])
def test_perturbation_coefficients_match_formula_exactly(kind, N):
    rng = np.random.default_rng(N)
    delta = 0.137
    if kind == "toric":
        lat = ToricLattice(N)

        def zbar(i):  # Z diamond centred at (2i+1, 0)
            return _bits(*(lat.site_index(2 * i + dx, dz) for dx, dz in
                           ((0, 0), (1, 1), (2, 0), (1, -1))))

        moves = [(_bits(lat.site_index(2 * i + 2, 0)), zbar(i) ^ zbar(i + 1))
                 for i in range(N - 2)]
        marks = [zbar(i) for i in range(N - 1)]
        build = toric_perturbation
    else:
        lat = IsingLattice(N)
        v = lat.snake_vertex
        ls = ising_retained_lengths(lat)
        moves = [(_bits(*(v(q) for q in range(lo + 1, hi + 1))), _bits(v(lo), v(hi + 1)))
                 for lo, hi in zip(ls, ls[1:])]
        marks = [_bits(v(l), v(l + 1)) for l in ls]
        build = ising_perturbation
    J = rng.uniform(-1.0, 1.0, len(moves))
    # spread magnitudes so the merged identity coefficient depends on the
    # order the detunings are summed in
    B = rng.uniform(-1.0, 1.0, len(marks)) * 10.0 ** -rng.integers(0, 17, len(marks))
    J[1::2] = 0.0
    B[::3] = 0.0
    dh = build(lat, J, B, delta)
    got = {(t.z_mask, t.x_mask): t.coeff for t in dh}
    assert got == _expand(delta, moves, marks, J, B)
    assert len(got) == 2 * np.count_nonzero(J) + np.count_nonzero(B) + 1
