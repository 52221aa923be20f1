import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memstress.pauli import (
    PauliSum,
    PauliTerm,
    apply_to_state,
    commutes,
    conjugate_by_circuit,
    conjugate_by_cnot,
    identity,
    multiply,
    pauli_x,
    pauli_y,
    pauli_z,
)

I2 = np.eye(2)
X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
Z2 = np.array([[1.0, 0.0], [0.0, -1.0]])


def term_to_dense(p: PauliTerm) -> np.ndarray:
    """Independent dense build: kron of per-qubit X^x Z^z factors."""
    out = np.array([[p.coeff]])
    for q in range(p.n_qubits):
        f = I2
        if (p.x_mask >> q) & 1:
            f = f @ X2
        if (p.z_mask >> q) & 1:
            f = f @ Z2
        out = np.kron(f, out)
    return out


def terms(n=4):
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    coeffs = st.sampled_from([1.0, -1.0, 1j, -1j, 0.5, 2.0 - 1.0j])
    return st.builds(lambda x, z, c: PauliTerm(n, x, z, c), masks, masks, coeffs)


def test_multiply_xz_gives_minus_iy():
    prod = multiply(pauli_x(2, 0), pauli_z(2, 0))
    minus_iy = pauli_y(2, 0).scaled(-1j)
    assert prod == minus_iy


def test_multiply_identity_is_neutral():
    p = pauli_y(3, 1).scaled(0.7j)
    assert multiply(identity(3), p) == p
    assert multiply(p, identity(3)) == p


def test_stabilizer_squares_to_identity():
    zbar = pauli_z(8, 0, 1, 4, 5)
    sq = multiply(zbar, zbar)
    assert sq == identity(8)


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        multiply(pauli_x(2, 0), pauli_x(3, 0))


def test_commutes_basic():
    assert commutes(pauli_x(2, 0), pauli_z(2, 1))
    assert not commutes(pauli_x(2, 0), pauli_z(2, 0))


@given(terms(), terms())
def test_commutes_matches_product_sign(a, b):
    ab = multiply(a, b)
    ba = multiply(b, a)
    assert ab.x_mask == ba.x_mask and ab.z_mask == ba.z_mask
    if commutes(a, b):
        assert ab.coeff == ba.coeff
    else:
        assert ab.coeff == -ba.coeff


def test_cnot_rules():
    # X on control spreads to target, Z on control stays
    assert conjugate_by_cnot(pauli_x(2, 0), 0, 1) == pauli_x(2, 0, 1)
    assert conjugate_by_cnot(pauli_z(2, 0), 0, 1) == pauli_z(2, 0)
    # X on target stays, Z on target spreads to control
    assert conjugate_by_cnot(pauli_x(2, 1), 0, 1) == pauli_x(2, 1)
    assert conjugate_by_cnot(pauli_z(2, 1), 0, 1) == pauli_z(2, 0, 1)


def test_cnot_on_y_against_dense_oracle():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float
    )  # control = qubit 0 (LSB), target = qubit 1
    y_ctrl = pauli_y(2, 0)
    got = term_to_dense(conjugate_by_cnot(y_ctrl, 0, 1))
    want = cnot @ term_to_dense(y_ctrl) @ cnot
    assert np.max(np.abs(got - want)) < 1e-14


def test_cnot_validation():
    with pytest.raises(ValueError):
        conjugate_by_cnot(pauli_x(2, 0), 0, 0)
    with pytest.raises(ValueError):
        conjugate_by_cnot(pauli_x(2, 0), 0, 5)


@given(terms())
def test_cnot_weight_grows_by_at_most_one(p):
    q = conjugate_by_cnot(p, 1, 3)
    assert q.weight <= p.weight + 1


@given(terms())
def test_cnot_double_conjugation_is_identity(p):
    assert conjugate_by_cnot(conjugate_by_cnot(p, 2, 0), 2, 0) == p


def test_empty_circuit_is_identity():
    p = pauli_y(4, 2).scaled(-3.0)
    assert conjugate_by_circuit(p, []) == p


@given(terms(), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6))
def test_circuit_then_reverse_restores(p, gates):
    gates = [(c, t) for c, t in gates if c != t]
    q = conjugate_by_circuit(p, gates)
    back = conjugate_by_circuit(q, list(reversed(gates)))
    assert back == p


def test_apply_identity_and_flip():
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    assert np.allclose(apply_to_state(identity(3), v), v)
    flipped = apply_to_state(pauli_x(3, 0), v)
    want = np.zeros(8, dtype=complex)
    want[1] = 1.0
    assert np.allclose(flipped, want)


def test_apply_involution_on_random_state():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    x = pauli_x(4, 2)
    assert np.allclose(apply_to_state(x, apply_to_state(x, v)), v, atol=1e-14)


@given(terms(), st.integers(0, 99))
@settings(max_examples=60)
def test_apply_respects_products(a, seed):
    b = PauliTerm(4, (a.x_mask * 7 + 3) & 15, (a.z_mask * 5 + 6) & 15, 1j)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    lhs = apply_to_state(multiply(a, b), v)
    rhs = apply_to_state(a, apply_to_state(b, v))
    assert np.max(np.abs(lhs - rhs)) < 1e-14 * (1 + np.max(np.abs(lhs)))


def test_apply_respects_products_ten_qubits():
    rng = np.random.default_rng(2)
    n = 10
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    a = PauliTerm(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), 0.5 - 1j)
    b = PauliTerm(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), 2.0j)
    lhs = apply_to_state(multiply(a, b), v)
    rhs = apply_to_state(a, apply_to_state(b, v))
    assert np.max(np.abs(lhs - rhs)) < 1e-14 * np.max(np.abs(lhs))


@given(terms())
@settings(max_examples=40)
def test_apply_matches_dense_oracle(p):
    rng = np.random.default_rng(11)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.max(np.abs(apply_to_state(p, v) - term_to_dense(p) @ v)) < 1e-12


def test_apply_length_mismatch():
    with pytest.raises(ValueError):
        apply_to_state(pauli_x(3, 0), np.zeros(4))


def test_paulisum_canonicalization():
    t1 = pauli_x(2, 0).scaled(0.5)
    t2 = pauli_x(2, 0).scaled(-0.5)
    t3 = pauli_z(2, 1)
    s = PauliSum.from_terms([t1, t3, t2])
    assert len(s) == 1 and s.terms[0] == t3
    assert len(PauliSum.from_terms([], n_qubits=2)) == 0


def test_paulisum_merges_duplicates():
    s = PauliSum.from_terms([pauli_z(2, 0), pauli_z(2, 0)])
    assert len(s) == 1
    assert s.terms[0].coeff == 2.0


def test_paulisum_hermiticity_check():
    assert PauliSum.from_terms([pauli_y(2, 0), pauli_x(2, 1).scaled(2.0)]).is_hermitian()
    assert not PauliSum.from_terms([pauli_x(2, 0).scaled(1j)]).is_hermitian()


def _reference_apply(p: PauliTerm, v) -> np.ndarray:
    """The former kernel: gather v[j ^ x] through an index table, Z signs by popcount."""
    src = np.arange(1 << p.n_qubits, dtype=np.uint32) ^ np.uint32(p.x_mask)
    out = np.asarray(v)[src].astype(complex, copy=True)
    if p.z_mask:
        parity = src & np.uint32(p.z_mask)
        for shift in (16, 8, 4, 2, 1):
            parity ^= parity >> np.uint32(shift)
        out *= 1.0 - 2.0 * (parity & np.uint32(1))
    if p.coeff != 1.0:
        out *= p.coeff
    return out


def _reference_sum_apply(h: PauliSum, v) -> np.ndarray:
    out = np.zeros(1 << h.n_qubits, dtype=complex)
    for t in h.terms:
        out += _reference_apply(t, v)
    return out


_SIGNED_COEFFS = (1.0, -1.0, 0.5, 1j, -1j, 2.0 - 1.0j, complex(-0.0, 1.5),
                  complex(0.75, -0.0), complex(-0.0, -0.0) + 0.25)


def _random_sum(rng, n: int, n_terms: int) -> PauliSum:
    terms = []
    for _ in range(n_terms):
        x, z = (int(m) for m in rng.integers(0, 1 << n, size=2))
        c = _SIGNED_COEFFS[rng.integers(len(_SIGNED_COEFFS))] * rng.uniform(0.1, 2.0)
        terms.append(PauliTerm(n, x, z, c))
    sites = [int(s) for s in rng.choice(n, size=min(n, 2), replace=False)]
    terms.append(pauli_y(n, *sites).scaled(rng.uniform(-1.0, 1.0)))
    return PauliSum.from_terms(terms, n)


def _signed_zero_states(rng, n: int):
    """A real and a complex state whose parts hold zeros of both signs."""
    dim = 1 << n
    real = rng.standard_normal(dim)
    real[rng.random(dim) < 0.2] = 0.0
    real[rng.random(dim) < 0.2] = -0.0
    imag = rng.standard_normal(dim)
    imag[rng.random(dim) < 0.3] = -0.0
    imag[rng.random(dim) < 0.1] = 0.0
    return real, real + 1j * imag


def test_sum_apply_is_byte_equal_to_index_table_kernel():
    rng = np.random.default_rng(20)
    for n in (1, 2, 5, 12):
        for _ in range(25):
            h = _random_sum(rng, n, int(rng.integers(1, 24)))
            for v in _signed_zero_states(rng, n):
                assert h.apply(v).tobytes() == _reference_sum_apply(h, v).tobytes()


def test_sum_apply_is_byte_equal_on_toric_hamiltonian():
    from memstress.lattices import ToricLattice, toric_hamiltonian, toric_perturbation
    from memstress.oracle import toric_ground_state

    lat = ToricLattice(3)
    rng = np.random.default_rng(4)
    h = toric_hamiltonian(lat) + toric_perturbation(
        lat, rng.uniform(0.3, 0.9, 1), rng.uniform(-0.5, 0.5, 2), 0.1
    )
    assert lat.n_qubits == 18
    states = (*_signed_zero_states(rng, lat.n_qubits), toric_ground_state(lat))
    for v in states:
        assert h.apply(v).tobytes() == _reference_sum_apply(h, v).tobytes()


def test_apply_agrees_with_index_table_kernel():
    rng = np.random.default_rng(21)
    for n in (1, 3, 6, 9):
        real, cplx = _signed_zero_states(rng, n)
        for _ in range(40):
            x, z = (int(m) for m in rng.integers(0, 1 << n, size=2))
            p = PauliTerm(n, x, z, _SIGNED_COEFFS[rng.integers(len(_SIGNED_COEFFS))])
            for v in (real, cplx):
                assert np.array_equal(apply_to_state(p, v), _reference_apply(p, v))


def test_complex_state_with_zero_imaginary_part_matches_real_state():
    rng = np.random.default_rng(22)
    for n in (1, 4, 11):
        real, _ = _signed_zero_states(rng, n)
        v = real.astype(complex)
        v.imag = np.where(rng.random(1 << n) < 0.5, -0.0, 0.0)
        v.imag[0] = -0.0
        assert np.signbit(v.imag).any() and not v.imag.any()
        h = _random_sum(rng, n, 12)
        h = PauliSum.from_terms([PauliTerm(n, t.x_mask, t.z_mask, t.coeff.real) for t in h], n)
        assert h.apply(v).tobytes() == _reference_sum_apply(h, v).tobytes()
        assert h.apply(v).tobytes() == h.apply(real).tobytes()
        for t in h:
            assert np.array_equal(apply_to_state(t, v), _reference_apply(t, v))


def test_integer_and_float_states_give_complex_output():
    rng = np.random.default_rng(23)
    n = 6
    h = _random_sum(rng, n, 10)
    ints = rng.integers(-3, 4, size=1 << n)
    for v in (ints, ints.astype(np.float32), ints.astype(float), np.zeros(1 << n, dtype=int)):
        out = h.apply(v)
        assert out.dtype == np.complex128 and out.shape == (1 << n,)
        assert out.tobytes() == _reference_sum_apply(h, v).tobytes()
        for t in h:
            one = apply_to_state(t, v)
            assert one.dtype == np.complex128
            assert np.array_equal(one, _reference_apply(t, v))


@pytest.mark.parametrize("n", [2, 7, 12])
def test_flips_and_signs_on_the_end_qubits(n):
    rng = np.random.default_rng(n)
    ends = (0, 1, 1 << (n - 1), 1 | (1 << (n - 1)))
    for v in _signed_zero_states(rng, n):
        for x in ends:
            for z in ends:
                for c in (0.5, -1j, 2.0 - 1.0j):
                    p = PauliTerm(n, x, z, c)
                    assert np.array_equal(apply_to_state(p, v), _reference_apply(p, v))
                    h = PauliSum.from_terms([p, PauliTerm(n, z, x, 0.25)], n)
                    assert h.apply(v).tobytes() == _reference_sum_apply(h, v).tobytes()


def test_single_qubit_against_dense_matrices():
    rng = np.random.default_rng(24)
    for v in (*_signed_zero_states(rng, 1), np.array([1.0, -2.0])):
        for x in (0, 1):
            for z in (0, 1):
                for c in _SIGNED_COEFFS:
                    p = PauliTerm(1, x, z, c)
                    assert np.array_equal(apply_to_state(p, v), _reference_apply(p, v))
                    assert np.allclose(apply_to_state(p, v), term_to_dense(p) @ v, atol=0.0)
        h = PauliSum.from_terms([pauli_x(1, 0), pauli_y(1, 0).scaled(0.5), pauli_z(1, 0)], 1)
        assert h.apply(v).tobytes() == _reference_sum_apply(h, v).tobytes()


def test_imaginary_coefficient_on_real_state():
    rng = np.random.default_rng(25)
    n = 8
    v = rng.standard_normal(1 << n)
    for x, z in ((0, 0), (5, 0), (0, 129), (77, 200)):
        p = PauliTerm(n, x, z, 1.5j)
        out = apply_to_state(p, v)
        assert np.array_equal(out, _reference_apply(p, v))
        assert not out.real.any() and np.array_equal(out.imag, _reference_apply(p.scaled(-1j), v).real)
        h = PauliSum.from_terms([p, PauliTerm(n, z, x, -0.75)], n)
        assert h.apply(v).tobytes() == _reference_sum_apply(h, v).tobytes()


@pytest.mark.parametrize("n", [13, 14, 15])
def test_sum_apply_is_byte_equal_on_dense_states(n):
    # every mask but 0 flips or signs bits on both sides of bit 13
    rng = np.random.default_rng(30 + n)
    edges = [1 << b for b in (11, 12, 13, 14) if b < n]
    masks = [int(rng.integers(0, 1 << n)) | edges[0] | edges[-1] for _ in range(5)]
    masks += [0, edges[0] | edges[-1], edges[len(edges) // 2]]
    terms = []
    for _ in range(30):
        x, z = (masks[i] for i in rng.integers(len(masks), size=2))
        c = _SIGNED_COEFFS[rng.integers(len(_SIGNED_COEFFS))] * rng.uniform(0.1, 2.0)
        terms.append(PauliTerm(n, x, z, c))
    complex_sum = PauliSum.from_terms(terms, n)
    real_sum = PauliSum.from_terms([PauliTerm(n, t.x_mask, t.z_mask, t.coeff.real)
                                    for t in terms if t.coeff.real != 0.0], n)
    assert any(t.coeff.imag for t in complex_sum) and not any(t.coeff.imag for t in real_sum)
    real, cplx = _signed_zero_states(rng, n)
    for v in (real, cplx):
        for h in (real_sum, complex_sum):
            assert h.apply(v).tobytes() == _reference_sum_apply(h, v).tobytes()
        for t in complex_sum.terms[:6]:
            assert np.array_equal(apply_to_state(t, v), _reference_apply(t, v))


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf"), complex(0.0, float("nan")),
                                   complex(float("inf"), 1.0)])
def test_non_finite_coefficient_is_rejected(coeff):
    with pytest.raises(ValueError, match="not finite"):
        PauliTerm(2, 1, 0, coeff)
    with pytest.raises(ValueError, match="not finite"):
        pauli_x(2, 0).scaled(coeff)


def test_sign_vector_takes_the_full_index():
    from memstress.pauli import _sign_vector

    rng = np.random.default_rng(40)
    index = rng.integers(0, 1 << 62, size=200)
    for mask in [1, 3, 0x1FF, (1 << 32) | 1, 1 << 40, int(rng.integers(0, 1 << 62))]:
        want = [(-1.0) ** bin(int(k) & mask).count("1") for k in index]
        assert np.array_equal(_sign_vector(mask, index), want)


def assert_apply_byte_equal(h: PauliSum, v):
    assert h.apply(v).tobytes() == _reference_sum_apply(h, v).tobytes()


def _sparse_states(rng, n: int, nnz: int):
    """A real and a complex state on ``nnz`` random cells, zeros of both signs elsewhere.

    Some complex cells have one zero part of either sign.
    """
    dim = 1 << n
    zeros = np.where(rng.random(dim) < 0.5, -0.0, 0.0)
    supp = rng.choice(dim, size=nnz, replace=False)
    real = zeros.copy()
    real[supp] = rng.standard_normal(nnz)
    cplx = zeros + 1j * np.where(rng.random(dim) < 0.5, -0.0, 0.0)
    cplx[supp] = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    one_part = supp[: nnz // 3]
    cplx.real[one_part[::2]] = zeros[one_part[::2]]
    cplx.imag[one_part[1::2]] = zeros[one_part[1::2]]
    return real, cplx


@pytest.mark.parametrize("n", [9, 14, 18])
def test_support_path_is_byte_equal_on_sparse_states(n):
    rng = np.random.default_rng(50 + n)
    # at n = 14 also supports of 4095-8193 cells, about a quarter to a half of the register
    wide = (4095, 4096, 4097, 8191, 8192, 8193) if n == 14 else ()
    for nnz in (2, 37, 300, *wide):
        real, cplx = _sparse_states(rng, n, nnz)
        terms = [PauliTerm(n, *(int(m) for m in rng.integers(0, 1 << n, size=2)), c * f)
                 for c in _SIGNED_COEFFS for f in (1.0, rng.uniform(0.1, 2.0))]
        h = PauliSum.from_terms(terms + [pauli_y(n, 0, n - 1).scaled(-0.75)], n)
        real_h = PauliSum.from_terms([PauliTerm(n, t.x_mask, t.z_mask, t.coeff.real)
                                      for t in h if t.coeff.real != 0.0], n)
        for v in (real, cplx):
            for s in (h, real_h):
                assert_apply_byte_equal(s, v)
        for c in _SIGNED_COEFFS:
            p = PauliTerm(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), c)
            for v in (real, cplx):
                assert np.array_equal(apply_to_state(p, v), _reference_apply(p, v))


@pytest.mark.parametrize("n", [6, 14])
def test_apply_gathers_any_dtype_and_layout(n):
    rng = np.random.default_rng(90 + n)
    h = _random_sum(rng, n, 16)
    real_h = PauliSum.from_terms([PauliTerm(n, t.x_mask, t.z_mask, t.coeff.real)
                                  for t in h if t.coeff.real != 0.0], n)
    for real, cplx in (_signed_zero_states(rng, n), _sparse_states(rng, n, 37)):
        big = np.full(2 << n, 7.0 - 7.0j)  # the cells between the strided ones must not leak in
        big[::2] = cplx
        big_real = np.full(2 << n, 7.0)
        big_real[::2] = real
        assert not big[::2].flags.c_contiguous and not big_real[::2].flags.c_contiguous
        for v in (cplx.astype(np.complex64), big[::2], big_real[::2]):
            for s in (h, real_h):
                assert_apply_byte_equal(s, v)
            for t in h.terms[:4]:
                assert np.array_equal(apply_to_state(t, v), _reference_apply(t, v))


@pytest.mark.parametrize("n", [1, 5, 18])
def test_single_and_empty_support(n):
    # numpy's complex *= takes another formula on a one-element array
    rng = np.random.default_rng(60 + n)
    h = PauliSum.from_terms([PauliTerm(n, 1, 1, 0.3 + 0.7j), PauliTerm(n, 0, 1, complex(-0.37, 1.91)),
                             PauliTerm(n, (1 << n) - 1, 0, 0.5)], n)
    for _ in range(20):
        v = np.zeros(1 << n, dtype=complex)
        v[rng.integers(1 << n)] = complex(*rng.standard_normal(2))
        assert_apply_byte_equal(h, v)
        assert_apply_byte_equal(h, v.real)
    assert_apply_byte_equal(h, np.zeros(1 << n, dtype=complex))


def test_paths_byte_equal_on_toric_states():
    from memstress.lattices import ToricLattice, toric_hamiltonian, toric_perturbation
    from memstress.oracle import krylov_propagate, toric_ground_state, toric_string_basis

    lat = ToricLattice(3)
    rng = np.random.default_rng(80)
    h = toric_hamiltonian(lat) + toric_perturbation(
        lat, rng.uniform(0.3, 0.9, 1), rng.uniform(-0.5, 0.5, 2), 0.1
    )
    psi = toric_ground_state(lat)
    strings = toric_string_basis(lat, psi)
    evolved = krylov_propagate(h, strings[0], 2.5)
    assert 0 < np.count_nonzero(evolved) <= 512 and evolved.imag.any()
    for v in (psi, *strings, evolved):
        assert_apply_byte_equal(h, v)
