from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from memstress.effective import ising_effective_surface, toric_effective
from memstress.lattices import (
    IsingLattice,
    ToricLattice,
    ising_hamiltonian,
    ising_perturbation,
    toric_hamiltonian,
    toric_duality_circuit,
    toric_logicals,
    toric_error_string,
    toric_perturbation,
)
from memstress.oracle import (
    KRYLOV_TOL,
    apply_circuit_to_state,
    effective_matrix_elements,
    expectation,
    ising_ground_energy,
    ising_ground_state,
    ising_prefix_basis,
    krylov_propagate,
    orthonormal_columns,
    subspace_projection,
    toric_ground_state,
    toric_string_basis,
    two_excitation_transfer,
    verify_duality_map,
)
from memstress.pauli import PauliSum, apply_to_state, multiply, pauli_x, pauli_y, pauli_z


@pytest.fixture(scope="module")
def toric2():
    lat = ToricLattice(2)
    return lat, toric_hamiltonian(lat), toric_ground_state(lat)


@pytest.fixture(scope="module")
def toric3():
    lat = ToricLattice(3)
    return lat, toric_hamiltonian(lat), toric_ground_state(lat)


def state_expect(state, term):
    return float(np.real(np.vdot(state, apply_to_state(term, state))))


def overlap(a, b):
    return complex(np.vdot(a, b))


def test_ground_state_stabilizer_expectations(toric2):
    lat, h, psi = toric2
    for s in lat.stabilizers():
        assert state_expect(psi, s) == pytest.approx(1.0, abs=1e-12)


def test_ground_state_logicals_n3(toric3):
    lat, h, psi = toric3
    z1, z2, _ = toric_logicals(lat)
    assert state_expect(psi, z1) == pytest.approx(1.0, abs=1e-12)
    assert state_expect(psi, z2) == pytest.approx(1.0, abs=1e-12)


def test_ground_energy_matches_dense_minimum(toric2):
    lat, h, psi = toric2
    dim = 1 << lat.n_qubits
    mat = np.zeros((dim, dim))
    col = np.zeros(dim, dtype=complex)
    for i in range(dim):
        col[:] = 0.0
        col[i] = 1.0
        mat[:, i] = np.real(h.apply(col))
    w = np.linalg.eigvalsh(mat)
    assert expectation(h, psi) == pytest.approx(w[0], abs=1e-12)
    assert w[0] == pytest.approx(-lat.delta_gap * lat.N**2)
    # the frustration-free bound that oracle-verify checks against is attained
    assert w[0] == pytest.approx(-sum(abs(t.coeff) for t in h.terms), abs=1e-12)
    # two encoded qubits: a 4-fold degenerate ground space
    assert int(np.sum(w < w[0] + 1e-9)) == 4


def test_ground_state_is_eigenvector(toric3):
    lat, h, psi = toric3
    hv = h.apply(psi)
    e0 = expectation(h, psi)
    resid = np.linalg.norm(hv - e0 * psi)
    assert resid < 1e-12 * abs(e0)
    assert e0 == pytest.approx(-9.0)


def test_empty_sum_gives_zero_state(toric2):
    lat, _, psi = toric2
    zero = PauliSum(lat.n_qubits, ()).apply(psi)
    assert zero.dtype == complex and zero.shape == psi.shape
    assert np.linalg.norm(zero) == 0.0


def test_string_basis_orthonormal(toric3):
    lat, _, psi = toric3
    basis = toric_string_basis(lat, psi)
    gram = np.array([[overlap(a, b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12


def test_matrix_elements_match_reduced_chain(toric3):
    lat, h, psi = toric3
    e0 = expectation(h, psi)
    basis = toric_string_basis(lat, psi)
    J = np.array([0.7])
    B = np.array([0.3, -0.4])
    delta = 0.05
    dh = toric_perturbation(lat, J, B, delta)
    exact = effective_matrix_elements(h + dh, basis, e0)
    want = toric_effective(3, lat.delta_gap, delta, J, B).dense()
    assert np.max(np.abs(exact - want)) < 1e-12


def test_perturbed_action_is_tridiagonal(toric3):
    lat, h, psi = toric3
    basis = toric_string_basis(lat, psi)
    dh = toric_perturbation(lat, np.array([1.0]), np.zeros(2), 0.1)
    image = dh.apply(basis[0])
    coeffs, leak = subspace_projection(orthonormal_columns(basis), image)
    assert leak < 1e-12
    assert coeffs[1] == pytest.approx(0.1, abs=1e-13)  # delta * J_0 hop


def test_krylov_time_zero_and_eigenstate(toric2):
    lat, h, psi = toric2
    out = krylov_propagate(h, psi, 0.0)
    assert out is not psi and out.dtype == complex
    assert np.allclose(out, psi)
    t = 3.7
    out = krylov_propagate(h, psi, t)
    assert abs(overlap(psi, out)) == pytest.approx(1.0, abs=1e-10)


def test_krylov_matches_dense_expm():
    import scipy.linalg as sla

    n = 6
    rng = np.random.default_rng(9)
    terms = [
        pauli_x(n, 0, 3).scaled(0.4),
        pauli_z(n, 1, 2).scaled(-0.6),
        pauli_x(n, 2).scaled(0.3),
        pauli_z(n, 4, 5).scaled(0.8),
        pauli_x(n, 1, 4).scaled(-0.2),
    ]
    h = PauliSum.from_terms(terms)
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    col = np.zeros(dim, dtype=complex)
    for i in range(dim):
        col[:] = 0.0
        col[i] = 1.0
        mat[:, i] = h.apply(col)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    for t in (0.3, 2.0, 11.0):
        want = sla.expm(-1j * t * mat) @ v
        got = krylov_propagate(h, v, t)
        assert np.linalg.norm(got - want) < 1e-8


@pytest.mark.parametrize("t", [15.0, 25.0, 40.0, 100.0])
def test_krylov_step_control_meets_its_tolerance(t):
    # A random state of a random 6-qubit sum lies in no small invariant
    # subspace, so no basis breaks down early and every step's size is set
    # by the posterior estimate against its share of KRYLOV_TOL = 1e-10.
    import scipy.linalg as sla

    n = 6
    rng = np.random.default_rng(1)
    terms = []
    for i in range(n):
        terms.append(pauli_x(n, i, (i + 1) % n).scaled(rng.uniform(-1, 1)))
        terms.append(pauli_z(n, i, (i + 2) % n).scaled(rng.uniform(-1, 1)))
        terms.append(pauli_x(n, i).scaled(rng.uniform(-1, 1)))
        terms.append(pauli_z(n, i).scaled(rng.uniform(-1, 1)))
    h = PauliSum.from_terms(terms)
    mat = np.column_stack([h.apply(col) for col in np.eye(1 << n, dtype=complex)])
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    v /= np.linalg.norm(v)
    counts = Counter()
    got = krylov_propagate(h, v, t, counts=counts)
    assert counts["lanczos_bases"] >= 3
    assert np.linalg.norm(got - sla.expm(-1j * t * mat) @ v) < 1e-10


def test_krylov_energy_conservation():
    n = 6
    rng = np.random.default_rng(21)
    h = PauliSum.from_terms(
        [pauli_x(n, i, (i + 1) % n).scaled(0.5) for i in range(n)]
        + [pauli_z(n, i).scaled(0.3) for i in range(n)]
    )
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    state = v / np.linalg.norm(v)
    e_before = expectation(h, state)
    evolved = krylov_propagate(h, state, 8.0)
    e_after = expectation(h, evolved)
    norm_h = sum(abs(t.coeff) for t in h.terms)
    assert abs(e_after - e_before) <= 10 * KRYLOV_TOL * norm_h


def test_krylov_halving_budget_is_per_step():
    # a step that grew by 1.5 usually converges after one halving, so a long
    # propagation halves about 0.58 times per basis; over these ~490 bases a
    # 200-halving budget for the whole propagation runs out, one per step does not
    rng = np.random.default_rng(4)
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    mat = 0.5 * (g + g.conj().T)
    w, u = np.linalg.eigh(mat)
    # a dense stand-in for a 6-qubit PauliSum, with the attributes krylov_propagate reads
    h = SimpleNamespace(n_qubits=6, terms=[SimpleNamespace(coeff=float(np.max(np.abs(w))))],
                        apply=lambda v: mat @ v)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v /= np.linalg.norm(v)
    counts = Counter()
    t = 400.0
    got = krylov_propagate(h, v, t, counts=counts)
    assert counts["lanczos_bases"] > 400
    want = u @ (np.exp(-1j * t * w) * (u.conj().T @ v))
    assert np.linalg.norm(got - want) < 1e-8


def test_subspace_projection_cases(toric2):
    lat, _, psi = toric2
    basis = orthonormal_columns([psi])
    coeffs, leak = subspace_projection(basis, psi)
    assert leak < 1e-12 and coeffs[0] == pytest.approx(1.0)
    flipped = apply_to_state(pauli_x(lat.n_qubits, 0), psi)
    coeffs, leak = subspace_projection(basis, flipped)
    assert abs(coeffs[0]) < 1e-12
    assert leak == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        orthonormal_columns([psi, psi])


def test_evolution_stays_in_string_subspace(toric3):
    lat, h, psi = toric3
    basis = toric_string_basis(lat, psi)
    dh = toric_perturbation(lat, np.array([0.5]), np.zeros(2), 0.1)
    state = basis[0]
    strings = orthonormal_columns(basis)
    for _ in range(4):
        state = krylov_propagate(h + dh, state, 5.0)
        _, leak = subspace_projection(strings, state)
        assert leak < 1e-10


def test_duality_map_exact(toric3):
    lat, _, _ = toric3
    J = np.ones(1)
    dh = toric_perturbation(lat, J, np.zeros(2), 0.1)
    report = verify_duality_map(lat, dh, J, 0.1)
    assert report.matched
    assert report.n_terms == 2
    assert report.missing == () and report.extra == ()
    assert report.string_flip_counts == (1, 1)
    assert report.pair_flip_counts == (2,)


def test_duality_map_above_qubit_cap_raises():
    # N = 4 needs 32 qubits: the statevector half must not pass on empty counts
    lat = ToricLattice(4)
    J = np.ones(2)
    dh = toric_perturbation(lat, J, np.zeros(3), 0.1)
    with pytest.raises(ValueError, match="cap"):
        verify_duality_map(lat, dh, J, 0.1)


def test_duality_map_rejects_detuning(toric3):
    lat, _, _ = toric3
    dh = toric_perturbation(lat, np.ones(1), np.array([0.5, 0.0]), 0.1)
    with pytest.raises(ValueError):
        verify_duality_map(lat, dh, np.ones(1), 0.1)


def test_two_excitation_mirror_fixed_point(toric3):
    from memstress.transfer import christandl_couplings

    lat, _, _ = toric3
    delta = 0.1
    J = christandl_couplings(3)
    dh = toric_perturbation(lat, J, np.zeros(2), delta)
    t_star = np.pi * 2 / (4.0 * delta)
    at_zero, at_star, inside = two_excitation_transfer(lat, 1, [0.0, t_star, 0.37 * t_star], dh)
    assert at_zero == pytest.approx(1.0, abs=1e-9)
    assert at_star >= 0.99
    assert inside >= 0.99  # eigenstate sector
    with pytest.raises(ValueError):
        two_excitation_transfer(lat, 0, [1.0], dh)
    with pytest.raises(ValueError):
        two_excitation_transfer(lat, 2, [1.0], dh)


def _reference_two_excitation_transfer(lat, i, t, deltaH):
    """The former one-time function: rebuilds the ground state and H + dH per call."""
    psi = toric_ground_state(lat)
    h_total = toric_hamiltonian(lat) + deltaH
    init = apply_to_state(multiply(toric_error_string(lat, i), toric_error_string(lat, i - 1)), psi)
    j = lat.N - 1 - i
    final = apply_to_state(multiply(toric_error_string(lat, j), toric_error_string(lat, j - 1)), psi)
    evolved = krylov_propagate(h_total, init, t)
    return float(abs(overlap(final, evolved)) ** 2)


def test_two_excitation_sweep_equals_per_time_values(toric3):
    from collections import Counter

    from memstress.transfer import christandl_couplings

    lat = toric3[0]
    dh = toric_perturbation(lat, christandl_couplings(3), np.zeros(2), 0.1)
    t_star = np.pi * 2 / (4.0 * 0.1)
    times = [0.0, 0.125 * t_star, 0.37 * t_star, t_star]
    counts = Counter()
    swept = two_excitation_transfer(lat, 1, times, dh, counts=counts)
    assert swept == [_reference_two_excitation_transfer(lat, 1, t, dh) for t in times]
    assert counts["krylov_propagate_calls"] == len(times)
    # the pair is an eigenvector to the breakdown tolerance: the shared first
    # basis breaks down happily and finishes every time in one step
    assert counts["lanczos_bases"] == 1


def test_krylov_sweep_equals_per_time_propagation():
    from memstress.oracle import _krylov_sweep

    n = 8
    rng = np.random.default_rng(31)
    terms = [pauli_x(n, q).scaled(rng.uniform(-1.0, 1.0)) for q in range(n)]
    terms += [pauli_z(n, q, q + 1).scaled(rng.uniform(-1.0, 1.0)) for q in range(n - 1)]
    terms += [pauli_y(n, q, q + 2).scaled(rng.uniform(-1.0, 1.0)) for q in range(n - 2)]
    h_total = PauliSum.from_terms(terms, n)
    assert h_total.is_hermitian()
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)  # norm about 22.8
    times = [0.0, 0.3, 4.0, 0.0, 11.5, 4.0]
    counts, single = Counter(), Counter()
    swept = list(_krylov_sweep(h_total, v, times, counts))
    for t, got in zip(times, swept):
        assert got.tobytes() == krylov_propagate(h_total, v, t, counts=single).tobytes()
    assert counts["krylov_propagate_calls"] == single["krylov_propagate_calls"] == len(times)
    # a start that is no eigenvector needs later bases; only the first one is shared
    positive = sum(t > 0 for t in times)
    assert single["lanczos_bases"] > 2 * positive
    assert counts["lanczos_bases"] == single["lanczos_bases"] - (positive - 1)


def test_ising_prefix_basis_and_closure():
    lat = IsingLattice(3)
    h = ising_hamiltonian(lat)
    e0 = ising_ground_energy(lat)
    assert e0 == pytest.approx(-9.0)
    basis = ising_prefix_basis(lat)
    assert len(basis) == 4
    gram = np.array([[overlap(a, b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12
    delta = 0.1
    dh = ising_perturbation(lat, np.ones(3), np.zeros(4), delta)
    exact = effective_matrix_elements(h + dh, basis, e0)
    want = ising_effective_surface(3, delta).dense()
    assert np.max(np.abs(exact - want)) < 1e-12
    strings = orthonormal_columns(basis)
    for s in basis:
        image = (h + dh).apply(s)
        _, leak = subspace_projection(strings, image)
        assert leak < 1e-12 * max(np.linalg.norm(image), 1.0)


def test_qubit_cap_enforced():
    with pytest.raises(ValueError):
        toric_ground_state(ToricLattice(4))
    with pytest.raises(ValueError):
        ising_ground_state(IsingLattice(5))


def test_states_of_the_wrong_length_are_rejected():
    h = PauliSum.from_terms([pauli_x(3, 0)])
    for bad in (np.zeros(4, dtype=complex), np.ones(9, dtype=complex), np.ones((2, 4))):
        with pytest.raises(ValueError):
            krylov_propagate(h, bad, 1.0)
        with pytest.raises(ValueError):
            krylov_propagate(h, bad, 0.0)
        with pytest.raises(ValueError):
            apply_to_state(pauli_x(3, 0), bad)
    for bad in (np.ones(3, dtype=complex), np.ones(12, dtype=complex),
                np.zeros(0, dtype=complex), np.ones((2, 4), dtype=complex)):
        with pytest.raises(ValueError):
            apply_circuit_to_state([(0, 1)], bad)


def test_rejected_krylov_calls_are_not_counted():
    h = PauliSum.from_terms([pauli_x(3, 0)])
    v = np.ones(8, dtype=complex)
    counts = Counter()
    for args in ((v, -1.0), (np.ones(4, dtype=complex), 1.0), (np.zeros(8, dtype=complex), 1.0)):
        with pytest.raises(ValueError):
            krylov_propagate(h, *args, counts=counts)
    assert counts == Counter()
    krylov_propagate(h, np.zeros(8, dtype=complex), 0.0, counts=counts)
    assert counts == Counter(krylov_propagate_calls=1)


def test_krylov_rejects_the_zero_state_after_t0():
    h = PauliSum.from_terms([pauli_x(3, 0)])
    zero = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError):
        krylov_propagate(h, zero, 1.0)
    out = krylov_propagate(h, zero, 0.0)
    assert out is not zero and out.dtype == complex and not out.any()


@pytest.mark.parametrize("t", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_krylov_rejects_non_finite_times(t):
    h = PauliSum.from_terms([pauli_x(3, 0)])
    with pytest.raises(ValueError, match="finite"):
        krylov_propagate(h, np.ones(8, dtype=complex), t)


@pytest.mark.parametrize("t", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_two_excitation_rejects_non_finite_times(toric3, t):
    from memstress.transfer import christandl_couplings

    lat = toric3[0]
    dh = toric_perturbation(lat, christandl_couplings(3), np.zeros(2), 0.1)
    with pytest.raises(ValueError, match="finite"):
        two_excitation_transfer(lat, 1, [0.0, t], dh)


def _reference_circuit(circuit, amps: np.ndarray) -> np.ndarray:
    """The former per-gate index permutation: gather through j ^ target on control = 1."""
    idx = np.arange(amps.size, dtype=np.uint32)
    for control, target in circuit:
        amps = amps[np.where((idx >> np.uint32(control)) & np.uint32(1),
                             idx ^ np.uint32(1 << target), idx)]
    return amps.copy()


def test_circuit_is_byte_equal_to_index_permutation():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5, 8):
        circuit = [tuple(int(q) for q in rng.choice(n, size=2, replace=False))
                   for _ in range(30)]
        assert any(t < c for c, t in circuit) and any(t > c for c, t in circuit)
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        got = apply_circuit_to_state(circuit, v)
        assert got.tobytes() == _reference_circuit(circuit, v).tobytes()


def test_duality_circuit_is_byte_equal_to_index_permutation(toric3):
    lat, _, psi = toric3
    circuit = toric_duality_circuit(lat)
    got = apply_circuit_to_state(circuit, psi)
    assert got.tobytes() == _reference_circuit(circuit, psi).tobytes()


def test_circuit_rejects_bad_gate_indices():
    # unchecked, (5, 0) flips qubit 0 of |100> and (2, 2) qubit 1, with no error
    v = np.zeros(8, dtype=complex)
    v[0b100] = 1.0
    for circuit in ([(5, 0)], [(2, 2)], [(2, 7)], [(-1, 0)], [(0, 1), (1, 3)]):
        with pytest.raises(ValueError, match="qubit index out of range|must differ"):
            apply_circuit_to_state(circuit, v)
    assert v[0b100] == 1.0 and np.count_nonzero(v) == 1
    assert apply_circuit_to_state([(2, 0)], v).tobytes() == _reference_circuit([(2, 0)], v).tobytes()


def test_oracle_summaries_record_their_work(tmp_path, monkeypatch):
    import json

    from memstress.experiments import ExperimentConfig, run

    dtypes = []
    apply = PauliSum.apply

    def recording(self, v):
        dtypes.append(np.asarray(v).dtype)
        return apply(self, v)

    monkeypatch.setattr(PauliSum, "apply", recording)
    for name, N in (("oracle-verify", 2), ("two-excitation", 3)):
        assert run(ExperimentConfig(experiment=name, N_range=[N], output_dir=str(tmp_path))) == 0
    read = lambda slug: json.loads((tmp_path / f"{slug}_summary.json").read_text())["summary"]
    oracle, pair = read("oracle_verify"), read("two_excitation")
    assert dtypes and all(dt.kind == "c" for dt in dtypes)
    assert set(oracle["stage_seconds"]) == {"ground_state"}  # N = 2 stops before Krylov
    assert all(s >= 0.0 for s in oracle["stage_seconds"].values())
    assert pair["krylov_propagate_calls"] == 9
    assert pair["lanczos_bases"] == 1  # one shared basis serves all 8 positive times


def _flip_first_star(lat):
    # +delta_gap on top of -delta_gap/2 turns one star's sign; with the product
    # of all stars the identity, no state then satisfies every term
    return toric_hamiltonian(lat) + PauliSum.from_terms([lat.star(0, 0).scaled(lat.delta_gap)])


def _zero_state(lat):
    v = np.zeros(1 << lat.n_qubits, dtype=complex)
    v[0] = 1.0
    return v


@pytest.mark.parametrize("target,mutant", [("toric_hamiltonian", _flip_first_star),
                                           ("toric_ground_state", _zero_state)])
def test_ground_energy_bound_catches_mutants(tmp_path, monkeypatch, target, mutant):
    import json

    from memstress import experiments

    monkeypatch.setattr(experiments, target, mutant)
    code = experiments.run(experiments.ExperimentConfig(
        experiment="oracle-verify", N_range=[2], output_dir=str(tmp_path)))
    payload = json.loads((tmp_path / "oracle_verify_summary.json").read_text())
    checks = {c["name"]: c for c in payload["checks"]}
    assert code == 2
    assert checks["ground_energy_vs_bound"]["passed"] is False
