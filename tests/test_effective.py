import numpy as np
import pytest

from memstress.effective import (
    SymTridiag,
    banded_effective,
    ising_effective_surface,
    ising_surface_diagonal,
    toric_effective,
)
from memstress.lattices import IsingLattice, ising_prefix_energy, ising_retained_lengths
from memstress.transfer import christandl_couplings


def test_toric_effective_basic():
    m = toric_effective(3, 1.0, 0.1, np.array([1.0]), np.array([0.0, 0.0]))
    assert np.allclose(m.diag, [2.0, 2.0])
    assert np.allclose(m.offdiag, [0.1])


def test_toric_effective_zero_delta_is_constant():
    m = toric_effective(5, 1.5, 0.0, np.ones(3), np.linspace(-1, 1, 4))
    assert np.allclose(m.diag, 3.0)
    assert np.allclose(m.offdiag, 0.0)


def test_toric_effective_length_validation():
    with pytest.raises(ValueError):
        toric_effective(4, 1.0, 0.1, np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        toric_effective(4, 1.0, 0.1, np.ones(2), np.zeros(4))


def test_toric_effective_christandl_is_persymmetric():
    for N in (4, 7, 12):
        m = toric_effective(N, 1.0, 0.1, christandl_couplings(N), np.zeros(N - 1))
        assert m.is_persymmetric()


def test_symtridiag_validation():
    with pytest.raises(ValueError):
        SymTridiag(np.array([1.0, 2.0]), np.array([]))
    m = SymTridiag(np.array([1.0]), np.array([]))
    assert m.dim == 1


@pytest.mark.parametrize("N", range(3, 13))
def test_ising_surface_diagonal_matches_bond_count(N):
    lat = IsingLattice(N)
    counted = [ising_prefix_energy(lat, l) for l in ising_retained_lengths(lat)]
    assert ising_surface_diagonal(N).tolist() == counted


def test_ising_surface_variant_values():
    m = ising_effective_surface(3, 0.1)
    assert np.allclose(m.diag, [4.0, 6.0, 6.0, 4.0])
    assert np.allclose(m.offdiag, 0.1)
    assert m.diag[0] == 4.0 and m.diag[1] == 6.0


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_ising_surface_bounds_and_palindrome(N):
    d = ising_surface_diagonal(N)
    assert np.allclose(d, d[::-1])
    assert d.min() == 4.0
    assert d.max() <= 2.0 * (N + 1)
    if N >= 4:  # the plateau is empty at N = 3, so the top value is 2N there
        assert d.max() == 2.0 * (N + 1)
        assert np.sum(d == 2.0 * (N + 1)) == (N - 1) * (N - 2) - 2


def test_surface_variant_rejects_small_n():
    with pytest.raises(ValueError):
        ising_effective_surface(2, 0.1)
    with pytest.raises(ValueError):
        ising_surface_diagonal(2)


def test_banded_k1_matches_surface_chain():
    N = 4
    d = ising_surface_diagonal(N)
    M = d.size
    couplings = np.linspace(0.01, 0.05, M - 1)
    a = banded_effective(N, 0.05, 1, couplings[None, :])
    want = SymTridiag(d, couplings).dense()
    assert np.allclose(a, want)


def test_banded_zero_bands_is_diagonal():
    N = 4
    M = ising_surface_diagonal(N).size
    a = banded_effective(N, 0.1, 2, np.zeros((2, M - 1)))
    assert np.allclose(a, np.diag(ising_surface_diagonal(N)))
    w = np.linalg.eigvalsh(a)
    assert w[1] - w[0] == 0.0  # lowest pair exactly degenerate


def test_banded_zero_delta_is_bare_diagonal():
    # delta = 0 is admitted like the other chain builders; the band bound
    # |b| <= delta then forces every band to zero
    for N in (3, 4):
        M = ising_surface_diagonal(N).size
        a = banded_effective(N, 0.0, 2, np.zeros((2, M - 1)))
        assert np.array_equal(a, np.diag(ising_surface_diagonal(N)))
        with pytest.raises(ValueError, match="strength bound"):
            banded_effective(N, 0.0, 2, np.full((2, M - 1), 1e-300))
        with pytest.raises(ValueError, match="nonnegative"):
            banded_effective(N, -0.1, 2, np.zeros((2, M - 1)))


def test_banded_validation():
    N = 4
    M = ising_surface_diagonal(N).size
    with pytest.raises(ValueError):
        banded_effective(N, 0.1, 0, np.zeros((1, M - 1)))
    with pytest.raises(ValueError):
        banded_effective(N, 0.1, M, np.zeros((M, M - 1)))
    too_big = np.full((2, M - 1), 0.2)
    with pytest.raises(ValueError):
        banded_effective(N, 0.1, 2, too_big)
