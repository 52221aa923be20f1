"""memstress: stress-testing quantum memories with engineered perturbations.

Error strings in the 2D toric code feel no tension, so a weak quasi-local
perturbation can carry a single fault all the way to a logical flip in
polynomial time; the 2D Ising model's surface-energy ramp blocks the same
mechanism.  This package builds both models exactly, reduces them to their
string chains, engineers the adversarial couplings (spectral retuning plus
Jacobi-matrix reconstruction), and verifies every step against dense
statevector simulation on small lattices.
"""

__version__ = "0.1.0"

from .effective import (
    SymTridiag,
    banded_effective,
    ising_effective_surface,
    ising_surface_diagonal,
    toric_effective,
)
from .iep import RetunePlan, mirror_symmetric_weights, reconstruct_jacobi, retune_chain, retune_eigenvalues
from .lattices import (
    IsingLattice,
    ToricLattice,
    ising_error_prefix,
    ising_hamiltonian,
    ising_perturbation,
    ising_prefix_energy,
    ising_retained_lengths,
    toric_duality_circuit,
    toric_error_string,
    toric_hamiltonian,
    toric_logicals,
    toric_perturbation,
)
from .pauli import PauliSum, PauliTerm, apply_to_state, commutes, conjugate_by_circuit, conjugate_by_cnot, multiply
from .spectral import NumericalError, SpectralData, eigh_dense_symmetric, eigh_tridiag, min_gap
from .splitting import SplittingFit, measure_splitting, plateau_spectrum, predicted_order
from .transfer import (
    TransferResult,
    christandl_couplings,
    f_max,
    fidelity,
    locate_fidelity_peak,
    measure_transfer_time,
)
