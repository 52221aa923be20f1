import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memstress.effective import SymTridiag
from memstress.iep import (
    mirror_symmetric_weights,
    reconstruct_jacobi,
    retune_chain,
    retune_eigenvalues,
)
from memstress.spectral import NumericalError, eigh_tridiag, min_gap
from memstress.transfer import christandl_couplings, fidelity


def uniform_chain(N, delta=0.1):
    return SymTridiag(np.full(N - 1, 2.0), np.full(N - 2, 0.5 * delta))


def test_two_level_condition_by_hand():
    # lam = {-1, +1}, signs {+, -}, t = pi/2: e^{-i lam t} = {i, -i} = e^{i pi/2} * {+1, -1}
    lam = np.array([-1.0, 1.0])
    signs = np.array([1.0, -1.0])
    t = math.pi / 2
    lhs = np.exp(-1j * lam * t)
    theta = math.pi / 2
    assert np.max(np.abs(lhs - np.exp(1j * theta) * signs)) < 1e-15
    # separations must be odd multiples of the grid pi/t = 2: even ones fail
    for sep in (4.0, 8.0):
        bad = np.exp(-1j * np.array([-1.0, -1.0 + sep]) * t)
        assert not np.allclose(bad[1] / bad[0], signs[1] / signs[0])
    for sep in (2.0, 6.0):
        good = np.exp(-1j * np.array([-1.0, -1.0 + sep]) * t)
        assert np.allclose(good[1] / good[0], signs[1] / signs[0])


def test_retune_fixed_point_on_grid_spectrum():
    t = 40.0
    g = math.pi / t
    lam = g * np.array([0.0, 11.0, 22.0, 33.0])
    w = mirror_symmetric_weights(lam)
    m = reconstruct_jacobi(lam, w)
    s = eigh_tridiag(m)
    plan = retune_eigenvalues(s, t)
    assert np.max(np.abs(plan.shifts)) < 1e-9


def test_retune_christandl_preserves_equal_spacing():
    N = 10
    m = SymTridiag(np.full(N - 1, 2.0), 0.1 * christandl_couplings(N))
    s = eigh_tridiag(m)
    spacing = min_gap(s)
    # sign pattern of a_i alternates, so an odd multiple of the mirror time works
    t = 11.0 * math.pi / spacing
    plan = retune_eigenvalues(s, t)
    assert np.ptp(np.diff(plan.retuned)) < 1e-9  # still equally spaced
    assert np.ptp(plan.shifts) < 1e-9  # one common translation
    assert np.max(np.abs(plan.shifts)) <= math.pi / t + 1e-12


def test_retune_validation():
    s = eigh_tridiag(uniform_chain(8))
    with pytest.raises(ValueError):
        retune_eigenvalues(s, 1.0)  # below the 10 pi / gap bound
    diag_only = eigh_tridiag(SymTridiag(np.array([0.0, 1.0]), np.zeros(1)))
    with pytest.raises(ValueError):
        retune_eigenvalues(diag_only, 1e4)  # amplitudes identically zero


@pytest.mark.parametrize("t", [1e17, 1e20])
def test_retune_refuses_grid_indices_past_2_53(t):
    # above 2**53 every float is even, so the parity fix would be lost
    # (t = 1e17) or the int64 cast would overflow (t = 1e20)
    s = eigh_tridiag(SymTridiag(np.full(4, 2.0), np.full(3, 0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"2\*\*53"):
            retune_eigenvalues(s, t)


def _retune_spectrum(m, t):
    return retune_eigenvalues(eigh_tridiag(m), t)


@pytest.mark.parametrize("retune", [retune_chain, _retune_spectrum], ids=["chain", "spectrum"])
@pytest.mark.parametrize("t,error,match", [(math.nan, ValueError, "NaN"),
                                           (math.inf, NumericalError, r"2\*\*53")],
                         ids=["nan", "inf"])
def test_retune_rejects_non_finite_times(retune, t, error, match):
    # levels -4/3, 0 and 4/3: at t = inf the zero level reads 0/0 on the grid,
    # which the 2**53 guard must refuse as it refuses every infinite index
    m = SymTridiag(np.zeros(3), christandl_couplings(4))
    with pytest.raises(error, match=match):
        retune(m, t)


def test_retune_plan_invariants():
    chain = uniform_chain(16)
    s = eigh_tridiag(chain)
    t = 50.0 * math.pi / min_gap(s)
    plan = retune_eigenvalues(s, t)
    assert np.all(np.diff(plan.retuned) > 0)
    assert np.max(np.abs(plan.shifts)) <= math.pi / t + 1e-12
    # the retuned phases satisfy the transfer condition with one global theta
    lhs = np.exp(-1j * plan.retuned * t)
    rhs = np.exp(1j * plan.theta) * np.sign(s.amplitudes)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_reconstruct_single_and_double():
    m = reconstruct_jacobi(np.array([2.5]), np.array([1.0]))
    assert m.dim == 1 and m.diag[0] == pytest.approx(2.5)
    m = reconstruct_jacobi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    assert np.allclose(m.diag, 0.0, atol=1e-15)
    assert np.allclose(m.offdiag, 1.0)


def test_reconstruct_validation():
    with pytest.raises(ValueError):
        reconstruct_jacobi(np.array([1.0, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        reconstruct_jacobi(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        reconstruct_jacobi(np.array([0.0, 1.0]), np.array([0.9, 0.3]))


@pytest.mark.parametrize("lam,w,match", [
    ([0.0, math.nan], [0.5, 0.5], "eigenvalue entry 1 is nan"),
    ([-math.inf, 1.0], [0.5, 0.5], "eigenvalue entry 0 is -inf"),
    ([0.0, 1.0], [math.nan, 0.5], "weight entry 0 is nan"),
    ([0.0, 1.0], [0.5, math.inf], "weight entry 1 is inf"),
], ids=["nan-eigenvalue", "inf-eigenvalue", "nan-weight", "inf-weight"])
def test_reconstruct_rejects_non_finite_entries(lam, w, match):
    with pytest.raises(ValueError, match=match):
        reconstruct_jacobi(np.array(lam), np.array(w))


@given(st.integers(0, 400), st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(seed, M):
    rng = np.random.default_rng(seed)
    m = SymTridiag(2.0 + rng.uniform(-0.1, 0.1, M), rng.uniform(0.5, 1.0, M - 1))
    s = eigh_tridiag(m)
    w = s.first_components**2
    rebuilt = reconstruct_jacobi(s.eigenvalues, w / w.sum())
    assert np.max(np.abs(rebuilt.diag - m.diag)) < 1e-9
    assert np.max(np.abs(rebuilt.offdiag - m.offdiag)) < 1e-9


def test_mirror_weights_match_persymmetric_chain():
    N = 12
    m = SymTridiag(np.zeros(N - 1), christandl_couplings(N))
    s = eigh_tridiag(m)
    w = mirror_symmetric_weights(s.eigenvalues)
    assert np.max(np.abs(w - s.first_components**2)) < 1e-12


def test_retune_chain_christandl_fixed_point():
    N = 10
    m = SymTridiag(np.full(N - 1, 2.0), 0.1 * christandl_couplings(N))
    spacing = min_gap(eigh_tridiag(m))
    rebuilt, plan = retune_chain(m, 11.0 * math.pi / spacing)
    assert np.max(np.abs(rebuilt.offdiag - m.offdiag)) < 1e-9


@pytest.mark.parametrize("N", [8, 20])
def test_retune_chain_end_to_end(N):
    delta = 0.1
    chain = uniform_chain(N, delta)
    t = 50.0 * math.pi / min_gap(eigh_tridiag(chain))
    rebuilt, plan = retune_chain(chain, t)
    s2 = eigh_tridiag(rebuilt)
    assert fidelity(s2, t) >= 1.0 - 1e-6
    # output is persymmetric and spectrum matches the plan
    assert np.max(np.abs(rebuilt.diag - rebuilt.diag[::-1])) < 1e-9
    assert np.max(np.abs(rebuilt.offdiag - rebuilt.offdiag[::-1])) < 1e-9
    assert np.max(np.abs(s2.eigenvalues - plan.retuned)) < 1e-9 * chain.norm_estimate()
    # couplings stay within the unit budget after stripping delta
    assert np.max(np.abs(rebuilt.offdiag / delta)) <= 1.0
    assert np.max(np.abs((rebuilt.diag - 2.0) / delta)) <= 1.0


@pytest.mark.parametrize("M", [1, 2, 3, 4, 63, 64])
def test_retune_chain_unfolds_an_exact_mirror(M):
    chain = uniform_chain(M + 1)
    t = 100.0 if M == 1 else 50.0 * math.pi / min_gap(eigh_tridiag(chain))
    rebuilt, plan = retune_chain(chain, t)
    assert rebuilt.diag.tobytes() == rebuilt.diag[::-1].tobytes()
    assert rebuilt.offdiag.tobytes() == rebuilt.offdiag[::-1].tobytes()
    # so eigh_tridiag of the rebuild takes the persymmetric fold
    assert rebuilt.is_persymmetric() and np.all(rebuilt.offdiag > 0.0)
    # Rounding budget, fixed before the run.  The half-size Lanczos steps,
    # the unfold (one division by sqrt(2), or the centre coupling's sum of
    # positive differences) and the half-size eigensolves each move T by at
    # most a few dot products of length <= M, so 8 (M + 2) eps |T| bounds
    # the eigenvalue error (Weyl) and each entry's distance from a full-size
    # rebuild of the same measure.  A unit eigenvector moves by at most
    # |dT| / (gap - |dT|), so a squared first component by twice that.
    eps = np.finfo(float).eps
    norm = max(1.0, float(np.max(np.abs(plan.retuned))))
    bound = 8 * (M + 2) * eps * norm
    s = eigh_tridiag(rebuilt)
    gap = min_gap(s) if M > 1 else math.inf
    w = mirror_symmetric_weights(plan.retuned)
    assert np.max(np.abs(s.eigenvalues - plan.retuned)) <= bound
    assert np.max(np.abs(s.first_components**2 - w)) <= 2.0 * bound / (gap - bound)
    full = reconstruct_jacobi(plan.retuned, w)
    assert np.max(np.abs(rebuilt.diag - full.diag)) <= bound
    assert np.max(np.abs(rebuilt.offdiag - full.offdiag), initial=0.0) <= bound


def test_retune_chain_shift_halves_when_t_doubles():
    N = 20
    chain = uniform_chain(N)
    t0 = 50.0 * math.pi / min_gap(eigh_tridiag(chain))
    shifts = []
    for factor in (1.0, 2.0, 4.0):
        rebuilt, _ = retune_chain(chain, factor * t0)
        shifts.append(np.max(np.abs(rebuilt.offdiag - chain.offdiag)))
    slope = np.polyfit(np.log([1.0, 2.0, 4.0]), np.log(shifts), 1)[0]
    assert abs(slope + 1.0) <= 0.5


def test_retune_chain_rejects_non_persymmetric():
    m = SymTridiag(np.array([0.0, 1.0, 0.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="persymmetric"):
        retune_chain(m, 1e4)


def test_toric_retune_rebuilds_each_ladder_time_once(monkeypatch, tmp_path):
    # the ladder's first factor is exactly 1.0, so its rebuild is the one at t0
    import memstress.experiments as experiments

    times = []
    rebuild = experiments.retune_chain

    def counted(chain, t):
        times.append(t)
        return rebuild(chain, t)

    monkeypatch.setattr(experiments, "retune_chain", counted)
    cfg = experiments.ExperimentConfig(experiment="toric-retune", N_range=[8], output_dir=str(tmp_path))
    assert experiments.run(cfg) == 0
    assert len(times) == 9 and len(set(times)) == 9


def test_toric_retune_times_pin_the_uniform_chain(tmp_path):
    # the N-site toric chain has N - 1 string states, diagonal 2 and hopping
    # delta/2, so lam_k = 2 + delta cos(k pi / N) for k = 1 .. N - 1; the
    # smallest neighbour gap sits at the band edge, k = 1
    import csv

    import memstress.experiments as experiments

    delta, t_factor = 0.1, 50.0
    cfg = experiments.ExperimentConfig(experiment="toric-retune", N_range=[8, 16, 32],
                                       delta=delta, t_factor=t_factor, output_dir=str(tmp_path))
    assert experiments.run(cfg) == 0
    with open(tmp_path / "toric_retune.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["N"]) for r in rows] == [8, 16, 32]
    for r in rows:
        N = int(r["N"])
        gap = 2.0 * delta * math.sin(math.pi / (2 * N)) * math.sin(3 * math.pi / (2 * N))
        assert float(r["t"]) == pytest.approx(t_factor * math.pi / gap, rel=1e-9)
