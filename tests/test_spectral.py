import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from memstress.effective import SymTridiag
from memstress.spectral import (
    NumericalError,
    _fix_signs,
    _persymmetric_split,
    eigh_dense_symmetric,
    eigh_tridiag,
    min_gap,
)
from memstress.splitting import tridiag_eigenvalue_mp
from memstress.transfer import christandl_couplings


def random_chain(draw_seed, M, disorder=1.0):
    rng = np.random.default_rng(draw_seed)
    return SymTridiag(rng.uniform(-disorder, disorder, M), rng.uniform(0.2, 1.0, M - 1))


def palindromic_chain(seed, M):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-1, 1, M)
    d = 0.5 * (d + d[::-1])
    o = rng.uniform(0.2, 1.0, M - 1)
    o = 0.5 * (o + o[::-1])
    return SymTridiag(d, o)


def test_two_by_two():
    s = eigh_tridiag(SymTridiag(np.zeros(2), np.ones(1)))
    assert np.allclose(s.eigenvalues, [-1.0, 1.0])


def test_diagonal_matrix_block_split():
    s = eigh_tridiag(SymTridiag(np.array([3.0, 1.0, 2.0]), np.zeros(2)))
    assert np.allclose(s.eigenvalues, [1.0, 2.0, 3.0])
    # endpoint components sit on the matching basis vectors
    assert np.allclose(s.first_components, [0.0, 0.0, 1.0])
    assert np.allclose(s.last_components, [0.0, 1.0, 0.0])
    # tied eigenvalues keep block order
    s = eigh_tridiag(SymTridiag(np.array([2.0, 1.0, 2.0]), np.zeros(2)))
    assert s.eigenvalues.tolist() == [1.0, 2.0, 2.0]
    assert s.first_components.tolist() == [0.0, 1.0, 0.0]
    assert s.last_components.tolist() == [0.0, 0.0, 1.0]


def test_single_site():
    s = eigh_tridiag(SymTridiag(np.array([2.5]), np.zeros(0)))
    assert s.eigenvalues[0] == 2.5
    assert s.first_components[0] == 1.0 == s.last_components[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_chains_are_rejected(bad):
    # the one-site path, the folded two-site path and LAPACK's path
    for diag, off, where in (([bad], [], "diagonal entry 0"),
                             ([0.0, 0.0], [bad], "off-diagonal entry 0"),
                             ([bad, 0.0], [1.0], "diagonal entry 0"),
                             ([1.0, 2.0, 3.0], [0.5, bad], "off-diagonal entry 1"),
                             ([1.0, bad, 3.0], [0.5, 0.5], "diagonal entry 1")):
        with pytest.raises(ValueError, match=where):
            eigh_tridiag(SymTridiag(np.array(diag), np.array(off)))


def test_uniform_chain_closed_form():
    M = 5
    s = eigh_tridiag(SymTridiag(np.zeros(M), np.full(M - 1, 0.5)))
    want = np.sort(np.cos(np.arange(1, M + 1) * np.pi / (M + 1)))
    assert np.max(np.abs(s.eigenvalues - want)) < 1e-14


def test_min_gap_values():
    s = eigh_tridiag(SymTridiag(np.array([0.0, 1.0, 3.0]), np.zeros(2)))
    assert min_gap(s) == pytest.approx(1.0)
    M = 5
    s = eigh_tridiag(SymTridiag(np.zeros(M), np.full(M - 1, 0.5)))
    assert min_gap(s) == pytest.approx(np.cos(np.pi / 6) - np.cos(2 * np.pi / 6))
    with pytest.raises(ValueError):
        min_gap(eigh_tridiag(SymTridiag(np.array([1.0]), np.zeros(0))))


def test_christandl_min_gap_equals_spacing():
    N = 9
    s = eigh_tridiag(SymTridiag(np.zeros(N - 1), 0.1 * christandl_couplings(N)))
    gaps = np.diff(s.eigenvalues)
    assert np.ptp(gaps) < 1e-12
    assert min_gap(s) == pytest.approx(gaps.mean())


@given(st.integers(0, 500), st.integers(2, 40))
@settings(max_examples=50, deadline=None)
def test_trace_and_frobenius_identities(seed, M):
    m = random_chain(seed, M)
    s = eigh_tridiag(m)
    norm = max(1.0, m.norm_estimate())
    assert abs(np.sum(s.eigenvalues) - np.sum(m.diag)) < 1e-10 * norm * M
    frob = np.sum(m.diag**2) + 2 * np.sum(m.offdiag**2)
    assert abs(np.sum(s.eigenvalues**2) - frob) < 1e-10 * norm**2 * M


@given(st.integers(0, 500), st.integers(2, 40))
@settings(max_examples=50, deadline=None)
def test_endpoint_rows_are_normalized(seed, M):
    s = eigh_tridiag(random_chain(seed, M))
    assert abs(np.sum(s.first_components**2) - 1.0) < 1e-12
    assert abs(np.sum(s.last_components**2) - 1.0) < 1e-12


@given(st.integers(0, 500), st.integers(2, 40))
@settings(max_examples=50, deadline=None)
def test_persymmetric_alternating_endpoints(seed, M):
    s = eigh_tridiag(palindromic_chain(seed, M))
    # last = global_sign * (-1)^i * first, 0-based ascending
    signs = s.last_components / np.where(s.first_components == 0, 1, s.first_components)
    expect = signs[0] * (-1.0) ** np.arange(M)
    assert np.max(np.abs(signs - expect)) < 1e-9
    assert np.max(np.abs(np.abs(s.last_components) - np.abs(s.first_components))) < 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_persymmetric_split_interlacing_slack(scale):
    # eigh_tridiag folds only positive couplings.  A negative centre coupling
    # c swaps the halves of a 2-site chain: the mirror-even half is the site
    # scale + c, the mirror-odd half scale - c, so the merged pair is out of
    # order by 2|c|.  The slack is 64 eps max(1, max|lam|).
    slack = 64.0 * np.finfo(float).eps * scale
    diag = np.full(2, scale)
    with pytest.raises(NumericalError, match="interlace"):
        _persymmetric_split(diag, np.array([-slack]))
    s = _persymmetric_split(diag, np.array([-0.25 * slack]))
    assert 0.0 < s.eigenvalues[0] - s.eigenvalues[1] < slack


def test_eigenpairs_match_dense_oracle():
    m = random_chain(7, 12)
    s = eigh_tridiag(m)
    w, v = np.linalg.eigh(m.dense())
    assert np.max(np.abs(s.eigenvalues - w)) < 1e-12 * max(1.0, m.norm_estimate())
    for k in range(12):
        col = v[:, k] * np.sign(v[np.flatnonzero(np.abs(v[:, k]) > 1e-12)[0], k])
        assert abs(s.first_components[k] - col[0]) < 1e-10
        assert abs(s.last_components[k] - col[-1]) < 1e-10


def test_dense_identity_and_2x2():
    w, _ = eigh_dense_symmetric(np.eye(4))
    assert np.allclose(w, 1.0)
    a, b = 0.7, 0.3
    w, _ = eigh_dense_symmetric(np.array([[a, b], [b, a]]))
    assert np.allclose(w, [a - b, a + b])


def test_dense_rejects_asymmetric_and_oversized():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        eigh_dense_symmetric(bad)
    with pytest.raises(ValueError):
        eigh_dense_symmetric(np.zeros((5000, 5000)))


def test_banded_vs_tridiagonalization_cross_check():
    rng = np.random.default_rng(3)
    M = 14
    a = np.diag(rng.uniform(-1, 1, M))
    for b in (1, 2):
        vals = rng.uniform(-0.3, 0.3, M - b)
        a += np.diag(vals, b) + np.diag(vals, -b)
    w_dense, _ = eigh_dense_symmetric(a)
    t = sla.hessenberg(a)  # symmetric input reduces to tridiagonal form
    s = eigh_tridiag(SymTridiag(np.diag(t).copy(), np.diag(t, 1).copy()))
    assert np.max(np.abs(w_dense - s.eigenvalues)) < 1e-10


def _mp_endpoints(m, dps=45):
    """Endpoint components of every eigenvector, from 45-digit arithmetic.

    Each eigenvalue comes from Sturm bisection; its eigenvector follows from
    the three-term recurrence started at x_1 = 1, which is exact up to the
    bisection tolerance, then is normalized.
    """
    M = m.dim
    first, last = [], []
    with mp.workdps(dps):
        a = [mp.mpf(x) for x in m.diag]
        b = [mp.mpf(x) for x in m.offdiag]
        for k in range(M):
            lam = tridiag_eigenvalue_mp(m, k, dps)
            lam = mp.mpf(str(lam))  # 45 digits, rounded at the working precision
            x = [mp.mpf(1), (lam - a[0]) / b[0]]
            for i in range(1, M - 1):
                x.append(((lam - a[i]) * x[i] - b[i - 1] * x[i - 1]) / b[i])
            norm = mp.sqrt(mp.fsum(v * v for v in x))
            first.append(1 / norm)
            last.append(x[-1] / norm)
    return first, last


def test_generic_small_endpoints_have_relative_accuracy():
    # localized generic chain: LAPACK's eigenvectors bound these components
    # only in absolute terms, which leaves this chain's weight near 7e-22
    # off by 1e-5 relative
    M = 24
    rng = np.random.default_rng(11)
    m = SymTridiag(rng.uniform(-1, 1, M), rng.uniform(0.2, 0.4, M - 1))
    assert not m.is_persymmetric()
    s = eigh_tridiag(m)
    first, last = _mp_endpoints(m)
    weights = s.first_components**2
    smallest = np.argsort(weights)[:4]
    assert weights[smallest[0]] < 1e-20
    for k in smallest:
        want = float(first[k] ** 2)
        assert abs(weights[k] - want) <= 1e-10 * want, (k, weights[k], want)
    for k in range(M):
        assert np.sign(s.last_components[k]) == np.sign(float(last[k])), k
    small = np.flatnonzero(s.last_components**2 < 1e-10)
    for k in small:
        want = float(last[k])
        assert abs(s.last_components[k] - want) <= 1e-10 * abs(want), (k, want)


def test_generic_clustered_pairs_keep_normalized_endpoints():
    # a ramp that peaks mid-chain, one rounding unit off mirror symmetry:
    # the end-localized pairs are split by ~1e-15, below what a twisted
    # vector at a double eigenvalue can resolve
    M = 21
    d = np.minimum(np.arange(M), np.arange(M)[::-1]).astype(float)
    d[3] += 1e-15
    s = eigh_tridiag(SymTridiag(d, np.full(M - 1, 0.05)))
    assert np.min(np.diff(s.eigenvalues)) < 1e-14
    assert abs(np.sum(s.first_components**2) - 1.0) < 1e-12
    assert abs(np.sum(s.last_components**2) - 1.0) < 1e-12


def test_generic_exact_zero_pivot():
    # LAPACK returns lam = +-1 exactly here, the eigenvalues of the trailing
    # 2x2 block, so a pivot of the twisted factorization is exactly zero; with
    # the first component positive, the pair's eigenvector is
    # (b / (5 - lam), -1, -lam) / sqrt(2) up to relative O(b^2)
    b = 1e-9
    m = SymTridiag(np.array([5.0, 0.0, 0.0]), np.array([b, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = eigh_tridiag(m)
    assert np.allclose(s.eigenvalues[:2], [-1.0, 1.0], rtol=0.0, atol=1e-15)
    want = b / ((5.0 - s.eigenvalues[:2]) * np.sqrt(2.0))
    assert np.max(np.abs(s.first_components[:2] - want) / want) < 1e-14
    assert np.allclose(s.last_components[:2], -s.eigenvalues[:2] / np.sqrt(2.0), rtol=1e-14)


def test_generic_endpoint_underflow_raises():
    # steep ramp with weak hopping: the top state's first component is
    # about (1e-8)^39 / 39!, below the smallest double
    M = 40
    m = SymTridiag(np.arange(M, dtype=float), np.full(M - 1, 1e-8))
    with pytest.raises(NumericalError):
        eigh_tridiag(m)


def fix_signs_loop(vecs):
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        nz = np.flatnonzero(np.abs(col) > 0.0)
        if nz.size and col[nz[0]] < 0:
            vecs[:, k] = -col
    return vecs


@pytest.mark.parametrize("seed", range(5))
def test_fix_signs_matches_column_loop(seed):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((9, 12))
    for k in range(12):
        vecs[: rng.integers(0, 9), k] = 0.0  # zeroed leading rows
    vecs[:, 3] = 0.0
    vecs[:4, 5] = -0.0
    vecs[0, 6], vecs[1, 6] = np.nan, -2.0  # NaN never leads
    vecs[0, 7] = -1.5
    expected = fix_signs_loop(vecs.copy())
    assert _fix_signs(vecs).tobytes() == expected.tobytes()
