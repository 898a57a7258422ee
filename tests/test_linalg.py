import numpy as np
import pytest
import scipy.linalg

from ltrans import linalg
from ltrans.linalg import (NumericError, ValidationError, hermitian_eigensystem,
                           lowest_band_eigensystem, lowest_tridiagonal_eigensystem)
from ltrans.rabi import RabiParams, _rabi_band

from rabi_oracle import rabi_hamiltonian


def random_hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (x + x.conj().T)


def char_poly_roots_2x2(h):
    tr = np.trace(h).real
    det = np.linalg.det(h).real
    disc = np.sqrt(tr * tr - 4.0 * det)
    return np.sort([0.5 * (tr - disc), 0.5 * (tr + disc)])


def char_poly_roots_3x3(h):
    # coefficients of det(lambda I - H) via trace identities
    t1 = np.trace(h).real
    t2 = np.trace(h @ h).real
    det = np.linalg.det(h).real
    c2 = -t1
    c1 = 0.5 * (t1 * t1 - t2)
    c0 = -det
    return np.sort(np.roots([1.0, c2, c1, c0]).real)


def test_already_diagonal():
    lam, v = hermitian_eigensystem(np.diag([-1.0, 1.0]))
    assert np.allclose(lam, [-1.0, 1.0], atol=0)
    assert np.array_equal(v, np.eye(2))


def test_qubit_closed_form():
    eps, delta = 0.8, 0.6
    h = -0.5 * np.array([[eps, delta], [delta, -eps]])
    lam, v = hermitian_eigensystem(h)
    assert np.allclose(lam, [-0.5, 0.5], atol=1e-14)


def test_reconstruction_8x8():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 8)
    lam, v = hermitian_eigensystem(h)
    assert np.max(np.abs(v @ np.diag(lam) @ v.conj().T - h)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 5, 13, 40])
def test_residual_and_unitarity(n):
    rng = np.random.default_rng(n)
    h = random_hermitian(rng, n)
    lam, v = hermitian_eigensystem(h)
    scale = max(1.0, np.max(np.abs(lam)))
    assert np.max(np.abs(h @ v - v @ np.diag(lam))) <= 1e-10 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10
    assert np.all(np.diff(lam) >= 0)


def test_char_poly_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h2 = random_hermitian(rng, 2)
        lam, _ = hermitian_eigensystem(h2)
        assert np.max(np.abs(lam - char_poly_roots_2x2(h2))) < 1e-12
        h3 = random_hermitian(rng, 3)
        lam, _ = hermitian_eigensystem(h3)
        assert np.max(np.abs(lam - char_poly_roots_3x3(h3))) < 1e-12


def test_bitwise_determinism():
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 12)
    lam1, v1 = hermitian_eigensystem(h.copy())
    lam2, v2 = hermitian_eigensystem(h.copy())
    assert np.array_equal(lam1, lam2)
    assert np.array_equal(v1, v2)


def test_phase_convention():
    rng = np.random.default_rng(23)
    h = random_hermitian(rng, 6)
    _, v = hermitian_eigensystem(h)
    for k in range(6):
        j = np.argmax(np.abs(v[:, k]))
        assert abs(v[j, k].imag) < 1e-14
        assert v[j, k].real > 0


def test_degenerate_block():
    # twofold degenerate eigenvalue: solver must still satisfy the residual
    h = np.diag([1.0, 1.0, 2.0]).astype(complex)
    u = np.array([[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2)
    h = u @ h @ u.conj().T
    lam, v = hermitian_eigensystem(h)
    assert np.allclose(lam, [1.0, 1.0, 2.0], atol=1e-12)
    assert np.max(np.abs(h @ v - v @ np.diag(lam))) < 1e-10


def test_non_hermitian_rejected():
    with pytest.raises(ValidationError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_finite_rejected():
    with pytest.raises(ValidationError):
        hermitian_eigensystem(np.array([[0.0, np.nan], [np.nan, 1.0]]))


def test_lapack_failure_is_numeric_error(monkeypatch):
    def fail(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError):
        hermitian_eigensystem(np.eye(2))


def random_persymmetric_band(rng, n, u=2):
    """Upper band storage and dense form of a symmetric band matrix with J A J = A."""
    a = np.zeros((n, n))
    for d in range(u + 1):
        off = rng.standard_normal(n - d)
        a += np.diag(off, d) + (np.diag(off, -d) if d else 0.0)
    j = np.eye(n)[::-1]
    a = a + j @ a @ j
    ab = np.zeros((u + 1, n))
    for d in range(u + 1):
        ab[u - d, d:] = np.diag(a, d)
    return ab, a


@pytest.mark.parametrize("n, keep", [(6, 1), (20, 5), (80, 21)])
def test_band_solver_matches_dense(n, keep):
    rng = np.random.default_rng(n)
    ab, a = random_persymmetric_band(rng, n)
    lam, v = lowest_band_eigensystem(ab, keep)
    assert lam.shape == (keep,) and v.shape == (n, keep) and np.isrealobj(v)
    assert np.max(np.abs(lam - np.linalg.eigvalsh(a)[:keep])) < 1e-12 * np.max(np.abs(a))
    assert np.max(np.abs(a @ v - v * lam)) < 1e-12 * np.max(np.abs(a))
    assert np.max(np.abs(v.T @ v - np.eye(keep))) < 1e-12


def test_phase_tie_takes_lowest_index():
    # persymmetric matrices have (anti)symmetric eigenvectors, |v_i| = |v_{n-1-i}|:
    # the largest magnitude is tied, and the lower of the two indices is made
    # positive by both solvers, whichever the rounding favours
    rng = np.random.default_rng(29)
    for _ in range(20):
        ab, a = random_persymmetric_band(rng, 12)
        for v in (hermitian_eigensystem(a)[1], lowest_band_eigensystem(ab, 12)[1]):
            mag = np.abs(v)
            first = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0)
            assert np.all(first < 6)
            top = v[first, np.arange(12)]
            assert np.all(np.abs(top.imag) < 1e-14) and np.all(top.real > 0)


def test_band_solver_bitwise_determinism():
    ab, _ = random_persymmetric_band(np.random.default_rng(31), 30)
    lam1, v1 = lowest_band_eigensystem(ab.copy(), 7)
    lam2, v2 = lowest_band_eigensystem(ab.copy(), 7)
    assert np.array_equal(lam1, lam2) and np.array_equal(v1, v2)


@pytest.mark.parametrize("ab, keep", [
    (np.array([[0.0, 1.0], [1.0, np.nan]]), 1),
    (np.array([[0.0, 1.0], [1.0, 2.0]]) + 0j, 1),
    (np.array([1.0, 2.0]), 1),
    (np.array([[0.0, 1.0], [1.0, 2.0]]), 0),
    (np.array([[0.0, 1.0], [1.0, 2.0]]), 3),
])
def test_band_solver_rejects_bad_input(ab, keep):
    with pytest.raises(ValidationError):
        lowest_band_eigensystem(ab, keep)


def test_band_lapack_failure_is_numeric_error(monkeypatch):
    def fail(*_args, **_kwargs):
        raise np.linalg.LinAlgError("eig algorithm did not converge")

    # the solver imports eig_banded from scipy.linalg at each call
    monkeypatch.setattr(scipy.linalg, "eig_banded", fail)
    with pytest.raises(NumericError):
        lowest_band_eigensystem(np.array([[0.0, 1.0], [1.0, 2.0]]), 1)


def recorded_selects(monkeypatch):
    """The `select` argument of every eig_banded call ("a", all, if none)."""
    selects = []
    orig = scipy.linalg.eig_banded

    def recorded(*args, **kwargs):
        selects.append(kwargs.get("select", "a"))
        return orig(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig_banded", recorded)
    return selects


# order 80 (Fock cutoff 40): up to 10 pairs by bisection, from 11 the full solve
@pytest.mark.parametrize("keep,select", [(5, "i"), (10, "i"), (11, "a"), (21, "a")])
def test_band_solver_matches_the_dense_rabi_oracle(monkeypatch, keep, select):
    p = RabiParams(epsilon=0.0, delta=0.9, g=0.2, fock_cutoff=40, retained_levels=keep)
    ab = _rabi_band(p, p.fock_cutoff)
    selects = recorded_selects(monkeypatch)
    lam, v = lowest_band_eigensystem(ab, keep)
    assert selects == [select]
    ref_lam, ref_v = hermitian_eigensystem(rabi_hamiltonian(p, p.fock_cutoff))
    # the band's basis index 2n + s is the oracle's s * n_fock + n
    order = ab.shape[1]
    ref_v = ref_v[(np.arange(order) % 2) * p.fock_cutoff + np.arange(order) // 2, :keep]
    assert np.max(np.abs(lam - ref_lam[:keep])) < 1e-12 * np.max(np.abs(lam))
    assert np.max(np.abs(np.abs(np.sum(v * ref_v.conj(), axis=0)) - 1.0)) < 1e-12
    # both sides follow the phase convention, so the vectors agree as they are
    assert np.max(np.abs(v - ref_v)) < 1e-12
    mag = np.abs(v)
    first = np.argmax(mag >= (1.0 - linalg.PHASE_TIE_RTOL) * mag.max(axis=0), axis=0)
    assert np.all(v[first, np.arange(keep)] > 0)


@pytest.mark.parametrize("order,keep", [(80, 5), (80, 10), (200, 25)])
def test_few_band_pairs_come_from_bisection_as_before(monkeypatch, order, keep):
    # up to an eighth of the order, the pairs are bitwise those of
    # bisection and inverse iteration under the phase convention
    ab, _ = random_persymmetric_band(np.random.default_rng(order + keep), order)
    selects = recorded_selects(monkeypatch)
    lam, v = lowest_band_eigensystem(ab, keep)
    assert selects == ["i"]
    ref_lam, ref_v = scipy.linalg.eig_banded(ab, select="i", select_range=(0, keep - 1),
                                             check_finite=False)
    assert np.array_equal(lam, ref_lam)
    assert np.array_equal(v, linalg._fix_phase(ref_v))


def random_tridiagonal(rng, n, split=None):
    """Diagonal, off-diagonal and dense form; e[split] = 0 splits it in two."""
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    if split is not None:
        e[split] = 0.0
    return d, e, np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


# order 40: up to 10 pairs (keep <= 9 + 40 / 22) by bisection, more by
# divide and conquer
@pytest.mark.parametrize("n,keep,split", [(1, 1, None), (40, 5, None), (40, 7, None),
                                          (40, 10, None), (40, 11, None), (40, 40, None),
                                          (40, 5, 17), (40, 12, 17)])
def test_tridiagonal_solver_matches_dense(n, keep, split):
    d, e, a = random_tridiagonal(np.random.default_rng(n + keep), n, split)
    lam, v = lowest_tridiagonal_eigensystem(d, e, keep)
    ref = np.linalg.eigvalsh(a)[:keep]
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(lam - ref)) < 1e-13 * scale
    assert np.max(np.abs(a @ v - v * lam)) < 1e-12 * scale
    assert np.max(np.abs(v.T @ v - np.eye(keep))) < 1e-12
    mag = np.abs(v)
    first = np.argmax(mag >= (1.0 - linalg.PHASE_TIE_RTOL) * mag.max(axis=0), axis=0)
    assert np.all(v[first, np.arange(keep)] > 0)
    if split is not None:
        # every eigenvector lives on one block
        cut = split + 1
        assert np.all(np.all(v[:cut] == 0.0, axis=0) | np.all(v[cut:] == 0.0, axis=0))


def test_tridiagonal_solver_bitwise_determinism():
    d, e, _ = random_tridiagonal(np.random.default_rng(5), 60, 29)
    for keep in (4, 12):
        lam1, v1 = lowest_tridiagonal_eigensystem(d.copy(), e.copy(), keep)
        lam2, v2 = lowest_tridiagonal_eigensystem(d.copy(), e.copy(), keep)
        assert np.array_equal(lam1, lam2) and np.array_equal(v1, v2)


@pytest.mark.parametrize("d, e, keep", [
    (np.array([0.0, np.nan]), np.array([1.0]), 1),
    (np.array([0.0, 1.0]), np.array([np.inf]), 1),
    (np.array([0.0, 1.0]) + 0j, np.array([1.0]), 1),
    (np.array([0.0, 1.0]), np.array([1.0, 2.0]), 1),
    (np.array([[0.0, 1.0]]), np.array([1.0]), 1),
    (np.array([0.0, 1.0]), np.array([1.0]), 0),
    (np.array([0.0, 1.0]), np.array([1.0]), 3),
])
def test_tridiagonal_solver_rejects_bad_input(d, e, keep):
    with pytest.raises(ValidationError):
        lowest_tridiagonal_eigensystem(d, e, keep)


@pytest.mark.parametrize("name, result, keep", [
    ("dstevd", (np.zeros(16), np.eye(16), 1), 10),
    ("dstebz", (1, np.zeros(16), np.ones(16, int), np.full(16, 16), 1), 1),
    ("dstebz", (0, np.zeros(16), np.ones(16, int), np.full(16, 16), 0), 1),
    ("dstein", (np.eye(16)[:, :1], 1), 1),
])
def test_tridiagonal_lapack_failure_is_numeric_error(monkeypatch, name, result, keep):
    # a LAPACK info, or fewer eigenvalues than asked for (order 16: 10 pairs
    # take dstevd, 1 bisection); the solver imports its routines from
    # scipy.linalg.lapack at each call
    monkeypatch.setattr(scipy.linalg.lapack, name, lambda *args, **kwargs: result)
    d, e, _ = random_tridiagonal(np.random.default_rng(1), 16)
    with pytest.raises(NumericError):
        lowest_tridiagonal_eigensystem(d, e, keep)
