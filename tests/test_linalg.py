import numpy as np
import pytest

from ltrans.linalg import (NumericError, ValidationError, hermitian_eigensystem,
                           to_eigenbasis)


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


def test_to_eigenbasis_identity():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    _, v = hermitian_eigensystem(h)
    assert np.allclose(to_eigenbasis(np.eye(4), v), np.eye(4), atol=1e-13)


def test_to_eigenbasis_sigma_z_in_sigma_x_basis():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    _, v = hermitian_eigensystem(sx)
    got = to_eigenbasis(sz, v)
    assert np.allclose(np.abs(got), [[0, 1], [1, 0]], atol=1e-14)


def test_to_eigenbasis_trace_and_spectrum():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = random_hermitian(rng, 5)
    _, v = hermitian_eigensystem(h)
    b = to_eigenbasis(a, v)
    assert abs(np.trace(b) - np.trace(a)) < 1e-12
    ev_a = np.sort_complex(np.linalg.eigvals(a))
    ev_b = np.sort_complex(np.linalg.eigvals(b))
    assert np.max(np.abs(ev_a - ev_b)) < 1e-10
    # Hermiticity preserved
    hb = to_eigenbasis(h, v)
    assert np.max(np.abs(hb - hb.conj().T)) < 1e-12


def test_to_eigenbasis_dimension_mismatch():
    with pytest.raises(ValidationError):
        to_eigenbasis(np.eye(3), np.eye(2))


def test_to_eigenbasis_nonunitary_rejected():
    with pytest.raises(ValidationError):
        to_eigenbasis(np.eye(2), 2.0 * np.eye(2))


def test_non_finite_rejected():
    with pytest.raises(ValidationError):
        hermitian_eigensystem(np.array([[0.0, np.nan], [np.nan, 1.0]]))


def test_lapack_failure_is_numeric_error(monkeypatch):
    def fail(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError):
        hermitian_eigensystem(np.eye(2))
