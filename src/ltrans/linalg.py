"""Dense complex Hermitian eigensolver and basis transforms.

The eigensolver is LAPACK's Hermitian solver (numpy.linalg.eigh) behind an
input check and a fixed eigenvector phase convention.  The unit tests check
it against characteristic-polynomial roots, residuals and unitarity, and
check that repeated calls on the same input in one process agree bitwise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hermitian_eigensystem", "to_eigenbasis", "ValidationError", "NumericError"]


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge."""


HERMITICITY_RTOL = 1e-12
UNITARITY_TOL = 1e-10


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValidationError("matrix has non-finite entries")
    scale = max(np.max(np.abs(h)), 1e-300)
    dev = np.max(np.abs(h - h.conj().T))
    if dev > HERMITICITY_RTOL * scale:
        raise ValidationError(
            f"matrix is not Hermitian: max |H - H^dag| = {dev:.3e} "
            f"exceeds {HERMITICITY_RTOL:.1e} * max|H| = {HERMITICITY_RTOL * scale:.3e}"
        )
    return 0.5 * (h + h.conj().T)


def hermitian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a complex Hermitian matrix with LAPACK (numpy.linalg.eigh).

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as unitary columns.  The phase of each eigenvector is fixed
    so that its largest-magnitude component is real and positive.  Raises
    ValidationError for a non-square, non-finite or non-Hermitian input and
    NumericError if LAPACK reports that it did not converge.
    """
    a = _check_hermitian(h)
    try:
        lam, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc
    # phase convention: largest-magnitude component real positive
    idx = np.argmax(np.abs(v), axis=0)
    z = v[idx, np.arange(v.shape[1])]
    v = v * (np.conj(z) / np.abs(z))
    return lam, v


def to_eigenbasis(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Transform a matrix into the basis of eigenvector columns, V^dag A V."""
    a = np.asarray(a, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if a.shape != v.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"dimension mismatch: A {a.shape} vs V {v.shape}")
    dev = np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0])))
    if dev > UNITARITY_TOL:
        raise ValidationError(f"V is not unitary: max |V^dag V - 1| = {dev:.3e}")
    return v.conj().T @ a @ v
