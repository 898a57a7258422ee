"""Eigensolvers and basis transforms.

Two solvers share one eigenvector phase convention:

- `hermitian_eigensystem` diagonalizes a dense complex Hermitian matrix with
  LAPACK's Hermitian solver (numpy.linalg.eigh);
- `lowest_band_eigensystem` solves a real symmetric banded matrix given in
  upper band storage with LAPACK's banded solver (scipy.linalg.eig_banded)
  and keeps its lowest eigenpairs: by bisection and inverse iteration when
  they are at most an eighth of the order, else from the full solve.
  scipy.linalg is imported at the first banded solve, not with this
  module: loading it takes longer than a whole sweep of a model that needs
  no band (a two-level junction or a dot).

Both check their input (shape, finiteness) and report a LAPACK failure as
NumericError.  The phase convention makes each eigenvector's largest
component real and positive; components within a relative PHASE_TIE_RTOL of
the largest magnitude count as tied, and the lowest index among them wins, so
that eigenvectors with exactly equal largest components (parity eigenstates,
for example) get a sign that does not depend on rounding.  The unit tests
check both solvers against characteristic-polynomial roots, residuals,
orthonormality and each other, and check that repeated calls on the same
input in one process agree bitwise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hermitian_eigensystem", "lowest_band_eigensystem", "to_eigenbasis",
           "ValidationError", "NumericError"]


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge."""


HERMITICITY_RTOL = 1e-12
UNITARITY_TOL = 1e-10
PHASE_TIE_RTOL = 1e-8


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


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the largest component of each column real and positive.

    Among components within a relative PHASE_TIE_RTOL of the largest
    magnitude, the lowest index is taken.  Real columns stay real.
    """
    mag = np.abs(v)
    idx = np.argmax(mag >= (1.0 - PHASE_TIE_RTOL) * mag.max(axis=0), axis=0)
    z = v[idx, np.arange(v.shape[1])]
    return v * (np.conj(z) / np.abs(z))


def hermitian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a complex Hermitian matrix with LAPACK (numpy.linalg.eigh).

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as unitary columns under the module's phase convention.
    Raises ValidationError for a non-square, non-finite or non-Hermitian
    input and NumericError if LAPACK reports that it did not converge.
    """
    a = _check_hermitian(h)
    try:
        lam, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc
    return lam, _fix_phase(v)


def lowest_band_eigensystem(ab: np.ndarray, keep: int, eigvals_only: bool = False):
    """Lowest `keep` eigenpairs of a real symmetric banded matrix (scipy eig_banded).

    `ab` is the upper band storage of the matrix A: ab[u + i - j, j] = A[i, j]
    for the u = ab.shape[0] - 1 superdiagonals.  Returns (eigenvalues,
    eigenvectors) with eigenvalues ascending and orthonormal real
    eigenvector columns under the module's phase convention, or the
    eigenvalues alone with eigvals_only.  Raises ValidationError for a
    complex or non-finite band or `keep` out of range, and NumericError if
    LAPACK reports that it did not converge.  The first call imports
    scipy.linalg.
    """
    from scipy.linalg import LinAlgError, eig_banded

    ab = np.asarray(ab)
    if ab.ndim != 2 or np.iscomplexobj(ab):
        raise ValidationError(f"expected a real 2-d band, got {ab.dtype} shape {ab.shape}")
    if not 1 <= keep <= ab.shape[1]:
        raise ValidationError(f"keep = {keep} is outside 1..{ab.shape[1]}")
    if not np.all(np.isfinite(ab)):
        raise ValidationError("band has non-finite entries")
    # Bisection plus inverse iteration (select="i") for a few eigenpairs, the
    # full solve for more than an eighth of the order and for eigenvalues
    # alone.  Bandwidth-2 timings on a 2-vCPU VM, select / full solve:
    # order 80, 5 pairs 0.37 / 0.62 ms, 12 pairs 0.69 / 0.62, 21 pairs
    # 1.12 / 0.67; order 120, 15 pairs 1.36 / 1.39, 21 pairs 1.77 / 1.35;
    # order 200, 21 pairs 3.74 / 3.87, 30 pairs 4.84 / 3.87.  Eigenvalues
    # alone of order 100 (the Rabi Fock check at cutoff 40, solved only
    # where its drift bound fails), pinned to one CPU: all of them
    # 0.27-0.34 ms, the lowest 21 by bisection 0.93-0.97 ms.
    try:
        if eigvals_only:
            return eig_banded(ab, eigvals_only=True, check_finite=False)[:keep]
        if 8 * keep > ab.shape[1]:
            lam, v = eig_banded(ab, check_finite=False)
            lam, v = lam[:keep], v[:, :keep]
        else:
            lam, v = eig_banded(ab, select="i", select_range=(0, keep - 1),
                                check_finite=False)
    except LinAlgError as exc:
        raise NumericError(f"banded eigensolver failed: {exc}") from exc
    return lam, _fix_phase(v)


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
