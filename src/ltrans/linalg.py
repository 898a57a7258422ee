"""Eigensolvers, all with one eigenvector phase convention.

- `hermitian_eigensystem`: a dense complex Hermitian matrix, by LAPACK's
  Hermitian solver (numpy.linalg.eigh);
- `lowest_band_eigensystem`: the lowest eigenpairs of a real symmetric band
  in upper band storage, by LAPACK's banded solver (scipy.linalg.eig_banded);
- `lowest_tridiagonal_eigensystem`: the lowest eigenpairs of a real
  symmetric tridiagonal matrix, by LAPACK's tridiagonal bisection and
  inverse iteration or divide and conquer.  It forms no dense reduction
  matrix, which the banded bisection path accumulates, so a few pairs of
  order n cost O(n) each rather than O(n^3) together.

scipy.linalg is imported at the first banded or tridiagonal solve, not
with this module: loading it takes longer than a whole sweep of a model
that needs neither (a two-level junction or a dot).

All three check their input (shape, finiteness) and report a LAPACK failure
as NumericError.  The phase convention makes each eigenvector's largest
component real and positive; components within a relative PHASE_TIE_RTOL of
the largest magnitude count as tied, and the lowest index among them wins, so
that eigenvectors with exactly equal largest components (parity eigenstates,
for example) get a sign that does not depend on rounding.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hermitian_eigensystem", "lowest_band_eigensystem",
           "lowest_tridiagonal_eigensystem", "ValidationError", "NumericError"]


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge."""


HERMITICITY_RTOL = 1e-12
PHASE_TIE_RTOL = 1e-8
# bisection tolerance of eig_banded's select path, 2 * LAPACK dlamch("S")
_BISECTION_ABSTOL = 2.0 * np.finfo(float).tiny


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


def lowest_band_eigensystem(ab: np.ndarray, keep: int):
    """Lowest `keep` eigenpairs of a real symmetric banded matrix (scipy eig_banded).

    `ab` is the upper band storage of the matrix A: ab[u + i - j, j] = A[i, j]
    for the u = ab.shape[0] - 1 superdiagonals.  Returns (eigenvalues,
    eigenvectors) with eigenvalues ascending and orthonormal real
    eigenvector columns under the module's phase convention.  Raises
    ValidationError for a complex or non-finite band or `keep` out of
    range, and NumericError if LAPACK reports that it did not converge.
    The first call imports scipy.linalg.
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
    # full solve for more than an eighth of the order.  Bandwidth-2 timings
    # on a 2-vCPU VM, select / full solve: order 80, 5 pairs 0.37 / 0.62 ms,
    # 12 pairs 0.69 / 0.62, 21 pairs 1.12 / 0.67; order 120, 15 pairs
    # 1.36 / 1.39, 21 pairs 1.77 / 1.35; order 200, 21 pairs 3.74 / 3.87,
    # 30 pairs 4.84 / 3.87.
    try:
        if 8 * keep > ab.shape[1]:
            lam, v = eig_banded(ab, check_finite=False)
            lam, v = lam[:keep], v[:, :keep]
        else:
            lam, v = eig_banded(ab, select="i", select_range=(0, keep - 1),
                                check_finite=False)
    except LinAlgError as exc:
        raise NumericError(f"banded eigensolver failed: {exc}") from exc
    return lam, _fix_phase(v)


def lowest_tridiagonal_eigensystem(d: np.ndarray, e: np.ndarray, keep: int):
    """Lowest `keep` eigenpairs of a real symmetric tridiagonal matrix (LAPACK
    dstebz and dstein, or dstevd).

    `d` is the diagonal (order n) and `e` the off-diagonal (n - 1 entries).
    Returns as lowest_band_eigensystem: (eigenvalues, eigenvectors) with
    eigenvalues ascending and orthonormal real eigenvector columns under the
    module's phase convention.  Raises ValidationError for complex or
    non-finite entries, mismatched lengths or `keep` out of range, and
    NumericError if LAPACK reports a failure.  A zero in `e` splits the
    matrix into blocks; each eigenvector is then exactly zero outside its
    block.  The first call imports scipy.linalg.

    A few pairs come from bisection by index (dstebz, to the accuracy
    eig_banded asks of its bisection) and inverse iteration (dstein), O(n)
    a pair; more, from divide and conquer (dstevd, all pairs), which costs
    the same for any keep.  MRRR (dstemr) cost as much as bisection, but
    its eigenvalues were up to 2.2e-12 off the banded solve's on the parity
    chains of strongly coupled Rabi bands (order <= 120), against 3e-14 by
    bisection.  Milliseconds on the Rabi parity chains (order n = 2N,
    Delta = 0.9, g = 0.2 and 0.4; min of timeit, one CPU):

        n      keep   bisection  dstevd
        80     5      0.08-0.10  0.15-0.24
        80     12     0.15-0.17  0.17-0.18
        80     21     0.27-0.39  0.18-0.24
        400    5      0.52-0.59  2.1-3.3
        400    21     2.0        2.1-2.7
        400    50     4.4-5.2    2.0-2.9
        2000   5      2.7-2.8    43-48
        2000   50     23.5       41-45

    Bisection is slower from keep = 12-14, 15-16, 29-35, 54-64 and 100-101
    pairs at n = 80, 160, 400, 1000 and 2000; dstevd is taken above the
    line through these crossovers, keep > 9 + n / 22.  For comparison,
    eig_banded on the Rabi band of the same order, as
    lowest_band_eigensystem calls it, takes 0.25 ms (n = 80, keep 5), 0.44
    (keep 21), 6.4 (n = 400, keep 5) and 1300 ms (n = 2000, keep 5).
    """
    from scipy.linalg.lapack import dstebz, dstein, dstevd

    d, e = np.asarray(d), np.asarray(e)
    n = d.shape[0] if d.ndim == 1 else 0
    if (d.ndim != 1 or e.shape != (max(n - 1, 0),) or np.iscomplexobj(d)
            or np.iscomplexobj(e)):
        raise ValidationError(f"expected a real diagonal and off-diagonal, got {d.dtype} "
                              f"shape {d.shape} and {e.dtype} shape {e.shape}")
    if not 1 <= keep <= n:
        raise ValidationError(f"keep = {keep} is outside 1..{n}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValidationError("band has non-finite entries")
    if n == 1:
        e = np.zeros(1)         # the LAPACK wrappers ask for one off-diagonal entry
    if keep > 9 + n / 22:
        lam, v, info = dstevd(d, e)
        lam, v = lam[:keep], v[:, :keep]
    else:
        # scipy.linalg.eigh_tridiagonal(select="i", lapack_driver="stebz")
        # makes these calls too, at 12-19 us more a call at n = 80 (a fifth
        # of a keep-5 solve)
        found, lam, block, split, info = dstebz(d, e, 2, 0.0, 0.0, 1, keep,
                                                _BISECTION_ABSTOL, "B")
        order = np.argsort(lam[:found], kind="stable")     # dstebz orders by block
        if not info:
            v, info = dstein(d, e, lam[:found], block, split)
            v = v[:, order]
        lam = lam[order]
    if info or lam.size != keep:
        raise NumericError(f"tridiagonal eigensolver failed: LAPACK info = {info}, "
                           f"{lam.size} of {keep} eigenvalues")
    return lam, _fix_phase(v)

