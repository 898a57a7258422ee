"""Dense reference for the banded Rabi junction (test oracle only).

The Hamiltonian is built on the block-ordered Fock space, index s * n_fock + n,
with Kronecker products, diagonalized in full with the dense Hermitian solver,
and the coupling operators are projected through dense operators.  This is
the route `ltrans.rabi.build_rabi_junction` took before it solved the band.

Both routes here keep the two-solve Fock check, which diagonalizes the
Hamiltonian again at CONVERGENCE_EXTRA more Fock states and measures how far
the retained levels move: `dense_rabi_junction` with dense solves and
`two_solve_fock_check` with the banded solver, as `build_rabi_junction` did
before its drift bound.  They are the oracle for which configs the program
accepts and which it rejects.
"""

import numpy as np

from ltrans.linalg import ValidationError, hermitian_eigensystem, lowest_band_eigensystem
from ltrans.model import JunctionModel
from ltrans.rabi import CONVERGENCE_EXTRA, CONVERGENCE_TOL, RabiParams, _rabi_band


def _fock_error(drift: float) -> ValidationError:
    return ValidationError(
        f"Fock truncation not converged: retained levels move by {drift:.3e}; "
        "increase fock_cutoff")


def two_solve_fock_check(params: RabiParams) -> tuple[float, ValidationError | None]:
    """(drift, the error it raises or None) of the two banded solves."""
    keep, n_fock = params.retained_levels, params.fock_cutoff
    band = _rabi_band(params, n_fock + CONVERGENCE_EXTRA)
    lam, _ = lowest_band_eigensystem(band[:, :2 * n_fock], keep)
    lam_chk, _ = lowest_band_eigensystem(band, keep)
    drift = float(np.max(np.abs(lam - lam_chk)))
    return drift, _fock_error(drift) if drift > CONVERGENCE_TOL * params.omega_r else None


def rabi_hamiltonian(p: RabiParams, n_fock: int) -> np.ndarray:
    ident_f = np.eye(n_fock)
    a = np.diag(np.sqrt(np.arange(1, n_fock)), 1)
    x = a + a.T
    num = a.T @ a
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return (-0.5 * p.epsilon * np.kron(sz, ident_f)
            - 0.5 * p.delta * np.kron(sx, ident_f)
            + p.omega_r * np.kron(np.eye(2), num)
            + p.g * np.kron(sz, x))


def _diag_lowest(p: RabiParams, n_fock: int, keep: int):
    lam, v = hermitian_eigensystem(rabi_hamiltonian(p, n_fock))
    return lam[:keep], v[:, :keep]


def dense_rabi_junction(params: RabiParams) -> JunctionModel:
    keep = params.retained_levels
    lam, vk = _diag_lowest(params, params.fock_cutoff, keep)
    lam_chk, _ = _diag_lowest(params, params.fock_cutoff + CONVERGENCE_EXTRA, keep)
    drift = float(np.max(np.abs(lam - lam_chk)))
    if drift > CONVERGENCE_TOL * params.omega_r:
        raise _fock_error(drift)
    n_fock = params.fock_cutoff
    a = np.diag(np.sqrt(np.arange(1, n_fock)), 1)
    q_left_full = np.kron(np.eye(2), a + a.T)
    q_right_full = np.kron(np.diag([1.0, -1.0]), np.eye(n_fock))
    q_left = (vk.conj().T @ q_left_full @ vk).real
    q_right = (vk.conj().T @ q_right_full @ vk).real
    q_left = 0.5 * (q_left + q_left.T)
    q_right = 0.5 * (q_right + q_right.T)
    return JunctionModel(omega=lam, q_ops={"L": q_left, "R": q_right})
