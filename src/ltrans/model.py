"""Junction data model and unit conventions.

Internally hbar = k_B = 1 and every frequency, energy and temperature is
expressed in units of a reference frequency omega_ref.  Heat currents then
carry units omega_ref**2 and thermal conductances omega_ref.

A junction model may carry a symmetry sector per level, set by the builder
that knows the symmetry (the Z2 parity of the zero-bias Rabi and two-level
junctions), under which every coupling is odd: no retained coherence of
the partial-secular solve joins two sectors, and no coupling joins two
levels of one sector, so the partial-secular rows evaluate their bath
tables on the cross-sector pairs alone (`ltrans.baths.coupled_frequencies`).
Without labels every level pair is a candidate, and every pair is coupled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import ValidationError

__all__ = ["SpectralDensity", "Reservoir", "JunctionModel", "build_junction",
           "stack_models"]

Q_SYMMETRY_RTOL = 1e-12
# a coupling at or below this fraction of the model's largest is roundoff of
# an exact zero (two levels of one symmetry sector)
COUPLING_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic spectral density with a Drude (Lorentzian) high-frequency cutoff."""

    alpha: float
    omega_c: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValidationError("alpha must be >= 0")
        if not self.omega_c > 0:
            raise ValidationError("omega_c must be positive")

    def value(self, omega) -> np.ndarray | float:
        """J(omega) = alpha*omega / (1 + omega^2/omega_c^2), odd in omega."""
        omega = np.asarray(omega, dtype=float)
        out = self.alpha * omega / (1.0 + (omega / self.omega_c) ** 2)
        return out if out.ndim else float(out)

    def slope_at(self, omega) -> np.ndarray | float:
        """J(omega)/omega, the smooth continuation through omega = 0."""
        omega = np.asarray(omega, dtype=float)
        out = self.alpha / (1.0 + (omega / self.omega_c) ** 2)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Reservoir:
    """One bosonic reservoir with an Ohmic-Drude spectral density.

    beta is one inverse temperature, or a 1-d array of them: a temperature
    axis, over which the bath tables of `ltrans.baths` are evaluated at once.
    """

    id: str
    beta: float | np.ndarray         # inverse temperature(s), 1/omega_ref
    spectral: SpectralDensity

    def __post_init__(self):
        beta = self.beta
        # a float is checked in float arithmetic, ~2 us less per reservoir
        if not (beta > 0 if isinstance(beta, float) else np.greater(beta, 0).all()):
            raise ValidationError("beta must be positive")
        if not isinstance(self.spectral, SpectralDensity):
            raise ValidationError(
                f"reservoir {self.id!r} needs an Ohmic-Drude SpectralDensity, "
                f"got {type(self.spectral).__name__}")

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta

    def with_temperature(self, t) -> "Reservoir":
        return Reservoir(self.id, 1.0 / t, self.spectral)


@dataclass(frozen=True)
class JunctionModel:
    """Multi-level junction resolved in its energy eigenbasis.

    omega holds the ascending eigenfrequencies and q_ops maps each reservoir
    id to the real symmetric coupling matrix in the same basis.  The model
    holds no bath data: each kernel evaluates the W tables it needs.  A
    model stack (`stack_models`) holds R models of one level count: omega
    is then (R, N), each coupling matrix (R, N, N) and the Bohr matrix
    (R, N, N), a leading model axis that the bath tables, kernels and
    solvers of a sweep carry through.

    sector, if not None, holds an integer label per level (the shape of
    omega): each eigenvector is an eigenvector of a Z2 symmetry Pi of the
    Hamiltonian, and levels of one label share its eigenvalue.  The Redfield
    map then commutes with rho -> Pi rho Pi, so the steady state and its
    linear response hold no coherence between two sectors (Albert and
    Jiang, PRA 89, 022118 (2014)), and the clustering retains none.  Two
    labelled sectors also mean that every coupling operator is odd under
    Pi: no coupling joins two levels of one sector (their entries of Q are
    roundoff, below `COUPLING_RTOL` of the model's largest coupling), so
    the bath tables of the partial-secular rows hold zeros there
    (`ltrans.baths.coupled_frequencies`, which rejects a model whose
    same-sector couplings exceed that floor).  A model whose levels share one
    label couples every pair.  None means that no symmetry is known.
    """

    omega: np.ndarray
    q_ops: dict[str, np.ndarray] = field(default_factory=dict)
    sector: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.omega.shape[-1]

    def bohr_matrix(self) -> np.ndarray:
        """omega[n] - omega[m] as an (N, N) array, per model of a stack."""
        return self.omega[..., :, None] - self.omega[..., None, :]

    def take(self, index) -> "JunctionModel":
        """The models `index` of the model axis (a model stack, or one model
        where index is an integer); index None adds the axis to one model."""
        return JunctionModel(self.omega[index], {k: q[index] for k, q in self.q_ops.items()},
                             None if self.sector is None else self.sector[index])

    def q(self, reservoir_id: str) -> np.ndarray:
        try:
            return self.q_ops[reservoir_id]
        except KeyError:
            raise ValidationError(f"unknown reservoir id {reservoir_id!r}") from None


def build_junction(omega, q_map) -> JunctionModel:
    """Validate and normalize raw junction data.

    q_map is a reservoir-id -> matrix mapping or an iterable of (id, matrix)
    pairs.  Levels are sorted ascending (coupling matrices permuted
    consistently), each coupling matrix is symmetrized within tolerance, and
    duplicate reservoir ids or significantly asymmetric couplings are
    rejected.
    """
    omega = np.asarray(omega, dtype=float).copy()
    if omega.ndim != 1 or len(omega) < 1:
        raise ValidationError("omega must be a non-empty 1-d array")
    n = len(omega)
    items = list(q_map.items()) if isinstance(q_map, dict) else list(q_map)
    ids = [rid for rid, _ in items]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate reservoir ids")

    order = np.argsort(omega, kind="stable")
    omega = omega[order]
    q_ops = {}
    for rid, q in items:
        q = np.asarray(q, dtype=float)
        if q.shape != (n, n):
            raise ValidationError(
                f"coupling matrix for {rid!r} has shape {q.shape}, expected {(n, n)}")
        scale = max(np.max(np.abs(q)), 1e-300)
        asym = np.max(np.abs(q - q.T))
        if asym > Q_SYMMETRY_RTOL * scale:
            raise ValidationError(
                f"coupling matrix for {rid!r} is asymmetric: max |Q - Q^T| = "
                f"{asym:.3e} exceeds {Q_SYMMETRY_RTOL:.1e} * max|Q|")
        q = 0.5 * (q + q.T)
        q_ops[rid] = q[np.ix_(order, order)]
    return JunctionModel(omega=omega, q_ops=q_ops)


def stack_models(models: list[JunctionModel]) -> JunctionModel:
    """The model stack of `models`, which share their level count and bath ids.

    The stack carries sector labels if any model does; a model without them
    gets one sector for all of its levels.
    """
    sector = None
    if any(m.sector is not None for m in models):
        sector = np.array([np.zeros(m.dim, dtype=int) if m.sector is None else m.sector
                           for m in models])
    return JunctionModel(omega=np.array([m.omega for m in models]),
                         q_ops={rid: np.array([m.q_ops[rid] for m in models])
                                for rid in models[0].q_ops},
                         sector=sector)
