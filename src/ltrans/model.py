"""Junction data model and unit conventions.

Internally hbar = k_B = 1 and every frequency, energy and temperature is
expressed in units of a reference frequency omega_ref.  Heat currents then
carry units omega_ref**2 and thermal conductances omega_ref (the factor k_B
is restored only when converting to SI).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import ValidationError

__all__ = ["Units", "SpectralDensity", "LeadParams", "Reservoir", "JunctionModel",
           "build_junction"]

_HBAR_SI = 1.054571817e-34     # J s
_KB_SI = 1.380649e-23          # J / K

Q_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class Units:
    """Reference frequency tying the internal dimensionless scheme to SI."""

    omega_ref_hz: float = 1.0

    def __post_init__(self):
        if not self.omega_ref_hz > 0:
            raise ValidationError("omega_ref must be positive")

    def frequency_to_si(self, x: float) -> float:
        """Frequency / energy-over-hbar in internal units -> rad/s."""
        return x * self.omega_ref_hz

    def frequency_from_si(self, x_si: float) -> float:
        return x_si / self.omega_ref_hz

    def temperature_to_kelvin(self, t: float) -> float:
        return t * _HBAR_SI * self.omega_ref_hz / _KB_SI

    def temperature_from_kelvin(self, t_k: float) -> float:
        return t_k * _KB_SI / (_HBAR_SI * self.omega_ref_hz)

    def heat_current_to_watt(self, i: float) -> float:
        """Heat current in units omega_ref**2 -> W (hbar restored)."""
        return i * _HBAR_SI * self.omega_ref_hz**2

    def conductance_to_si(self, kappa: float) -> float:
        """Thermal conductance in units omega_ref -> W/K (k_B restored)."""
        return kappa * _KB_SI * self.omega_ref_hz


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic spectral density with a Drude (Lorentzian) high-frequency cutoff."""

    alpha: float
    omega_c: float
    kind: str = "ohmic-drude"

    def __post_init__(self):
        if self.kind != "ohmic-drude":
            raise ValidationError(f"unsupported spectral density kind {self.kind!r}")
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
class LeadParams:
    """Wide-band fermionic lead: flat density of states and tunneling strength."""

    dos: float
    tunneling_sq: float     # |t|^2
    bandwidth: float

    @property
    def gamma(self) -> float:
        """Bare lead-induced rate 2*pi*D*|t|^2 (hbar = 1)."""
        return 2.0 * np.pi * self.dos * self.tunneling_sq


@dataclass(frozen=True)
class Reservoir:
    """One thermal reservoir attached to the junction."""

    id: str
    statistics: str                  # "bose" | "fermi"
    beta: float                      # inverse temperature, 1/omega_ref
    mu: float = 0.0                  # chemical potential (0 for bose)
    spectral: SpectralDensity | LeadParams | None = None

    def __post_init__(self):
        if self.statistics not in ("bose", "fermi"):
            raise ValidationError(f"unknown statistics {self.statistics!r}")
        if not self.beta > 0:
            raise ValidationError("beta must be positive")
        if self.statistics == "bose" and self.mu != 0.0:
            raise ValidationError("bosonic reservoirs must have mu = 0")

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta

    def with_temperature(self, t: float) -> "Reservoir":
        return Reservoir(self.id, self.statistics, 1.0 / t, self.mu, self.spectral)


@dataclass(frozen=True)
class JunctionModel:
    """Multi-level junction resolved in its energy eigenbasis.

    omega holds the ascending eigenfrequencies and q_ops maps each reservoir
    id to the real symmetric coupling matrix in the same basis.
    """

    omega: np.ndarray
    q_ops: dict[str, np.ndarray] = field(default_factory=dict)
    # bath tables over this model's Bohr matrix, memoized by redfield.w_matrix
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.omega)

    def bohr_matrix(self) -> np.ndarray:
        """omega[n] - omega[m] as an (N, N) array."""
        return self.omega[:, None] - self.omega[None, :]

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
