"""Qubit-resonator junction (quantum Rabi model) and its analytic limits.

The numeric route orders the truncated Fock space as (n, qubit), index
2n + s, where the Rabi Hamiltonian is a real symmetric band of half-width 2:
the diagonal carries -+epsilon/2 + omega_r n, the qubit flip -Delta/2 sits on
the first superdiagonal and the coupling +-g sqrt(n+1) on the second.  The
band is solved for its lowest levels with linalg.lowest_band_eigensystem
(LAPACK's banded solver); no dense Hamiltonian is built, only the dense
certificate of the Fock check below.  The levels are exported together
with the coupling operators (resonator quadrature to the left bath, qubit
flux to the right bath) as a JunctionModel.

The Fock check asks whether CONVERGENCE_EXTRA more Fock states move the k
retained levels lambda_0 <= ... <= lambda_(k-1) of the band H (N Fock
states, order 2N) by more than CONVERGENCE_TOL * omega_r.  Only Fock level
N - 1 couples to level N, by g sqrt(N) sigma_z, so the padded eigenvectors
X = [V; 0] leave the residual H_big X - X Lambda of norm at most
rho = g sqrt(N) |V[-2:]|_F in the larger band H_big.  By Kahan's inclusion
theorem (Parlett, The Symmetric Eigenvalue Problem, Thm 11.5.1) k
eigenvalues of H_big then lie within rho of lambda_0 .. lambda_(k-1).  They
are its k lowest, and the drift is at most rho, if H_big has at most k
eigenvalues below y = lambda_(k-1) + CONVERGENCE_TOL * omega_r > lambda_(k-1)
+ rho.  The certificate of that is M = H_big - y + s X X^T positive
definite (s = y - lambda_0 + omega_r): a positive semidefinite update of
rank k makes at most k eigenvalues of H_big - y positive that were not.
M is positive definite if M_N = H - y + s V V^T is and the Schur
complement C - g^2 N sigma_z G sigma_z is, where C = H_big - y on the
added Fock levels and G is the last 2 x 2 block of M_N^-1; a Gershgorin
floor of C above g^2 N tr G shows the latter.  A Cholesky factorization
of the dense M_N gives both its definiteness and G, on either solver path.
Up to N = 400 it costs less than the second banded solve it replaces (0.04
against 0.29 ms at N = 40, 15.6 against 15.9 ms at N = 400, one CPU); above,
it costs more (121 against 92 ms at N = 1000), so the bound is not tried
there.  The second solve still runs, and the drift is measured as before,
where the bound is not tried, where it exceeds half the tolerance (the
other half absorbs roundoff), or where the certificate fails, as it does
where lambda_(k-1) is degenerate with lambda_k.  So one config is accepted
or rejected as by the two solves.

The rotating wave approximation, second-order Van Vleck perturbation theory
and the generalized RWA provide closed-form spectra used for cross-checks
and for interpreting the conductance features; the tests check the Van
Vleck levels against the numeric ones at weak coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ValidationError, lowest_band_eigensystem
from .model import JunctionModel

__all__ = ["RabiParams", "ApproxSpectrum", "build_rabi_junction", "rwa_spectrum",
           "vvpt_spectrum", "grwa_spectrum", "kondo_temperature",
           "generalized_laguerre"]

CONVERGENCE_TOL = 1e-10
CONVERGENCE_EXTRA = 10
# largest Fock cutoff at which the drift bound's dense certificate costs no
# more than the second banded solve (see the module docstring)
_CERTIFIED_MAX_CUTOFF = 400


@dataclass(frozen=True)
class RabiParams:
    """Flux-qubit + resonator parameters, all in units of omega_r by default."""

    epsilon: float          # qubit bias
    delta: float            # qubit tunneling splitting
    g: float                # qubit-resonator coupling
    omega_r: float = 1.0
    fock_cutoff: int = 40
    retained_levels: int = 5

    def __post_init__(self):
        if not self.omega_r > 0:
            raise ValidationError("omega_r must be positive")
        if self.g < 0:
            raise ValidationError("g must be >= 0")
        if self.retained_levels < 2:
            raise ValidationError("retained_levels must be at least 2")
        if self.fock_cutoff < self.retained_levels + 10:
            raise ValidationError("fock_cutoff must exceed retained_levels + 10")

    @property
    def omega_q(self) -> float:
        return float(np.hypot(self.epsilon, self.delta))


@dataclass(frozen=True)
class ApproxSpectrum:
    """Closed-form spectrum of one approximation scheme.

    levels follows the scheme's own doublet indexing, which orders correctly
    only at small coupling; sorted() re-orders ascending and reports the
    permutation.  q_elements holds the coupling matrix elements out of the
    ground state where the scheme provides them.
    """

    method: str
    levels: np.ndarray
    u_minus: np.ndarray
    u_plus: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    q_elements: dict[str, float] = field(default_factory=dict)

    def sorted(self) -> tuple[np.ndarray, np.ndarray]:
        perm = np.argsort(self.levels, kind="stable")
        return self.levels[perm], perm

    def doublet_norm_residual(self) -> float:
        return float(max(np.max(np.abs(self.u_minus**2 + self.v_minus**2 - 1.0)),
                         np.max(np.abs(self.u_plus**2 + self.v_plus**2 - 1.0))))


# ---------------------------------------------------------------------------
# numeric diagonalization
# ---------------------------------------------------------------------------

def _rabi_band(p: RabiParams, n_fock: int) -> np.ndarray:
    """Upper band storage (3, 2 n_fock) of the Rabi Hamiltonian, basis index 2n + s.

    Qubit state s = 0, 1 has sigma_z = +1, -1 (localized flux basis).
    """
    n = np.arange(n_fock)
    sz = np.array([1.0, -1.0])
    ab = np.zeros((3, 2 * n_fock))
    ab[2] = (-0.5 * p.epsilon * sz[None, :] + p.omega_r * n[:, None]).ravel()
    # ab[2 + i - j, j] = H[i, j]: (n, 0)-(n, 1) on row 1, (n-1, s)-(n, s) on row 0
    ab[1, 1::2] = -0.5 * p.delta
    ab[0, 2:] = (p.g * sz[None, :] * np.sqrt(n[1:, None])).ravel()
    return ab


def _fock_drift_bound(p: RabiParams, band: np.ndarray, lam: np.ndarray,
                      v: np.ndarray) -> float:
    """Bound on how far the retained levels move with CONVERGENCE_EXTRA more
    Fock states, from the retained eigenpairs alone; inf where its
    certificate fails or is not tried (cutoffs above _CERTIFIED_MAX_CUTOFF).

    `band` is the larger band, `lam` and `v` the lowest eigenpairs of its
    leading 2N x 2N part H (N = fock_cutoff).  With y = lam[-1] +
    CONVERGENCE_TOL * omega_r, returns rho = g sqrt(N) |V[-2:]|_F if
    M = H_big - y + s X X^T is positive definite, X = [V; 0] and
    s = y - lam[0] + omega_r (see the module docstring).
    """
    n_fock, g, w = p.fock_cutoff, p.g, p.omega_r
    if n_fock > _CERTIFIED_MAX_CUTOFF:
        return math.inf
    y = lam[-1] + CONVERGENCE_TOL * w
    # Gershgorin floor of C = H_big - y on the added Fock levels n >= N: each
    # row has n w -+ epsilon/2 on the diagonal and Delta/2, g sqrt(n),
    # g sqrt(n+1) off it; n w - g (sqrt(n) + sqrt(n+1)) grows with n once
    # sqrt(N) >= g / w, so its least value is at n = N
    if g > math.sqrt(n_fock) * w:
        return math.inf
    floor = (n_fock * w - g * (math.sqrt(n_fock) + math.sqrt(n_fock + 1))
             - 0.5 * (abs(p.epsilon) + abs(p.delta)) - y)
    if not floor > 0.0:
        return math.inf
    # Cholesky factor L of M_N = H - y + s V V^T, whose trailing 2 x 2 block
    # L22 gives G = (L22 L22^T)^-1
    from scipy.linalg.lapack import dpotrf

    m = v.shape[0]
    a = ((y - lam[0] + w) * v) @ v.T
    flat = a.reshape(-1)
    flat[::m + 1] += band[2, :m] - y
    flat[m::m + 1] += band[1, 1:m]          # a[j, j - 1] = H[j - 1, j]
    flat[2 * m::m + 1] += band[0, 2:m]      # a[j, j - 2] = H[j - 2, j]
    chol, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info:
        return math.inf
    l00, l10, l11 = chol[-2, -2], chol[-1, -2], chol[-1, -1]
    tr_g = (1.0 + (l10 / l11)**2) / l00**2 + 1.0 / l11**2
    if not g * g * n_fock * tr_g < floor:
        return math.inf
    tail = v[-2:]
    return g * math.sqrt(n_fock * np.vdot(tail, tail))


def build_rabi_junction(params: RabiParams, left_id: str = "L",
                        right_id: str = "R") -> JunctionModel:
    """Solve the banded Rabi Hamiltonian for its lowest levels and retain them.

    The left bath couples to the resonator quadrature a + a^dag, the right
    bath to the qubit sigma_z (localized flux basis).  Raises if increasing
    the Fock cutoff by CONVERGENCE_EXTRA = 10 moves the retained eigenvalues
    by more than CONVERGENCE_TOL * omega_r = 1e-10 omega_r.  The retained
    eigenpairs alone settle that where `_fock_drift_bound` bounds the drift
    by half the tolerance: rho = g sqrt(N) |V[-2:]|_F, certified by a
    positive definite M (see the module docstring).  Where rho is larger,
    the certificate fails, as where the last retained level is degenerate
    with the next, or the cutoff exceeds 400 Fock states, the band of the
    larger cutoff is solved for its eigenvalues and the drift measured.
    """
    keep, n_fock = params.retained_levels, params.fock_cutoff
    # the band of the smaller cutoff is the leading part of the larger one
    band = _rabi_band(params, n_fock + CONVERGENCE_EXTRA)
    lam, v = lowest_band_eigensystem(band[:, :2 * n_fock], keep)
    tol = CONVERGENCE_TOL * params.omega_r
    if _fock_drift_bound(params, band, lam, v) > 0.5 * tol:
        lam_chk = lowest_band_eigensystem(band, keep, eigvals_only=True)
        drift = float(np.max(np.abs(lam - lam_chk)))
        if drift > tol:
            raise ValidationError(
                f"Fock truncation not converged: retained levels move by {drift:.3e}; "
                "increase fock_cutoff")

    # a + a^dag couples (n-1, s) and (n, s), two basis indices apart
    sqrt_n = np.sqrt(np.arange(2, 2 * n_fock) // 2)
    half = v[:-2].T @ (sqrt_n[:, None] * v[2:])
    q_left = half + half.T
    sz = np.tile([1.0, -1.0], n_fock)
    q_right = v.T @ (sz[:, None] * v)
    q_right = 0.5 * (q_right + q_right.T)
    return JunctionModel(omega=lam, q_ops={left_id: q_left, right_id: q_right})


def kondo_temperature(model: JunctionModel) -> float:
    """Temperature scale set by the lowest excitation gap, T_K = omega_10."""
    if model.dim < 2:
        raise ValidationError("need at least two levels")
    return float(model.omega[1] - model.omega[0])


# ---------------------------------------------------------------------------
# rotating-wave approximation
# ---------------------------------------------------------------------------

def _doublet_coefficients(delta_n: np.ndarray, off: np.ndarray):
    """Normalized 2x2 diagonalization weights for detuning/coupling arrays."""
    root = np.sqrt(delta_n**2 + off**2)
    um = np.zeros_like(delta_n)
    up = np.zeros_like(delta_n)
    vm = np.zeros_like(delta_n)
    vp = np.zeros_like(delta_n)
    for i, (d, o, r) in enumerate(zip(delta_n, off, root)):
        num_m = d - r
        num_p = d + r
        den_m = np.sqrt(num_m**2 + o**2)
        den_p = np.sqrt(num_p**2 + o**2)
        if den_m < 1e-300:   # decoupled doublet: lower state is pure |e, n-1>
            um[i], vm[i] = 1.0, 0.0
        else:
            um[i], vm[i] = num_m / den_m, -o / den_m
        if den_p < 1e-300:
            up[i], vp[i] = 1.0, 0.0
        else:
            up[i], vp[i] = num_p / den_p, -o / den_p
    return um, up, vm, vp


def rwa_spectrum(params: RabiParams, n_max: int = 5) -> ApproxSpectrum:
    """Jaynes-Cummings spectrum and ground-doublet coupling elements."""
    p = params
    wq = p.omega_q
    gx = p.g * p.delta / wq if wq > 0 else 0.0
    detuning = wq - p.omega_r
    ns = np.arange(1, n_max + 1, dtype=float)
    root = np.sqrt(detuning**2 + 4.0 * ns * gx**2)
    levels = np.empty(2 * n_max + 1)
    levels[0] = -0.5 * wq
    levels[1::2] = (ns - 0.5) * p.omega_r - 0.5 * root
    levels[2::2] = (ns - 0.5) * p.omega_r + 0.5 * root
    um, up, vm, vp = _doublet_coefficients(np.full(n_max, detuning),
                                           2.0 * np.sqrt(ns) * gx)
    q = {"L01": float(vm[0]), "R01": float(um[0] * p.delta / wq) if wq > 0 else 0.0,
         "L02": float(vp[0]), "R02": float(up[0] * p.delta / wq) if wq > 0 else 0.0}
    return ApproxSpectrum(method="RWA", levels=levels, u_minus=um, u_plus=up,
                          v_minus=vm, v_plus=vp, q_elements=q)


# ---------------------------------------------------------------------------
# Van Vleck perturbation theory, second order in g
# ---------------------------------------------------------------------------

def vvpt_spectrum(params: RabiParams, n_max: int = 5) -> ApproxSpectrum:
    """Second-order Van Vleck levels; reduces to the RWA as g -> 0."""
    p = params
    wq = p.omega_q
    gz = p.g * p.epsilon / wq if wq > 0 else 0.0
    gx = p.g * p.delta / wq if wq > 0 else p.g
    wbar = wq + p.omega_r
    ns = np.arange(1, n_max + 1, dtype=float)
    wq_n = wq + 2.0 * ns * gx**2 / wbar
    delta_n = wq_n - p.omega_r
    root = np.sqrt(delta_n**2 + 4.0 * ns * gx**2)
    shift = -gz**2 / p.omega_r - gx**2 / wbar
    levels = np.empty(2 * n_max + 1)
    levels[0] = -0.5 * (wq + 2.0 * gx**2 / wbar) - gz**2 / p.omega_r
    levels[1::2] = -0.5 * wq_n + 0.5 * delta_n + ns * p.omega_r + shift - 0.5 * root
    levels[2::2] = -0.5 * wq_n + 0.5 * delta_n + ns * p.omega_r + shift + 0.5 * root
    um, up, vm, vp = _doublet_coefficients(delta_n, 2.0 * np.sqrt(ns) * gx)

    q: dict[str, float] = {}
    if p.epsilon == 0.0:
        # first-order states at zero bias
        r = p.g / (p.delta + p.omega_r)
        norm0 = np.sqrt(1.0 + r**2)
        norm1 = np.sqrt(um[0]**2 + vm[0]**2 * (1.0 + 2.0 * r**2))
        q["L01"] = float((vm[0] * (1.0 + np.sqrt(2.0) * r) + um[0] * r)
                         / (norm0 * norm1))
        q["R01"] = float((um[0] + vm[0] * r) / (norm0 * norm1))
    return ApproxSpectrum(method="VVPT", levels=levels, u_minus=um, u_plus=up,
                          v_minus=vm, v_plus=vp, q_elements=q)


# ---------------------------------------------------------------------------
# generalized rotating-wave approximation
# ---------------------------------------------------------------------------

def generalized_laguerre(n: int, k: int, x: float) -> float:
    """L_n^k(x) by the three-term recurrence (L_0 = 1, L_1 = 1 + k - x)."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    l0 = 1.0
    if n == 0:
        return l0
    l1 = 1.0 + k - x
    for j in range(1, n):
        l0, l1 = l1, ((2.0 * j + 1.0 + k - x) * l1 - (j + k) * l0) / (j + 1.0)
    return float(l1)


def _dressed_gap(delta: float, alpha_t: float, i: int, j: int) -> float:
    """Coupling-dressed tunneling matrix element Delta_ij (i >= j)."""
    if i < j:
        i, j = j, i
    fact = 1.0
    for m in range(j + 1, i + 1):
        fact *= m
    return float(delta * np.exp(-0.5 * alpha_t) * alpha_t**((i - j) / 2.0)
                 / np.sqrt(fact) * generalized_laguerre(j, i - j, alpha_t))


def grwa_spectrum(params: RabiParams, n_max: int = 5) -> ApproxSpectrum:
    """Generalized RWA spectrum of the biased Rabi model.

    Perturbative in the displacement-dressed qubit gap; captures the
    ultrastrong-coupling down-renormalization that pushes the resonance to
    bare detuning Delta > omega_r.
    """
    p = params
    alpha_t = (2.0 * p.g / p.omega_r)**2
    wq_n = np.array([np.hypot(_dressed_gap(p.delta, alpha_t, n, n), p.epsilon)
                     for n in range(n_max + 1)])
    # wq_n = 0 needs epsilon = 0 and a zero of the dressed gap; there the
    # mixing takes its epsilon -> 0 limit c_plus = c_minus = 1/sqrt(2)
    cos_n = np.divide(p.epsilon, wq_n, out=np.zeros_like(wq_n), where=wq_n > 0.0)
    c_plus = np.sqrt(0.5 * (1.0 + cos_n))
    c_minus = np.sqrt(0.5 * (1.0 - cos_n))
    ns = np.arange(1, n_max + 1)
    delta_n = 0.5 * (wq_n[1:] + wq_n[:-1]) - p.omega_r
    off = np.array([_dressed_gap(p.delta, alpha_t, n, n - 1)
                    * (c_plus[n] * c_plus[n - 1] + c_minus[n] * c_minus[n - 1])
                    for n in ns])
    root = np.sqrt(delta_n**2 + off**2)
    levels = np.empty(2 * n_max + 1)
    levels[0] = -0.5 * wq_n[0] - p.g**2 / p.omega_r
    base = -0.5 * wq_n[1:] + 0.5 * delta_n + ns * p.omega_r - p.g**2 / p.omega_r
    levels[1::2] = base - 0.5 * root
    levels[2::2] = base + 0.5 * root
    um, up, vm, vp = _doublet_coefficients(delta_n, off)
    q = {"L01": float(4.0 * p.g / p.omega_r * um[0] * c_minus[0] * c_plus[0]
                      + vm[0] * (c_minus[0] * c_minus[1] + c_plus[0] * c_plus[1])),
         "R01": float(-2.0 * um[0] * c_minus[0] * c_plus[0])}
    return ApproxSpectrum(method="GRWA", levels=levels, u_minus=um, u_plus=up,
                          v_minus=vm, v_plus=vp, q_elements=q)
