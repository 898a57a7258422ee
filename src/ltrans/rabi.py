"""Qubit-resonator junction (quantum Rabi model) and its analytic limits.

The numeric route orders the truncated Fock space as (n, qubit), index
2n + s, where the Rabi Hamiltonian is a real symmetric band of half-width 2:
the diagonal carries -+epsilon/2 + omega_r n, the qubit flip -Delta/2 sits on
the first superdiagonal and the coupling +-g sqrt(n+1) on the second.  Every
eigensolve of a build goes through one selector, `_lowest_levels`, which
takes one of two routes on the value of epsilon alone:

- At epsilon = 0 the model has an exact Z2 parity, sigma_x (-1)^(a^dag a)
  (Braak, PRL 107, 100401 (2011)).  In the parity basis
  |n, +-> = (|n, 0> +- (-1)^n |n, 1>) / sqrt 2 the Hamiltonian is two
  uncoupled chains: omega_r n -+ (Delta/2)(-1)^n on the diagonal and
  g sqrt(n) between |n - 1, +-> and |n, +->.  They are solved as one
  tridiagonal matrix of order 2N, with a zero off-diagonal between the
  chains, by linalg.lowest_tridiagonal_eigensystem (O(N) a pair), and each
  eigenvector z = (z+, z-) is mapped back to the band's basis by
  v[2n] = (z+_n + z-_n) / sqrt 2, v[2n + 1] = (-1)^n (z+_n - z-_n) / sqrt 2.
  Each z lies in one chain, so |v[2n]| = |v[2n + 1]| exactly, and the
  phase convention of z (lowest index among the largest) carries over to v.
  The chain is the level's parity, and its label (`JunctionModel.sector`):
  <v|Pi|v> / 2 = sum_n (-1)^n v[2n] v[2n + 1] = (|z+|^2 - |z-|^2) / 2 is
  exactly +1/2 on the + chain and -1/2 on the - chain.  Both couplings,
  a + a^dag and sigma_z, are odd under the parity, so no retained coherence
  of the partial-secular solve joins two parities.
- At epsilon != 0 the band is solved with linalg.lowest_band_eigensystem
  (LAPACK's banded solver), whose bisection path costs O(N^3) at large
  cutoffs.  It is the only route for a biased qubit, which has no parity
  and whose levels carry no sector label.

No dense Hamiltonian is built.  The levels are exported together with the
coupling operators (resonator quadrature to the left bath, qubit flux to
the right bath) as a JunctionModel.

The Fock check asks whether CONVERGENCE_EXTRA more Fock states move the k
retained levels lambda_0 <= ... <= lambda_(k-1) of the band H (N Fock
states, order 2N) by more than tol = CONVERGENCE_TOL * omega_r.  Only Fock
level N - 1 couples to level N, by g sqrt(N) sigma_z, so the padded
eigenvectors X = [V; 0] leave the residual H_big X - X Lambda of norm at
most rho = g sqrt(N) |V[-2:]|_F in the larger band H_big.  By Kahan's
inclusion theorem (Parlett, The Symmetric Eigenvalue Problem, Thm 11.5.1)
k eigenvalues of H_big then lie within rho of lambda_0 .. lambda_(k-1).
They are its k lowest, and the drift is at most rho <= tol / 2, if H_big
has at most k eigenvalues at or below y = lambda_(k-1) + tol.  By
Sylvester's law of inertia that number is a Sturm count on any
tridiagonal form of H_big, O(N): LAPACK's bisection (dstebz, RANGE = 'V'
from below every Gershgorin disc to y, with an infinite tolerance, so
that nothing is refined) on the parity chains at epsilon = 0, else on the
tridiagonal form that dsbevx (JOBZ = 'N') makes of the band without
forming its reduction matrix.  Roundoff can miscount only an eigenvalue
within about 1e-16 |H_big| of y, above the k within rho of the retained
levels, so it cannot change which are the lowest.  Where rho exceeds
tol / 2 (the other half absorbs roundoff), the count exceeds k (as where
lambda_(k-1) is degenerate with lambda_k) or LAPACK reports a failure, a
second solve of the larger band for its lowest pairs runs on the same
route as the first and the drift is measured, so a config is accepted or
rejected as by the two solves.  The count, the second solve it spares and
the build, in ms (keep 5, Delta = 0.9, g = 0.2; min of timeit, one CPU):

    epsilon   N      count       second solve   build
    0         40     0.02-0.03   0.15-0.23      0.18-0.29
    0         100    0.03        0.36-0.42      0.38-0.56
    0         400    0.06-0.07   1.3            1.4-1.7
    0.3       40     0.05-0.08   0.41-0.49      0.46-0.62
    0.3       100    0.21-0.31   1.6-1.7        1.7-2.2
    0.3       400    2.9-3.1     62-65          56-67

The rotating wave approximation, second-order Van Vleck perturbation theory
and the generalized RWA provide closed-form spectra used for cross-checks
and for interpreting the conductance features.  Each is a ground level and
a ladder of doublets, built by one helper (`_doublets`) from the scheme's
doublet centres, detunings and couplings.  The tests check them against
the numeric levels, and the Van Vleck levels against the RWA's as g -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ValidationError, lowest_band_eigensystem, lowest_tridiagonal_eigensystem
from .model import JunctionModel

__all__ = ["RabiParams", "ApproxSpectrum", "build_rabi_junction", "rwa_spectrum",
           "vvpt_spectrum", "grwa_spectrum", "kondo_temperature",
           "generalized_laguerre"]

CONVERGENCE_TOL = 1e-10
CONVERGENCE_EXTRA = 10


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
    only at small coupling; sorted() returns them ascending.  q_elements
    holds the coupling matrix elements out of the ground state where the
    scheme provides them.
    """

    method: str
    levels: np.ndarray
    u_minus: np.ndarray
    u_plus: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    q_elements: dict[str, float] = field(default_factory=dict)

    def sorted(self) -> np.ndarray:
        return np.sort(self.levels)

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


def _parity_chains(band: np.ndarray):
    """The two parity chains of the zero-bias Rabi band `band` as one
    tridiagonal matrix, (diagonal, off-diagonal, (-1)^n): |n, +-> has
    omega_r n -+ (Delta/2)(-1)^n on the diagonal and g sqrt(n) to |n - 1, +->;
    the + chain comes first, and nothing couples the two."""
    n_fock = band.shape[1] // 2
    sign = np.where(np.arange(n_fock) % 2, -1.0, 1.0)
    flip = band[1, 1::2] * sign                 # -(Delta/2)(-1)^n
    diag = np.concatenate([band[2, ::2] + flip, band[2, ::2] - flip])
    off = np.zeros(2 * n_fock - 1)
    off[:n_fock - 1] = off[n_fock:] = band[0, 2::2]
    return diag, off, sign


def _lowest_levels(p: RabiParams, band: np.ndarray, keep: int):
    """Lowest `keep` eigenpairs of the Rabi band `band`, eigenvectors in the
    band's basis 2n + s: from the two parity chains at epsilon = 0 (see the
    module docstring), else from the band.
    """
    if p.epsilon != 0.0:
        return lowest_band_eigensystem(band, keep)
    diag, off, sign = _parity_chains(band)
    lam, z = lowest_tridiagonal_eigensystem(diag, off, keep)
    n_fock = len(sign)
    z_plus, z_minus = z[:n_fock], z[n_fock:]
    v = np.empty((2 * n_fock, keep))
    v[0::2] = z_plus + z_minus
    v[1::2] = sign[:, None] * (z_plus - z_minus)
    v *= math.sqrt(0.5)
    return lam, v


def _levels_at_or_below(p: RabiParams, band: np.ndarray, y: float) -> float:
    """The number of eigenvalues of the Rabi band `band` at or below y, by a
    Sturm count (see the module docstring); inf where LAPACK reports a
    failure.  `band` is left as it was."""
    from scipy.linalg.lapack import dsbevx, dstebz

    # below every Gershgorin disc by at least the largest diagonal entry
    # (LAPACK raises it to its own bound); an infinite tolerance stops the
    # bisection before it refines anything
    low = -2.0 * float(np.abs(band).max(axis=1).sum())
    if p.epsilon != 0.0:
        *_, count, _, info = dsbevx(band, low, y, 1, 1, compute_v=0, range=1,
                                    abstol=math.inf, overwrite_ab=0)
    else:
        diag, off, _ = _parity_chains(band)
        count, *_, info = dstebz(diag, off, 1, low, y, 1, 1, math.inf, "B")
    return math.inf if info else count


def _fock_drift_bound(p: RabiParams, band: np.ndarray, lam: np.ndarray,
                      v: np.ndarray) -> float:
    """rho = g sqrt(N) |V[-2:]|_F, a bound on how far the retained levels
    `lam` (eigenvectors `v`, N = fock_cutoff) move with CONVERGENCE_EXTRA more
    Fock states, where the larger band `band` has no more than len(lam)
    eigenvalues at or below lam[-1] + CONVERGENCE_TOL * omega_r; else inf
    (see the module docstring)."""
    if _levels_at_or_below(p, band, lam[-1] + CONVERGENCE_TOL * p.omega_r) > len(lam):
        return math.inf
    tail = v[-2:]
    return p.g * math.sqrt(p.fock_cutoff * np.vdot(tail, tail))


def build_rabi_junction(params: RabiParams) -> JunctionModel:
    """Solve the Rabi Hamiltonian for its lowest levels and retain them.

    The left bath couples to the resonator quadrature a + a^dag, the right
    bath to the qubit sigma_z (localized flux basis).  Both solves, the
    retained one and the Fock check's, go through `_lowest_levels`: at
    epsilon = 0 the two parity chains as one tridiagonal matrix, mapped
    back to the basis 2n + s (see the module docstring), else the band.
    Raises if increasing the Fock cutoff by CONVERGENCE_EXTRA = 10 moves the
    retained eigenvalues by more than CONVERGENCE_TOL * omega_r = 1e-10
    omega_r.  Where `_fock_drift_bound` bounds that drift by half the
    tolerance, from the retained eigenpairs and one eigenvalue count of the
    larger band, no second solve runs; elsewhere (as where the last retained
    level is degenerate with the next) the larger band is solved for its
    lowest pairs and the drift measured (see the module docstring).
    At epsilon = 0 each level is labelled with its parity, +1 or -1, the
    sign of sum_n (-1)^n v[2n] v[2n + 1] (`JunctionModel.sector`); a biased
    model carries no labels.
    """
    keep, n_fock = params.retained_levels, params.fock_cutoff
    # the band of the smaller cutoff is the leading part of the larger one
    band = _rabi_band(params, n_fock + CONVERGENCE_EXTRA)
    lam, v = _lowest_levels(params, band[:, :2 * n_fock], keep)
    tol = CONVERGENCE_TOL * params.omega_r
    if _fock_drift_bound(params, band, lam, v) > 0.5 * tol:
        lam_chk, _ = _lowest_levels(params, band, keep)
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
    sector = None
    if params.epsilon == 0.0:
        # <v|Pi|v> / 2, exactly +-1/2: each eigenvector lies in one chain
        sign = np.where(np.arange(n_fock) % 2, -1.0, 1.0)
        sector = np.sign(sign @ (v[0::2] * v[1::2])).astype(int)
    return JunctionModel(omega=lam, q_ops={"L": q_left, "R": q_right}, sector=sector)


def kondo_temperature(model: JunctionModel) -> float:
    """Temperature scale set by the lowest excitation gap, T_K = omega_10."""
    if model.omega.ndim != 1:
        raise ValidationError("kondo_temperature takes one model, not a model stack")
    if model.dim < 2:
        raise ValidationError("need at least two levels")
    return float(model.omega[1] - model.omega[0])


# ---------------------------------------------------------------------------
# rotating-wave approximation
# ---------------------------------------------------------------------------

def _doublets(ground: float, base: np.ndarray, delta_n, off: np.ndarray):
    """(levels, u_minus, u_plus, v_minus, v_plus) of a doublet scheme, over arrays.

    Doublet n mixes two bare states at detuning delta_n and coupling off
    (entries n - 1); its levels, after `ground`, are base -+ root / 2 with
    root = sqrt(delta_n^2 + off^2), and the weights of its lower (upper)
    state are (delta_n -+ root, -off) normalized, or (1, 0) where that vector
    vanishes (a decoupled doublet).
    """
    root = np.sqrt(delta_n**2 + off**2)
    levels = np.empty(2 * len(root) + 1)
    levels[0] = ground
    levels[1::2] = base - 0.5 * root
    levels[2::2] = base + 0.5 * root
    weights = []
    for num in (delta_n - root, delta_n + root):
        den = np.sqrt(num**2 + off**2)
        pure = den < 1e-300
        den = np.where(pure, 1.0, den)
        weights += [np.where(pure, 1.0, num / den), np.where(pure, 0.0, -off / den)]
    um, vm, up, vp = weights
    return levels, um, up, vm, vp


def rwa_spectrum(params: RabiParams, n_max: int = 5) -> ApproxSpectrum:
    """Jaynes-Cummings spectrum and ground-doublet coupling elements."""
    p = params
    wq = p.omega_q
    gx = p.g * p.delta / wq if wq > 0 else 0.0
    ns = np.arange(1, n_max + 1, dtype=float)
    levels, um, up, vm, vp = _doublets(-0.5 * wq, (ns - 0.5) * p.omega_r,
                                       wq - p.omega_r, 2.0 * np.sqrt(ns) * gx)
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
    shift = -gz**2 / p.omega_r - gx**2 / wbar
    levels, um, up, vm, vp = _doublets(
        -0.5 * (wq + 2.0 * gx**2 / wbar) - gz**2 / p.omega_r,
        -0.5 * wq_n + 0.5 * delta_n + ns * p.omega_r + shift,
        delta_n, 2.0 * np.sqrt(ns) * gx)

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
    levels, um, up, vm, vp = _doublets(
        -0.5 * wq_n[0] - p.g**2 / p.omega_r,
        -0.5 * wq_n[1:] + 0.5 * delta_n + ns * p.omega_r - p.g**2 / p.omega_r,
        delta_n, off)
    q = {"L01": float(4.0 * p.g / p.omega_r * um[0] * c_minus[0] * c_plus[0]
                      + vm[0] * (c_minus[0] * c_minus[1] + c_plus[0] * c_plus[1])),
         "R01": float(-2.0 * um[0] * c_minus[0] * c_plus[0])}
    return ApproxSpectrum(method="GRWA", levels=levels, u_minus=um, u_plus=up,
                          v_minus=vm, v_plus=vp, q_elements=q)
