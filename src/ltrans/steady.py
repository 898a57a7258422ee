"""Steady-state solvers: full secular, partial secular, and the analytic
three-level coherence cross-check.

The partial-secular solver keeps the coherences of quasi-degenerate level
pairs coupled to the populations and solves the resulting real linear system
with a trace constraint replacing one redundant population row.  It reads
only the kernel block of the retained pairs (`kernel.block(pairs)`), so a
lazily evaluated kernel never builds its full N^4 tensor here; the system,
its solution and its residual are assembled with index arrays over that
block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError, NumericError
from .model import JunctionModel
from .redfield import KernelBlock, RateMatrix, RedfieldTensor

__all__ = ["SteadyState", "FrequencyClusters", "cluster_bohr_frequencies",
           "retained_pair_array", "full_secular_steady", "partial_secular_steady",
           "three_level_coherence_analytic", "propagate_rate_equation"]

log = logging.getLogger(__name__)

TRACE_TOL = 1e-12
POSITIVITY_WARN = -1e-8
CONDITION_WARN = 1e12
DEFAULT_CLUSTER_FACTOR = 10.0


@dataclass(frozen=True)
class SteadyState:
    """Stationary reduced density matrix with bookkeeping of kept coherences."""

    rho: np.ndarray
    retained_pairs: tuple[tuple[int, int], ...]
    solver_tag: str

    @property
    def populations(self) -> np.ndarray:
        return np.diag(self.rho).real

    def check(self) -> None:
        tr = np.trace(self.rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise NumericError(f"steady state trace deviates: {tr}")
        herm = np.max(np.abs(self.rho - self.rho.conj().T))
        if herm > TRACE_TOL:
            raise NumericError(f"steady state not Hermitian: {herm:.3e}")
        pmin = float(np.min(self.populations))
        if pmin < POSITIVITY_WARN:
            log.warning("steady-state population below zero: %.3e "
                        "(weak-coupling theory is leaving its validity range)", pmin)


@dataclass(frozen=True)
class FrequencyClusters:
    """Partition of index pairs into retained (quasi-degenerate) and dropped."""

    retained: frozenset[tuple[int, int]]
    threshold: float

    def is_retained(self, n: int, m: int) -> bool:
        return (n, m) in self.retained


def cluster_bohr_frequencies(model: JunctionModel, gamma_scale: float,
                             c: float = DEFAULT_CLUSTER_FACTOR) -> FrequencyClusters:
    """Retain the pair (n, m) iff |omega_nm| <= c * gamma_scale.

    gamma_scale should be the magnitude of the largest relevant relaxation
    rate; diagonal pairs are always retained and the set is symmetric.
    """
    if not gamma_scale > 0:
        raise ValidationError("gamma_scale must be positive")
    thresh = c * gamma_scale
    # |omega_nm| = |omega_mn| exactly, so the mask is symmetric
    keep = np.abs(model.bohr_matrix()) <= thresh
    np.fill_diagonal(keep, True)
    retained = frozenset(zip(*(idx.tolist() for idx in np.nonzero(keep))))
    return FrequencyClusters(retained=retained, threshold=thresh)


def retained_pair_array(dim: int, clusters: FrequencyClusters) -> np.ndarray:
    """The solver's pair layout as a (N + 2C, 2) array.

    Every diagonal pair (n, n) in order, then the C retained coherences
    (n, m), n < m, sorted, then the same coherences swapped to (m, n).  The
    retained set must be closed under (n, m) -> (m, n).
    """
    if {(m, n) for (n, m) in clusters.retained} != clusters.retained:
        raise ValidationError("retained pairs are not closed under (n, m) -> (m, n)")
    cohs = sorted((n, m) for (n, m) in clusters.retained if n < m)
    cohs = np.array(cohs, dtype=int).reshape(-1, 2)
    diag = np.repeat(np.arange(dim), 2).reshape(dim, 2)
    return np.concatenate([diag, cohs, cohs[:, ::-1]])


# ---------------------------------------------------------------------------
# full secular
# ---------------------------------------------------------------------------

def _connected_components(gamma: np.ndarray, tol: float) -> list[list[int]]:
    n = gamma.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(n):
            if i != j and (abs(gamma[i, j]) > tol or abs(gamma[j, i]) > tol):
                parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())


def full_secular_steady(rates: RateMatrix) -> SteadyState:
    """Stationary populations of the classical rate equation gamma @ p = 0."""
    g = rates.gamma
    n = g.shape[0]
    scale = max(np.max(np.abs(g)), 1e-300)
    comps = _connected_components(g, 1e-14 * scale)
    if len(comps) > 1:
        raise ValidationError(
            f"rate graph is disconnected; stationary state not unique. "
            f"Components: {comps}")
    a = g.copy()
    a[0, :] = 1.0          # replace the lowest-index redundant row by the trace
    b = np.zeros(n)
    b[0] = 1.0
    p = np.linalg.solve(a, b)
    resid = float(np.max(np.abs(g @ p)))
    if resid > 1e-12 * scale:
        raise NumericError(f"rate-equation residual too large: {resid:.3e}")
    state = SteadyState(rho=np.diag(p.astype(complex)),
                        retained_pairs=tuple((i, i) for i in range(n)),
                        solver_tag="FullSecular")
    state.check()
    return state


def propagate_rate_equation(rates: RateMatrix, p0: np.ndarray, t: float,
                            steps: int = 200000) -> np.ndarray:
    """Explicit RK4 integration of dp/dt = gamma @ p; test oracle only."""
    g = rates.gamma
    p = np.asarray(p0, dtype=float).copy()
    h = t / steps
    for _ in range(steps):
        k1 = g @ p
        k2 = g @ (p + 0.5 * h * k1)
        k3 = g @ (p + 0.5 * h * k2)
        k4 = g @ (p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


# ---------------------------------------------------------------------------
# partial secular
# ---------------------------------------------------------------------------

def partial_secular_steady(model: JunctionModel, k2, clusters: FrequencyClusters,
                           lamb_shift: bool = True) -> SteadyState:
    """Solve 0 = -i w_nm rho_nm + sum K[n,m,n',m'] rho_n'm' on retained pairs.

    k2 is any kernel with a `block(pairs)` method (`BosonKernel`,
    `RedfieldTensor` or a `KernelBlock` holding the retained pairs); only the
    retained block is read.  Unknowns are the populations and Re/Im of each
    retained coherence n < m; the population equation of the lowest state is
    replaced by the trace constraint.  With lamb_shift=False the imaginary
    (level-shift) part of the diagonal coherence couplings K[n,m,n,m] is
    discarded.
    """
    n = model.dim
    if k2.dim != n:
        raise ValidationError("kernel dimension does not match the model")
    pairs = retained_pair_array(n, clusters)
    block: KernelBlock = k2.block(pairs)
    ncoh = (len(pairs) - n) // 2
    coh = slice(n, n + ncoh)

    # complex map L(rho) on the retained pairs: -i w_nm delta + K
    lmap = block.k.copy()
    if not lamb_shift:
        off = np.arange(n, len(pairs))
        lmap[off, off] = lmap[off, off].real
    scale = max(np.max(np.abs(lmap)), 1e-300)
    bohr = model.bohr_matrix()
    lmap[np.diag_indices_from(lmap)] -= 1j * bohr[pairs[:, 0], pairs[:, 1]]

    # real unknowns x = (p_0..p_{N-1}, Re c_1, Im c_1, ...): rho_nm = Re + i Im
    # and rho_mn = Re - i Im, so the columns of (n,m) and (m,n) combine
    cols = np.empty_like(lmap)
    cols[:, :n] = lmap[:, :n]
    cols[:, n::2] = lmap[:, coh] + lmap[:, n + ncoh:]
    cols[:, n + 1::2] = 1j * (lmap[:, coh] - lmap[:, n + ncoh:])
    # rows: populations are real; each coherence n < m gives Re and Im rows
    # (the swapped rows are their complex conjugates)
    a = np.empty(cols.shape)
    a[:n] = cols[:n].real
    a[n::2] = cols[coh].real
    a[n + 1::2] = cols[coh].imag
    b = np.zeros(len(pairs))
    a[0, :] = 0.0
    a[0, :n] = 1.0                 # trace row replaces population row 0
    b[0] = 1.0

    cond = np.linalg.cond(a)
    if cond > CONDITION_WARN:
        log.warning("partial-secular system badly conditioned: cond = %.3e", cond)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"partial-secular system is singular: {exc}") from exc

    rho = np.zeros((n, n), dtype=complex)
    rho[np.diag_indices(n)] = x[:n]
    c = x[n::2] + 1j * x[n + 1::2]
    pn, pm = pairs[coh, 0], pairs[coh, 1]
    rho[pn, pm] = c
    rho[pm, pn] = np.conj(c)

    retained = tuple(sorted(clusters.retained))
    state = SteadyState(rho=rho, retained_pairs=retained, solver_tag="PartialSecular")
    state.check()

    # residual of the retained-block equations (excluding the replaced row)
    resid = np.abs(lmap[1:n + ncoh] @ rho[pairs[:, 0], pairs[:, 1]])
    resid = float(np.max(resid, initial=0.0))
    if resid > 1e-10 * scale:
        raise NumericError(f"partial-secular residual {resid:.3e} exceeds tolerance")
    return state


# ---------------------------------------------------------------------------
# analytic three-level coherence (states 0, 1, 2 with 1, 2 quasi-degenerate)
# ---------------------------------------------------------------------------

def three_level_coherence_analytic(k2: RedfieldTensor,
                                   omega_12: float) -> tuple[complex, np.ndarray]:
    """Closed-form steady state of the three-level partial-secular equations.

    Returns (rho_12, populations).  Requires the kernel of a three-level
    model whose states 1 and 2 are quasi-degenerate; the retained coherence
    is rho_12 only.
    """
    if k2.dim != 3:
        raise ValidationError("three-level solver needs a 3x3 model kernel")
    k = k2.k
    om_p = omega_12 - k[1, 2, 1, 2].imag + k[1, 2, 2, 1].imag
    om_m = omega_12 - k[1, 2, 1, 2].imag - k[1, 2, 2, 1].imag
    big_p = k[1, 2, 1, 2].real + k[1, 2, 2, 1].real
    big_m = k[1, 2, 1, 2].real - k[1, 2, 2, 1].real

    den = om_p * om_m + big_p * big_m
    if abs(den) < 1e-300:
        raise NumericError("coherence denominator vanished (exact degeneracy)")

    a = np.zeros(3)
    b = np.zeros(3)
    for i in range(3):
        kp = k[1, 2, i, i].real
        kpp = k[1, 2, i, i].imag
        b[i] = (om_m * kp + big_p * kpp) / den
        a[i] = (kpp - big_m * b[i]) / om_m

    gamma = np.zeros((3, 3))
    for nn in (1, 2):
        for i in range(3):
            gamma[nn, i] = (k[nn, nn, i, i].real
                            + 2.0 * (k[nn, nn, 1, 2].real * a[i]
                                     + k[nn, nn, 1, 2].imag * b[i]))

    # 0 = G_n0 + (G_n1 - G_n0) rho11 + (G_n2 - G_n0) rho22,  n = 1, 2
    m = np.array([[gamma[1, 1] - gamma[1, 0], gamma[1, 2] - gamma[1, 0]],
                  [gamma[2, 1] - gamma[2, 0], gamma[2, 2] - gamma[2, 0]]])
    rhs = -np.array([gamma[1, 0], gamma[2, 0]])
    rho11, rho22 = np.linalg.solve(m, rhs)
    pops = np.array([1.0 - rho11 - rho22, rho11, rho22])

    rho12_re = float(a @ pops)
    rho12_im = -float(b @ pops)
    return complex(rho12_re, rho12_im), pops
