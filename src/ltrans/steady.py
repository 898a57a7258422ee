"""Steady-state solvers: full secular, partial secular, and the analytic
three-level coherence cross-check.

The partial-secular solver keeps the coherences of quasi-degenerate level
pairs coupled to the populations and solves the resulting real linear system
with a trace constraint replacing one redundant population row.  It reads
only the kernel block of the retained pairs (`kernel.block(pairs)`), never
the kernel over all N^2 pairs; the system, its solution and its residual
are assembled with index arrays over that block.  `partial_secular_response`
solves the same system again for the linear response of the steady state to
a kernel perturbation.

Both solvers take rates or kernels with a leading axis of slices (the
temperatures, or the models of a model stack, see `ltrans.redfield`) and
solve every slice in one stacked call: one batched factorization, with the
rate-graph connectivity, condition number, residual, trace, Hermiticity and
positivity checked per slice.  The partial solver's slices must share one
retained-pair set; its model may be a stack with one model per slice,
whose Bohr frequencies then enter per slice.  Either solver raises if any
slice fails, and otherwise returns one `SteadyState` that holds the
(n_slices, N, N) stack of density matrices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import ValidationError, NumericError
from .model import JunctionModel
from .redfield import KernelBlock, RateMatrix, all_pairs

__all__ = ["SteadyState", "FrequencyClusters", "cluster_bohr_frequencies",
           "retained_pair_array", "full_secular_steady", "partial_secular_steady",
           "partial_secular_response",
           "three_level_coherence_analytic"]

log = logging.getLogger(__name__)

TRACE_TOL = 1e-12
POSITIVITY_WARN = -1e-8
CONDITION_WARN = 1e12
DEFAULT_CLUSTER_FACTOR = 10.0


def _first(values, bad):
    """The first entry of `values` where `bad` holds (both scalar or 1-d)."""
    return np.atleast_1d(values)[np.atleast_1d(bad)][0]


@dataclass(frozen=True)
class SteadyState:
    """Stationary reduced density matrix with bookkeeping of kept coherences.

    rho is (N, N), or (n_T, N, N) over a temperature axis whose rows share
    the retained pairs.
    """

    rho: np.ndarray
    retained_pairs: tuple[tuple[int, int], ...]
    solver_tag: str

    @property
    def populations(self) -> np.ndarray:
        return np.diagonal(self.rho, axis1=-2, axis2=-1).real

    def check(self) -> None:
        tr = self.rho.trace(axis1=-2, axis2=-1)
        bad = abs(tr - 1.0) > TRACE_TOL
        if bad.any():
            raise NumericError(f"steady state trace deviates: {_first(tr, bad)}")
        herm = np.abs(self.rho - self.rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        bad = herm > TRACE_TOL
        if bad.any():
            raise NumericError(f"steady state not Hermitian: {_first(herm, bad):.3e}")
        pmin = np.atleast_1d(self.populations.min(axis=-1))
        for p in pmin[pmin < POSITIVITY_WARN]:
            log.warning("steady-state population below zero: %.3e "
                        "(weak-coupling theory is leaving its validity range)", p)


@dataclass(frozen=True)
class FrequencyClusters:
    """Partition of index pairs into retained (quasi-degenerate) and dropped.

    The solver's pair layout (`pairs`) and the sorted retained pairs are
    built on first use and kept, so that every solve on one clustering
    shares them.
    """

    retained: frozenset[tuple[int, int]]
    threshold: float

    @cached_property
    def pairs(self) -> np.ndarray:
        """`retained_pair_array` over as many levels as there are retained
        diagonal pairs (`cluster_bohr_frequencies` retains every level's);
        read-only."""
        pairs = retained_pair_array(sum(n == m for n, m in self.retained), self)
        pairs.flags.writeable = False
        return pairs

    @cached_property
    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        """The retained pairs in order, as `SteadyState.retained_pairs` holds them."""
        return tuple(sorted(self.retained))


def cluster_bohr_frequencies(model: JunctionModel, gamma_scale: float,
                             c: float = DEFAULT_CLUSTER_FACTOR) -> FrequencyClusters:
    """Retain the pair (n, m) iff |omega_nm| <= c * gamma_scale.

    gamma_scale should be the magnitude of the largest relevant relaxation
    rate and c >= 0; diagonal pairs are always retained and the set is
    symmetric.
    """
    if not gamma_scale > 0:
        raise ValidationError("gamma_scale must be positive")
    if not c >= 0:
        raise ValidationError(f"cluster factor must be >= 0, got {c!r}")
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

def _check_connected(gamma: np.ndarray, tol) -> None:
    """Raise ValidationError unless the rate graph of every temperature is connected.

    Levels i and j are linked where |gamma[i, j]| or |gamma[j, i]| exceeds
    tol; the boolean closure of the links is squared until it spans every
    path.  The message lists the components of the first disconnected graph.
    """
    n = gamma.shape[-1]
    links = np.abs(gamma) > tol
    reach = links | np.swapaxes(links, -1, -2) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    connected = reach[..., 0, :].all(axis=-1)
    if connected.all():
        return
    reach = reach.reshape(-1, n, n)[np.flatnonzero(~connected)[0]]
    comps: list[list[int]] = []
    for i in range(n):
        if not any(i in c for c in comps):
            comps.append(np.flatnonzero(reach[i]).tolist())
    raise ValidationError(
        f"rate graph is disconnected; stationary state not unique. "
        f"Components: {comps}")


def full_secular_steady(rates: RateMatrix) -> SteadyState:
    """Stationary populations of the classical rate equation gamma @ p = 0.

    Over the temperature axis of the rates, if they have one, in one
    batched solve.
    """
    g = rates.gamma
    n = g.shape[-1]
    scale = np.maximum(np.abs(g).max(axis=(-2, -1)), 1e-300)
    _check_connected(g, 1e-14 * np.asarray(scale)[..., None, None])
    a = g.copy()
    a[..., 0, :] = 1.0     # replace the lowest-index redundant row by the trace
    # b as a stack of one-column matrices, which every numpy reads alike
    b = np.zeros(a.shape[:-1] + (1,))
    b[..., 0, 0] = 1.0
    p = np.linalg.solve(a, b)[..., 0]
    resid = np.abs((g @ p[..., None])[..., 0]).max(axis=-1)
    bad = resid > 1e-12 * scale
    if bad.any():
        raise NumericError(f"rate-equation residual too large: {_first(resid, bad):.3e}")
    rho = np.zeros(p.shape + (n,), dtype=complex)
    rho[..., np.arange(n), np.arange(n)] = p
    state = SteadyState(rho=rho, retained_pairs=tuple((i, i) for i in range(n)),
                        solver_tag="FullSecular")
    state.check()
    return state


# ---------------------------------------------------------------------------
# partial secular
# ---------------------------------------------------------------------------

def _real_system(k: np.ndarray, n: int, lamb_shift: bool, bohr=0.0) -> np.ndarray:
    """Real matrix of rho -> -i w_nm rho_nm + sum K[n,m,n',m'] rho_n'm' on retained pairs.

    k is a kernel block in the layout of `retained_pair_array`, or a stack of
    them over a temperature axis, bohr the Bohr frequency of each pair;
    unknowns and rows as in `partial_secular_steady`.
    """
    size = k.shape[-1]
    ncoh = (size - n) // 2
    coh = slice(n, n + ncoh)
    lmap = k.astype(complex)
    if not lamb_shift:
        off = np.arange(n, size)
        lmap[..., off, off] = lmap[..., off, off].real
    d = np.arange(size)
    lmap[..., d, d] -= 1j * bohr
    # rho_nm = Re + i Im and rho_mn = Re - i Im, so the columns of (n,m) and
    # (m,n) combine; the swapped rows are the conjugates of the kept ones
    cols = np.empty_like(lmap)
    cols[..., :n] = lmap[..., :n]
    cols[..., n::2] = lmap[..., coh] + lmap[..., n + ncoh:]
    cols[..., n + 1::2] = 1j * (lmap[..., coh] - lmap[..., n + ncoh:])
    a = np.empty(cols.shape)
    a[..., :n, :] = cols[..., :n, :].real
    a[..., n::2, :] = cols[..., coh, :].real
    a[..., n + 1::2, :] = cols[..., coh, :].imag
    return a


def _rho(x: np.ndarray, pairs: np.ndarray, n: int) -> np.ndarray:
    """The density matrix (or its derivative) of the real unknowns x (per leading index)."""
    rho = np.zeros(x.shape[:-1] + (n, n), dtype=complex)
    d = np.arange(n)
    rho[..., d, d] = x[..., :n]
    c = x[..., n::2] + 1j * x[..., n + 1::2]
    pn, pm = pairs[n:n + c.shape[-1], 0], pairs[n:n + c.shape[-1], 1]
    rho[..., pn, pm] = c
    rho[..., pm, pn] = np.conj(c)
    return rho


def _norm1(a: np.ndarray) -> np.ndarray:
    """The 1-norm (largest absolute column sum) of each matrix of a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _solve_retained(model: JunctionModel, k2, clusters: FrequencyClusters,
                    lamb_shift: bool):
    """`partial_secular_steady`, returning (state, pairs, x, the system matrix).

    Over the temperature axis of k2, if it has one, in one batched call.
    The pair layout is the one the clusters keep; a clustering that lacks a
    level's diagonal pair fails the kernel block's check.
    """
    n = model.dim
    if k2.dim != n:
        raise ValidationError("kernel dimension does not match the model")
    pairs = clusters.pairs
    block: KernelBlock = k2.block(pairs)
    bohr = model.bohr_matrix()[..., pairs[:, 0], pairs[:, 1]]
    a = _real_system(block.k, n, lamb_shift, bohr)
    a[..., 0, :] = 0.0
    a[..., 0, :n] = 1.0            # trace row replaces population row 0
    # one LU factorization per system: its inverse gives the state (column
    # 0, as b = e_0) and the exact 1-norm condition number
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise NumericError("partial-secular system is singular") from None
    rcond = np.atleast_1d(1.0 / (_norm1(a) * _norm1(inverse)))
    if not (rcond > 0.0).all():
        raise NumericError("partial-secular system is singular")
    for r in rcond[rcond * CONDITION_WARN < 1.0]:
        log.warning("partial-secular system badly conditioned: "
                    "1-norm condition estimate %.3e", 1.0 / r)
    x = inverse[..., :, 0]

    state = SteadyState(rho=_rho(x, pairs, n), solver_tag="PartialSecular",
                        retained_pairs=clusters.sorted_pairs)
    state.check()

    # residual of the retained-block equations (excluding the replaced row)
    resid = np.abs((a[..., 1:, :] @ x[..., None])[..., 0]).max(axis=-1, initial=0.0)
    bad = resid > 1e-10 * np.maximum(block.norm_max(), 1e-300)
    if bad.any():
        raise NumericError(f"partial-secular residual {_first(resid, bad):.3e} "
                           "exceeds tolerance")
    return state, pairs, x, a


def partial_secular_steady(model: JunctionModel, k2, clusters: FrequencyClusters,
                           lamb_shift: bool = True) -> SteadyState:
    """Solve 0 = -i w_nm rho_nm + sum K[n,m,n',m'] rho_n'm' on retained pairs.

    k2 is any kernel with a `block(pairs)` method (a `BosonKernel`, or a
    `KernelBlock` holding exactly the retained pairs); only the retained
    block is read.  Unknowns are the populations and Re/Im of each
    retained coherence n < m; the population equation of the lowest state is
    replaced by the trace constraint.  With lamb_shift=False the imaginary
    (level-shift) part of the diagonal coherence couplings K[n,m,n,m] is
    discarded.
    """
    return _solve_retained(model, k2, clusters, lamb_shift)[0]


def partial_secular_response(model: JunctionModel, k2, dk2, clusters: FrequencyClusters,
                             lamb_shift: bool = True) -> tuple[SteadyState, np.ndarray]:
    """Steady state rho0 of the partial-secular map L and its response to L + dL.

    dL is the kernel dk2 on the same retained pairs (`dk2.block(pairs)`).
    Returns (state, drho) with L drho = -dL rho0 and Tr drho = 0, solved by
    an LU factorization of the steady-state system (a product with its
    inverse would lose up to ten times more digits on ill-conditioned
    systems).  Over the temperature axis of k2 and dk2, if they have one;
    dk2's axis may cover only the leading temperatures of k2's, and drho
    is then solved for those alone (the state for every one).
    """
    state, pairs, x, a = _solve_retained(model, k2, clusters, lamb_shift)
    n = model.dim
    dk = dk2.block(pairs).k
    if dk.ndim == 3:
        x, a = x[:len(dk)], a[:len(dk)]
    rhs = -(_real_system(dk, n, lamb_shift) @ x[..., None])
    rhs[..., 0, :] = 0.0           # the trace stays 1
    return state, _rho(np.linalg.solve(a, rhs)[..., 0], pairs, n)


# ---------------------------------------------------------------------------
# analytic three-level coherence (states 0, 1, 2 with 1, 2 quasi-degenerate)
# ---------------------------------------------------------------------------

def three_level_coherence_analytic(k2, omega_12: float) -> tuple[complex, np.ndarray]:
    """Closed-form steady state of the three-level partial-secular equations.

    Returns (rho_12, populations).  Requires the kernel of a three-level
    model whose states 1 and 2 are quasi-degenerate; the retained coherence
    is rho_12 only.  k2 is a `BosonKernel` or a `KernelBlock` over
    `all_pairs(3)`; the full kernel `k2.block(all_pairs(3))` is read.
    """
    if k2.dim != 3:
        raise ValidationError("three-level solver needs a 3x3 model kernel")
    k = k2.block(all_pairs(3)).k.reshape(3, 3, 3, 3)
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
