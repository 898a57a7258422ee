"""Steady-state solvers, full and partial secular, and the rule of which
coherences the partial-secular solve retains.

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

The retained pairs are those of `retained_pair_mask`: the diagonal, and
each pair whose Bohr frequency is at most c times the largest population
rate (`check_cluster_scale` rejects a scale that defines no threshold).
Both `cluster_bohr_frequencies` (one model, one scale) and the grouping of
a stacked sweep (`ltrans.currents`, one scale per slice) apply this one
rule and make the mask one `ltrans.redfield.PairLayout`
(`PairLayout.retained`), which every block, check and solve on the set
reads.  Where the model labels its levels with symmetry sectors
(`JunctionModel.sector`), no retained pair joins two sectors: such a
coherence is zero in the steady state and in its response, so the
clustering does not carry it as an unknown.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError, NumericError
from .model import JunctionModel
from .redfield import KernelBlock, PairLayout, RateMatrix

__all__ = ["SteadyState", "check_cluster_scale", "retained_pair_mask",
           "cluster_bohr_frequencies", "full_secular_steady", "partial_secular_steady",
           "partial_secular_response"]

log = logging.getLogger(__name__)

TRACE_TOL = 1e-12
POSITIVITY_WARN = -1e-8
CONDITION_WARN = 1e12          # bounds `_scaled_condition`
DEFAULT_CLUSTER_FACTOR = 10.0


def _first(values, bad):
    """The first entry of `values` where `bad` holds (both scalar or 1-d)."""
    return np.atleast_1d(values)[np.atleast_1d(bad)][0]


@dataclass(frozen=True)
class SteadyState:
    """Stationary reduced density matrix with bookkeeping of kept coherences.

    rho is (N, N), or (n, N, N) over a slice axis (temperatures, models or
    both, as `ltrans.currents.kappa2_sweep` stacks them) whose slices share
    the retained pairs.
    """

    rho: np.ndarray
    retained_pairs: tuple[tuple[int, int], ...]

    @property
    def populations(self) -> np.ndarray:
        return self.rho.diagonal(axis1=-2, axis2=-1).real

    def check(self) -> None:
        """Raise unless trace and Hermiticity hold (one pass); warn of negative populations."""
        tr = self.rho.trace(axis1=-2, axis2=-1)
        dev = abs(tr - 1.0)
        herm = np.abs(self.rho - self.rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        if (np.maximum(dev, herm) > TRACE_TOL).any():
            if (dev > TRACE_TOL).any():
                raise NumericError(f"steady state trace deviates: {_first(tr, dev > TRACE_TOL)}")
            bad = herm > TRACE_TOL
            raise NumericError(f"steady state not Hermitian: {_first(herm, bad):.3e}")
        pmin = self.populations.min(axis=-1).reshape(-1)
        for p in pmin[pmin < POSITIVITY_WARN]:
            log.warning("steady-state population below zero: %.3e "
                        "(weak-coupling theory is leaving its validity range)", p)


def check_cluster_scale(gamma_scale: float, c: float) -> None:
    """Raise ValidationError unless the clustering threshold c * gamma_scale
    is defined: gamma_scale a positive rate scale and c >= 0."""
    if gamma_scale <= 0:
        raise ValidationError("all population rates vanish; no steady state")
    if not gamma_scale > 0:
        raise ValidationError("gamma_scale must be positive")
    if not c >= 0:
        raise ValidationError(f"cluster factor must be >= 0, got {c!r}")


def retained_pair_mask(model: JunctionModel, threshold) -> np.ndarray:
    """keep[..., n, m]: whether the pair (n, m) is retained at `threshold`.

    A pair is retained iff |omega_nm| <= threshold and, where the model
    labels its levels (`JunctionModel.sector`), n and m share a sector;
    diagonal pairs are always retained.  A model stack takes an array of
    thresholds, one per model.  |omega_nm| = |omega_mn| exactly, so the mask
    is symmetric; no |omega_nm| is <= a NaN threshold (0 * inf), which keeps
    the diagonal alone.
    """
    keep = np.abs(model.bohr_matrix()) <= np.asarray(threshold)[..., None, None]
    if model.sector is not None:
        keep &= model.sector[..., :, None] == model.sector[..., None, :]
    d = np.arange(model.dim)
    keep[..., d, d] = True
    return keep


def cluster_bohr_frequencies(model: JunctionModel, gamma_scale: float,
                             c: float = DEFAULT_CLUSTER_FACTOR) -> PairLayout:
    """The layout of the pairs `retained_pair_mask` keeps at the threshold
    c * gamma_scale (`PairLayout.retained`).

    gamma_scale should be the magnitude of the largest relevant relaxation
    rate and c >= 0 (`check_cluster_scale`).
    """
    check_cluster_scale(gamma_scale, c)
    return PairLayout.retained(retained_pair_mask(model, c * gamma_scale))


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
    try:
        p = np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError:        # connected, yet two absorbing levels
        raise NumericError("rate equation is singular; stationary state not unique") from None
    resid = np.abs((g @ p[..., None])[..., 0]).max(axis=-1)
    bad = resid > 1e-12 * scale
    if bad.any():
        raise NumericError(f"rate-equation residual too large: {_first(resid, bad):.3e}")
    rho = np.zeros(p.shape + (n,), dtype=complex)
    rho[..., np.arange(n), np.arange(n)] = p
    state = SteadyState(rho=rho, retained_pairs=tuple((i, i) for i in range(n)))
    state.check()
    return state


# ---------------------------------------------------------------------------
# partial secular
# ---------------------------------------------------------------------------

def _real_system(k: np.ndarray, layout: PairLayout, lamb_shift: bool,
                 bohr=0.0) -> np.ndarray:
    """Real matrix of rho -> -i w_nm rho_nm + sum K[n,m,n',m'] rho_n'm' on retained pairs.

    k is a kernel block over the pairs of `layout` (a `PairLayout.retained`
    layout), or a stack of them over a temperature axis,
    bohr the Bohr frequency of each pair; unknowns and rows as in
    `partial_secular_steady`.
    """
    n, size = layout.dim, len(layout.pairs)
    ncoh = (size - n) // 2
    coh = slice(n, n + ncoh)
    lmap = k.astype(complex)
    diagonal = lmap.reshape(lmap.shape[:-2] + (size * size,))[..., ::size + 1]    # a view
    if not lamb_shift:
        diagonal[..., n:] = diagonal[..., n:].real
    diagonal -= 1j * bohr
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


def _rho(x: np.ndarray, layout: PairLayout) -> np.ndarray:
    """The density matrix (or its derivative) of the real unknowns x (per
    leading index) over the pairs of `layout`."""
    n = layout.dim
    rho = np.zeros(x.shape[:-1] + (n, n), dtype=complex)
    rho.reshape(x.shape[:-1] + (n * n,))[..., ::n + 1] = x[..., :n]
    c = x[..., n::2] + 1j * x[..., n + 1::2]
    pn, pm = layout.coherences
    rho[..., pn, pm] = c
    rho[..., pm, pn] = np.conj(c)
    return rho


def _scaled_condition(a: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """The 1-norm condition number of each partial-secular system `a` of a
    stack, its trace row (row 0) scaled to the largest |entry| s of the others.

    Unscaled, the ratio of the unit trace row to the rate scale (down to
    1e-19) would read as lost digits.  Scaling row 0 of a by s divides
    column 0 of its inverse by s, so both come from `a` and `inverse`.
    """
    abs_a, abs_inv = np.abs(a), np.abs(inverse)
    # a one-level system has no other rows, and its s leaves the product as it is
    s = abs_a[..., 1:, :].max(axis=(-2, -1), initial=1e-300)[..., None]
    abs_a[..., 0, :] *= s
    abs_inv[..., :, 0] /= s
    return abs_a.sum(axis=-2).max(axis=-1) * abs_inv.sum(axis=-2).max(axis=-1)


def _solve_retained(model: JunctionModel, k2, layout: PairLayout, lamb_shift: bool):
    """`partial_secular_steady`, returning (state, x, the system matrix).

    Over the temperature axis of k2, if it has one, in one batched call.  A
    layout that lacks a level's diagonal pair fails the kernel block's check.
    """
    n = model.dim
    if k2.dim != n:
        raise ValidationError("kernel dimension does not match the model")
    block: KernelBlock = k2.block(layout.pairs)
    bohr = model.bohr_matrix()[..., layout.pairs[:, 0], layout.pairs[:, 1]]
    a = _real_system(block.k, layout, lamb_shift, bohr)
    a[..., 0, :] = 0.0
    a[..., 0, :n] = 1.0            # trace row replaces population row 0
    # one LU factorization per system: its inverse gives the state (column
    # 0, as b = e_0) and the exact (scaled) 1-norm condition number
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise NumericError("partial-secular system is singular") from None
    rcond = np.atleast_1d(1.0 / _scaled_condition(a, inverse))
    if not (rcond > 0.0).all():
        raise NumericError("partial-secular system is singular")
    for r in rcond[rcond * CONDITION_WARN < 1.0]:
        log.warning("partial-secular system badly conditioned: "
                    "1-norm condition estimate %.3e", 1.0 / r)
    x = inverse[..., :, 0]

    state = SteadyState(rho=_rho(x, layout), retained_pairs=layout.retained_pairs)
    state.check()

    # residual of the retained-block equations (excluding the replaced row)
    resid = np.abs((a[..., 1:, :] @ x[..., None])[..., 0]).max(axis=-1, initial=0.0)
    bad = resid > 1e-10 * np.maximum(block.norm_max(), 1e-300)
    if bad.any():
        raise NumericError(f"partial-secular residual {_first(resid, bad):.3e} "
                           "exceeds tolerance")
    return state, x, a


def partial_secular_steady(model: JunctionModel, k2, clusters: PairLayout,
                           lamb_shift: bool = True) -> SteadyState:
    """Solve 0 = -i w_nm rho_nm + sum K[n,m,n',m'] rho_n'm' on retained pairs.

    clusters is the `PairLayout.retained` layout of the retained pairs
    (`cluster_bohr_frequencies`).  k2 is any kernel with a `block(pairs)`
    method (a `BosonKernel`, or a `KernelBlock` holding exactly the retained
    pairs); only the retained block is read.  Unknowns are the populations
    and Re/Im of each retained coherence n < m; the population equation of
    the lowest state is replaced by the trace constraint.  With lamb_shift=False the imaginary
    (level-shift) part of the diagonal coherence couplings K[n,m,n,m] is
    discarded.
    """
    return _solve_retained(model, k2, clusters, lamb_shift)[0]


def partial_secular_response(model: JunctionModel, k2, dk, layout: PairLayout,
                             lamb_shift: bool = True) -> tuple[SteadyState, np.ndarray]:
    """Steady state rho0 of the partial-secular map L and its response to L + dL.

    k2 has a leading axis of slices (temperatures or models).  dL is the
    (m, P, P) stack dk of kernel blocks over the pairs of `layout` for the
    leading m slices of k2.  Returns (state, drho): the state for every
    slice, and for the leading m slices drho with L drho = -dL rho0 and
    Tr drho = 0, solved by an LU factorization of the steady-state system
    (a product with its inverse would lose up to ten times more digits on
    ill-conditioned systems).
    """
    state, x, a = _solve_retained(model, k2, layout, lamb_shift)
    x, a = x[:len(dk)], a[:len(dk)]
    rhs = -(_real_system(dk, layout, lamb_shift) @ x[..., None])
    rhs[..., 0, :] = 0.0           # the trace stays 1
    return state, _rho(np.linalg.solve(a, rhs)[..., 0], layout)
