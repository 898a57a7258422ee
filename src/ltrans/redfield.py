"""Second-order kernel tensors and population rate matrices.

The kernel K[n, m, n', m'] generates the weak-coupling master equation
resolved in the junction eigenbasis; its population block K[n,n,m,m] is the
classical rate matrix.  One vectorized formula, `k2_pair_block`, evaluates
the kernel of bosonic baths between any row pairs (n, m) and column pairs
(n', m'), from the coupling matrices Q and the rate tables W of all baths
stacked.  `build_k2_boson` takes those tables from `w_matrix` (one per
model and bath) and returns a `BosonKernel`, which evaluates entries on demand: the partial-secular solver
asks for the block of its retained pairs only, and the full rank-4 tensor
(`k2_tensor_from_w`, the same formula over all N^2 pairs) is built only when
`.k` is read.  The sum-rule and Hermiticity checks run on every block that is
evaluated.  The single-level fermionic dot gets its own rate constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .baths import bose_signed, w_table
from .linalg import ValidationError
from .model import JunctionModel, Reservoir

__all__ = ["RedfieldTensor", "KernelBlock", "BosonKernel", "RateMatrix",
           "build_k2_boson", "k2_pair_block", "k2_tensor_from_w", "all_pairs",
           "w_matrix", "resolved_bohr", "gamma_rates", "build_current_kernel_2nd",
           "fermion_dot_rates", "DOT_STATES"]

SUM_RULE_RTOL = 1e-12
DEGENERACY_TOL = 1e-12


def w_matrix(model: JunctionModel, bath: Reservoir) -> np.ndarray:
    """W of `bath` over the model's Bohr matrix, as a read-only table.

    Computed once per model and bath (statistics, beta, spectral density; not
    the id), so the kernel and the heat currents of a steady state, and the
    states of a finite-difference derivative that share a bath temperature,
    share one table.  Models are built per sweep row, which bounds the memo.
    """
    key = (bath.statistics, bath.beta, bath.spectral)
    table = model.tables.get(key)
    if table is None:
        table = w_table(model.bohr_matrix(), bath)
        table.flags.writeable = False
        model.tables[key] = table
    return table


def all_pairs(dim: int) -> np.ndarray:
    """Every pair (n, m) as an (N^2, 2) array, in the row-major order of K.reshape."""
    return np.indices((dim, dim)).reshape(2, -1).T


def resolved_bohr(model: JunctionModel) -> tuple[np.ndarray, np.ndarray]:
    """Bohr-frequency matrix and the mask of its resolved entries |w_nm| > DEGENERACY_TOL.

    The diagonal and exact or numerical degeneracies are unresolved; rates
    and their temperature derivatives are defined on the resolved entries.
    """
    bohr = model.bohr_matrix()
    return bohr, np.abs(bohr) > DEGENERACY_TOL


def k2_pair_block(q: np.ndarray, w: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """Kernel entries K[(n,m), (n',m')] for row pairs `rows` and column pairs `cols`.

    q and w are the coupling matrices and rate tables W(omega_nm), stacked
    over baths with shape (B, N, N); the result, shape (len(rows),
    len(cols)), is summed over baths:

    K[n,m,n',m'] = -( delta_{m m'} sum_k Q_nk Q_kn' W_km'
                    + delta_{n n'} sum_k Q_m'k Q_km W*_kn'
                    - Q_nn' Q_m'm (W_nm' + W*_mn') )
    """
    rn, rm = rows[:, 0], rows[:, 1]
    cn, cm = cols[:, 0], cols[:, 1]
    r, c = len(rows), len(cols)
    # the two Kronecker terms: one matrix product each over (bath, k)
    left = q[:, rn, :].transpose(1, 0, 2).reshape(r, -1)             # Q_nk
    right = (q[:, :, cn] * w[:, :, cm]).transpose(2, 0, 1).reshape(c, -1)
    k = -(left @ right.T) * (rm[:, None] == cm[None, :])
    left = q[:, :, rm].transpose(2, 0, 1).reshape(r, -1)             # Q_km
    right = (q[:, cm, :] * np.conj(w[:, :, cn]).transpose(0, 2, 1)
             ).transpose(1, 0, 2).reshape(c, -1)
    k -= (left @ right.T) * (rn[:, None] == cn[None, :])
    rn, rm, cn, cm = rn[:, None], rm[:, None], cn[None, :], cm[None, :]
    k += np.sum(q[:, rn, cn] * q[:, cm, rm] * (w[:, rn, cm] + np.conj(w[:, rm, cn])),
                axis=0)
    return k


def k2_tensor_from_w(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Full rank-4 kernel tensor from Q and W: `k2_pair_block` over all N^2 pairs.

    q and w are one bath's (N, N) matrices or (B, N, N) stacks summed over
    baths.
    """
    q, w = np.asarray(q), np.asarray(w)
    if q.ndim == 2:
        q, w = q[None], w[None]
    n = q.shape[-1]
    pairs = all_pairs(n)
    return k2_pair_block(q, w, pairs, pairs).reshape(n, n, n, n)


@dataclass(frozen=True, eq=False)
class KernelBlock:
    """Kernel entries K[(n,m), (n',m')] between the pairs of a retained set.

    pairs is a (P, 2) integer array and k the (P, P) complex matrix whose
    row and column order follow it.  A set that holds every diagonal pair and
    is closed under (n, m) -> (m, n) carries the full sum rule and Hermiticity
    symmetry of the kernel, which `check` verifies.
    """

    dim: int
    pairs: np.ndarray
    k: np.ndarray

    def norm_max(self) -> float:
        return float(np.max(np.abs(self.k)))

    def sum_rule_residual(self) -> float:
        """max |sum_n K[(n,n), c]| over the columns -- probability conservation."""
        diag = self.pairs[:, 0] == self.pairs[:, 1]
        if np.count_nonzero(diag) != self.dim:
            raise ValidationError("kernel block lacks diagonal pairs; no sum rule")
        return float(np.max(np.abs(np.sum(self.k[diag], axis=0))))

    def hermiticity_residual(self) -> float:
        """max |K[(n,m),(n',m')] - conj(K[(m,n),(m',n')])| -- RDM Hermiticity."""
        n, m = self.pairs[:, 0], self.pairs[:, 1]
        position = np.full(self.dim * self.dim, -1)     # n*N + m -> row of (n, m)
        position[n * self.dim + m] = np.arange(len(self.pairs))
        swap = position[m * self.dim + n]
        if np.any(swap < 0):
            raise ValidationError("kernel block is not closed under (n, m) -> (m, n)")
        return float(np.max(np.abs(self.k - np.conj(self.k[swap][:, swap]))))

    def check(self) -> None:
        """Raise ValidationError unless the sum rule and Hermiticity hold to SUM_RULE_RTOL."""
        scale = max(self.norm_max(), 1e-300)
        if self.sum_rule_residual() > SUM_RULE_RTOL * scale:
            raise ValidationError("kernel violates the probability sum rule")
        if self.hermiticity_residual() > SUM_RULE_RTOL * scale:
            raise ValidationError("kernel violates the Hermiticity symmetry")

    def block(self, pairs: np.ndarray) -> "KernelBlock":
        """This block, which must hold exactly `pairs`, in that order."""
        if not np.array_equal(pairs, self.pairs):
            raise ValidationError("kernel block does not hold the requested pairs")
        return self


@dataclass(frozen=True)
class RedfieldTensor:
    """Rank-4 kernel K[n, m, n', m'] at vanishing Laplace variable."""

    dim: int
    k: np.ndarray

    def norm_max(self) -> float:
        return float(np.max(np.abs(self.k)))

    def sum_rule_residual(self) -> float:
        """max |sum_n K[n,n,n',m']| -- probability conservation."""
        return float(np.max(np.abs(np.einsum("nnab->ab", self.k))))

    def hermiticity_residual(self) -> float:
        """max |K[n,m,n',m'] - conj(K[m,n,m',n'])| -- RDM Hermiticity."""
        return float(np.max(np.abs(self.k - np.conj(self.k.transpose(1, 0, 3, 2)))))

    def block(self, pairs: np.ndarray) -> KernelBlock:
        """The entries between `pairs`, gathered from the tensor."""
        n, m = pairs[:, 0], pairs[:, 1]
        return KernelBlock(self.dim, pairs,
                           self.k[n[:, None], m[:, None], n[None, :], m[None, :]])


@dataclass(frozen=True, eq=False)
class BosonKernel:
    """Second-order kernel of a bosonic junction, held as the inputs of its formula.

    q and w stack the coupling matrices and the W tables of every bath,
    shape (B, N, N).  Entries are evaluated on demand: `block(pairs)` for a
    retained block, `k` for the full N^4 tensor (built once, on first read).
    Every evaluated block is checked against the sum rule and Hermiticity.
    """

    q: np.ndarray
    w: np.ndarray

    @property
    def dim(self) -> int:
        return self.q.shape[-1]

    def population_rates(self) -> np.ndarray:
        """K[n,n,m,m] = 2 sum_baths Q_nm Q_mn Re W_nm for n != m; zero diagonal."""
        g = 2.0 * np.sum(self.q * self.q.transpose(0, 2, 1) * self.w.real, axis=0)
        np.fill_diagonal(g, 0.0)
        return g

    def block(self, pairs: np.ndarray) -> KernelBlock:
        """The block over `pairs`, which must hold every diagonal pair and be
        closed under (n, m) -> (m, n); raises ValidationError if its sum rule
        or Hermiticity fails."""
        block = KernelBlock(self.dim, pairs, k2_pair_block(self.q, self.w, pairs, pairs))
        block.check()
        return block

    @cached_property
    def tensor(self) -> RedfieldTensor:
        """The full rank-4 tensor, checked; built on first access."""
        n = self.dim
        k = k2_tensor_from_w(self.q, self.w)
        KernelBlock(n, all_pairs(n), k.reshape(n * n, n * n)).check()
        return RedfieldTensor(dim=n, k=k)

    @property
    def k(self) -> np.ndarray:
        return self.tensor.k

    def norm_max(self) -> float:
        return self.tensor.norm_max()

    def sum_rule_residual(self) -> float:
        return self.tensor.sum_rule_residual()

    def hermiticity_residual(self) -> float:
        return self.tensor.hermiticity_residual()


@dataclass(frozen=True)
class RateMatrix:
    """Population rates; gamma[n, m] is the rate into n from m (columns sum to 0)."""

    gamma: np.ndarray
    per_reservoir: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def column_sum_residual(self) -> float:
        return float(np.max(np.abs(np.sum(self.gamma, axis=0))))


def _bose_reservoirs(baths: list[Reservoir]) -> list[Reservoir]:
    for b in baths:
        if b.statistics != "bose":
            raise ValidationError(
                f"reservoir {b.id!r} is fermionic; this path supports bosonic baths")
    return baths


def build_k2_boson(model: JunctionModel, baths: list[Reservoir]) -> BosonKernel:
    """Kernel of a bosonic junction, summed over baths.

    Takes Q and the closed-form W table of every bath (`w_matrix`); the kernel
    entries themselves are evaluated by the returned `BosonKernel`, block by
    block or as the full tensor `.k`.
    """
    _bose_reservoirs(baths)
    return BosonKernel(q=np.stack([model.q(b.id) for b in baths]),
                       w=np.stack([w_matrix(model, b) for b in baths]))


def gamma_rates(model: JunctionModel, baths: list[Reservoir]) -> RateMatrix:
    """Golden-rule population rates gamma[n, m] = 2 pi J(w_nm) Q_nm^2 n(w_nm).

    A single signed-frequency expression covers absorption and emission via
    the odd spectral density and the continued Bose function.  Degenerate
    coupled pairs (w_nm = 0 with Q_nm != 0) are rejected: they belong to the
    partial-secular solver.
    """
    _bose_reservoirs(baths)
    bohr, resolved = resolved_bohr(model)
    unresolved_off = ~resolved & ~np.eye(model.dim, dtype=bool)
    w_safe = np.where(resolved, bohr, 1.0)
    per: dict[str, np.ndarray] = {}
    total = np.zeros_like(bohr)
    for bath in baths:
        q = model.q(bath.id)
        bad = np.argwhere(unresolved_off & (np.abs(q) > 0.0))
        if len(bad):
            i, j = bad[0]
            raise ValidationError(
                f"levels {i} and {j} are degenerate but coupled; "
                "use the partial-secular solver")
        g = np.where(resolved, 2.0 * np.pi * bath.spectral.value(w_safe) * q**2
                     * bose_signed(w_safe, bath.beta), 0.0)
        g[np.diag_indices_from(g)] = -np.sum(g, axis=0)
        per[bath.id] = g
        total += g
    return RateMatrix(gamma=total, per_reservoir=per)


def build_current_kernel_2nd(model: JunctionModel, baths: list[Reservoir],
                             reservoir_id: str) -> np.ndarray:
    """Heat-current kernel tensor K_I[n, m, n', m'] for one bosonic reservoir.

    K_I[n,m,n',m'] = -( delta_{m m'} sum_k Q_nk Q_kn' Wbar_km'
                      + Q_n'n Q_mm' Wbar*_mn' )

    with Wbar(w) = w * W(w).  The population block satisfies
    2 Re K_I[n,n,m,m] = w_mn * gamma^r[n,m].
    """
    _bose_reservoirs(baths)
    try:
        bath = next(b for b in baths if b.id == reservoir_id)
    except StopIteration:
        raise ValidationError(f"unknown reservoir id {reservoir_id!r}") from None
    n = model.dim
    q = model.q(bath.id)
    wbar = model.bohr_matrix() * w_matrix(model, bath)
    k = np.zeros((n, n, n, n), dtype=complex)
    t1 = np.einsum("nk,kq,km->nqm", q, q, wbar)
    for i in range(n):
        k[:, i, :, i] -= t1[:, :, i]
    k -= np.einsum("qn,mp,mq->nmqp", q, q, np.conj(wbar))
    return k


# ---------------------------------------------------------------------------
# fermionic dot (states |0>, |up>, |down>; double occupancy frozen out)
# ---------------------------------------------------------------------------

DOT_STATES = ("empty", "up", "down")


def fermion_dot_rates(delta_dot: float, leads: list[dict]) -> RateMatrix:
    """Sequential-tunneling rates of a spin-degenerate single-level dot.

    Each lead is a dict with keys gamma, beta, mu (and optionally id).  The
    dot level sits at delta_dot; strong Coulomb repulsion removes the doubly
    occupied state, and no direct spin-flip rate exists at this order.
    State order: (empty, up, down).
    """
    total = np.zeros((3, 3))
    per: dict[str, np.ndarray] = {}
    for k, lead in enumerate(leads):
        gamma_l = float(lead["gamma"])
        if gamma_l < 0:
            raise ValidationError("lead gamma must be >= 0")
        beta_l = float(lead["beta"])
        mu_l = float(lead.get("mu", 0.0))
        f = 0.5 * (1.0 - np.tanh(0.5 * beta_l * (delta_dot - mu_l)))
        g = np.zeros((3, 3))
        for s in (1, 2):                     # up, down
            g[s, 0] = gamma_l * f            # 0 -> sigma
            g[0, s] = gamma_l * (1.0 - f)    # sigma -> 0
        g[np.diag_indices(3)] = -np.sum(g, axis=0)
        per[str(lead.get("id", k))] = g
        total += g
    return RateMatrix(gamma=total, per_reservoir=per)
