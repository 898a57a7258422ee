"""Second-order kernel tensors and population rate matrices.

The kernel tensor K[n, m, n', m'] generates the weak-coupling master
equation resolved in the junction eigenbasis; its population block K[n,n,m,m]
is the classical rate matrix.  Bosonic junctions are assembled from the bath
correlation rates W; the single-level fermionic dot gets its own rate
constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baths import bose_signed, w_table, wbar_table
from .linalg import ValidationError
from .model import JunctionModel, Reservoir

__all__ = ["RedfieldTensor", "RateMatrix", "build_k2_boson", "gamma_rates",
           "build_current_kernel_2nd", "fermion_dot_rates", "DOT_STATES"]

SUM_RULE_RTOL = 1e-12
DEGENERACY_TOL = 1e-12


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


def _w_matrix(model: JunctionModel, bath: Reservoir) -> np.ndarray:
    """W_l(omega_nm) over the Bohr-frequency matrix, in one closed-form table call."""
    return w_table(model.bohr_matrix(), bath)


def k2_tensor_from_w(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Single-bath kernel tensor given coupling matrix Q and rate matrix W.

    K[n,m,n',m'] = -( delta_{m m'} sum_k Q_nk Q_kn' W_km'
                    + delta_{n n'} sum_k Q_m'k Q_km W*_kn'
                    - Q_nn' Q_m'm (W_nm' + W*_mn') )
    """
    n = q.shape[0]
    k = np.zeros((n, n, n, n), dtype=complex)
    t1 = np.einsum("nk,kq,km->nqm", q, q, w)
    t2 = np.einsum("pk,km,kq->pmq", q, q, np.conj(w))
    for i in range(n):
        k[:, i, :, i] -= t1[:, :, i]
        k[i, :, i, :] -= t2[:, :, i].T
    k += np.einsum("nq,pm,np->nmqp", q, q, w)
    k += np.einsum("nq,pm,mq->nmqp", q, q, np.conj(w))
    return k


def build_k2_boson(model: JunctionModel, baths: list[Reservoir]) -> RedfieldTensor:
    """Kernel tensor of a bosonic junction, summed over baths."""
    _bose_reservoirs(baths)
    n = model.dim
    k = np.zeros((n, n, n, n), dtype=complex)
    for bath in baths:
        k += k2_tensor_from_w(model.q(bath.id), _w_matrix(model, bath))
    tensor = RedfieldTensor(dim=n, k=k)
    scale = max(tensor.norm_max(), 1e-300)
    if tensor.sum_rule_residual() > SUM_RULE_RTOL * scale:
        raise ValidationError("kernel violates the probability sum rule")
    if tensor.hermiticity_residual() > SUM_RULE_RTOL * scale:
        raise ValidationError("kernel violates the Hermiticity symmetry")
    return tensor


def gamma_rates(model: JunctionModel, baths: list[Reservoir]) -> RateMatrix:
    """Golden-rule population rates gamma[n, m] = 2 pi J(w_nm) Q_nm^2 n(w_nm).

    A single signed-frequency expression covers absorption and emission via
    the odd spectral density and the continued Bose function.  Degenerate
    coupled pairs (w_nm = 0 with Q_nm != 0) are rejected: they belong to the
    partial-secular solver.
    """
    _bose_reservoirs(baths)
    n = model.dim
    bohr = model.bohr_matrix()
    per: dict[str, np.ndarray] = {}
    total = np.zeros((n, n))
    for bath in baths:
        q = model.q(bath.id)
        g = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                w = bohr[i, j]
                if abs(w) <= DEGENERACY_TOL:
                    if abs(q[i, j]) > 0.0:
                        raise ValidationError(
                            f"levels {i} and {j} are degenerate but coupled; "
                            "use the partial-secular solver")
                    continue
                g[i, j] = (2.0 * np.pi * bath.spectral.value(w) * q[i, j]**2
                           * bose_signed(w, bath.beta))
        g[np.diag_indices(n)] = -np.sum(g, axis=0)
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
    wbar = wbar_table(model.bohr_matrix(), bath)
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
