"""Steady-state heat and particle currents and linear thermal conductances.

Second-order (sequential) currents come in a secular population form and a
general form with coherences; the fourth-order (cotunneling) channel is
implemented in its low-temperature form, both as a frequency quadrature and
as the closed-form T^3 conductance.  Closed-form two-level and single-dot
expressions are kept alongside as regression anchors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .baths import bose_signed, dn_dDeltaT_signed
from .linalg import ValidationError
from .model import JunctionModel, Reservoir
from .redfield import (DEGENERACY_TOL, BosonKernel, KernelBlock, RateMatrix,
                       build_k2_boson, gamma_rates, resolved_bohr, w_matrix)
from .steady import (DEFAULT_CLUSTER_FACTOR, SteadyState, cluster_bohr_frequencies,
                     full_secular_steady, partial_secular_steady, retained_pair_array)

__all__ = ["CurrentResult", "heat_current_2nd_secular",
           "heat_current_2nd_general", "current_kernel_4th_lowT", "kappa4_lowT",
           "kappa4_kernel_quadrature", "kappa2", "tls_closed_forms", "dot_transport",
           "DotTransport", "partial_secular_state", "gamma_scale_from_kernel"]

FD_STEP_FACTOR = 1e-4


@dataclass(frozen=True)
class CurrentResult:
    """Per-reservoir heat currents (units omega_ref^2), positive into the bath."""

    per_reservoir: dict[str, float]
    order: str = "2"
    particle: dict[str, float] = field(default_factory=dict)

    def total(self) -> float:
        return float(sum(self.per_reservoir.values()))

    def conservation_residual(self) -> float:
        scale = max((abs(v) for v in self.per_reservoir.values()), default=0.0)
        return abs(self.total()) / max(scale, 1e-300)


# ---------------------------------------------------------------------------
# second order
# ---------------------------------------------------------------------------

def heat_current_2nd_secular(model: JunctionModel, rates: RateMatrix,
                             state: SteadyState) -> CurrentResult:
    """I_r = sum_{n,m} (w_m - w_n) gamma^r[n, m] rho_mm."""
    p = state.populations
    wdiff = model.omega[None, :] - model.omega[:, None]   # w_m - w_n
    per = {rid: float(np.einsum("nm,nm,m->", wdiff, g, p))
           for rid, g in rates.per_reservoir.items()}
    return CurrentResult(per_reservoir=per, order="2")


def heat_current_2nd_general(model: JunctionModel, baths: list[Reservoir],
                             reservoir_id: str, state: SteadyState) -> float:
    """Coherence-resolved current -2 Re sum Q_mn Q_nm' Wbar(w_nm) rho_m'm."""
    bath = _find(baths, reservoir_id)
    q = model.q(reservoir_id)
    wbar = model.bohr_matrix() * w_matrix(model, bath)
    val = np.einsum("mn,np,nm,pm->", q, q, wbar, state.rho)
    return float(-2.0 * np.real(val))


def _find(baths: list[Reservoir], rid: str) -> Reservoir:
    for b in baths:
        if b.id == rid:
            return b
    raise ValidationError(f"unknown reservoir id {rid!r}")


def _other(baths: list[Reservoir], rid: str) -> Reservoir:
    if len(baths) != 2:
        raise ValidationError("this operation needs exactly two baths")
    return next(b for b in baths if b.id != rid)


# ---------------------------------------------------------------------------
# fourth order, low temperature
# ---------------------------------------------------------------------------

def _omega_hi(baths: list[Reservoir]) -> float:
    beta_min = min(b.beta for b in baths)
    omega_c = max(b.spectral.omega_c for b in baths)
    return max(50.0 / beta_min, 10.0 * omega_c)


def _virtual_state_terms(model: JunctionModel, q_r: np.ndarray, q_o: np.ndarray,
                         states=None) -> np.ndarray:
    """Terms of the low-T virtual-state sums, t[k, j] = q_o[n, k] q_r[k, n] / w_kn.

    n = states[j] (every level by default) and w_kn = omega_k - omega_n; the
    entry k = n is zero, and sum_k t[k, j] is the virtual-state amplitude of
    level n.  Raises ValidationError when a level k != n is degenerate with
    n (|w_kn| <= DEGENERACY_TOL, the rule of `resolved_bohr`), where the
    sums diverge.
    """
    cols = np.arange(model.dim) if states is None else np.asarray(states)
    bohr = model.bohr_matrix()[:, cols]
    bohr[cols, np.arange(len(cols))] = np.inf      # k = n: no term
    if not np.abs(bohr).min() > DEGENERACY_TOL:
        k, j = np.argwhere(np.abs(bohr) <= DEGENERACY_TOL)[0]
        raise ValidationError(f"levels {k} and {cols[j]} are degenerate; the "
                              "low-temperature virtual-state sum diverges")
    return q_o[cols, :].T * q_r[:, cols] / bohr


def current_kernel_4th_lowT(model: JunctionModel, baths: list[Reservoir],
                            reservoir_id: str) -> np.ndarray:
    """Population block of the cotunneling current kernel, 2 Re K4[m, m, n, n].

    Valid in the low-temperature window where virtual transitions dominate:

        8 pi int dw w [n_rbar - n_r] J_r J_rbar
             * sum_{k != n} Q_r[m,n] Q_rbar[n,m] Q_rbar[n,k] Q_r[k,n]
                            / (w_mn * w_kn)

    Row/column convention matches the rate matrices: entry [m, n] multiplies
    rho_nn; the diagonal is left at zero.
    """
    bath_r = _find(baths, reservoir_id)
    bath_o = _other(baths, reservoir_id)
    terms = _virtual_state_terms(model, model.q(bath_r.id), model.q(bath_o.id))

    def integrand(w):
        occ_diff = bose_signed(w, bath_o.beta) - bose_signed(w, bath_r.beta)
        return w * bath_r.spectral.value(w) * bath_o.spectral.value(w) * occ_diff

    hi = _omega_hi(baths)
    pts = sorted({min(1.0 / b.beta, hi * 0.5) for b in baths}
                 | {min(b.spectral.omega_c, hi * 0.5) for b in baths})
    freq_int, _ = quad(integrand, 0.0, hi, points=pts, limit=400)
    return 8.0 * np.pi * freq_int * terms * np.sum(terms, axis=0)


def _ground_virtual_sum_squared(model: JunctionModel, q_r: np.ndarray,
                                q_o: np.ndarray) -> float:
    """(sum_{k >= 1} Q_o[0,k] Q_r[k,0] / w_k0)^2, the ground-state cotunneling weight."""
    amplitude = float(_virtual_state_terms(model, q_r, q_o, [0]).sum())
    return amplitude * amplitude


def kappa4_lowT(model: JunctionModel, alpha: float, temperature: float,
                left: str = "L", right: str = "R") -> float:
    """Closed-form cotunneling conductance (32 pi^5 / 15) alpha^2 T^3 * S^2.

    S sums the signed products of coupling matrix elements over the virtual
    intermediate states; opposite signs between quasi-degenerate levels
    interfere destructively and suppress the conductance.
    """
    if model.dim < 2 or not (model.omega[1] - model.omega[0]) > 0:
        raise ValidationError("kappa4 needs a gapped, non-degenerate ground state")
    s = _ground_virtual_sum_squared(model, model.q(right), model.q(left))
    return float(32.0 * np.pi**5 * alpha**2 * temperature**3 / 15.0 * s)


def kappa4_kernel_quadrature(model: JunctionModel, baths: list[Reservoir],
                             temperature: float, reservoir_id: str) -> float:
    """Cotunneling conductance from the quadrature kernel with full Drude tails."""
    bath_r = _find(baths, reservoir_id).with_temperature(temperature)
    bath_o = _other(baths, reservoir_id).with_temperature(temperature)
    s = _ground_virtual_sum_squared(model, model.q(bath_r.id), model.q(bath_o.id))

    def integrand(w):
        return (w * bath_r.spectral.value(w) * bath_o.spectral.value(w)
                * dn_dDeltaT_signed(w, temperature))

    # the sinh^2 derivative factor cuts the integrand off at omega ~ T
    # regardless of the Drude cutoff
    hi = 60.0 * temperature
    pts = [temperature, min(bath_r.spectral.omega_c, 0.5 * hi)]
    freq_int, _ = quad(integrand, 0.0, hi, points=sorted(set(pts)), limit=400)
    return float(8.0 * np.pi * freq_int * s)


# ---------------------------------------------------------------------------
# linear conductance, second order
# ---------------------------------------------------------------------------

def gamma_scale_from_kernel(k2: BosonKernel) -> float:
    """Largest population rate |K[n,n,m,m]|, n != m; clustering scale."""
    return float(np.max(np.abs(k2.population_rates())))


def partial_secular_state(model: JunctionModel, baths: list[Reservoir],
                          c: float = DEFAULT_CLUSTER_FACTOR,
                          lamb_shift: bool = True) -> tuple[SteadyState, KernelBlock]:
    """Build the kernel, cluster the spectrum, and solve; returns (state, block).

    The W table of each bath is computed once per model (`w_matrix`) and
    shared by the clustering scale, the kernel and the heat currents.  The
    clustering scale comes from the population rates 2 sum_baths Q_nm Q_mn
    Re W_nm, and only the kernel block of the retained pairs is evaluated
    (and checked against the sum rule and Hermiticity), so no N^4 array is
    built: the second return value is that `KernelBlock`, not a full tensor.
    """
    k2 = build_k2_boson(model, baths)
    scale = gamma_scale_from_kernel(k2)
    if scale <= 0.0:
        raise ValidationError("all population rates vanish; no steady state")
    clusters = cluster_bohr_frequencies(model, scale, c)
    block = k2.block(retained_pair_array(model.dim, clusters))
    state = partial_secular_steady(model, block, clusters, lamb_shift=lamb_shift)
    return state, block


def _secular_current_at(model: JunctionModel, baths: list[Reservoir],
                        rid: str) -> float:
    rates = gamma_rates(model, baths)
    state = full_secular_steady(rates)
    return heat_current_2nd_secular(model, rates, state).per_reservoir[rid]


def _partial_current_at(model: JunctionModel, baths: list[Reservoir], rid: str,
                        c: float, lamb_shift: bool) -> float:
    state, _ = partial_secular_state(model, baths, c=c, lamb_shift=lamb_shift)
    return heat_current_2nd_general(model, baths, rid, state)


def kappa2(model: JunctionModel, baths: list[Reservoir], temperature: float,
           method: str = "analytic", solver: str = "full",
           reservoir_id: str | None = None, c: float = DEFAULT_CLUSTER_FACTOR,
           lamb_shift: bool = True, fd_step: float = FD_STEP_FACTOR) -> float:
    """Sequential-tunneling thermal conductance at common temperature T.

    method="analytic" differentiates the Bose factors of the heated bath
    inside the secular current (no step-size tuning); method="fd" applies a
    symmetric temperature bias fd_step * T to the full nonlinear current and
    works with either solver.  The heated bath is the one not measured.
    """
    if not temperature > 0:
        raise ValidationError("temperature must be positive")
    if len(baths) != 2:
        raise ValidationError("kappa2 needs exactly two baths")
    rid = reservoir_id if reservoir_id is not None else baths[-1].id
    common = [b.with_temperature(temperature) for b in baths]
    heated_idx = next(i for i, b in enumerate(common) if b.id != rid)

    if method == "analytic":
        if solver != "full":
            raise ValidationError("analytic derivative is defined for the "
                                  "full-secular solver; use method='fd'")
        rates = gamma_rates(model, common)
        state = full_secular_steady(rates)
        heated = common[heated_idx]
        q = model.q(heated.id)
        bohr, resolved = resolved_bohr(model)
        dgamma = np.where(resolved, 2.0 * np.pi * heated.spectral.value(bohr) * q**2
                          * dn_dDeltaT_signed(bohr, temperature), 0.0)
        dgamma[np.diag_indices_from(dgamma)] = -np.sum(dgamma, axis=0)
        a = rates.gamma.copy()
        a[0, :] = 1.0
        rhs = -(dgamma @ state.populations)
        rhs[0] = 0.0
        dp = np.linalg.solve(a, rhs)
        wdiff = model.omega[None, :] - model.omega[:, None]
        return float(np.einsum("nm,nm,m->", wdiff, rates.per_reservoir[rid], dp))

    if method == "fd":
        dt = fd_step * temperature
        vals = []
        for sgn in (+1.0, -1.0):
            biased = list(common)
            biased[heated_idx] = biased[heated_idx].with_temperature(
                temperature + sgn * dt)
            if solver == "full":
                vals.append(_secular_current_at(model, biased, rid))
            elif solver == "partial":
                vals.append(_partial_current_at(model, biased, rid, c, lamb_shift))
            else:
                raise ValidationError(f"unknown solver {solver!r}")
        return float((vals[0] - vals[1]) / (2.0 * dt))

    raise ValidationError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# closed forms: two-level junction
# ---------------------------------------------------------------------------

def tls_current(omega10: float, gamma_left: float, gamma_right: float,
                t_left: float, t_right: float) -> float:
    """Heat current into the right bath of a two-level junction."""
    n_l = bose_signed(omega10, 1.0 / t_left)
    n_r = bose_signed(omega10, 1.0 / t_right)
    num = omega10 * gamma_left * gamma_right * (n_l - n_r)
    den = gamma_right * (1.0 + 2.0 * n_r) + gamma_left * (1.0 + 2.0 * n_l)
    return float(num / den)


def tls_kappa2(omega10: float, gamma_left: float, gamma_right: float,
               temperature: float) -> float:
    """Exact temperature derivative of tls_current at zero bias."""
    x = omega10 / temperature
    gsum = gamma_left + gamma_right
    # 1/sinh(x) = -2 e^{-x} / expm1(-2x): finite and silent for any x > 0
    inv_sinh = -2.0 * np.exp(-x) / np.expm1(-2.0 * x)
    return float(omega10**2 * gamma_left * gamma_right * inv_sinh
                 / (2.0 * temperature**2 * gsum))


def tls_kappa4(omega10: float, q_left: float, q_right: float, alpha: float,
               temperature: float) -> float:
    return float(32.0 * np.pi**5 * alpha**2 * temperature**3 / 15.0
                 * q_left**2 * q_right**2 / omega10**2)


def tls_closed_forms(omega10: float, q_left: float, q_right: float, alpha: float,
                     t_left: float, t_right: float,
                     omega_c: float | None = None) -> tuple[float, float, float]:
    """(heat current to the right bath, kappa2, kappa4) of a two-level junction.

    The sequential pieces use J(omega10) with the Drude cutoff when omega_c is
    given (else the plain Ohmic slope); the conductances are evaluated at the
    mean temperature.
    """
    if not omega10 > 0:
        raise ValidationError("omega10 must be positive")
    j10 = alpha * omega10 / (1.0 + (omega10 / omega_c)**2) if omega_c else alpha * omega10
    gl = 2.0 * np.pi * j10 * q_left**2
    gr = 2.0 * np.pi * j10 * q_right**2
    t_mean = 0.5 * (t_left + t_right)
    i2 = tls_current(omega10, gl, gr, t_left, t_right)
    k2 = tls_kappa2(omega10, gl, gr, t_mean)
    k4 = tls_kappa4(omega10, q_left, q_right, alpha, t_mean)
    return i2, k2, k4


# ---------------------------------------------------------------------------
# closed forms: fermionic dot
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DotTransport:
    particle: dict[str, float]
    energy: dict[str, float]
    heat: dict[str, float]
    kappa: float


def dot_transport(delta_dot: float, leads: list[dict]) -> DotTransport:
    """Sequential transport through a spin-degenerate dot with two leads.

    Each lead dict needs id, gamma, beta, mu.  Currents are positive into the
    lead; kappa is the zero-bias thermal conductance evaluated at the
    parameters of the second lead.
    """
    if len(leads) != 2:
        raise ValidationError("dot_transport needs exactly two leads")
    f = {}
    for lead in leads:
        x = float(lead["beta"]) * (delta_dot - float(lead.get("mu", 0.0)))
        f[lead["id"]] = 0.5 * (1.0 - np.tanh(0.5 * x))
    (l0, l1) = leads
    gl, gr = float(l0["gamma"]), float(l1["gamma"])
    den = gl * (1.0 + f[l0["id"]]) + gr * (1.0 + f[l1["id"]])
    particle, energy, heat = {}, {}, {}
    for me, other, gme, goth in ((l0, l1, gl, gr), (l1, l0, gr, gl)):
        ip = 2.0 * gme * goth * (f[other["id"]] - f[me["id"]]) / den
        particle[me["id"]] = float(ip)
        energy[me["id"]] = float(delta_dot * ip)
        heat[me["id"]] = float((delta_dot - float(me.get("mu", 0.0))) * ip)

    # linear conductance at the measured lead's (T, mu)
    t = 1.0 / float(l1["beta"])
    mu = float(l1.get("mu", 0.0))
    e = delta_dot - mu
    fr = f[l1["id"]]
    kappa = (e**2 / (2.0 * t**2) * gl * gr / (gl + gr)
             / ((1.0 + fr) * np.cosh(0.5 * e / t)**2))
    return DotTransport(particle=particle, energy=energy, heat=heat,
                        kappa=float(kappa))
