"""Self-check suite: fast, machine-readable invariant verification.

Each check is a plain function returning (ok, detail) so tests can also run
them against deliberately corrupted inputs.  run_validation prints one
PASS/FAIL line per check and returns the number of failures.
"""

from __future__ import annotations

import numpy as np

from . import currents as cur
from .baths import bose_signed, w_rate_matsubara_oracle, w_table
from .diagrams import (DiscreteModeBath, double_factorial,
                       evaluate_kernel_from_diagrams, irreducible_count)
from .model import Reservoir, SpectralDensity, build_junction
from .oracle import CompositeSpace, exact_kernel_order
from .redfield import (PairLayout, all_pairs, build_current_kernel_2nd, build_k2_boson,
                       fermion_dot_rates, gamma_rates)
from .steady import full_secular_steady

__all__ = ["run_validation", "ALL_CHECKS", "check_detailed_balance_matrix"]

_RNG_SEED = 20240917


def _random_model(rng, dim=4, spread=2.5):
    omega = np.sort(rng.uniform(0.0, spread, size=dim))
    omega[1:] += 0.3 * np.arange(1, dim)          # keep levels well separated
    qs = {}
    for rid in ("L", "R"):
        x = rng.standard_normal((dim, dim))
        qs[rid] = 0.5 * (x + x.T)
    return build_junction(omega, qs)


def _drude_baths(t_left=1.0, t_right=0.5, alpha=1e-3, omega_c=5.0):
    sd = SpectralDensity(alpha=alpha, omega_c=omega_c)
    return [Reservoir("L", 1.0 / t_left, sd), Reservoir("R", 1.0 / t_right, sd)]


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_diagram_counts():
    want = {1: (1, 1), 2: (3, 2), 3: (15, 10), 4: (105, 74)}
    got = {n: irreducible_count(n) for n in want}
    ok = got == want
    return ok, f"counts {got}"


def check_matching_recurrence():
    irr = {n: irreducible_count(n)[1] for n in range(1, 7)}
    ok = True
    for n in range(1, 7):
        total = double_factorial(2 * n - 1)
        conv = sum(irr[k] * double_factorial(2 * (n - k) - 1) for k in range(1, n + 1))
        ok &= (total == conv)
    return ok, "t_n = sum_k i_k t_(n-k) for n <= 6"


def check_kernel_identities():
    rng = np.random.default_rng(_RNG_SEED)
    worst_sum, worst_herm = 0.0, 0.0
    for _ in range(3):
        model = _random_model(rng)
        layout = PairLayout(model.dim, all_pairs(model.dim))
        block = build_k2_boson(model, _drude_baths()).block(layout.pairs)
        scale = block.norm_max()
        worst_sum = max(worst_sum, layout.sum_rule_residual(block.k) / scale)
        worst_herm = max(worst_herm, layout.hermiticity_residual(block.k) / scale)
    ok = worst_sum <= 1e-12 and worst_herm <= 1e-12
    return ok, f"sum rule {worst_sum:.2e}, hermiticity {worst_herm:.2e}"


def check_detailed_balance_matrix(gamma_l: np.ndarray, bohr: np.ndarray,
                                  beta: float, rtol=1e-12):
    worst = 0.0
    n = gamma_l.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if gamma_l[i, j] <= 0 or gamma_l[j, i] <= 0:
                continue
            ratio = gamma_l[i, j] / gamma_l[j, i]
            worst = max(worst, abs(ratio - np.exp(-beta * bohr[i, j])) / ratio)
    return worst <= rtol, f"max detailed-balance deviation {worst:.2e}"


def check_detailed_balance():
    rng = np.random.default_rng(_RNG_SEED + 1)
    model = _random_model(rng)
    baths = _drude_baths()
    rates = gamma_rates(model, baths)
    bohr = model.bohr_matrix()
    ok = True
    worst = ""
    for bath in baths:
        got, detail = check_detailed_balance_matrix(
            rates.per_reservoir[bath.id], bohr, bath.beta)
        ok &= got
        worst = detail
    return ok, worst


def check_gibbs_fixed_point():
    rng = np.random.default_rng(_RNG_SEED + 2)
    model = _random_model(rng)
    beta = 1.3
    baths = _drude_baths(t_left=1 / beta, t_right=1 / beta)
    state = full_secular_steady(gamma_rates(model, baths))
    p = state.populations
    boltz = np.exp(-beta * (model.omega - model.omega[0]))
    boltz /= np.sum(boltz)
    worst = float(np.max(np.abs(p / boltz - 1.0)))
    return worst <= 1e-10, f"Gibbs deviation {worst:.2e}"


def check_w_rate_identity():
    """The closed-form W table against pi*J*n and against its Matsubara series."""
    baths = _drude_baths(t_left=0.2, t_right=0.5)
    ws = np.array([-2.0, -0.3, 0.0, 0.7, 3.1])
    worst_direct = worst_re = worst_im = 0.0
    for bath in baths:
        scale = np.pi * bath.spectral.alpha * max(1.0 / bath.beta,
                                                  bath.spectral.omega_c / 2)
        for w, got in zip(ws, w_table(ws, bath)):
            ref = (np.pi * bath.spectral.value(w) * bose_signed(w, bath.beta)
                   if w != 0.0 else np.pi * bath.spectral.alpha / bath.beta)
            series = w_rate_matsubara_oracle(w, bath)
            worst_direct = max(worst_direct, abs(got.real - ref) / max(abs(ref), 1e-300))
            worst_re = max(worst_re, abs(got.real - series.real) / scale)
            worst_im = max(worst_im, abs(got.imag - series.imag) / scale)
    ok = max(worst_direct, worst_re, worst_im) <= 1e-10
    return ok, (f"Re W vs pi*J*n {worst_direct:.2e}; vs Matsubara series "
                f"Re {worst_re:.2e}, Im {worst_im:.2e}")


def check_current_kernel_consistency():
    rng = np.random.default_rng(_RNG_SEED + 3)
    model = _random_model(rng)
    baths = _drude_baths()
    rates = gamma_rates(model, baths)
    bohr = model.bohr_matrix()
    worst = 0.0
    for bath in baths:
        ki = build_current_kernel_2nd(model, baths, bath.id)
        g = rates.per_reservoir[bath.id]
        for i in range(model.dim):
            for j in range(model.dim):
                if i == j:
                    continue
                lhs = 2.0 * ki[i, i, j, j].real
                rhs = -bohr[i, j] * g[i, j]
                worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return worst <= 1e-10, f"2 Re K_I vs omega*Gamma deviation {worst:.2e}"


def check_conservation():
    rng = np.random.default_rng(_RNG_SEED + 4)
    model = _random_model(rng)
    baths = _drude_baths(t_left=1.2, t_right=0.4)
    rates = gamma_rates(model, baths)
    state = full_secular_steady(rates)
    per = cur.heat_current_2nd_secular(model, rates, state).values()
    worst = abs(sum(per)) / max(max(map(abs, per)), 1e-300)
    return worst <= 1e-12, f"sum_r I_r residual {worst:.2e}"


def check_tls_closed_form():
    omega10, ql, qr, alpha, omc = 1.0, 0.8, 0.5, 1e-3, 5.0
    tl, tr = 0.9, 0.4
    model = build_junction([-0.5, 0.5], {"L": np.array([[0, ql], [ql, 0.0]]),
                                         "R": np.array([[0, qr], [qr, 0.0]])})
    baths = _drude_baths(t_left=tl, t_right=tr, alpha=alpha, omega_c=omc)
    rates = gamma_rates(model, baths)
    state = full_secular_steady(rates)
    got = cur.heat_current_2nd_secular(model, rates, state)["R"]
    want, _, _ = cur.tls_closed_forms(omega10, ql, qr, alpha, tl, tr, omega_c=omc)
    dev = abs(got - want) / abs(want)
    return dev <= 1e-12, f"TLS current deviation {dev:.2e}"


def check_kappa4_square():
    rng = np.random.default_rng(_RNG_SEED + 5)
    model = _random_model(rng)
    alpha, t = 1e-3, 0.02
    k4 = cur.kappa4_lowT(model, alpha, t)
    ql, qr = model.q("L"), model.q("R")
    bohr = model.bohr_matrix()
    s = sum(ql[0, m] * qr[m, 0] / bohr[m, 0] for m in range(1, model.dim))
    square = 32.0 * np.pi**5 * alpha**2 * t**3 / 15.0 * s * s
    ok = k4 >= 0 and abs(k4 - square) <= 1e-12 * max(k4, 1e-300)
    ratio = cur.kappa4_lowT(model, alpha, 2 * t) / k4
    ok &= abs(ratio - 8.0) <= 1e-9
    return ok, f"square identity and T^3 law (ratio {ratio:.12f})"


def check_dot_transport():
    leads = [dict(id="L", gamma=0.02, beta=2.0, mu=0.0),
             dict(id="R", gamma=0.05, beta=2.0, mu=0.0)]
    eq = cur.dot_transport(0.7, leads)
    zero = max(abs(v) for v in eq.heat.values())
    dt = 1e-6
    hot = [dict(leads[0], beta=1.0 / (0.5 + dt)), leads[1]]
    cold = [dict(leads[0], beta=1.0 / (0.5 - dt)), leads[1]]
    l5 = [dict(leads[0], beta=2.0), dict(leads[1], beta=2.0)]
    kappa = cur.dot_transport(0.7, l5).kappa
    fd = (cur.dot_transport(0.7, hot).heat["R"]
          - cur.dot_transport(0.7, cold).heat["R"]) / (2 * dt)
    dev = abs(kappa - fd) / abs(kappa)
    return zero <= 1e-15 and dev <= 1e-8, f"equilibrium {zero:.1e}, kappa vs FD {dev:.2e}"


def check_oracle_equivalence():
    omega_sys = np.array([0.0, 1.1])
    ql = np.array([[0.3, 0.7], [0.7, -0.2]])
    qr = np.array([[-0.1, 0.5], [0.5, 0.4]])
    baths = [DiscreteModeBath("L", "bose", 4.0, ((1.3, 0.6),)),
             DiscreteModeBath("R", "bose", 3.5, ((0.9, 0.8),))]
    space = CompositeSpace(omega_sys, {"L": ql, "R": qr}, baths, boson_levels=11)
    lam = 0.3
    worst = 0.0
    for order in (2, 4):
        kd = evaluate_kernel_from_diagrams(omega_sys, {"L": ql, "R": qr},
                                           baths, lam, order)
        ko = exact_kernel_order(space, lam, order)
        worst = max(worst, float(np.max(np.abs(kd - ko)) / np.max(np.abs(ko))))
    k3 = exact_kernel_order(space, lam, 3)
    odd = float(np.max(np.abs(k3)))
    ok = worst <= 1e-8 and odd <= 1e-12
    return ok, f"orders 2,4 rel err {worst:.2e}; order 3 norm {odd:.2e}"


def check_fermion_dot_rates():
    rates = fermion_dot_rates(0.5, [dict(id="L", gamma=0.1, beta=3.0, mu=0.5)])
    g = rates.per_reservoir["L"]
    ok = abs(g[1, 0] - 0.05) < 1e-14 and abs(g[0, 1] - 0.05) < 1e-14
    ok &= rates.column_sum_residual() < 1e-15
    ok &= g[1, 0] == g[2, 0]
    return ok, "half-filling rates and spin symmetry"


ALL_CHECKS = [
    ("diagram-counts", check_diagram_counts),
    ("matching-recurrence", check_matching_recurrence),
    ("kernel-sum-rule-hermiticity", check_kernel_identities),
    ("detailed-balance", check_detailed_balance),
    ("gibbs-fixed-point", check_gibbs_fixed_point),
    ("w-rate-identity", check_w_rate_identity),
    ("current-kernel-consistency", check_current_kernel_consistency),
    ("current-conservation", check_conservation),
    ("tls-closed-form", check_tls_closed_form),
    ("kappa4-square-t3", check_kappa4_square),
    ("dot-transport", check_dot_transport),
    ("fermion-dot-rates", check_fermion_dot_rates),
    ("oracle-equivalence", check_oracle_equivalence),
]


def run_validation(out=print) -> int:
    failures = 0
    counts = None
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if name == "diagram-counts":
            counts = detail
        out(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    out(f"{'OK' if failures == 0 else 'FAILED'} "
        f"({len(ALL_CHECKS) - failures}/{len(ALL_CHECKS)} checks passed)")
    return failures
