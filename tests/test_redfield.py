import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from ltrans.baths import bose_signed, w_rate
from ltrans.diagrams import DiscreteModeBath, evaluate_kernel_from_diagrams
from ltrans.linalg import ValidationError
from ltrans.model import Reservoir, SpectralDensity, build_junction
from ltrans.redfield import (build_current_kernel_2nd, build_k2_boson,
                             fermion_dot_rates, gamma_rates, k2_tensor_from_w)


def drude_baths(t_left=1.0, t_right=0.5, alpha=1e-3, omega_c=5.0):
    sd = SpectralDensity(alpha=alpha, omega_c=omega_c)
    return [Reservoir("L", "bose", 1.0 / t_left, 0.0, sd),
            Reservoir("R", "bose", 1.0 / t_right, 0.0, sd)]


def random_model(rng, dim=4):
    omega = np.sort(rng.uniform(0.0, 2.5, size=dim)) + 0.3 * np.arange(dim)
    qs = {}
    for rid in ("L", "R"):
        x = rng.standard_normal((dim, dim))
        qs[rid] = 0.5 * (x + x.T)
    return build_junction(omega, qs)


def tls_model(omega10=1.0, ql=0.8, qr=0.5):
    off_l = np.array([[0.0, ql], [ql, 0.0]])
    off_r = np.array([[0.0, qr], [qr, 0.0]])
    return build_junction([0.0, omega10], {"L": off_l, "R": off_r})


# ---------------------------------------------------------------------------
# kernel tensor
# ---------------------------------------------------------------------------

def test_zero_coupling_zero_kernel():
    model = build_junction([0.0, 1.0, 2.2], {"L": np.zeros((3, 3)),
                                             "R": np.zeros((3, 3))})
    k2 = build_k2_boson(model, drude_baths())
    assert k2.norm_max() == 0.0


def test_tls_population_entry_is_emission_rate():
    model = tls_model()
    baths = drude_baths()
    k2 = build_k2_boson(model, baths)
    want = 0.0
    for bath in baths:
        q01 = model.q(bath.id)[0, 1]
        j = bath.spectral.value(1.0)
        n = bose_signed(1.0, bath.beta)
        want += 2.0 * np.pi * j * q01**2 * (n + 1.0)
    assert k2.k[0, 0, 1, 1].real == pytest.approx(want, rel=1e-12)
    assert abs(k2.k[0, 0, 1, 1].imag) < 1e-14 * want


def test_kernel_against_loop_reference():
    # independent quadruple-loop transcription of the kernel formula
    rng = np.random.default_rng(42)
    model = random_model(rng, dim=3)
    bath = drude_baths()[0]
    q = model.q("L")
    n = model.dim
    bohr = model.bohr_matrix()
    w = np.array([[w_rate(bohr[a, b], bath) for b in range(n)] for a in range(n)])
    ref = np.zeros((n, n, n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val = 0.0
                    if d == b:
                        val += sum(q[a, k] * q[k, c] * w[k, d] for k in range(n))
                    if c == a:
                        val += sum(q[d, k] * q[k, b] * np.conj(w[k, c])
                                   for k in range(n))
                    val -= q[a, c] * q[d, b] * (w[a, d] + np.conj(w[b, c]))
                    ref[a, b, c, d] = -val
    got = k2_tensor_from_w(q, w)
    assert np.max(np.abs(got - ref)) < 1e-15


def test_sum_rule_and_hermiticity_random_models():
    rng = np.random.default_rng(1)
    for _ in range(5):
        model = random_model(rng)
        k2 = build_k2_boson(model, drude_baths())
        scale = k2.norm_max()
        assert k2.sum_rule_residual() <= 1e-12 * scale
        assert k2.hermiticity_residual() <= 1e-12 * scale


def test_fermi_bath_rejected():
    model = tls_model()
    lead = Reservoir("L", "fermi", 2.0, 0.0, None)
    with pytest.raises(ValidationError):
        build_k2_boson(model, [lead])


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_detailed_balance():
    rng = np.random.default_rng(2)
    model = random_model(rng)
    baths = drude_baths()
    rates = gamma_rates(model, baths)
    bohr = model.bohr_matrix()
    for bath in baths:
        g = rates.per_reservoir[bath.id]
        for i in range(model.dim):
            for j in range(model.dim):
                if i == j:
                    continue
                ratio = g[i, j] / g[j, i]
                assert ratio == pytest.approx(np.exp(-bath.beta * bohr[i, j]),
                                              rel=1e-12)


def test_cold_bath_absorption_vanishes():
    model = tls_model()
    baths = drude_baths(t_left=1e-4, t_right=1e-4)
    g = gamma_rates(model, baths).gamma
    assert g[1, 0] <= 1e-300        # absorption 0 -> 1 frozen out
    assert g[0, 1] > 0              # spontaneous emission stays


def test_tls_rates_closed_form():
    model = tls_model()
    baths = drude_baths()
    rates = gamma_rates(model, baths)
    for bath in baths:
        gamma_bare = 2.0 * np.pi * bath.spectral.value(1.0) * model.q(bath.id)[0, 1]**2
        n = bose_signed(1.0, bath.beta)
        g = rates.per_reservoir[bath.id]
        assert g[0, 1] == pytest.approx(gamma_bare * (n + 1.0), rel=1e-13)
        assert g[1, 0] == pytest.approx(gamma_bare * n, rel=1e-13)
    assert rates.column_sum_residual() < 1e-16


def test_degenerate_coupled_pair_rejected():
    q = np.array([[0.0, 0.3, 0.0], [0.3, 0.0, 0.2], [0.0, 0.2, 0.0]])
    model = build_junction([0.0, 1.0, 1.0], {"L": q})
    with pytest.raises(ValidationError):
        gamma_rates(model, drude_baths()[:1])


def test_gamma_rates_names_the_degenerate_coupled_pair():
    q = np.array([[0.0, 0.3, 0.2], [0.3, 0.0, 0.5], [0.2, 0.5, 0.0]])
    model = build_junction([0.0, 1.0, 1.0], {"L": q})
    with pytest.raises(ValidationError,
                       match="levels 1 and 2 are degenerate but coupled; "
                             "use the partial-secular solver"):
        gamma_rates(model, drude_baths()[:1])


def test_gamma_rates_match_loop_reference():
    # elementwise golden-rule rates, transcribed pair by pair
    rng = np.random.default_rng(11)
    model = random_model(rng, dim=5)
    baths = drude_baths(0.9, 0.3)
    rates = gamma_rates(model, baths)
    bohr = model.bohr_matrix()
    for bath in baths:
        q = model.q(bath.id)
        want = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                if i != j:
                    w = bohr[i, j]
                    want[i, j] = (2.0 * np.pi * bath.spectral.value(w) * q[i, j]**2
                                  * bose_signed(w, bath.beta))
        want[np.diag_indices(5)] = -np.sum(want, axis=0)
        np.testing.assert_allclose(rates.per_reservoir[bath.id], want,
                                   rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# current kernel
# ---------------------------------------------------------------------------

def test_current_kernel_population_identity():
    rng = np.random.default_rng(3)
    model = random_model(rng)
    baths = drude_baths()
    rates = gamma_rates(model, baths)
    bohr = model.bohr_matrix()
    for bath in baths:
        ki = build_current_kernel_2nd(model, baths, bath.id)
        g = rates.per_reservoir[bath.id]
        for i in range(model.dim):
            for j in range(model.dim):
                if i != j:
                    lhs = 2.0 * ki[i, i, j, j].real
                    rhs = -bohr[i, j] * g[i, j]   # omega_mn * gamma[n, m]
                    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-18)


def test_current_kernel_unknown_reservoir():
    model = tls_model()
    with pytest.raises(ValidationError):
        build_current_kernel_2nd(model, drude_baths(), "X")


# ---------------------------------------------------------------------------
# fermionic dot rates
# ---------------------------------------------------------------------------

def test_dot_rates_half_filling():
    rates = fermion_dot_rates(0.4, [dict(id="L", gamma=0.08, beta=5.0, mu=0.4)])
    g = rates.per_reservoir["L"]
    assert g[1, 0] == pytest.approx(0.04, rel=1e-14)
    assert g[0, 1] == pytest.approx(0.04, rel=1e-14)


def test_dot_rates_zero_temperature_step():
    rates = fermion_dot_rates(1.0, [dict(id="L", gamma=0.08, beta=1e6, mu=0.0)])
    g = rates.per_reservoir["L"]
    assert g[1, 0] == pytest.approx(0.0, abs=1e-300)
    assert g[0, 1] == pytest.approx(0.08, rel=1e-14)


def test_dot_rates_structure():
    rates = fermion_dot_rates(0.3, [dict(id="L", gamma=0.05, beta=2.0, mu=0.1),
                                    dict(id="R", gamma=0.03, beta=3.0, mu=-0.1)])
    g = rates.gamma
    assert g[1, 0] == g[2, 0]           # spin symmetry
    assert g[1, 2] == 0.0 and g[2, 1] == 0.0
    assert rates.column_sum_residual() < 1e-17
    with pytest.raises(ValidationError):
        fermion_dot_rates(0.3, [dict(id="L", gamma=-1.0, beta=2.0)])


# ---------------------------------------------------------------------------
# continuum-bath cross-validation against the diagram evaluator
# ---------------------------------------------------------------------------

def drude_discretization(alpha, omega_c, beta, rid, lam_min, omega_hi,
                         gl_order=8, tail_order=32):
    """Gauss-Legendre mode discretization of an Ohmic-Drude bath.

    Panels of width lam_min/2 on [0, omega_hi] resolve the finite-lam
    propagators; the remaining tail is mapped through u = 1/omega so the
    slowly decaying emission branch is captured exactly.
    """
    sd = SpectralDensity(alpha=alpha, omega_c=omega_c)
    x, w = np.polynomial.legendre.leggauss(gl_order)
    modes = []
    n_panels = int(np.ceil(omega_hi / (0.5 * lam_min)))
    edges = np.linspace(0.0, omega_hi, n_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for xi, wi in zip(x, w):
            om = mid + half * xi
            modes.append((om, np.sqrt(sd.value(om) * half * wi)))
    xt, wt = np.polynomial.legendre.leggauss(tail_order)
    for xi, wi in zip(xt, wt):
        u = 0.5 / omega_hi * (xi + 1.0)
        du = wi * 0.5 / omega_hi
        om = 1.0 / u
        modes.append((om, np.sqrt(sd.value(om) * du / u**2)))
    return DiscreteModeBath(rid, "bose", beta, tuple(modes))


def test_kernel_matches_diagram_extrapolation():
    # three-level model: analytic-W kernel at lam = 0 against the diagram
    # evaluator on a discretized bath, Richardson-extrapolated lam -> 0
    rng = np.random.default_rng(7)
    omega = np.array([0.0, 0.9, 2.1])
    qs = {}
    for rid in ("L", "R"):
        xm = rng.standard_normal((3, 3))
        qs[rid] = 0.5 * (xm + xm.T)
    model = build_junction(omega, qs)
    alpha, omega_c = 1e-3, 5.0
    t_l, t_r = 0.8, 0.65
    baths = drude_baths(t_left=t_l, t_right=t_r, alpha=alpha, omega_c=omega_c)
    k_ref = build_k2_boson(model, baths)
    n = model.dim
    k_ref_mat = k_ref.k.reshape(n * n, n * n)

    lams = np.array([0.64, 0.32, 0.16, 0.08, 0.04, 0.02])
    omega_hi = 40.0 * max(t_l, t_r) + 8.0 * omega_c
    disc = [drude_discretization(alpha, omega_c, 1.0 / t_l, "L", lams[-1], omega_hi),
            drude_discretization(alpha, omega_c, 1.0 / t_r, "R", lams[-1], omega_hi)]
    d_ops = {"L": model.q("L").astype(complex), "R": model.q("R").astype(complex)}
    stack = np.array([evaluate_kernel_from_diagrams(model.omega, d_ops, disc,
                                                    lam, 2).ravel()
                      for lam in lams])
    coefs = P.polyfit(lams, stack, deg=len(lams) - 1)
    k_extrap = coefs[0].reshape(n * n, n * n)
    scale = np.max(np.abs(k_ref_mat))
    assert np.max(np.abs(k_extrap - k_ref_mat)) <= 1e-8 * scale
