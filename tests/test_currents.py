import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from ltrans.baths import bose_signed, dn_dDeltaT_signed
from ltrans.currents import (dot_transport, heat_current_2nd_general,
                             heat_current_2nd_secular, kappa2,
                             kappa4_kernel_quadrature, kappa4_lowT,
                             current_kernel_4th_lowT, partial_secular_state,
                             tls_closed_forms, tls_current, tls_kappa2, tls_kappa4)
from ltrans.linalg import ValidationError
from ltrans.model import Reservoir, SpectralDensity, build_junction
from ltrans.redfield import build_current_kernel_2nd, gamma_rates
from ltrans.steady import full_secular_steady


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
    return build_junction([0.0, omega10],
                          {"L": np.array([[0.0, ql], [ql, 0.0]]),
                           "R": np.array([[0.0, qr], [qr, 0.0]])})


def quasi_degenerate_model(rng, split=4e-3):
    omega = np.array([0.0, 1.0, 1.0 + split])
    qs = {}
    for rid in ("L", "R"):
        x = rng.standard_normal((3, 3))
        qs[rid] = 0.5 * (x + x.T)
    return build_junction(omega, qs)


# ---------------------------------------------------------------------------
# secular current
# ---------------------------------------------------------------------------

def test_equilibrium_secular_current_vanishes():
    rng = np.random.default_rng(0)
    model = random_model(rng)
    baths = drude_baths(0.8, 0.8)
    rates = gamma_rates(model, baths)
    state = full_secular_steady(rates)
    res = heat_current_2nd_secular(model, rates, state)
    # scale: same current at 1% temperature bias
    biased = drude_baths(0.8 * 1.01, 0.8 * 0.99)
    rates_b = gamma_rates(model, biased)
    scale = abs(heat_current_2nd_secular(model, rates_b,
                                         full_secular_steady(rates_b)).per_reservoir["L"])
    assert abs(res.per_reservoir["L"]) <= 1e-12 * scale
    assert abs(res.per_reservoir["R"]) <= 1e-12 * scale


def test_tls_current_matches_closed_form_grid():
    model = tls_model()
    for t_left in np.linspace(0.3, 1.5, 5):
        for t_right in (0.4, 0.9):
            baths = drude_baths(t_left, t_right)
            rates = gamma_rates(model, baths)
            state = full_secular_steady(rates)
            got = heat_current_2nd_secular(model, rates, state).per_reservoir["R"]
            want, _, _ = tls_closed_forms(1.0, 0.8, 0.5, 1e-3, t_left, t_right,
                                          omega_c=5.0)
            assert got == pytest.approx(want, rel=1e-12)


def test_conservation_random_model():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    baths = drude_baths(1.3, 0.4)
    rates = gamma_rates(model, baths)
    state = full_secular_steady(rates)
    res = heat_current_2nd_secular(model, rates, state)
    i_l, i_r = res.per_reservoir["L"], res.per_reservoir["R"]
    assert abs(i_l + i_r) <= 1e-13 * max(abs(i_l), abs(i_r))


# ---------------------------------------------------------------------------
# general (coherence-resolved) current
# ---------------------------------------------------------------------------

def test_general_reduces_to_secular_for_diagonal_state():
    rng = np.random.default_rng(2)
    model = random_model(rng)
    baths = drude_baths(1.2, 0.5)
    rates = gamma_rates(model, baths)
    state = full_secular_steady(rates)
    sec = heat_current_2nd_secular(model, rates, state)
    for rid in ("L", "R"):
        gen = heat_current_2nd_general(model, baths, rid, state)
        assert gen == pytest.approx(sec.per_reservoir[rid], rel=1e-13)


def test_general_current_equals_kernel_contraction():
    # same observable through the explicit current-kernel tensor
    rng = np.random.default_rng(3)
    model = quasi_degenerate_model(rng)
    baths = drude_baths(1.0, 0.45)
    state, _ = partial_secular_state(model, baths)
    for rid in ("L", "R"):
        ki = build_current_kernel_2nd(model, baths, rid)
        val = float(np.real(np.einsum("nnab,ab->", ki, state.rho)))
        gen = heat_current_2nd_general(model, baths, rid, state)
        assert gen == pytest.approx(val, rel=1e-12)


def test_general_current_conservation_partial_secular():
    rng = np.random.default_rng(4)
    model = quasi_degenerate_model(rng)
    baths = drude_baths(1.0, 0.45)
    state, _ = partial_secular_state(model, baths)
    i_l = heat_current_2nd_general(model, baths, "L", state)
    i_r = heat_current_2nd_general(model, baths, "R", state)
    assert abs(i_l + i_r) <= 1e-12 * max(abs(i_l), abs(i_r))


def test_zero_time_correlator_cancels_structurally():
    # adding i*const (the divergent <B(0)B(0)> term) to Wbar must leave the
    # current invariant for a Hermitian state
    rng = np.random.default_rng(5)
    model = quasi_degenerate_model(rng)
    baths = drude_baths(1.0, 0.45)
    state, _ = partial_secular_state(model, baths)
    base = heat_current_2nd_general(model, baths, "L", state)
    q = model.q("L")
    shift = -2.0 * np.real(np.einsum("mn,np,pm->", q, q,
                                     1j * 123.456 * state.rho))
    assert abs(shift) <= 1e-12 * abs(base)


def test_equilibrium_partial_secular_residual_is_higher_order():
    # with retained coherences the second-order theory leaves an O(alpha^2)
    # spurious equilibrium current -- beyond its order of validity; it must
    # shrink quadratically and be absolutely negligible at weak coupling
    from ltrans.redfield import build_k2_boson
    from ltrans.steady import FrequencyClusters, partial_secular_steady

    rng = np.random.default_rng(6)
    omega = np.array([0.0, 1.0, 1.02])
    qs = {}
    for rid in ("L", "R"):
        x = rng.standard_normal((3, 3))
        qs[rid] = 0.5 * (x + x.T)
    model = build_junction(omega, qs)
    clusters = FrequencyClusters(
        retained=frozenset({(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)}),
        threshold=0.1)
    residual = {}
    for alpha in (3e-4, 3e-5, 1e-5):
        baths = drude_baths(0.5, 0.5, alpha=alpha)
        k2 = build_k2_boson(model, baths)
        state = partial_secular_steady(model, k2, clusters)
        residual[alpha] = abs(heat_current_2nd_general(model, baths, "L", state))
    assert residual[3e-5] / residual[3e-4] == pytest.approx(1e-2, rel=0.15)
    assert residual[1e-5] <= 1e-10


# ---------------------------------------------------------------------------
# fourth order, low temperature
# ---------------------------------------------------------------------------

def test_kernel_4th_zero_at_equal_temperature():
    rng = np.random.default_rng(7)
    model = random_model(rng)
    k4 = current_kernel_4th_lowT(model, drude_baths(0.4, 0.4), "R")
    assert np.max(np.abs(k4)) == 0.0


def test_kappa4_generic_path_reduces_to_tls_closed_form():
    model = tls_model(omega10=1.0, ql=0.8, qr=0.5)
    alpha, t = 1e-3, 0.01
    got = kappa4_lowT(model, alpha, t)
    want = tls_kappa4(1.0, 0.8, 0.5, alpha, t)
    assert got == pytest.approx(want, rel=1e-10)


def test_kappa4_kernel_quadrature_matches_closed_form():
    # with the Drude cutoff pushed out, the quadrature kernel reproduces the
    # sinh-weighted closed form at low T
    model = tls_model()
    t = 0.01
    baths = drude_baths(t, t, alpha=1e-3, omega_c=1e5)
    got = kappa4_kernel_quadrature(model, baths, t, "R")
    want = tls_kappa4(1.0, 0.8, 0.5, 1e-3, t)
    assert got == pytest.approx(want, rel=1e-10)


def test_kappa4_kernel_quadrature_cutoff_effect_small():
    # physical cutoff omega_c = 5: agreement at the percent level
    model = tls_model()
    t = 0.01
    baths = drude_baths(t, t, alpha=1e-3, omega_c=5.0)
    got = kappa4_kernel_quadrature(model, baths, t, "R")
    want = tls_kappa4(1.0, 0.8, 0.5, 1e-3, t)
    assert abs(got / want - 1.0) < 1e-2


def test_kappa4_t_cubed_and_square():
    rng = np.random.default_rng(8)
    model = random_model(rng)
    alpha = 1e-3
    k1 = kappa4_lowT(model, alpha, 0.004)
    k2v = kappa4_lowT(model, alpha, 0.008)
    assert k2v / k1 == pytest.approx(8.0, rel=1e-9)
    assert k1 >= 0.0
    ql, qr = model.q("L"), model.q("R")
    bohr = model.bohr_matrix()
    s = sum(ql[0, m] * qr[m, 0] / bohr[m, 0] for m in range(1, model.dim))
    assert k1 == pytest.approx(32 * np.pi**5 * alpha**2 * 0.004**3 / 15 * s * s,
                               rel=1e-12)


def test_kappa4_degenerate_ground_state_rejected():
    q = np.array([[0.0, 0.3], [0.3, 0.0]])
    model = build_junction([0.0, 0.0], {"L": q, "R": q})
    with pytest.raises(ValidationError):
        kappa4_lowT(model, 1e-3, 0.01)


# Loop transcriptions of the three virtual-state sums as they were written
# before they shared one vectorized helper; the helper must reproduce them.

def loop_kernel_4th(model, baths, rid):
    bath_r = next(b for b in baths if b.id == rid)
    bath_o = next(b for b in baths if b.id != rid)
    qr, qo = model.q(bath_r.id), model.q(bath_o.id)
    bohr = model.bohr_matrix()

    def integrand(w):
        occ_diff = bose_signed(w, bath_o.beta) - bose_signed(w, bath_r.beta)
        return w * bath_r.spectral.value(w) * bath_o.spectral.value(w) * occ_diff

    hi = max(50.0 / min(b.beta for b in baths), 10.0 * max(b.spectral.omega_c for b in baths))
    pts = sorted({min(1.0 / b.beta, hi * 0.5) for b in baths}
                 | {min(b.spectral.omega_c, hi * 0.5) for b in baths})
    freq_int, _ = quad(integrand, 0.0, hi, points=pts, limit=400)
    out = np.zeros((model.dim, model.dim))
    for nn in range(model.dim):
        for m in range(model.dim):
            if m == nn:
                continue
            s = 0.0
            for k in range(model.dim):
                if k == nn:
                    continue
                s += (qr[m, nn] * qo[nn, m] * qo[nn, k] * qr[k, nn]
                      / (bohr[m, nn] * bohr[k, nn]))
            out[m, nn] = 8.0 * np.pi * freq_int * s
    return out


def loop_ground_sum(model, qr, qo):
    bohr = model.bohr_matrix()
    s = 0.0
    for m in range(1, model.dim):
        for k in range(1, model.dim):
            s += (qr[m, 0] * qo[0, m] * qo[0, k] * qr[k, 0]
                  / (bohr[m, 0] * bohr[k, 0]))
    return s


def loop_kappa4_quadrature(model, baths, t, rid):
    bath_r = next(b for b in baths if b.id == rid).with_temperature(t)
    bath_o = next(b for b in baths if b.id != rid).with_temperature(t)
    s = loop_ground_sum(model, model.q(bath_r.id), model.q(bath_o.id))

    def integrand(w):
        return (w * bath_r.spectral.value(w) * bath_o.spectral.value(w)
                * dn_dDeltaT_signed(w, t))

    hi = 60.0 * t
    pts = [t, min(bath_r.spectral.omega_c, 0.5 * hi)]
    freq_int, _ = quad(integrand, 0.0, hi, points=sorted(set(pts)), limit=400)
    return 8.0 * np.pi * freq_int * s


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_virtual_state_sums_match_loop_transcriptions(dim):
    rng = np.random.default_rng(100 + dim)
    model = random_model(rng, dim)
    ql, qr = model.q("L"), model.q("R")
    alpha, t = 1e-3, 0.01
    want = 32.0 * np.pi**5 * alpha**2 * t**3 / 15.0 * loop_ground_sum(model, qr, ql)
    assert kappa4_lowT(model, alpha, t) == pytest.approx(want, rel=1e-13, abs=0)

    for rid in ("L", "R"):
        baths = drude_baths(t, t, alpha=alpha)
        got = kappa4_kernel_quadrature(model, baths, t, rid)
        assert got == pytest.approx(loop_kappa4_quadrature(model, baths, t, rid),
                                    rel=1e-13, abs=0)
        biased = drude_baths(0.4, 0.2)
        k4 = current_kernel_4th_lowT(model, biased, rid)
        ref = loop_kernel_4th(model, biased, rid)
        assert np.max(np.abs(k4 - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.all(np.diag(k4) == 0.0)


@pytest.mark.filterwarnings("error")
def test_virtual_state_sums_reject_degenerate_ground_state():
    # levels [0, 0, 1]: every low-T sum over virtual states diverges
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 3))
    q = 0.5 * (x + x.T)
    model = build_junction([0.0, 0.0, 1.0], {"L": q, "R": q})
    baths = drude_baths(0.01, 0.01)
    with pytest.raises(ValidationError):
        kappa4_lowT(model, 1e-3, 0.01)
    with pytest.raises(ValidationError, match="degenerate"):
        kappa4_kernel_quadrature(model, baths, 0.01, "R")
    with pytest.raises(ValidationError, match="degenerate"):
        current_kernel_4th_lowT(model, baths, "R")


def test_kappa4_ignores_degenerate_excited_levels():
    # only the ground state's virtual sum enters kappa4: a degenerate excited
    # pair (levels 1 and 2) is allowed there, but not in the full kernel
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 3))
    q = 0.5 * (x + x.T)
    model = build_junction([0.0, 1.0, 1.0], {"L": q, "R": q})
    want = 32.0 * np.pi**5 * 1e-6 * 0.01**3 / 15.0 * loop_ground_sum(model, q, q)
    assert kappa4_lowT(model, 1e-3, 0.01) == pytest.approx(want, rel=1e-13, abs=0)
    with pytest.raises(ValidationError, match="levels 1 and 2"):
        current_kernel_4th_lowT(model, drude_baths(0.4, 0.2), "R")


# ---------------------------------------------------------------------------
# kappa2
# ---------------------------------------------------------------------------

def test_kappa2_tls_closed_form():
    model = tls_model()
    baths = drude_baths()
    for t in (0.2, 0.5, 1.1):
        got = kappa2(model, baths, t, method="analytic")
        j10 = 1e-3 / (1.0 + 1.0 / 25.0)
        gl = 2 * np.pi * j10 * 0.8**2
        gr = 2 * np.pi * j10 * 0.5**2
        want = tls_kappa2(1.0, gl, gr, t)
        assert got == pytest.approx(want, rel=1e-10)


def test_kappa2_analytic_vs_fd():
    rng = np.random.default_rng(9)
    model = random_model(rng)
    baths = drude_baths()
    for t in (0.3, 0.8):
        ka = kappa2(model, baths, t, method="analytic")
        kf = kappa2(model, baths, t, method="fd")
        assert kf == pytest.approx(ka, rel=1e-6)


def test_kappa2_maximum_location():
    # maximum of the two-level conductance sits at x = omega10/T solving
    # x coth x = 2
    omega10 = 1.0
    res = minimize_scalar(lambda t: -tls_kappa2(omega10, 0.01, 0.02, t),
                          bracket=(0.3, 0.5, 1.2), options={"xtol": 1e-12})
    x_star = omega10 / res.x
    root = brentq(lambda x: x / np.tanh(x) - 2.0, 1.5, 2.5, xtol=1e-12)
    assert abs(x_star - root) < 1e-6
    assert abs(x_star - 1.9150) <= 1e-3


def test_kappa2_high_temperature_scaling():
    # log-log slope -1 over T/T_K in [10, 100]
    ts = np.geomspace(10.0, 100.0, 12)
    ks = np.array([tls_kappa2(1.0, 0.01, 0.02, t) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(ks), 1)[0]
    assert abs(slope + 1.0) < 0.02


def test_kappa2_validation():
    model = tls_model()
    baths = drude_baths()
    with pytest.raises(ValidationError):
        kappa2(model, baths, -1.0)
    with pytest.raises(ValidationError):
        kappa2(model, baths, 0.5, method="analytic", solver="partial")
    with pytest.raises(ValidationError):
        kappa2(model, baths, 0.5, method="nope")


# ---------------------------------------------------------------------------
# TLS closed forms
# ---------------------------------------------------------------------------

def test_tls_equilibrium_and_antisymmetry():
    i2, _, _ = tls_closed_forms(1.0, 0.8, 0.5, 1e-3, 0.7, 0.7)
    assert i2 == 0.0
    fwd = tls_current(1.0, 0.02, 0.02, 0.9, 0.4)
    bwd = tls_current(1.0, 0.02, 0.02, 0.4, 0.9)
    assert fwd == pytest.approx(-bwd, rel=1e-12)


def test_tls_symmetric_asymmetry_factor():
    # gamma_l gamma_r / (gamma_l + gamma_r) = J * eta with eta = pi q^2 for
    # equal couplings
    q, alpha, t = 0.7, 1e-3, 0.6
    j10 = alpha * 1.0
    gamma = 2 * np.pi * j10 * q * q
    eta = np.pi * q * q
    got = tls_kappa2(1.0, gamma, gamma, t)
    want = (alpha * eta * 1.0**3 / t**2) / (2.0 * np.sinh(1.0 / t))
    assert got == pytest.approx(want, rel=1e-12)


def test_tls_scaling_collapse_and_bias_prefactor():
    # kappa2/(eta alpha omega10) is a universal function of T/T_K; the
    # cotunneling prefactor kappa4/T^3 decreases with bias
    delta = 0.6
    curves = []
    k4pref = []
    for eps in (0.0, delta, 2 * delta):
        omega10 = np.hypot(eps, delta)
        q01 = delta / omega10         # sigma_z matrix element in energy basis
        alpha = 1e-3
        gamma = 2 * np.pi * alpha * omega10 * q01**2
        eta = np.pi * q01**2
        xs = np.geomspace(0.2, 5.0, 9)     # T / T_K
        curve = [tls_kappa2(omega10, gamma, gamma, x * omega10)
                 / (alpha * eta * omega10) for x in xs]
        curves.append(curve)
        k4pref.append(tls_kappa4(omega10, q01, q01, alpha, 0.01) / 0.01**3)
    assert np.allclose(curves[0], curves[1], rtol=1e-12)
    assert np.allclose(curves[0], curves[2], rtol=1e-12)
    assert k4pref[0] > k4pref[1] > k4pref[2]


# ---------------------------------------------------------------------------
# fermionic dot transport
# ---------------------------------------------------------------------------

def test_dot_zero_bias_null():
    leads = [dict(id="L", gamma=0.02, beta=2.5, mu=0.1),
             dict(id="R", gamma=0.07, beta=2.5, mu=0.1)]
    res = dot_transport(0.8, leads)
    assert max(abs(v) for v in res.heat.values()) <= 1e-12 * 0.02
    assert max(abs(v) for v in res.particle.values()) <= 1e-12 * 0.02


def test_dot_heat_energy_particle_identity():
    leads = [dict(id="L", gamma=0.02, beta=2.0, mu=0.15),
             dict(id="R", gamma=0.05, beta=3.5, mu=-0.05)]
    res = dot_transport(0.7, leads)
    for lead in leads:
        rid, mu = lead["id"], lead["mu"]
        assert res.heat[rid] == pytest.approx(res.energy[rid] - mu * res.particle[rid],
                                              rel=1e-14)
    assert res.particle["L"] == pytest.approx(-res.particle["R"], rel=1e-14)


def test_dot_kappa_high_temperature_limit():
    delta, gl, gr = 0.7, 0.02, 0.05
    t = 1e6 * delta
    leads = [dict(id="L", gamma=gl, beta=1.0 / t, mu=0.0),
             dict(id="R", gamma=gr, beta=1.0 / t, mu=0.0)]
    res = dot_transport(delta, leads)
    want = delta**2 * gl * gr / (3.0 * t**2 * (gl + gr))
    assert res.kappa == pytest.approx(want, rel=1e-5)


def test_dot_kappa_vs_finite_difference():
    delta, gl, gr, t = 0.7, 0.02, 0.05, 0.7
    leads = [dict(id="L", gamma=gl, beta=1.0 / t, mu=0.0),
             dict(id="R", gamma=gr, beta=1.0 / t, mu=0.0)]
    kappa = dot_transport(delta, leads).kappa
    dt = 1e-5 * t
    hot = [dict(leads[0], beta=1.0 / (t + dt)), leads[1]]
    cold = [dict(leads[0], beta=1.0 / (t - dt)), leads[1]]
    fd = (dot_transport(delta, hot).heat["R"]
          - dot_transport(delta, cold).heat["R"]) / (2.0 * dt)
    assert kappa == pytest.approx(fd, rel=1e-8)


def test_tls_closed_forms_cold_limit_is_finite_and_silent():
    # omega10/T = 1e6: 1/sinh must not overflow on the way to kappa2 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i2, k2, k4 = tls_closed_forms(1.0, 0.8, 0.5, 1e-3, 1e-6, 1e-6, omega_c=5.0)
    assert k2 == 0.0
    assert i2 == 0.0
    assert k4 == pytest.approx(tls_kappa4(1.0, 0.8, 0.5, 1e-3, 1e-6), rel=1e-15)
    # and it still equals the sinh form where that one is finite
    gl, gr, t = 3e-3, 1e-3, 0.05
    assert tls_kappa2(1.0, gl, gr, t) == pytest.approx(
        gl * gr / (2.0 * t**2 * (gl + gr) * np.sinh(1.0 / t)), rel=1e-14)
