import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from ltrans import currents
from ltrans.baths import bose_signed, dn_dDeltaT_signed
from ltrans.currents import (dot_transport, heat_current_2nd_general,
                             heat_current_2nd_secular, kappa2, kappa2_sweep,
                             kappa4_lowT, partial_secular_state,
                             tls_closed_forms, tls_current, tls_kappa2, tls_kappa4)
from ltrans.linalg import NumericError, ValidationError
from ltrans.model import Reservoir, SpectralDensity, build_junction, stack_models
from ltrans.rabi import RabiParams, build_rabi_junction
from ltrans.redfield import build_current_kernel_2nd, fermion_dot_rates, gamma_rates
from ltrans.steady import full_secular_steady

from junctions import random_junction
from kappa2_oracle import kappa2_fd, kappa2_richardson
from quadrature_oracle import current_kernel_4th_lowT, kappa4_kernel_quadrature


def drude_baths(t_left=1.0, t_right=0.5, alpha=1e-3, omega_c=5.0):
    sd = SpectralDensity(alpha=alpha, omega_c=omega_c)
    return [Reservoir("L", 1.0 / t_left, sd),
            Reservoir("R", 1.0 / t_right, sd)]


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
                                         full_secular_steady(rates_b))["L"])
    assert abs(res["L"]) <= 1e-12 * scale
    assert abs(res["R"]) <= 1e-12 * scale


def test_tls_current_matches_closed_form_grid():
    model = tls_model()
    for t_left in np.linspace(0.3, 1.5, 5):
        for t_right in (0.4, 0.9):
            baths = drude_baths(t_left, t_right)
            rates = gamma_rates(model, baths)
            state = full_secular_steady(rates)
            got = heat_current_2nd_secular(model, rates, state)["R"]
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
    i_l, i_r = res["L"], res["R"]
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
        assert gen == pytest.approx(sec[rid], rel=1e-13)


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


def test_partial_state_currents_are_the_general_currents_of_its_state():
    # the currents come from the kernel's own W tables, bit for bit those
    # that heat_current_2nd_general evaluates for the state
    rng = np.random.default_rng(3)
    model = quasi_degenerate_model(rng)
    baths = drude_baths(1.0, 0.45)
    state, cur = partial_secular_state(model, baths)
    assert (1, 2) in state.retained_pairs
    assert cur == {rid: heat_current_2nd_general(model, baths, rid, state)
                   for rid in ("L", "R")}
    assert cur["L"] != 0.0


@pytest.mark.parametrize("dim", [2, currents._MATMUL_FROM_DIM, 21])
def test_heat_current_is_the_einsum_contraction(dim):
    # -2 Re sum_{m,n,p} Q_mn Q_np Wbar_nm rho_pm, as a plain four-index einsum,
    # on either side of the size from which the p sum is a matmul
    rng = np.random.default_rng(60 + dim)
    model = random_model(rng, dim)
    q = model.q("L")
    w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    wbar = model.bohr_matrix() * w
    want = -2.0 * np.real(np.einsum("mn,np,nm,pm->", q, q, wbar, rho))
    assert currents._wbar_current(q, wbar, rho) == pytest.approx(want, rel=1e-13, abs=0)


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
    from ltrans.steady import partial_secular_steady
    from layout_oracle import retained_layout

    rng = np.random.default_rng(6)
    omega = np.array([0.0, 1.0, 1.02])
    qs = {}
    for rid in ("L", "R"):
        x = rng.standard_normal((3, 3))
        qs[rid] = 0.5 * (x + x.T)
    model = build_junction(omega, qs)
    clusters = retained_layout(3, {(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)})
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
       omega_c=st.sampled_from([0.5, 1.0, 2.0, 5.0, 20.0, 100.0]),
       x=st.floats(1e-4, 1e-2))
def test_kappa4_quadrature_is_the_t_cubed_law_with_its_drude_corrections(
        seed, dim, omega_c, x):
    # the frequency quadrature of w J^2 dn/dT with the Drude J = alpha w /
    # (1 + u^2), u = w / omega_c, expands in x = T / omega_c as the T^3 law
    # times sum_k (-1)^k (k + 1) ((4 + 2k)! zeta(4 + 2k) / (4! zeta(4))) x^2k
    # = 1 - (40 pi^2 / 7) x^2 + 48 pi^4 x^4 - 5.6e5 x^6 ..., on any junction
    # and either measured bath, where T <= 0.03 omega_10
    model = random_junction(seed, dim)
    t = min(x * omega_c, 0.03 * (model.omega[1] - model.omega[0]))
    x = t / omega_c
    want = 1.0 - 40.0 * np.pi**2 / 7.0 * x**2 + 48.0 * np.pi**4 * x**4
    baths = drude_baths(t, t, alpha=1e-3, omega_c=omega_c)
    for rid in ("L", "R"):
        ratio = kappa4_kernel_quadrature(model, baths, t, rid) / kappa4_lowT(model, 1e-3, t)
        # the quadrature's own error, about 1e-10, and twice the x^6 term
        assert abs(ratio - want) <= 2e-10 + 1.2e6 * x**6


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


@pytest.mark.parametrize("models", [1, 2])
def test_kappa4_rejects_a_model_stack(models):
    # omega[1] - omega[0] of a stack would subtract models, not levels
    stack = stack_models([random_junction(seed, 3) for seed in range(models)])
    with pytest.raises(ValidationError, match="one model, not a model stack"):
        kappa4_lowT(stack, 1e-3, 0.01)


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
    # down to omega10/T = 1e6, where the conductance underflows to 0 and
    # must come out as exactly 0
    model = tls_model()
    baths = drude_baths()
    j10 = 1e-3 / (1.0 + 1.0 / 25.0)
    gl = 2 * np.pi * j10 * 0.8**2
    gr = 2 * np.pi * j10 * 0.5**2
    for t in np.geomspace(1e-6, 2.0, 25):
        want = tls_kappa2(1.0, gl, gr, t)
        for solver in ("full", "partial"):
            got = kappa2(model, baths, t, solver=solver)
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), (solver, t)


def test_kappa2_analytic_vs_fd():
    rng = np.random.default_rng(9)
    model = random_model(rng)
    baths = drude_baths()
    for t in (0.3, 0.8):
        ka = kappa2(model, baths, t, solver="full")
        kf = kappa2_fd(model, baths, t, solver="full")
        assert kf == pytest.approx(ka, rel=1e-6)


@pytest.mark.parametrize("lamb_shift", [True, False])
def test_kappa2_partial_matches_fd_oracle(lamb_shift):
    rng = np.random.default_rng(3)
    model = quasi_degenerate_model(rng)
    baths = drude_baths()
    state, _ = partial_secular_state(model, baths, lamb_shift=lamb_shift)
    assert (1, 2) in state.retained_pairs
    for t in (0.3, 0.8):
        got = kappa2(model, baths, t, solver="partial", lamb_shift=lamb_shift)
        want = kappa2_fd(model, baths, t, solver="partial", lamb_shift=lamb_shift)
        assert got == pytest.approx(want, rel=1e-6)
        # the O(step^2) error of the difference is what separates them
        extrapolated = kappa2_richardson(model, baths, t, solver="partial",
                                         lamb_shift=lamb_shift)
        assert got == pytest.approx(extrapolated, rel=1e-10)


@pytest.mark.parametrize("g", [0.02, 0.4])
def test_kappa2_partial_rabi21_matches_richardson_fd(g):
    # the end points of the 21-level partial-secular g sweep of the benchmark;
    # the plain difference at step 1e-4 misses by up to 7e-8 here
    model = build_rabi_junction(RabiParams(epsilon=0.0, delta=0.9, g=g, omega_r=1.0,
                                           fock_cutoff=40, retained_levels=21))
    baths = drude_baths(0.12, 0.08)
    got = kappa2(model, baths, 0.1, solver="partial")
    assert got == pytest.approx(kappa2_richardson(model, baths, 0.1, solver="partial"),
                                rel=1e-10)


def test_kappa2_full_rejects_what_the_rate_equation_cannot_solve():
    baths = drude_baths()
    q = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.3], [0.5, 0.3, 0.0]])
    degenerate = build_junction([0.0, 1.0, 1.0], {"L": q, "R": q})
    with pytest.raises(ValidationError, match="degenerate"):
        kappa2(degenerate, baths, 0.5, solver="full")
    # a coupling above 1e-12 of the largest |Q| is genuine, however small;
    # one at or below it is roundoff of an exact zero, and the pair gets no rate
    for q12, rejected in ((1e-9, True), (1.1e-12, True), (1e-12, False), (1e-14, False)):
        q = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, q12], [0.5, q12, 0.0]])
        model = build_junction([0.0, 1.0, 1.0], {"L": q, "R": 0.5 * q})
        if rejected:
            with pytest.raises(ValidationError, match="levels 1 and 2 are degenerate"):
                kappa2(model, baths, 0.5, solver="full")
        else:
            assert np.isfinite(kappa2(model, baths, 0.5, solver="full"))
    q = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    disconnected = build_junction([0.0, 1.0, 2.0], {"L": q, "R": q})
    with pytest.raises(ValidationError, match="disconnected"):
        kappa2(disconnected, baths, 0.5, solver="full")


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


@pytest.mark.parametrize("solver", ["full", "partial"])
def test_kappa2_response_currents_are_those_of_its_state(solver):
    model = quasi_degenerate_model(np.random.default_rng(3))
    [res] = kappa2_sweep(model, drude_baths(), [0.6], solver=solver)
    common = [b.with_temperature(0.6) for b in drude_baths()]
    if solver == "full":
        want = heat_current_2nd_secular(model, gamma_rates(model, common), res.state)
    else:
        assert (1, 2) in res.state.retained_pairs
        want = {rid: heat_current_2nd_general(model, common, rid, res.state)
                for rid in ("L", "R")}
    assert res.currents == want


def test_kappa2_calls_leave_the_model_as_built():
    # nothing is cached on the model: 20 temperatures, both solvers
    params = RabiParams(epsilon=0.0, delta=0.9, g=0.2, fock_cutoff=30, retained_levels=5)
    model, fresh = build_rabi_junction(params), build_rabi_junction(params)
    baths = drude_baths()
    for t in np.geomspace(0.05, 1.0, 20):
        for solver in ("full", "partial"):
            kappa2(model, baths, t, solver=solver)

    def same(a, b):
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
        return np.array_equal(a, b)

    assert same(vars(model), vars(fresh))


def test_kappa2_validation():
    model = tls_model()
    baths = drude_baths()
    with pytest.raises(ValidationError):
        kappa2(model, baths, -1.0)
    with pytest.raises(ValidationError):
        kappa2(model, baths, 0.5, solver="nope")


@pytest.mark.parametrize("solver", ["full", "partial"])
@pytest.mark.parametrize("c", [-1.0, float("nan")])
def test_kappa2_sweep_rejects_a_negative_cluster_factor_at_once(solver, c):
    # one raise for the whole call, not a failed entry per temperature, and
    # the full solver, which never clusters, rejects it too
    with pytest.raises(ValidationError, match="cluster factor must be >= 0"):
        kappa2_sweep(tls_model(), drude_baths(), [0.3, 0.6], solver=solver, c=c)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(level=st.floats(-2.0, 2.0), gammas=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
       temps=st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
       mus=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), unbiased=st.booleans())
def test_dot_transport_equals_the_rate_equation(level, gammas, temps, mus, unbiased):
    # the closed form against the steady state of fermion_dot_rates: the
    # particle current into a lead is minus the dot charge it changes, and
    # the heat current carries (level - mu) per electron
    if unbiased:
        temps, mus = (temps[0], temps[0]), (mus[0], mus[0])
    leads = [dict(id=rid, gamma=g, beta=1.0 / t, mu=mu)
             for rid, g, t, mu in zip("LR", gammas, temps, mus)]
    got = dot_transport(level, leads)
    rates = fermion_dot_rates(level, leads)
    if not rates.gamma[0, 1:].any():
        # both Fermi factors round to 1: the dot stays full, its spin frozen,
        # and every split of up and down is stationary
        with pytest.raises(NumericError, match="not unique"):
            full_secular_steady(rates)
        assert got.particle == {"L": 0.0, "R": 0.0}
        return
    p = full_secular_steady(rates).populations
    charge = np.array([0.0, 1.0, 1.0])
    floor = 1e-13 * max(gammas)
    for lead in leads:
        particle = -charge @ rates.per_reservoir[lead["id"]] @ p
        heat = (level - lead["mu"]) * particle
        assert got.particle[lead["id"]] == pytest.approx(particle, rel=1e-12, abs=floor)
        assert got.heat[lead["id"]] == pytest.approx(heat, rel=1e-12, abs=floor)


def test_dot_transport_rejects_a_negative_gamma():
    # the rate matrix's own check, with its message
    for gammas in ((-0.02, 0.01), (0.01, -0.02)):
        leads = [dict(id=rid, gamma=g, beta=2.0, mu=0.0) for rid, g in zip("LR", gammas)]
        for solve in (dot_transport, fermion_dot_rates):
            with pytest.raises(ValidationError, match="^lead gamma must be >= 0$"):
                solve(0.5, leads)


def test_dot_transport_rejects_a_dot_coupled_to_no_lead():
    # the currents and kappa would divide 0 by 0
    leads = [dict(id=rid, gamma=0.0, beta=2.0, mu=0.0) for rid in "LR"]
    with pytest.raises(ValidationError, match="^the dot is coupled to no lead"):
        dot_transport(0.5, leads)


@pytest.mark.parametrize("level", [0.5, -0.5, 1e-3])
def test_dot_transport_cold_limit_is_finite_and_silent(level):
    # (level - mu) / T up to 5e5: 1/cosh^2 must not overflow on the way to kappa = 0
    leads = [dict(id="L", gamma=0.02, beta=1e6, mu=0.0),
             dict(id="R", gamma=0.05, beta=1e6, mu=0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dot_transport(level, leads)
    assert 0.0 <= res.kappa < 1e-300
    # and it still equals the cosh form where that one is finite
    t, gl, gr = 0.05, 0.02, 0.05
    leads = [dict(id="L", gamma=gl, beta=1.0 / t, mu=0.1),
             dict(id="R", gamma=gr, beta=1.0 / t, mu=0.1)]
    e = level - 0.1
    f = 1.0 / (np.exp(e / t) + 1.0)
    want = e**2 / (2.0 * t**2) * gl * gr / (gl + gr) / ((1.0 + f) * np.cosh(0.5 * e / t)**2)
    assert dot_transport(level, leads).kappa == pytest.approx(want, rel=1e-13)


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
