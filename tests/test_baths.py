import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ltrans.baths import (_trigamma, bose_signed, dn_dDeltaT, dn_dDeltaT_signed,
                          dw_dt_table, fermi_pv_integral, matsubara_sums, occupation,
                          spectral_density, w_rate, w_rate_matsubara_oracle,
                          w_rate_pv_oracle, w_rate_real, w_rate_real_resummed, w_table,
                          wbar_rate, wbar_table)
from ltrans.linalg import NumericError, ValidationError
from ltrans.model import Reservoir, SpectralDensity


def drude_bath(beta, alpha=1e-3, omega_c=5.0, rid="L"):
    return Reservoir(rid, "bose", beta, 0.0, SpectralDensity(alpha, omega_c))


# ---------------------------------------------------------------------------
# occupation
# ---------------------------------------------------------------------------

def test_bose_log2_point():
    beta = np.log(2.0)
    assert abs(occupation("bose", 1.0, beta) - 1.0) < 1e-14


def test_fermi_half_filling():
    assert occupation("fermi", 0.3, 2.0, mu=0.3) == 0.5


def test_bose_identity():
    n_plus = occupation("bose", 0.3, 1.0)
    n_minus = occupation("bose", 0.3, 1.0, p=-1)
    assert abs(n_minus - n_plus - 1.0) < 1e-15


def test_bose_domain_error():
    with pytest.raises(ValidationError):
        occupation("bose", -0.5, 1.0)
    with pytest.raises(ValidationError):
        occupation("bose", 0.0, 1.0)


def test_fermi_bounds_and_bose_positive():
    for x in (-40.0, -1.0, 0.0, 1.0, 40.0, 2000.0):
        f = occupation("fermi", x, 1.0)
        assert 0.0 <= f <= 1.0
    assert occupation("bose", 1e-6, 1.0) > 0


def test_kms_detailed_balance():
    for bw in np.geomspace(1e-3, 30.0, 25):
        n = occupation("bose", bw, 1.0)
        assert abs(n / (1.0 + n) - np.exp(-bw)) < 1e-13


def test_bose_signed_continuation():
    for w in (0.2, 1.7, 9.0):
        assert abs(bose_signed(-w, 2.0) + 1.0 + bose_signed(w, 2.0)) < 1e-14
    assert bose_signed(1e6, 1.0) == 0.0
    assert bose_signed(-1e6, 1.0) == -1.0


# ---------------------------------------------------------------------------
# spectral density
# ---------------------------------------------------------------------------

def test_drude_special_points():
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    assert spectral_density(sd, 5.0) == pytest.approx(1e-3 * 5.0 / 2.0, rel=0, abs=0)
    assert spectral_density(sd, 0.0) == 0.0


def test_drude_odd_exact():
    sd = SpectralDensity(alpha=2e-2, omega_c=3.0)
    for w in (0.1, 1.0, 7.7):
        assert spectral_density(sd, -w) == -spectral_density(sd, w)


def test_drude_slope_and_bound():
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    h = 1e-6
    slope = (sd.value(h) - sd.value(-h)) / (2.0 * h)
    assert abs(slope - sd.alpha) < 1e-9
    ws = np.linspace(-100, 100, 4001)
    assert np.max(np.abs(sd.value(ws))) <= sd.alpha * sd.omega_c / 2.0 + 1e-18


# ---------------------------------------------------------------------------
# W rates
# ---------------------------------------------------------------------------

def test_w_rate_resonant_piece_paper_point():
    # alpha=1e-3, omega_c=5, beta=10, omega=1: Re W = pi*(1e-3/1.04)/(e^10 - 1)
    bath = drude_bath(beta=10.0)
    want = np.pi * (1e-3 / 1.04) / np.expm1(10.0)
    got = w_rate(1.0, bath).real
    assert abs(got - want) < 1e-12 * want


def test_w_rate_zero_frequency_limit():
    bath = drude_bath(beta=3.0)
    assert w_rate(0.0, bath).real == pytest.approx(np.pi * 1e-3 / 3.0, rel=1e-13)


def test_w_rate_vs_pv_oracle_single_point():
    bath = drude_bath(beta=5.0)
    got = w_rate(0.7, bath)
    ref, err = w_rate_pv_oracle(0.7, bath)
    assert abs(got - ref) <= 1e-8 * abs(ref)


def test_w_rate_vs_pv_oracle_grid():
    # 20-point (beta, omega) grid at alpha=1e-3, omega_c=5
    betas = (0.7, 2.0, 5.0, 8.0)
    omegas = (-2.4, -0.6, 0.31, 1.0, 2.9)
    for beta in betas:
        bath = drude_bath(beta=beta)
        for w in omegas:
            got = w_rate(w, bath)
            ref, _ = w_rate_pv_oracle(w, bath)
            assert abs(got - ref) <= 1e-6 * abs(ref), (beta, w)


def test_w_rate_real_identity_and_resummed():
    bath = drude_bath(beta=2.3)
    scale = np.pi * 1e-3 * 5.0
    for w in (-1.8, -0.2, 0.0, 0.45, 2.2):
        direct = w_rate_real(w, bath)
        ref = (np.pi * bath.spectral.value(w) * bose_signed(w, bath.beta)
               if w != 0.0 else np.pi * 1e-3 / 2.3)
        assert abs(direct - ref) <= 1e-12 * max(abs(ref), 1e-300)
        assert abs(w_rate_real_resummed(w, bath) - ref) <= 1e-11 * scale


def test_w_rate_rejects_fermi():
    lead = Reservoir("L", "fermi", 2.0, 0.0, None)
    with pytest.raises(ValidationError):
        w_rate(1.0, lead)


def test_w_rate_at_matsubara_collision():
    # omega_c exactly on nu_1 = 2 pi / beta, and just off it: W has no pole
    # there, and the closed form stays as accurate as anywhere else
    omega_c = 5.0
    for offset in (0.0, 1e-8, 1e-7):
        bath = drude_bath(beta=2.0 * np.pi / omega_c * (1.0 + offset))
        got = w_rate(1.0, bath)
        ref, _ = w_rate_pv_oracle(1.0, bath)
        assert abs(got - ref) <= 1e-10 * abs(ref), offset


def test_matsubara_oracle_raises_at_collision():
    with pytest.raises(NumericError):
        w_rate_matsubara_oracle(1.0, drude_bath(beta=2.0 * np.pi / 5.0))


def _collision_distance(beta, omega_c):
    """Relative distance of omega_c from the nearest Matsubara frequency."""
    x = beta * omega_c / (2.0 * np.pi)
    return abs(x - max(1, round(x))) / x


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.3, 50.0), omega_c=st.floats(0.5, 10.0),
       omegas=st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=6))
def test_w_table_matches_matsubara_series(beta, omega_c, omegas):
    # the series' own rounding error grows like eps / d^2 at relative distance
    # d from a collision (1e-10 at d = 1e-3); the collision itself is covered
    # against the PV oracle above
    assume(_collision_distance(beta, omega_c) >= 1e-3)
    bath = drude_bath(beta=beta, omega_c=omega_c)
    table = w_table(np.array(omegas), bath)
    for w, got in zip(omegas, table):
        ref = w_rate_matsubara_oracle(w, bath)
        assert abs(got - ref) <= 1e-9 * abs(ref), w
        assert got == pytest.approx(w_rate(w, bath), rel=1e-14, abs=0.0)
        assert w * got == pytest.approx(wbar_rate(w, bath), rel=1e-14, abs=0.0)


def test_w_table_shape_and_wbar():
    bath = drude_bath(beta=1.7)
    bohr = np.array([[0.0, -0.8], [0.8, 0.0]])
    w = w_table(bohr, bath)
    assert w.shape == bohr.shape and w.dtype == complex
    assert np.array_equal(wbar_table(bohr, bath), bohr * w)
    assert w[0, 0] == w[1, 1] == w_rate(0.0, bath)


def test_w_table_cold_bath_is_finite():
    # beta = 1e6: the Matsubara series would need ~1e7 terms here
    bath = drude_bath(beta=1e6)
    w = w_table(np.array([-1.04, -1e-7, 0.0, 1e-3, 1.04]), bath)
    assert np.all(np.isfinite(w))
    assert w[-1].real == 0.0
    assert w[0].real == pytest.approx(np.pi * 1e-3 * 1.04 / (1 + 1.04**2 / 25.0),
                                      rel=1e-14)


def test_trigamma_matches_mpmath():
    ys = np.concatenate([[0.0], np.geomspace(1e-8, 1e5, 120)])
    got = _trigamma(1.0 + 1j * ys)
    with mpmath.workdps(30):
        for y, g in zip(ys, got):
            ref = complex(mpmath.psi(1, mpmath.mpc(1, y)))
            assert abs(g - ref) <= 1e-14 * abs(ref), y
    assert _trigamma(np.ones((2, 3))).shape == (2, 3)
    assert _trigamma(1.0) == pytest.approx(np.pi**2 / 6, rel=1e-15)


def _w_mp(omega, temperature, alpha=1e-3, omega_c=5.0):
    """W(omega) at bath temperature T in the digamma closed form, in mpmath."""
    w, t, wc = mpmath.mpf(omega), mpmath.mpf(temperature), mpmath.mpf(omega_c)
    slope = alpha / (1 + (w / wc)**2)
    re = mpmath.pi * slope * (t if w == 0 else w / mpmath.expm1(w / t))
    x, y = wc / (2 * mpmath.pi * t), w / (2 * mpmath.pi * t)
    bracket = mpmath.digamma(x) + 1 / (2 * x) - mpmath.re(mpmath.digamma(1 + 1j * y))
    return mpmath.mpc(re, slope * (w * bracket - mpmath.pi / 2 * wc))


@pytest.mark.parametrize("temperature", [1e-6, 2.6e-3, 0.05, 0.5, 2.0])
def test_dw_dt_table_matches_mpmath_derivative(temperature):
    omegas = np.array([-3.0, -1.04, -1e-3, 0.0, 1e-5, 0.3, 1.04, 2.0, 7.0])
    got = dw_dt_table(omegas, drude_bath(beta=1.0 / temperature))
    with mpmath.workdps(40):
        ref = np.array([complex(mpmath.diff(lambda t: _w_mp(w, t), temperature))
                        for w in omegas])
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
    # Re dW/dT = pi J(w) dn/dT, which tends to pi*alpha at w = 0
    assert got[3] == pytest.approx(np.pi * 1e-3, rel=1e-15)
    assert got.real == pytest.approx(np.pi * 1e-3 / (1 + (omegas / 5.0)**2) * omegas
                                     * dn_dDeltaT_signed(omegas, temperature)
                                     + np.where(omegas == 0.0, np.pi * 1e-3, 0.0),
                                     rel=1e-13, abs=0.0)


def test_dw_dt_imag_bracket_keeps_relative_accuracy_on_cold_baths():
    # the bracket of Im dW/dT is the difference of two halves that tend to
    # -1 and +1 on a cold bath; it must keep its relative accuracy anyway
    omegas = np.array([-7.0, -1.044, 1e-4, 0.3, 1.044, 7.0, 40.0])
    slope = 1e-3 / (1 + (omegas / 5.0)**2)
    for t in np.geomspace(1e-6, 2.0, 25):
        got = dw_dt_table(omegas, drude_bath(beta=1.0 / t)).imag * t / (slope * omegas)
        with mpmath.workdps(40):
            x = 5.0 / (2 * mpmath.pi * t)
            ref = [float(1 / (2 * x) - x * mpmath.psi(1, x)
                         - y * mpmath.im(mpmath.psi(1, 1 + 1j * y)))
                   for y in (mpmath.mpf(w) / (2 * mpmath.pi * t) for w in omegas)]
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-12, t


def test_matsubara_tail_doubling():
    s2a, s3a = matsubara_sums(0.7, 5.0, 4.0, n_terms=128)
    s2b, s3b = matsubara_sums(0.7, 5.0, 4.0, n_terms=256)
    assert abs(s2a - s2b) <= 1e-12
    assert abs(s3a - s3b) <= 1e-12


def test_wbar_rate():
    bath = drude_bath(beta=4.0)
    assert wbar_rate(0.0, bath) == 0.0
    w = 0.3
    assert abs(wbar_rate(w, bath) / w_rate(w, bath) - w) < 1e-12


# ---------------------------------------------------------------------------
# dn/dDeltaT
# ---------------------------------------------------------------------------

def test_dn_ddt_direct_point():
    # beta*omega = 2 at T = 1: omega = 2 -> omega/(4 sinh^2(1))
    want = 2.0 / (4.0 * np.sinh(1.0) ** 2)
    assert dn_dDeltaT(2.0, 1.0) == pytest.approx(want, rel=1e-14)


def test_dn_ddt_underflow():
    assert dn_dDeltaT(3000.0, 1.0) == 0.0
    assert dn_dDeltaT(1400.0, 1.0) >= 0.0


def test_dn_ddt_finite_difference():
    omega, t = 0.9, 0.7
    h = 1e-5 * t
    fd = (bose_signed(omega, 1.0 / (t + h)) - bose_signed(omega, 1.0 / (t - h))) / (2 * h)
    assert abs(fd - dn_dDeltaT(omega, t)) <= 1e-8 * abs(fd)


def test_dn_ddt_signed_array_form():
    # one call over a Bohr matrix: odd, 0 at omega = 0, elementwise equal to
    # the scalar form, and silent where sinh^2 would overflow
    omegas = np.array([[0.0, -0.9, 3000.0], [0.9, -3000.0, 1e-9], [-2.0, 2.0, 0.0]])
    with np.errstate(all="raise", under="ignore"):
        got = dn_dDeltaT_signed(omegas, 0.7)
    assert got.shape == omegas.shape
    for w, g in zip(omegas.ravel(), got.ravel()):
        want = 0.0 if w == 0.0 else np.sign(w) * dn_dDeltaT(abs(w), 0.7)
        assert g == pytest.approx(want, rel=1e-15, abs=0.0)
    assert np.array_equal(dn_dDeltaT_signed(-omegas, 0.7), -got)
    assert dn_dDeltaT_signed(0.9, 0.7) == dn_dDeltaT(0.9, 0.7)
    assert dn_dDeltaT_signed(2.0, 1.0) == pytest.approx(2.0 / (4.0 * np.sinh(1.0)**2),
                                                         rel=1e-14)


def test_dn_ddt_validation():
    with pytest.raises(ValidationError):
        dn_dDeltaT(-1.0, 1.0)


# ---------------------------------------------------------------------------
# the fermionic lead integral
# ---------------------------------------------------------------------------

def test_fermi_pv_integral_at_mu():
    gamma_e = 0.5772156649015328606
    t, wband = 0.3, 500.0
    got = fermi_pv_integral(0.0, 0.0, t, wband)
    assert got.real == pytest.approx(-gamma_e - 2 * np.log(2) - np.log(wband / (2 * np.pi * t)),
                                     abs=1e-12)
    assert got.imag == pytest.approx(-np.pi / 2, abs=1e-13)


def test_fermi_pv_imaginary_identity():
    t = 0.4
    e = 3.0 * t
    got = fermi_pv_integral(e, 0.0, t, 100.0)
    f = occupation("fermi", e, 1.0 / t)
    assert abs(got.imag + np.pi * f) < 1e-10


def pv_reference(e, mu, t, wband):
    """Finite-bandwidth PV integral with analytic far tails (f=1 / f=0)."""

    def f(x):
        return occupation("fermi", x, 1.0 / t, mu=mu)

    lo_edge, hi_edge = mu - 60.0 * t, mu + 60.0 * t
    d = 0.5 * t
    mid, _ = quad(lambda s: (f(e + s) - f(e - s)) / s, 1e-14, d, limit=200)
    lo, _ = quad(lambda x: f(x) / (x - e), lo_edge, e - d, limit=400)
    hi, _ = quad(lambda x: f(x) / (x - e), e + d, hi_edge, limit=400)
    tail = np.log((e - lo_edge) / (wband + e))     # f = 1 below lo_edge
    return mid + lo + hi + tail


def test_fermi_pv_vs_quadrature():
    t, mu, e = 0.5, 0.1, 0.1 + 0.75
    # wide-band limit: agreement to 1e-6 once W dwarfs (E - mu)
    wband = 1e7 * t
    got = fermi_pv_integral(e, mu, t, wband)
    ref = pv_reference(e, mu, t, wband)
    assert abs(got.real - ref) < 1e-6 * abs(ref)

    # finite W = 1000 T: the wide-band form is off by the O((E-mu)/W) edge term
    wband = 1000.0 * t
    got = fermi_pv_integral(e, mu, t, wband)
    ref = pv_reference(e, mu, t, wband)
    edge = (abs(e - mu) + abs(mu) + t) / wband
    assert abs(got.real - ref) < 3.0 * edge
    # with the band centered on the physics (mu = 0, E ~ 0) the edge term is
    # gone at the 1e-6 level even for W = 1e3 T
    e2 = 1e-3 * t
    got2 = fermi_pv_integral(e2, 0.0, t, wband)
    ref2 = pv_reference(e2, 0.0, t, wband)
    assert abs(got2.real - ref2) < 1e-6 * abs(ref2)

    def f(x):
        return occupation("fermi", x, 1.0 / t, mu=mu)

    assert abs(got.imag + np.pi * f(e)) < 1e-10
