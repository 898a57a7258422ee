"""Occupation functions and bath correlation rates.

The central objects are the one-sided Fourier transforms W(omega_nm) of the
bath coupling-operator correlation function, evaluated for an Ohmic-Drude
spectral density.  `w_table` evaluates W over a whole array of Bohr
frequencies in closed form: Re W = pi J n, and Im W is the digamma
resummation of its Matsubara series, which has no pole where omega_c meets a
Matsubara frequency; `dw_dt_table` is its temperature derivative, with the
trigamma function in place of the digamma.  The Matsubara series itself
(direct summation plus an analytic Hurwitz-zeta tail) and a principal-value
quadrature of the same quantity are kept as test oracles; no production path
calls them.

All rates are returned with hbar = 1, i.e. the hbar^2 prefactor of the raw
correlation integral is divided out once and for all.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import digamma, polygamma, zeta

from .linalg import ValidationError, NumericError
from .model import Reservoir, SpectralDensity

__all__ = ["occupation", "bose_signed", "spectral_density", "w_table", "wbar_table",
           "dw_dt_real", "dw_dt_table",
           "w_rate", "wbar_rate", "w_rate_real", "w_rate_real_resummed",
           "w_rate_matsubara_oracle", "w_rate_pv_oracle", "dn_dDeltaT",
           "dn_dDeltaT_signed", "fermi_pv_integral", "matsubara_sums"]

MATSUBARA_ATOL = 1e-12
MATSUBARA_MAX_TERMS = 10**6
_EXP_BIG = 700.0


# ---------------------------------------------------------------------------
# occupation numbers
# ---------------------------------------------------------------------------

def occupation(statistics: str, omega: float, beta: float, mu: float = 0.0,
               p: int = +1, nu: int = +1) -> float:
    """Thermal occupation factor n^{p*nu} of a reservoir mode.

    For p*nu = +1 this is the Bose/Fermi function itself; for p*nu = -1 it is
    1 + n (bose) or 1 - f (fermi).  The Bose branch requires omega > 0; the
    omega -> 0 pole is the caller's responsibility.
    """
    if not beta > 0:
        raise ValidationError("beta must be positive")
    pnu = p * nu
    if pnu not in (+1, -1):
        raise ValidationError("p and nu must be +-1")
    x = beta * (omega - mu)
    if statistics == "fermi":
        # logistic form is overflow-safe for any x
        f = 0.5 * (1.0 - np.tanh(0.5 * x))
        return float(f if pnu == +1 else 1.0 - f)
    if statistics == "bose":
        if mu != 0.0:
            raise ValidationError("bosonic occupation requires mu = 0")
        if omega <= 0.0 and pnu == +1:
            raise ValidationError("Bose occupation needs omega > 0 for p*nu = +1")
        if pnu == +1:
            n = 0.0 if x > _EXP_BIG else 1.0 / np.expm1(x)
        else:
            # 1 + n(omega); valid for omega > 0 and, by continuation, omega < 0
            n = 1.0 if x > _EXP_BIG else 1.0 + 1.0 / np.expm1(x)
        return float(n)
    raise ValidationError(f"unknown statistics {statistics!r}")


def bose_signed(omega, beta: float):
    """Bose function 1/(exp(beta*omega) - 1) continued to omega < 0.

    The continuation obeys n(-omega) = -(1 + n(omega)); together with an odd
    spectral density it gives a single expression for absorption and emission
    rates.  omega = 0 is a pole and must be handled by the caller.
    """
    x = np.asarray(beta * np.asarray(omega, dtype=float))
    with np.errstate(over="ignore"):
        out = np.where(np.abs(x) > _EXP_BIG, np.where(x > 0, 0.0, -1.0),
                       1.0 / np.expm1(np.where(np.abs(x) > _EXP_BIG, 1.0, x)))
    return out if out.ndim else float(out)


def spectral_density(j: SpectralDensity, omega):
    """J(omega) with the odd extension to negative frequencies."""
    return j.value(omega)


# ---------------------------------------------------------------------------
# closed-form W table (production path)
# ---------------------------------------------------------------------------

def _drude_params(bath: Reservoir) -> SpectralDensity:
    if bath.statistics != "bose":
        raise ValidationError(
            "w_rate supports bosonic reservoirs only; use fermi_pv_integral")
    if not isinstance(bath.spectral, SpectralDensity):
        raise ValidationError("bosonic reservoir needs an Ohmic-Drude spectral density")
    return bath.spectral


def _w_real(w: np.ndarray, sd: SpectralDensity, beta: float) -> np.ndarray:
    """pi * J(w) * n(w), written as pi (J(w)/w) / beta * x / expm1(x) with x = beta w.

    x / expm1(x) is smooth through x = 0, where it is 1 (so W tends to
    pi*alpha/beta), and is set to 0 beyond x = _EXP_BIG, where expm1
    overflows and x n(x) < e^{-700}.
    """
    x = beta * w
    cold = x > _EXP_BIG
    safe = np.where(cold | (x == 0.0), 1.0, x)
    ratio = np.where(x == 0.0, 1.0, np.where(cold, 0.0, safe / np.expm1(safe)))
    return np.pi * sd.slope_at(w) / beta * ratio


def _w_imag(w: np.ndarray, sd: SpectralDensity, beta: float) -> np.ndarray:
    """PV int J(w') n(w') / (w' - w) dw' in closed form.

    Im W = J(w) [psi(x) + 1/(2x) - Re psi(1 + i y)] - (pi/2) (J(w)/w) omega_c
    with x = beta omega_c / 2 pi and y = beta w / 2 pi.  This resums the Drude
    Matsubara expansion (Ishizaki and Tanimura, J. Phys. Soc. Jpn. 74, 3131
    (2005)); the cot(beta omega_c / 2) pole of the series cancels against
    psi(1 - x) through the reflection formula, so nothing is singular at a
    Matsubara collision omega_c = 2 pi k / beta.
    """
    x = beta * sd.omega_c / (2.0 * np.pi)
    y = beta * w / (2.0 * np.pi)
    bracket = digamma(x) + 0.5 / x - digamma(1.0 + 1j * y).real
    slope = sd.slope_at(w)
    return slope * (w * bracket - 0.5 * np.pi * sd.omega_c)


def w_table(omega, bath: Reservoir) -> np.ndarray:
    """Bath correlation rate W(omega) over an array of Bohr frequencies.

    Ohmic-Drude bosonic bath.  Real part: pi*J(omega)*n(omega), continued
    through omega = 0 where it tends to pi*alpha/beta.  Imaginary part: the
    principal value of the same integrand, in the digamma closed form of
    `_w_imag`.  Returns a complex array of the shape of `omega`.
    """
    sd = _drude_params(bath)
    w = np.asarray(omega, dtype=float)
    return _w_real(w, sd, bath.beta) + 1j * _w_imag(w, sd, bath.beta)


# argument from which the Bernoulli series to B_14 replaces the direct form;
# at 12 both are within 1e-13 relative
_ASYMPTOTIC_FROM = 12.0


def _bernoulli_sum(u):
    """sum_k B_2k u^k for k = 1..7 (B_2 to B_14), by Horner's rule."""
    total = 0.0
    for b in (7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6, 0):
        total = total * u + b
    return total


def _trigamma(z) -> np.ndarray:
    """psi'(z) for complex z with Re z >= 1, elementwise (polygamma is real-only).

    Ten steps of psi'(z) = 1/z^2 + psi'(z + 1) in one broadcast, then
    psi'(w) ~ 1/w + 1/(2w^2) + sum_k B_2k / w^(2k+1) to B_14 (error < 1e-17).
    """
    z = np.asarray(z, dtype=complex)
    w = z + 10.0
    u = 1.0 / (w * w)
    series = _bernoulli_sum(u)
    head = np.sum((z + np.arange(10.0).reshape((-1,) + (1,) * z.ndim))**-2, axis=0)
    return head + (1.0 + series) / w + 0.5 * u


def dw_dt_real(omega, bath: Reservoir) -> np.ndarray:
    """Re dW/dT = pi J(w) dn/dT over an array of frequencies; pi*alpha at w = 0."""
    sd = _drude_params(bath)
    w = np.asarray(omega, dtype=float)
    dn = dn_dDeltaT_signed(w, bath.temperature)
    return np.pi * sd.slope_at(w) * np.where(w == 0.0, 1.0, w * dn)


def dw_dt_table(omega, bath: Reservoir) -> np.ndarray:
    """dW/dT, the bath-temperature derivative of `w_table`, over an array of frequencies.

    Re: `dw_dt_real`.  Im: the derivative of `_w_imag`,
    (J(w)/T) [1/(2x) - x psi'(x) - y Im psi'(1 + i y)] with
    x = omega_c / (2 pi T) and y = w / (2 pi T).  On a cold bath the two
    halves of the bracket tend to -1 and +1, so each is taken as its
    remainder: 1/(2x) - x psi'(x) + 1 = -sum_k B_2k x^-2k and
    1 + y Im psi'(1 + i y) = -sum_k B_2k (-y^2)^-k, summed as series where the
    argument is at least `_ASYMPTOTIC_FROM`.
    """
    sd = _drude_params(bath)
    w = np.asarray(omega, dtype=float)
    t = bath.temperature
    x, y = sd.omega_c / (2.0 * np.pi * t), w / (2.0 * np.pi * t)
    if x >= _ASYMPTOTIC_FROM:
        rest_x = -_bernoulli_sum(x**-2)
    else:
        rest_x = 1.0 + 0.5 / x - x * polygamma(1, x)
    rest_y = 1.0 + y * _trigamma(1.0 + 1j * y).imag
    y2 = y * y
    far = y2 >= _ASYMPTOTIC_FROM**2
    if far.any():
        rest_y = np.where(far, -_bernoulli_sum(-1.0 / np.where(far, y2, 1.0)), rest_y)
    return dw_dt_real(w, bath) + 1j * sd.value(w) / t * (rest_x - rest_y)


def wbar_table(omega, bath: Reservoir) -> np.ndarray:
    """Energy-weighted rate omega * W(omega) over an array of Bohr frequencies.

    The formally divergent zero-time correlation term i*<B(0)B(0)> is omitted:
    it multiplies Im Tr(Q^2 rho) in the heat current, which vanishes for
    Hermitian rho, so dropping it realizes the cancellation structurally.
    """
    w = np.asarray(omega, dtype=float)
    return w * w_table(w, bath)


def w_rate(omega_nm: float, bath: Reservoir) -> complex:
    """W(omega_nm) at a single Bohr frequency; see `w_table`."""
    return complex(w_table(float(omega_nm), bath))


def wbar_rate(omega_nm: float, bath: Reservoir) -> complex:
    """omega_nm * W(omega_nm) at a single Bohr frequency; see `wbar_table`."""
    return complex(wbar_table(float(omega_nm), bath))


def w_rate_real(omega_nm: float, bath: Reservoir) -> float:
    """Resonant (absorption/emission) part of W: pi * J(w) * n(w).

    The signed continuation through w = 0 uses the odd spectral density and
    the continued Bose function; the limit at w = 0 is pi*alpha/beta.  This
    golden-rule form is exact: the Matsubara resummation of the same quantity
    (w_rate_real_resummed) telescopes onto it analytically, but suffers
    cancellation at large beta*w, so the direct form is authoritative.
    """
    return float(_w_real(np.asarray(float(omega_nm)), _drude_params(bath), bath.beta))


# ---------------------------------------------------------------------------
# Matsubara-series oracle (test-only path)
# ---------------------------------------------------------------------------

def matsubara_sums(omega: float, omega_c: float, beta: float,
                   atol: float = MATSUBARA_ATOL,
                   n_terms: int | None = None) -> tuple[float, float]:
    """Sums over Matsubara frequencies nu_k = 2*pi*k/beta entering W.

        S2 = sum_k nu_k^2 / ((omega_c^2 - nu_k^2)(omega^2 + nu_k^2))
        S3 = sum_k nu_k   / ((omega_c^2 - nu_k^2)(omega^2 + nu_k^2))

    Direct summation up to an adaptively chosen cutoff, then Hurwitz-zeta
    tail corrections for the 1/nu^2 .. 1/nu^9 asymptotics.  The truncation
    error estimate (last tail order retained) is kept below atol.  Test
    oracle for `w_table`: the terms diverge where omega_c meets a Matsubara
    frequency, and the cutoff grows like beta.
    """
    eta = 2.0 * np.pi / beta
    scale = max(abs(omega), omega_c)
    # pole guard: omega_c sitting on a Matsubara frequency
    k_near = int(round(omega_c / eta))
    if k_near >= 1 and abs(k_near * eta - omega_c) < 1e-9 * omega_c:
        raise NumericError(
            "omega_c collides with Matsubara frequency "
            f"nu_{k_near} = {k_near * eta:.12g}; nudge the temperature")

    z = beta / (2.0 * np.pi)
    c1 = omega_c**2 - omega**2
    c2 = omega_c**4 - omega_c**2 * omega**2 + omega**4
    c3 = omega_c**6 - omega_c**4 * omega**2 + omega_c**2 * omega**4 - omega**6
    c4 = (omega_c**8 - omega_c**6 * omega**2 + omega_c**4 * omega**4
          - omega_c**2 * omega**6 + omega**8)

    fixed_n = n_terms is not None
    if n_terms is None:
        n_terms = max(64, int(np.ceil(8.0 * scale / eta)))
    while True:
        if n_terms > MATSUBARA_MAX_TERMS:
            raise NumericError(
                f"Matsubara sum needs more than {MATSUBARA_MAX_TERMS} terms")
        nu = eta * np.arange(1, n_terms + 1)
        den = (omega_c**2 - nu**2) * (omega**2 + nu**2)
        s2 = float(np.sum(nu**2 / den))
        s3 = float(np.sum(nu / den))
        # analytic tails: term_k ~ -(1/nu^2)[1 + c1/nu^2 + c2/nu^4 + ...]
        a = n_terms + 1
        t2 = -(z**2 * zeta(2, a) + z**4 * c1 * zeta(4, a)
               + z**6 * c2 * zeta(6, a) + z**8 * c3 * zeta(8, a))
        t3 = -(z**3 * zeta(3, a) + z**5 * c1 * zeta(5, a)
               + z**7 * c2 * zeta(7, a) + z**9 * c3 * zeta(9, a))
        err = (z**10 * c4 * zeta(10, a)) + (z**11 * c4 * zeta(11, a))
        if fixed_n or abs(err) <= atol * max(1.0, abs(s2 + t2), abs(s3 + t3)):
            return s2 + t2, s3 + t3
        n_terms *= 2


def _cot_half(beta: float, omega_c: float) -> float:
    half_arg = 0.5 * beta * omega_c
    if abs(np.sin(half_arg)) < 1e-12:
        raise NumericError("cot(beta*omega_c/2) pole; nudge the temperature")
    return np.cos(half_arg) / np.sin(half_arg)


def w_rate_matsubara_oracle(omega_nm: float, bath: Reservoir,
                            atol: float = MATSUBARA_ATOL) -> complex:
    """W(omega_nm) from its Matsubara series: cot(beta*omega_c/2) terms plus S2, S3.

    Analytically identical to `w_table` and independent of its digamma closed
    form, which it checks.  Numerically Re W loses relative accuracy where it
    is exponentially small, and both parts lose accuracy as omega_c nears a
    Matsubara frequency, where the cot term and the series diverge.
    """
    sd = _drude_params(bath)
    alpha, omega_c, beta = sd.alpha, sd.omega_c, bath.beta
    w = float(omega_nm)
    s2, s3 = matsubara_sums(w, omega_c, beta, atol=atol)
    cot = _cot_half(beta, omega_c)
    pref = 2.0 * np.pi * alpha * omega_c**2 / beta
    re = (0.5 * np.pi * sd.slope_at(w) * omega_c * cot
          - 0.5 * np.pi * sd.value(w) - pref * s2)
    im = (-0.5 * np.pi * sd.value(w) * cot
          - 0.5 * np.pi * sd.slope_at(w) * omega_c + pref * w * s3)
    return complex(re, im)


def w_rate_real_resummed(omega_nm: float, bath: Reservoir,
                         atol: float = MATSUBARA_ATOL) -> float:
    """Re W from the Matsubara series; see `w_rate_matsubara_oracle`."""
    return w_rate_matsubara_oracle(omega_nm, bath, atol=atol).real


# ---------------------------------------------------------------------------
# principal-value quadrature oracle (test-only path)
# ---------------------------------------------------------------------------

def w_rate_pv_oracle(omega_nm: float, bath: Reservoir, lam: float = 1e-6,
                     epsabs: float = 1e-13) -> tuple[complex, float]:
    """Direct numerical evaluation of W(omega_nm) at small finite lam.

    Real part via the Lorentzian representation of the delta function,
    imaginary part via symmetric principal-value quadrature around the
    resonance.  Returns (value, error_bound).  Used to validate w_table.
    """
    sd = _drude_params(bath)
    alpha, omega_c, beta = sd.alpha, sd.omega_c, bath.beta
    w0 = float(omega_nm)

    def f(w):
        # J(w) * n(w) continued through w = 0 (-> alpha/beta)
        if abs(beta * w) < 1e-8:
            return sd.slope_at(w) / beta * (1.0 - 0.5 * beta * w)
        return sd.value(w) * bose_signed(w, beta)

    errs = []

    def _quad(*args, **kwargs):
        # the convergence heuristic misfires on the u-substituted Lorentzian;
        # the explicit error bound below is what gates the result
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(*args, **kwargs)

    def lorentzian_re(width):
        # int f(w) * width / (width^2 + (w-w0)^2) / pi ... times pi absorbed:
        # substitution u = (w-w0)/width plus explicit outer wings
        u_max = 1e5
        val, err = _quad(lambda u: f(w0 + width * u) / (1.0 + u * u),
                        -u_max, u_max, limit=400, epsabs=epsabs, epsrel=1e-12)
        total = val
        errs.append(err)
        for sign in (+1, -1):
            a = w0 + sign * width * u_max
            b = w0 + sign * (60.0 / beta + 50.0 * omega_c)
            val, err = _quad(lambda w: f(w) * width / (width**2 + (w - w0)**2),
                            min(a, b), max(a, b), limit=400, epsabs=epsabs)
            total += val
            errs.append(err)
        return total

    # the Lorentzian representation carries an O(width) bias; one Richardson
    # step in the width removes it
    re_1 = lorentzian_re(lam)
    re_2 = lorentzian_re(0.5 * lam)
    re = 2.0 * re_2 - re_1
    errs.append(abs(re_2 - re_1) * 0.02)

    # imaginary part: PV int f(w)/(w - w0)
    d = max(0.25, 0.1 * abs(w0))
    big = max(80.0 / beta + 20.0 * omega_c, abs(w0) + 10.0 * d)

    def sym(t):
        tt = max(t, 1e-13)
        return (f(w0 + tt) - f(w0 - tt)) / tt

    im, err = _quad(sym, 0.0, d, limit=300, epsabs=epsabs)
    errs.append(err)
    val, err = _quad(lambda w: f(w) / (w - w0), -big, w0 - d, limit=400,
                    epsabs=epsabs, points=[0.0] if -big < 0.0 < w0 - d else None)
    im += val
    errs.append(err)
    val, err = _quad(lambda w: f(w) / (w - w0), w0 + d, big, limit=400,
                    epsabs=epsabs, points=[0.0] if w0 + d < 0.0 < big else None)
    im += val
    errs.append(err)
    # left tail via u = -1/w (f -> -J there, decays like 1/w)
    val, err = _quad(lambda u: -f(-1.0 / u) / (u * (1.0 + w0 * u)),
                    0.0, 1.0 / big, limit=300, epsabs=epsabs)
    im += val
    errs.append(err)
    # right tail is exponentially suppressed
    val, err = _quad(lambda w: f(w) / (w - w0), big, big + 800.0 / beta, limit=200,
                    epsabs=epsabs)
    im += val
    errs.append(err)

    total_err = float(np.sum(errs))
    if not np.isfinite(total_err) or total_err > 1e-6 * max(1e-30, abs(re) + abs(im)) + 1e-9:
        raise NumericError(f"PV quadrature did not converge (error {total_err:.3e})")
    return complex(re, im), total_err


# ---------------------------------------------------------------------------
# thermal-bias derivative of the Bose function
# ---------------------------------------------------------------------------

def dn_dDeltaT(omega: float, temperature: float) -> float:
    """d n(omega) / dT at temperature T, for omega > 0.

    Equals omega / (4 T^2 sinh^2(omega / 2T)); underflows cleanly to 0 for
    omega/T beyond the double range.
    """
    if not (omega > 0 and temperature > 0):
        raise ValidationError("dn_dDeltaT requires omega > 0 and T > 0")
    return float(dn_dDeltaT_signed(omega, temperature))


def dn_dDeltaT_signed(omega, temperature: float):
    """Odd continuation of dn_dDeltaT over an array of frequencies; 0 at omega = 0.

    Written as omega e^{-x} / (T expm1(-x))^2 with x = |omega|/T, the exact
    rewriting of omega / (4 T^2 sinh^2(x/2)) that never overflows.
    """
    w = np.asarray(omega, dtype=float)
    zero = w == 0.0
    x = np.abs(np.where(zero, 1.0, w)) / temperature
    out = np.where(zero, 0.0, w * np.exp(-x) / (temperature * np.expm1(-x))**2)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the fermionic wide-band integral
# ---------------------------------------------------------------------------

def fermi_pv_integral(energy: float, mu: float, temperature: float,
                      bandwidth: float) -> complex:
    """Wide-band lead integral int dE' f(E') / (i0+ - E + E') at bandwidth W.

    Re psi(1/2 + i(E-mu)/(2 pi T)) - ln(W / 2 pi T)
    - i [pi/2 - Im psi(1/2 + i(E-mu)/(2 pi T))].

    The imaginary part equals -pi * f(E); the log term diverges with the
    bandwidth and cancels in physical rate combinations.
    """
    if not (temperature > 0 and bandwidth > 0):
        raise ValidationError("fermi_pv_integral requires T > 0 and bandwidth > 0")
    x = (energy - mu) / (2.0 * np.pi * temperature)
    psi = complex(digamma(0.5 + 1j * x))
    re = psi.real - np.log(bandwidth / (2.0 * np.pi * temperature))
    im = -(0.5 * np.pi - psi.imag)
    return complex(re, im)
