"""Occupation functions and bath correlation rates.

The central objects are the one-sided Fourier transforms W(omega_nm) of the
bath coupling-operator correlation function of a `Reservoir`, a bosonic bath
with an Ohmic-Drude spectral density.  `w_table` evaluates W over a whole array of Bohr
frequencies in closed form: Re W = pi J n, and Im W is the digamma
resummation of its Matsubara series, which has no pole where omega_c meets a
Matsubara frequency; `dw_dt_table` is its temperature derivative, with the
trigamma function in place of the digamma.  The digamma and trigamma
functions are numpy closed forms here (`_digamma`, `_trigamma`: a
recurrence, then the Bernoulli series), so the tables need no scipy.  A
reservoir whose beta is a 1-d array carries a temperature axis: the tables
(and `bose_signed`) then gain a leading axis over it, shape
(n_T,) + omega.shape, each slice bitwise the table of that one temperature.
The digamma and trigamma terms are even in omega, so the tables evaluate
them once per distinct |omega| and temperature, from one sort of the
frequencies by magnitude (`Frequencies`).  The frequencies may be those of
the level pairs a mask selects: a partial-secular stack of models sorts the
Bohr frequencies of the pairs its couplings join once
(`coupled_frequencies`), and its W and dW/dT tables read that one sort and
hold zeros on the other pairs.
The Matsubara series itself (direct summation plus an analytic Hurwitz-zeta
tail) is kept here as an oracle that `validate` also runs; it alone uses
scipy.special (for the Hurwitz zeta function), imported when it runs.  The
principal-value quadrature of the same quantity lives with the tests.  No
production path calls either.

All rates are returned with hbar = 1, i.e. the hbar^2 prefactor of the raw
correlation integral is divided out once and for all.
"""

from __future__ import annotations

import numpy as np

from .linalg import ValidationError, NumericError
from .model import COUPLING_RTOL, JunctionModel, Reservoir, SpectralDensity

__all__ = ["occupation", "bose_signed", "Frequencies", "by_magnitude", "coupled_frequencies",
           "w_table", "dw_dt_real", "dw_dt_table",
           "w_rate_matsubara_oracle", "dn_dDeltaT_signed", "fermi_pv_integral",
           "matsubara_sums"]

MATSUBARA_ATOL = 1e-12
MATSUBARA_MAX_TERMS = 10**6
_EXP_BIG = 700.0


# ---------------------------------------------------------------------------
# occupation numbers
# ---------------------------------------------------------------------------

def occupation(statistics: str, omega, beta: float, mu: float = 0.0, p: int = +1):
    """Thermal occupation factor n^p of a reservoir mode, or of each of an
    array of modes (a float for one mode).

    For p = +1 this is the Bose/Fermi function itself; for p = -1 it is
    1 + n (bose) or 1 - f (fermi).  The Bose branch requires omega > 0 at
    every mode; the omega -> 0 pole is the caller's responsibility.
    """
    if not beta > 0:
        raise ValidationError("beta must be positive")
    if p not in (+1, -1):
        raise ValidationError("p must be +-1")
    omega = np.asarray(omega, dtype=float)
    if statistics == "fermi":
        # logistic form is overflow-safe for any x = beta (omega - mu)
        f = 0.5 * (1.0 - np.tanh(0.5 * (beta * (omega - mu))))
        f = f if p == +1 else 1.0 - f
        return f if f.ndim else float(f)
    if statistics == "bose":
        if mu != 0.0:
            raise ValidationError("bosonic occupation requires mu = 0")
        if p == +1 and (omega <= 0.0).any():
            raise ValidationError("Bose occupation needs omega > 0 for p = +1")
        # 1 + n(omega) for p = -1: valid for omega > 0 and, by
        # continuation, omega < 0
        n = bose_signed(omega, beta)
        return n if p == +1 else 1.0 + n
    raise ValidationError(f"unknown statistics {statistics!r}")


def _t_axis(value, w: np.ndarray) -> np.ndarray:
    """A temperature or beta shaped to broadcast against the frequencies w.

    A 1-d array over temperatures, which every sweep row passes, gains one
    trailing unit axis per axis of w, so that it leads the result; a scalar
    becomes an array of unit axes, which broadcasts to the shape of w.
    """
    v = np.asarray(value, dtype=float)
    return v.reshape(v.shape + (1,) * w.ndim)


def bose_signed(omega, beta):
    """Bose function 1/(exp(beta*omega) - 1) continued to omega < 0.

    The continuation obeys n(-omega) = -(1 + n(omega)); together with an odd
    spectral density it gives a single expression for absorption and emission
    rates.  omega = 0 is a pole and must be handled by the caller.  beta may
    be a 1-d temperature axis, which then leads the result.
    """
    omega = np.asarray(omega, dtype=float)
    x = np.asarray(_t_axis(beta, omega) * omega)
    with np.errstate(over="ignore"):
        out = np.where(np.abs(x) > _EXP_BIG, np.where(x > 0, 0.0, -1.0),
                       1.0 / np.expm1(np.where(np.abs(x) > _EXP_BIG, 1.0, x)))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# closed-form W table (production path)
# ---------------------------------------------------------------------------

def _w_real(w: np.ndarray, sd: SpectralDensity, beta) -> np.ndarray:
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


class Frequencies:
    """Frequencies sorted once by magnitude; every table over them reads this one order.

    omega holds the frequencies (any shape), magnitudes their distinct
    |omega| in ascending order, and inverse, in the shape of omega, the index
    of each entry's |omega| among them (`by_magnitude`).  The bath functions
    that need |omega| alone (the digamma and trigamma terms, even in omega)
    are evaluated once per magnitude and temperature.  mask, if not None, is
    a boolean array of level pairs and omega (1-d) the frequencies where it
    holds (`coupled_frequencies`): the tables over them are then scattered
    onto the mask's shape, zero where it does not hold.  (A plain class: a
    named tuple or dataclass costs every start of the program more.)
    """

    __slots__ = ("omega", "magnitudes", "inverse", "mask")

    def __init__(self, omega: np.ndarray, magnitudes: np.ndarray, inverse: np.ndarray):
        self.omega, self.magnitudes, self.inverse = omega, magnitudes, inverse
        self.mask = None

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """values over omega (after a temperature axis), on the pairs of the
        mask and zero elsewhere; values itself where there is no mask."""
        if self.mask is None:
            return values
        out = np.zeros(values.shape[:-1] + self.mask.shape, dtype=complex)
        out[..., self.mask] = values
        return out


def by_magnitude(omega) -> Frequencies:
    """omega with its distinct |omega|, ascending, and the index of each
    entry's |omega| among them."""
    w = np.asarray(omega, dtype=float)
    a = np.abs(w).ravel()
    order = a.argsort()
    s = a[order]
    first = np.empty(s.shape, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    inverse = np.empty(s.shape, dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    return Frequencies(w, s[first], inverse.reshape(w.shape))


def _sorted(omega) -> Frequencies:
    """omega as `Frequencies`: as given, or sorted here."""
    return omega if isinstance(omega, Frequencies) else by_magnitude(omega)


def coupled_frequencies(model: JunctionModel) -> Frequencies:
    """The Bohr frequencies of model (or a model stack) where a coupling
    joins the two levels, which the bath tables of a partial-secular stack
    (`ltrans.currents`) are evaluated on.

    A model that labels two sectors has odd couplings (`JunctionModel.sector`),
    so its coupled pairs are the cross-sector ones; a model with one sector
    or none, and each unlabelled model of a stack that mixes both, couples
    every pair.  The mask of the result holds the coupled pairs, (..., N, N),
    or is None where every pair of every model is coupled (omega is then
    the whole Bohr matrix).

    With odd couplings, a zero of the tables is read only in a product with
    a same-sector coupling (roundoff) by the population rates, the heat
    currents and every kernel entry whose row pair or column pair lies
    within one sector, as every retained pair does.  An entry between a row
    and a column that both cross the sectors reads W of two levels of one
    sector through two odd couplings, so it is not roundoff: the full kernel
    (`ltrans.redfield.build_k2_boson`) takes the dense tables.  Raises
    ValidationError if a model with two sectors has a coupling between two
    levels of one sector above COUPLING_RTOL of its largest coupling over
    the baths: an even coupling, whose terms the zeros would drop.
    """
    bohr = model.bohr_matrix()
    if model.sector is None:
        return by_magnitude(bohr)
    mask = model.sector[..., :, None] != model.sector[..., None, :]
    mask |= ~mask.any(axis=(-2, -1), keepdims=True)      # one sector: every pair
    if model.q_ops:
        aq = np.abs(list(model.q_ops.values()))            # (bath, ..., N, N)
        same = np.where(mask, 0.0, aq).max(axis=(0, -2, -1))
        if (same > COUPLING_RTOL * aq.max(axis=(0, -2, -1))).any():
            raise ValidationError("a coupling joins two levels of one symmetry "
                                  "sector; two sectors need odd couplings")
    if mask.all():
        return by_magnitude(bohr)
    f = by_magnitude(bohr[mask])
    f.mask = mask
    return f


def _w_imag(f: Frequencies, sd: SpectralDensity, beta) -> np.ndarray:
    """PV int J(w') n(w') / (w' - w) dw' in closed form, at the frequencies f.omega.

    Im W = J(w) [psi(x) + 1/(2x) - Re psi(1 + i y)] - (pi/2) (J(w)/w) omega_c
    with x = beta omega_c / 2 pi and y = beta w / 2 pi.  This resums the Drude
    Matsubara expansion (Ishizaki and Tanimura, J. Phys. Soc. Jpn. 74, 3131
    (2005)); the cot(beta omega_c / 2) pole of the series cancels against
    psi(1 - x) through the reflection formula, so nothing is singular at a
    Matsubara collision omega_c = 2 pi k / beta.  Re psi(1 + i y) is even in
    y (bitwise, as is |y| = beta |w| / 2 pi), so it is evaluated once per
    distinct |w| of f and temperature, in one `_digamma` call with psi(x).
    """
    w = f.omega
    b = _t_axis(beta, w)
    x = b * sd.omega_c / (2.0 * np.pi)
    abs_y = np.asarray(beta, dtype=float)[..., None] * f.magnitudes / (2.0 * np.pi)
    xs = x.ravel()
    psi = _digamma(np.concatenate([xs, 1.0 + 1j * abs_y.ravel()])).real
    psi_y = psi[len(xs):].reshape(abs_y.shape)[..., f.inverse]
    bracket = psi[:len(xs)].reshape(x.shape) + 0.5 / x - psi_y
    slope = sd.slope_at(w)
    return slope * (w * bracket - 0.5 * np.pi * sd.omega_c)


def w_table(omega, bath: Reservoir) -> np.ndarray:
    """Bath correlation rate W(omega) over an array of Bohr frequencies.

    Ohmic-Drude bosonic bath.  Real part: pi*J(omega)*n(omega), continued
    through omega = 0 where it tends to pi*alpha/beta.  Imaginary part: the
    principal value of the same integrand, in the digamma closed form of
    `_w_imag`.  omega is an array, or its `Frequencies` (`by_magnitude`),
    whose sort the tables of a stack then share.  Returns a complex array
    of the shape of the frequencies (of their mask, if they have one, zero
    where it does not hold), after the temperature axis of the bath if it
    has one.
    """
    f = _sorted(omega)
    beta = _t_axis(bath.beta, f.omega)
    return f.scatter(_w_real(f.omega, bath.spectral, beta)
                     + 1j * _w_imag(f, bath.spectral, bath.beta))


# argument from which the Bernoulli series to B_14 replaces the direct form;
# at 12 both are within 1e-13 relative
_ASYMPTOTIC_FROM = 12.0


def _bernoulli_sum(u):
    """sum_k B_2k u^k for k = 1..7 (B_2 to B_14), by Horner's rule."""
    total = 0.0
    for b in (7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6, 0):
        total = total * u + b
    return total


# entries per block of `_inverse_power_sum`: its (entries, terms) array of
# 256 x 19 complex numbers (78 KB) stays below glibc's 128 KiB mmap
# threshold, so a large table reuses heap memory instead of faulting in a
# freshly mapped array on every call
_POWER_SUM_BLOCK = 256


def _inverse_power_sum(z, shifts, powers, coeffs) -> np.ndarray:
    """sum_i coeffs[i] / (z + shifts[i])^powers[i] per entry of complex z.

    The terms of each entry are one array along its last, contiguous axis
    and are summed there, so that they are added in the same order whatever
    the shape of z: a few numpy calls in all, since the tables call this on
    a handful of entries.  Larger arrays are taken in blocks of
    `_POWER_SUM_BLOCK` entries, which changes no bit.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    for i in range(0, len(flat), _POWER_SUM_BLOCK):
        terms = flat[i:i + _POWER_SUM_BLOCK, None] + shifts
        np.divide(1.0, terms, out=terms)
        np.power(terms, powers, out=terms)
        terms *= coeffs
        terms.sum(axis=-1, out=out[i:i + _POWER_SUM_BLOCK])
    return out.reshape(z.shape)


# Both functions below take ten steps of their recurrence, then the
# Bernoulli series to B_14 at w = z + 10 (error < 1e-16 at |w| >= 10).
# Their terms, in ascending size:
# ln w - psi(z): B_2j / (2j w^2j) for j = 7 .. 1, 1/(2w), 1/(z + k) for k = 9 .. 0
_DIGAMMA_TERMS = (np.array([10.0] * 8 + list(range(9, -1, -1))),
                  np.array([14, 12, 10, 8, 6, 4, 2, 1] + [1] * 10),
                  np.array([1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120,
                            1 / 12, 1 / 2] + [1.0] * 10, dtype=complex))
# psi'(z): B_2j / w^(2j+1) for j = 7 .. 1, 1/(2w^2), 1/w, 1/(z + k)^2 for k = 9 .. 0
_TRIGAMMA_TERMS = (np.array([10.0] * 9 + list(range(9, -1, -1))),
                   np.array([15, 13, 11, 9, 7, 5, 3, 2, 1] + [2] * 10),
                   np.array([7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6,
                             1 / 2, 1] + [1.0] * 10, dtype=complex))


def _digamma(z) -> np.ndarray:
    """psi(z) for complex z with Re z > 0 (real z too, as z + 0j), elementwise.

    psi(z) = psi(z + 10) - sum_k 1/(z + k), and
    psi(w) ~ ln w - 1/(2w) - sum_j B_2j / (2j w^2j).
    """
    z = np.asarray(z, dtype=complex)
    return np.log(z + 10.0) - _inverse_power_sum(z, *_DIGAMMA_TERMS)


def _trigamma(z) -> np.ndarray:
    """psi'(z) for complex z with Re z > 0 (real z too, as z + 0j), elementwise.

    psi'(z) = psi'(z + 10) + sum_k 1/(z + k)^2, and
    psi'(w) ~ 1/w + 1/(2w^2) + sum_j B_2j / w^(2j+1).
    """
    return _inverse_power_sum(z, *_TRIGAMMA_TERMS)


def dw_dt_real(omega, bath: Reservoir) -> np.ndarray:
    """Re dW/dT = pi J(w) dn/dT over an array of frequencies; pi*alpha at w = 0.

    Over the temperature axis of the bath, if it has one, like `w_table`.
    """
    w = np.asarray(omega, dtype=float)
    return _dw_dt_real(w, bath.spectral, _t_axis(bath.temperature, w))


def _dw_dt_real(w: np.ndarray, sd: SpectralDensity, t) -> np.ndarray:
    """`dw_dt_real` with the temperature t already shaped against w."""
    return np.pi * sd.slope_at(w) * np.where(w == 0.0, 1.0, w * dn_dDeltaT_signed(w, t))


def _rest_x(x: list[float], trigamma_near) -> list[float]:
    """1/(2x) - x psi'(x) + 1 per x, as its Bernoulli series from
    `_ASYMPTOTIC_FROM` and from psi'(x) below it: trigamma_near holds
    psi'(x) of those x, in order.

    Float arithmetic per x (one per temperature): it keeps a
    one-temperature table cheaper than a dozen array operations would.
    """
    near = iter(trigamma_near.real.tolist())
    return [-_bernoulli_sum(v**-2) if v >= _ASYMPTOTIC_FROM
            else 1.0 + 0.5 / v - v * next(near) for v in x]


def dw_dt_table(omega, bath: Reservoir) -> np.ndarray:
    """dW/dT, the bath-temperature derivative of `w_table`, over an array of frequencies.

    Re: `dw_dt_real`.  Im: the derivative of `_w_imag`,
    (J(w)/T) [1/(2x) - x psi'(x) - y Im psi'(1 + i y)] with
    x = omega_c / (2 pi T) and y = w / (2 pi T).  On a cold bath the two
    halves of the bracket tend to -1 and +1, so each is taken as its
    remainder: 1/(2x) - x psi'(x) + 1 = -sum_k B_2k x^-2k and
    1 + y Im psi'(1 + i y) = -sum_k B_2k (-y^2)^-k, summed as series where the
    argument is at least `_ASYMPTOTIC_FROM`.  The first remainder depends on
    the temperature alone and is evaluated once per temperature; the second
    is even in y, so it is evaluated once per distinct |w| and temperature
    (1 where y = 0).  The trigamma arguments of both direct forms, x and
    1 + i|y|, go to one `_trigamma` call, and a cold bath, whose remainders
    are both series, makes none.  omega is an array or its `Frequencies`,
    and the table takes the shape of `w_table`'s.
    """
    f = _sorted(omega)
    sd, w = bath.spectral, f.omega
    t = _t_axis(bath.temperature, w)
    x = sd.omega_c / (2.0 * np.pi * t)
    t_col = np.asarray(bath.temperature, dtype=float)[..., None]
    abs_y = f.magnitudes / (2.0 * np.pi * t_col)       # per temperature and distinct |w|
    y2 = abs_y * abs_y
    zero = abs_y == 0.0
    direct = ~zero & (y2 < _ASYMPTOTIC_FROM**2)
    xs = x.ravel().tolist()
    near = [v for v in xs if v < _ASYMPTOTIC_FROM]
    rest_y = np.ones(abs_y.shape)
    trigamma = np.empty(0)
    if near or direct.any():
        trigamma = _trigamma(np.concatenate([near, 1.0 + 1j * abs_y[direct]]))
        rest_y[direct] = 1.0 + abs_y[direct] * trigamma[len(near):].imag
    rest_x = np.array(_rest_x(xs, trigamma[:len(near)])).reshape(x.shape)
    far = ~(zero | direct)
    if far.any():
        rest_y[far] = -_bernoulli_sum(-1.0 / y2[far])
    rest_y = rest_y[..., f.inverse]
    return f.scatter(_dw_dt_real(w, sd, t) + 1j * (sd.value(w) / t * (rest_x - rest_y)))


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
    frequency, and the cutoff grows like beta.  Imports scipy.special.
    """
    from scipy.special import zeta

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


def w_rate_matsubara_oracle(omega_nm: float, bath: Reservoir,
                            atol: float = MATSUBARA_ATOL) -> complex:
    """W(omega_nm) from its Matsubara series: cot(beta*omega_c/2) terms plus S2, S3.

    Analytically identical to `w_table` and independent of its digamma closed
    form, which it checks.  Numerically Re W loses relative accuracy where it
    is exponentially small, and both parts lose accuracy as omega_c nears a
    Matsubara frequency, where the cot term and the series diverge.
    """
    sd = bath.spectral
    alpha, omega_c, beta = sd.alpha, sd.omega_c, bath.beta
    w = float(omega_nm)
    s2, s3 = matsubara_sums(w, omega_c, beta, atol=atol)
    half_arg = 0.5 * beta * omega_c
    if abs(np.sin(half_arg)) < 1e-12:
        raise NumericError("cot(beta*omega_c/2) pole; nudge the temperature")
    cot = np.cos(half_arg) / np.sin(half_arg)
    pref = 2.0 * np.pi * alpha * omega_c**2 / beta
    re = (0.5 * np.pi * sd.slope_at(w) * omega_c * cot
          - 0.5 * np.pi * sd.value(w) - pref * s2)
    im = (-0.5 * np.pi * sd.value(w) * cot
          - 0.5 * np.pi * sd.slope_at(w) * omega_c + pref * w * s3)
    return complex(re, im)


# ---------------------------------------------------------------------------
# thermal-bias derivative of the Bose function
# ---------------------------------------------------------------------------

def dn_dDeltaT_signed(omega, temperature):
    """d n(omega) / dT at temperature T, omega / (4 T^2 sinh^2(omega / 2T)),
    odd in omega and 0 at omega = 0, over an array of frequencies.

    temperature is a scalar or an array that broadcasts against omega.
    Written as omega e^{-x} / (T expm1(-x))^2 with x = |omega|/T, the exact
    rewriting that never overflows; it underflows cleanly to 0 for omega/T
    beyond the double range.
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
    psi = complex(_digamma(0.5 + 1j * x))
    re = psi.real - np.log(bandwidth / (2.0 * np.pi * temperature))
    im = -(0.5 * np.pi - psi.imag)
    return complex(re, im)
