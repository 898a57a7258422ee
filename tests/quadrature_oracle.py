"""Numerical-quadrature references for the closed forms (test oracles only).

`w_rate_pv_oracle` evaluates the bath rate W(omega) at a small finite
broadening, with a Lorentzian for the resonant part and a symmetric
principal-value quadrature for the rest; `ltrans.baths.w_table` is its
digamma closed form.  `current_kernel_4th_lowT` and
`kappa4_kernel_quadrature` integrate the low-temperature cotunneling kernel
over frequency with the full Drude tails; `ltrans.currents.kappa4_lowT` is
the closed-form T^3 conductance they reduce to.  No production path calls
them, so `scipy.integrate` stays off the import path of `ltrans`.
"""

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from ltrans.baths import bose_signed, dn_dDeltaT_signed
from ltrans.currents import _find, _ground_virtual_sum_squared, _virtual_state_terms
from ltrans.linalg import NumericError, ValidationError
from ltrans.model import JunctionModel, Reservoir


# ---------------------------------------------------------------------------
# principal-value quadrature of W
# ---------------------------------------------------------------------------

def w_rate_pv_oracle(omega_nm: float, bath: Reservoir, lam: float = 1e-6,
                     epsabs: float = 1e-13) -> tuple[complex, float]:
    """Direct numerical evaluation of W(omega_nm) at small finite lam.

    Real part via the Lorentzian representation of the delta function,
    imaginary part via symmetric principal-value quadrature around the
    resonance.  Returns (value, error_bound).  Used to validate w_table.
    """
    sd = bath.spectral
    omega_c, beta = sd.omega_c, bath.beta
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
# fourth order, low temperature, by frequency quadrature
# ---------------------------------------------------------------------------

def _other(baths: list[Reservoir], rid: str) -> Reservoir:
    if len(baths) != 2:
        raise ValidationError("this operation needs exactly two baths")
    return next(b for b in baths if b.id != rid)


def _omega_hi(baths: list[Reservoir]) -> float:
    beta_min = min(b.beta for b in baths)
    omega_c = max(b.spectral.omega_c for b in baths)
    return max(50.0 / beta_min, 10.0 * omega_c)


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
