"""Closed-form steady state of the three-level partial-secular equations
(test oracle only).

States 0, 1 and 2, with 1 and 2 quasi-degenerate and rho_12 the only
retained coherence: the coherence equation is solved for rho_12 as a linear
function of the populations, which leaves a 2 x 2 rate equation.
`ltrans.steady.partial_secular_steady` solves the same equations as one
linear system.
"""

import numpy as np

from ltrans.linalg import NumericError, ValidationError
from ltrans.redfield import all_pairs


def three_level_coherence_analytic(k2, omega_12: float) -> tuple[complex, np.ndarray]:
    """Closed-form steady state of the three-level partial-secular equations.

    Returns (rho_12, populations).  Requires the kernel of a three-level
    model whose states 1 and 2 are quasi-degenerate; the retained coherence
    is rho_12 only.  k2 is a `BosonKernel` or a `KernelBlock` over
    `all_pairs(3)`; the full kernel `k2.block(all_pairs(3))` is read.
    """
    if k2.dim != 3:
        raise ValidationError("three-level solver needs a 3x3 model kernel")
    k = k2.block(all_pairs(3)).k.reshape(3, 3, 3, 3)
    om_p = omega_12 - k[1, 2, 1, 2].imag + k[1, 2, 2, 1].imag
    om_m = omega_12 - k[1, 2, 1, 2].imag - k[1, 2, 2, 1].imag
    big_p = k[1, 2, 1, 2].real + k[1, 2, 2, 1].real
    big_m = k[1, 2, 1, 2].real - k[1, 2, 2, 1].real

    den = om_p * om_m + big_p * big_m
    if abs(den) < 1e-300:
        raise NumericError("coherence denominator vanished (exact degeneracy)")

    a = np.zeros(3)
    b = np.zeros(3)
    for i in range(3):
        kp = k[1, 2, i, i].real
        kpp = k[1, 2, i, i].imag
        b[i] = (om_m * kp + big_p * kpp) / den
        a[i] = (kpp - big_m * b[i]) / om_m

    gamma = np.zeros((3, 3))
    for nn in (1, 2):
        for i in range(3):
            gamma[nn, i] = (k[nn, nn, i, i].real
                            + 2.0 * (k[nn, nn, 1, 2].real * a[i]
                                     + k[nn, nn, 1, 2].imag * b[i]))

    # 0 = G_n0 + (G_n1 - G_n0) rho11 + (G_n2 - G_n0) rho22,  n = 1, 2
    m = np.array([[gamma[1, 1] - gamma[1, 0], gamma[1, 2] - gamma[1, 0]],
                  [gamma[2, 1] - gamma[2, 0], gamma[2, 2] - gamma[2, 0]]])
    rhs = -np.array([gamma[1, 0], gamma[2, 0]])
    rho11, rho22 = np.linalg.solve(m, rhs)
    pops = np.array([1.0 - rho11 - rho22, rho11, rho22])

    rho12_re = float(a @ pops)
    rho12_im = -float(b @ pops)
    return complex(rho12_re, rho12_im), pops
