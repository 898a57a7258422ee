"""Finite-difference kappa2 (test oracle only).

The symmetric temperature-bias difference of the full nonlinear steady-state
current, with both solvers re-run (and, for the partial-secular solver,
re-clustered) at T_h = T +- step * T.  This is the route
`ltrans.currents.kappa2` took before it solved the linear-response equation;
its truncation error is O(step^2), which one Richardson step removes.
"""

import numpy as np

from ltrans.baths import w_table
from ltrans.currents import (heat_current_2nd_general, heat_current_2nd_secular,
                             partial_secular_state)
from ltrans.redfield import gamma_rates
from ltrans.steady import DEFAULT_CLUSTER_FACTOR, full_secular_steady

FD_STEP_FACTOR = 1e-4


def current_at(model, baths, rid, solver, c=DEFAULT_CLUSTER_FACTOR, lamb_shift=True):
    """Steady-state heat current into bath `rid` from the `solver` steady state."""
    if solver == "full":
        rates = gamma_rates(model, baths)
        state = full_secular_steady(rates)
        return heat_current_2nd_secular(model, rates, state)[rid]
    state, _ = partial_secular_state(model, baths, c=c, lamb_shift=lamb_shift)
    return heat_current_2nd_general(model, baths, rid, state)


def current_terms(model, baths, rho):
    """Per bath r, 2 sum_{m,n,p} |Q_mn Q_np Wbar_nm rho_pm|: the terms of the
    heat current -2 Re sum Q_mn Q_np Wbar_nm rho_pm into r, whose roundoff
    bounds how well any solve resolves it."""
    bohr = model.bohr_matrix()
    out = {}
    for bath in baths:
        q = np.abs(model.q(bath.id))
        wbar = np.abs(bohr * w_table(bohr, bath))
        out[bath.id] = 2.0 * float(np.sum(q.T * wbar * (q @ np.abs(rho))))
    return out


def kappa2_fd(model, baths, temperature, solver="full", measured=None,
              c=DEFAULT_CLUSTER_FACTOR, lamb_shift=True, step=FD_STEP_FACTOR):
    """dI_r/dT_h as (I(T + dT) - I(T - dT)) / 2dT, dT = step * T, with the
    heated bath h = baths[0] at T +- dT and the others at T.

    r is the last bath, as in `ltrans.currents.kappa2_sweep`.  The current
    differenced is that of the bath `measured` (r by default); the heated
    bath's own current gives the same kappa2 negated, since I_h + I_r = 0 in
    every steady state of two baths.  Its roundoff is that of its own
    terms, so the bath with the smaller terms resolves kappa2 best.
    """
    rid = measured if measured is not None else baths[-1].id
    common = [b.with_temperature(temperature) for b in baths]
    dt = step * temperature
    vals = []
    for sgn in (+1.0, -1.0):
        biased = list(common)
        biased[0] = biased[0].with_temperature(temperature + sgn * dt)
        vals.append(current_at(model, biased, rid, solver, c, lamb_shift))
    sign = -1.0 if rid == baths[0].id else 1.0
    return sign * (vals[0] - vals[1]) / (2.0 * dt)


def kappa2_richardson(model, baths, temperature, solver="full", step=1e-3, **kwargs):
    """`kappa2_fd` at steps h and h/2, extrapolated to h -> 0: error O(h^4)."""
    coarse = kappa2_fd(model, baths, temperature, solver, step=step, **kwargs)
    fine = kappa2_fd(model, baths, temperature, solver, step=0.5 * step, **kwargs)
    return (4.0 * fine - coarse) / 3.0
