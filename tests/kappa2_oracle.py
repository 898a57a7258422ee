"""Finite-difference kappa2 (test oracle only).

The symmetric temperature-bias difference of the full nonlinear steady-state
current, with both solvers re-run (and, for the partial-secular solver,
re-clustered) at T_h = T +- step * T.  This is the route
`ltrans.currents.kappa2` took before it solved the linear-response equation;
its truncation error is O(step^2), which one Richardson step removes.
"""

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


def kappa2_fd(model, baths, temperature, solver="full", reservoir_id=None,
              c=DEFAULT_CLUSTER_FACTOR, lamb_shift=True, step=FD_STEP_FACTOR):
    """(I_r(T + dT) - I_r(T - dT)) / 2dT with the heated bath at T +- dT, dT = step * T."""
    rid = reservoir_id if reservoir_id is not None else baths[-1].id
    common = [b.with_temperature(temperature) for b in baths]
    heated = next(i for i, b in enumerate(common) if b.id != rid)
    dt = step * temperature
    vals = []
    for sgn in (+1.0, -1.0):
        biased = list(common)
        biased[heated] = biased[heated].with_temperature(temperature + sgn * dt)
        vals.append(current_at(model, biased, rid, solver, c, lamb_shift))
    return (vals[0] - vals[1]) / (2.0 * dt)


def kappa2_richardson(model, baths, temperature, solver="full", step=1e-3, **kwargs):
    """`kappa2_fd` at steps h and h/2, extrapolated to h -> 0: error O(h^4)."""
    coarse = kappa2_fd(model, baths, temperature, solver, step=step, **kwargs)
    fine = kappa2_fd(model, baths, temperature, solver, step=0.5 * step, **kwargs)
    return (4.0 * fine - coarse) / 3.0
