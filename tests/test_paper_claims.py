"""The paper's claims about sequential heat transport, pinned as tests.

Coherences between quasi-degenerate levels suppress the sequential
conductance: a resonant qubit-resonator junction transports heat only once
the qubit-resonator splitting exceeds the bath rates.  Full secular theory
misses this; partial secular theory recovers it, reduces to full secular
theory when no coherence is retained, and to the dense (non-secular) Redfield
steady state when every coherence is.  At equal bath temperatures the full
secular steady state is the Gibbs state, and at any bias its heat currents
into the two baths cancel.  The conductance kappa2 of either solver is the
temperature derivative of its steady-state heat current.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltrans import sweep
from ltrans.config import parse_config_text
from ltrans.currents import kappa2_response, kappa2_sweep
from ltrans.model import Reservoir, SpectralDensity, stack_models
from ltrans.rabi import RabiParams, build_rabi_junction
from ltrans.redfield import all_pairs, build_k2_boson, gamma_rates
from ltrans.steady import full_secular_steady

from junctions import random_junction
from kappa2_oracle import kappa2_richardson

COUPLINGS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1)


def drude_pair(temperature=0.5, alpha=1e-3, omega_c=5.0):
    sd = SpectralDensity(alpha=alpha, omega_c=omega_c)
    return [Reservoir("L", 1.0 / temperature, sd),
            Reservoir("R", 1.0 / temperature, sd)]


def resonant_kappa2(g, solver):
    """kappa2 of the resonant Rabi junction (delta = omega_r = 1, epsilon = 0,
    3 levels) at T = 0.5, alpha = 1e-3, omega_c = 5, cluster factor 10."""
    model = build_rabi_junction(RabiParams(0.0, 1.0, g, omega_r=1.0, fock_cutoff=30,
                                           retained_levels=3))
    return kappa2_response(model, drude_pair(), 0.5, solver=solver, c=10.0).kappa2


def test_coherences_suppress_kappa2_until_the_splitting_beats_the_rates():
    ratio = [resonant_kappa2(g, "partial") / resonant_kappa2(g, "full")
             for g in COUPLINGS]
    assert all(a < b for a, b in zip(ratio, ratio[1:]))
    assert ratio[0] < 1e-2
    assert ratio[-1] == pytest.approx(1.0, rel=1e-12, abs=0)


def test_partial_kappa2_grows_as_g_squared_below_the_rate_scale():
    # the qubit and the resonator decouple as g -> 0, so no heat flows
    k = [resonant_kappa2(g, "partial") for g in COUPLINGS[:3]]
    for lo, hi in zip(k, k[1:]):
        assert hi / lo == pytest.approx(9.0, rel=0.2)


RABI5_T = """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = 0.2
omega_r = 1
retained_levels = 5
fock_cutoff = 40
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
[solver]
secular = {solver}
cluster_factor = 0
[sweep]
variable = T
scale = log
start = 0.02
stop = 1
points = 25
[output]
csv = unused.csv
"""


def test_partial_sweep_without_coherences_is_the_full_secular_sweep():
    # with cluster factor 0 on a non-degenerate spectrum no coherence is retained
    kappa2 = {}
    for solver in ("partial", "full"):
        cfg = parse_config_text(RABI5_T.format(solver=solver))
        rows = sweep._chunk_rows(cfg, [float(v) for v in cfg.grid()])
        assert all(exc is None for _, exc in rows)
        kappa2[solver] = np.array([float(row.split(",")[2]) for row, _ in rows])
    assert np.max(np.abs(kappa2["partial"] / kappa2["full"] - 1.0)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
       betas=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=9))
def test_full_secular_rows_of_a_chunk_are_gibbs_states(seed, dim, betas):
    model = random_junction(seed, dim)
    temps = 1.0 / np.array(betas)
    for t, res in zip(temps, kappa2_sweep(model, drude_pair(), temps, solver="full")):
        assert not isinstance(res, Exception), res
        boltz = np.exp(-(model.omega - model.omega[0]) / t)
        boltz /= boltz.sum()
        assert np.max(np.abs(res.state.populations / boltz - 1.0)) <= 1e-10


def dense_redfield_state(model, baths):
    """The steady state of the full (non-secular) Redfield map, solved densely:
    -i w_nm rho_nm + sum K[n,m,n',m'] rho_n'm' = 0 over all N^2 pairs, with
    the equation of rho_00 replaced by Tr rho = 1."""
    n = model.dim
    k = build_k2_boson(model, baths).block(all_pairs(n)).k
    lmap = k - 1j * np.diag(model.bohr_matrix().ravel())
    lmap[0] = np.eye(n).ravel()
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(lmap, rhs).reshape(n, n)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
       dim=st.integers(2, 6), split=st.floats(1e-3, 0.5), temperature=st.floats(0.05, 2.0))
def test_partial_secular_with_every_pair_retained_is_the_dense_redfield_state(
        seeds, dim, split, temperature):
    # a cluster factor beyond every |omega_nm| / rate retains all N^2 pairs;
    # the stacked solve over the models then returns the non-secular state
    models = [random_junction(seed, dim, split) for seed in seeds]
    baths = drude_pair(temperature)
    got = kappa2_sweep(stack_models(models), baths, [temperature], solver="partial",
                       c=1e12)
    for model, res in zip(models, got):
        assert not isinstance(res, Exception), res
        assert len(res.state.retained_pairs) == dim * dim
        want = dense_redfield_state(model, baths)
        assert np.max(np.abs(res.state.rho - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
       dim=st.integers(2, 6), t_left=st.floats(0.02, 3.0), t_right=st.floats(0.02, 3.0))
def test_full_secular_heat_currents_cancel_at_any_bias(seeds, dim, t_left, t_right):
    # sum_r I_r = sum_{n,m} (w_m - w_n) gamma[n,m] p_m vanishes for a
    # stationary p and columns of gamma that sum to zero: I_L + I_R = 0 to
    # the roundoff of the terms of the sum
    models = [random_junction(seed, dim) for seed in seeds]
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    baths = [Reservoir("L", 1.0 / t_left, sd), Reservoir("R", 1.0 / t_right, sd)]
    got = kappa2_sweep(stack_models(models), baths, [0.5 * (t_left + t_right)],
                       solver="full", biased=t_left != t_right)
    for model, res in zip(models, got):
        assert not isinstance(res, Exception), res
        rates = gamma_rates(model, baths)
        p = full_secular_steady(rates).populations
        wdiff = model.omega[None, :] - model.omega[:, None]
        terms = sum(np.abs(wdiff * g * p).sum() for g in rates.per_reservoir.values())
        assert abs(res.currents["L"] + res.currents["R"]) <= 1e-13 * terms


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
       split=st.none() | st.floats(1e-3, 0.3), solver=st.sampled_from(["full", "partial"]),
       temperature=st.floats(0.05, 2.0))
def test_kappa2_is_the_derivative_of_the_steady_current(seed, dim, split, solver,
                                                         temperature):
    # the oracle's Richardson difference errs by ~(step * omega / T)^4,
    # 1.7e-10 at T = 0.055 with omega_10 = 1.2 and its default step, hence a
    # step that shrinks with T; its roundoff grows with the current's terms
    # over kappa2 T (a transition coupled 500 times more weakly to one bath
    # than to the other, or a Bohr frequency well below T) until no step
    # resolves 1e-10, so the property holds where two steps agree to 1e-11
    model = random_junction(seed, dim, split)
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    baths = [Reservoir("L", 1.0 / temperature, sd), Reservoir("R", 1.0 / temperature, sd)]
    step = min(1e-3, 1e-2 * temperature / (model.omega[-1] - model.omega[0]))
    want = kappa2_richardson(model, baths, temperature, solver, step=step)
    finer = kappa2_richardson(model, baths, temperature, solver, step=0.5 * step)
    assume(abs(finer - want) <= 1e-11 * abs(want))
    [got] = kappa2_sweep(model, baths, [temperature], solver)
    assert not isinstance(got, Exception), got
    assert got.kappa2 == pytest.approx(want, rel=1e-10, abs=0.0)
