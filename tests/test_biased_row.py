"""A biased row solves its own steady state as one more slice of kappa2's stack.

On a biased row (T_left != T_right, not a T sweep) the state at
(T_left, T_right) shares the W-table call, the kernel block and, when the
retained pairs agree, the factorization of the state at the mean
temperature.  Its currents must be bitwise those of a separate solve at
(T_left, T_right), kappa2 bitwise that of a separate solve at the mean, and
a failure of either slice must reach the row as the separate solves would
raise it.
"""

import logging

import numpy as np
import pytest

from ltrans import currents, steady, sweep
from ltrans.config import parse_config_text
from ltrans.currents import heat_current_2nd_secular, kappa2_sweep, partial_secular_state
from ltrans.linalg import NumericError, ValidationError
from ltrans.redfield import build_k2_boson, gamma_rates
from ltrans.steady import cluster_bohr_frequencies, full_secular_steady

from test_batch import poison_gamma_rates, poison_w_table
from test_sweep import spy

ROW = """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = {g}
retained_levels = {levels}
fock_cutoff = {cutoff}
[baths]
T_left = {t_left!r}
T_right = {t_right!r}
alpha = 1e-3
omega_c = 5
[solver]
secular = {solver}
[sweep]
variable = {variable}
start = 0.05
stop = 0.3
points = 3
[output]
csv = unused.csv
"""


def row_config(solver="partial", g=0.2, levels=3, cutoff=30, t_left=0.12, t_right=0.08,
               variable="g"):
    return parse_config_text(ROW.format(solver=solver, g=g, levels=levels, cutoff=cutoff,
                                        t_left=t_left, t_right=t_right,
                                        variable=variable))


def separate_solves(cfg, g):
    """The row's model, its baths at (T_left, T_right), and the mean temperature."""
    model = sweep._junction(cfg, {**cfg.model, "g": g})
    t_left, t_right = float(cfg.baths["T_left"]), float(cfg.baths["T_right"])
    return model, sweep._bose_baths(cfg.baths, t_left, t_right), 0.5 * (t_left + t_right)


def retained(model, baths, c):
    """The retained-pair set of the partial-secular state at the baths' temperatures."""
    rates = build_k2_boson(model, baths).population_rates()
    return cluster_bohr_frequencies(model, float(np.abs(rates).max()), c).retained


def cells(cfg, g):
    return [float(x) for x in sweep.compute_row(cfg, g).split(",")[2:7]]


# at g = 0.04, T_left = 0.5 and T_right = 0.05 the biased state retains two
# coherences fewer than the state at the mean temperature: two groups
@pytest.mark.parametrize("levels,cutoff,g,t_left,t_right,groups", [
    (3, 30, 0.2, 0.12, 0.08, 1),
    (21, 40, 0.2, 0.12, 0.08, 1),
    (5, 30, 0.04, 0.5, 0.05, 2),
], ids=["rabi3", "rabi21", "two_retained_sets"])
def test_biased_partial_row_is_bitwise_its_separate_solves(monkeypatch, levels, cutoff, g,
                                                           t_left, t_right, groups):
    cfg = row_config(levels=levels, cutoff=cutoff, g=g, t_left=t_left, t_right=t_right)
    model, baths, t_mean = separate_solves(cfg, g)
    c = cfg.cluster_factor
    common = sweep._bose_baths(cfg.baths, t_mean, t_mean)
    assert (retained(model, baths, c) != retained(model, common, c)) == (groups == 2)
    calls = []
    spy(monkeypatch, calls, "_solve_retained", steady)
    kappa2, _, _, i_left, i_right = cells(cfg, g)
    assert len(calls) == groups
    _, want = partial_secular_state(model, baths, c=c, lamb_shift=cfg.lamb_shift)
    assert (i_left, i_right) == (want["L"], want["R"])
    assert kappa2 == kappa2_sweep(model, baths, [t_mean], solver="partial", c=c,
                                  lamb_shift=cfg.lamb_shift)[0].kappa2


def test_biased_full_row_is_bitwise_its_separate_solves():
    cfg = row_config(solver="full", levels=5, cutoff=40)
    model, baths, t_mean = separate_solves(cfg, 0.2)
    kappa2, _, _, i_left, i_right = cells(cfg, 0.2)
    rates = gamma_rates(model, baths)
    want = heat_current_2nd_secular(model, rates, full_secular_steady(rates))
    assert (i_left, i_right) == (want["L"], want["R"])
    assert kappa2 == kappa2_sweep(model, baths, [t_mean], solver="full")[0].kappa2


@pytest.mark.parametrize("solver", ["partial", "full"])
def test_small_bias_current_tends_to_kappa2(solver):
    # T_left = T + d/2, T_right = T - d/2: I_R = kappa2(T) d + O(d^3), so the
    # relative error of I_R / d falls fourfold per halving of d
    t = 0.1
    cfg = row_config(solver=solver, levels=5, cutoff=40, t_left=t, t_right=t)
    model, baths, _ = separate_solves(cfg, 0.2)
    kappa2 = kappa2_sweep(model, baths, [t], solver=solver)[0].kappa2
    errors = []
    for d in (1e-2, 5e-3, 2.5e-3):
        i_right = cells(row_config(solver=solver, levels=5, cutoff=40, t_left=t + d / 2,
                                   t_right=t - d / 2), 0.2)[4]
        errors.append(abs(i_right / d - kappa2) / abs(kappa2))
    assert errors[0] < 1e-2
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


# T_left = 0.12 and T_right = 0.08, so the mean slice is at 0.1 and the left
# bath is at 0.12 only in the biased slice.  The exceptions are those that
# separate solves of the two states raise, kappa2's (the mean slice's) first.
@pytest.mark.parametrize("solver,poison,error,message", [
    ("partial", [(0.08, "imag")], NumericError, "partial-secular system is singular"),
    ("partial", [(0.08, "real")], ValidationError, "gamma_scale must be positive"),
    ("partial", [(0.1, "real"), (0.08, "imag")], ValidationError,
     "gamma_scale must be positive"),
    ("partial", [(0.1, "imag"), (0.08, "real")], NumericError,
     "partial-secular system is singular"),
    ("full", [(0.12, "all")], ValidationError, "rate graph is disconnected; stationary "
     "state not unique. Components: [[0], [1], [2]]"),
], ids=["biased_solve", "biased_clustering", "mean_clustering_first",
        "mean_solve_first", "full_biased"])
def test_a_poisoned_slice_fails_the_row_as_its_separate_solve(monkeypatch, solver, poison,
                                                              error, message):
    cfg = row_config(solver=solver)
    for bad_t, part in poison:
        (poison_gamma_rates if solver == "full" else poison_w_table)(monkeypatch, bad_t, part)
    with pytest.raises(error) as raised:
        sweep.compute_row(cfg, 0.2)
    assert type(raised.value) is error and str(raised.value) == message
    [(row, exc)] = sweep._chunk_rows(cfg, [0.2])
    assert row == sweep._failed_row(cfg, 0.2)
    assert type(exc) is error and str(exc) == message


@pytest.mark.parametrize("solver", ["partial", "full"])
@pytest.mark.parametrize("variable,t_left,t_right,biased", [
    ("g", 0.1, 0.1, False),
    ("g", 0.12, 0.08, True),
    ("T", 0.1, 0.1, False),
    ("T", 0.12, 0.08, False),          # a T sweep ignores its bath temperatures
], ids=["g_zero_bias", "g_biased", "T", "T_unequal_baths"])
def test_only_a_biased_row_builds_a_biased_slice(monkeypatch, solver, variable, t_left,
                                                 t_right, biased):
    cfg = row_config(solver=solver, t_left=t_left, t_right=t_right, variable=variable)
    betas = []
    builder = "stacked_w_tables" if solver == "partial" else "gamma_rates"
    orig = getattr(currents, builder)

    def recorded(model_or_pairs, baths_):
        betas.append([np.asarray(b.beta) for b in baths_])
        return orig(model_or_pairs, baths_)

    monkeypatch.setattr(currents, builder, recorded)
    values = [0.2] if variable == "g" else [0.05, 0.1, 0.2]
    rows = sweep._chunk_rows(cfg, values)
    assert all(exc is None for _, exc in rows)
    [(left, right)] = betas
    common = 1.0 / np.asarray([0.5 * (t_left + t_right)] if variable == "g" else values)
    if biased:
        assert np.array_equal(left, [*common, 1.0 / t_left])
        assert np.array_equal(right, [*common, 1.0 / t_right])
    else:
        assert np.array_equal(left, common) and np.array_equal(right, common)


def test_biased_stack_takes_one_temperature():
    cfg = row_config()
    model, baths, t_mean = separate_solves(cfg, 0.2)
    with pytest.raises(ValidationError, match="one mean temperature"):
        currents.kappa2_sweep(model, baths, [t_mean, t_mean], biased=True)
    axis = [b.with_temperature(np.array([0.12, 0.08])) for b in baths]
    with pytest.raises(ValidationError, match="one mean temperature"):
        currents.kappa2_sweep(model, axis, [t_mean], biased=True)


def test_a_biased_row_logs_as_its_separate_solves(caplog):
    # the biased slice warns about its own negative populations, as the
    # separate solve at (T_left, T_right) does
    cfg = row_config(levels=21, cutoff=40)
    model, baths, t_mean = separate_solves(cfg, 0.2)
    with caplog.at_level(logging.WARNING, logger="ltrans.steady"):
        sweep.compute_row(cfg, 0.2)
        row = sorted(r.getMessage() for r in caplog.records)
        caplog.clear()
        kappa2_sweep(model, baths, [t_mean], solver="partial", c=cfg.cluster_factor)
        partial_secular_state(model, baths, c=cfg.cluster_factor)
        separate = sorted(r.getMessage() for r in caplog.records)
    assert row and row == separate
