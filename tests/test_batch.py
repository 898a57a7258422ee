"""A chunk is computed as one stack: over its temperatures (a T sweep, one
model) or over the models of its rows (any other sweep, one temperature).

Every row of a chunk must be byte-identical to `compute_row` at its point,
whatever the chunk boundaries; the bath tables, kernel blocks and solves are
evaluated once per chunk (per retained-pair group, across models on a
parameter sweep), or once per slice of a long chunk, whose size bounds their
arrays; the stacked kernel blocks, rates and contractions carry the bits of
their one-model, one-temperature forms; and a failure at one temperature or
one model stays with its own row, with the exception that row alone raises.
"""

import functools
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltrans import baths, currents, redfield, steady, sweep
from ltrans.config import parse_config_text
from ltrans.currents import kappa2_sweep
from ltrans.linalg import NumericError, ValidationError
from ltrans.model import Reservoir, SpectralDensity, build_junction, stack_models

from junctions import random_junction
from test_sweep import spy

TLS_PARTIAL = """
[model]
type = tls
epsilon = 0.3
delta = 1.0
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
[solver]
secular = partial
[sweep]
variable = T
scale = log
start = 1e-5
stop = 2
points = {points}
"""

RABI_FULL = """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = 0.2
retained_levels = 5
fock_cutoff = 40
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
[solver]
secular = full
[sweep]
variable = T
scale = log
start = 0.02
stop = 1
points = {points}
"""

# at g = 0.05 the quasi-degenerate pairs of the 5-level spectrum join the
# retained set one by one as the rates grow with T: three retained-pair groups
RABI_PARTIAL = """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = 0.05
retained_levels = 5
fock_cutoff = 30
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
[solver]
secular = partial
[sweep]
variable = T
scale = log
start = 0.02
stop = 2
points = {points}
"""

SWEEPS = {"tls_partial": TLS_PARTIAL, "rabi_full": RABI_FULL,
          "rabi_partial": RABI_PARTIAL}

# sweeps over a model parameter, at a thermal bias unless T_left = T_right:
# one model per row, stacked over the models of a chunk
PARAMETER_SWEEP = """
[model]
type = {model_type}
{model}
[baths]
T_left = {t_left}
T_right = {t_right}
alpha = 1e-3
omega_c = 5
[solver]
secular = {solver}
[sweep]
variable = {variable}
scale = linear
start = {start}
stop = {stop}
points = {{points}}
"""

RABI5 = "epsilon = 0\ndelta = 0.9\ng = 0.05\nretained_levels = 5\nfock_cutoff = {cutoff}"
TLS = "epsilon = 0\ndelta = 1"

PARAMETER_SWEEPS = {
    # the retained pairs change with g: three retained-pair sets
    "rabi_g_partial": dict(model_type="rabi", model=RABI5.format(cutoff=30), t_left=0.12,
                           t_right=0.08, solver="partial", variable="g", start=0.0,
                           stop=0.3),
    "rabi_g_full": dict(model_type="rabi", model=RABI5.format(cutoff=30), t_left=0.12,
                        t_right=0.08, solver="full", variable="g", start=0.01, stop=0.4),
    # row 0 sits at epsilon = delta = 0: two degenerate, uncoupled levels
    "tls_delta_partial": dict(model_type="tls", model=TLS, t_left=0.1, t_right=0.1,
                              solver="partial", variable="delta", start=0.0, stop=2.0),
    "tls_delta_full": dict(model_type="tls", model=TLS, t_left=0.12, t_right=0.08,
                           solver="full", variable="delta", start=0.0, stop=2.0),
    # from g ~ 0.96 on, 16 Fock states no longer converge the five levels;
    # each such row fails with its own drift
    "rabi_fock": dict(model_type="rabi", model=RABI5.format(cutoff=16), t_left=0.12,
                      t_right=0.08, solver="partial", variable="g", start=0.2, stop=1.6),
}


def sweep_config(name, points=12):
    text = (SWEEPS[name] if name in SWEEPS
            else PARAMETER_SWEEP.format(**PARAMETER_SWEEPS[name]))
    return parse_config_text(text.format(points=points) + "[output]\ncsv = unused.csv\n")


def one_point_rows(cfg):
    """compute_row at every grid point: its row text, or the exception it raised."""
    rows = []
    for v in cfg.grid():
        try:
            rows.append(sweep.compute_row(cfg, float(v)))
        except Exception as exc:  # noqa: BLE001
            rows.append(exc)
    return rows


def expected_rows(cfg, want):
    """The rows a chunk writes where compute_row gave `want`."""
    return [w if isinstance(w, str) else sweep._failed_row(cfg, float(v))
            for v, w in zip(cfg.grid(), want)]


@functools.cache
def reference(name):
    """The 12-point config of sweep `name` and its one-point rows."""
    cfg = sweep_config(name)
    return cfg, one_point_rows(cfg)


def retained_per_slice(cfg):
    """The retained-pair set of every slice of the grid's stack, solved one at a time.

    A T sweep has one slice per temperature; any other sweep one per model
    at the mean temperature and, on a biased sweep, one more per model at
    the baths' own temperatures.
    """
    t_left, t_right = float(cfg.baths["T_left"]), float(cfg.baths["T_right"])
    if cfg.variable == "T":
        model = sweep._junction(cfg, cfg.model)
        points = [(model, float(t), float(t)) for t in cfg.grid()]
    else:
        models = [sweep._junction(cfg, {**cfg.model, cfg.variable: float(v)})
                  for v in cfg.grid()]
        t_mean = 0.5 * (t_left + t_right)
        points = [(m, t_mean, t_mean) for m in models]
        if t_left != t_right:
            points += [(m, t_left, t_right) for m in models]
    sets = []
    for model, t_l, t_r in points:
        rates = redfield.build_k2_boson(
            model, sweep._bose_baths(cfg.baths, t_l, t_r)).population_rates()
        sets.append(steady.cluster_bohr_frequencies(
            model, float(np.max(np.abs(rates))), cfg.cluster_factor).retained_pairs)
    return sets


def retained_sets(cfg):
    """The distinct retained-pair sets of the grid's stack."""
    return set(retained_per_slice(cfg))


@pytest.mark.parametrize("name", sorted(SWEEPS) + sorted(PARAMETER_SWEEPS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(cuts=st.sets(st.integers(1, 11), max_size=6))
def test_every_row_of_a_chunk_is_its_one_point_row(name, cuts):
    # any split of the grid into chunks gives the rows compute_row gives,
    # and a failing row the exception compute_row raises there
    cfg, want = reference(name)
    grid = [float(v) for v in cfg.grid()]
    bounds = [0, *sorted(cuts), len(grid)]
    got = []
    for a, b in zip(bounds, bounds[1:]):
        got += sweep._chunk_rows(cfg, grid[a:b])
    for v, (row, exc), want_row in zip(grid, got, want):
        if isinstance(want_row, Exception):
            assert exc is not None and row == sweep._failed_row(cfg, v)
            assert type(exc) is type(want_row) and str(exc) == str(want_row)
        else:
            assert exc is None and row == want_row


def test_the_partial_rabi_grid_spans_several_retained_sets():
    # the invariance above covers chunks that mix retained-pair groups
    assert len(retained_sets(reference("rabi_partial")[0])) >= 2


def test_the_partial_g_grid_spans_several_retained_sets():
    # ... and, on a parameter sweep, groups that mix models
    sets = retained_per_slice(reference("rabi_g_partial")[0])
    assert len(set(sets)) >= 2
    assert max(sets.count(s) for s in sets) >= 3


@pytest.mark.parametrize("name,failing", [
    ("tls_delta_partial", {0}), ("tls_delta_full", {0}),
    ("rabi_fock", set(range(6, 12))),
])
def test_failing_parameter_rows_fail_alone_with_their_own_exception(name, failing):
    # the reference rows the chunk test above compares against: the failing
    # rows raise on their own (each Fock failure with its own drift), and
    # their neighbours succeed
    cfg, want = reference(name)
    assert {i for i, w in enumerate(want) if isinstance(w, Exception)} == failing
    texts = [str(w) for w in want if isinstance(w, Exception)]
    assert len(set(texts)) == len(texts)
    assert any(isinstance(w, str) for w in want[max(min(failing) - 1, 0):max(failing) + 2])


def test_a_failing_slice_is_found_by_halving_its_stack(monkeypatch):
    # the biased 25-row full-secular delta sweep: the rate graph of row 0
    # (epsilon = delta = 0) is disconnected at both temperatures, so the
    # stack of its 50 slices raises; each half is solved again, down to the
    # two failing slices, instead of all 50 one at a time
    cfg = sweep_config("tls_delta_full", points=25)
    calls = []
    spy(monkeypatch, calls, "full_secular_steady", currents)
    got = sweep._chunk_rows(cfg, [float(v) for v in cfg.grid()])
    assert len(calls) <= 20
    monkeypatch.undo()
    want = one_point_rows(cfg)
    assert [i for i, w in enumerate(want) if isinstance(w, Exception)] == [0]
    assert [row for row, _ in got] == expected_rows(cfg, want)
    assert type(got[0][1]) is type(want[0]) and str(got[0][1]) == str(want[0])
    assert all(exc is None for _, exc in got[1:])


def binders(name, module=baths):
    """Every ltrans module that binds the function <module>.<name>."""
    fn = getattr(module, name)
    return [m for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("ltrans")
            and getattr(m, name, None) is fn]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_a_chunk_evaluates_tables_and_factorizations_once(monkeypatch, name):
    # one 25-row chunk: one W table per distinct spectral density (both baths
    # share theirs), one dW/dT table; each solver factors the systems of a
    # retained-pair group (full secular: of the chunk) twice, for the steady
    # state and for its response
    cfg = sweep_config(name, points=25)
    groups = len(retained_sets(cfg)) if cfg.solver == "partial" else 0
    calls = []
    for table in ("w_table", "dw_dt_table", "dw_dt_real"):
        spy(monkeypatch, calls, table, *binders(table))
    spy(monkeypatch, calls, "_solve_retained", steady)
    spy(monkeypatch, calls, "full_secular_steady", currents)
    spy(monkeypatch, calls, "_block_entries", redfield)
    spy(monkeypatch, calls, "inv", np.linalg)
    spy(monkeypatch, calls, "solve", np.linalg)
    spy(monkeypatch, calls, "_wbar_current", currents)
    spy(monkeypatch, calls, "_secular_current", currents)
    spy(monkeypatch, calls, "retained", redfield.PairLayout)
    spy(monkeypatch, calls, "by_magnitude", baths)
    spy(monkeypatch, calls, "_entry_maps", redfield)
    rows = sweep._chunk_rows(cfg, [float(v) for v in cfg.grid()])
    assert all(exc is None for _, exc in rows)
    # one current contraction per bath and one of kappa2, per group
    if cfg.solver == "partial":
        assert calls.count("retained") == groups   # one pair layout each
        # one sort of the coupled Bohr frequencies for both tables, one set
        # of block index maps per retained set
        assert calls.count("by_magnitude") == 1
        assert calls.count("_entry_maps") == groups
        assert calls.count("w_table") == 1
        assert calls.count("dw_dt_table") == 1
        assert calls.count("dw_dt_real") == 0
        assert calls.count("_solve_retained") == calls.count("inv") == groups
        assert calls.count("_block_entries") == 2 * groups     # kernel and dK/dT blocks
        assert calls.count("solve") == groups
        assert calls.count("_wbar_current") == 3 * groups
        assert calls.count("_secular_current") == 0
    else:
        assert calls.count("w_table") == calls.count("dw_dt_table") == 0
        assert calls.count("dw_dt_real") == 1
        assert calls.count("full_secular_steady") == 1
        assert calls.count("solve") == 2
        assert calls.count("inv") == 0
        assert calls.count("_secular_current") == 3
        assert calls.count("_wbar_current") == calls.count("retained") == 0
        assert calls.count("_block_entries") == 0


@pytest.mark.parametrize("name", ["rabi_g_partial", "rabi_g_full"])
def test_a_parameter_chunk_evaluates_tables_once_and_factors_each_retained_set_once(
        monkeypatch, name):
    # one biased 12-row g-sweep chunk: twelve models, one stack over them;
    # one W table (three temperatures, twelve models), one dW/dT table; the
    # partial solver factors each retained-pair group of the 24 slices once
    # (across models) and solves the response of its slices at the mean
    # temperature, none in the groups that hold no such slice; the full
    # solver factors the chunk once
    cfg = sweep_config(name)
    sets = retained_per_slice(cfg)
    groups = len(set(sets))
    responses = len(set(sets[:12]))
    calls = []
    for table in ("w_table", "dw_dt_table", "dw_dt_real"):
        spy(monkeypatch, calls, table, *binders(table))
    spy(monkeypatch, calls, "build_rabi_junction", sweep)
    spy(monkeypatch, calls, "kappa2_sweep", sweep)
    spy(monkeypatch, calls, "gamma_rates", currents)
    spy(monkeypatch, calls, "_solve_retained", steady)
    spy(monkeypatch, calls, "full_secular_steady", currents)
    spy(monkeypatch, calls, "_block_entries", redfield)
    spy(monkeypatch, calls, "inv", np.linalg)
    solved = []                 # the number of systems of each np.linalg.solve call
    orig_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solved.append(len(a)) or orig_solve(a, b))
    spy(monkeypatch, calls, "_wbar_current", currents)
    spy(monkeypatch, calls, "_secular_current", currents)
    spy(monkeypatch, calls, "retained", redfield.PairLayout)
    spy(monkeypatch, calls, "by_magnitude", baths)
    spy(monkeypatch, calls, "_entry_maps", redfield)
    rows = sweep._chunk_rows(cfg, [float(v) for v in cfg.grid()])
    assert all(exc is None for _, exc in rows)
    assert calls.count("build_rabi_junction") == 12
    assert calls.count("kappa2_sweep") == 1
    if cfg.solver == "partial":
        assert 2 <= groups < 24
        assert calls.count("retained") == groups   # one pair layout each
        # one sort of the coupled Bohr frequencies for both tables, one set
        # of block index maps per retained set
        assert calls.count("by_magnitude") == 1
        assert calls.count("_entry_maps") == groups
        assert calls.count("w_table") == 1
        assert calls.count("dw_dt_table") == 1
        assert calls.count("dw_dt_real") == calls.count("gamma_rates") == 0
        assert calls.count("_solve_retained") == calls.count("inv") == groups
        # kernel and dK/dT blocks, one response solve and one kappa2
        # contraction per group; a group with no slice at the mean
        # temperature solves an empty stack
        assert calls.count("_block_entries") == 2 * groups
        assert len(solved) == groups and sum(solved) == 12
        assert np.count_nonzero(solved) == responses
        assert calls.count("_wbar_current") == 3 * groups
        assert calls.count("_secular_current") == 0
    else:
        assert calls.count("w_table") == calls.count("dw_dt_table") == 0
        assert calls.count("dw_dt_real") == calls.count("gamma_rates") == 1
        assert calls.count("full_secular_steady") == 1
        assert solved == [24, 12]        # the steady states, then the responses
        assert calls.count("inv") == 0
        assert calls.count("_secular_current") == 3
        assert calls.count("_wbar_current") == calls.count("retained") == 0
        assert calls.count("_block_entries") == 0


def portable_solve(monkeypatch):
    """Make np.linalg.solve reject right-hand sides that numpy 1.x and 2.x
    read differently: a stack of vectors (numpy 1.x: b.ndim == a.ndim - 1,
    numpy 2.x: b.ndim == 1) rather than of one-column matrices."""
    orig = np.linalg.solve

    def strict(a, b):
        assert np.ndim(b) == np.ndim(a) or (np.ndim(a) == 2 and np.ndim(b) == 1), \
            (np.shape(a), np.shape(b))
        return orig(a, b)

    monkeypatch.setattr(np.linalg, "solve", strict)


@pytest.mark.parametrize("name", sorted(SWEEPS) + ["rabi_g_full", "rabi_g_partial"])
def test_stacked_solves_read_alike_on_every_numpy(monkeypatch, name):
    cfg, want = reference(name)
    portable_solve(monkeypatch)
    grid = [float(v) for v in cfg.grid()]
    assert [row for row, _ in sweep._chunk_rows(cfg, grid)] == \
        expected_rows(cfg, want)
    assert sweep.compute_row(cfg, grid[-1]) == want[-1]


@pytest.mark.parametrize("name,budget", [
    ("tls_partial", 40), ("rabi_full", 40),
    # two 5-level temperatures per slice, one per slice of a group of
    # systems of seven or more unknowns
    ("rabi_partial", 50),
])
def test_a_long_chunk_is_solved_in_bounded_slices(monkeypatch, name, budget):
    # with a tiny stack budget the chunk is cut into several slices, every
    # bath table and kernel block stays within the budget (one temperature
    # alone may exceed it), and the rows do not change
    cfg, want = reference(name)
    monkeypatch.setattr(currents, "_STACK_ENTRIES", budget)
    sizes = {}        # function -> (entries, entries at one temperature) per call

    def record(module, fname):
        orig = getattr(module, fname)

        def recorded(*args):
            out = orig(*args)
            sizes.setdefault(fname, []).append((out.size, out.shape[-2] * out.shape[-1]))
            return out

        monkeypatch.setattr(module, fname, recorded)

    for module, fname in [(redfield, "w_table"), (currents, "dw_dt_table"),
                          (currents, "dw_dt_real"), (redfield, "_block_entries")]:
        record(module, fname)
    grid = [float(v) for v in cfg.grid()]
    assert [row for row, _ in sweep._chunk_rows(cfg, grid)] == \
        expected_rows(cfg, want)
    dw = sizes.get("dw_dt_table", []) + sizes.get("dw_dt_real", [])
    assert len(dw) > 1
    assert all(size <= max(budget, one) for calls in sizes.values() for size, one in calls)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_a_long_chunk_is_computed_in_stacks_of_rows_on_one_model(monkeypatch, name):
    # the sweep holds the steady states of one stack of rows at a time; the
    # model is still built once for the chunk
    cfg, want = reference(name)
    monkeypatch.setattr(sweep, "_ROWS_PER_STACK", 5)
    calls = []
    spy(monkeypatch, calls, "kappa2_sweep", sweep)
    spy(monkeypatch, calls, "_junction", sweep)
    grid = [float(v) for v in cfg.grid()]
    assert [row for row, _ in sweep._chunk_rows(cfg, grid)] == \
        expected_rows(cfg, want)
    assert calls.count("kappa2_sweep") == 3 and calls.count("_junction") == 1


@pytest.mark.parametrize("name,budget", [
    ("tls_delta_partial", 40), ("tls_delta_full", 40),
    # two 5-level models per slice (three temperatures each), one slice of
    # a group of systems of nine unknowns
    ("rabi_g_partial", 160), ("rabi_g_full", 160),
])
def test_a_long_parameter_chunk_is_solved_in_bounded_slices_of_models(monkeypatch, name,
                                                                      budget):
    cfg, want = reference(name)
    monkeypatch.setattr(currents, "_STACK_ENTRIES", budget)
    sizes = []

    def record(module, fname):
        orig = getattr(module, fname)

        def recorded(*args):
            out = orig(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(module, fname, recorded)

    for module, fname in [(redfield, "w_table"), (currents, "dw_dt_table"),
                          (currents, "dw_dt_real"), (redfield, "_block_entries")]:
        record(module, fname)
    calls = []
    spy(monkeypatch, calls, "_kappa2_stack", currents)
    grid = [float(v) for v in cfg.grid()]
    assert [row for row, _ in sweep._chunk_rows(cfg, grid)] == expected_rows(cfg, want)
    assert calls.count("_kappa2_stack") > 1
    assert max(sizes) <= budget


@pytest.mark.parametrize("name", sorted(PARAMETER_SWEEPS))
def test_a_long_parameter_chunk_builds_and_solves_a_stack_of_models_at_a_time(
        monkeypatch, name):
    cfg, want = reference(name)
    monkeypatch.setattr(sweep, "_ROWS_PER_STACK", 5)
    calls = []
    spy(monkeypatch, calls, "kappa2_sweep", sweep)
    spy(monkeypatch, calls, "_junction", sweep)
    grid = [float(v) for v in cfg.grid()]
    assert [row for row, _ in sweep._chunk_rows(cfg, grid)] == expected_rows(cfg, want)
    # a stack whose models all fail to build solves nothing
    built = [not str(w).startswith("Fock truncation") for w in want]
    assert calls.count("kappa2_sweep") == sum(any(built[i:i + 5]) for i in (0, 5, 10))
    assert calls.count("_junction") == 12


def poison_w_table(monkeypatch, bad_t, part, gap=None):
    """Make W non-finite at temperature bad_t: its real part (which the
    clustering reads) or its imaginary part (which only the solve reads);
    or make its real part vanish, so that the clustering scale is 0.  Given
    a gap, only at the Bohr frequencies +-gap (of the models of a stack
    whose levels lie that far apart)."""
    orig = redfield.w_table

    def poisoned(omega, bath):
        out = orig(omega, bath)
        hit = np.asarray(bath.beta) == 1.0 / bad_t
        if hit.ndim:
            if gap is not None:
                f = omega if isinstance(omega, np.ndarray) else omega.scatter(omega.omega).real
                hit = hit.reshape(hit.shape + (1,) * f.ndim) & (np.abs(f) == gap)
            (out.imag if part == "imag" else out.real)[hit] = 0.0 if part == "zero" else np.nan
        return out

    monkeypatch.setattr(redfield, "w_table", poisoned)


def poison_gamma_rates(monkeypatch, bad_t, part, gap=None):
    """Cut every rate at temperature bad_t: the rate graph falls apart.
    Given a gap, only on the models of a stack whose levels span it."""
    orig = currents.gamma_rates

    def poisoned(model, baths_):
        rates = orig(model, baths_)
        hit = np.asarray(baths_[0].beta) == 1.0 / bad_t
        if gap is not None:
            hit = np.ix_(hit, np.ptp(model.omega, axis=-1) == gap)
        for g in (rates.gamma, *rates.per_reservoir.values()):
            g[hit] = 0.0
        return rates

    monkeypatch.setattr(currents, "gamma_rates", poisoned)


@pytest.mark.parametrize("name,poison,part,error", [
    ("tls_partial", poison_w_table, "real", ValidationError),
    ("tls_partial", poison_w_table, "zero", ValidationError),
    ("rabi_partial", poison_w_table, "imag", NumericError),
    ("rabi_full", poison_gamma_rates, "all", ValidationError),
], ids=["clustering", "clustering_collides", "partial_solve", "full_solve"])
def test_a_failing_temperature_fails_its_row_alone(monkeypatch, name, poison, part,
                                                   error):
    cfg = sweep_config(name, points=9)
    grid = [float(v) for v in cfg.grid()]
    clean = sweep._chunk_rows(cfg, grid)
    bad = 4
    if part == "zero":
        # the threshold c * 0 counts the |omega_nm| that a valid row of
        # diagonal pairs alone counts: the rejected scale must not join them
        model = sweep._junction(cfg, cfg.model)
        assert tuple((n, n) for n in range(model.dim)) in retained_sets(cfg)
    poison(monkeypatch, grid[bad], part)
    with pytest.raises(error) as raised:
        sweep.compute_row(cfg, grid[bad])
    rows = sweep._chunk_rows(cfg, grid)
    assert rows[bad][0] == sweep._failed_row(cfg, grid[bad])
    assert type(rows[bad][1]) is error and str(rows[bad][1]) == str(raised.value)
    assert [r for i, r in enumerate(rows) if i != bad] == \
        [r for i, r in enumerate(clean) if i != bad]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(solver=st.sampled_from(["full", "partial"]),
       kind=st.sampled_from(["models", "biased", "T"]),
       params=st.lists(st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.0, 0.7), (0.0, 1.0),
                                        (0.3, 0.7), (0.7, 0.3), (0.3, 1.0), (-0.3, 0.7)]),
                       min_size=2, max_size=6),
       temperatures=st.lists(st.sampled_from([0.03, 0.05, 0.1, 0.2, 0.4]),
                             min_size=2, max_size=6),
       poisons=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["real", "imag", "zero"]),
                                  st.one_of(st.none(), st.integers(0, 5))), max_size=3))
# the biased slice of model 1 fails its clustering, and its kappa2 (at the
# mean temperature 0.1) fails its solve: the entry carries kappa2's failure
@example(solver="partial", kind="biased", params=[(0.3, 0.7), (0.7, 0.3)],
         temperatures=[0.1, 0.1], poisons=[(0, "imag", None), (1, "real", 1)])
def test_a_stacked_entry_is_its_one_entry_call_or_its_failure(solver, kind, params,
                                                                temperatures, poisons):
    # TLS model stacks (epsilon, delta) at one temperature, with and without
    # bias, and TLS temperature stacks (on the first model), with poisoned
    # entries: each poison names a temperature (of the stack, or the mean
    # and the baths' on a model stack) and perhaps a model, whose levels'
    # gap it hits.  Each entry of a call of several is bitwise its one-entry
    # call, or carries the exception that call raises (a one-entry call
    # raises, it returns no failure); a failing biased entry carries kappa2's
    # exception where kappa2 fails alone
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    t_left, t_right = (0.12, 0.08) if kind == "biased" else (0.1, 0.1)
    pair = [Reservoir("L", 1 / t_left, sd), Reservoir("R", 1 / t_right, sd)]
    models = [sweep._tls_junction(*p) for p in params]
    if kind == "T":
        models, ts, hot = models[:1], temperatures, temperatures
        entries = [(models[0], [t]) for t in ts]
    else:
        ts, hot = [0.5 * (t_left + t_right)], [0.5 * (t_left + t_right), t_left, t_right]
        entries = [(m, ts) for m in models]
    biased = kind == "biased"
    with pytest.MonkeyPatch.context() as mp:
        for t, part, at in poisons:
            gap = None if at is None else float(np.ptp(models[at % len(models)].omega))
            (poison_gamma_rates if solver == "full" else poison_w_table)(
                mp, hot[t % len(hot)], part, gap)
        got = kappa2_sweep(stack_models(models), pair, ts, solver, biased=biased)
        assert len(got) == len(entries)
        for res, (model, t) in zip(got, entries):
            try:
                [want] = kappa2_sweep(model, pair, t, solver, biased=biased)
            except (ValidationError, NumericError) as exc:
                assert type(res) is type(exc) and str(res) == str(exc)
                if biased:
                    try:
                        kappa2_sweep(model, pair, t, solver)
                    except (ValidationError, NumericError) as alone:
                        assert type(exc) is type(alone) and str(exc) == str(alone)
                continue
            assert not isinstance(want, Exception)
            assert bits(res.kappa2) == bits(want.kappa2)
            assert res.state.retained_pairs == want.state.retained_pairs
            assert res.state.rho.tobytes() == want.state.rho.tobytes()
            assert {k: bits(v) for k, v in res.currents.items()} == \
                {k: bits(v) for k, v in want.currents.items()}


def test_kappa2_sweep_rejects_bad_temperatures_at_once():
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    pair = [Reservoir("L", 1.0, sd), Reservoir("R", 1.0, sd)]
    model = sweep._junction(sweep_config("tls_partial"), {"epsilon": 0.3, "delta": 1.0})
    with pytest.raises(ValidationError, match="positive"):
        kappa2_sweep(model, pair, [0.1, 0.0, 0.2])
    with pytest.raises(ValidationError, match="1-d"):
        kappa2_sweep(model, pair, [[0.1]])
    with pytest.raises(ValidationError, match="a model stack takes one temperature"):
        kappa2_sweep(stack_models([model, model]), pair, [0.1, 0.2])


def bits(x):
    """The bits of a float: -0.0 and 0.0 differ, every NaN is alike."""
    return float(x).hex()


def per_row_wbar_current(q, wbar, rho):
    """The one-temperature heat-current contraction, row by row (q may
    carry the rows' axis, one coupling matrix per row)."""
    def one(q, w, r):
        if len(q) < currents._MATMUL_FROM_DIM:
            total = np.einsum("mn,np,nm,pm->", q, q, w, r)
        else:
            total = np.sum(q.T * w * (q @ r))
        return float(-2.0 * np.real(total))

    qs = q if q.ndim == 3 else [q] * len(wbar)
    return np.array([one(qj, w, r) for qj, w, r in zip(qs, wbar, rho)])


def per_row_secular_current(wdiff, g, p):
    """The one-temperature population current, row by row (wdiff may carry
    the rows' axis)."""
    wdiffs = wdiff if wdiff.ndim == 3 else [wdiff] * len(g)
    return np.array([float(np.einsum("nm,nm,m->", wd, gj, pj))
                     for wd, gj, pj in zip(wdiffs, g, p)])


@pytest.mark.parametrize("solver", ["partial", "full"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       dim=st.integers(2, 9),        # both sides of currents._MATMUL_FROM_DIM
       split=st.floats(1e-4, 0.3),
       temps=st.lists(st.floats(0.02, 3.0), min_size=1, max_size=30))
def test_stacked_contractions_are_bitwise_the_per_row_ones(solver, seed, dim, split,
                                                           temps):
    # kappa2 and the currents, contracted once per stack or retained-pair
    # group, carry the bits of the one-temperature contraction of each row
    model = random_junction(seed, dim, split)
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    pair = [Reservoir("L", 1.0, sd), Reservoir("R", 1.0, sd)]
    got = kappa2_sweep(model, pair, temps, solver)
    with mock.patch.object(currents, "_wbar_current", per_row_wbar_current), \
            mock.patch.object(currents, "_secular_current", per_row_secular_current):
        want = kappa2_sweep(model, pair, temps, solver)
    assert len(got) == len(want) == len(temps)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w)
            continue
        assert bits(g.kappa2) == bits(w.kappa2)
        assert {k: bits(v) for k, v in g.currents.items()} == \
            {k: bits(v) for k, v in w.currents.items()}
        assert all(type(v) is float for v in (g.kappa2, *g.currents.values()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12), temps=st.integers(1, 30))
def test_stacked_current_forms_are_bitwise_the_one_temperature_forms(seed, dim, temps):
    # the contractions themselves, on random tables and states
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim))
    q = x + x.T
    wbar = rng.standard_normal((temps, dim, dim)) + 1j * rng.standard_normal((temps, dim, dim))
    y = rng.standard_normal((temps, dim, dim)) + 1j * rng.standard_normal((temps, dim, dim))
    rho = y @ np.conj(np.swapaxes(y, -1, -2))
    got = currents._wbar_current(q, wbar, rho)
    assert [bits(v) for v in got] == [bits(v) for v in per_row_wbar_current(q, wbar, rho)]
    assert [bits(currents._wbar_current(q, w, r)) for w, r in zip(wbar, rho)] == \
        [bits(v) for v in got]
    wdiff = rng.standard_normal((dim, dim))
    g = rng.standard_normal((temps, dim, dim))
    p = rng.random((temps, dim))
    got = currents._secular_current(wdiff, g, p)
    assert [bits(v) for v in got] == [bits(v) for v in per_row_secular_current(wdiff, g, p)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
       dim=st.integers(2, 9),        # both sides of currents._MATMUL_FROM_DIM
       split=st.floats(1e-4, 0.3), temps=st.integers(1, 3), picks=st.integers(0, 2**16))
def test_model_axis_blocks_rates_and_contractions_are_bitwise_the_per_model_ones(
        seeds, dim, split, temps, picks):
    # a model stack's tables, kernel blocks, population rates and current
    # contractions, sliced per model, carry the bits of the one-model values
    models = [random_junction(seed, dim, split) for seed in seeds]
    stack = stack_models(models)
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    betas = 1.0 / np.linspace(0.05, 2.0, temps)
    pair = [Reservoir("L", betas, sd), Reservoir("R", betas[::-1].copy(), sd)]
    rng = np.random.default_rng(picks)
    pairs = redfield.all_pairs(dim)
    pairs = pairs[np.sort(rng.choice(len(pairs), int(rng.integers(1, len(pairs) + 1)),
                                     replace=False))]
    k2 = redfield.build_k2_boson(stack, pair)              # w: (temps, models, B, N, N)
    rates = redfield.gamma_rates(stack, pair) if all(
        np.abs(m.bohr_matrix()[~np.eye(dim, dtype=bool)]).min() > 1e-12
        for m in models) else None
    layout = redfield.PairLayout(dim, pairs)
    block = layout.entries(k2.q, k2.w)
    population = k2.population_rates()
    y = rng.standard_normal((len(models), dim, dim)) + 1j * rng.standard_normal(
        (len(models), dim, dim))
    rho = y @ np.conj(y.swapaxes(-1, -2))
    wbar = stack.bohr_matrix()[:, None] * k2.w[0]
    current = currents._wbar_current(k2.q[:, 0], wbar[:, 0], rho)
    wdiff = stack.omega[:, None, :] - stack.omega[:, :, None]
    secular = currents._secular_current(wdiff, population[0], rho.real[:, 0])
    for r, model in enumerate(models):
        one = redfield.build_k2_boson(model, pair)
        assert k2.w[:, r].tobytes() == one.w.tobytes()
        assert block[:, r].tobytes() == layout.entries(one.q, one.w).tobytes()
        assert population[:, r].tobytes() == one.population_rates().tobytes()
        if rates is not None:
            assert rates.gamma[:, r].tobytes() == redfield.gamma_rates(
                model, pair).gamma.tobytes()
        w_one = model.bohr_matrix() * one.w[0]
        assert bits(current[r]) == bits(currents._wbar_current(one.q[0], w_one[0], rho[r]))
        assert bits(secular[r]) == bits(currents._secular_current(
            wdiff[r], one.population_rates()[0], rho.real[r, 0]))


def degenerate_coupled_junction(dim):
    """A junction whose levels 0 and 1 are degenerate and coupled to both baths."""
    omega = np.arange(dim, dtype=float)
    omega[1] = 0.0
    return build_junction(omega, {rid: np.ones((dim, dim)) for rid in ("L", "R")})


@pytest.mark.parametrize("solver", ["full", "partial"])
@pytest.mark.parametrize("biased", [False, True])
def test_a_failing_model_of_a_stack_fails_its_entry_alone(solver, biased):
    # full secular rejects the degenerate coupled pair of one model before
    # any solve (gamma_rates, once per stack): that model's entry carries
    # the exception a one-model stack raises, and the other entries keep
    # their bits; partial secular solves it
    dim = 4
    models = [random_junction(7, dim, 0.01), degenerate_coupled_junction(dim),
              random_junction(8, dim, 0.2)]
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    pair = [Reservoir("L", 1 / 0.12 if biased else 10.0, sd),
            Reservoir("R", 1 / 0.08 if biased else 10.0, sd)]
    got = kappa2_sweep(stack_models(models), pair, [0.1], solver, biased=biased)
    for model, res in zip(models, got):
        try:            # a model alone raises what fails it before its solves
            [want] = kappa2_sweep(model, pair, [0.1], solver, biased=biased)
        except ValidationError as exc:
            want = exc
        if isinstance(want, Exception):
            assert type(res) is type(want) and str(res) == str(want)
            continue
        assert bits(res.kappa2) == bits(want.kappa2)
        assert res.state.rho.tobytes() == want.state.rho.tobytes()
        assert {k: bits(v) for k, v in res.currents.items()} == \
            {k: bits(v) for k, v in want.currents.items()}
    assert isinstance(got[1], ValidationError) == (solver == "full")
    assert not isinstance(got[0], Exception) and not isinstance(got[2], Exception)


def test_models_that_retain_as_many_but_other_pairs_are_solved_apart():
    # each model keeps one quasi-degenerate coherence, (1, 2) or (0, 1):
    # six retained pairs each, so a count cannot tell the sets apart
    q = np.ones((4, 4)) + np.diag([1.0, 2.0, 3.0, 4.0])
    models = [build_junction(omega, {"L": q, "R": q})
              for omega in ([0.0, 1.0, 1.001, 3.0], [0.0, 0.001, 2.0, 3.0])]
    stack = stack_models(models)
    scales = np.full(2, 1e-3)
    groups = currents._cluster_groups(stack, scales, 10.0)
    assert [r.tolist() for _, r in groups] == [[0], [1]]
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    pair = [Reservoir("L", 1 / 0.12, sd), Reservoir("R", 1 / 0.08, sd)]
    got = kappa2_sweep(stack, pair, [0.1], "partial", biased=True)
    for model, res in zip(models, got):
        [want] = kappa2_sweep(model, pair, [0.1], "partial", biased=True)
        assert res.state.retained_pairs == want.state.retained_pairs
        assert bits(res.kappa2) == bits(want.kappa2)
        assert res.state.rho.tobytes() == want.state.rho.tobytes()
    assert got[0].state.retained_pairs != got[1].state.retained_pairs


def test_a_failing_model_solve_fails_its_row_alone(monkeypatch):
    # a non-finite W on one model of a g sweep (its imaginary part, which
    # only the solve reads) fails that row alone, with compute_row's error
    cfg, want = reference("rabi_g_partial")
    grid = [float(v) for v in cfg.grid()]
    bad = 5
    bad_model = sweep._junction(cfg, {**cfg.model, "g": grid[bad]})
    # the table is evaluated on the coupled pairs of each model of the stack,
    # in model order: the bad model's entries are the run of its own
    bad_omega = baths.coupled_frequencies(bad_model).omega
    orig = redfield.w_table

    def poisoned(omega, bath):
        out = orig(omega, bath)
        got = omega.omega
        pairs = np.flatnonzero(omega.mask)       # the flat position of each entry of got
        flat = out.reshape(out.shape[:-omega.mask.ndim] + (-1,))
        for i in range(len(got) - len(bad_omega) + 1):
            if np.array_equal(got[i:i + len(bad_omega)], bad_omega):
                flat.imag[..., pairs[i:i + len(bad_omega)]] = np.nan
        return out

    monkeypatch.setattr(redfield, "w_table", poisoned)
    with pytest.raises(NumericError) as raised:
        sweep.compute_row(cfg, grid[bad])
    rows = sweep._chunk_rows(cfg, grid)
    assert rows[bad][0] == sweep._failed_row(cfg, grid[bad])
    assert type(rows[bad][1]) is NumericError and str(rows[bad][1]) == str(raised.value)
    assert [r for i, (r, _) in enumerate(rows) if i != bad] == \
        [r for i, r in enumerate(expected_rows(cfg, want)) if i != bad]


def clusters_of(groups, i):
    [clusters] = [c for c, rows in groups if i in rows.tolist()]
    return clusters


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
       c=st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0]),
       picks=st.lists(st.one_of(st.integers(0, 35), st.floats(0.0, 5.0),
                                st.sampled_from([0.0, -1.0, np.nan, np.inf])),
                      min_size=1, max_size=20))
# distinct levels; a finite threshold (0) and a NaN one (0 * inf) both keep
# the diagonal alone, one set
@example(seed=1, dim=3, c=0.0, picks=[0.5, np.inf])
def test_retained_set_groups_are_the_per_temperature_clusterings(seed, dim, c, picks):
    # levels on an integer ladder (with a degenerate pair): many |omega_nm|
    # tie; an integer pick k gives the scale whose threshold c * scale is
    # exactly the k-th |omega_nm|, a float pick the scale itself
    rng = np.random.default_rng(seed)
    omega = np.sort(rng.integers(0, 4, size=dim)).astype(float)
    model = build_junction(omega, {"L": np.ones((dim, dim)), "R": np.ones((dim, dim))})
    levels = np.sort(np.abs(model.bohr_matrix()), axis=None)
    scales = np.array([levels[p % dim**2] / c if isinstance(p, int) and c else float(p)
                       for p in picks])
    # a stack with a rejected scale raises the first one's error; the
    # accepted scales are grouped
    accepted, rejected = [], []
    for scale in scales.tolist():
        try:
            accepted.append((scale, steady.cluster_bohr_frequencies(model, scale, c)))
        except ValidationError as exc:
            rejected.append(exc)
    if rejected:
        with pytest.raises(ValidationError) as raised:
            currents._cluster_groups(stack_models([model]), scales, c)
        assert str(raised.value) == str(rejected[0])
    if not accepted:
        return
    groups = currents._cluster_groups(stack_models([model]),
                                      np.array([s for s, _ in accepted]), c)
    rows = sorted(i for _, r in groups for i in r.tolist())
    assert rows == list(range(len(accepted)))
    assert len({cl.retained_pairs for cl, _ in groups}) == len(groups)
    for _, r in groups:
        assert r.tolist() == sorted(r.tolist())
    for i, (_, want) in enumerate(accepted):
        assert clusters_of(groups, i).retained_pairs == want.retained_pairs


def test_a_threshold_equal_to_a_bohr_frequency_retains_its_pairs():
    # c * scale = |omega_nm| exactly (0.5 and 1 here): the pair is retained
    # (<=); the group's clustering is that of its first temperature, and a
    # rejected scale raises (a row that holds it fails alone: see
    # test_a_failing_temperature_fails_its_row_alone)
    model = build_junction([0.0, 1.0, 2.0, 2.5],
                           {"L": np.ones((4, 4)), "R": np.ones((4, 4))})
    stack = stack_models([model])
    scales = np.array([0.5, 1.0, 0.499, 2.0, 0.75, 1.0, 0.0, np.nan])
    groups = currents._cluster_groups(stack, scales[:6], 1.0)
    assert [r.tolist() for _, r in groups] == [[0, 4], [1, 5], [2], [3]]
    for cl, r in groups:
        want = steady.cluster_bohr_frequencies(model, float(scales[r[0]]), 1.0)
        assert cl.retained_pairs == want.retained_pairs
    assert (2, 3) in groups[0][0].retained_pairs and (2, 3) not in groups[2][0].retained_pairs
    assert (1, 2) in groups[1][0].retained_pairs and (1, 2) not in groups[0][0].retained_pairs
    with pytest.raises(ValidationError, match="^all population rates vanish; no steady state$"):
        currents._cluster_groups(stack, scales, 1.0)
    with pytest.raises(ValidationError, match="^gamma_scale must be positive$"):
        currents._cluster_groups(stack, scales[[0, 7]], 1.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=st.floats(), fields=st.lists(st.floats(), min_size=7, max_size=7),
       levels=st.integers(0, 30))
@example(value=0.1, fields=[np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072009e-308,
                            1.7976931348623157e308], levels=2)
def test_a_row_is_the_join_of_its_formatted_cells(value, fields, levels):
    cfg = sweep_config("tls_partial")
    want = ",".join([cfg.variable, format(value, ".17g"),
                     *(format(f, ".17g") for f in fields), cfg.solver, str(levels)])
    assert sweep._format_row(cfg, value, fields, levels) == want
    assert sweep._format_row(cfg, value, np.array(fields), levels) == want
