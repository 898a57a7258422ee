"""A T-sweep chunk is computed as one stack over its temperatures.

Every row of a chunk must be byte-identical to `compute_row` at its point,
whatever the chunk boundaries; the bath tables, kernel blocks and solves are
evaluated once per chunk (per retained-pair group), or once per slice of a
long chunk, whose size bounds their arrays; and a failure at one
temperature stays with its own row.
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
from ltrans.model import Reservoir, SpectralDensity, build_junction

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


def sweep_config(name, points=12):
    return parse_config_text(SWEEPS[name].format(points=points)
                             + "[output]\ncsv = unused.csv\n")


def one_point_rows(cfg):
    """compute_row at every grid point: (row text, or None if it raised)."""
    rows = []
    for v in cfg.grid():
        try:
            rows.append(sweep.compute_row(cfg, float(v)))
        except Exception:  # noqa: BLE001
            rows.append(None)
    return rows


@functools.cache
def reference(name):
    """The 12-point config of sweep `name` and its one-point rows."""
    cfg = sweep_config(name)
    return cfg, one_point_rows(cfg)


def retained_sets(cfg):
    """The distinct retained-pair sets of the grid, one temperature at a time."""
    model, _ = sweep._junction(cfg, cfg.model)
    sets = set()
    for t in cfg.grid():
        common = sweep._bose_baths(cfg.baths, float(t), float(t))
        rates = redfield.build_k2_boson(model, common).population_rates()
        clusters = steady.cluster_bohr_frequencies(model, float(np.max(np.abs(rates))),
                                                   cfg.cluster_factor)
        sets.add(clusters.retained)
    return sets


@pytest.mark.parametrize("name", sorted(SWEEPS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(cuts=st.sets(st.integers(1, 11), max_size=6))
def test_every_row_of_a_chunk_is_its_one_point_row(name, cuts):
    # any split of the grid into chunks gives the rows compute_row gives
    cfg, want = reference(name)
    grid = [float(v) for v in cfg.grid()]
    bounds = [0, *sorted(cuts), len(grid)]
    got = []
    for a, b in zip(bounds, bounds[1:]):
        got += sweep._chunk_rows(cfg, grid[a:b])
    for v, (row, exc), want_row in zip(grid, got, want):
        if want_row is None:
            assert exc is not None and row == sweep._failed_row(cfg, v)
        else:
            assert exc is None and row == want_row


def test_the_partial_rabi_grid_spans_several_retained_sets():
    # the invariance above covers chunks that mix retained-pair groups
    assert len(retained_sets(reference("rabi_partial")[0])) >= 2


def binders(name):
    """Every ltrans module that binds the function ltrans.baths.<name>."""
    fn = getattr(baths, name)
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
    spy(monkeypatch, calls, "k2_pair_block", redfield, currents)
    spy(monkeypatch, calls, "inv", np.linalg)
    spy(monkeypatch, calls, "solve", np.linalg)
    spy(monkeypatch, calls, "_wbar_current", currents)
    spy(monkeypatch, calls, "_secular_current", currents)
    spy(monkeypatch, calls, "_clusters", currents)
    rows = sweep._chunk_rows(cfg, [float(v) for v in cfg.grid()])
    assert all(exc is None for _, exc in rows)
    # one current contraction per bath and one of kappa2, per group
    if cfg.solver == "partial":
        assert calls.count("w_table") == 1
        assert calls.count("dw_dt_table") == 1
        assert calls.count("dw_dt_real") == 0
        assert calls.count("_solve_retained") == calls.count("inv") == groups
        assert calls.count("k2_pair_block") == 2 * groups     # kernel and dK/dT blocks
        assert calls.count("solve") == groups
        assert calls.count("_clusters") == groups
        assert calls.count("_wbar_current") == 3 * groups
        assert calls.count("_secular_current") == 0
    else:
        assert calls.count("w_table") == calls.count("dw_dt_table") == 0
        assert calls.count("dw_dt_real") == 1
        assert calls.count("full_secular_steady") == 1
        assert calls.count("solve") == 2
        assert calls.count("inv") == 0
        assert calls.count("_secular_current") == 3
        assert calls.count("_wbar_current") == calls.count("_clusters") == 0


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


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_stacked_solves_read_alike_on_every_numpy(monkeypatch, name):
    cfg, want = reference(name)
    portable_solve(monkeypatch)
    grid = [float(v) for v in cfg.grid()]
    assert [row for row, _ in sweep._chunk_rows(cfg, grid)] == \
        [w if w is not None else sweep._failed_row(cfg, v) for v, w in zip(grid, want)]
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
                          (currents, "dw_dt_real"), (redfield, "k2_pair_block"),
                          (currents, "k2_pair_block")]:
        record(module, fname)
    grid = [float(v) for v in cfg.grid()]
    assert [row for row, _ in sweep._chunk_rows(cfg, grid)] == \
        [w if w is not None else sweep._failed_row(cfg, v) for v, w in zip(grid, want)]
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
        [w if w is not None else sweep._failed_row(cfg, v) for v, w in zip(grid, want)]
    assert calls.count("kappa2_sweep") == 3 and calls.count("_junction") == 1


def poison_w_table(monkeypatch, bad_t, part):
    """Make W non-finite at temperature bad_t: its real part (which the
    clustering reads) or its imaginary part (which only the solve reads);
    or make its real part vanish, so that the clustering scale is 0."""
    orig = redfield.w_table

    def poisoned(omega, bath):
        out = orig(omega, bath)
        hit = np.asarray(bath.beta) == 1.0 / bad_t
        if hit.ndim:
            (out.imag if part == "imag" else out.real)[hit] = 0.0 if part == "zero" else np.nan
        return out

    monkeypatch.setattr(redfield, "w_table", poisoned)


def poison_gamma_rates(monkeypatch, bad_t, part):
    """Cut every rate at temperature bad_t: the rate graph falls apart."""
    orig = currents.gamma_rates

    def poisoned(model, baths_):
        rates = orig(model, baths_)
        hit = np.asarray(baths_[0].beta) == 1.0 / bad_t
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
        model, _ = sweep._junction(cfg, cfg.model)
        assert frozenset((n, n) for n in range(model.dim)) in retained_sets(cfg)
    poison(monkeypatch, grid[bad], part)
    with pytest.raises(error) as raised:
        sweep.compute_row(cfg, grid[bad])
    rows = sweep._chunk_rows(cfg, grid)
    assert rows[bad][0] == sweep._failed_row(cfg, grid[bad])
    assert type(rows[bad][1]) is error and str(rows[bad][1]) == str(raised.value)
    assert [r for i, r in enumerate(rows) if i != bad] == \
        [r for i, r in enumerate(clean) if i != bad]


def test_kappa2_sweep_rejects_bad_temperatures_at_once():
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    pair = [Reservoir("L", 1.0, sd), Reservoir("R", 1.0, sd)]
    model, _ = sweep._junction(sweep_config("tls_partial"), {"epsilon": 0.3, "delta": 1.0})
    with pytest.raises(ValidationError, match="positive"):
        kappa2_sweep(model, pair, [0.1, 0.0, 0.2])
    with pytest.raises(ValidationError, match="1-d"):
        kappa2_sweep(model, pair, [[0.1]])


def bits(x):
    """The bits of a float: -0.0 and 0.0 differ, every NaN is alike."""
    return float(x).hex()


def per_row_wbar_current(q, wbar, rho):
    """The one-temperature heat-current contraction, row by row."""
    def one(w, r):
        if len(q) < currents._MATMUL_FROM_DIM:
            total = np.einsum("mn,np,nm,pm->", q, q, w, r)
        else:
            total = np.sum(q.T * w * (q @ r))
        return float(-2.0 * np.real(total))

    return np.array([one(w, r) for w, r in zip(wbar, rho)])


def per_row_secular_current(wdiff, g, p):
    """The one-temperature population current, row by row."""
    return np.array([float(np.einsum("nm,nm,m->", wdiff, gj, pj)) for gj, pj in zip(g, p)])


def random_junction(seed, dim, split):
    """A junction of `dim` levels, two of them `split` apart, so that the
    retained pairs change with the temperature on the partial solver."""
    rng = np.random.default_rng(seed)
    omega = np.sort(rng.uniform(0.0, 2.5, size=dim)) + 0.3 * np.arange(dim)
    k = int(rng.integers(dim - 1))
    omega[k + 1:] += omega[k] + split - omega[k + 1]
    qs = {}
    for rid in ("L", "R"):
        x = rng.standard_normal((dim, dim))
        qs[rid] = 0.5 * (x + x.T)
    return build_junction(omega, qs)


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


def clusters_of(groups, i):
    [clusters] = [c for c, rows in groups if i in rows.tolist()]
    return clusters


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
       c=st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0]),
       picks=st.lists(st.one_of(st.integers(0, 35), st.floats(0.0, 5.0),
                                st.sampled_from([0.0, -1.0, np.nan, np.inf])),
                      min_size=1, max_size=20))
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
    groups, out = currents._cluster_groups(model, scales, c)
    rows = sorted(i for _, r in groups for i in r.tolist())
    assert rows == [i for i, e in enumerate(out) if e is None]
    assert len({cl.retained for cl, _ in groups}) == len(groups)
    for _, r in groups:
        assert r.tolist() == sorted(r.tolist())
    for i, scale in enumerate(scales.tolist()):
        try:
            want = currents._clusters(model, scale, c)
        except ValidationError as exc:
            assert type(out[i]) is ValidationError and str(out[i]) == str(exc)
            continue
        assert clusters_of(groups, i).retained == want.retained
        assert want.retained == steady.cluster_bohr_frequencies(model, scale, c).retained


def test_a_threshold_equal_to_a_bohr_frequency_retains_its_pairs():
    # c * scale = |omega_nm| exactly (0.5 and 1 here): the pair is retained
    # (<=); the group's clustering is that of its first temperature, and a
    # rejected scale whose threshold ties a group's fails alone
    model = build_junction([0.0, 1.0, 2.0, 2.5],
                           {"L": np.ones((4, 4)), "R": np.ones((4, 4))})
    scales = np.array([0.5, 1.0, 0.499, 2.0, 0.75, 1.0, 0.0, np.nan])
    groups, out = currents._cluster_groups(model, scales, 1.0)
    assert [r.tolist() for _, r in groups] == [[0, 4], [1, 5], [2], [3]]
    assert [cl.threshold for cl, _ in groups] == [0.5, 1.0, 0.499, 2.0]
    for cl, r in groups:
        want = steady.cluster_bohr_frequencies(model, float(scales[r[0]]), 1.0)
        assert cl.retained == want.retained
    assert (2, 3) in groups[0][0].retained and (2, 3) not in groups[2][0].retained
    assert (1, 2) in groups[1][0].retained and (1, 2) not in groups[0][0].retained
    assert out[:6] == [None] * 6
    assert str(out[6]) == "all population rates vanish; no steady state"
    assert str(out[7]) == "gamma_scale must be positive"


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
