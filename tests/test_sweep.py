import contextlib
import dataclasses
import math
import multiprocessing
import os
import signal
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrans import currents, redfield, steady, sweep
from ltrans.baths import w_table
from ltrans.config import parse_config_text
from ltrans.currents import (dot_transport, heat_current_2nd_general,
                             partial_secular_state, tls_closed_forms)
from ltrans.linalg import ValidationError, hermitian_eigensystem
from ltrans.model import build_junction
from ltrans.sweep import compute_row, run_sweep, worker_count
from ltrans.validate import run_validation

from test_config import benchmark_config_text

RABI = """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = 0.2
retained_levels = 3
fock_cutoff = 30
[baths]
T_left = 0.12
T_right = 0.08
alpha = 1e-3
omega_c = 5
[solver]
secular = partial
[sweep]
variable = g
start = 0.05
stop = 0.3
points = 3
"""

TLS = """
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
start = 0.05
stop = 2
points = 4
"""

RABI_FULL_T = """
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
points = 7
"""

DOT = """
[model]
type = dot
epsilon = 0.5
[baths]
statistics = fermi
gamma_left = 0.01
gamma_right = 0.01
T_left = 0.1
T_right = 0.1
[sweep]
variable = epsilon
start = -1
stop = 1
points = 5
"""


def config(text, tmp_path, **replace):
    """The config `text` with the keys of `replace` set to new values."""
    for old, new in replace.items():
        text = text.replace(f"{old} = ", f"{old} = {new}  # ")
    return parse_config_text(text + f"[output]\ncsv = {tmp_path / 'out.csv'}\n")


class Hung(BaseException):
    """Raised by `deadline`: not an Exception (nor an OSError, which a wait
    for a child process absorbs), so the code under test cannot swallow it."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise Hung in the block, rather than hang, after `seconds`."""
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def spy(monkeypatch, calls, name, *modules):
    """Count the calls of function `name` through each module's binding."""
    for module in modules:
        orig = getattr(module, name)

        def counted(*args, _orig=orig, **kwargs):
            calls.append(name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


@pytest.fixture
def eight_cpus(monkeypatch):
    """Let a sweep start up to 8 processes, however many CPUs this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


@pytest.mark.parametrize("text", [RABI, TLS, RABI_FULL_T], ids=["rabi", "tls", "rabi_full_T"])
def test_csv_byte_identical_for_any_worker_count(tmp_path, monkeypatch, eight_cpus, text):
    # stacks of 2 rows, so that the short T sweeps still reach the children
    monkeypatch.setattr(sweep, "_ROWS_PER_STACK", 2)
    out = {}
    for workers in (1, 2, 3):
        csv = tmp_path / f"w{workers}.csv"
        cfg = parse_config_text(text + f"[output]\ncsv = {csv}\n")
        result = run_sweep(cfg, workers=workers)
        assert result.ok and result.rows == cfg.points
        out[workers] = csv.read_bytes()
    assert out[1] == out[2] == out[3]
    rows = [compute_row(cfg, float(v)) for v in cfg.grid()]
    assert out[1].decode().splitlines()[1:] == rows


def test_worker_count_is_serial_unless_asked(monkeypatch):
    monkeypatch.delenv("LT_THREADS", raising=False)
    assert worker_count() == 1
    assert worker_count(3) == 3
    monkeypatch.setenv("LT_THREADS", "2")
    assert worker_count() == 2
    assert worker_count(1) == 1
    monkeypatch.setenv("LT_THREADS", "two")
    with pytest.raises(ValidationError, match="LT_THREADS"):
        worker_count()


@pytest.mark.parametrize("flag", [0, -4])
def test_non_positive_workers_flag_is_rejected(monkeypatch, flag):
    monkeypatch.setenv("LT_THREADS", "2")
    with pytest.raises(ValidationError, match="--workers"):
        worker_count(flag)


@pytest.mark.parametrize("env", ["0", "-1"])
def test_non_positive_lt_threads_is_rejected(monkeypatch, env):
    monkeypatch.setenv("LT_THREADS", env)
    with pytest.raises(ValidationError, match="LT_THREADS"):
        worker_count()
    assert worker_count(2) == 2                # the flag beats the variable


@pytest.mark.parametrize("text,bias,solves", [
    (TLS, {}, 1),                                       # T sweep: zero bias
    (RABI, {"T_right": 0.12}, 1),                       # g sweep at zero bias
    (RABI, {}, 1),                                      # g sweep, biased
], ids=["tls_T", "rabi_g_zero_bias", "rabi_g_biased"])
def test_partial_row_solves_once_at_zero_bias(tmp_path, monkeypatch, text, bias, solves):
    # kappa2's steady state at the common temperature is the row's own
    # state when T_left = T_right; a biased row solves its own state as one
    # more slice of the same stack
    calls = []
    spy(monkeypatch, calls, "_solve_retained", steady)
    cfg = config(text, tmp_path, **bias)
    cells = compute_row(cfg, 0.2).split(",")
    assert all(math.isfinite(float(c)) for c in cells[1:9])
    assert len(calls) == solves


@pytest.mark.parametrize("bias,solves", [({}, 1), ({"T_right": 0.08}, 1)],
                         ids=["zero_bias", "biased"])
def test_full_row_solves_once_at_zero_bias(tmp_path, monkeypatch, bias, solves):
    calls = []
    spy(monkeypatch, calls, "gamma_rates", currents)
    spy(monkeypatch, calls, "full_secular_steady", currents)
    cfg = config(RABI.replace("secular = partial", "secular = full"), tmp_path,
                 **{"T_left": 0.12, "T_right": 0.12, **bias})
    compute_row(cfg, 0.2)
    assert calls.count("gamma_rates") == solves
    assert calls.count("full_secular_steady") == solves


def test_zero_bias_currents_equal_an_explicit_solve(tmp_path):
    cfg = config(TLS, tmp_path)
    t = 0.5
    cells = compute_row(cfg, t).split(",")
    model = sweep._tls_junction(0.3, 1.0)
    baths = sweep._bose_baths(cfg.baths, t, t)
    state, _ = partial_secular_state(model, baths, c=cfg.cluster_factor,
                                     lamb_shift=cfg.lamb_shift)
    assert float(cells[5]) == heat_current_2nd_general(model, baths, "L", state)
    assert float(cells[6]) == heat_current_2nd_general(model, baths, "R", state)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the build spy reaches the child processes only if forked")
@pytest.mark.parametrize("text,builder,variable", [
    (TLS, "_tls_junction", "T"),
    (RABI_FULL_T, "build_rabi_junction", "T"),
    (RABI, "build_rabi_junction", "g"),
], ids=["tls_T", "rabi_full_T", "rabi_g"])
def test_model_built_once_per_chunk_of_a_t_sweep(tmp_path, monkeypatch, eight_cpus, text,
                                                  builder, variable):
    # the spy appends one line per build to a file, so that it counts the
    # builds of the forked child processes too; a T sweep reuses one model
    # per chunk, any other sweep builds one per row
    log = tmp_path / "builds.log"
    orig = getattr(sweep, builder)

    def logged(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return orig(*args, **kwargs)

    monkeypatch.setattr(sweep, builder, logged)
    monkeypatch.setattr(sweep, "_ROWS_PER_STACK", 2)    # 7 rows reach 3 chunks
    cfg = config(text, tmp_path, points=7)
    assert cfg.variable == variable
    csv = {}
    for workers, chunks in ((1, 1), (2, 2), (3, 3)):
        log.write_text("", encoding="utf-8")
        result = run_sweep(cfg, workers=workers)
        assert result.ok and result.rows == 7
        pids = log.read_text(encoding="utf-8").split()
        assert len(pids) == (chunks if variable == "T" else 7)
        assert len(set(pids)) == chunks            # one process per chunk,
        assert str(os.getpid()) in pids            # this one among them
        csv[workers] = (tmp_path / "out.csv").read_bytes()
    assert csv[1] == csv[2] == csv[3]


@pytest.mark.parametrize("text,grid,children", [
    (TLS, {"start": "1e-6", "points": 25}, {2: 0, 3: 0}),
    (RABI_FULL_T, {"points": 25}, {2: 0, 3: 0}),
    (TLS, {"start": "1e-6", "points": 600}, {2: 1, 3: 2}),
    (RABI, {"points": 12}, {2: 1}),
    (DOT, {"points": 100}, {2: 0, 3: 0}),
    (DOT, {"points": 600}, {2: 1, 3: 2}),
], ids=["tls_T_25", "rabi_full_T_25", "tls_T_600", "rabi_g_12", "dot_epsilon_100",
        "dot_epsilon_600"])
def test_children_a_sweep_starts(tmp_path, monkeypatch, eight_cpus, text, grid, children):
    # a child costs more than a short T sweep or dot sweep takes in all: such
    # a sweep of n rows runs in min(workers, ceil(n / _ROWS_PER_STACK))
    # processes, any other sweep in min(workers, n)
    assert sweep._ROWS_PER_STACK == 256
    started = []
    spy(monkeypatch, started, "Process", sweep.multiprocessing)
    cfg = config(text, tmp_path, **grid)
    csv = {}
    for workers in (1, *children):
        started.clear()
        result = run_sweep(cfg, workers=workers)
        assert result.ok and result.rows == cfg.points
        assert len(started) == children.get(workers, 0)
        csv[workers] = (tmp_path / "out.csv").read_bytes()
    assert len(set(csv.values())) == 1


def test_sweep_starts_no_process_beyond_the_usable_cpus(tmp_path, monkeypatch):
    # a process beyond the CPUs this one may use only waits for a CPU: at one
    # usable CPU a 12-row g sweep at 3 workers starts no child, and writes
    # the bytes that 3 processes write on 8 CPUs
    started = []
    spy(monkeypatch, started, "Process", sweep.multiprocessing)
    cfg = config(RABI, tmp_path, points=12)
    csv = {}
    for cpus, children in ((1, 0), (8, 2)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        started.clear()
        result = run_sweep(cfg, workers=3)
        assert result.ok and result.rows == 12
        assert len(started) == children
        csv[cpus] = (tmp_path / "out.csv").read_bytes()
    assert csv[1] == csv[8]


@pytest.mark.parametrize("count,usable", [(5, 5), (None, 1)])
def test_usable_cpus_without_an_affinity_set(monkeypatch, count, usable):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert sweep._usable_cpus() == usable


def test_child_rows_beyond_a_pipe_buffer_are_gathered(tmp_path, eight_cpus):
    # each child's 600 rows outgrow a 64 KiB pipe buffer, so the child is
    # still writing when the caller turns to it; receiving before joining
    # keeps that from deadlocking
    cfg = config(TLS, tmp_path, start="1e-3", points=1200)
    with deadline(60):
        result = run_sweep(cfg, workers=2)
    assert result.ok and result.rows == 1200
    rows = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len("\n".join(rows[600:])) > 65536
    assert [float(r.split(",")[1]) for r in rows] == [float(v) for v in cfg.grid()]


@pytest.mark.parametrize("workers", [2, 3])
def test_child_that_ends_without_its_rows_raises(tmp_path, monkeypatch, eight_cpus, workers):
    monkeypatch.setattr(sweep, "_ROWS_PER_STACK", 2)    # 6 rows reach 3 chunks
    cfg = config(TLS, tmp_path, points=6)
    first = float(cfg.grid()[0])
    chunk_task = sweep._chunk_task

    def dying(chunk):
        if chunk[1][0] != first:               # any chunk a child computes
            os._exit(3)
        return chunk_task(chunk)

    monkeypatch.setattr(sweep, "_chunk_task", dying)
    with deadline(60), pytest.raises(RuntimeError, match=r"chunk 1 .*exitcode 3"):
        run_sweep(cfg, workers=workers)
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out.csv").exists()


def test_run_sweep_checks_its_csv_path_before_any_row(tmp_path, monkeypatch):
    calls = []
    spy(monkeypatch, calls, "_chunk_task", sweep)
    csv = tmp_path / "missing" / "out.csv"
    cfg = parse_config_text(TLS + f"[output]\ncsv = {csv}\n")
    with pytest.raises(ValidationError, match="its directory does not exist"):
        run_sweep(cfg)
    assert calls == []
    assert not csv.parent.exists()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_failure_in_the_callers_chunk_leaves_no_child(tmp_path, monkeypatch, eight_cpus,
                                                      error):
    monkeypatch.setattr(sweep, "_ROWS_PER_STACK", 2)    # 6 rows reach 3 chunks
    started = []
    spy(monkeypatch, started, "Process", sweep.multiprocessing)
    cfg = config(TLS, tmp_path, points=6)
    first = float(cfg.grid()[0])

    def failing(chunk):
        if chunk[1][0] == first:               # the chunk this process computes
            raise error("caller's chunk")
        time.sleep(60)                         # the children are still running

    monkeypatch.setattr(sweep, "_chunk_task", failing)
    t0 = time.monotonic()
    with deadline(60), pytest.raises(error, match="caller's chunk"):
        run_sweep(cfg, workers=3)
    assert time.monotonic() - t0 < 30
    assert len(started) == 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("text,value,replace,tables,pairs", [
    (RABI_FULL_T, 0.1, {}, 0, 0), (TLS, 0.5, {}, 1, 4), (RABI, 0.2, {}, 1, 4),
    (RABI, 0.2, {"retained_levels": 21, "fock_cutoff": 40}, 1, 220),
], ids=["full", "partial_zero_bias", "partial_biased", "partial_biased_21"])
def test_w_tables_per_row(tmp_path, monkeypatch, text, value, replace, tables, pairs):
    # a kernel evaluates one W table per spectral density, over the distinct
    # bath temperatures (kappa2's common temperature, plus T_left and T_right
    # on a biased row), and the row's currents read the kernel's tables;
    # full-secular rates need none.  The table is evaluated on the pairs a
    # coupling joins: every pair of the biased qubit (epsilon = 0.3), the
    # cross-sector pairs of a zero-bias Rabi model (levels 0 and 2 against
    # level 1 of three; 11 against 10 levels of 21)
    binders = [m for m in list(sys.modules.values())
               if getattr(m, "__name__", "").startswith("ltrans")
               and getattr(m, "w_table", None) is w_table]
    assert {"ltrans.redfield", "ltrans.currents"} <= {m.__name__ for m in binders}
    sizes = []          # per call, the frequencies it evaluates
    for module in binders:
        def recorded(omega, bath, _orig=getattr(module, "w_table")):
            sizes.append(np.size(getattr(omega, "omega", omega)))
            return _orig(omega, bath)

        monkeypatch.setattr(module, "w_table", recorded)
    compute_row(config(text, tmp_path, **replace), value)
    assert sizes == [pairs] * tables


@pytest.mark.parametrize("name", ["rabi5_full_T", "tls_partial_lowT"])
def test_nominal_zero_bias_sweeps_write_their_stored_rows(tmp_path, monkeypatch, name):
    """The nominal T sweeps of the benchmark write, byte for byte, the rows
    stored under tests/reference.

    Their currents are roundoff of an exact zero (I_L and I_R at zero
    thermal bias), down to the 1e-18 that the benchmark's reference gate
    allows them, so any change in the order of a sum shows here first.
    This test goes once ROADMAP item 1 gives that gate a floor at the
    roundoff of the current's terms; until then a change that moves these
    bits must say why and regenerate both the benchmark's reference rows
    and these.
    """
    csv = tmp_path / f"{name}.csv"
    cfg = parse_config_text(benchmark_config_text(monkeypatch, name, str(csv)))
    assert run_sweep(cfg, workers=1).ok
    stored = Path(__file__).parent / "reference" / f"{name}.csv"
    assert csv.read_bytes() == stored.read_bytes()


def test_failed_model_build_fails_every_row_of_its_chunk(tmp_path):
    cfg = config(RABI_FULL_T, tmp_path, g=1.5, fock_cutoff=16, points=3)
    result = run_sweep(cfg, workers=1)
    assert [i for i, _ in result.failures] == [0, 1, 2]
    assert len({err for _, err in result.failures}) == 1
    assert result.failures[0][1].startswith("ValidationError: Fock truncation")
    with pytest.raises(ValidationError, match="Fock truncation"):
        compute_row(cfg, 0.1)


def test_validation_suite_passes():
    lines = []
    assert run_validation(out=lines.append) == 0
    assert lines[-1].startswith("OK")


@pytest.mark.filterwarnings("error")
def test_cold_tls_partial_row_matches_closed_form(tmp_path):
    # T = 1e-6 omega_ref: the bath rates are far beyond reach of a Matsubara series
    cfg = parse_config_text(TLS + f"[output]\ncsv = {tmp_path / 'cold.csv'}\n")
    cells = compute_row(cfg, 1e-6).split(",")
    values = [float(c) for c in cells[1:9]]
    assert all(math.isfinite(v) for v in values)
    omega_q = math.hypot(0.3, 1.0)
    q = 1.0 / omega_q                 # |<0|sigma_z|1>| in the eigenbasis
    _, _, k4 = tls_closed_forms(omega_q, q, q, 1e-3, 1e-6, 1e-6, omega_c=5.0)
    assert float(cells[3]) == pytest.approx(k4, rel=1e-9)


def tls_junction_through_build_junction(epsilon, delta):
    """The two-level junction as `sweep._tls_junction` first built it: the
    eigenbasis through `build_junction`, then its sector labels."""
    h = np.array([[-0.5 * epsilon, -0.5 * delta],
                  [-0.5 * delta, 0.5 * epsilon]], dtype=complex)
    _, v = hermitian_eigensystem(h)
    sz = np.diag([1.0, -1.0]).astype(complex)
    q = (v.conj().T @ sz @ v).real
    wq = float(np.hypot(epsilon, delta))
    model = build_junction([-0.5 * wq, 0.5 * wq], {"L": q, "R": q.copy()})
    if epsilon != 0.0:
        return model
    return dataclasses.replace(model, sector=np.array([1, -1]) * int(np.sign(delta)))


TLS_PARAMETER = st.one_of(st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1.0, -1.0, 0.3]),
                          st.floats(-5.0, 5.0, allow_subnormal=False))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(epsilon=TLS_PARAMETER, delta=TLS_PARAMETER)
def test_tls_junction_is_bitwise_the_build_junction_model(epsilon, delta):
    # built directly, the model keeps every bit of the generic build
    got = sweep._tls_junction(epsilon, delta)
    want = tls_junction_through_build_junction(epsilon, delta)
    assert got.omega.dtype == want.omega.dtype and got.omega.tobytes() == want.omega.tobytes()
    assert got.q_ops.keys() == want.q_ops.keys()
    for rid in ("L", "R"):
        assert got.q(rid).dtype == want.q(rid).dtype
        assert got.q(rid).tobytes() == want.q(rid).tobytes()
    if want.sector is None:
        assert got.sector is None
    else:
        assert got.sector.dtype == want.sector.dtype
        assert got.sector.tobytes() == want.sector.tobytes()


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_tls_junction_couples_both_baths_through_sigma_z(epsilon):
    # H = -(epsilon sigma_z + Delta sigma_x) / 2: levels -+omega_q / 2, and
    # sigma_z in the eigenbasis has diagonal (epsilon, -epsilon) / omega_q
    # and off-diagonal of magnitude Delta / omega_q
    delta = 1.0
    omega_q = math.hypot(epsilon, delta)
    model = sweep._tls_junction(epsilon, delta)
    q = model.q("L")
    assert np.array_equal(q, model.q("R")) and q.dtype == float
    np.testing.assert_allclose(model.omega, [-0.5 * omega_q, 0.5 * omega_q],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.diag(q), [epsilon / omega_q, -epsilon / omega_q],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.abs([q[0, 1], q[1, 0]]), delta / omega_q,
                               rtol=0, atol=1e-15)


def test_partial_row_never_builds_the_full_kernel_tensor(tmp_path, monkeypatch):
    # a 21-level partial-secular row needs only the retained kernel block:
    # building all N^4 entries (through k2_tensor_from_w or a block over all
    # N^2 pairs) is a regression of the retained-block path
    def full_tensor(*args, **kwargs):
        raise AssertionError("full N^4 kernel tensor built on a partial-secular row")

    block_sizes = []
    block_entries = redfield._block_entries     # every block

    def counting_entries(q, w, maps, rates):
        block_sizes.append(len(maps[0]))        # its pairs
        return block_entries(q, w, maps, rates)

    monkeypatch.setattr(redfield, "k2_tensor_from_w", full_tensor)
    monkeypatch.setattr(redfield, "_block_entries", counting_entries)
    cfg = parse_config_text(RABI.replace("retained_levels = 3", "retained_levels = 21")
                            .replace("fock_cutoff = 30", "fock_cutoff = 40")
                            + f"[output]\ncsv = {tmp_path / 'r21.csv'}\n")
    cells = compute_row(cfg, 0.2).split(",")
    assert all(math.isfinite(float(c)) for c in cells[1:9])
    assert cells[-1] == "21"
    # the kappa2 state and the biased state in one stacked block, and the
    # temperature derivative of the kappa2 state
    assert len(block_sizes) == 2
    assert all(p < 21 * 21 for p in block_sizes)


@pytest.mark.parametrize("secular", ["partial", "full"])
def test_rabi_row_makes_no_dense_diagonalization(tmp_path, monkeypatch, secular):
    # the Rabi junction is solved as a band: a dense Hermitian solve on a
    # Rabi row is a regression of the banded path
    def dense(*args, **kwargs):
        raise AssertionError("dense eigensolver called on a Rabi row")

    for name, module in list(sys.modules.items()):
        if name.startswith("ltrans") and hasattr(module, "hermitian_eigensystem"):
            monkeypatch.setattr(module, "hermitian_eigensystem", dense)
    monkeypatch.setattr(np.linalg, "eigh", dense)
    cfg = parse_config_text(RABI.replace("secular = partial", f"secular = {secular}")
                            + f"[output]\ncsv = {tmp_path / 'rabi.csv'}\n")
    cells = compute_row(cfg, 0.2).split(",")
    assert all(math.isfinite(float(c)) for c in cells[1:9])
    assert cells[-1] == "3"


DOT_ROW = """
[model]
type = dot
epsilon = {epsilon!r}
[baths]
statistics = fermi
gamma_left = {gammas[0]!r}
gamma_right = {gammas[1]!r}
mu_left = {mus[0]!r}
mu_right = {mus[1]!r}
T_left = {temps[0]!r}
T_right = {temps[1]!r}
[sweep]
variable = {variable}
start = {value!r}
stop = {value!r}
points = 1
[output]
csv = out.csv
"""

TEMPERATURES = st.floats(-6.0, 1.0).map(lambda e: 10.0**e)
# a lead coupling, or none
GAMMAS = st.one_of(st.just(0.0), st.floats(1e-4, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-1.0, 1.0), bias=st.floats(-0.5, 0.5),
       offset=st.one_of(st.floats(-1e-5, 1e-5), st.floats(-3.0, 3.0)),
       gammas=st.tuples(GAMMAS, GAMMAS), temps=st.tuples(TEMPERATURES, TEMPERATURES),
       variable=st.sampled_from(["epsilon", "T"]))
def test_every_dot_row_is_finite_or_names_its_fault(mu, bias, offset, gammas, temps,
                                                    variable):
    # the level near or away from the leads' potentials, either lead
    # decoupled, temperatures down to 1e-6 and a bias of either sign: the row
    # is finite and silent, unless no lead couples to the dot, which the
    # config names
    epsilon = mu + offset
    value = epsilon if variable == "epsilon" else temps[0]
    text = DOT_ROW.format(epsilon=epsilon, gammas=gammas, mus=(mu + bias, mu - bias),
                          temps=temps, variable=variable, value=value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            row = compute_row(parse_config_text(text), value)
        except ValidationError as exc:
            assert gammas == (0.0, 0.0)
            assert str(exc) == ("the dot is coupled to no lead: gamma_left + "
                                "gamma_right must be positive")
            return
    assert gammas != (0.0, 0.0)
    assert np.isfinite([float(v) for v in row.split(",")[1:-2]]).all()


def test_a_biased_dot_row_takes_kappa2_at_the_mean_temperature_and_potential():
    # as a rabi or tls row takes kappa2 at the mean bath temperature
    text = DOT_ROW.format(epsilon=-0.04, gammas=(0.01, 0.01), mus=(0.1, -0.05),
                          temps=(0.02, 0.001), variable="epsilon", value=-0.04)
    kappa2 = float(compute_row(parse_config_text(text), -0.04).split(",")[2])
    t = 0.5 * (0.02 + 0.001)
    leads = [dict(id=rid, gamma=0.01, beta=1.0 / t, mu=0.5 * (0.1 - 0.05)) for rid in "LR"]
    assert kappa2 == pytest.approx(dot_transport(-0.04, leads).kappa, rel=1e-14)
    # dI_R / dT_left at that point
    dt = 1e-5 * t
    hot, cold = ([dict(leads[0], beta=1.0 / (t + s)), leads[1]] for s in (dt, -dt))
    fd = (dot_transport(-0.04, hot).heat["R"] - dot_transport(-0.04, cold).heat["R"]) / (2 * dt)
    assert kappa2 == pytest.approx(fd, rel=1e-8)
